"""Structure constants, brackets, series, and subspace operations."""

import json

import pytest
from hypothesis import given, strategies as st

from lieform import (
    Field,
    chief_series,
    derivation_algebra,
    enumerate_ideals,
    enumerate_subalgebras,
    JacobiViolationError,
    LieAlgebra,
    NotAnIdealError,
    NotASubalgebraError,
    ParseError,
    Subspace,
)
from lieform.linalg import linear_combination
from support import abelian, algebra, h3, r2, r2_plus_line, small_streams

F3 = Field.gf(3)


def test_from_dict_rejects():
    good = {"field": "GF(3)", "dim": 2, "brackets": [{"i": 1, "j": 2, "value": ["0", "1"]}]}
    for mutate in [
        lambda d: d.pop("dim"),
        lambda d: d.__setitem__("dim", -1),
        lambda d: d.__setitem__("dim", "2"),
        lambda d: d.__setitem__("field", 3),
        lambda d: d.__setitem__("brackets", {}),
        lambda d: d["brackets"].append({"i": 1, "j": 2, "value": ["0", "0"]}),
        lambda d: d["brackets"].append({"i": 2, "j": 1, "value": ["0", "0"]}),
        lambda d: d["brackets"].append({"i": 1, "j": 1, "value": ["0", "0"]}),
        lambda d: d["brackets"].append({"i": 1, "j": 3, "value": ["0", "0"]}),
        lambda d: d["brackets"][0].__setitem__("value", ["0"]),
        lambda d: d["brackets"][0].__setitem__("value", ["0", 1]),
        lambda d: d["brackets"][0].__setitem__("value", ["0", "x"]),
    ]:
        data = {"field": good["field"], "dim": good["dim"], "brackets": [dict(b) for b in good["brackets"]]}
        mutate(data)
        with pytest.raises(ParseError):
            LieAlgebra.from_dict(data)


def test_from_dict_validates_jacobi():
    bad = {
        "field": "Q",
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "value": ["1", "0", "0"]},
            {"i": 1, "j": 3, "value": ["0", "1", "0"]},
        ],
    }
    with pytest.raises(JacobiViolationError) as exc:
        LieAlgebra.from_dict(bad)
    assert exc.value.triple == (1, 2, 3)
    loaded = LieAlgebra.from_dict(bad, validate=False)
    assert loaded.dim == 3


def test_rejected_table_is_not_interned():
    # a table no other test builds: [e1,e2] = e3, [e1,e3] = 2 e1 over GF(7)
    bad = {
        "field": "GF(7)",
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "value": ["0", "0", "1"]},
            {"i": 1, "j": 3, "value": ["2", "0", "0"]},
        ],
    }
    before = len(LieAlgebra._interned)
    with pytest.raises(JacobiViolationError):
        LieAlgebra.from_dict(bad)
    assert len(LieAlgebra._interned) == before


def _diagonal_gf7():
    # e1 acts on e2, e3 with eigenvalues 1 and 3: a table no other test builds
    return LieAlgebra(Field.gf(7), 3, {(0, 1): (0, 1, 0), (0, 2): (0, 0, 3)})


def _derived_data(a):
    return (
        a.derived_series(),
        a.centre(),
        chief_series(a).ideals,
        derivation_algebra(a).subspace,
    )


def test_released_algebra_gives_the_same_answers():
    a = _diagonal_gf7()
    before = _derived_data(a)
    assert a._cache
    a.release()
    assert not a._cache
    assert _derived_data(a) == before


def test_release_reinterns_and_stale_release_keeps_the_live_instance():
    old = _diagonal_gf7()
    old.release()
    new = _diagonal_gf7()
    assert new is not old and new == old
    assert _diagonal_gf7() is new
    new.centre()
    old.release()
    assert _diagonal_gf7() is new
    assert "centre" in new._cache


def test_roundtrip_interns():
    a = r2()
    b = LieAlgebra.from_dict(a.to_dict())
    assert a is b
    c = LieAlgebra.from_dict(json.loads(a.to_json()))
    assert a is c


def test_bracket_table_and_antisymmetry():
    a = r2()
    x, y = (1, 0), (0, 1)
    assert a.bracket(x, y) == (0, 1)
    assert a.bracket(y, x) == (0, 2)
    assert a.bracket(y, y) == (0, 0)


vec3 = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)


@given(vec3, vec3, st.integers(min_value=0, max_value=2))
def test_bracket_bilinear(u, v, c):
    a = r2_plus_line()
    f = a.field
    cu = tuple(f.mul(c, x) for x in u)
    left = a.bracket(cu, v)
    scaled = tuple(f.mul(c, x) for x in a.bracket(u, v))
    assert left == scaled
    w = tuple(f.add(x, y) for x, y in zip(u, v))
    lhs = a.bracket(w, v)
    rhs = tuple(f.add(x, y) for x, y in zip(a.bracket(u, v), a.bracket(v, v)))
    assert lhs == rhs


@given(vec3)
def test_basis_brackets_match_bracket(y):
    a = h3()
    images = a.basis_brackets([y])
    assert [row[0] for row in images] == [a.bracket(e, y) for e in a.basis_vectors()]


def test_series_fixtures():
    a = r2()
    assert [s.dim for s in a.derived_series()] == [2, 1, 0]
    assert [s.dim for s in a.lower_central_series()] == [2, 1]
    assert a.is_soluble() and not a.is_nilpotent()

    b = h3()
    assert [s.dim for s in b.derived_series()] == [3, 1, 0]
    assert [s.dim for s in b.lower_central_series()] == [3, 1, 0]
    assert b.is_nilpotent()

    c = abelian("GF(2)", 3)
    assert [s.dim for s in c.derived_series()] == [3, 0]
    assert c.is_abelian()


def test_centre_centralizer_normalizer():
    b = h3()
    assert b.centre() == Subspace.span(F3, 3, [(0, 0, 1)])
    e1 = Subspace.span(F3, 3, [(1, 0, 0)])
    # [e2, e1] = -e3 lands in the centre, outside span{e1}
    assert b.normalizer(e1) == Subspace.span(F3, 3, [(1, 0, 0), (0, 0, 1)])
    a = r2()
    x = Subspace.span(F3, 2, [(1, 0)])
    assert a.normalizer(x) == x
    assert a.centralizer(a.full_space()) == Subspace.zero_space(F3, 2)


def test_centralizer_of_factor():
    a = r2()
    y = Subspace.span(F3, 2, [(0, 1)])
    zero = Subspace.zero_space(F3, 2)
    assert a.centralizer_of_factor(y, zero) == y
    assert a.centralizer_of_factor(a.full_space(), y) == a.full_space()


def test_core():
    a = r2()
    x = Subspace.span(F3, 2, [(1, 0)])
    y = Subspace.span(F3, 2, [(0, 1)])
    assert a.core(x).is_zero()
    assert a.core(y) == y
    assert a.core(a.full_space()) == a.full_space()


def test_core_is_the_largest_ideal_inside():
    # the one-stabiliser steps against the exhaustive ideal listing, on
    # every subalgebra of the small streams
    for a in small_streams():
        ideals = enumerate_ideals(a)
        for s in enumerate_subalgebras(a):
            largest = max((i for i in ideals if i <= s), key=lambda i: i.dim)
            assert a.core(s) == largest


def test_nilradical_fixtures():
    assert r2().nilradical() == Subspace.span(F3, 2, [(0, 1)])
    b = h3()
    assert b.nilradical() == b.full_space()
    c = r2_plus_line()
    assert c.nilradical() == Subspace.span(F3, 3, [(0, 1, 0), (0, 0, 1)])


def test_restrict():
    a = r2_plus_line()
    s = Subspace.span(F3, 3, [(1, 0, 0), (0, 1, 0)])
    sub, mapping = a.restrict(s)
    assert sub.dim == 2
    assert sub.bracket((1, 0), (0, 1)) == (0, 1)
    assert mapping.lift((1, 0)) == (1, 0, 0)
    # span{e1, e2} in h3 is not closed: [e1, e2] = e3
    h = h3()
    with pytest.raises(NotASubalgebraError):
        h.restrict(Subspace.span(F3, 3, [(1, 0, 0), (0, 1, 0)]))


def test_quotient():
    a = r2()
    y = Subspace.span(F3, 2, [(0, 1)])
    q, qmap = a.quotient(y)
    assert q.dim == 1 and q.is_abelian()
    with pytest.raises(NotAnIdealError):
        a.quotient(Subspace.span(F3, 2, [(1, 0)]))


def _factor_views():
    """(algebra, factor algebra, view): a quotient of h3 and span{e1, e2} of r2 + line."""
    h, a = h3(), r2_plus_line()
    return [
        (h,) + h.quotient(Subspace.span(F3, 3, [(0, 0, 1)])),
        (a,) + a.restrict(Subspace.span(F3, 3, [(1, 0, 0), (0, 1, 0)])),
    ]


@given(vec3, vec3)
def test_quotient_projection_is_homomorphism(u, v):
    for a, q, view in _factor_views():
        # u and v pick elements of the view's top space by their coordinates
        k = view.top.dim
        x = linear_combination(F3, u[:k], view.top.basis, 3)
        y = linear_combination(F3, v[:k], view.top.basis, 3)
        assert view.coords(a.bracket(x, y)) == q.bracket(view.coords(x), view.coords(y))


def test_quotient_section():
    for _, q, view in _factor_views():
        for i in range(q.dim):
            e = tuple(1 if j == i else 0 for j in range(q.dim))
            assert view.coords(view.lift(e)) == e


def test_product_space_and_ideals():
    a = r2()
    assert a.product_space(a.full_space(), a.full_space()) == Subspace.span(F3, 2, [(0, 1)])
    assert a.is_ideal(Subspace.span(F3, 2, [(0, 1)]))
    assert not a.is_ideal(Subspace.span(F3, 2, [(1, 0)]))
    assert a.is_subalgebra(Subspace.span(F3, 2, [(1, 0)]))
