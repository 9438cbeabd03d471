"""Minimal ideals, chief series, irreducibility, and split extensions."""

import random
from fractions import Fraction

import pytest

from lieform import (
    EnumerationBudget,
    FactorView,
    Field,
    FieldMismatchError,
    JacobiViolationError,
    LieAlgebra,
    Matrix,
    NotADerivationError,
    NotSolubleError,
    Subspace,
    UnsupportedFieldError,
    ZeroAlgebraError,
    avoids,
    chief_series,
    covers,
    enumerate_ideals,
    enumerate_soluble,
    is_irreducible,
    minimal_ideal,
    minimal_ideals_exhaustive,
    split_extension_by_derivation,
)
from lieform.chief import _char_poly
from support import (
    abelian,
    algebra,
    h3,
    identity_rows,
    is_q_payload,
    r2,
    r2_plus_line,
    rotation,
    rotation_plus_centre,
    split_extension,
)

F2 = Field.gf(2)
F3 = Field.gf(3)


def test_minimal_ideal_fixtures_gfp():
    assert minimal_ideal(r2()) == Subspace.span(F3, 2, [(0, 1)])
    assert minimal_ideal(h3()) == Subspace.span(F3, 3, [(0, 0, 1)])


def test_minimal_ideal_matches_exhaustive():
    # the deterministic choice must be one of the brute-force minimal ideals
    budget = EnumerationBudget(max_dim=3, field=F2)
    for a in enumerate_soluble(budget):
        chosen = minimal_ideal(a)
        candidates = minimal_ideals_exhaustive(a)
        assert chosen in candidates


def test_minimal_ideal_errors():
    with pytest.raises(ZeroAlgebraError):
        minimal_ideal(abelian("GF(3)", 0))
    so3 = algebra(
        "Q",
        3,
        {(1, 2): (0, 0, 1), (1, 3): (0, 1, 0), (2, 3): (1, 0, 0)},
    )
    with pytest.raises(NotSolubleError):
        minimal_ideal(so3)


def test_minimal_ideal_q_line_search():
    assert minimal_ideal(r2("Q")) == Subspace.span(Field.rationals(), 2, [(0, 1)])
    # no rational eigenline inside the irreducible 2-dim minimal ideal
    with pytest.raises(UnsupportedFieldError):
        minimal_ideal(rotation())
    # but a central line elsewhere must still be found
    found = minimal_ideal(rotation_plus_centre())
    assert found == Subspace.span(Field.rationals(), 4, [(0, 0, 0, 1)])


def test_chief_series_fixtures():
    series = chief_series(r2())
    assert [s.dim for s in series.ideals] == [0, 1, 2]
    assert all(f.dim == 1 for f in series.factors)
    series3 = chief_series(h3())
    assert [s.dim for s in series3.ideals] == [0, 1, 2, 3]
    assert series3.ideals[1] == Subspace.span(F3, 3, [(0, 0, 1)])


def test_chief_series_ideals_and_irreducible():
    for a in (r2(), h3(), r2_plus_line("GF(2)")):
        series = chief_series(a)
        for s in series.ideals:
            assert a.is_ideal(s)
        for f in series.factors:
            assert is_irreducible(f)


def test_chief_series_cross_validation():
    """Two independent series agree on factor dimensions (Jordan-Hoelder)."""
    for p in (2, 3):
        budget = EnumerationBudget(max_dim=3, field=Field.gf(p))
        for a in enumerate_soluble(budget):
            first = sorted(f.dim for f in chief_series(a).factors)
            second = sorted(f.dim for f in chief_series(a, alternate=True).factors)
            assert first == second


def test_chief_series_q_unsupported():
    with pytest.raises(UnsupportedFieldError):
        chief_series(rotation())


def test_covers_avoids():
    a = r2()
    series = chief_series(a)
    bottom_factor, top_factor = series.factors
    x = Subspace.span(F3, 2, [(1, 0)])
    assert avoids(x, bottom_factor) and not covers(x, bottom_factor)
    assert covers(x, top_factor) and not avoids(x, top_factor)
    y = Subspace.span(F3, 2, [(0, 1)])
    assert covers(y, bottom_factor)


def ad_rows(a, x):
    """The rows of ad x in the right-action convention: row k is [x, e_k]."""
    return [a.bracket(x, e) for e in a.basis_vectors()]


def test_module_validate():
    a = r2()
    plane = LieAlgebra.abelian(F3, 2)
    # identity actions cannot represent a nonzero bracket
    with pytest.raises(JacobiViolationError):
        split_extension(plane, a, [identity_rows(2), identity_rows(2)])
    # the adjoint actions do satisfy the identity
    split_extension(plane, a, [ad_rows(a, (1, 0)), ad_rows(a, (0, 1))])
    # an action on a nonabelian ideal must also be a derivation of it
    with pytest.raises(JacobiViolationError):
        split_extension(a, LieAlgebra.abelian(F3, 1), [identity_rows(2)])


def test_rejected_extension_is_not_interned():
    # identity actions of r2 on a plane over GF(5), a field no other test extends over
    f5 = Field.gf(5)
    a = r2("GF(5)")
    plane = LieAlgebra.abelian(f5, 2)
    actions = [identity_rows(2), identity_rows(2)]
    before = len(LieAlgebra._interned)
    with pytest.raises(JacobiViolationError):
        split_extension(plane, a, actions)
    assert len(LieAlgebra._interned) == before


def test_rejected_derivation_extension_is_not_interned():
    # the zero derivation passes the Leibniz check on any table, so only the
    # Jacobi check before interning can refuse an extension of a non-Jacobi parent
    bad = LieAlgebra(Field.gf(7), 3, {(0, 1): (1, 0, 0), (0, 2): (0, 1, 0)})
    with pytest.raises(JacobiViolationError):
        bad.validate()
    before = len(LieAlgebra._interned)
    with pytest.raises(JacobiViolationError):
        split_extension_by_derivation(bad, [[0] * 3] * 3)
    assert len(LieAlgebra._interned) == before


def test_derivation_matrix_over_another_field_refused():
    # a Q matrix holding 1/2 must not be read mod 3 as 2; row lists stay accepted
    line = LieAlgebra.abelian(F3, 1)
    before = len(LieAlgebra._interned)
    with pytest.raises(FieldMismatchError):
        split_extension_by_derivation(line, Matrix(Field.rationals(), [[Fraction(1, 2)]]))
    assert len(LieAlgebra._interned) == before
    assert split_extension_by_derivation(line, Matrix(F3, [[2]])).dim == 2


def test_adjoint_module_irreducible():
    a = r2()
    # quotient action on the 1-dim factor L/span{y} is trivial, irreducible
    series = chief_series(a)
    assert is_irreducible(series.factors[0])


def test_irreducible_q_guard():
    from lieform import ChiefFactor

    rot = rotation()
    factor = ChiefFactor(rot, rot.derived_subalgebra(), Subspace.zero_space(Field.rationals(), 3))
    with pytest.raises(UnsupportedFieldError):
        is_irreducible(factor)


def test_reducible_factor():
    # every line of abelian GF(2)^2 is an ideal between 0 and L
    ab = abelian("GF(2)", 2)
    assert not is_irreducible(FactorView(ab, ab.full_space(), ab.zero_space()))


def test_irreducible_matches_ideal_lattice():
    # I < J is irreducible exactly when no listed ideal lies strictly between
    for p in (2, 3):
        for a in enumerate_soluble(EnumerationBudget(max_dim=3, field=Field.gf(p))):
            ideals = enumerate_ideals(a)
            for bottom in ideals:
                for top in ideals:
                    if bottom < top:
                        between = any(bottom < k < top for k in ideals)
                        assert is_irreducible(FactorView(a, top, bottom)) == (not between)


def test_split_extension_brackets():
    a = r2()
    # adjoint action of r2 on itself as a module
    actions = [ad_rows(a, v) for v in ((1, 0), (0, 1))]
    big = split_extension(LieAlgebra.abelian(F3, 2), a, actions)
    assert big.dim == 4
    big.validate()
    # module copy first: [x_act, v_mod] = v * ad(x)
    x = (0, 0, 1, 0)
    v = (0, 1, 0, 0)
    assert big.bracket(x, v) == (0, 1, 0, 0)
    # the acting copy keeps its own bracket [e1, e2] = e2
    assert big.bracket(x, (0, 0, 0, 1)) == (0, 0, 0, 1)


def test_split_extension_by_derivation():
    a = r2()
    d = Matrix(F3, [[0, 0], [0, 1]])
    big = split_extension_by_derivation(a, d)
    assert big.dim == 3
    big.validate()
    # new generator is the last coordinate: [x_d, y] = d(y)
    assert big.bracket((0, 0, 1), (0, 1, 0)) == (0, 1, 0)
    assert big.bracket((1, 0, 0), (0, 0, 1)) == (0, 0, 0)
    # the identity is not a derivation of r2: d[x,y] = y but [dx,y]+[x,dy] = 2y
    with pytest.raises(NotADerivationError):
        split_extension_by_derivation(a, identity_rows(2))


def _det(rows):
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


def test_char_poly_exact_on_int_rows():
    # int rows (the Q payload of integral entries) give the same exact
    # coefficients as the same rows written as Fractions: no float division
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        coeffs = _char_poly(rows)
        assert coeffs == _char_poly([[Fraction(x) for x in row] for row in rows])
        assert all(is_q_payload(c) for c in coeffs)
        assert coeffs[0] == 1 and coeffs[1] == -sum(rows[i][i] for i in range(k))
        assert coeffs[-1] == (-1) ** k * _det(rows)
