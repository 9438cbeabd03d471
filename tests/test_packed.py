"""GF(2) vectors packed end to end, against mod-2 list arithmetic.

Over GF(2) the structure table, a derivation's rows and the residuals the
kernels join stay packed as integers from bracket to accumulator.  These
tests compare every packed path with the plain-list oracles of
tests/support.py on random tables and derivations, check that a packed int
that does not fit its ambient space is refused by every kernel that takes
one, and count gf2_pack calls to check that immutable rows are packed once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lieform import (
    AmbientMismatchError,
    Derivation,
    DimensionMismatchError,
    EchelonAccumulator,
    EnumerationBudget,
    FactorView,
    Field,
    LieAlgebra,
    Matrix,
    Subspace,
    derivation_algebra,
    enumerate_soluble,
    extension_defect,
    linalg,
    normalizer_fills_extension,
)
from lieform.linalg import (
    close,
    from_kernel,
    gf2_pack,
    kernel_form,
    kernel_images,
    stabiliser,
)
from support import (
    mod2_basis_brackets,
    mod2_centraliser,
    mod2_core,
    mod2_elements,
    mod2_factor_coords,
    mod2_fills_extension,
    mod2_stabiliser,
    mod2_sum,
)

F2 = Field(2)
STREAM = list(enumerate_soluble(EnumerationBudget(max_dim=4, field=F2, per_step_cap=12, seed=5)))

# an entry is any int; the kernels reduce it mod 2 as they pack it
entry = st.integers(min_value=-2, max_value=3)


@st.composite
def random_table(draw, max_dim=4):
    """A random bilinear table over GF(2), antisymmetric, Jacobi not required."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    brackets = [
        ((i, j), draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return LieAlgebra(F2, n, brackets)


def vectors(n, min_size=0, max_size=4):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=min_size, max_size=max_size)


def elements(space):
    return mod2_elements(space.basis, space.ambient_dim)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_brackets_match_mod2_oracle(data):
    algebra = data.draw(random_table())
    vecs = data.draw(vectors(algebra.dim))
    expected = mod2_basis_brackets(algebra.table, vecs)
    # sequences in and packed ints in both give packed brackets
    unpacked = algebra.kernel_brackets(vecs)
    assert [[from_kernel(F2, v, algebra.dim) for v in row] for row in unpacked] == expected
    packed = algebra.kernel_brackets([gf2_pack(v) for v in vecs])
    assert packed == unpacked == [[gf2_pack(v) for v in row] for row in expected]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derivation_call_matches_mod2_oracle(data):
    algebra = data.draw(st.sampled_from(STREAM))
    n = algebra.dim
    basis = derivation_algebra(algebra).basis
    coeffs = data.draw(st.lists(entry, min_size=len(basis), max_size=len(basis)))
    rows = [mod2_sum(coeffs, [d.matrix.rows[i] for d in basis], n) for i in range(n)]
    d = Derivation(algebra, Matrix(F2, rows))
    for v in data.draw(vectors(n, min_size=1)):
        assert d(v) == mod2_sum(v, rows, n)
        assert d(v) == d(v)  # the second call reads the rows packed at the first


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_centralizer_of_factor_matches_mod2_oracle(data):
    algebra = data.draw(random_table())
    a = algebra.span(data.draw(vectors(algebra.dim)))
    b = algebra.span(data.draw(st.lists(st.sampled_from(a.basis), max_size=a.dim)) if a.basis else ())
    got = algebra.centralizer_of_factor(a, b)
    assert elements(got) == mod2_centraliser(algebra.table, a.basis, b.basis)
    assert elements(algebra.centralizer(a)) == mod2_centraliser(algebra.table, a.basis, ())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_core_matches_mod2_oracle(data):
    algebra = data.draw(random_table())
    s = algebra.span(data.draw(vectors(algebra.dim)))
    assert elements(algebra.core(s)) == mod2_core(algebra.table, s.basis)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stabiliser_matches_mod2_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    into = Subspace.span(F2, n, data.draw(vectors(n)))
    width = data.draw(st.integers(min_value=1, max_value=3))
    images = data.draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=width, max_size=width), max_size=4))
    expected = mod2_stabiliser(images, into.basis, n)
    got = stabiliser(F2, images, into)
    assert mod2_elements(got.basis, len(images)) == expected
    # the same images packed give the same subspace, basis tuples and all
    packed = stabiliser(F2, [[gf2_pack(v) for v in row] for row in images], into)
    assert packed == got and packed.basis == got.basis


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_factor_coords_match_mod2_oracle(data):
    algebra = data.draw(random_table())
    n = algebra.dim
    top = algebra.span(data.draw(vectors(n, min_size=1)))
    picks = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=top.dim, max_size=top.dim), max_size=3))
    bottom = algebra.span(mod2_sum(c, top.basis, n) for c in picks)
    view = FactorView(algebra, top, bottom)
    for c in data.draw(st.lists(st.lists(entry, min_size=top.dim, max_size=top.dim), min_size=1, max_size=3)):
        vec = mod2_sum(c, top.basis, n)
        (expected,) = mod2_factor_coords(view.space.basis, bottom.basis, vec, n)
        assert view.coords(vec) == expected
        assert view.coords(gf2_pack(vec)) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_criterion_matches_mod2_oracle(data):
    algebra = data.draw(st.sampled_from(STREAM))
    n = algebra.dim
    u = algebra.span(data.draw(vectors(n)))
    basis = derivation_algebra(algebra).basis
    fills = [mod2_fills_extension(algebra.table, d.matrix.rows, u.basis) for d in basis]
    assert [normalizer_fills_extension(algebra, u, d) for d in basis] == fills
    first = next((d for d, ok in zip(basis, fills) if not ok), None)
    assert extension_defect(algebra, u) is first


@pytest.mark.parametrize(
    "bad", [1 << 24, 2, 1 << 9, -1], ids=["coordinate-beyond-n", "byte-2", "byte-above-1", "negative"]
)
def test_packed_int_that_does_not_fit_is_refused(bad):
    # every kernel that takes a packed int over GF(2) refuses one that does not fit GF(2)^3
    algebra = LieAlgebra(F2, 3, [((0, 1), (0, 0, 1))])
    space = algebra.span([(1, 0, 0), (0, 0, 1)])
    view = FactorView(algebra, algebra.full_space(), algebra.zero_space())
    acc = EchelonAccumulator(F2, 3)
    rows = algebra.kernel_table()[0]
    refusals = (
        space.contains,
        space.reduce,
        space.coordinates,
        lambda v: space.residuals([v]),
        lambda v: Subspace.span(F2, 3, [v]),
        acc.add,
        lambda v: stabiliser(F2, [[v]], space),
        lambda v: close(EchelonAccumulator(F2, 3, [(1, 0, 0)]), lambda w: [v]),
        view.coords,
        lambda v: algebra.kernel_brackets([v]),
        lambda v: list(kernel_images(F2, [v], [rows], 3)),
        lambda v: kernel_form(F2, v, 3),
    )
    for refuse in refusals:
        with pytest.raises(AmbientMismatchError):
            refuse(bad)
    assert acc.rank == 0


def test_stabiliser_refuses_ragged_images():
    # the residuals of each map are laid side by side, so every map needs the images of the same basis
    ragged = [[(1, 0)], [(1, 0), (0, 1)]]
    packed = [[gf2_pack(v) for v in row] for row in ragged]
    for field, images in ((Field(3), ragged), (F2, ragged), (F2, packed)):
        with pytest.raises(DimensionMismatchError):
            stabiliser(field, images, Subspace.span(field, 2, [(1, 0)]))


def counting_pack(monkeypatch):
    """Wrap linalg.gf2_pack, where every caller looks it up; returns the list of packed vectors."""
    packed = []
    original = linalg.gf2_pack

    def counted(vec):
        packed.append(tuple(vec))
        return original(vec)

    monkeypatch.setattr(linalg, "gf2_pack", counted)
    return packed


def test_immutable_rows_are_packed_once(monkeypatch):
    algebra = LieAlgebra(F2, 5, [((0, 1), (0, 0, 1, 0, 0)), ((0, 3), (0, 0, 0, 1, 0)), ((0, 2), (0, 1, 1, 0, 0))])
    vecs = [(1, 1, 0, 1, 0), (0, 1, 1, 0, 1)]
    d = derivation_algebra(algebra).basis[-1]
    into = algebra.span([(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)])
    expected = stabiliser(F2, algebra.kernel_brackets(vecs), into)
    algebra.release()  # start from an empty cache again
    packed = counting_pack(monkeypatch)

    first = algebra.kernel_brackets(vecs)
    d(vecs[0])
    assert len(packed) == 5 * 5 + 5  # the table entries and the derivation rows, once each
    del packed[:]
    assert algebra.kernel_brackets(vecs) == first
    d(vecs[1])
    assert stabiliser(F2, algebra.kernel_brackets(vecs), into) == expected
    assert packed == [], "packed again: %s" % packed

    assert "kernel_table" in algebra._cache
    algebra.release()
    assert "kernel_table" not in algebra._cache
