"""The Q row form against naive Fraction oracles.

Over Q a subspace stores primitive integer rows, a structure table and a
derivation matrix have integer kernel forms, and the kernels combine them
in int arithmetic.  Every entry point that reads those rows is checked
here against textbook Fraction arithmetic from tests/support.py, on inputs
with Fraction(k, 1) entries, numerators up to 10^30 and negative leading
entries.
"""

import fractions
import random
from fractions import Fraction

import pytest

from lieform import (
    FactorView,
    Field,
    LieAlgebra,
    Subspace,
    derivation_algebra,
    is_intravariant_extension,
    is_intravariant_linear,
    split_extension_by_derivation,
)
from lieform.derivations import inner_derivations
from lieform.linalg import kernel_images, stabiliser
from support import is_q_payload, naive_bracket, naive_null_space, naive_rref, stabilizing_derivations

Q = Field.from_string("Q")


def entry(rng, wide):
    """A rational: a third zero, some Fraction(k, 1), numerators up to 10^30 when wide."""
    kind = rng.random()
    top = 10**30 if wide else 9
    if kind < 1 / 3:
        return 0
    if kind < 0.5:
        return Fraction(rng.randint(-top, top))
    return Q.parse("%d/%d" % (rng.randint(-top, top), rng.choice([1, rng.randint(1, 10**6 if wide else 9)])))


def vectors(rng, count, m, wide=True):
    rows = [[entry(rng, wide) for _ in range(m)] for _ in range(count)]
    for row in rows:
        if rng.random() < 0.5:
            # a negative leading entry
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is not None and row[lead] > 0:
                row[lead] = -row[lead]
    return rows


def exact(vec):
    return [Fraction(x) for x in vec]


def naive_residual(vec, basis, pivots):
    """vec with its pivot columns cleared by an RREF basis, in Fractions."""
    v = exact(vec)
    for c, row in zip(pivots, basis):
        f = v[c]
        v = [a - f * b for a, b in zip(v, row)]
    return v


def naive_span(vecs, m):
    return naive_rref([exact(v) for v in vecs] or [[Fraction(0)] * m])[0]


def combine(coeffs, rows, m):
    return [sum((Fraction(c) * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(m)]


def test_subspace_entry_points_match_naive_oracles():
    rng = random.Random(2201)
    for _ in range(120):
        m = rng.randint(1, 6)
        gens = vectors(rng, rng.randint(0, m + 1), m)
        space = Subspace.span(Q, m, gens)
        expected, pivots = naive_rref(gens) if gens else ([], [])
        assert list(space.basis) == expected and list(space.pivots) == pivots
        probes = vectors(rng, 3, m) + [combine(vectors(rng, 1, len(expected), wide=False)[0], expected, m)]
        for vec in probes:
            residual = naive_residual(vec, expected, pivots)
            assert space.reduce(vec) == residual and all(is_q_payload(x) for x in space.reduce(vec))
            assert space.contains(vec) == (not any(residual))
            coords = space.coordinates(vec)
            assert coords == (tuple(exact(vec)[c] for c in pivots) if not any(residual) else None)
            if coords is not None:
                assert combine(coords, expected, m) == exact(vec)
        # the residuals laid side by side are scale times the exact ones
        joined = [x for vec in probes for x in naive_residual(vec, expected, pivots)]
        assert space.residuals(probes) == [space.scale * x for x in joined]
        # combinations take coefficients on the integer rows
        if space.dim:
            coefficients = Subspace.span(Q, space.dim, vectors(rng, rng.randint(0, space.dim), space.dim))
            combos = [combine(c, space.rows, m) for c in coefficients.basis]
            assert list(space.combinations(coefficients).basis) == (naive_span(combos, m) if combos else [])
        # the meet: x = sum a_i u_i with x in the other span, from a naive left kernel
        other_gens = vectors(rng, rng.randint(0, m), m)
        other = Subspace.span(Q, m, other_gens)
        stacked = [exact(u) for u in space.basis] + [[-x for x in exact(w)] for w in other.basis]
        kernel = naive_null_space(list(zip(*stacked)), len(stacked)) if stacked else []
        meet = [combine(k[: space.dim], space.basis, m) for k in kernel]
        assert list((space & other).basis) == (naive_span(meet, m) if meet and any(map(any, meet)) else [])


def test_stabiliser_matches_naive_left_kernel_on_integer_and_exact_images():
    rng = random.Random(2202)
    for _ in range(150):
        n, k, maps = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 4)
        into = Subspace.span(Q, n, vectors(rng, rng.randint(0, n), n))
        images = [vectors(rng, k, n) for _ in range(maps)]
        basis, pivots = naive_rref(into.basis) if into.dim else ([], [])
        flat = [[x for v in row for x in naive_residual(v, basis, pivots)] for row in images]
        kernel = naive_null_space(list(zip(*flat)), maps)
        expected = naive_rref(kernel)[0] if kernel else []
        got = stabiliser(Q, images, into)
        assert list(got.basis) == expected
        # images scaled by one positive integer each, identity parts with them
        scales = [rng.randint(1, 10**6) for _ in images]
        scaled = [[[s * Fraction(x) for x in v] for v in row] for s, row in zip(scales, images)]
        coefficients = stabiliser(Q, scaled, into)
        assert coefficients.dim == got.dim
        assert Subspace.span(Q, maps, [[c * s for c, s in zip(row, scales)] for row in coefficients.basis]) == got


def rational_algebra(rng, dim):
    """Grown from the line by split extensions along Der-basis combinations with rational, some wide, coefficients."""
    algebra = LieAlgebra.abelian(Q, 1)
    while algebra.dim < dim:
        der = derivation_algebra(algebra)
        n = algebra.dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        for d in der.basis:
            c = entry(rng, wide=rng.random() < 0.2)
            for r in range(n):
                for s in range(n):
                    rows[r][s] += c * d.matrix.rows[r][s]
        algebra = split_extension_by_derivation(algebra, [[Q.parse(str(x)) for x in row] for row in rows])
    return algebra


ALGEBRAS = [rational_algebra(random.Random(2203 + i), 3 + i % 2) for i in range(12)]


@pytest.mark.parametrize("index", range(len(ALGEBRAS)))
def test_table_kernels_match_naive_brackets(index):
    algebra = ALGEBRAS[index]
    rng = random.Random(2210 + index)
    n, scale = algebra.dim, algebra.kernel_scale()
    units = algebra.full_space().basis
    for _ in range(10):
        x, y = (vectors(rng, 1, n, wide=rng.random() < 0.5)[0] for _ in range(2))
        expected = naive_bracket(algebra, x, y)
        got = algebra.bracket(x, y)
        assert got == expected and all(is_q_payload(v) for v in got)
        # kernel_brackets: scale times [e_k, v] for every basis vector e_k
        for k, images in enumerate(algebra.kernel_brackets([x, y])):
            assert images == [tuple(scale * v for v in naive_bracket(algebra, units[k], w)) for w in (x, y)]
    for d in derivation_algebra(algebra).basis:
        s = d.matrix.kernel_scale()
        [images] = kernel_images(Q, [x], [d.matrix.kernel_rows()], n)
        assert images[0] == tuple(s * v for v in combine(x, d.matrix.rows, n))
        assert d(x) == tuple(combine(x, d.matrix.rows, n))


@pytest.mark.parametrize("index", range(len(ALGEBRAS)))
def test_factor_views_match_naive_coordinates(index):
    algebra = ALGEBRAS[index]
    rng = random.Random(2220 + index)
    n = algebra.dim
    for _ in range(6):
        top_gens = vectors(rng, rng.randint(1, n), n)
        top = Subspace.span(Q, n, top_gens)
        bottom = Subspace.span(Q, n, [combine(c, top.basis, n) for c in vectors(rng, rng.randint(0, top.dim), top.dim)])
        view = FactorView(algebra, top, bottom)
        # the factor basis is top's RREF rows at the pivots bottom lacks
        space = [row for row, c in zip(naive_rref(top_gens)[0], top.pivots) if c not in bottom.pivots]
        assert list(view.space.basis) == space
        for _ in range(4):
            coords = tuple(entry(rng, wide=True) for _ in range(view.dim))
            lifted = view.lift(coords)
            assert list(lifted) == combine(coords, space, n) and all(is_q_payload(v) for v in lifted)
            # a lift moved by an element of the bottom has the same coordinates
            shift = combine(vectors(rng, 1, bottom.dim)[0], bottom.basis, n) if bottom.dim else [0] * n
            moved = [a + b for a, b in zip(combine(coords, space, n), shift)]
            assert view.coords(moved) == tuple(Fraction(c) for c in coords)
        sub = Subspace.span(Q, view.dim, vectors(rng, rng.randint(0, view.dim), view.dim))
        preimage = naive_span([combine(c, space, n) for c in sub.basis] + list(bottom.basis), n)
        assert list(view.lift_subspace(sub).basis) == (preimage if sub.dim + bottom.dim else [])
        inner = Subspace.span(Q, n, [combine(c, top.basis, n) for c in vectors(rng, rng.randint(0, top.dim), top.dim)])
        projected = [view.coords(v) for v in inner.basis]
        assert view.project_subspace(inner) == Subspace.span(Q, view.dim, projected)


@pytest.mark.parametrize("index", range(len(ALGEBRAS)))
def test_linear_criterion_matches_the_flattened_identity_over_q(index):
    # the stabilising coefficients come out over the derivations' kernel
    # rows, s_t d_t, so the inner coordinates must be read in that basis:
    # U is intravariant exactly when stabilising + inner derivations fill
    # Der(L), computed here on flattened matrices with no Der coordinates
    algebra = ALGEBRAS[index]
    der = derivation_algebra(algebra)
    rng = random.Random(2230 + index)
    inner = inner_derivations(algebra)
    n = algebra.dim
    candidates = [algebra.span([v]) for v in vectors(rng, 4, n, wide=False)]
    candidates += [algebra.derived_subalgebra(), algebra.centre(), algebra.full_space()]
    seen = set()
    for u in candidates:
        if not algebra.is_subalgebra(u):
            continue
        expected = (stabilizing_derivations(der, u) + inner).dim == der.dim
        assert is_intravariant_linear(algebra, u) == expected == is_intravariant_extension(algebra, u)
        seen.add(expected)
    assert seen


def test_integral_tables_and_spaces_build_no_fraction(monkeypatch):
    # integer tables, integer rows, integral vectors: the kernels never
    # make a Fraction, neither explicitly nor through arithmetic
    rng = random.Random(2240)
    algebras = []
    for i in range(8):
        algebra = rational_algebra(random.Random(2241 + i), 4)
        algebra = LieAlgebra(Q, algebra.dim, {(a, b): [x * algebra.kernel_scale() for x in v]
                                              for a, row in enumerate(algebra.table) for b, v in enumerate(row) if a < b})
        algebras.append((algebra, derivation_algebra(algebra)))
    cases = []
    for algebra, der in algebras:
        n = algebra.dim
        space = algebra.span([[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, n - 1))])
        # an integral RREF: 1 at each pivot, 0 at the others, ints after it
        pivots = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        integral = algebra.span(
            [[int(j == c) if j in pivots or j < c else rng.randint(-5, 5) for j in range(n)] for c in pivots]
        )
        probe = [[rng.randint(-10**30, 10**30) for _ in range(n)] for _ in range(3)]
        cases.append((algebra, der, space, integral, probe))

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    for algebra, der, space, integral, probe in cases:
        assert integral.scale == 1
        for vec in probe:
            assert all(type(x) is int for x in integral.reduce(vec))
            space.contains(vec)
        assert all(type(x) is int for x in space.residuals(probe))
        for images in algebra.kernel_brackets(space.rows):
            assert all(type(x) is int for v in images for x in v)
        maps = [d.matrix.kernel_rows() for d in der.basis]
        for images in kernel_images(Q, space.rows, maps, algebra.dim):
            assert all(type(x) is int for v in images for x in v)
        algebra.centralizer_of_factor(space, algebra.zero_space())
        algebra.core(space)
        algebra.is_ideal(space)
        is_intravariant_extension(algebra, space)
        is_intravariant_linear(algebra, space)
