"""Row reduction, subspace arithmetic, and the subspace enumerator."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from lieform import (
    AmbientMismatchError,
    Derivation,
    DimensionMismatchError,
    EchelonAccumulator,
    FactorView,
    Field,
    LieAlgebra,
    Matrix,
    Subspace,
    SweepConfig,
    chief_series,
    enumerate_subspaces,
    fields,
    gaussian_binomial,
    linalg,
    null_space,
    rref,
    sweep_run,
)
from lieform.linalg import _residual, close, kernel_form, kernel_rows, linear_combination, stabiliser
from support import (
    gf2_rotation_sum, gf3_rotation, h3, identity_rows, is_q_payload, naive_null_space, naive_rref,
    r2_plus_line,
)

Q = Field.from_string("Q")
F2 = Field(2)
F3 = Field(3)


def q_matrix(draw_rows):
    return [[Fraction(x) for x in row] for row in draw_rows]


small_q_rows = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)

f3_rows = st.lists(
    st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
    min_size=1,
    max_size=4,
)


@given(small_q_rows)
def test_rref_idempotent_q(rows):
    reduced, pivots = rref(q_matrix(rows), Q)
    again, pivots2 = rref(reduced, Q)
    assert again == reduced
    assert pivots == pivots2


@given(f3_rows)
def test_rref_preserves_row_space(rows):
    reduced, pivots = rref(rows, F3)
    space = Subspace.span(F3, 4, reduced)
    for row in rows:
        assert space.contains(row)
    assert space.dim == len(pivots)


def rank(rows, field):
    return len(rref(rows, field)[1])


def left_kernel(rows, field):
    """Basis of {v : v A = 0}: the null space of the transposed rows."""
    return null_space(list(zip(*rows)), field, ncols=len(rows))


@given(f3_rows)
def test_rank_nullity(rows):
    assert rank(rows, F3) + len(null_space(rows, F3)) == 4


def test_null_space_oracle():
    # x + y + z = 0 over GF(2) has the 4 vectors {000, 110, 101, 011}
    basis = null_space([[1, 1, 1]], F2, ncols=3)
    assert len(basis) == 2
    span = Subspace.span(F2, 3, basis)
    solutions = [v for v in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)] if (v[0] + v[1] + v[2]) % 2 == 0]
    assert all(span.contains(v) for v in solutions)


def test_matrix_product_and_action():
    a = Matrix(F3, [[1, 2], [0, 1]])
    # row vector acts on the right: v * M combines the rows by v
    assert linear_combination(F3, (1, 1), a.rows, a.ncols) == (1, 0)


@given(f3_rows, f3_rows)
def test_subspace_dimension_formula(rows_a, rows_b):
    u = Subspace.span(F3, 4, rows_a)
    w = Subspace.span(F3, 4, rows_b)
    assert (u + w).dim + (u & w).dim == u.dim + w.dim


@given(f3_rows)
def test_subspace_coordinates(rows):
    s = Subspace.span(F3, 4, rows)
    for v in s.basis:
        coords = s.coordinates(v)
        assert coords is not None
        rebuilt = [0, 0, 0, 0]
        for c, b in zip(coords, s.basis):
            for j in range(4):
                rebuilt[j] = (rebuilt[j] + c * b[j]) % 3
        assert tuple(rebuilt) == tuple(v)


def test_subspace_order_and_eq():
    u = Subspace.span(F2, 3, [(1, 0, 0)])
    w = Subspace.span(F2, 3, [(1, 0, 0), (0, 1, 0)])
    assert u < w and u <= w and u != w
    # same span, different generators, equal canonical form
    assert Subspace.span(F2, 3, [(1, 1, 0), (0, 1, 0)]) == w


def assert_integer_rows(rows_of):
    """The Q rows of an accumulator or a subspace: primitive integers, positive at their pivot, zero at the other pivots."""
    rows = rows_of._rows if isinstance(rows_of, EchelonAccumulator) else rows_of.rows
    for row, c in zip(rows, rows_of.pivots):
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1 and row[c] > 0
        assert all(row[other] == 0 for other in rows_of.pivots if other != c)


def builds_of(space, rng):
    """The space built again through every constructor that can reach it."""
    field, n, k = space.field, space.ambient_dim, space.dim
    combos = [linear_combination(field, [rng.randrange(-2, 3) for _ in range(k)], space.basis, n) for _ in range(k)]
    gens = combos + list(space.basis)  # random combinations alone may span less
    rng.shuffle(gens)
    full, zero = Subspace.full_space(field, n), Subspace.zero_space(field, n)
    builds = [
        Subspace.span(field, n, gens),
        Subspace.span(field, n, [list(v) for v in gens]),
        Subspace.span(field, n, [kernel_form(field, v, n) for v in gens]),
        space.combinations(Subspace.full_space(field, k)),
        full.combinations(space),
        # e_i |-> e_i sends c into the space exactly when c lies in it
        stabiliser(field, [[u] for u in full.rows], space),
        FactorView(LieAlgebra.abelian(field, n), space, zero).space,
    ]
    if k == 0:
        builds.append(zero)
    if k == n:
        builds.append(full)
    # (S + x) & (S + y) = S for x, y independent modulo S; neither side
    # contains the other, so the meet goes through stabiliser and combinations
    pairs = [
        (x, y) for x, y in combinations(full.basis, 2)
        if (space + Subspace.span(field, n, [x, y])).dim == k + 2
    ]
    if pairs:
        x, y = pairs[0]
        builds.append(Subspace.span(field, n, gens + [x]) & Subspace.span(field, n, gens + [y]))
    if field.p is not None:
        builds.append(next(e for e in enumerate_subspaces(field, n, k) if e == space))
    return builds


@pytest.mark.parametrize("field", [F2, F3, Q], ids=str)
def test_one_stored_form_per_space(field):
    # a subspace stores its rows once, in kernel form: packed ints over GF(2),
    # tuples otherwise, and over Q tuples of ints, each primitive, positive
    # at its pivot and zero at the other pivots, whose basis view divides
    # each by its pivot entry; every constructor must give exactly that form
    rng = random.Random(2041)
    n = 4
    row_type = int if field.p == 2 else tuple

    def check(build, space):
        assert type(build.rows) is tuple and type(build.pivots) is tuple
        assert all(type(row) is row_type for row in build.rows)
        assert build == space and hash(build) == hash(space)
        assert build.basis == space.basis and build.pivots == space.pivots
        if field.p is None:
            assert_integer_rows(build)
            for row, vec, c in zip(build.rows, build.basis, build.pivots):
                assert vec == tuple(Fraction(x, row[c]) for x in row)
                assert all(is_q_payload(x) for x in vec) and vec[c] == 1
            assert build.scale == lcm(*[row[c] for row, c in zip(build.rows, build.pivots)])

    full = Subspace.full_space(field, n)
    for _ in range(60):
        gens = [[field.from_int(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        space = Subspace.span(field, n, gens)
        for build in builds_of(space, rng):
            check(build, space)
        # L/S is spanned by the standard vectors at the columns off S's pivots
        free = Subspace.span(field, n, [full.basis[c] for c in range(n) if c not in space.pivots])
        check(FactorView(LieAlgebra.abelian(field, n), full, space).space, free)
    if field.p is not None:
        listed = list(enumerate_subspaces(field, 3))
        assert len(set(listed)) == len(listed) == sum(gaussian_binomial(3, k, field.p) for k in range(4))
        for e in listed:
            check(Subspace.span(field, 3, e.basis), e)


def test_packed_rows_sort_as_their_coordinates():
    # over GF(2), int order on packed rows is tuple order on the coordinates
    rng = random.Random(2042)
    n = 6
    spaces = [
        Subspace.span(F2, n, [[rng.randrange(2) for _ in range(n)] for _ in range(rng.randint(0, n))])
        for _ in range(300)
    ]
    by_rows = sorted(spaces, key=lambda s: (s.dim, s.rows))
    assert by_rows == sorted(spaces, key=lambda s: (s.dim, s.basis))
    # the order is decided by the rows, not only by the dimensions
    assert by_rows != sorted(spaces, key=lambda s: s.dim)


def test_enumerate_subspaces_counts():
    # 1 + 7 + 7 + 1 subspaces of F_2^3
    all_spaces = list(enumerate_subspaces(F2, 3))
    assert len(all_spaces) == 16
    assert len({s for s in all_spaces}) == 16
    for k in range(4):
        count = sum(1 for s in all_spaces if s.dim == k)
        assert count == gaussian_binomial(3, k, 2)


def test_enumerate_subspaces_gf3():
    # 1 + 4 + 1 subspaces of F_3^2
    assert sum(1 for _ in enumerate_subspaces(F3, 2)) == 6
    assert gaussian_binomial(2, 1, 3) == 4


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(2, 3, 2) == 0


def test_enumerate_subspaces_fixed_dim():
    lines = list(enumerate_subspaces(F3, 3, dim=1))
    assert len(lines) == gaussian_binomial(3, 1, 3) == 13
    assert all(s.dim == 1 for s in lines)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_rank_nullity_random_seeded(seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    for field in (F2, F3, Q):
        if field.p is None:
            rows = [[Fraction(rng.randint(-9, 9)) for _ in range(m)] for _ in range(n)]
        else:
            rows = [[rng.randrange(field.p) for _ in range(m)] for _ in range(n)]
        assert rank(rows, field) + len(null_space(rows, field)) == m
        assert rank(rows, field) + len(left_kernel(rows, field)) == n


def random_q_rows(rng, n, m):
    """Rationals with denominators 1-9, half of them zero, as Q payloads."""
    return [
        [Q.parse("%d/%d" % (rng.randint(-4, 4), rng.randint(1, 9))) if rng.random() < 0.5 else 0 for _ in range(m)]
        for _ in range(n)
    ]


def as_fractions(rows):
    """The same rows with every entry a Fraction, Fraction(k, 1) included."""
    return [[Fraction(x) for x in row] for row in rows]


def test_rational_kernel_outputs_are_canonical():
    # inputs as Q payloads and as Fractions: every exact output is canonical
    # either way, and every kernel-form output of integral input is ints
    rng = random.Random(88)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        payload_rows = random_q_rows(rng, n, m)
        payload_vec = random_q_rows(rng, 1, m)
        for rows, [vec] in ((payload_rows, payload_vec), (as_fractions(payload_rows), as_fractions(payload_vec))):
            reduced, pivots = rref(rows, Q)
            span = Subspace.span(Q, m, rows)
            # a vector of the span written in Fractions: its coordinates are canonical
            inside = [Fraction(x) for x in linear_combination(Q, vec, span.basis, m)]
            coords = span.coordinates(inside)
            assert coords is not None
            outputs = [
                linear_combination(Q, [row[0] for row in rows], rows, m),
                coords,
                *reduced,
                *null_space(rows, Q),
                *span.basis,
                span.reduce(vec),
            ]
            assert all(is_q_payload(x) for out in outputs for x in out)
            # the rows are ints, and so is what the kernels make of integer input
            assert_integer_rows(span)
            integral = [rng.randint(-9, 9) for _ in range(m)]
            kernel_outputs = [
                span.residuals([integral, integral]),
                _residual(integral, span.rows, span.pivots, span.scale, None),
                span.vector(integral[: span.dim]),
                kernel_rows(Q, rows)[0],
            ]
            assert all(type(x) is int for out in kernel_outputs for x in out)
    basis = Subspace.span(Q, 2, [(Fraction(1), Fraction(3))]).basis
    assert basis == ((1, 3),) and all(type(x) is int for x in basis[0])


def test_rational_kernel_matches_naive_oracle():
    rng = random.Random(89)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_q_rows(rng, n, m)
        expected, expected_pivots = naive_rref(rows)
        rank = len(expected_pivots)
        reduced, pivots = rref(rows, Q)
        assert list(reduced[:rank]) == expected and list(pivots) == expected_pivots
        assert all(not any(row) for row in reduced[rank:])
        assert null_space(rows, Q) == naive_null_space(rows, m)
        span = Subspace.span(Q, m, rows)
        assert list(span.basis) == expected
        # a known combination of the basis comes back as its coefficients
        coeffs = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(rank))
        vec = [sum((c * row[j] for c, row in zip(coeffs, expected)), Fraction(0)) for j in range(m)]
        assert span.coordinates(vec) == coeffs
        # a vector outside the span has no coordinates
        other = random_q_rows(rng, 1, m)[0]
        outside = len(naive_rref(expected + [other])[1]) > rank
        assert (span.coordinates(other) is None) == outside


def test_stabiliser_matches_transposed_left_kernel():
    # the one-pass stabiliser against the left kernel of the reduced images
    # by transpose + null_space, spanned: 3,000 random cases
    rng = random.Random(2029)
    for field in (F2, F3, Field(5), Q):
        def vec(n):
            if field.p is None:
                return [Q.parse("%d/%d" % (rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n)]
            return [rng.randrange(field.p) for _ in range(n)]

        for _ in range(750):
            n, maps, k = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 3)
            into = Subspace.span(field, n, [vec(n) for _ in range(rng.randint(0, n))])
            images = [[vec(n) for _ in range(k)] for _ in range(maps)]
            rows = [[x for v in row for x in into.reduce(v)] for row in images]
            kernel = left_kernel(rows, field)
            assert stabiliser(field, images, into) == Subspace.span(field, maps, kernel)


def wide_q_rows(rng, n, m):
    """Rationals with numerators up to 10^30 and denominators up to 10^6, as Fractions.

    A third of the entries are zero, some rows are zero or Fraction(k, 1)
    throughout, and many lead with a negative entry.
    """
    def entry():
        if rng.random() < 1 / 3:
            return Fraction(0)
        return Fraction(rng.randint(-10**30, 10**30), rng.choice([1, 1, rng.randint(1, 10**6)]))

    rows = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Fraction(0)] * m)
        elif kind < 0.3:
            rows.append([Fraction(rng.randint(-10**30, 10**30)) for _ in range(m)])
        elif kind < 0.4 and rows:
            # a combination of earlier rows, so the rank stays below the row count
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in rows]
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(m)])
        else:
            rows.append([entry() for _ in range(m)])
    return rows




def test_integer_row_accumulator_matches_naive_oracle_over_q():
    rng = random.Random(2033)
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = wide_q_rows(rng, n, m)
        expected, pivots = naive_rref(rows)
        r = len(pivots)

        acc = EchelonAccumulator(Q, m)
        for k, row in enumerate(rows):
            before = acc.rank
            assert acc.add(row) == (len(naive_rref(rows[: k + 1])[1]) > before)
            assert_integer_rows(acc)
        space = acc.to_subspace()
        assert list(space.basis) == expected and list(space.pivots) == pivots
        assert all(is_q_payload(x) for row in space.basis for x in row)
        assert Subspace.span(Q, m, rows) == space

        reduced, got_pivots = rref(rows, Q)
        assert list(reduced[:r]) == expected and list(got_pivots) == pivots
        assert all(not any(row) for row in reduced[r:])
        assert null_space(rows, Q) == naive_null_space(rows, m)

        # stabiliser: the left kernel of the images reduced mod a span
        into = Subspace.span(Q, m, wide_q_rows(rng, rng.randint(0, m), m))
        into_basis, into_pivots = naive_rref(into.basis)
        k = rng.randint(1, 2)
        images = [wide_q_rows(rng, k, m) for _ in range(rng.randint(1, 4))]

        def residual(v):
            v = [Fraction(x) for x in v]
            for c, basis_row in zip(into_pivots, into_basis):
                f = v[c]
                v = [a - f * b for a, b in zip(v, basis_row)]
            return v

        flat = [[x for v in row for x in residual(v)] for row in images]
        kernel = naive_null_space(list(zip(*flat)), len(images))
        got = stabiliser(Q, images, into)
        assert list(got.basis) == naive_rref(kernel)[0]
        assert all(is_q_payload(x) for row in got.basis for x in row)

        # close: the smallest span holding v and stable under v -> v M; the
        # images callback gets the private integer rows, which span the same
        matrix = wide_q_rows(rng, m, m)
        seen = []

        def images_of(v):
            seen.append(v)
            return [linear_combination(Q, v, matrix, m)]

        start = rows[0]
        krylov, power = [start], start
        for _ in range(m):
            power = [sum((Fraction(a) * b for a, b in zip(power, column)), Fraction(0)) for column in zip(*matrix)]
            krylov.append(power)
        closed = close(EchelonAccumulator(Q, m, [start]), images_of)
        assert list(closed.basis) == naive_rref(krylov)[0]
        # the vector close starts from is the accumulator's integer row
        assert all(type(x) is int for x in seen[0]) if any(start) else not seen


def test_integral_rational_span_builds_no_fraction(monkeypatch):
    # rows whose RREF is integral stay integer rows from input to payload:
    # no Fraction is built, neither by linalg nor through Field arithmetic
    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    monkeypatch.setattr(fields, "Fraction", refuse)
    rng = random.Random(2034)
    for _ in range(200):
        m, r = rng.randint(1, 6), rng.randint(0, 4)
        pivots = sorted(rng.sample(range(m), min(r, m)))
        echelon = []
        for i, c in enumerate(pivots):
            row = [0] * m
            row[c] = 1
            for j in range(c + 1, m):
                if j not in pivots:
                    row[j] = rng.randint(-9, 9)
            echelon.append(row)
        # unimodular mixing: the same integral RREF, entries no longer reduced
        rows = [list(row) for row in echelon] + [[0] * m for _ in range(rng.randint(0, 2))]
        for _ in range(10):
            i, j = rng.randrange(len(rows) or 1), rng.randrange(len(rows) or 1)
            if rows and i != j:
                f = rng.randint(-3, 3)
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        space = Subspace.span(Q, m, rows)
        assert [list(row) for row in space.basis] == echelon and list(space.pivots) == pivots
        if rows:
            reduced, _ = rref(rows, Q)
            assert [list(row) for row in reduced[: len(pivots)]] == echelon
            assert null_space(rows, Q) == naive_null_space(rows, m)


def unreduced(rng, x, p):
    """A random representative of x mod p among -3..5, the bools and x + k p for k in -1, 0, 1."""
    choices = [y for y in range(-3, 6) if (y - x) % p == 0]
    choices += [b for b in (False, True) if (b - x) % p == 0]
    choices += [x + k * p for k in (-1, 0, 1)]
    return rng.choice(choices)


def oracle_residual(vec, basis, pivots, p):
    """vec mod p with the pivot columns cleared by an RREF basis, and the coefficients used."""
    v = [int(x) % p for x in vec]
    coeffs = [v[c] for c in pivots]
    for f, row in zip(coeffs, basis):
        v = [(a - f * b) % p for a, b in zip(v, row)]
    return v, coeffs


@pytest.mark.parametrize("field", [Q, F2, F3], ids=str)
def test_wrong_length_vector_refused(field):
    space = Subspace.span(field, 3, [(1, 0, 1)])
    acc = EchelonAccumulator(field, 3)
    d = Derivation(LieAlgebra.abelian(field, 3), Matrix(field, identity_rows(3)))
    for short in ((1, 0), [1, 0, 1, 1]):
        for refuse in (
            lambda v: Subspace.span(field, 3, [(0, 1, 0), v]),
            space.reduce,
            space.contains,
            space.coordinates,
            acc.add,
        ):
            with pytest.raises(AmbientMismatchError):
                refuse(short)
        with pytest.raises(DimensionMismatchError):
            d(short)
    assert acc.rank == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_finite_field_kernel_matches_naive_oracle(p):
    # entries -3..5, bools and x + k p, reduced by nothing before the call:
    # GF(2) runs the packed kernel, GF(p > 2) the integer-row kernel that Q
    # shares, against one textbook oracle
    field = Field(p)
    rng = random.Random(2030 + p)
    ranks_seen = set()
    for _ in range(400):
        m = rng.randint(1, 20)
        rank = rng.randint(0, min(m, 6))
        gens = [[rng.randrange(p) for _ in range(m)] for _ in range(rank)]
        rows = [
            [unreduced(rng, x, p) for x in linear_combination(field, [rng.randrange(p) for _ in gens], gens, m)]
            for _ in range(rng.randint(0, 7))
        ]
        expected, pivots = naive_rref(rows, p)
        ranks_seen.add(len(pivots))
        r = len(pivots)

        reduced, got_pivots = rref(rows, field)
        if rows:
            assert list(reduced[:r]) == expected and list(got_pivots) == pivots
            assert all(not any(row) for row in reduced[r:]) and len(reduced) == len(rows)
            assert null_space(rows, field) == naive_null_space(rows, m, p)
        assert null_space(rows, field, ncols=m) == naive_null_space(rows, m, p)
        span = Subspace.span(field, m, rows)
        assert list(span.basis) == expected and list(span.pivots) == pivots

        acc = EchelonAccumulator(field, m)
        for k, row in enumerate(rows):
            before = acc.rank
            assert acc.add(row) == (len(naive_rref(rows[: k + 1], p)[1]) > before)
        assert [tuple(row) for row in acc.to_subspace().basis] == expected and acc.pivots == pivots
        assert acc.to_subspace() == span

        coeffs = [rng.randrange(p) for _ in range(r)]
        inside = [unreduced(rng, x, p) for x in linear_combination(field, coeffs, expected, m)]
        other = [unreduced(rng, rng.randrange(p), p) for _ in range(m)]
        for vec in (inside, other):
            residual, used = oracle_residual(vec, expected, pivots, p)
            contained = not any(residual)
            assert span.reduce(vec) == residual and acc.to_subspace().reduce(vec) == residual
            assert span.contains(vec) == contained
            assert span.coordinates(vec) == (tuple(used) if contained else None)
        assert span.coordinates(inside) == tuple(coeffs)

        raw_coeffs = [unreduced(rng, rng.randrange(p), p) for _ in rows]
        total = [sum(int(c) * int(row[j]) for c, row in zip(raw_coeffs, rows)) % p for j in range(m)]
        assert linear_combination(field, raw_coeffs, rows, m) == tuple(total)

        # stabiliser: the left kernel of the images reduced mod the span
        n = rng.randint(1, 5)
        into_rows = [[unreduced(rng, rng.randrange(p), p) for _ in range(n)] for _ in range(rng.randint(0, n))]
        into = Subspace.span(field, n, into_rows)
        into_basis, into_pivots = naive_rref(into_rows, p)
        k = rng.randint(1, 3)
        images = [[[unreduced(rng, rng.randrange(p), p) for _ in range(n)] for _ in range(k)] for _ in range(rng.randint(1, 4))]
        flat = [[x for v in row for x in oracle_residual(v, into_basis, into_pivots, p)[0]] for row in images]
        kernel = naive_null_space(list(zip(*flat)), len(images), p)
        got = stabiliser(field, images, into)
        assert list(got.basis) == naive_rref(kernel, p)[0]
    assert ranks_seen == set(range(7))


@pytest.mark.parametrize(
    "algebra", [gf2_rotation_sum(), h3("GF(2)"), r2_plus_line("GF(2)"), gf3_rotation(), h3(), r2_plus_line()],
    ids=["gf2-rotation-sum", "gf2-h3", "gf2-r2-line", "gf3-rotation", "gf3-h3", "gf3-r2-line"],
)
def test_bracket_matches_table_oracle(algebra):
    p, n, table = algebra.field.p, algebra.dim, algebra.table
    rng = random.Random(2031 + n)
    for _ in range(200):
        x = [unreduced(rng, rng.randrange(p), p) for _ in range(n)]
        y = [unreduced(rng, rng.randrange(p), p) for _ in range(n)]
        expected = tuple(
            sum(int(x[i]) * int(y[j]) * table[i][j][k] for i in range(n) for j in range(n)) % p
            for k in range(n)
        )
        assert algebra.bracket(x, y) == expected


def test_gf2_never_reaches_the_tuple_kernel(monkeypatch):
    # over GF(2) reduction is packed XOR and coordinates are read at the
    # pivots, so the integer-row kernel (its residual and the rows the
    # accumulator stores) sees Q and GF(p > 2) only
    residual, normalised = linalg._residual, linalg._normalised

    def guarded_residual(vec, rows, pivots, a, p):
        if p == 2:
            raise AssertionError("a GF(2) vector reached the integer-row residual")
        return residual(vec, rows, pivots, a, p)

    def guarded_normalised(v, p):
        if p == 2:
            raise AssertionError("a GF(2) row reached the integer-row accumulator")
        return normalised(v, p)

    monkeypatch.setattr(linalg, "_residual", guarded_residual)
    monkeypatch.setattr(linalg, "_normalised", guarded_normalised)
    result = sweep_run(SweepConfig(field="GF(2)", max_dim=3), threads=1)
    assert result.ok and result.algebras > 0
    algebra = gf2_rotation_sum()
    for factor in chief_series(algebra).factors:
        for k, v in enumerate(factor.space.basis):
            assert factor.coords(v) == tuple(int(j == k) for j in range(factor.dim))
