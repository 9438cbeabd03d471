"""Shared fixture algebras and reference oracles used across the test modules."""

import itertools
from fractions import Fraction

from lieform import (
    ChiefSeries,
    MaximalClassification,
    Derivation,
    DimensionMismatchError,
    EnumerationBudget,
    Field,
    LieAlgebra,
    Matrix,
    NotADerivationError,
    Subspace,
    UnsupportedFieldError,
    enumerate_ideals,
    enumerate_soluble,
    enumerate_subalgebras,
    is_f_central,
    minimal_ideal,
    null_space,
)


def brute_force_derivations(a):
    """Every matrix over GF(p) satisfying the Leibniz rule, by full scan."""
    p = a.field.p
    n = a.dim
    found = []
    for entries in itertools.product(range(p), repeat=n * n):
        m = Matrix(a.field, [entries[i * n : (i + 1) * n] for i in range(n)], ncols=n)
        try:
            Derivation(a, m, check=True)
        except NotADerivationError:
            continue
        found.append(m)
    return found


def identity_rows(n):
    """The rows of the n x n identity map."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def split_extension(ideal, acting, actions):
    """The split extension of an ideal by an acting algebra: the tests' reference builder.

    The ideal keeps coordinates 0..m-1 and the acting algebra's basis
    follows; its i-th element acts by [a_i, y] = y * R_i, where actions[i]
    is the rows of R_i.  Raises JacobiViolationError unless every action is
    a derivation of the ideal and the actions represent the acting algebra.
    """
    field, m, a = ideal.field, ideal.dim, acting.dim
    field.check_same(acting.field)
    if len(actions) != a or any(len(rows) != m or any(len(r) != m for r in rows) for rows in actions):
        raise DimensionMismatchError("need one %d x %d action per acting basis element" % (m, m))
    zero_m, zero_a = (field.zero(),) * m, (field.zero(),) * a
    brackets = [((i, j), ideal.table[i][j] + zero_a) for i, j in itertools.combinations(range(m), 2)]
    brackets += [
        ((m + i, m + j), zero_m + acting.table[i][j]) for i, j in itertools.combinations(range(a), 2)
    ]
    for i, rows in enumerate(actions):
        # [y_u, a_i] = -(y_u * R_i)
        for u, row in enumerate(rows):
            brackets.append(((u, m + i), tuple(map(field.neg, row)) + zero_a))
    return LieAlgebra(field, m + a, brackets, validate=True)


def action(factor, x):
    """The rows of ad x on a factor: row i is the coordinates of [x, b_i]."""
    return tuple(factor.coords(factor.algebra.bracket(x, b)) for b in factor.space.basis)


def split_extension_central(algebra, factor, formation):
    """F-centrality by definition: the factor split-extended by L over its centraliser lies in F."""
    cent = algebra.centralizer_of_factor(factor.top, factor.bottom)
    quo, qmap = algebra.quotient(cent)
    actions = [action(factor, qmap.lift(x)) for x in quo.full_space().basis]
    abelian = LieAlgebra.abelian(algebra.field, factor.dim)
    return formation.contains(split_extension(abelian, quo, actions))


def brute_force_maximals(algebra):
    """Proper subalgebras in no larger proper subalgebra, from the exhaustive listing, sorted canonically.

    Every proper subalgebra lies in a maximal one of at least its
    dimension, so walking by descending dimension each candidate is tested
    against the maximal ones already found.
    """
    proper = [s for s in enumerate_subalgebras(algebra) if s.dim < algebra.dim]
    maximal = []
    for s in sorted(proper, key=lambda s: -s.dim):
        if not any(m.dim > s.dim and s <= m for m in maximal):
            maximal.append(s)
    return sorted(maximal, key=lambda s: (s.dim, s.basis))


def minimal_ideals_exhaustive(algebra):
    """All minimal nonzero ideals, straight from the ideal listing."""
    nonzero = [s for s in enumerate_ideals(algebra) if not s.is_zero()]
    return [a for a in nonzero if not any(b.dim < a.dim and b <= a for b in nonzero)]


def is_irreducible(factor):
    """No listed ideal lies strictly between the bottom and top of a factor: the definition."""
    bottom, top = factor.bottom, factor.top
    return bottom < top and not any(bottom < k < top for k in enumerate_ideals(factor.algebra))


def alternate_chief_series(algebra):
    """A second chief series for cross-validation, built from the exhaustive listing.

    Each step lifts the minimal ideal of the quotient of least dimension
    and, among those, of greatest canonical basis, where the library's spin
    takes the least basis among the closures of the last derived term.
    """
    ideals = [algebra.zero_space()]
    while ideals[-1].dim < algebra.dim:
        quo, view = algebra.quotient(ideals[-1])
        chosen = max(minimal_ideals_exhaustive(quo), key=lambda s: (-s.dim, s.basis))
        ideals.append(view.lift_subspace(chosen))
    return ChiefSeries(algebra, ideals)


def iterative_chief_series(algebra):
    """The chief series by lifting a minimal ideal of each quotient L/I_t in turn, from L/0 up."""
    ideals = [algebra.zero_space()]
    while ideals[-1].dim < algebra.dim:
        quo, view = algebra.quotient(ideals[-1])
        ideals.append(view.lift_subspace(minimal_ideal(quo)))
    return ChiefSeries(algebra, ideals)


def classify_directly(series, maximal, formation):
    """Both criteria computed in L itself, along a chief series of L such as iterative_chief_series.

    Core criterion: membership of L/core(M).  Complement criterion: the
    local test on the one factor M avoids, read off dim(M + I_t).
    """
    algebra = series.algebra
    quo, _ = algebra.quotient(algebra.core(maximal))
    core_verdict = formation.contains(quo)
    ranks = series.ranks(maximal)
    [complemented] = [
        f for f, low, high in zip(series.factors, ranks, ranks[1:]) if high - low == f.dim
    ]
    assert core_verdict == is_f_central(algebra, complemented, formation)
    return MaximalClassification(core_verdict, complemented)


def naive_bracket(algebra, x, y):
    """The sum of x_i y_j [e_i, e_j] over every basis pair, in exact rationals, reduced mod p over GF(p)."""
    n, p = algebra.dim, algebra.field.p
    out = [
        sum(Fraction(x[i]) * y[j] * algebra.table[i][j][k] for i in range(n) for j in range(n))
        for k in range(n)
    ]
    return tuple(out) if p is None else tuple(int(v) % p for v in out)


def product_space(algebra, a, b):
    """The span of [x, y] over every pair of basis vectors of a and b."""
    return algebra.span(algebra.bracket(x, y) for x in a.basis for y in b.basis)


def series_by_pairs(algebra, lower_central):
    """The derived or lower central series from all-pairs product spaces, down to where it stops shrinking."""
    series = [algebra.full_space()]
    while not series[-1].is_zero():
        left = algebra.full_space() if lower_central else series[-1]
        term = product_space(algebra, left, series[-1])
        if term.dim == series[-1].dim:
            break
        series.append(term)
    return series


def is_ideal_by_pairs(algebra, s):
    """[e_k, y] lies in s for every standard vector e_k and every basis vector y of s."""
    return all(s.contains(algebra.bracket(e, y)) for e in algebra.full_space().basis for y in s.basis)


def is_abelian(algebra):
    """Every entry of the structure-constant table is zero."""
    return not any(any(vec) for row in algebra.table for vec in row)


def flatten(rows):
    """A matrix's rows concatenated, row-major, as a vector of F^(n^2)."""
    return tuple(x for row in rows for x in row)


def nilradical_by_centralisers(series):
    """The meet of the centralisers of every factor of a chief series."""
    algebra = series.algebra
    out = algebra.full_space()
    for factor in series.factors:
        out = out & algebra.centralizer_of_factor(factor.top, factor.bottom)
    return out


def covers(subspace, factor):
    """U covers A/B: U + B contains A."""
    return factor.top <= (subspace + factor.bottom)


def avoids(subspace, factor):
    """U avoids A/B: U meet A lies inside B."""
    return (subspace & factor.top) <= factor.bottom


def is_f_projector(algebra, subalgebra, formation):
    """Brute-force projector test.

    U must lie in F, and for every ideal K the image of U + K in the
    quotient must be F-maximal there: no strictly larger F-subalgebra of
    the quotient contains it.
    """
    if algebra.field.p is None:
        raise UnsupportedFieldError("projector test needs a finite field")
    # restrict raises NotASubalgebraError when U is not a subalgebra
    sub_algebra, _ = algebra.restrict(subalgebra)
    if not formation.contains(sub_algebra):
        return False
    for ideal in enumerate_ideals(algebra):
        quo, qmap = algebra.quotient(ideal)
        image = qmap.project_subspace(subalgebra + ideal)
        image_algebra, _ = quo.restrict(image)
        if not formation.contains(image_algebra):
            return False
        for t in enumerate_subalgebras(quo):
            if image < t:
                talg, _ = quo.restrict(t)
                if formation.contains(talg):
                    return False
    return True


def stabilizing_derivations(der, subalgebra):
    """{D in Der(L) : D(U) <= U} by definition, flattened row-major into F^(n^2).

    D(U) <= U exactly when w . D(u) = 0 for every u in U's basis and every
    w in the annihilator of U.  Row i of D is the image of e_i, so
    w . D(u) is the sum over i, k of u_i w_k D[i][k]: one linear equation.
    """
    field, n = der.parent.field, der.parent.dim
    annihilator = null_space(subalgebra.basis, field, ncols=n)
    equations = [
        [field.mul(u[i], w[k]) for i in range(n) for k in range(n)]
        for u in subalgebra.basis
        for w in annihilator
    ]
    return der.subspace & Subspace.span(field, n * n, null_space(equations, field, ncols=n * n))


def both_universes():
    """The acceptance universes: GF(2) up to dimension 4 (cap 200, seed 1) and GF(3) up to dimension 3."""
    gf2 = enumerate_soluble(EnumerationBudget(max_dim=4, field=Field(2), per_step_cap=200, seed=1))
    gf3 = enumerate_soluble(EnumerationBudget(max_dim=3, field=Field(3)))
    return list(gf2) + list(gf3)


def small_streams():
    """GF(2) up to dimension 4 (cap 60, seed 1) and GF(3) up to dimension 3, as one list."""
    gf2 = enumerate_soluble(EnumerationBudget(max_dim=4, field=Field(2), per_step_cap=60, seed=1))
    gf3 = enumerate_soluble(EnumerationBudget(max_dim=3, field=Field(3)))
    return list(gf2) + list(gf3)


def is_q_payload(x):
    """The Q payload contract: an int when integral, else a Fraction (never a float)."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def naive_rref(rows, p=None):
    """Textbook Gauss-Jordan: (nonzero RREF rows, pivot columns).

    Over Q (p None) every entry is a Fraction throughout; over GF(p) every
    entry is reduced to 0..p-1 first and after each step.  No step is
    skipped: the reference the library's kernels are compared against.
    """
    if p is None:
        m = [[Fraction(x) for x in row] for row in rows]
        inverse, reduce = (lambda x: 1 / x), (lambda x: x)
    else:
        m = [[int(x) % p for x in row] for row in rows]
        inverse, reduce = (lambda x: pow(x, -1, p)), (lambda x: x % p)
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        lead = inverse(m[r][c])
        m[r] = [reduce(x * lead) for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [reduce(a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[: len(pivots)]], pivots


def naive_null_space(rows, ncols, p=None):
    """Basis of {x : A x = 0} read off naive_rref, one vector per free column."""
    red, pivots = naive_rref(rows, p)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [zero] * ncols
        v[free] = one
        for r, c in enumerate(pivots):
            v[c] = -red[r][free] if p is None else -red[r][free] % p
        basis.append(tuple(v))
    return basis


def algebra(field, dim, brackets):
    """Build from {(i, j): coefficient tuple} with 1-based i < j."""
    entries = [
        {"i": i, "j": j, "value": [str(v) for v in vec]}
        for (i, j), vec in sorted(brackets.items())
    ]
    return LieAlgebra.from_dict({"field": field, "dim": dim, "brackets": entries})


def r2(field="GF(3)"):
    # basis x, y with [x, y] = y
    return algebra(field, 2, {(1, 2): (0, 1)})


def h3(field="GF(3)"):
    # Heisenberg: [e1, e2] = e3, e3 central
    return algebra(field, 3, {(1, 2): (0, 0, 1)})


def abelian(field, dim):
    return algebra(field, dim, {})


def r2_plus_line(field="GF(3)"):
    # [e1, e2] = e2 with a central e3
    return algebra(field, 3, {(1, 2): (0, 1, 0)})


def gf3_rotation():
    # [e1,e2] = e3, [e1,e3] = -e2, [e1,e4] = e4 over GF(3): span{e2,e3}
    # is a 2-dimensional irreducible chief factor (x^2 + 1 has no root mod 3)
    return algebra("GF(3)", 4, {(1, 2): (0, 0, 1, 0), (1, 3): (0, 2, 0, 0), (1, 4): (0, 0, 0, 1)})


def rotation():
    # over Q: [e1,e2] = e3, [e1,e3] = -e2; the derived subalgebra
    # span{e2,e3} is a minimal ideal with no rational eigenline
    return algebra("Q", 3, {(1, 2): (0, 0, 1), (1, 3): (0, -1, 0)})


def rotation_plus_centre():
    # rotation block plus a central e4: the only minimal ideal a line
    # search can find is span{e4}
    return algebra("Q", 4, {(1, 2): (0, 0, 1, 0), (1, 3): (0, -1, 0, 0)})


def gf2_rotation_sum():
    # over GF(2): [e1,e2] = e3, [e1,e3] = e2 + e3 (x^2 + x + 1 has no root
    # mod 2), [e1,e4] = e4, with e5 and e6 central.  span{e1,e4,e5,e6}
    # complements the 2-dimensional chief factor span{e2,e3}; GF(2)^6 has
    # 2,825 subspaces, more than the work budget lets a listing scan.
    return algebra(
        "GF(2)",
        6,
        {(1, 2): (0, 0, 1, 0, 0, 0), (1, 3): (0, 1, 1, 0, 0, 0), (1, 4): (0, 0, 0, 1, 0, 0)},
    )


# Mod-2 oracles in plain list arithmetic: every entry is reduced mod 2 and
# every vector is a tuple, so they share nothing with the packed kernels.


def mod2_sum(coeffs, rows, n):
    """The sum of coeffs[i] * rows[i] with every entry reduced mod 2."""
    out = [0] * n
    for c, row in zip(coeffs, rows):
        for j in range(n):
            out[j] = (out[j] + int(c) * int(row[j])) % 2
    return tuple(out)


def mod2_elements(basis, n):
    """Every vector of the span of basis over GF(2), as a set of tuples."""
    return {mod2_sum(c, basis, n) for c in itertools.product((0, 1), repeat=len(basis))}


def mod2_bracket(table, x, y):
    """[x, y] as the sum of x_i y_j [e_i, e_j] over every basis pair, mod 2."""
    n = len(table)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return mod2_sum([int(x[i]) * int(y[j]) for i, j in pairs], [table[i][j] for i, j in pairs], n)


def mod2_basis_brackets(table, vectors):
    """For each basis vector e_k, the list of [e_k, v] over the vectors, mod 2."""
    n = len(table)
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    return [[mod2_bracket(table, unit[k], v) for v in vectors] for k in range(n)]


def mod2_stabiliser(images, into_basis, n):
    """The c in GF(2)^t with sum_t c_t images[t][j] in span(into_basis) for every j, by full scan."""
    inside = mod2_elements(into_basis, n)
    width = len(images[0]) if images else 0
    return {
        c
        for c in itertools.product((0, 1), repeat=len(images))
        if all(mod2_sum(c, [row[j] for row in images], n) in inside for j in range(width))
    }


def mod2_centraliser(table, a_basis, b_basis):
    """{x : [x, a] in span(b) for every a in a_basis}, by full scan of GF(2)^n."""
    n = len(table)
    inside = mod2_elements(b_basis, n)
    return {
        x
        for x in itertools.product((0, 1), repeat=n)
        if all(mod2_bracket(table, x, a) in inside for a in a_basis)
    }


def mod2_core(table, basis):
    """The largest ideal in span(basis): keep the x with every [e_k, x] kept, until nothing drops."""
    n = len(table)
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    kept = mod2_elements(basis, n)
    while True:
        smaller = {x for x in kept if all(mod2_bracket(table, e, x) in kept for e in unit)}
        if smaller == kept:
            return kept
        kept = smaller


def mod2_factor_coords(space_basis, bottom_basis, vec, n):
    """Every c with vec - sum_i c_i space_basis[i] in span(bottom_basis), by full scan."""
    inside = mod2_elements(bottom_basis, n)
    return [
        c
        for c in itertools.product((0, 1), repeat=len(space_basis))
        if mod2_sum((1,) + c, [vec] + list(space_basis), n) in inside
    ]


def mod2_fills_extension(table, rows, u_basis):
    """Some y in L has d(u) + [y, u] in U for every u of U's basis: N_D(U) + L = D, by full scan.

    d is given by its rows, row i being d(e_i); over GF(2), -[y, u] = [y, u].
    """
    n = len(table)
    inside = mod2_elements(u_basis, n)
    return any(
        all(mod2_sum((1, 1), (mod2_sum(u, rows, n), mod2_bracket(table, y, u)), n) in inside for u in u_basis)
        for y in itertools.product((0, 1), repeat=n)
    )
