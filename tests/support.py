"""Shared fixture algebras and reference oracles used across the test modules."""

import itertools
from fractions import Fraction

from lieform import (
    Derivation,
    DimensionMismatchError,
    EnumerationBudget,
    Field,
    LieAlgebra,
    Matrix,
    NotADerivationError,
    enumerate_soluble,
    enumerate_subalgebras,
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


def split_extension_central(algebra, factor, formation):
    """F-centrality by definition: the factor split-extended by L over its centraliser lies in F."""
    cent = algebra.centralizer_of_factor(factor.top, factor.bottom)
    quo, qmap = algebra.quotient(cent)
    actions = [factor.action(qmap.lift(x)) for x in quo.basis_vectors()]
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


def small_streams():
    """GF(2) up to dimension 4 (cap 60, seed 1) and GF(3) up to dimension 3, as one list."""
    gf2 = enumerate_soluble(EnumerationBudget(max_dim=4, field=Field.gf(2), per_step_cap=60, seed=1))
    gf3 = enumerate_soluble(EnumerationBudget(max_dim=3, field=Field.gf(3)))
    return list(gf2) + list(gf3)


def is_q_payload(x):
    """The Q payload contract: an int when integral, else a Fraction (never a float)."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def naive_rref(rows):
    """Textbook Gauss-Jordan over Fraction: (nonzero RREF rows, pivot columns).

    Every entry is a Fraction throughout and no step is skipped: the
    reference the library's rational kernel is compared against.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[: len(pivots)]], pivots


def naive_null_space(rows, ncols):
    """Basis of {x : A x = 0} read off naive_rref, one vector per free column."""
    red, pivots = naive_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
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
