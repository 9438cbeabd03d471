"""Saturated formations and the classification machinery built on them.

A formation is a membership predicate plus a local centrality test.  By
Barnes & Gastineau-Hills (Math. Z. 106, 1968) the saturated formations of
soluble Lie algebras are exactly the locally defined ones, so whether a
chief factor A/B is F-central depends only on how L acts on it.  For the
three formations provided the test is one line: nilpotent, [L, A] <= B;
supersoluble, dim A/B = 1; all-soluble, always.  Quotient-closure of
membership is property-tested rather than assumed.

Maximal subalgebras are listed as complements of chief factors (Barnes,
Math. Z. 101, 1967): each one complements exactly one factor of a chief
series and covers the rest, and the complements of one factor solve one
affine linear system, so no subspace is scanned.

A maximal subalgebra M is classed normal by two independent criteria:
the core criterion runs membership on L/core(M), and the complement
criterion runs the local test on the one factor M complements.  Any
disagreement is raised, never swallowed.  That factor, and dim(M + A) for
its top A, come from one rank pass along the chief series
(ChiefSeries.ranks), as do a normaliser's cover/avoid verdicts.
Normalisers are the end points of descending chains of critical maximal
subalgebras, computed recursively on the restricted algebras so interned
structures share their caches.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations, product
from typing import Callable

from .algebra import LieAlgebra
from .chief import ChiefFactor, chief_series
from .errors import (
    CriteriaDisagreeError,
    NoCriticalDescentError,
    ParseError,
    UnsupportedFieldError,
)
from .linalg import Subspace, check_budget, linear_combination, null_space


class Formation:
    """Named saturated formation: a membership predicate and a local centrality test.

    membership(L) decides L in F.  central(L, factor) decides whether a
    chief factor A/B of L is F-central from the formation's local
    definition (Barnes & Gastineau-Hills): it depends only on how
    L/C_L(A/B) acts on A/B, so no quotient or extension is built.  Both are
    required; the two criteria for a maximal subalgebra use one each.

    Cached results are keyed on the Formation object itself, not its name,
    so two formations that share a name never share an answer.
    """

    __slots__ = ("name", "membership", "central")

    def __init__(
        self,
        name: str,
        membership: Callable[[LieAlgebra], bool],
        central: Callable[[LieAlgebra, ChiefFactor], bool],
    ):
        self.name = name
        self.membership = membership
        self.central = central

    def contains(self, algebra: LieAlgebra) -> bool:
        return self.membership(algebra)

    def __repr__(self) -> str:
        return "Formation(%s)" % self.name


def _supersoluble(algebra: LieAlgebra) -> bool:
    try:
        series = chief_series(algebra)
    except UnsupportedFieldError:
        # no rational invariant line somewhere up the quotient tower, so
        # some chief factor has dimension above 1
        return False
    return all(f.dim == 1 for f in series.factors)


def _centralised(algebra: LieAlgebra, factor: ChiefFactor) -> bool:
    """[L, A] <= B: L acts trivially on the factor A/B."""
    bottom = factor.bottom
    return all(bottom.contains(v) for row in algebra.basis_brackets(factor.space.basis) for v in row)


NILPOTENT = Formation("nilpotent", lambda L: L.is_nilpotent(), _centralised)
SUPERSOLUBLE = Formation("supersoluble", _supersoluble, lambda L, factor: factor.dim == 1)
ALL_SOLUBLE = Formation("all-soluble", lambda L: L.is_soluble(), lambda L, factor: True)

FORMATIONS = {f.name: f for f in (NILPOTENT, SUPERSOLUBLE, ALL_SOLUBLE)}


def formation_by_name(name: str) -> Formation:
    try:
        return FORMATIONS[name]
    except KeyError:
        raise ParseError(
            "unknown formation %r (have: %s)" % (name, ", ".join(sorted(FORMATIONS)))
        ) from None


def is_f_central(algebra: LieAlgebra, factor: ChiefFactor, formation: Formation) -> bool:
    """The formation's local test on the factor, cached on the factor."""
    cached = factor._central.get(formation)
    if cached is None:
        cached = factor._central[formation] = formation.central(algebra, factor)
    return cached


class Verdict(Enum):
    F_NORMAL = "f-normal"
    F_ABNORMAL = "f-abnormal"


class MaximalClassification:
    """Outcome of classifying one maximal subalgebra."""

    __slots__ = ("subalgebra", "verdict", "witness", "complemented")

    def __init__(self, subalgebra: Subspace, verdict: Verdict, witness, complemented: ChiefFactor):
        self.subalgebra = subalgebra
        self.verdict = verdict
        self.witness = witness
        self.complemented = complemented

    @property
    def is_normal(self) -> bool:
        return self.verdict is Verdict.F_NORMAL

    def __repr__(self) -> str:
        return "MaximalClassification(%s)" % self.verdict.value


def _subalgebra_key(s: Subspace) -> tuple:
    return (s.dim, s.basis)


def _complement_space(algebra: LieAlgebra, factor: ChiefFactor):
    """The maps delta: C -> A/B whose complements B + span{c + delta(c)} are subalgebras.

    C is the standard vectors at the columns off A's pivots.  Returns
    (columns, particular, homogeneous): the solutions delta, as matrices
    flattened row by row into F^(|C| dim A/B), are the particular one plus
    the span of the homogeneous ones.  Returns None when A/B has no
    complement.
    """
    field, n, h = algebra.field, algebra.dim, factor.dim
    top = factor.top
    free = [c for c in range(n) if c not in top.pivots]
    unit = algebra.basis_vectors()
    actions = [factor.action(unit[c]) for c in free]
    m = len(free) * h
    equations = []
    for j, k in combinations(range(len(free)), 2):
        # [c_j + delta_j, c_k + delta_k] = [c_j, c_k] + delta_k R_j - delta_j R_k
        # mod B, since A/B is abelian; it lies in the complement when its
        # A/B part is delta applied to its C part, w's residual mod A.
        w = algebra.table[free[j]][free[k]]
        part = top.reduce(w)
        constant = factor.coords(tuple(map(field.sub, w, part)))
        for s in range(h):
            row = [field.zero()] * (m + 1)
            for i in range(h):
                row[k * h + i] = field.add(row[k * h + i], actions[j][i][s])
                row[j * h + i] = field.sub(row[j * h + i], actions[k][i][s])
            for l, c in enumerate(free):
                row[l * h + s] = field.sub(row[l * h + s], part[c])
            row[m] = constant[s]
            equations.append(row)
    # (delta, 1) in the null space of [equations | constant]; the basis
    # vector of the last, free column is the particular solution
    basis = null_space(equations, field, ncols=m + 1)
    if not basis or not basis[-1][m]:
        return None
    return free, basis[-1][:m], [v[:m] for v in basis[:-1]]


def maximal_subalgebras(algebra: LieAlgebra) -> list:
    """The maximal subalgebras, listed as complements of chief factors and sorted canonically.

    Each maximal subalgebra M of a soluble L complements exactly one factor
    A/B of a chief series and covers the rest, so B <= M, M meet A = B and
    M + A = L; conversely every such complement is maximal, because A/B is
    an irreducible abelian ideal of L/B (Barnes, Math. Z. 101, 1967).  For
    each factor the complements are B + span{c + delta(c)} over the solutions
    delta of one affine linear system (_complement_space), and one budget
    check on the number of solutions runs before any is listed.
    """

    def compute():
        field, n = algebra.field, algebra.dim
        if field.p is None:
            raise UnsupportedFieldError("maximal-subalgebra listing needs a finite field")
        systems = []
        for factor in chief_series(algebra).factors:
            solutions = _complement_space(algebra, factor)
            if solutions is not None:
                systems.append((factor,) + solutions)
        check_budget(
            sum(field.p ** len(homogeneous) for *_, homogeneous in systems),
            "listing chief-factor complements over %s in dimension %d" % (field, n),
        )
        unit = algebra.basis_vectors()
        found = []
        for factor, free, particular, homogeneous in systems:
            h, basis = factor.dim, list(factor.space.basis)
            for coeffs in product(range(field.p), repeat=len(homogeneous)):
                delta = linear_combination(
                    field, (1,) + coeffs, [particular] + homogeneous, len(particular)
                )
                gens = [
                    linear_combination(field, (1,) + delta[l * h : (l + 1) * h], [unit[c]] + basis, n)
                    for l, c in enumerate(free)
                ]
                found.append(algebra.span(list(factor.bottom.basis) + gens))
        return sorted(found, key=_subalgebra_key)

    return list(algebra.memo("maximal_subalgebras", compute))


def classify_maximal(
    algebra: LieAlgebra, maximal: Subspace, formation: Formation
) -> MaximalClassification:
    """Both Definition-style verdicts for one maximal subalgebra.

    Core criterion: the quotient by the largest ideal inside M lies in F.
    Complement criterion: the unique chief factor M complements is central
    relative to F.  They must agree; disagreement is an implementation bug
    and raises CriteriaDisagreeError.
    """
    return algebra.memo(
        ("classify_maximal", maximal, formation),
        lambda: _classify_maximal(algebra, maximal, formation),
    )


def _classify_maximal(
    algebra: LieAlgebra, maximal: Subspace, formation: Formation
) -> MaximalClassification:
    core = algebra.core(maximal)
    quo, _ = algebra.quotient(core)
    core_verdict = formation.contains(quo)

    # r_t = dim(M + I_t): M avoids I_{t+1}/I_t when r grows by the factor's
    # dimension there, and r_{t+1} is dim(M + A) for that factor's top A
    series = chief_series(algebra)
    ranks = series.ranks(maximal)
    avoided = [
        t for t, f in enumerate(series.factors) if ranks[t + 1] - ranks[t] == f.dim
    ]
    if len(avoided) > 1:
        raise CriteriaDisagreeError("maximal subalgebra avoids more than one chief factor")
    if not avoided:
        raise CriteriaDisagreeError("maximal subalgebra avoids no chief factor")
    complemented = series.factors[avoided[0]]
    if ranks[avoided[0] + 1] != algebra.dim:
        # the avoided factor of a maximal subalgebra satisfies M + A = L
        raise CriteriaDisagreeError("avoided chief factor is not complemented")
    complement_verdict = is_f_central(algebra, complemented, formation)

    if core_verdict != complement_verdict:
        raise CriteriaDisagreeError(
            "core criterion says %s, complement criterion says %s"
            % (core_verdict, complement_verdict)
        )
    verdict = Verdict.F_NORMAL if core_verdict else Verdict.F_ABNORMAL
    witness = complemented if core_verdict else None
    return MaximalClassification(maximal, verdict, witness, complemented)


def is_f_critical(algebra: LieAlgebra, maximal: Subspace, formation: Formation) -> bool:
    """Abnormal and M + N(L) = L."""
    if classify_maximal(algebra, maximal, formation).is_normal:
        return False
    return (maximal + algebra.nilradical()).dim == algebra.dim


def f_normalisers(algebra: LieAlgebra, formation: Formation) -> list:
    """All normaliser subalgebras with one witnessing chain each.

    Results are (subspace, chain) pairs in the algebra's coordinates,
    deduplicated by canonical subspace and sorted; a chain is the tuple of
    subalgebras from the full algebra down to the normaliser.
    """
    cached = algebra.memo(("f_normalisers", formation), lambda: _f_normalisers(algebra, formation))
    return list(cached)


def _f_normalisers(algebra: LieAlgebra, formation: Formation) -> list:
    full = algebra.full_space()
    if formation.contains(algebra):
        return [(full, (full,))]
    if algebra.field.p is None:
        raise UnsupportedFieldError("normaliser computation needs a finite field")
    critical = [
        m for m in maximal_subalgebras(algebra) if is_f_critical(algebra, m, formation)
    ]
    if not critical:
        raise NoCriticalDescentError(
            "algebra outside the formation has no critical maximal subalgebra"
        )
    found = {}
    for m in critical:
        sub, view = algebra.restrict(m)
        for v_sub, chain_sub in f_normalisers(sub, formation):
            v = view.lift_subspace(v_sub)
            if v not in found:
                found[v] = (full,) + tuple(view.lift_subspace(c) for c in chain_sub)
    return sorted(found.items(), key=lambda item: _subalgebra_key(item[0]))


class CoverAvoidEntry:
    __slots__ = ("factor", "central", "covered", "avoided")

    def __init__(self, factor: ChiefFactor, central: bool, covered: bool, avoided: bool):
        self.factor = factor
        self.central = central
        self.covered = covered
        self.avoided = avoided

    @property
    def ok(self) -> bool:
        return self.covered if self.central else self.avoided


class CoverAvoidReport:
    """Per-factor cover/avoid verdicts for one subalgebra."""

    __slots__ = ("algebra", "subalgebra", "entries")

    def __init__(self, algebra: LieAlgebra, subalgebra: Subspace, entries):
        self.algebra = algebra
        self.subalgebra = subalgebra
        self.entries = tuple(entries)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def violations(self) -> list:
        return [e for e in self.entries if not e.ok]


def cover_avoid_check(
    algebra: LieAlgebra, subalgebra: Subspace, formation: Formation
) -> CoverAvoidReport:
    """Covers every central factor, avoids every eccentric one."""
    series = chief_series(algebra)
    entries = [
        CoverAvoidEntry(factor, is_f_central(algebra, factor, formation), covered, avoided)
        for factor, (covered, avoided) in zip(series.factors, series.cover_avoid(subalgebra))
    ]
    return CoverAvoidReport(algebra, subalgebra, entries)
