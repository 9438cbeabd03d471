"""Saturated formations and the classification machinery built on them.

A formation is used here purely through membership of concrete algebras:
quotients, split extensions, and chain members.  Three instances are
provided; quotient-closure is property-tested rather than assumed.

A maximal subalgebra complements exactly one factor of any chief series
(it covers the rest), and it is classed normal precisely when that factor
is central relative to the formation; the equivalent quotient-by-core
membership test is evaluated independently and any disagreement is raised,
never swallowed.  The factor a maximal subalgebra avoids, and whether a
normaliser covers the central factors and avoids the eccentric ones, come
from one rank pass along the chief series (ChiefSeries.cover_avoid), not
from one intersection per factor.  Normalisers are the end points of
descending chains of critical maximal subalgebras, computed recursively on
the restricted algebras so interned structures share their caches.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Sequence

from .algebra import LieAlgebra
from .chief import ChiefFactor, chief_series, split_extension
from .enumeration import enumerate_ideals, enumerate_subalgebras
from .errors import (
    CriteriaDisagreeError,
    NoCriticalDescentError,
    ParseError,
    UnsupportedFieldError,
)
from .linalg import Subspace


class Formation:
    """Named membership predicate over soluble Lie algebras.

    Cached results are keyed on the Formation object itself, not its name,
    so two formations that share a name never share an answer.
    """

    __slots__ = ("name", "membership")

    def __init__(self, name: str, membership: Callable[[LieAlgebra], bool]):
        self.name = name
        self.membership = membership

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


NILPOTENT = Formation("nilpotent", lambda L: L.is_nilpotent())
SUPERSOLUBLE = Formation("supersoluble", _supersoluble)
ALL_SOLUBLE = Formation("all-soluble", lambda L: L.is_soluble())

FORMATIONS = {f.name: f for f in (NILPOTENT, SUPERSOLUBLE, ALL_SOLUBLE)}


def formation_by_name(name: str) -> Formation:
    try:
        return FORMATIONS[name]
    except KeyError:
        raise ParseError(
            "unknown formation %r (have: %s)" % (name, ", ".join(sorted(FORMATIONS)))
        ) from None


def is_member(formation: Formation, algebra: LieAlgebra) -> bool:
    return formation.contains(algebra)


def is_f_central(algebra: LieAlgebra, factor: ChiefFactor, formation: Formation) -> bool:
    """Split extension of the factor by L over its centraliser lies in F."""
    cached = factor._central.get(formation)
    if cached is not None:
        return cached
    cent = algebra.centralizer_of_factor(factor.top, factor.bottom)
    quo, qmap = algebra.quotient(cent)
    actions = [factor.action_matrix(qmap.lift(x)) for x in quo.basis_vectors()]
    abelian = LieAlgebra.abelian(algebra.field, factor.dim)
    result = formation.contains(split_extension(abelian, quo, actions))
    factor._central[formation] = result
    return result


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


class NormaliserChain:
    """Descending chain of subalgebras from the algebra to a normaliser."""

    __slots__ = ("chain",)

    def __init__(self, chain: Sequence[Subspace]):
        self.chain = tuple(chain)

    @property
    def terminal(self) -> Subspace:
        return self.chain[-1]

    def __len__(self) -> int:
        return len(self.chain)

    def __iter__(self):
        return iter(self.chain)

    def __repr__(self) -> str:
        return "NormaliserChain(%s)" % " > ".join(str(s.dim) for s in self.chain)


def _subalgebra_key(s: Subspace) -> tuple:
    return (s.dim, s.basis)


def maximal_subalgebras(algebra: LieAlgebra) -> list:
    """Maximal elements of the proper-subalgebra order, sorted canonically.

    Every proper subalgebra lies in a maximal one of at least its
    dimension, so walking the candidates by descending dimension, each is
    tested only against the maximal ones already found.
    """

    def compute():
        subs = [s for s in enumerate_subalgebras(algebra) if s.dim < algebra.dim]
        maximal = []
        for s in sorted(subs, key=lambda s: -s.dim):
            if not any(m.dim > s.dim and s <= m for m in maximal):
                maximal.append(s)
        return sorted(maximal, key=_subalgebra_key)

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

    series = chief_series(algebra)
    avoided = [f for f, (_, a) in zip(series.factors, series.cover_avoid(maximal)) if a]
    if len(avoided) > 1:
        raise CriteriaDisagreeError("maximal subalgebra avoids more than one chief factor")
    if not avoided:
        raise CriteriaDisagreeError("maximal subalgebra avoids no chief factor")
    complemented = avoided[0]
    if (maximal + complemented.top).dim != algebra.dim:
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
    deduplicated by canonical subspace and sorted.
    """
    cached = algebra.memo(("f_normalisers", formation), lambda: _f_normalisers(algebra, formation))
    return list(cached)


def _f_normalisers(algebra: LieAlgebra, formation: Formation) -> list:
    full = algebra.full_space()
    if formation.contains(algebra):
        return [(full, NormaliserChain([full]))]
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
                lifted = [view.lift_subspace(c) for c in chain_sub]
                found[v] = NormaliserChain([full] + lifted)
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


def is_f_projector(algebra: LieAlgebra, subalgebra: Subspace, formation: Formation) -> bool:
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
