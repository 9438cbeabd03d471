"""Acceptance gate: nine exhaustive checks, one verdict line each.

Each test prints a single pass/fail line on the real terminal (bypassing
capture) so the gate can be read off a plain pytest run. The two sweep
universes are shared via session fixtures:

  * GF(2), max_dim 4, uncapped through dim 3, cap 200 at dim 4, seed 1
  * GF(3), max_dim 3, uncapped
"""

import random
from fractions import Fraction

import pytest

from lieform import (
    ALL_SOLUBLE,
    NILPOTENT,
    SUPERSOLUBLE,
    EnumerationBudget,
    Field,
    SweepConfig,
    derivation_algebra,
    enumerate_ideals,
    enumerate_soluble,
    enumerate_subalgebras,
    enumerate_subspaces,
    f_normalisers,
    gaussian_binomial,
    inner_derivations,
    is_intravariant_extension,
    is_intravariant_linear,
    chief_series,
    maximal_subalgebras,
    null_space,
    rref,
    sweep_run,
)
from support import (
    both_universes, brute_force_derivations, brute_force_maximals, h3, is_f_projector,
    minimal_ideals_exhaustive, r2, split_extension_central,
)

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)
Q = Field.from_string("Q")

RUNTIME_BUDGET_SECONDS = 600.0


@pytest.fixture(scope="session")
def sweep_gf2():
    config = SweepConfig(
        field="GF(2)",
        max_dim=4,
        formations=("nilpotent", "all-soluble"),
        per_step_cap=200,
        seed=1,
    )
    return sweep_run(config)


@pytest.fixture(scope="session")
def sweep_gf3():
    config = SweepConfig(
        field="GF(3)",
        max_dim=3,
        formations=("nilpotent", "all-soluble"),
    )
    return sweep_run(config)


def small_universe():
    return list(enumerate_soluble(EnumerationBudget(max_dim=3, field=F2)))


def oracle_universes():
    """Both acceptance universes plus GF(5), max_dim 3, cap 60, seed 1."""
    gf5 = enumerate_soluble(EnumerationBudget(max_dim=3, field=F5, per_step_cap=60, seed=1))
    return both_universes() + list(gf5)


def report(capsys, number, label, detail, failures):
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print("\nacceptance %d (%s): %s — %s" % (number, label, verdict, detail))
    assert not failures, "%s: %r" % (label, failures[:5])


def test_criterion_1_normalisers_intravariant(sweep_gf2, sweep_gf3, capsys):
    """Every computed normaliser passes both intravariance criteria."""
    failures = []
    for result in (sweep_gf2, sweep_gf3):
        failures += result.intravariance_failures
        failures += result.descent_failures
    elapsed = sweep_gf2.elapsed + sweep_gf3.elapsed
    checked = sweep_gf2.normalisers_checked + sweep_gf3.normalisers_checked
    algebras = sweep_gf2.algebras + sweep_gf3.algebras
    detail = "%d algebras, %d normalisers, %.1fs (budget %.0fs)" % (
        algebras,
        checked,
        elapsed,
        RUNTIME_BUDGET_SECONDS,
    )
    assert elapsed < RUNTIME_BUDGET_SECONDS
    report(capsys, 1, "normalisers intravariant", detail, failures)


def test_criterion_2_cover_avoid(sweep_gf2, sweep_gf3, capsys):
    """Every normaliser covers central and avoids eccentric chief factors."""
    failures = sweep_gf2.cover_avoid_failures + sweep_gf3.cover_avoid_failures
    checked = sweep_gf2.normalisers_checked + sweep_gf3.normalisers_checked
    report(capsys, 2, "cover-avoid", "%d normalisers" % checked, failures)


def test_criterion_3_classification_agreement(sweep_gf2, sweep_gf3, capsys):
    """Core criterion and complement criterion never disagree."""
    failures = sweep_gf2.criteria_disagreements + sweep_gf3.criteria_disagreements
    checked = sweep_gf2.maximals_classified + sweep_gf3.maximals_classified
    report(capsys, 3, "classification criteria", "%d maximals" % checked, failures)


def test_criterion_4_intravariance_criteria_agree(capsys):
    """Linear and extension criteria coincide on every subalgebra."""
    failures = []
    pairs = 0
    for a in small_universe():
        for sub in enumerate_subalgebras(a):
            pairs += 1
            if is_intravariant_linear(a, sub) != is_intravariant_extension(a, sub):
                failures.append((a.to_json(), sub.basis))
    report(capsys, 4, "intravariance criteria", "%d pairs" % pairs, failures)


def test_criterion_5_proof_objects(capsys):
    """The dichotomy, quotient image, and projector facts behind the proof."""
    failures = []
    triples = 0
    for a in small_universe():
        minimals = minimal_ideals_exhaustive(a)
        for u, _ in f_normalisers(a, NILPOTENT):
            for ideal in minimals:
                triples += 1
                meet = u & ideal
                if not (ideal <= u or meet.is_zero()):
                    failures.append(("dichotomy", a.to_json(), u.basis, ideal.basis))
                    continue
                quo, qmap = a.quotient(ideal)
                image = qmap.project_subspace(u)
                quotient_normalisers = {v for v, _ in f_normalisers(quo, NILPOTENT)}
                if image not in quotient_normalisers:
                    failures.append(("quotient", a.to_json(), u.basis, ideal.basis))
                if meet.is_zero():
                    joined, smap = a.restrict(u + ideal)
                    inside = smap.project_subspace(u)
                    if not is_f_projector(joined, inside, NILPOTENT):
                        failures.append(("projector", a.to_json(), u.basis, ideal.basis))
    report(capsys, 5, "proof objects", "%d (U, A) pairs" % triples, failures)


def test_criterion_6_oracles(capsys):
    """Nilradical, core, subspace counts, rank-nullity vs brute force."""
    failures = []
    algebras = 0
    for a in both_universes():
        algebras += 1
        ideals = enumerate_ideals(a)
        nilpotent_ideals = [s for s in ideals if a.restrict(s)[0].is_nilpotent()]
        nil = a.nilradical()
        if nil not in nilpotent_ideals or not all(s <= nil for s in nilpotent_ideals):
            failures.append(("nilradical", a.to_json()))
        for m in maximal_subalgebras(a):
            contained = [s for s in ideals if s <= m]
            biggest = max(contained, key=lambda s: s.dim)
            if a.core(m) != biggest or not all(s <= biggest for s in contained):
                failures.append(("core", a.to_json(), m.basis))

    for field, top in ((F2, 4), (F3, 3)):
        for n in range(1, top + 1):
            spaces = list(enumerate_subspaces(field, n))
            for k in range(n + 1):
                expected = gaussian_binomial(n, k, field.p)
                if sum(1 for s in spaces if s.dim == k) != expected:
                    failures.append(("count", field.p, n, k))

    matrices = 0
    for field in (F2, F3, Q):
        rng = random.Random(20260816 + (field.p or 0))
        for _ in range(1000):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            if field.p is None:
                rows = [[Fraction(rng.randint(-9, 9)) for _ in range(m)] for _ in range(n)]
            else:
                rows = [[rng.randrange(field.p) for _ in range(m)] for _ in range(n)]
            matrices += 1
            rank = len(rref(rows, field)[1])
            if rank + len(null_space(rows, field)) != m:
                failures.append(("rank-nullity", str(field), rows))
            # the left kernel is the null space of the transposed rows
            if rank + len(null_space(list(zip(*rows)), field, ncols=n)) != n:
                failures.append(("rank-nullity-left", str(field), rows))

    detail = "%d algebras, %d random matrices" % (algebras, matrices)
    report(capsys, 6, "independent oracles", detail, failures)


def test_criterion_7_fixed_points(capsys):
    """Worked examples, every value recomputed from scratch here."""
    failures = []

    a = r2("GF(3)")
    pairs = f_normalisers(a, NILPOTENT)
    bases = {v.basis for v, _ in pairs}
    if bases != {((1, 0),), ((1, 1),), ((1, 2),)}:
        failures.append(("r2 normalisers", sorted(bases)))
    if not all(len(chain) == 2 and NILPOTENT.contains(a.restrict(v)[0]) for v, chain in pairs):
        failures.append("r2 chains")

    der = derivation_algebra(a)
    if der.dim != 2 or inner_derivations(a).dim != 2:
        failures.append(("Der(r2)", der.dim, inner_derivations(a).dim))
    if len(brute_force_derivations(a)) != 3 ** 2:
        failures.append("Der(r2) brute count")

    b = h3("GF(2)")
    der_b = derivation_algebra(b)
    if der_b.dim != 6 or inner_derivations(b).dim != 2:
        failures.append(("Der(h3)", der_b.dim, inner_derivations(b).dim))
    if len(brute_force_derivations(b)) != 2 ** 6:
        failures.append("Der(h3) brute count")

    nil_pairs = f_normalisers(h3("GF(3)"), NILPOTENT)
    if len(nil_pairs) != 1 or not nil_pairs[0][0].is_full() or len(nil_pairs[0][1]) != 1:
        failures.append("h3 self-normalising")

    report(capsys, 7, "worked fixed points", "4 fixtures", failures)


def test_criterion_8_maximal_subalgebras(capsys):
    """Complement listing equals the exhaustive maximal filter, order included."""
    failures = []
    algebras = maximals = 0
    for a in oracle_universes():
        algebras += 1
        listed = maximal_subalgebras(a)
        maximals += len(listed)
        if listed != brute_force_maximals(a):
            failures.append(a.to_json())
    detail = "%d algebras, %d maximals" % (algebras, maximals)
    report(capsys, 8, "maximal subalgebras", detail, failures)


def test_criterion_9_local_centrality(capsys):
    """Each formation's local test equals the split-extension test on every chief factor."""
    failures = []
    pairs = 0
    for a in oracle_universes():
        for factor in chief_series(a).factors:
            for formation in (NILPOTENT, SUPERSOLUBLE, ALL_SOLUBLE):
                pairs += 1
                local = formation.central(a, factor)
                if local != split_extension_central(a, factor, formation):
                    failures.append((formation.name, a.to_json(), factor.top.basis))
    report(capsys, 9, "local centrality", "%d factor-formation pairs" % pairs, failures)
