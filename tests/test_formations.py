"""Formations: centrality, classification, normalisers, cover-avoid, projectors."""

import pytest

from lieform import (
    ALL_SOLUBLE,
    BudgetExceededError,
    LieAlgebra,
    NILPOTENT,
    SUPERSOLUBLE,
    EnumerationBudget,
    Field,
    Formation,
    NoCriticalDescentError,
    ParseError,
    Subspace,
    UnsupportedFieldError,
    chief_series,
    classify_maximal,
    cover_avoid_check,
    enumerate_ideals,
    enumerate_soluble,
    enumerate_subalgebras,
    f_normalisers,
    formation_by_name,
    is_f_central,
    is_f_critical,
    maximal_subalgebras,
)
from lieform import linalg
from support import (
    abelian, alternate_chief_series, avoids, brute_force_maximals, classify_directly, covers,
    gf2_rotation_sum, h3, is_f_projector, iterative_chief_series, nilradical_by_centralisers, r2,
    rotation, small_streams,
)

F2 = Field(2)
F3 = Field(3)


def test_formation_lookup():
    assert formation_by_name("nilpotent") is NILPOTENT
    assert formation_by_name("all-soluble") is ALL_SOLUBLE
    with pytest.raises(ParseError):
        formation_by_name("abelian")


def test_membership_fixtures():
    a = r2()
    assert not NILPOTENT.contains(a)
    assert SUPERSOLUBLE.contains(a)
    assert ALL_SOLUBLE.contains(a)
    assert NILPOTENT.contains(h3())
    ab = abelian("GF(2)", 2)
    assert all(f.contains(ab) for f in (NILPOTENT, SUPERSOLUBLE, ALL_SOLUBLE))


def test_supersoluble_unsupported_means_false():
    # the rotation algebra has an irreducible 2-dim chief factor over Q
    assert not SUPERSOLUBLE.contains(rotation())


def test_formations_quotient_closed():
    """L in F implies L/I in F, for every enumerated algebra and ideal."""
    budget = EnumerationBudget(max_dim=3, field=F2)
    for a in enumerate_soluble(budget):
        for formation in (NILPOTENT, SUPERSOLUBLE, ALL_SOLUBLE):
            if not formation.contains(a):
                continue
            for ideal in enumerate_ideals(a):
                quo, _ = a.quotient(ideal)
                assert formation.contains(quo)


def test_is_f_central_fixtures():
    a = r2()
    bottom, top = chief_series(a).factors
    assert not is_f_central(a, bottom, NILPOTENT)
    assert is_f_central(a, top, NILPOTENT)
    assert is_f_central(a, bottom, ALL_SOLUBLE)
    assert is_f_central(a, bottom, SUPERSOLUBLE)


def test_maximal_subalgebras_r2():
    a = r2()
    maximals = maximal_subalgebras(a)
    assert len(maximals) == 4
    assert all(m.dim == 1 for m in maximals)
    expected = {((0, 1),), ((1, 0),), ((1, 1),), ((1, 2),)}
    assert {m.basis for m in maximals} == expected


def test_maximal_subalgebras_abelian_f2():
    assert len(maximal_subalgebras(abelian("GF(2)", 2))) == 3


def test_maximal_subalgebras_1dim():
    maximals = maximal_subalgebras(abelian("GF(3)", 1))
    assert len(maximals) == 1
    assert maximals[0].is_zero()


def _streams():
    for field in (F2, F3):
        yield from enumerate_soluble(EnumerationBudget(max_dim=3, field=field))


def test_maximal_subalgebras_match_brute_force():
    # the filter against maximals only must equal "no larger subalgebra
    # contains it", order included
    for a in _streams():
        proper = [s for s in enumerate_subalgebras(a) if s.dim < a.dim]
        expected = [s for s in proper if not any(t.dim > s.dim and s <= t for t in proper)]
        expected.sort(key=lambda s: (s.dim, s.basis))
        assert maximal_subalgebras(a) == expected


def test_maximal_subalgebras_needs_gfp():
    with pytest.raises(UnsupportedFieldError):
        maximal_subalgebras(r2("Q"))


def test_complement_listing_refuses_over_budget_before_listing(monkeypatch):
    # abelian GF(7)^3 has 7^2 + 7 + 1 = 57 maximal subalgebras, one per
    # solution of the three complement systems, and 116 subspaces
    a = abelian("GF(7)", 3)
    chief_series(a)
    built = []
    real_span = LieAlgebra.span
    monkeypatch.setattr(LieAlgebra, "span", lambda self, vectors: built.append(1) or real_span(self, vectors))
    monkeypatch.setattr(linalg, "WORK_BUDGET", 56)
    with pytest.raises(BudgetExceededError, match="57 steps"):
        maximal_subalgebras(a)
    assert built == []
    monkeypatch.setattr(linalg, "WORK_BUDGET", 57)
    assert len(maximal_subalgebras(a)) == len(built) == 57


def test_complement_listing_beyond_the_listing_budget(monkeypatch):
    # GF(2)^6 is over the budget for a subspace scan, not for the
    # complement listing; a raised budget lets the scan check the answer
    a = gf2_rotation_sum()
    listed = maximal_subalgebras(a)
    assert any(m.dim == 4 for m in listed)
    monkeypatch.setattr(linalg, "WORK_BUDGET", 2825)
    assert listed == brute_force_maximals(a)


def test_classify_maximal_r2():
    a = r2()
    y = Subspace.span(F3, 2, [(0, 1)])
    x = Subspace.span(F3, 2, [(1, 0)])
    normal = classify_maximal(a, y, NILPOTENT)
    assert normal.is_normal is True
    assert normal.witness is not None and normal.witness.dim == 1
    assert normal.witness.top.is_full()
    abnormal = classify_maximal(a, x, NILPOTENT)
    assert abnormal.is_normal is False
    assert abnormal.witness is None
    # membership makes everything normal
    assert classify_maximal(a, x, ALL_SOLUBLE).is_normal


def test_is_f_critical_r2():
    a = r2()
    assert is_f_critical(a, Subspace.span(F3, 2, [(1, 0)]), NILPOTENT)
    assert not is_f_critical(a, Subspace.span(F3, 2, [(0, 1)]), NILPOTENT)
    assert not is_f_critical(a, Subspace.span(F3, 2, [(1, 0)]), ALL_SOLUBLE)


def test_f_normalisers_r2():
    a = r2()
    pairs = f_normalisers(a, NILPOTENT)
    assert len(pairs) == 3
    assert {v.basis for v, _ in pairs} == {((1, 0),), ((1, 1),), ((1, 2),)}
    for v, chain in pairs:
        assert NILPOTENT.contains(a.restrict(v)[0])
        assert len(chain) == 2 and chain[-1] == v
        assert chain[0].is_full()


def test_f_normalisers_member_is_identity():
    b = h3()
    pairs = f_normalisers(b, NILPOTENT)
    assert len(pairs) == 1
    v, chain = pairs[0]
    assert v.is_full()
    assert len(chain) == 1


def test_f_normalisers_all_soluble():
    budget = EnumerationBudget(max_dim=3, field=F2)
    for a in enumerate_soluble(budget):
        pairs = f_normalisers(a, ALL_SOLUBLE)
        assert len(pairs) == 1 and pairs[0][0].is_full()


def test_caches_key_on_the_formation_not_its_name():
    # a formation named "nilpotent" that admits every soluble algebra must
    # not be served the nilpotent answers cached on the same algebra
    a = r2()
    assert len(f_normalisers(a, NILPOTENT)) == 3
    impostor = Formation("nilpotent", lambda L: L.is_soluble(), lambda L, factor: True)
    pairs = f_normalisers(a, impostor)
    assert [v for v, _ in pairs] == [a.full_space()]
    for m in maximal_subalgebras(a):
        assert classify_maximal(a, m, impostor).is_normal
    assert all(is_f_central(a, f, impostor) for f in chief_series(a).factors)


def test_no_critical_descent_diagnostic():
    nothing = Formation("nothing", lambda L: False, lambda L, factor: False)
    with pytest.raises(NoCriticalDescentError):
        f_normalisers(abelian("GF(2)", 1), nothing)


def test_cover_avoid_r2():
    a = r2()
    x = Subspace.span(F3, 2, [(1, 0)])
    report = cover_avoid_check(a, x, NILPOTENT)
    assert report.ok
    assert [e.central for e in report.entries] == [False, True]
    # a non-normaliser violates: span{y} covers the eccentric bottom factor
    bad = cover_avoid_check(a, Subspace.span(F3, 2, [(0, 1)]), NILPOTENT)
    assert not bad.ok
    assert bad.violations()


def test_cover_avoid_pass_matches_definitions():
    # the rank pass along the series against the intersection-based
    # predicates, on every normaliser under every formation and, beyond
    # them, on every subalgebra
    checked = 0
    for a in _streams():
        series = chief_series(a)
        subalgebras = enumerate_subalgebras(a)
        for formation in (NILPOTENT, SUPERSOLUBLE, ALL_SOLUBLE):
            normalisers = [v for v, _ in f_normalisers(a, formation)]
            assert all(v in subalgebras for v in normalisers)
            for v in normalisers:
                expected = [(covers(v, f), avoids(v, f)) for f in series.factors]
                assert series.cover_avoid(v) == expected
                checked += 1
        for s in subalgebras:
            expected = [(covers(s, f), avoids(s, f)) for f in series.factors]
            assert series.cover_avoid(s) == expected
    assert checked > 0


def test_cover_avoid_full_member():
    b = h3()
    assert cover_avoid_check(b, b.full_space(), NILPOTENT).ok


def test_is_f_projector_fixtures():
    a = r2()
    assert is_f_projector(a, Subspace.span(F3, 2, [(1, 0)]), NILPOTENT)
    assert not is_f_projector(a, Subspace.zero_space(F3, 2), NILPOTENT)
    assert not is_f_projector(a, Subspace.span(F3, 2, [(0, 1)]), NILPOTENT)
    b = h3()
    assert is_f_projector(b, b.full_space(), NILPOTENT)


def test_centrality_consistent_across_series():
    """Multiset of (dim, central) pairs matches on an independent series."""
    for p in (2, 3):
        budget = EnumerationBudget(max_dim=3, field=Field(p))
        for a in enumerate_soluble(budget):
            for formation in (NILPOTENT, SUPERSOLUBLE, ALL_SOLUBLE):
                first = sorted(
                    (f.dim, is_f_central(a, f, formation))
                    for f in chief_series(a).factors
                )
                second = sorted(
                    (f.dim, is_f_central(a, f, formation))
                    for f in alternate_chief_series(a).factors
                )
                assert first == second


def test_classification_with_supersoluble_dim3():
    """All three formations classify without criteria disagreement."""
    for p in (2, 3):
        budget = EnumerationBudget(max_dim=3, field=Field(p))
        for a in enumerate_soluble(budget):
            for m in maximal_subalgebras(a):
                for formation in (NILPOTENT, SUPERSOLUBLE, ALL_SOLUBLE):
                    classify_maximal(a, m, formation)


def test_normaliser_members_and_chains():
    """Every normaliser is in the formation; every chain step is critical."""
    budget = EnumerationBudget(max_dim=3, field=F3)
    for a in enumerate_soluble(budget):
        for v, chain in f_normalisers(a, NILPOTENT):
            assert NILPOTENT.contains(a.restrict(v)[0])
            current, maps = a, []
            for step in chain[1:]:
                local = step
                for m in maps:
                    local = m.project_subspace(local)
                assert is_f_critical(current, local, NILPOTENT)
                current, new_map = current.restrict(local)
                maps.append(new_map)
            assert chain[-1] == v


def test_quotient_first_structure_matches_direct_computation():
    # the chief series, the nilradical and every maximal's classification,
    # answered through L/A, against today's computations in L itself
    formations = (NILPOTENT, SUPERSOLUBLE, ALL_SOLUBLE)
    classified = 0
    for a in small_streams():
        direct = iterative_chief_series(a)
        assert chief_series(a).ideals == direct.ideals
        assert a.nilradical() == nilradical_by_centralisers(direct)
        for m in maximal_subalgebras(a):
            for formation in formations:
                got = classify_maximal(a, m, formation)
                want = classify_directly(direct, m, formation)
                assert got.is_normal == want.is_normal
                assert (got.witness is None) == (want.witness is None)
                if got.witness is not None:
                    assert got.witness.dim == want.witness.dim
                assert (got.complemented.top, got.complemented.bottom) == (
                    want.complemented.top, want.complemented.bottom
                )
                assert got.complemented.algebra is a
                classified += 1
    assert classified > 1000
