"""Algebra stream and exhaustive subspace listings."""

import pytest

from lieform import (
    BudgetExceededError,
    EnumerationBudget,
    Field,
    LieAlgebra,
    ParseError,
    UnsupportedFieldError,
    enumerate_ideals,
    enumerate_soluble,
    enumerate_subalgebras,
    enumerate_subspaces,
    gaussian_binomial,
    minimal_ideal,
)
from lieform import enumeration
from lieform.enumeration import check_enumerable, check_stream
from lieform.linalg import WORK_BUDGET
from support import abelian, h3, minimal_ideals_exhaustive, product_space, r2

F2 = Field(2)
F3 = Field(3)


def test_budget_validation():
    with pytest.raises(ParseError):
        EnumerationBudget(max_dim=0, field=F2)
    with pytest.raises(ParseError):
        EnumerationBudget(max_dim="3", field=F2)
    with pytest.raises(UnsupportedFieldError):
        EnumerationBudget(max_dim=2, field=Field.from_string("Q"))
    with pytest.raises(ParseError):
        EnumerationBudget(max_dim=2, field=F2, per_step_cap=0)


def test_stream_dim2_gf2():
    algebras = list(enumerate_soluble(EnumerationBudget(max_dim=2, field=F2)))
    assert [a.dim for a in algebras] == [1, 2, 2]
    # the two 2-dim ones are the abelian plane and the nonabelian line algebra
    tables = {a.to_json() for a in algebras if a.dim == 2}
    assert abelian("GF(2)", 2).to_json() in tables
    assert len(tables) == 2


def test_stream_counts():
    count2 = sum(1 for _ in enumerate_soluble(EnumerationBudget(max_dim=3, field=F2)))
    count3 = sum(1 for _ in enumerate_soluble(EnumerationBudget(max_dim=3, field=F3)))
    assert count2 == 23
    assert count3 == 103


def test_stream_members_are_soluble():
    for a in enumerate_soluble(EnumerationBudget(max_dim=3, field=F2)):
        a.validate()
        assert a.derived_series()[-1].is_zero()


def test_capped_stream_is_deterministic():
    budget = lambda: EnumerationBudget(max_dim=4, field=F2, per_step_cap=5, seed=7)
    first = [a.to_json() for a in enumerate_soluble(budget())]
    second = [a.to_json() for a in enumerate_soluble(budget())]
    assert first == second
    other_seed = EnumerationBudget(max_dim=4, field=F2, per_step_cap=5, seed=8)
    assert first != [a.to_json() for a in enumerate_soluble(other_seed)]


def test_strided_stream_builds_only_its_top_level(monkeypatch):
    # each residue class gets its positions of the whole stream, in order;
    # every lower level is built as parents, the top level only at its positions
    from lieform import enumeration

    budget = lambda: EnumerationBudget(max_dim=4, field=F2, per_step_cap=5, seed=3)
    whole = [a.to_json() for a in enumerate_soluble(budget())]
    lower = sum(1 for text in whole if '"dim": 4' not in text) - 1
    built = []
    real = enumeration.split_extension_by_derivation
    monkeypatch.setattr(
        enumeration, "split_extension_by_derivation", lambda *args: built.append(1) or real(*args)
    )
    for stride in (1, 2, 3):
        for index in range(stride):
            built.clear()
            part = [a.to_json() for a in enumerate_soluble(budget(), index, stride)]
            assert part == whole[index::stride]
            mine = sum(1 for position in range(index, len(whole), stride) if '"dim": 4' in whole[position])
            assert len(built) == lower + mine


def test_cap_bounds_each_extension_step():
    capped = EnumerationBudget(max_dim=4, field=F2, per_step_cap=5, seed=1)
    dims = [a.dim for a in enumerate_soluble(capped)]
    # dim-1 root, then at most 5 children per parent at each level
    assert dims.count(2) <= 5
    assert dims.count(3) <= 5 * dims.count(2)


def test_enumerate_subalgebras_r2():
    a = r2()
    subs = enumerate_subalgebras(a)
    by_hand = [
        s
        for s in enumerate_subspaces(F3, 2)
        if product_space(a, s, s) <= s
    ]
    assert subs == by_hand
    # zero, four lines, the plane
    assert [s.dim for s in subs] == [0, 1, 1, 1, 1, 2]


def test_enumerate_ideals_h3():
    b = h3()
    ideals = enumerate_ideals(b)
    assert all(b.is_ideal(s) for s in ideals)
    # every ideal of h3 over GF(2) contains the centre or is zero
    centre = b.centre()
    assert all(s.is_zero() or centre <= s for s in ideals)


def test_minimal_ideals_exhaustive():
    b = h3()
    minimals = minimal_ideals_exhaustive(b)
    assert minimals == [b.centre()]
    assert minimal_ideal(b) in minimals
    ab = abelian("GF(2)", 2)
    assert len(minimal_ideals_exhaustive(ab)) == 3


def test_enumeration_guards():
    with pytest.raises(UnsupportedFieldError):
        enumerate_subalgebras(r2("Q"))
    with pytest.raises(BudgetExceededError):
        enumerate_ideals(LieAlgebra.abelian(F2, 6))


def test_work_budget_refuses_large_fields_up_front():
    # GF(101)^5 has about 2.1e12 subspaces: refused before any is scanned
    f101 = Field(101)
    big = LieAlgebra(f101, 5, {(0, 1): (0, 1, 0, 0, 0)})
    assert gaussian_binomial(5, 2, 101) > 10**9
    with pytest.raises(BudgetExceededError):
        enumerate_subalgebras(big)
    # a minimal ideal search would spin 101^2 vectors of [L, L] = span{e2, e3}
    plane = LieAlgebra(f101, 3, {(0, 1): (0, 1, 0), (0, 2): (0, 0, 1)})
    with pytest.raises(BudgetExceededError):
        minimal_ideal(plane)
    # the largest case the tests and the benchmark enumerate stays inside
    assert WORK_BUDGET == sum(gaussian_binomial(5, k, 3) for k in range(6)) == 2664
    assert len(enumerate_subalgebras(LieAlgebra.abelian(F3, 5))) == 2664
    # the same check on a bare dimension
    check_enumerable(F3, 5)
    with pytest.raises(BudgetExceededError):
        check_enumerable(F2, 6)


def test_stream_budget_counts_the_stream_before_its_top_level(monkeypatch):
    # the uncapped GF(2) stream to dimension 5, the largest swept in full,
    # holds 198,071 algebras: within the budget, and counted exactly from
    # the levels below dimension 5
    budget = EnumerationBudget(max_dim=5, field=F2)
    check_stream(budget)
    monkeypatch.setattr(enumeration, "STREAM_BUDGET", 198071)
    check_stream(budget)
    monkeypatch.setattr(enumeration, "STREAM_BUDGET", 198070)
    with pytest.raises(BudgetExceededError, match="at least 198071 steps"):
        check_stream(budget)
    # a stream over the budget is refused before its top level is built
    built = []
    extend = enumeration.split_extension_by_derivation
    monkeypatch.setattr(enumeration, "split_extension_by_derivation", lambda *a: built.append(1) or extend(*a))
    with pytest.raises(BudgetExceededError):
        list(enumerate_soluble(budget))
    # 198,071 = 1 + 2 + 20 + 1,056 + 196,992: levels 2 to 4 were built, not 5
    assert len(built) == 2 + 20 + 1056



def test_every_algebra_of_dimension_two_up_has_two_derivations():
    # the stream bound counts min(p^2, cap) children per algebra from
    # dimension 2 on: dim Der >= 2 on the whole GF(2) dim <= 4 and GF(3)
    # dim <= 3 streams, with dim Der = n^2 exactly on the abelian ones
    from lieform import derivation_algebra

    streams = [EnumerationBudget(max_dim=4, field=F2), EnumerationBudget(max_dim=3, field=F3)]
    seen = 0
    for budget in streams:
        for algebra in enumerate_soluble(budget):
            if algebra.dim < 2:
                continue
            seen += 1
            dim = derivation_algebra(algebra).dim
            assert dim >= 2
            if not any(any(v) for row in algebra.table for v in row):
                assert dim == algebra.dim**2
    assert seen == 2 + 20 + 1056 + 3 + 99


def test_uncapped_gf3_dimension_5_stream_refused_before_dimension_4_is_built(monkeypatch):
    # 34,204 algebras up to dimension 4, and at least 9 times the 34,101 of
    # dimension 4 above them: refused once the dimension-4 level is
    # counted, before any of it is built
    built = []
    extend = enumeration.split_extension_by_derivation
    monkeypatch.setattr(
        enumeration, "split_extension_by_derivation", lambda parent, d: built.append(parent.dim) or extend(parent, d)
    )
    with pytest.raises(BudgetExceededError) as refused:
        check_stream(EnumerationBudget(max_dim=5, field=F3))
    assert str(refused.value) == "sweeping GF(3) to dimension 5 takes at least 341113 steps, over the budget of 262144"
    assert 34204 + 9 * 34101 == 341113
    assert 3 not in built and len(built) == 3 + 99
