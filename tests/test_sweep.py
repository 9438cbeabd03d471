"""Sweep machinery: per-algebra checks, merging, process-count invariance."""

from lieform import (
    ALL_SOLUBLE,
    NILPOTENT,
    Field,
    LieAlgebra,
    SweepConfig,
    SweepResult,
    check_algebra,
    enumerate_soluble,
    sweep_run,
)
import os

import pytest

from lieform import ParseError
from lieform.sweep import _threads_from_env, sweep_summary_lines
from support import r2


def test_check_algebra_counts():
    result = check_algebra(r2(), [NILPOTENT, ALL_SOLUBLE])
    assert result.algebras == 1
    # 4 maximals classified per formation; 3 nilpotent normalisers + L itself
    assert result.maximals_classified == 8
    assert result.normalisers_checked == 4
    assert result.ok


def test_check_error_is_recorded_not_raised():
    # spinning GF(31)^3 is over the work budget: the minimal-ideal search raises
    result = check_algebra(LieAlgebra.abelian(Field(31), 3), [NILPOTENT])
    [record] = result.check_errors
    assert record["formation"] == "nilpotent"
    assert record["algebra"] == {"field": "GF(31)", "dim": 3, "brackets": []}
    assert record["detail"].startswith("BudgetExceededError: spinning over GF(31)")
    assert not result.ok
    assert result.to_dict()["check_errors"] == [record]
    assert "check errors: 1" in sweep_summary_lines(result)


def test_sweep_run_small():
    result = sweep_run(SweepConfig(field="GF(3)", max_dim=2))
    assert result.algebras == 4
    assert result.ok
    assert result.elapsed > 0.0


def test_result_roundtrip_excludes_elapsed():
    result = sweep_run(SweepConfig(field="GF(2)", max_dim=2))
    data = result.to_dict()
    assert "elapsed" not in data
    assert data["ok"] == result.ok


def test_merge_adds_counts():
    first = check_algebra(r2(), [NILPOTENT])
    second = check_algebra(r2("GF(2)"), [NILPOTENT])
    merged = SweepResult()
    merged.merge(first)
    merged.merge(second)
    assert merged.algebras == 2
    assert merged.maximals_classified == first.maximals_classified + second.maximals_classified


def test_process_count_does_not_change_output():
    config = SweepConfig(field="GF(2)", max_dim=3)
    single = sweep_run(config, threads=1)
    forked = sweep_run(config, threads=3)
    assert single.to_dict() == forked.to_dict()


def test_sweep_leaves_no_top_dimension_algebra_interned():
    config = SweepConfig(field="GF(3)", max_dim=3)
    top = [
        (algebra.field, algebra.table)
        for algebra in enumerate_soluble(config.budget())
        if algebra.dim == config.max_dim
    ]
    assert top
    assert sweep_run(config, threads=1).ok
    assert not any(key in LieAlgebra._interned for key in top)


def test_thread_count_from_environment(monkeypatch):
    # parsed only: no worker process is started here
    monkeypatch.delenv("LIEFORM_THREADS", raising=False)
    assert _threads_from_env() == 1
    monkeypatch.setenv("LIEFORM_THREADS", "1000000")
    assert _threads_from_env() == (os.cpu_count() or 1)
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("LIEFORM_THREADS", bad)
        with pytest.raises(ParseError):
            _threads_from_env()


def test_summary_lines_shape():
    result = sweep_run(SweepConfig(field="GF(2)", max_dim=2))
    lines = sweep_summary_lines(result)
    assert len(lines) == 8
    assert lines[0] == "algebras checked: 3"
    assert lines[-1] == "result: ok"
