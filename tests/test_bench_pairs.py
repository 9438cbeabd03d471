"""The pair statistics of tools/bench_pairs.py, which writes BENCH_<pr>.json."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("lieform_bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_counts_wins_by_direction_and_ties_for_neither():
    compare = _load_tool().compare
    parent = [4.0, 2.0, 3.0, 1.0, 5.0]
    change = [2.0, 2.0, 1.0, 2.0, 1.0]
    lower = compare({"better": "lower", "bound": 0.25, "unit": "s"}, parent, change)
    assert lower["change_wins"] == "3 of 5 pairs"
    assert lower["parent"]["median"] == 3.0 and lower["change"]["median"] == 2.0
    assert (lower["parent"]["q1"], lower["parent"]["q3"]) == (2.0, 4.0)
    assert lower["parent_iqr"] == 2.0
    assert abs(lower["median_change_frac"] + 1 / 3) < 1e-12
    higher = compare({"better": "higher", "bound": 0.25, "unit": "1/s"}, parent, change)
    assert higher["change_wins"] == "1 of 5 pairs"


def test_environment_records_bytecode_writing(monkeypatch):
    describe = _load_tool().describe_environment
    env = {"implementation": "CPython", "nproc": 2, "platform": "Linux", "python": "3.11.7", "src_sha256": "x"}
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    recorded = describe(env, "a 2-core VM")
    assert recorded["PYTHONDONTWRITEBYTECODE"] == "1"
    assert recorded["machine"] == "a 2-core VM" and "src_sha256" not in recorded
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert describe(env)["PYTHONDONTWRITEBYTECODE"] is None
