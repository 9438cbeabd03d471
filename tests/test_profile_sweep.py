"""tools/profile_sweep.py: a seeded sweep, or the analyze-q inputs of a seed, under cProfile.

The report gives calls, packs, unpacks, Fraction constructions (also by lieform caller) and the output digest.
"""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

from lieform import cli

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "profile_sweep.py"
ARGV = ["sweep", "--field", "GF(2)", "--max-dim", "3", "--seed", "1", "--json", "--cap", "200"]


def _load_tool():
    spec = importlib.util.spec_from_file_location("lieform_profile_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profile_reports_the_sweep_it_ran(monkeypatch, capsys):
    # the tool sets LIEFORM_THREADS=1 so the sweep runs where cProfile sees it
    monkeypatch.setenv("LIEFORM_THREADS", "1")
    assert cli.main(ARGV) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    tool = _load_tool()
    report = tool.profile("GF(2)", 3, 200, 1, 5)
    assert report["argv"] == ARGV and report["exit"] == 0
    assert report["stdout_sha256"] == digest
    assert report["python_calls"] > report["gf2_pack_calls"] > 0
    assert report["python_calls"] > report["gf2_unpack_calls"] > 0
    # GF(2) work builds no Fraction
    assert report["fraction_new_calls"] == 0
    assert report["process_cpu_s"] > 0
    assert len(report["top_self_time"]) == 5
    selves = [row["self_s"] for row in report["top_self_time"]]
    assert selves == sorted(selves, reverse=True)

    assert tool.main(["--max-dim", "3", "--top", "3"]) == 0
    text = capsys.readouterr().out
    # a rerun in this process finds algebras interned, so its counts may differ
    assert re.search(r"^gf2_pack calls: \d+$", text, re.M) and "Python calls: " in text
    assert re.search(r"^gf2_unpack calls: \d+$", text, re.M)
    assert re.search(r"^Fraction constructions: 0$", text, re.M)
    assert re.search(r"^Fraction constructions by caller: none$", text, re.M)
    assert report["fraction_new_by_caller"] == []
    assert "stdout sha256: %s" % digest in text


def test_profile_of_the_analyze_q_inputs_gives_the_pinned_output(capsys):
    # the benchmark's pinned output digest of analyze-q seed 1 comes back
    # from the profiled run; the Q work builds Fractions and packs nothing
    pinned = json.loads((ROOT / "bench" / "pins.json").read_text())["analyze-q"]["1"]["output"]
    tool = _load_tool()
    report = tool.profile_analyze_q(1, 4)
    assert report["seed"] == 1 and report["algebras"] == 30 and report["errors"] == 0
    assert report["output_sha256"] == pinned
    assert report["python_calls"] > report["fraction_new_calls"] > 0
    assert report["gf2_pack_calls"] == report["gf2_unpack_calls"] == 0
    assert len(report["top_self_time"]) == 4

    assert tool.main(["--analyze-q", "--seed", "1", "--top", "2"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("analyze-q: seed 1, 30 algebras, 0 errors\n")
    assert re.search(r"^Fraction constructions: [1-9]\d*$", text, re.M)
    assert "output sha256: %s" % pinned in text
    # the constructions credited to their nearest lieform callers, most first
    by_caller = report["fraction_new_by_caller"]
    assert by_caller and all(row["calls"] > 0 for row in by_caller)
    assert [row["calls"] for row in by_caller] == sorted((row["calls"] for row in by_caller), reverse=True)
    assert all(re.fullmatch(r"[a-z_]+\.py:\d+\(\S+\)", row["function"]) for row in by_caller)
    line = r"[a-z_]+\.py:\d+\(\S+\) \d+"
    assert re.search(r"^Fraction constructions by caller: %s(, %s)*$" % (line, line), text, re.M)

