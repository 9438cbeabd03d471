"""tools/profile_sweep.py: a seeded sweep under cProfile, reporting calls, packs, unpacks and the output digest."""

import hashlib
import importlib.util
import re
from pathlib import Path

from lieform import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "profile_sweep.py"
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
    assert report["process_cpu_s"] > 0
    assert len(report["top_self_time"]) == 5
    selves = [row["self_s"] for row in report["top_self_time"]]
    assert selves == sorted(selves, reverse=True)

    assert tool.main(["--max-dim", "3", "--top", "3"]) == 0
    text = capsys.readouterr().out
    # a rerun in this process finds algebras interned, so its counts may differ
    assert re.search(r"^gf2_pack calls: \d+$", text, re.M) and "Python calls: " in text
    assert re.search(r"^gf2_unpack calls: \d+$", text, re.M)
    assert "stdout sha256: %s" % digest in text
