"""Profile one seeded sweep, or the analyze-q inputs of a seed, in this process under cProfile.

    python3 tools/profile_sweep.py [--field "GF(2)"] [--max-dim 4]
        [--cap 200] [--seed 1] [--top 15]
    python3 tools/profile_sweep.py --analyze-q [--seed 1] [--top 15]

The sweep runs through ``lieform.cli.main`` with ``--json`` and one
process (LIEFORM_THREADS=1), as ``lieform sweep --field F --max-dim D
--cap C --seed S --json`` runs it, its stdout captured.  With
``--analyze-q`` the profiled work is instead what the benchmark's
analyze-q workload measures: for each of the Q algebras that
``bench/workloads.generate`` makes for the seed (read, never changed), an
``AnalysisReport`` over every formation plus both intravariance criteria
on the derived subalgebra and the centre.

The report gives the process CPU time of the profiled work, the total
number of Python calls, the calls of ``linalg.gf2_pack`` and
``linalg.gf2_unpack`` (the GF(2) conversions that the kernels try to do
once per vector, or not at all), the ``Fraction`` constructions (the Q
work that the integer rows of linalg's Q kernels avoid) with the share of
them that each lieform function makes, the top self-time functions and
the sha256 of the output: the sweep's stdout, or the
analyze-q outputs as the benchmark digests them, so a speedup can be
checked to give the same bytes.  cProfile roughly doubles the CPU time;
compare CPU times only between runs of this tool, each in a fresh
interpreter, since algebras interned by earlier work in the same process
make a rerun cheaper.  Stdlib only; lieform is imported from ``src/`` of
this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import os
import pstats
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _label(key: tuple) -> str:
    filename, line, name = key
    if filename == "~":
        return name
    return "%s:%d(%s)" % (os.path.basename(filename), line, name)


def _import_path(*parts: str) -> None:
    path = os.path.join(ROOT, *parts)
    if path not in sys.path:
        sys.path.insert(0, path)


def _profiled(call, *args) -> tuple:
    """call(*args) under cProfile: (its result, the process CPU seconds, the counts as plain data)."""
    profiler = cProfile.Profile()
    start = time.process_time()
    result = profiler.runcall(call, *args)
    cpu_s = time.process_time() - start

    stats = pstats.Stats(profiler)
    entries = stats.stats  # key -> (primitive calls, calls, self s, cumulative s, callers)

    def calls(module: str, name: str) -> int:
        return sum(
            row[1] for key, row in entries.items()
            if key[2] == name and os.path.basename(key[0]) == module
        )

    fraction_new = [key for key in entries if key[2] == "__new__" and os.path.basename(key[0]) == "fractions.py"]
    return result, {
        "process_cpu_s": round(cpu_s, 3),
        "python_calls": stats.total_calls,
        "gf2_pack_calls": calls("linalg.py", "gf2_pack"),
        "gf2_unpack_calls": calls("linalg.py", "gf2_unpack"),
        "fraction_new_calls": calls("fractions.py", "__new__"),
        "fraction_new_by_caller": _by_lieform_caller(entries, fraction_new),
        "ranked": sorted(entries.items(), key=lambda item: item[1][2], reverse=True),
    }


def _is_lieform(key: tuple) -> bool:
    return os.path.basename(os.path.dirname(key[0])) == "lieform"


def _by_lieform_caller(entries: dict, targets: list) -> list:
    """The calls of the target functions, credited to their nearest lieform callers, most first.

    cProfile records call counts per caller edge, not stacks.  A call from
    a non-lieform function (the Fraction operators, a builtin) is passed up
    to that function's callers in proportion to how often each called it,
    until it reaches a lieform function; what reaches no lieform function
    (the profiler's own entry) is dropped.  So the split through a shared
    function, such as the operator wrapper every Fraction product goes
    through, is by calls, not exact.
    """
    credit = {}

    def climb(key: tuple, count: float, seen: frozenset) -> None:
        callers = entries[key][4] if key in entries else {}
        total = sum(edge[0] for caller, edge in callers.items() if caller not in seen)
        for caller, edge in callers.items():
            if caller in seen or not total:
                continue
            share = count * edge[0] / total
            if _is_lieform(caller):
                credit[caller] = credit.get(caller, 0) + share
            else:
                climb(caller, share, seen | {caller})

    for key in targets:
        for caller, edge in entries[key][4].items():
            if _is_lieform(caller):
                credit[caller] = credit.get(caller, 0) + edge[0]
            else:
                climb(caller, edge[0], frozenset({key, caller}))
    ranked = sorted(credit.items(), key=lambda item: (-item[1], _label(item[0])))
    return [{"function": _label(key), "calls": round(count)} for key, count in ranked if round(count)]


def _finish(report: dict, top: int) -> dict:
    report["top_self_time"] = [
        {"function": _label(key), "calls": row[1], "self_s": round(row[2], 3), "cumulative_s": round(row[3], 3)}
        for key, row in report.pop("ranked")[:top]
    ]
    return report


def profile(field: str, max_dim: int, cap, seed: int, top: int) -> dict:
    """The profile of one sweep, as plain data."""
    _import_path("src")
    from lieform import cli

    argv = ["sweep", "--field", field, "--max-dim", str(max_dim), "--seed", str(seed), "--json"]
    if cap is not None:
        argv += ["--cap", str(cap)]
    os.environ["LIEFORM_THREADS"] = "1"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code, report = _profiled(cli.main, argv)
    report.update(argv=argv, exit=code)
    report["stdout_sha256"] = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    return _finish(report, top)


def _analyze(algebras: list) -> list:
    """The analyze-q outputs of the algebras, each entry as the benchmark records it."""
    from lieform import derivations, formations, report

    everything = [formations.FORMATIONS[name] for name in sorted(formations.FORMATIONS)]
    outputs = []
    for algebra in algebras:
        try:
            text = report.AnalysisReport(algebra, everything).to_json()
            criteria = {}
            for label, space in (("derived", algebra.derived_subalgebra()), ("centre", algebra.centre())):
                criteria[label] = [
                    derivations.is_intravariant_linear(algebra, space),
                    derivations.is_intravariant_extension(algebra, space),
                ]
            outputs.append({"report": text, "criteria": criteria})
        except Exception:  # counted and reported, as the benchmark does
            outputs.append({"error": traceback.format_exc(limit=2)})
    return outputs


def profile_analyze_q(seed: int, top: int) -> dict:
    """The profile of the analyze-q work on the inputs of one seed, as plain data.

    The algebras are parsed before profiling starts, as the benchmark's
    set-up parses them; output_sha256 is the benchmark's output digest.
    """
    _import_path("src")
    _import_path("bench")
    import workloads
    from lieform import LieAlgebra

    algebras = [LieAlgebra.from_dict(data) for data in workloads.generate("analyze-q", seed)["algebras"]]
    outputs, report = _profiled(_analyze, algebras)
    report.update(seed=seed, algebras=len(algebras), errors=sum("error" in entry for entry in outputs))
    report["output_sha256"] = workloads.digest(outputs)
    return _finish(report, top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--analyze-q", action="store_true", help="profile the analyze-q inputs of --seed, not a sweep")
    parser.add_argument("--field", default="GF(2)", help='field of the sweep (default "GF(2)")')
    parser.add_argument("--max-dim", type=int, default=4, help="top dimension (default 4)")
    parser.add_argument("--cap", type=int, default=200, help="extensions kept per parent (default 200; 0 for none)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the capped sampling or of the inputs (default 1)")
    parser.add_argument("--top", type=int, default=15, help="functions listed by self time (default 15)")
    args = parser.parse_args(argv)

    if args.analyze_q:
        report = profile_analyze_q(args.seed, args.top)
        print("analyze-q: seed %d, %d algebras, %d errors" % (report["seed"], report["algebras"], report["errors"]))
    else:
        report = profile(args.field, args.max_dim, args.cap or None, args.seed, args.top)
        print("sweep: lieform %s (exit %d)" % (" ".join(report["argv"]), report["exit"]))
    print("process CPU time: %.3f s (profiled)" % report["process_cpu_s"])
    print("Python calls: %d" % report["python_calls"])
    print("gf2_pack calls: %d" % report["gf2_pack_calls"])
    print("gf2_unpack calls: %d" % report["gf2_unpack_calls"])
    print("Fraction constructions: %d" % report["fraction_new_calls"])
    callers = ", ".join("%s %d" % (row["function"], row["calls"]) for row in report["fraction_new_by_caller"])
    print("Fraction constructions by caller: %s" % (callers or "none"))
    if args.analyze_q:
        print("output sha256: %s" % report["output_sha256"])
    else:
        print("stdout sha256: %s" % report["stdout_sha256"])
    print("%10s %9s %9s  %s" % ("calls", "self s", "cum s", "function"))
    for row in report["top_self_time"]:
        print("%10d %9.3f %9.3f  %s" % (row["calls"], row["self_s"], row["cumulative_s"], row["function"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
