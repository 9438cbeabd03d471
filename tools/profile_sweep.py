"""Profile one seeded sweep in this process under cProfile.

    python3 tools/profile_sweep.py [--field "GF(2)"] [--max-dim 4]
        [--cap 200] [--seed 1] [--top 15]

The sweep runs through ``lieform.cli.main`` with ``--json`` and one
process (LIEFORM_THREADS=1), as ``lieform sweep --field F --max-dim D
--cap C --seed S --json`` runs it, its stdout captured.  The report gives
the process CPU time of the profiled sweep, the total number of Python
calls, the calls of ``linalg.gf2_pack`` and ``linalg.gf2_unpack`` (the
GF(2) conversions that the kernels try to do once per vector, or not at
all), the top self-time functions and the
sha256 of the sweep's stdout, so a speedup can be checked to give the same
bytes.  cProfile roughly doubles the CPU time; compare CPU times only
between runs of this tool, each in a fresh interpreter, since algebras
interned by earlier work in the same process make a rerun cheaper.
Stdlib only; lieform is imported from ``src/`` of this checkout.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _label(key: tuple) -> str:
    filename, line, name = key
    if filename == "~":
        return name
    return "%s:%d(%s)" % (os.path.basename(filename), line, name)


def profile(field: str, max_dim: int, cap, seed: int, top: int) -> dict:
    """The profile of one sweep, as plain data."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from lieform import cli

    argv = ["sweep", "--field", field, "--max-dim", str(max_dim), "--seed", str(seed), "--json"]
    if cap is not None:
        argv += ["--cap", str(cap)]
    os.environ["LIEFORM_THREADS"] = "1"
    buffer = io.StringIO()
    profiler = cProfile.Profile()
    start = time.process_time()
    with contextlib.redirect_stdout(buffer):
        code = profiler.runcall(cli.main, argv)
    cpu_s = time.process_time() - start

    stats = pstats.Stats(profiler)
    entries = stats.stats  # key -> (primitive calls, calls, self s, cumulative s, callers)

    def linalg_calls(name: str) -> int:
        return sum(
            row[1] for key, row in entries.items()
            if key[2] == name and os.path.basename(key[0]) == "linalg.py"
        )

    ranked = sorted(entries.items(), key=lambda item: item[1][2], reverse=True)[:top]
    return {
        "argv": argv,
        "exit": code,
        "process_cpu_s": round(cpu_s, 3),
        "python_calls": stats.total_calls,
        "gf2_pack_calls": linalg_calls("gf2_pack"),
        "gf2_unpack_calls": linalg_calls("gf2_unpack"),
        "stdout_sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
        "top_self_time": [
            {"function": _label(key), "calls": row[1], "self_s": round(row[2], 3), "cumulative_s": round(row[3], 3)}
            for key, row in ranked
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--field", default="GF(2)", help='field of the sweep (default "GF(2)")')
    parser.add_argument("--max-dim", type=int, default=4, help="top dimension (default 4)")
    parser.add_argument("--cap", type=int, default=200, help="extensions kept per parent (default 200; 0 for none)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the capped sampling (default 1)")
    parser.add_argument("--top", type=int, default=15, help="functions listed by self time (default 15)")
    args = parser.parse_args(argv)

    report = profile(args.field, args.max_dim, args.cap or None, args.seed, args.top)
    print("sweep: lieform %s (exit %d)" % (" ".join(report["argv"]), report["exit"]))
    print("process CPU time: %.3f s (profiled)" % report["process_cpu_s"])
    print("Python calls: %d" % report["python_calls"])
    print("gf2_pack calls: %d" % report["gf2_pack_calls"])
    print("gf2_unpack calls: %d" % report["gf2_unpack_calls"])
    print("stdout sha256: %s" % report["stdout_sha256"])
    print("%10s %9s %9s  %s" % ("calls", "self s", "cum s", "function"))
    for row in report["top_self_time"]:
        print("%10d %9.3f %9.3f  %s" % (row["calls"], row["self_s"], row["cumulative_s"], row["function"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
