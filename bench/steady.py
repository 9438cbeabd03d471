"""Steadiness mode: repeat workloads over seeds and compare spreads to bounds.

    python3 bench/steady.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--record-pins]

Runs bench/run.py once per workload and seed, each in its own process,
with the run length from BENCHMARK.json.  For every metric it prints the
median, the quartiles and the spread (third minus first quartile, as a
share of the median).  For an end-to-end metric the spread is compared
with the metric's bound: "steady" below a third of it, "within" below
the bound, "WIDE" above it.  set-up time is reported but only its median
is bounded.  With --trace 1 it also checks that every count repeats
exactly for one seed (run the same seed more than once to use that).
--record-pins is passed on to run.py and pins each seed's digests.

Exit status is 1 when a run fails, is not correct, or a spread is WIDE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: int, record: bool) -> dict:
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if record:
        command.append("--record-pins")
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-1000:] or "exit %d" % proc.returncode, "elapsed": elapsed}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = elapsed
    return result


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile, spread as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    bad = False
    report = {}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, spec["run_seconds"], args.trace, args.record_pins)
            runs.setdefault(seed, []).append(result)
            status = result.get("error") or "correct=%s failed=%s" % (result["correct"], result["failed"])
            print("%s seed %d: %.1f s, %s" % (workload, seed, result["elapsed"], status), flush=True)
            if "error" in result or not result["correct"] or result["failed"]:
                bad = True
        ok = [r for rs in runs.values() for r in rs if "error" not in r]
        if not ok:
            continue
        print("%-44s %12s %12s %12s %8s %8s" % (workload, "median", "q1", "q3", "spread", "bound"))
        report[workload] = {}
        for name in ok[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in ok]
            median, q1, q3, share = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if share < bound / 3 else "within" if share <= bound else "WIDE"
                if name == "setup_s":
                    verdict += " (not bounded)"
                elif verdict == "WIDE":
                    bad = True
            print("  %-42s %12.5g %12.5g %12.5g %8.4f %8s %s" % (name, median, q1, q3, share, bound or "-", verdict))
            report[workload][name] = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": share}
        for seed, rs in runs.items():
            counts = [
                {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in rs if "error" not in r
            ]
            if any(c != counts[0] for c in counts[1:]):
                print("  counts differ between runs of seed %d" % seed)
                bad = True
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "results", "steady-trace%d-%d.json" % (args.trace, int(time.time())))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("written %s" % os.path.relpath(path, ROOT))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
