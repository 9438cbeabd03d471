"""Alternating parent/change benchmark pairs, written as one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --pr N [--change REV]
        [--first-seed 1] [--note TEXT] [--dev-seeds TEXT] [--machine TEXT]

Both revisions are exported with ``git archive`` into a scratch directory,
so each side measures exactly its committed files and the checkout is left
as it is (a ``git worktree`` would register itself in the repository, and
an interrupted run would leave it there).  For every workload BENCHMARK.json
lists, pair i of ten runs

    python3 bench/run.py --workload W --seed first_seed+i --seconds S --trace 0

in both trees, the parent first when i is even and the change first when
i is odd, at BENCHMARK.json's run_seconds.  Then each side gets one traced
run at seed 1.  The JSON keeps BENCH_6.json's layout: every run's
value of every end-to-end metric, each side's median and quartiles, the
parent's interquartile range, the change's win count and median change,
operation counts, and the traced per-layer metrics.  Progress goes to
stderr, a summary table to stdout.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # the fewest pairs a claimed gain is judged on
TRACE_SEED = 1


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: str) -> str:
    """Extract the committed files of rev into dest; return its full commit id."""
    commit = _git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    # the archive is this repository's own; the filter refuses links out of dest
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(dest, **safe)
    return commit


def run_bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py invocation in tree: its JSON result plus its environment line."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench/run.py exited %d in %s:\n%s" % (proc.returncode, tree, proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("environment: "):
            result["environment"] = json.loads(line.split(": ", 1)[1])
        elif line.startswith("pinned outputs: "):
            result["pin_line"] = line
    return result


def side_stats(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(spec: dict, parent_runs: list, change_runs: list) -> dict:
    """One end-to-end metric on one workload, over the pairs run."""
    lower = spec["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent_runs, change_runs))
    parent, change = side_stats(parent_runs), side_stats(change_runs)
    return {
        "better": spec["better"],
        "bound": spec["bound"],
        "change": change,
        "change_wins": "%d of %d pairs" % (wins, len(parent_runs)),
        "median_change_frac": change["median"] / parent["median"] - 1.0,
        "parent": parent,
        "parent_iqr": parent["q3"] - parent["q1"],
        "unit": spec["unit"],
    }


def describe_environment(env: dict, machine: str = "") -> dict:
    """The environment block of the file, from one run's environment line.

    It adds PYTHONDONTWRITEBYTECODE as every run inherits it (null when
    unset): when it is set, no bytecode is cached, each fresh interpreter
    compiles lieform again, and setup_s includes that.
    """
    environment = {key: env[key] for key in ("implementation", "nproc", "platform", "python")}
    environment["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
    if machine:
        environment["machine"] = machine
    return environment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", default="HEAD", help="revision measured as the change (default HEAD)")
    parser.add_argument("--pr", required=True, type=int, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair; pair i runs first_seed+i")
    parser.add_argument("--note", default="", help="what the change does, stored as 'change'")
    parser.add_argument("--dev-seeds", default="", help="seeds used while the change was written, for the record")
    parser.add_argument("--machine", default="", help="a description of the machine, for the record")
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees, commits = {}, {}
        for side in ("parent", "change"):
            trees[side] = os.path.join(scratch, side)
            commits[side] = {"commit": export(getattr(args, side), trees[side])}
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        names = [w["name"] for w in bench["workloads"]]
        seeds = [args.first_seed + i for i in range(PAIRS)]

        runs = {name: {"parent": [], "change": []} for name in names}
        for name in names:
            for i, seed in enumerate(seeds):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    result = run_bench(trees[side], name, seed, seconds, 0)
                    runs[name][side].append(result)
                    commits[side]["src_sha256"] = result["environment"]["src_sha256"]
                    print("%s seed %d %s: wall_s %.3f, correct %s; %s" % (
                        name, seed, side, result["metrics"]["wall_s"]["value"],
                        result["correct"], result.get("pin_line", "")), file=sys.stderr, flush=True)

        traces = {}
        for name in names:
            traces[name] = {}
            for side in ("parent", "change"):
                result = run_bench(trees[side], name, TRACE_SEED, seconds, 1)
                traces[name][side] = {
                    "correct": result["correct"],
                    "metrics": {key: entry["value"] for key, entry in sorted(result["metrics"].items())},
                }
                print("%s traced %s: correct %s" % (name, side, result["correct"]), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    end_to_end, operations = {}, {}
    for name in names:
        end_to_end[name] = {
            spec["name"]: compare(
                spec,
                [r["metrics"][spec["name"]]["value"] for r in runs[name]["parent"]],
                [r["metrics"][spec["name"]]["value"] for r in runs[name]["change"]],
            )
            for spec in bench["end_to_end"]
        }
        operations[name] = {
            side: {
                "all_correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
            }
            for side, results in runs[name].items()
        }

    environment = describe_environment(runs[names[0]]["change"][0]["environment"], args.machine)
    seed_text = "%d-%d, one pair per seed; the parent runs first at seeds %s, the change first at the others" % (
        seeds[0], seeds[-1], ", ".join(str(s) for s in seeds[::2]))
    if args.dev_seeds:
        seed_text += "; seeds used while the change was written: %s" % args.dev_seeds
    document = {
        "change": args.note,
        "commits": commits,
        "end_to_end": end_to_end,
        "environment": environment,
        "method": {
            "change_wins": "pairs in which the change's run is better than the parent's run of the same seed",
            "command": "python3 bench/run.py --workload W --seed S --seconds %s --trace 0" % seconds,
            "per_run_value": "each run's metric as bench/run.py reports it (a median over its repeats; peak_rss_mb is the run's peak)",
            "quartiles": "statistics.quantiles(n=4, method='inclusive') over the %d runs of one side" % PAIRS,
            "seeds": seed_text,
            "tool": "python3 tools/bench_pairs.py",
        },
        "operations": operations,
        "trace": {
            "command": "python3 bench/run.py --workload W --seed %d --seconds %s --trace 1" % (TRACE_SEED, seconds),
            "workloads": traces,
        },
    }
    out = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print("%-14s %-16s %12s %12s %8s %8s %10s" % ("workload", "metric", "parent", "change", "frac", "wins", "parent_iqr"))
    for name in names:
        for metric, row in end_to_end[name].items():
            print("%-14s %-16s %12.4f %12.4f %+8.3f %8s %10.4f" % (
                name, metric, row["parent"]["median"], row["change"]["median"],
                row["median_change_frac"], row["change_wins"].split()[0], row["parent_iqr"]))
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
