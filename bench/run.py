"""lieform benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; lieform is imported from its ``src``.
Every measurement is a fresh interpreter, because the process-global
intern table makes a warm rerun much faster.

--trace 0 sets up several times, then repeats the workload in fresh
processes for about S seconds and prints the end-to-end metrics (medians
over the repeats).  --trace 1 runs the workload once untraced and once with
spans and counters on, and prints the per-layer metrics.  Either way the
outputs are checked: against the digests in pins.json for a pinned seed,
and against invariants of the results for every seed.  The last line of
stdout is the JSON result; the lines before it are for people, and
results/ keeps the full record with the environment and the spans.

See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402  (the benchmark's own modules; they import lieform lazily)
import workloads  # noqa: E402

PINS = os.path.join(BENCH_DIR, "pins.json")
RESULTS = os.path.join(BENCH_DIR, "results")

SETUP_SAMPLES = 5
DEADLINE_S = 170.0

# Pins are shared where outputs must be equal bytes: the two-process sweep
# must print exactly what the single-process sweep prints.
PIN_KEY = {"sweep-gf2-d4-2p": "sweep-gf2-d4"}

# Spans that both BENCHMARK.json workloads enter get their times in the JSON.
# A span a workload never enters would read exactly 0 s on every run, so
# the other spans' times are printed in the span table and written to
# results/, and reach the JSON as call counts.
TIMED_EVERYWHERE = (
    "derivations.extension_defect",
    "derivations.is_intravariant_linear",
    "derivations.derivation_algebra",
    "chief.split_extension_by_derivation",
    "chief.chief_series",
    "formations.is_f_central",
    "formations.cover_avoid_check",
    "formations.f_normalisers",
    "algebra.quotient",
)
KERNEL_COUNTS = ("algebra.bracket", "algebra.centralizer_of_factor", "linalg.rref")


class BenchError(Exception):
    """The benchmark could not measure; it prints no result."""


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n >= 20 else 50


class Child:
    """Runs bench/child.py in a fresh interpreter under one deadline."""

    def __init__(self, workload: str, inputs_path: str, workdir: str, deadline: float):
        self.workload = workload
        self.inputs_path = inputs_path
        self.workdir = workdir
        self.deadline = deadline

    def __call__(self, mode: str) -> dict:
        for stale in glob.glob(os.path.join(self.workdir, "worker-*.json")):
            os.remove(stale)
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("LIEFORM_THREADS", None)
        command = [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode, self.workload, self.inputs_path, self.workdir]
        err_path = os.path.join(self.workdir, "stderr.txt")
        started = time.monotonic()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, start_new_session=True)
            try:
                out, _ = proc.communicate(timeout=max(1.0, self.deadline - started))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError("%s child passed the %.0f s deadline" % (mode, DEADLINE_S)) from None
            finally:
                _reap_group(proc.pid)
        finished = time.monotonic()
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError("%s child exited %d:\n%s" % (mode, proc.returncode, tail))
        result = json.loads(out.decode().splitlines()[-1])
        if not result["lieform_file"].startswith(SRC + os.sep):
            raise BenchError("the child imported lieform from %s" % result["lieform_file"])
        result["setup_s"] = result["ready"] - started
        result["process_s"] = finished - started
        return result


def _reap_group(pgid: int) -> None:
    """Stop anything the child left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _load_lieform():
    if not os.path.isfile(os.path.join(SRC, "lieform", "__init__.py")):
        raise BenchError("no lieform sources under %s; run from the root of a checkout" % os.path.relpath(SRC))
    sys.path.insert(0, SRC)
    import lieform

    if os.path.dirname(os.path.dirname(os.path.abspath(lieform.__file__))) != SRC:
        raise BenchError("lieform imported from %s, not from the checkout" % lieform.__file__)


def _environment(workload: str, seed: int, inputs: dict) -> dict:
    sources = sorted(glob.glob(os.path.join(SRC, "lieform", "*.py")))
    tree = hashlib.sha256()
    for path in sources:
        with open(path, "rb") as fh:
            tree.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        commit = lines[1]
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "workload": workload,
        "seed": seed,
    }
    if "argv" in inputs:
        env["inputs"] = {"argv": inputs["argv"], "threads": inputs["threads"]}
    else:
        first = inputs["algebras"][0]
        env["inputs"] = {"algebras": len(inputs["algebras"]), "field": first["field"], "dim": first["dim"]}
    return env


class Checker:
    """Collects every way the outputs can be wrong."""

    def __init__(self, workload: str, seed: int, input_digest: str, record: bool):
        self.key = PIN_KEY.get(workload, workload)
        self.seed = str(seed)
        self.input_digest = input_digest
        self.record = record
        self.problems = []
        self.pins = {}
        if os.path.exists(PINS):
            with open(PINS, encoding="utf-8") as fh:
                self.pins = json.load(fh)
        self.pin = self.pins.get(self.key, {}).get(self.seed)
        self.output = None

    def rep(self, result: dict) -> None:
        self.problems.extend(result.get("problems", []))
        if result["exit"] != 0:
            self.problems.append("exit code %d" % result["exit"])
        if result.get("summary") and result["summary"]["ok"] is not True:
            self.problems.append("the sweep reports failures")
        outcome = {"inputs": self.input_digest, "output": result["output_digest"], "exit": result["exit"]}
        if self.output is None:
            self.output = outcome
        elif outcome != self.output:
            self.problems.append("outputs differ between repeats")

    def finish(self) -> str:
        """Compare against the pin, or record one where none exists yet."""
        if self.pin is None and self.record:
            if self.problems:
                raise BenchError("refusing to pin a run with problems: %s" % "; ".join(self.problems))
            self.pins.setdefault(self.key, {})[self.seed] = self.output
            with open(PINS, "w", encoding="utf-8") as fh:
                json.dump(self.pins, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return "recorded"
        if self.pin is None:
            return "unpinned"
        for field in ("inputs", "output", "exit"):
            if self.pin[field] != self.output[field]:
                self.problems.append("%s digest differs from the pin for seed %s" % (field, self.seed))
        return "matched" if not self.problems else "MISMATCH"

    @property
    def correct(self) -> bool:
        return not self.problems


def _end_to_end(reps: list, setups: list) -> tuple:
    """Medians over the repeats, so one disturbed repeat among several does not move them."""
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "algebras_per_s": (statistics.median(r["work"]["algebras"] / r["wall_s"] for r in reps), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"repeats": len(reps), "setup_samples": len(setups)}
    if "algebra_seconds" in reps[0]:
        # closed-loop workloads: per-algebra time to verdict, printed but not
        # gated (see README.md)
        n = len(reps[0]["algebra_seconds"])
        q = tail_percentile(n)
        notes["algebra_p50_ms"] = statistics.median(1000 * _percentile(r["algebra_seconds"], 50) for r in reps)
        notes["algebra_tail_ms"] = statistics.median(1000 * _percentile(r["algebra_seconds"], q) for r in reps)
        notes["algebra_tail_is"] = "p%d of %d algebras per repeat" % (q, n)
    return metrics, notes


def _per_layer(untraced: dict, traced: dict) -> tuple:
    spans = traced["spans"]
    counts = traced["counts"]
    metrics = {}
    for name in TIMED_EVERYWHERE:
        row = spans.get(name, {"self_s": 0.0, "total_s": 0.0})
        metrics[name + ".self_s"] = (row["self_s"], "s")
        metrics[name + ".total_s"] = (row["total_s"], "s")
    for _, _, name in tracer.SPANS:
        metrics[name + ".calls"] = (spans.get(name, {}).get("calls", 0), "count")
    for name in KERNEL_COUNTS:
        metrics[name + ".calls"] = (counts.get(name, 0), "count")
    scanned = counts.get("enumeration.subspaces_scanned", 0)
    found = counts.get("enumeration.subalgebras_found", 0)
    metrics["enumeration.subspaces_scanned"] = (scanned, "count")
    metrics["enumeration.subalgebras_found"] = (found, "count")
    metrics["enumeration.subalgebra_yield"] = (found / scanned if scanned else 0.0, "ratio")
    metrics["algebra.interned"] = (traced["algebra"]["interned"], "count")
    metrics["algebra.cache_entries"] = (traced["algebra"]["cache_entries"], "count")
    for key in ("algebras", "maximals", "normalisers"):
        metrics["work." + key] = (traced["work"][key], "count")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / untraced["wall_s"] - 1.0, "frac")
    # a single-process workload has one worker, busy for the whole workload
    busy = traced["worker_busy_s"] or [traced["wall_s"]]
    metrics["sweep.worker_busy_max_s"] = (max(busy), "s")
    metrics["sweep.worker_busy_max_over_mean"] = (max(busy) / statistics.mean(busy), "ratio")
    return metrics, {"worker_busy_s": busy}


def _span_table(spans: dict) -> list:
    lines = ["%-40s %10s %10s %10s" % ("span", "calls", "total_s", "self_s")]
    for name, row in sorted(spans.items(), key=lambda item: -item[1]["self_s"]):
        lines.append("%-40s %10d %10.4f %10.4f" % (name, row["calls"], row["total_s"], row["self_s"]))
    return lines


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    _load_lieform()
    inputs = workloads.generate(args.workload, args.seed)
    input_digest = workloads.digest({k: v for k, v in inputs.items() if k != "threads"})
    env = _environment(args.workload, args.seed, inputs)
    checker = Checker(args.workload, args.seed, input_digest, args.record_pins)

    workdir = os.path.join(BENCH_DIR, ".work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        child = Child(args.workload, inputs_path, workdir, deadline)
        record = {"environment": env, "input_digest": input_digest}
        if args.trace:
            untraced = child("run")
            traced = child("trace")
            for rep in (untraced, traced):
                checker.rep(rep)
            if traced["work"] != untraced["work"]:
                checker.problems.append(
                    "traced work counts %s differ from untraced %s" % (traced["work"], untraced["work"])
                )
            metrics, notes = _per_layer(untraced, traced)
            os.makedirs(RESULTS, exist_ok=True)
            stem = os.path.join(RESULTS, "%s-seed%d-trace" % (args.workload, args.seed))
            shutil.move(traced["spans_path"], stem + ".spans.json")
            record["spans"] = traced["spans"]
            reps = [untraced, traced]
            lines = _span_table(traced["spans"])
        else:
            setups = [child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
            reps = []
            started = time.monotonic()
            while True:
                rep = child("run")
                checker.rep(rep)
                reps.append(rep)
                setups.append(rep["setup_s"])
                if time.monotonic() - started + rep["process_s"] > args.seconds:
                    break
            metrics, notes = _end_to_end(reps, setups)
            if "refused" in reps[0]:
                notes["refused_algebras"] = reps[0]["refused"]
            lines = []
        pin_status = checker.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    notes["failed_frac"] = failed / attempted
    record.update(
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        notes=notes,
        pin=pin_status,
        problems=checker.problems,
        repeats=[{k: v for k, v in r.items() if k != "spans"} for r in reps],
    )
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("environment: %s" % json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-44s %14s %s" % (name, value if isinstance(value, int) else "%.6f" % value, unit))
    for name, value in sorted(notes.items()):
        print("%-44s %s" % (name, "%.6f" % value if isinstance(value, float) else value))
    print("pinned outputs: %s; problems: %s" % (pin_status, "; ".join(checker.problems) or "none"))
    return {
        "correct": checker.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-pins", action="store_true",
        help="store this seed's input and output digests in pins.json instead of checking them",
    )
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
