"""One measured process: set up, run one workload once, report as JSON.

    python bench/child.py MODE WORKLOAD INPUTS WORKDIR

MODE is ``setup`` (stop once the inputs are parsed), ``run`` (untraced) or
``trace`` (spans and counters on).  Set-up is interpreter start, importing
lieform from the checkout's ``src`` and, for the closed-loop workloads,
parsing and Jacobi-validating the input algebras.  The process prints the
monotonic clock at the end of set-up and, after the workload, one JSON
line with its timings, output digest, work counts and failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402  (bench modules only; lieform comes from PYTHONPATH)
from tracer import Recorder, aggregate, instrument, intern_stats, merge_worker_files  # noqa: E402


def _sweep(inputs: dict, recorder: Recorder, worker_dir: str) -> dict:
    from lieform import cli

    os.environ["LIEFORM_THREADS"] = str(inputs["threads"])
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(inputs["argv"])
    output = buffer.getvalue().encode()
    result = {"exit": code, "output_digest": workloads.digest(output)}
    result["records"] = merge_worker_files(recorder, worker_dir)
    try:
        data = json.loads(output)
    except ValueError:
        data = None
    result["summary"] = data and {key: data[key] for key in ("algebras", "ok")}
    if data is None:
        result.update(attempted=1, failed=1, work={})
        return result
    failures = set()
    for key in ("intravariance_failures", "cover_avoid_failures", "criteria_disagreements", "descent_failures"):
        failures.update(record["fingerprint"] for record in data[key])
    result["attempted"] = max(1, data["algebras"])
    result["failed"] = len(failures) or (0 if code == 0 else result["attempted"])
    result["work"] = {
        "algebras": data["algebras"],
        "maximals": data["maximals_classified"],
        "normalisers": data["normalisers_checked"],
    }
    return result


def _normalisers(algebras: list) -> dict:
    from lieform import formations
    from lieform.report import basis_strings

    wanted = (formations.NILPOTENT, formations.SUPERSOLUBLE)
    outputs, seconds, failed = [], [], 0
    for algebra in algebras:
        started = time.perf_counter()
        entry = {}
        for formation in wanted:
            try:
                pairs = formations.f_normalisers(algebra, formation)
            except Exception:  # every failure is counted and reported
                failed += 1
                entry[formation.name] = {"error": traceback.format_exc(limit=2)}
                continue
            entry[formation.name] = sorted(basis_strings(v) for v, _ in pairs)
        seconds.append(time.perf_counter() - started)
        outputs.append(entry)
    return {"outputs": outputs, "algebra_seconds": seconds, "attempted": len(algebras) * len(wanted), "failed": failed}


def _analyze(algebras: list) -> dict:
    from lieform import derivations, formations, report

    everything = [formations.FORMATIONS[name] for name in sorted(formations.FORMATIONS)]
    outputs, seconds, failed = [], [], 0
    for algebra in algebras:
        started = time.perf_counter()
        try:
            text = report.AnalysisReport(algebra, everything).to_json()
            criteria = {}
            for label, space in (("derived", algebra.derived_subalgebra()), ("centre", algebra.centre())):
                criteria[label] = [
                    derivations.is_intravariant_linear(algebra, space),
                    derivations.is_intravariant_extension(algebra, space),
                ]
            entry = {"report": text, "criteria": criteria}
        except Exception:  # every failure is counted and reported
            failed += 1
            entry = {"error": traceback.format_exc(limit=2)}
        seconds.append(time.perf_counter() - started)
        outputs.append(entry)
    return {"outputs": outputs, "algebra_seconds": seconds, "attempted": len(algebras), "failed": failed}


def _check_normalisers(algebras: list, outputs: list) -> dict:
    """Each normaliser is a subalgebra lying in its formation."""
    from lieform import formations
    from lieform.linalg import Subspace

    problems, maximals, count = [], 0, 0
    for index, (algebra, entry) in enumerate(zip(algebras, outputs)):
        maximals += len(formations.maximal_subalgebras(algebra))
        for name, bases in entry.items():
            if not isinstance(bases, list) or not bases:
                problems.append("algebra %d, %s: no normalisers" % (index, name))
                continue
            count += len(bases)
            for rows in bases:
                parsed = [tuple(algebra.field.parse(x) for x in row) for row in rows]
                space = Subspace.span(algebra.field, algebra.dim, parsed)
                if not algebra.is_subalgebra(space):
                    problems.append("algebra %d, %s: normaliser is not a subalgebra" % (index, name))
                    continue
                sub, _ = algebra.restrict(space)
                if not formations.FORMATIONS[name].contains(sub):
                    problems.append("algebra %d, %s: normaliser outside the formation" % (index, name))
    return {"problems": problems, "work": {"algebras": len(algebras), "maximals": maximals, "normalisers": count}}


def _check_analyses(algebras: list, outputs: list) -> dict:
    """The two intravariance criteria agree wherever both were evaluated."""
    problems, maximals, count, refused = [], 0, 0, 0
    for index, entry in enumerate(outputs):
        if "error" in entry:
            continue
        data = json.loads(entry["report"])
        if "skipped" in data.get("chief_series", {}):
            refused += 1
        verdicts = list(entry["criteria"].values())
        for section in data.get("formations", {}).values():
            maximals += len(section.get("maximal_subalgebras", []))
            for normaliser in section.get("normalisers", []):
                count += 1
                verdicts.append([normaliser["intravariant_linear"], normaliser["intravariant_extension"]])
        if any(linear != extension for linear, extension in verdicts):
            problems.append("algebra %d: intravariance criteria disagree" % index)
    work = {"algebras": len(algebras), "maximals": maximals, "normalisers": count}
    return {"problems": problems, "work": work, "refused": refused}


def main(argv: list) -> int:
    mode, workload, inputs_path, worker_dir = argv
    import lieform
    import lieform.cli  # noqa: F401  (the sweep's entry point is part of set-up)

    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    algebras = [lieform.LieAlgebra.from_dict(data) for data in inputs.get("algebras", [])]
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready, "lieform_file": lieform.__file__}))
        return 0

    recorder = Recorder("%s/%d" % (workload, os.getpid()))
    if mode == "trace":
        instrument(recorder, worker_dir)
    started = time.perf_counter()
    if algebras:
        run = _normalisers if workload == "normalisers-gf3-d5" else _analyze
        result = run(algebras)
        result["output_digest"] = workloads.digest(result["outputs"])
        result["exit"] = 0
    else:
        result = _sweep(inputs, recorder, worker_dir)
    result["wall_s"] = time.perf_counter() - started

    if algebras:
        check = _check_normalisers if workload == "normalisers-gf3-d5" else _check_analyses
        result.update(check(algebras, result.pop("outputs")))
        result["records"] = [recorder.dump()]
    records = result.pop("records")
    records[0]["algebra"] = intern_stats()
    result["ready"] = ready
    result["lieform_file"] = lieform.__file__
    if mode == "trace":
        result["spans"] = aggregate(records)
        counts = {}
        for record in records:
            for name, value in record["counts"].items():
                counts[name] = counts.get(name, 0) + value
        result["counts"] = counts
        result["worker_busy_s"] = [
            sum(end - start for name, start, end, _, outermost in record["spans"] if name == "sweep.worker" and outermost)
            for record in records[1:]
        ]
        result["algebra"] = {
            key: sum(record["algebra"][key] for record in records) for key in ("interned", "cache_entries")
        }
        spans_path = os.path.join(worker_dir, "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        result["spans_path"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
