"""Spans and counters recorded from outside the program.

Public functions of the ``lieform`` modules are wrapped where their callers
look them up: every module attribute (or class attribute) that holds the
original function is replaced by the wrapper, so nested spans follow the
real call path.  No file of the program is edited.

Spans stay in memory as (name, start, end, parent, run id) and are written
out once, at the end.  A layer's self time is its span minus its direct
children; its total counts only spans that are not nested inside a span of
the same name, so recursion is not counted twice.

Forked sweep workers inherit the wrapped functions; each one writes its own
spans and counters to a file when its share of the sweep returns, and the
measured process merges those files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

# (module, attribute path, span name).  Kernels with hundreds of thousands
# of calls get counts only: timing each call would distort the run.
SPANS = (
    ("cli", "main", "cli.main"),
    ("sweep", "sweep_run", "sweep.sweep_run"),
    ("sweep", "_worker", "sweep.worker"),
    ("sweep", "check_algebra", "sweep.check_algebra"),
    ("enumeration", "enumerate_soluble", "enumeration.enumerate_soluble"),
    ("enumeration", "enumerate_subalgebras", "enumeration.enumerate_subalgebras"),
    ("enumeration", "enumerate_ideals", "enumeration.enumerate_ideals"),
    ("formations", "maximal_subalgebras", "formations.maximal_subalgebras"),
    ("formations", "classify_maximal", "formations.classify_maximal"),
    ("formations", "is_f_central", "formations.is_f_central"),
    ("formations", "f_normalisers", "formations.f_normalisers"),
    ("formations", "cover_avoid_check", "formations.cover_avoid_check"),
    ("derivations", "derivation_algebra", "derivations.derivation_algebra"),
    ("derivations", "is_intravariant_linear", "derivations.is_intravariant_linear"),
    ("derivations", "extension_defect", "derivations.extension_defect"),
    ("chief", "chief_series", "chief.chief_series"),
    ("chief", "split_extension_by_derivation", "chief.split_extension_by_derivation"),
    ("algebra", "LieAlgebra.restrict", "algebra.restrict"),
    ("algebra", "LieAlgebra.quotient", "algebra.quotient"),
    ("algebra", "LieAlgebra.core", "algebra.core"),
    ("report", "AnalysisReport.__init__", "report.AnalysisReport"),
)

COUNTED = (
    ("algebra", "LieAlgebra.bracket", "algebra.bracket"),
    ("algebra", "LieAlgebra.centralizer_of_factor", "algebra.centralizer_of_factor"),
    ("linalg", "rref", "linalg.rref"),
)


class Recorder:
    """Spans and counters of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, parent index, outermost of its name]
        self.stack = []
        self.open_names = Counter()
        self.counts = Counter()

    def reset(self) -> None:
        """Empty every record in place; the wrappers hold references to them."""
        self.pid = os.getpid()
        self.spans.clear()
        self.stack.clear()
        self.open_names.clear()
        self.counts.clear()

    def forked(self) -> None:
        """Drop what a forked worker inherited from its parent."""
        if os.getpid() != self.pid:
            self.reset()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.open_names[name] == 0])
        self.open_names[name] += 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.open_names[span[0]] -= 1
        self.stack.pop()

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "pid": self.pid,
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def _lookup(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _install(module_name: str, path: str, make_wrapper) -> None:
    """Replace a function everywhere the program looks it up."""
    module = importlib.import_module("lieform." + module_name)
    owner, attr = _lookup(module, path)
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(owner, attr, type(raw)(make_wrapper(raw.__func__)))
        return
    if owner is not module:
        setattr(owner, attr, make_wrapper(raw))
        return
    wrapper = make_wrapper(raw)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "lieform" or name.startswith("lieform.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is raw:
                setattr(loaded, key, wrapper)


def _span(recorder: Recorder, name: str):
    def make(fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = recorder.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(index)
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        return wrapper

    return make


def _count(recorder: Recorder, name: str):
    counts = recorder.counts

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    return make


def _count_yields(recorder: Recorder, name: str):
    counts = recorder.counts

    def make(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return generator

    return make


def _count_found(recorder: Recorder, name: str):
    """Length of each result that was computed rather than read from cache."""
    counts = recorder.counts

    def make(fn):
        @functools.wraps(fn)
        def wrapper(algebra):
            miss = "all_subalgebras" not in algebra._cache
            result = fn(algebra)
            if miss:
                counts[name] += len(result)
            return result

        return wrapper

    return make


def _dump_after_worker(recorder: Recorder, directory: str):
    """Each forked sweep worker writes what it recorded when its share ends."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.forked()
            try:
                return fn(*args, **kwargs)
            finally:
                path = os.path.join(directory, "worker-%d-%d.json" % (os.getpid(), time.perf_counter_ns()))
                record = recorder.dump()
                record["algebra"] = intern_stats()
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(record, fh)
                recorder.reset()

        return wrapper

    return make


def instrument(recorder: Recorder, worker_dir: str) -> None:
    """Install every counter and span; the worker dump sits outside the worker's span."""
    for module, path, name in COUNTED:
        _install(module, path, _count(recorder, name))
    _install("linalg", "enumerate_subspaces", _count_yields(recorder, "enumeration.subspaces_scanned"))
    _install("enumeration", "enumerate_subalgebras", _count_found(recorder, "enumeration.subalgebras_found"))
    for module, path, name in SPANS:
        _install(module, path, _span(recorder, name))
    _install("sweep", "_worker", _dump_after_worker(recorder, worker_dir))


def intern_stats() -> dict:
    """Interned algebras and their cached entries resident in this process."""
    from lieform.algebra import LieAlgebra

    interned = LieAlgebra._interned.values()
    return {"interned": len(interned), "cache_entries": sum(len(a._cache) for a in interned)}


def merge_worker_files(recorder: Recorder, directory: str) -> list:
    """This process's record followed by every worker's, as plain dicts."""
    records = [recorder.dump()]
    for name in sorted(os.listdir(directory)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                records.append(json.load(fh))
    return records


def aggregate(records: list) -> dict:
    """calls, total_s and self_s per span name, over every process."""
    table = {}
    for record in records:
        spans = record["spans"]
        child_seconds = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        for index, (name, start, end, parent, outermost) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_seconds[index]
            if outermost:
                row["total_s"] += end - start
    return table
