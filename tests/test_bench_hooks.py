"""The benchmark's tracer wraps lieform functions by name; keep them there.

bench/tracer.py is loaded by path, never imported as a package, and its
tables are only read: this test asserts that every (module, attribute)
it installs a span or counter on still resolves, so renaming or folding
one of those functions fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("lieform_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    tracer = _load_tracer()
    hooks = [(module, path) for module, path, _ in tracer.SPANS + tracer.COUNTED]
    # installed outside the tables: the scanned-subspace counter
    hooks.append(("linalg", "enumerate_subspaces"))
    return hooks


@pytest.mark.parametrize("module_name, path", _hooks())
def test_tracer_hook_resolves(module_name, path):
    owner = importlib.import_module("lieform." + module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_rref_is_looked_up_as_a_module_global():
    # the rref counter only counts calls made through the linalg global
    linalg = importlib.import_module("lieform.linalg")
    for fn in (linalg.Subspace.span, linalg.null_space):
        assert "rref" in fn.__code__.co_names


def test_interning_state_read_by_tracer():
    from lieform.algebra import LieAlgebra
    from lieform.enumeration import enumerate_subalgebras
    from support import r2

    a = r2()
    assert a in LieAlgebra._interned.values()
    enumerate_subalgebras(a)
    assert "all_subalgebras" in a._cache


def test_in_process_sweep_does_not_enter_the_worker(monkeypatch):
    # the tracer wraps sweep._worker as a forked worker that dumps and resets
    # its recorder on return, so an in-process sweep must not run through it
    from lieform import SweepConfig, sweep

    def forked_only(args):
        raise AssertionError("sweep._worker entered in-process")

    monkeypatch.setattr(sweep, "_worker", forked_only)
    assert sweep.sweep_run(SweepConfig(field="GF(2)", max_dim=3), threads=1).ok
