"""The benchmark's workloads: seeded inputs and the calls that are measured.

Inputs are made here, in the benchmark's own process, from the seed alone.
The measured child process (child.py) receives only the generated inputs:
the sweep's command line, or a JSON list of algebras it parses and
Jacobi-validates as part of its set-up.

Why each workload exists:

- sweep-gf2-d4: the acceptance gate's biggest universe (767 algebras), run
  through ``lieform.cli.main`` exactly as a user runs the sweep.  The
  extension intravariance criterion and maximal classification dominate
  it, so it is the mechanism workload for kernel and criterion work.
- sweep-gf2-d4-2p: the same sweep with two worker processes; the only
  workload that runs the sweep's process partitioning.  Its stdout bytes
  must equal those of the single-process sweep.
- normalisers-gf3-d5: distinct random dimension-5 algebras over GF(3), one
  caller asking for the nilpotent and supersoluble normalisers of one
  algebra at a time.  Subalgebra enumeration and the normaliser recursion
  dominate and no derivation code runs, so it is the bypass workload for
  extension-criterion work.
- analyze-q: random dimension-5 algebras over Q, a full analysis report
  plus both intravariance criteria on the derived subalgebra and the
  centre.  The only workload on Fraction arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

SWEEP_ARGV = ["sweep", "--field", "GF(2)", "--max-dim", "4", "--cap", "200", "--json"]

# closed-loop workloads: (field, dimension, distinct algebras, coefficient range)
CLOSED_LOOP = {
    "normalisers-gf3-d5": ("GF(3)", 5, 40, None),
    "analyze-q": ("Q", 5, 30, (-2, 2)),
}

WORKLOADS = ("sweep-gf2-d4", "sweep-gf2-d4-2p") + tuple(CLOSED_LOOP)


def digest(data) -> str:
    """sha256 of bytes, or of the canonical JSON form of plain data."""
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def sweep_threads(workload: str) -> int:
    return min(2, os.cpu_count() or 1) if workload.endswith("-2p") else 1


def _grow(field, dim: int, rng: random.Random, coefficient):
    """Grow from the line by random split extensions along derivations."""
    from lieform.algebra import LieAlgebra
    from lieform.chief import split_extension_by_derivation
    from lieform.derivations import derivation_algebra

    algebra = LieAlgebra.abelian(field, 1)
    while algebra.dim < dim:
        der = derivation_algebra(algebra)
        n = algebra.dim
        acc = [[field.zero()] * n for _ in range(n)]
        for d in der.basis:
            c = field.from_int(coefficient(rng))
            if c:
                for r in range(n):
                    for k in range(n):
                        acc[r][k] = field.add(acc[r][k], field.mul(c, d.matrix.rows[r][k]))
        algebra = split_extension_by_derivation(algebra, acc)
    return algebra


def generate(workload: str, seed: int) -> dict:
    """Inputs for one run: the same seed always gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    if workload.startswith("sweep"):
        return {"argv": SWEEP_ARGV + ["--seed", str(seed)], "threads": sweep_threads(workload)}

    from lieform.fields import Field

    field_name, dim, count, bounds = CLOSED_LOOP[workload]
    field = Field.from_string(field_name)
    rng = random.Random("%s:%d" % (workload, seed))
    if bounds is None:
        coefficient = lambda r: r.randrange(field.p)  # noqa: E731
    else:
        coefficient = lambda r: r.randint(*bounds)  # noqa: E731
    algebras = {}
    while len(algebras) < count:
        algebra = _grow(field, dim, rng, coefficient)
        algebras.setdefault(algebra.to_json(), algebra.to_dict())
    return {"algebras": list(algebras.values())}
