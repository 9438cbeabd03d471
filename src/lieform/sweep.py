"""Exhaustive verification sweeps over enumerated soluble algebras.

A sweep replays, for every algebra in a deterministic enumeration stream
and every requested formation: the classification of all maximal
subalgebras (both defining criteria must agree), the computation of the
normalisers with both intravariance checks on each, and the cover-avoid
report for each normaliser against a chief series.

Failures are collected as plain dicts with enough data to replay the
check from the command line, never raised, so one bad algebra cannot
mask later ones; any other exception a check raises, such as a refused
budget, becomes a check-error record.  Worker processes split the stream
by index stride, each building only its own algebras of the top
dimension, and the merged outcome is sorted canonically, making the
result independent of the process count.

Resident memory does not grow with the top level of the stream.  A sweep
keeps interned, with their caches, the algebras below --max-dim (the
parents of the next level) and the subquotients its checks built; each
algebra of dimension --max-dim is never a parent or a subquotient of a
later one, so it is released as soon as it has been checked.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dataclass_field
from multiprocessing import get_context
from typing import Iterable, Optional, Sequence

from .algebra import LieAlgebra
from .derivations import (
    derivation_matrix_strings,
    extension_defect,
    is_intravariant_linear,
)
from .enumeration import EnumerationBudget, check_stream, enumerate_soluble
from .errors import CriteriaDisagreeError, NoCriticalDescentError, ParseError
from .fields import Field, quote
from .formations import (
    Formation,
    classify_maximal,
    cover_avoid_check,
    f_normalisers,
    formation_by_name,
    maximal_subalgebras,
)
from .report import basis_strings, fingerprint


@dataclass(frozen=True)
class SweepConfig:
    """Plain-data sweep description; everything here survives pickling."""

    field: str = "GF(2)"
    max_dim: int = 3
    formations: Sequence[str] = ("nilpotent", "all-soluble")
    per_step_cap: Optional[int] = None
    seed: int = 0

    def budget(self) -> EnumerationBudget:
        return EnumerationBudget(
            max_dim=self.max_dim,
            field=Field.from_string(self.field),
            per_step_cap=self.per_step_cap,
            seed=self.seed,
        )

    def formation_objects(self) -> list:
        return [formation_by_name(name) for name in self.formations]


# Failure kinds in precedence order: the SweepResult list that holds them,
# their title in text output and the CLI's exit code for the first kind
# present.  check_errors is listed in output only when it holds a record,
# so a sweep whose checks all ran keeps its pinned output.
FAILURE_KINDS = (
    ("intravariance_failures", "intravariance failure", 3),
    ("cover_avoid_failures", "cover-avoid failure", 4),
    ("criteria_disagreements", "criteria disagreement", 5),
    ("descent_failures", "descent failure", 6),
    ("check_errors", "check error", 7),
)


@dataclass
class SweepResult:
    """Counts plus replayable failure records from one sweep."""

    algebras: int = 0
    maximals_classified: int = 0
    normalisers_checked: int = 0
    intravariance_failures: list = dataclass_field(default_factory=list)
    cover_avoid_failures: list = dataclass_field(default_factory=list)
    criteria_disagreements: list = dataclass_field(default_factory=list)
    descent_failures: list = dataclass_field(default_factory=list)
    check_errors: list = dataclass_field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not any(getattr(self, attr) for attr, *_ in FAILURE_KINDS)

    def listed_kinds(self) -> list:
        """The FAILURE_KINDS rows that output lists: check_errors only when it holds a record."""
        return [kind for kind in FAILURE_KINDS if kind[0] != "check_errors" or self.check_errors]

    def merge(self, other: "SweepResult") -> None:
        self.algebras += other.algebras
        self.maximals_classified += other.maximals_classified
        self.normalisers_checked += other.normalisers_checked
        for attr, *_ in FAILURE_KINDS:
            getattr(self, attr).extend(getattr(other, attr))

    def sort(self) -> None:
        def key(record):
            return (
                record.get("fingerprint", ""),
                record.get("formation", ""),
                str(record.get("subalgebra", "")),
                str(record.get("maximal", "")),
            )

        for attr, *_ in FAILURE_KINDS:
            getattr(self, attr).sort(key=key)

    def to_dict(self) -> dict:
        # elapsed time is deliberately left out: serialised sweep output
        # must be byte-identical across runs with the same flags and seed
        data = {
            "algebras": self.algebras,
            "maximals_classified": self.maximals_classified,
            "normalisers_checked": self.normalisers_checked,
            "ok": self.ok,
        }
        data.update((attr, getattr(self, attr)) for attr, *_ in self.listed_kinds())
        return data


def _base_record(algebra: LieAlgebra, formation: Formation) -> dict:
    return {
        "fingerprint": fingerprint(algebra),
        "algebra": algebra.to_dict(),
        "formation": formation.name,
    }


def check_algebra(algebra: LieAlgebra, formations: Iterable[Formation]) -> SweepResult:
    """Run every sweep check on one algebra; failures become records.

    Any other exception ends that formation's checks and becomes a
    check-error record naming the exception's class and message.
    """
    result = SweepResult(algebras=1)
    for formation in formations:
        try:
            _check_formation(algebra, formation, result)
        except Exception as exc:
            record = _base_record(algebra, formation)
            record["detail"] = "%s: %s" % (type(exc).__name__, exc)
            result.check_errors.append(record)
    return result


def _check_formation(algebra: LieAlgebra, formation: Formation, result: SweepResult) -> None:
    """Every sweep check of one formation on one algebra, its failures added to result."""
    recorded = len(result.criteria_disagreements)
    for maximal in maximal_subalgebras(algebra):
        try:
            classify_maximal(algebra, maximal, formation)
            result.maximals_classified += 1
        except CriteriaDisagreeError as exc:
            record = _base_record(algebra, formation)
            record["maximal"] = basis_strings(maximal)
            record["detail"] = str(exc)
            result.criteria_disagreements.append(record)

    try:
        normalisers = f_normalisers(algebra, formation)
    except NoCriticalDescentError as exc:
        record = _base_record(algebra, formation)
        record["detail"] = str(exc)
        result.descent_failures.append(record)
        return
    except CriteriaDisagreeError as exc:
        # the descent also classifies the maximals of restricted algebras,
        # which the pass above does not reach
        if len(result.criteria_disagreements) == recorded:
            record = _base_record(algebra, formation)
            record["detail"] = "in the normaliser descent: %s" % exc
            result.criteria_disagreements.append(record)
        return

    for subspace, chain in normalisers:
        result.normalisers_checked += 1
        linear_ok = is_intravariant_linear(algebra, subspace)
        defect = extension_defect(algebra, subspace)
        if not linear_ok or defect is not None:
            record = _base_record(algebra, formation)
            record["subalgebra"] = basis_strings(subspace)
            record["chain"] = [
                basis_strings(step) for step in chain
            ]
            record["linear_ok"] = linear_ok
            record["extension_ok"] = defect is None
            if defect is not None:
                record["derivation"] = derivation_matrix_strings(defect)
            result.intravariance_failures.append(record)

        report = cover_avoid_check(algebra, subspace, formation)
        if not report.ok:
            record = _base_record(algebra, formation)
            record["subalgebra"] = basis_strings(subspace)
            record["violations"] = [
                {
                    "factor_dims": [entry.factor.bottom.dim, entry.factor.top.dim],
                    "central": entry.central,
                    "covered": entry.covered,
                    "avoided": entry.avoided,
                }
                for entry in report.violations()
            ]
            result.cover_avoid_failures.append(record)


def _check_stream(config: SweepConfig, index: int = 0, stride: int = 1) -> SweepResult:
    """Check the stream positions congruent to index mod stride.

    The stream builds no algebra of dimension max_dim at another position,
    and each one it yields is released once checked.
    """
    formations = config.formation_objects()
    partial = SweepResult()
    for algebra in enumerate_soluble(config.budget(), index, stride):
        partial.merge(check_algebra(algebra, formations))
        if algebra.dim == config.max_dim:
            algebra.release()
    return partial


def _worker(args) -> SweepResult:
    # the entry of a forked worker only: the benchmark's tracer wraps it
    # as one, so the in-process sweep calls _check_stream directly
    return _check_stream(*args)


def _threads_from_env() -> int:
    """LIEFORM_THREADS as a process count, at most the number of cores."""
    text = os.environ.get("LIEFORM_THREADS", "").strip() or "1"
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise ParseError("LIEFORM_THREADS must be a positive integer, got %s" % quote(text))
    return min(count, os.cpu_count() or 1)


def sweep_run(config: SweepConfig, threads: int = 0) -> SweepResult:
    """Sweep the configured enumeration stream.

    threads <= 0 reads LIEFORM_THREADS; a count of 1 runs in-process,
    otherwise worker processes partition the stream by index stride.
    Either way the merged result is sorted, so output bytes do not depend
    on the process count.
    """
    # an over-large stream is refused before any algebra is checked; the
    # levels below --max-dim that this builds stay interned for the walk
    # (and forked workers inherit them)
    check_stream(config.budget())
    if threads <= 0:
        threads = _threads_from_env()
    started = time.perf_counter()
    result = SweepResult()
    if threads <= 1:
        result.merge(_check_stream(config))
    else:
        context = get_context("fork")
        jobs = [(config, index, threads) for index in range(threads)]
        with context.Pool(processes=threads) as pool:
            for partial in pool.map(_worker, jobs):
                result.merge(partial)
    result.sort()
    result.elapsed = time.perf_counter() - started
    return result


def sweep_summary_lines(result: SweepResult) -> list:
    """Fixed-format text block for the CLI."""
    return (
        [
            "algebras checked: %d" % result.algebras,
            "maximal subalgebras classified: %d" % result.maximals_classified,
            "normalisers checked: %d" % result.normalisers_checked,
        ]
        + ["%ss: %d" % (title, len(getattr(result, attr))) for attr, title, _ in result.listed_kinds()]
        + ["result: %s" % ("ok" if result.ok else "FAIL")]
    )
