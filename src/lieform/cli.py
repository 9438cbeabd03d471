"""Batch command-line front end.

Exit codes distinguish outcome classes so scripts can branch on them:

    0  success; every checked property holds
    1  invalid input or unavailable operation (Jacobi failure, subspace
       not closed, unsupported field, enumeration budget, bad chain)
    2  unreadable, undecodable or unparseable input, bad flags
    3  an intravariance check failed
    4  a cover-avoid check failed
    5  the two maximal-subalgebra criteria disagreed
    6  critical descent stalled outside the formation
    7  a sweep check raised an error, recorded and passed over
  141  standard output was closed early (a broken pipe, e.g. `| head`);
       128 + SIGPIPE, the status a shell reports for a writer killed by it

When several failure kinds occur in one sweep the exit code reports the
smallest number above, i.e. intravariance failures take precedence.

Failure records printed by sweeps are JSON objects that check-intravariance
accepts as input files, so every reported counterexample can be replayed.
Output is byte-deterministic for fixed inputs, flags, and seed; the
LIEFORM_THREADS environment variable (a positive integer, capped at the
core count) parallelises sweeps without changing a byte of output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .algebra import LieAlgebra
from .derivations import (
    derivation_algebra,
    derivation_from_strings,
    derivation_matrix_strings,
    extension_defect,
    inner_derivations,
    is_intravariant_linear,
    normalizer_fills_extension,
)
from .errors import (
    BudgetExceededError,
    CriteriaDisagreeError,
    JacobiViolationError,
    LieformError,
    NoCriticalDescentError,
    NotASubalgebraError,
    ParseError,
    UnsupportedFieldError,
)
from .fields import Field, quote
from .formations import (
    FORMATIONS,
    f_normalisers,
    formation_by_name,
    is_f_critical,
    maximal_subalgebras,
)
from .linalg import Subspace
from .report import AnalysisReport, basis_strings, fingerprint, rows_text
from .sweep import FAILURE_KINDS, SweepConfig, sweep_run, sweep_summary_lines

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_BROKEN_PIPE = 141
# codes 3-7, one per failure kind, are held in sweep.FAILURE_KINDS
KIND_EXITS = {attr: code for attr, _, code in FAILURE_KINDS}


def _read_json(path: str):
    """The JSON document in a UTF-8 file; undecodable contents are a ParseError."""
    # ValueError covers bad UTF-8, malformed JSON and integer literals over
    # Python's digit limit
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise ParseError("invalid JSON in %s: %s" % (path, exc)) from exc


def _load_algebra(path: str, validate: bool = True):
    """(algebra, surrounding dump or None); accepts plain files and dumps."""
    data = _read_json(path)
    dump = None
    if isinstance(data, dict) and "algebra" in data:
        dump = data
        data = data["algebra"]
    return LieAlgebra.from_dict(data, validate=validate), dump


def _subspace_from_spec(field: Field, dim: int, spec: str) -> Subspace:
    """Inline basis: rows split on ';', entries on ','; '0' is the zero space."""
    if spec.strip() == "0":
        return Subspace.zero_space(field, dim)
    rows = []
    for chunk in spec.split(";"):
        entries = [e.strip() for e in chunk.split(",")]
        if len(entries) != dim:
            raise ParseError(
                "basis row %s must have %d entries" % (quote(chunk.strip()), dim)
            )
        rows.append(tuple(field.parse(e) for e in entries))
    return Subspace.span(field, dim, rows)


def _subspace_from_rows(field: Field, dim: int, rows) -> Subspace:
    """Basis from JSON: a list of rows, each a list of scalar strings."""
    if not isinstance(rows, list):
        raise ParseError("basis must be a JSON list of rows")
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError("each basis row must be a list of %d scalar strings" % dim)
        parsed.append(tuple(field.parse(e) for e in row))
    return Subspace.span(field, dim, parsed)


def _emit(args, payload: dict, lines: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_validate(args) -> int:
    algebra, _ = _load_algebra(args.file, validate=False)
    try:
        algebra.validate()
    except JacobiViolationError as exc:
        _emit(
            args,
            {"ok": False, "error": str(exc), "triple": list(exc.triple)},
            ["invalid: %s" % exc],
        )
        return EXIT_INVALID
    payload = {
        "ok": True,
        "fingerprint": fingerprint(algebra),
        "field": str(algebra.field),
        "dim": algebra.dim,
    }
    _emit(args, payload, ["ok: %s" % payload["fingerprint"]])
    return EXIT_OK


def _analysis_exit(data: dict) -> int:
    worst = EXIT_OK
    for section in data.get("formations", {}).values():
        for entry in section.get("normalisers", []):
            if not (entry["intravariant_linear"] and entry["intravariant_extension"]):
                return KIND_EXITS["intravariance_failures"]
            if entry.get("cover_avoid_ok") is False:
                worst = KIND_EXITS["cover_avoid_failures"]
    return worst


def cmd_analyze(args) -> int:
    algebra, _ = _load_algebra(args.file)
    names = args.formation or list(FORMATIONS)
    formations = [formation_by_name(n) for n in names]
    report = AnalysisReport(algebra, formations)
    _emit(args, report.to_dict(), [report.to_text()])
    return _analysis_exit(report.to_dict())


def cmd_normalisers(args) -> int:
    algebra, _ = _load_algebra(args.file)
    formation = formation_by_name(args.formation)
    pairs = f_normalisers(algebra, formation)
    payload = {
        "fingerprint": fingerprint(algebra),
        "formation": formation.name,
        "normalisers": [
            {
                "basis": basis_strings(v),
                "dim": v.dim,
                "chain": [basis_strings(step) for step in chain],
            }
            for v, chain in pairs
        ],
    }
    lines = [
        "algebra %s" % payload["fingerprint"],
        "formation %s: %d normaliser(s)" % (formation.name, len(pairs)),
    ]
    for v, chain in pairs:
        lines.append(
            "  dim %d %s via chain %s"
            % (v.dim, rows_text(basis_strings(v)), " > ".join(str(s.dim) for s in chain))
        )
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_derivations(args) -> int:
    algebra, _ = _load_algebra(args.file)
    der = derivation_algebra(algebra)
    inner = inner_derivations(algebra)
    payload = {
        "fingerprint": fingerprint(algebra),
        "dim": der.dim,
        "inner_dim": inner.dim,
        "basis": [derivation_matrix_strings(d) for d in der.basis],
    }
    lines = [
        "algebra %s" % payload["fingerprint"],
        "derivation algebra dim %d, inner dim %d" % (der.dim, inner.dim),
    ]
    for index, matrix in enumerate(payload["basis"]):
        lines.append("  d%d: %s" % (index + 1, " / ".join(",".join(r) for r in matrix)))
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_check_intravariance(args) -> int:
    algebra, dump = _load_algebra(args.file)
    if args.subalgebra is not None:
        sub = _subspace_from_spec(algebra.field, algebra.dim, args.subalgebra)
    elif dump is not None and "subalgebra" in dump:
        sub = _subspace_from_rows(algebra.field, algebra.dim, dump["subalgebra"])
    else:
        raise ParseError(
            "no subalgebra given: pass --subalgebra or a failure-record file"
        )
    if not algebra.is_subalgebra(sub):
        raise NotASubalgebraError("the given subspace is not closed under the bracket")

    payload = {
        "fingerprint": fingerprint(algebra),
        "subalgebra": basis_strings(sub),
        "dim": sub.dim,
    }
    lines = [
        "algebra %s" % payload["fingerprint"],
        "subalgebra %s" % rows_text(payload["subalgebra"]),
    ]
    ok = True
    if args.method in ("linear", "both"):
        verdict = is_intravariant_linear(algebra, sub)
        payload["linear"] = verdict
        lines.append("linear criterion: %s" % ("intravariant" if verdict else "FAILS"))
        ok = ok and verdict
    if args.method in ("extension", "both"):
        defect = extension_defect(algebra, sub)
        payload["extension"] = defect is None
        lines.append(
            "extension criterion: %s" % ("intravariant" if defect is None else "FAILS")
        )
        if defect is not None:
            payload["derivation"] = derivation_matrix_strings(defect)
            lines.append(
                "  failing derivation: %s"
                % " / ".join(",".join(r) for r in payload["derivation"])
            )
        ok = ok and defect is None
    if dump is not None and "derivation" in dump:
        d = derivation_from_strings(algebra, dump["derivation"])
        reproduced = not normalizer_fills_extension(algebra, sub, d)
        payload["reported_derivation_fails"] = reproduced
        lines.append(
            "reported derivation reproduces the failure: %s"
            % ("yes" if reproduced else "no")
        )
    _emit(args, payload, lines)
    return EXIT_OK if ok else KIND_EXITS["intravariance_failures"]


def _chain_failure(args, steps, reason: str) -> int:
    payload = {"ok": False, "reason": reason, "steps": steps}
    _emit(args, payload, ["chain does not verify: %s" % reason])
    return EXIT_INVALID


def cmd_verify_chain(args) -> int:
    algebra, _ = _load_algebra(args.file)
    formation = formation_by_name(args.formation)
    data = _read_json(args.chainfile)
    if not isinstance(data, list) or not data:
        raise ParseError("chain file must be a non-empty JSON list of bases")
    chain = [_subspace_from_rows(algebra.field, algebra.dim, rows) for rows in data]

    steps = []
    if not chain[0].is_full():
        return _chain_failure(args, steps, "chain must start at the full algebra")
    current = algebra
    maps = []
    for idx in range(1, len(chain)):
        if not (chain[idx] < chain[idx - 1]):
            return _chain_failure(
                args, steps, "step %d is not strictly contained in step %d" % (idx, idx - 1)
            )
        local = chain[idx]
        try:
            for m in maps:
                local = m.project_subspace(local)
        except LieformError as exc:
            return _chain_failure(args, steps, "step %d: %s" % (idx, exc))
        if not current.is_subalgebra(local):
            return _chain_failure(args, steps, "step %d is not a subalgebra" % idx)
        codim = current.dim - local.dim
        if codim == 1:
            certified = True
        else:
            try:
                certified = any(local == m for m in maximal_subalgebras(current))
            except (UnsupportedFieldError, BudgetExceededError):
                # codim >= 2 without an enumerable ambient: maximality is
                # taken on trust and flagged, the remaining checks still run
                certified = None
            if certified is False:
                return _chain_failure(args, steps, "step %d is not maximal" % idx)
        try:
            critical = is_f_critical(current, local, formation)
        except (CriteriaDisagreeError, UnsupportedFieldError, NoCriticalDescentError) as exc:
            return _chain_failure(args, steps, "step %d: %s" % (idx, exc))
        if not critical:
            return _chain_failure(args, steps, "step %d is not critical" % idx)
        steps.append(
            {
                "index": idx,
                "codim": codim,
                "maximality_certified": certified,
                "critical": True,
            }
        )
        current, new_map = current.restrict(local)
        maps.append(new_map)

    if not formation.contains(current):
        return _chain_failure(
            args, steps, "terminal subalgebra is not in the formation"
        )
    uncertified = [s["index"] for s in steps if s["maximality_certified"] is None]
    payload = {
        "ok": True,
        "steps": steps,
        "terminal_dim": current.dim,
        "uncertified_steps": uncertified,
    }
    lines = ["chain verifies: %d step(s), terminal dim %d" % (len(steps), current.dim)]
    for s in steps:
        note = {True: "certified", None: "not certified (codim %d)" % s["codim"]}[
            s["maximality_certified"]
        ]
        lines.append("  step %d: critical maximal, maximality %s" % (s["index"], note))
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = SweepConfig(
        field=args.field,
        max_dim=args.max_dim,
        formations=tuple(args.formation or ("nilpotent", "all-soluble")),
        per_step_cap=args.cap,
        seed=args.seed,
    )
    result = sweep_run(config)
    lines = sweep_summary_lines(result)
    for attr, title, _ in FAILURE_KINDS:
        for record in getattr(result, attr):
            lines.append("%s: %s" % (title, json.dumps(record, sort_keys=True)))
    _emit(args, result.to_dict(), lines)
    for attr, _, code in FAILURE_KINDS:
        if getattr(result, attr):
            return code
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieform",
        description="Exact-arithmetic structure analysis of soluble Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "parse a structure-constant file and check the Jacobi identity")
    p.add_argument("file")

    p = add("analyze", cmd_analyze, "full structural report for one algebra")
    p.add_argument("file")
    p.add_argument(
        "--formation",
        action="append",
        choices=sorted(FORMATIONS),
        help="restrict to one formation (repeatable; default: all)",
    )

    p = add("normalisers", cmd_normalisers, "normalisers with their critical chains")
    p.add_argument("file")
    p.add_argument("--formation", required=True, choices=sorted(FORMATIONS))

    p = add("derivations", cmd_derivations, "derivation algebra basis and dimensions")
    p.add_argument("file")

    p = add(
        "check-intravariance",
        cmd_check_intravariance,
        "test one subalgebra; accepts sweep failure records as input",
    )
    p.add_argument("file")
    p.add_argument(
        "--subalgebra",
        help="inline basis, rows separated by ';', entries by ',' (e.g. '1,0;0,1'); '0' for the zero space",
    )
    p.add_argument("--method", choices=("linear", "extension", "both"), default="both")

    p = add("verify-chain", cmd_verify_chain, "check a descending chain of critical maximal subalgebras")
    p.add_argument("file")
    p.add_argument("chainfile")
    p.add_argument("--formation", required=True, choices=sorted(FORMATIONS))

    p = add("sweep", cmd_sweep, "enumerate algebras and verify every property on each")
    p.add_argument("--field", default="GF(2)", help="prime field, e.g. 'GF(2)'")
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument(
        "--formation",
        action="append",
        choices=sorted(FORMATIONS),
        help="formation to sweep (repeatable; default: nilpotent and all-soluble)",
    )
    p.add_argument("--cap", type=int, default=None, help="max extensions kept per parent algebra")
    p.add_argument("--seed", type=int, default=0, help="seed for capped sampling")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early: point stdout at os.devnull, so the exit-time
        # flush raises nothing; a stdout without a file descriptor stays as is
        try:
            stdout_fd = sys.stdout.fileno()
        except (AttributeError, ValueError):
            return EXIT_BROKEN_PIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout_fd)
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except CriteriaDisagreeError as exc:
        print("criteria disagree: %s" % exc, file=sys.stderr)
        return KIND_EXITS["criteria_disagreements"]
    except NoCriticalDescentError as exc:
        print("no critical descent: %s" % exc, file=sys.stderr)
        return KIND_EXITS["descent_failures"]
    except LieformError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
