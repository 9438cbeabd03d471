"""Structured analysis of one algebra, serialisable as JSON or text.

Everything in the report is deterministic: subspaces print their canonical
bases, listings are sorted, and the fingerprint is a digest of the
canonical JSON form of the algebra.
"""

from __future__ import annotations

import hashlib
import json

from .algebra import LieAlgebra
from .chief import chief_series
from .derivations import derivation_algebra, inner_derivations, is_intravariant_extension, is_intravariant_linear
from .errors import BudgetExceededError, UnsupportedFieldError
from .formations import (
    Formation,
    classify_maximal,
    cover_avoid_check,
    f_normalisers,
    maximal_subalgebras,
)
from .linalg import Subspace


def fingerprint(algebra: LieAlgebra) -> str:
    digest = hashlib.sha256(algebra.to_json().encode()).hexdigest()[:12]
    return "%s/dim%d/%s" % (algebra.field, algebra.dim, digest)


def basis_strings(space: Subspace) -> list:
    fmt = space.field.format
    return [[fmt(x) for x in row] for row in space.basis]


class AnalysisReport:
    """Series data, chief structure, derivations, and per-formation results.

    Enumeration-backed sections (maximal subalgebras, normalisers) need a
    finite field; over Q they are skipped and flagged, everything else is
    still produced.
    """

    def __init__(self, algebra: LieAlgebra, formations: list):
        self.algebra = algebra
        self.formations = formations
        self.data = self._build()

    def _build(self) -> dict:
        algebra = self.algebra
        data = {
            "fingerprint": fingerprint(algebra),
            "field": str(algebra.field),
            "dim": algebra.dim,
            "derived_series_dims": [s.dim for s in algebra.derived_series()],
            "lower_central_series_dims": [s.dim for s in algebra.lower_central_series()],
            "soluble": algebra.is_soluble(),
            "nilpotent": algebra.is_nilpotent(),
        }
        if not data["soluble"]:
            data["note"] = "algebra is not soluble; structural analysis stops here"
            return data
        try:
            series = chief_series(algebra)
            data["chief_series"] = {
                "ideal_dims": [s.dim for s in series.ideals],
                "factors": [
                    {
                        "top": basis_strings(f.top),
                        "bottom": basis_strings(f.bottom),
                        "dim": f.dim,
                    }
                    for f in series.factors
                ],
            }
            data["nilradical"] = basis_strings(algebra.nilradical())
        except UnsupportedFieldError as exc:
            data["chief_series"] = {"skipped": str(exc)}
            series = None
        der = derivation_algebra(algebra)
        data["derivations"] = {
            "dim": der.dim,
            "inner_dim": inner_derivations(algebra).dim,
        }
        data["formations"] = {}
        for formation in self.formations:
            data["formations"][formation.name] = self._formation_section(formation, series)
        return data

    def _formation_section(self, formation: Formation, series) -> dict:
        algebra = self.algebra
        section = {"member": formation.contains(algebra)}
        if algebra.field.p is None and not section["member"]:
            section["skipped"] = "maximal-subalgebra enumeration needs a finite field"
            return section
        try:
            if algebra.field.p is not None:
                maximals = []
                for m in maximal_subalgebras(algebra):
                    cls = classify_maximal(algebra, m, formation)
                    maximals.append(
                        {
                            "basis": basis_strings(m),
                            "verdict": "f-normal" if cls.is_normal else "f-abnormal",
                            "witness_factor_dim": cls.witness.dim if cls.witness else None,
                        }
                    )
                section["maximal_subalgebras"] = maximals
            normalisers = []
            for v, chain in f_normalisers(algebra, formation):
                entry = {
                    "basis": basis_strings(v),
                    "chain": [basis_strings(c) for c in chain],
                    "intravariant_linear": is_intravariant_linear(algebra, v),
                    "intravariant_extension": is_intravariant_extension(algebra, v),
                }
                if series is not None:
                    entry["cover_avoid_ok"] = cover_avoid_check(algebra, v, formation).ok
                normalisers.append(entry)
            section["normalisers"] = normalisers
        except BudgetExceededError as exc:
            section["skipped"] = str(exc)
        return section

    def to_dict(self) -> dict:
        return self.data

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2)

    def to_text(self) -> str:
        d = self.data
        lines = []
        lines.append("algebra %s" % d["fingerprint"])
        lines.append("  field %s, dim %d" % (d["field"], d["dim"]))
        lines.append("  derived series dims: %s" % " > ".join(str(x) for x in d["derived_series_dims"]))
        lines.append(
            "  lower central series dims: %s" % " > ".join(str(x) for x in d["lower_central_series_dims"])
        )
        lines.append("  soluble: %s, nilpotent: %s" % (d["soluble"], d["nilpotent"]))
        if not d["soluble"]:
            lines.append("  %s" % d["note"])
            return "\n".join(lines) + "\n"
        chief = d["chief_series"]
        if "skipped" in chief:
            lines.append("  chief series: skipped (%s)" % chief["skipped"])
        else:
            lines.append("  chief series ideal dims: %s" % " < ".join(str(x) for x in chief["ideal_dims"]))
            for idx, f in enumerate(chief["factors"], 1):
                lines.append("    factor %d: dim %d" % (idx, f["dim"]))
            lines.append("  nilradical basis: %s" % rows_text(d["nilradical"]))
        lines.append(
            "  derivations: dim %d, inner dim %d"
            % (d["derivations"]["dim"], d["derivations"]["inner_dim"])
        )
        for name in sorted(d["formations"]):
            section = d["formations"][name]
            lines.append("  formation %s:" % name)
            lines.append("    member: %s" % section["member"])
            if "skipped" in section:
                lines.append("    skipped: %s" % section["skipped"])
                continue
            for m in section.get("maximal_subalgebras", []):
                lines.append("    maximal %s: %s" % (rows_text(m["basis"]), m["verdict"]))
            for v in section["normalisers"]:
                cover = ""
                if "cover_avoid_ok" in v:
                    cover = ", cover/avoid ok=%s" % v["cover_avoid_ok"]
                lines.append(
                    "    normaliser %s: intravariant linear=%s extension=%s%s"
                    % (
                        rows_text(v["basis"]),
                        v["intravariant_linear"],
                        v["intravariant_extension"],
                        cover,
                    )
                )
                lines.append(
                    "      chain: %s" % " > ".join(rows_text(c) for c in v["chain"])
                )
        return "\n".join(lines) + "\n"


def rows_text(rows: list) -> str:
    """A basis as basis_strings gives it, in text form: {0} or span{a,b; c,d}."""
    if not rows:
        return "{0}"
    return "span{%s}" % "; ".join(",".join(r) for r in rows)
