"""Condition reports and their JSON/CSV serialization.

Every checker returns a :class:`ConditionReport`: the named inequality, the
parameters it ran with, the best fitted constant, the worst witness, and the
gates of its verdict, each one comparison made by :func:`gate`.  The verdict
is read from the gates alone: a report without one is a diagnostic, whose
``passed`` is ``None``, and any other passes iff every gate holds.

Every sweep takes its best constant and witness from :func:`best_of`, and
each atom it reports in a row from :func:`extremum`, the one tie rule.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

_TIE_RTOL = 1e-12           # entries this close, relative, to the extremum tie with it
# how far below 0 rounding may take the margin of an inequality that holds exactly
MARGIN_TOL = 1e-9
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def gate(name: str, value: Any, op: str, bound: float) -> dict[str, Any]:
    """One comparison of a verdict, ``value op bound``, and whether it holds;
    a None or NaN value never does."""
    holds = value is not None and _OPS[op](value, bound)      # NaN compares False
    return {"name": name, "value": value, "op": op, "bound": bound, "holds": bool(holds)}


@dataclass
class ConditionReport:
    condition: str
    params: dict[str, Any] = field(default_factory=dict)
    best_constant: float | None = None
    witness: dict[str, Any] = field(default_factory=dict)
    gates: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    series: list[dict[str, Any]] = field(default_factory=list)

    @property
    def passed(self) -> bool | None:
        """None without a gate (a diagnostic), else whether every gate holds."""
        return all(g["holds"] for g in self.gates) if self.gates else None

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "diagnostic"
        return "pass" if self.passed else "fail"

    def note(self, msg: str) -> None:
        self.notes.append(msg)

    def to_dict(self) -> dict[str, Any]:
        return _jsonable(self)

    def to_json(self) -> str:
        return canonical_json(self)

    def to_csv(self) -> str:
        """One row per witness in ``series``; header from the union of keys."""
        rows = self.series if self.series else [self.witness or {}]
        keys = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["condition", "verdict", *keys])
        for row in rows:
            writer.writerow(
                [self.condition, self.verdict]
                + [_csv_cell(row.get(k)) for k in keys]
            )
        return buf.getvalue()


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))                      # np.float64 reprs as np.float64(...)
    return str(value)


def _jsonable(value: Any) -> Any:
    """Make reports, numpy scalars/arrays and infinities JSON-safe,
    deterministically, in one pass."""
    if isinstance(value, ConditionReport):
        value = {"condition": value.condition, "params": value.params,
                 "best_constant": value.best_constant, "witness": value.witness,
                 "gates": value.gates, "pass": value.passed, "verdict": value.verdict,
                 "notes": value.notes, "series": value.series}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    if not isinstance(value, (str, int, float, bool, type(None))):
        return str(value)
    return value


def canonical_json(obj: Any) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    import hashlib      # here, not at the top: it loads OpenSSL, which no check reads

    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def gate_rows(report: ConditionReport, key: str) -> ConditionReport:
    """``report`` with the gates "rows", that it has a row, and "finite
    rows", that every row's ``key`` is finite, and a note counting the rows
    that are not: :func:`extremum` passes NaN over, so the best constant of a
    sweep that is NaN everywhere is that of a zero one."""
    rows = len(report.series)
    finite = sum(math.isfinite(row[key]) for row in report.series)
    report.gates += [gate("rows", rows, ">", 0), gate("finite rows", finite, ">=", rows)]
    if finite < rows:
        report.note(f"{rows - finite} of {rows} rows have a non-finite {key}")
    return report


def extremum(values: Sequence[float | None] | np.ndarray, lowest: bool = False) -> int | None:
    """The first index whose value ties with the largest (``lowest``: the
    smallest) candidate within ``_TIE_RTOL`` relative; None without one.

    Candidates are the values above 0, or with ``lowest`` below inf; NaN and
    None are never one.  An infinite extremum ties only with itself.
    """
    vals = np.asarray(values, dtype=float)
    candidate = vals < np.inf if lowest else vals > 0
    if not candidate.any():
        return None
    top = vals[candidate].min() if lowest else vals[candidate].max()
    slack = 0.0 if math.isinf(top) else _TIE_RTOL * abs(top)    # inf - inf is NaN
    return int(np.argmax(vals <= top + slack if lowest else vals >= top - slack))


def best_of(series: Sequence[dict[str, Any]], key: str, keys: Iterable[str],
            lowest: bool = False) -> tuple[float, dict[str, Any]]:
    """The best constant and witness of a sweep: the ``key`` of the
    :func:`extremum` row of ``series`` and that row's ``keys``, so every field
    is read at the witness; (0.0, {}), or (inf, {}) with ``lowest``, when no
    row is a candidate."""
    i = extremum([row[key] for row in series], lowest)
    if i is None:
        return (math.inf if lowest else 0.0), {}
    return series[i][key], {k: series[i][k] for k in keys}
