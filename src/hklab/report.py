"""Condition reports and their JSON/CSV serialization.

Every checker returns a :class:`ConditionReport`: the named inequality, the
parameters it ran with, the best fitted constant, the worst witness, and a
verdict.  ``passed`` is ``None`` for diagnostic-mode checks, which never fail
a run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any


@dataclass
class ConditionReport:
    condition: str
    params: dict[str, Any] = field(default_factory=dict)
    best_constant: float | None = None
    witness: dict[str, Any] = field(default_factory=dict)
    passed: bool | None = None
    notes: list[str] = field(default_factory=list)
    series: list[dict[str, Any]] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "diagnostic"
        return "pass" if self.passed else "fail"

    def note(self, msg: str) -> None:
        self.notes.append(msg)

    def to_dict(self) -> dict[str, Any]:
        return {
            "condition": self.condition,
            "params": _jsonable(self.params),
            "best_constant": _jsonable(self.best_constant),
            "witness": _jsonable(self.witness),
            "pass": self.passed,
            "verdict": self.verdict,
            "notes": list(self.notes),
            "series": _jsonable(self.series),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

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
    """Make numpy scalars/arrays and infinities JSON-safe, deterministically."""
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
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()
