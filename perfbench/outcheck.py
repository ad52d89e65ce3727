"""Check one hk-lab invocation's output against the committed reference.

A reference file (``reference/<workload>.json``) holds, for each workload
seed, the verdict and best constant of every check, recorded at the commit
that defined the benchmark, plus rules that hold for every seed:

* ``expected_exit``: the CLI's exit code;
* ``rtol``/``atol``: best constants must agree within
  ``|got - want| <= atol + rtol * |want|``;
* ``limits``: residual-type witnesses (identity and invariant residuals,
  FK/Nash and truncation margins) checked against the pass tolerance the
  program uses, ``["<=", tol]`` or ``[">=", -tol]``, not by equality.  A third
  element ``"optional"`` lets a later version of the program stop reporting
  the witness;
* ``residual_best``: checks whose best constant is one of those residuals,
  and so is not compared by equality.

An exact method that shrinks a residual therefore still passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SUMMARY = "summary.json"
CX_REPORT = "counterexample_report.json"


def extract(kind: str, out_dir: Path) -> dict[str, dict]:
    """Verdict, best constant and witness of every check an invocation wrote."""
    if kind == "run":
        summary = json.loads((out_dir / SUMMARY).read_text())
        return {c["name"]: {"verdict": c["verdict"], "best_constant": c["best_constant"],
                            "witness": c["witness"]} for c in summary["checks"]}
    bundle = json.loads((out_dir / CX_REPORT).read_text())
    checks = {name: {"verdict": rep["verdict"], "best_constant": rep["best_constant"],
                     "witness": rep["witness"]}
              for name, rep in bundle["condition_reports"].items()}
    diag = bundle["diagnostic_series"]
    checks["due_violation_diagnostic"] = {"verdict": diag["verdict"],
                                          "best_constant": diag.get("trend_slope"),
                                          "witness": {}}
    checks["exponents"] = {"verdict": "algebra", "best_constant": bundle["exponents"]["gap"],
                           "witness": bundle["exponents"]}
    return checks


def _number(value):
    """Reports write infinities and NaN as the strings "inf", "-inf", "nan"."""
    return float(value) if value in ("inf", "-inf", "nan") else value


def _close(got, want, rtol: float, atol: float) -> bool:
    got, want = _number(got), _number(want)
    if want is None or got is None:
        return got is want
    if not (math.isfinite(want) and math.isfinite(got)):
        return got == want
    return abs(got - want) <= atol + rtol * abs(want)


def _within(value, op: str, limit: float) -> bool:
    value = _number(value)
    if not isinstance(value, (int, float)) or math.isnan(value):
        return False
    return value <= limit if op == "<=" else value >= limit


def problems(reference: dict, case: str, exit_code: int, out_dir: Path,
             kind: str) -> list[str]:
    """Every way the invocation's exit code and outputs differ from the reference."""
    if exit_code != reference["expected_exit"]:
        return [f"exit code {exit_code}, expected {reference['expected_exit']}"]
    try:
        got = extract(kind, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    want = reference["cases"][case]
    found = []
    for name in sorted(set(got) ^ set(want)):
        found.append(f"{name}: check {'missing' if name in want else 'not expected'}")
    for name in sorted(set(got) & set(want)):
        g, w = got[name], want[name]
        if g["verdict"] != w["verdict"]:
            found.append(f"{name}: verdict {g['verdict']!r}, expected {w['verdict']!r}")
        if name not in reference["residual_best"] and not _close(
                g["best_constant"], w["best_constant"], reference["rtol"], reference["atol"]):
            found.append(f"{name}: best constant {g['best_constant']!r}, "
                         f"expected {w['best_constant']!r}")
        for key, (op, limit, *flags) in reference["limits"].get(name, {}).items():
            if key not in g["witness"]:
                if "optional" not in flags:
                    found.append(f"{name}: witness {key} missing")
            elif not _within(g["witness"][key], op, limit):
                found.append(f"{name}: {key} = {g['witness'][key]!r}, must be {op} {limit!r}")
    return found
