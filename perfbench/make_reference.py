#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

Usage, from the root of the repository:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs the CLI once per workload seed (seeded workloads) or once (fixed
inputs) and writes ``perfbench/reference/<workload>.json``.  The references
are recorded at the commit that defines the benchmark; a change that claims a
gain is checked against them and does not rewrite them.
"""

from __future__ import annotations

import json
import shutil
import sys

import outcheck
from run import BENCH_DIR, OUT_DIR, REFERENCE_SEEDS, WORKLOADS, Workload, spawn

RTOL = 1e-6
ATOL = 1e-12

# Pass tolerances of the residual-type witnesses, as the checkers apply them.
LIMITS = {
    "conservativeness_check": {"max_defect": ["<=", 1e-9]},
    "heat_kernel_invariants": {"symmetry": ["<=", 1e-10], "mass": ["<=", 1e-10],
                               "chapman_kolmogorov": ["<=", 1e-8],
                               "negativity": ["<=", 1e-10]},
    "meyer_check": {"identity_residual": ["<=", 1e-6], "upper_margin": [">=", -1e-6],
                    "lower_margin": [">=", -1e-6],
                    "quadrature_residual": ["<=", 1e-6, "optional"]},
    "fk_nash_consistency": {"forward_margin": [">=", -1e-9],
                            "backward_margin": [">=", -1e-9]},
    "truncation_l2_check": {"margin": [">=", -1e-9]},
    "truncation_semigroup_check": {"worst_margin": [">=", -1e-9]},
    "due_check": {"sqrt_product_residual": ["<=", 1e-10]},
}
RESIDUAL_BEST = ("conservativeness_check", "heat_kernel_invariants", "meyer_check",
                 "fk_nash_consistency", "truncation_semigroup_check")


def record(wl: Workload) -> dict:
    work = OUT_DIR / f"reference-{wl.name}"
    work.mkdir(parents=True, exist_ok=True)
    probe = spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                   *wl.argv(wl.workload_case(0), work / "probe")], work / "probe.txt")
    if probe.exit_code != 0:
        raise SystemExit(f"{wl.name}: setup probe exited {probe.exit_code}")
    atoms = int((work / "probe.txt").read_text().split()[-1])
    cases = [str(s) for s in range(REFERENCE_SEEDS)] if wl.kind == "run" else ["fixed"]
    ref = {"workload": wl.name, "expected_exit": 0, "atoms": atoms,
           "rtol": RTOL, "atol": ATOL, "limits": {}, "residual_best": [], "cases": {}}
    for case in cases:
        out = work / case
        res = spawn([sys.executable, "-m", "hklab.cli", *wl.argv(case, out)], work / "log.txt")
        if res.exit_code != ref["expected_exit"]:
            raise SystemExit(f"{wl.name} case {case}: exit {res.exit_code}")
        checks = outcheck.extract(wl.kind, out)
        ref["cases"][case] = {name: {"verdict": c["verdict"], "best_constant": c["best_constant"]}
                              for name, c in checks.items()}
        names = set(checks)
    ref["limits"] = {name: dict(LIMITS[name]) for name in sorted(names & set(LIMITS))}
    if "heat_kernel_invariants" in names:
        # uniform weights 1/N on a Cantor product: the t=0 tolerance 1e-8 max(1/w)
        ref["limits"]["heat_kernel_invariants"]["t0_identity"] = ["<=", 1e-8 * atoms]
    ref["residual_best"] = sorted(names & set(RESIDUAL_BEST))
    for case in cases:
        found = outcheck.problems(ref, case, 0, work / case, wl.kind)
        if found:
            raise SystemExit(f"{wl.name} case {case} fails its own reference: {found}")
    shutil.rmtree(work)
    return ref


def dump(ref: dict) -> str:
    """Indented JSON with one line per case."""
    rules = {k: v for k, v in ref.items() if k != "cases"}
    cases = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                        for k, v in sorted(ref["cases"].items()))
    return json.dumps(rules, indent=1, sort_keys=True)[:-2] + ',\n "cases": {\n' + cases + "\n }\n}\n"


def main() -> int:
    names = sys.argv[1:] or list(WORKLOADS)
    (BENCH_DIR / "reference").mkdir(exist_ok=True)
    for name in names:
        ref = record(WORKLOADS[name])
        path = BENCH_DIR / "reference" / f"{name}.json"
        path.write_text(dump(ref))
        print(f"{path}: {len(ref['cases'])} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
