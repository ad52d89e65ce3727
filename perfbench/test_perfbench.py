"""Tests of the benchmark's own code: self-time arithmetic, output check, names."""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import outcheck
import trace_layers

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_on_synthetic_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("form.assemble", 1.0, 5.0, 0),
        ("kernel.JumpKernel.matrix", 2.0, 3.0, 1),
        ("form.sample_balls", 6.0, 7.0, 0),        # no metric: counts toward cli
        ("semigroup.te_check", 7.0, 9.0, 0),
        ("form.part_on", 7.5, 8.0, 4),
        ("scale.phi", 8.25, 8.5, 4),               # no metric: counts toward te
    ]
    assert trace_layers.self_times(spans) == [3.0, 3.0, 1.0, 1.0, 1.25, 0.5, 0.25]
    m = trace_layers.layer_metrics({"spans": spans, "counts": {"space.FiniteMMSpace.ball": 7},
                                    "eigh_work": 123})
    assert m["cli.self_s"] == 4.0
    assert m["form.assemble_s"] == 3.0
    assert m["kernel.matrix_s"] == 1.0
    assert m["semigroup.te_s"] == 1.5
    assert m["form.part_on_s"] == 0.5
    assert m["semigroup.meyer_s"] == 0.0
    assert sum(m[k] for k in trace_layers.TIME_METRICS) == 10.0
    assert (m["form.assemble_calls"], m["form.part_on_calls"], m["space.ball_calls"],
            m["space.dist_from_calls"], m["form.eigh_work"]) == (1, 1, 7, 0, 123)


def _passing_output(reference, case, out_dir):
    """A summary.json that matches the reference case, residuals at their limits."""
    checks = []
    for name, want in reference["cases"][case].items():
        witness = {key: limit for key, (op, limit, *_) in reference["limits"].get(name, {}).items()}
        checks.append({"name": name, "mode": "pass", "verdict": want["verdict"],
                       "best_constant": want["best_constant"], "witness": witness})
    _write(out_dir, checks)
    return checks


def _write(out_dir, checks):
    (out_dir / "summary.json").write_text(json.dumps({"checks": checks}))


@pytest.fixture
def sweep_reference():
    return json.loads((BENCH_DIR / "reference" / "sweep_256.json").read_text())


def test_output_check_accepts_reference_and_flags_tampering(sweep_reference, tmp_path):
    ref = sweep_reference
    checks = _passing_output(ref, "0", tmp_path)
    assert outcheck.problems(ref, "0", 0, tmp_path, "run") == []

    assert outcheck.problems(ref, "0", 1, tmp_path, "run") == ["exit code 1, expected 0"]

    tampered = copy.deepcopy(checks)
    lre = next(c for c in tampered if c["name"] == "lre_check")
    lre["best_constant"] *= 1.001
    _write(tmp_path, tampered)
    assert [p.split(":")[0] for p in outcheck.problems(ref, "0", 0, tmp_path, "run")] == \
        ["lre_check"]

    tampered = copy.deepcopy(checks)
    tampered[0]["verdict"] = "fail"
    _write(tmp_path, tampered)
    assert outcheck.problems(ref, "0", 0, tmp_path, "run")

    _write(tmp_path, checks[1:])
    assert outcheck.problems(ref, "0", 0, tmp_path, "run") == \
        [f"{checks[0]['name']}: check missing"]


def test_output_check_judges_residuals_by_tolerance(sweep_reference, tmp_path):
    ref = sweep_reference
    checks = _passing_output(ref, "0", tmp_path)
    meyer = next(c for c in checks if c["name"] == "meyer_check")

    # an exact method: smaller residual, different best constant, no quadrature
    meyer["best_constant"] = meyer["witness"]["identity_residual"] = 1e-15
    del meyer["witness"]["quadrature_residual"]
    _write(tmp_path, checks)
    assert outcheck.problems(ref, "0", 0, tmp_path, "run") == []

    meyer["witness"]["identity_residual"] = 2e-6
    _write(tmp_path, checks)
    assert outcheck.problems(ref, "0", 0, tmp_path, "run") == \
        ["meyer_check: identity_residual = 2e-06, must be <= 1e-06"]

    meyer["witness"]["identity_residual"] = 0.0
    del meyer["witness"]["lower_margin"]
    _write(tmp_path, checks)
    assert outcheck.problems(ref, "0", 0, tmp_path, "run") == \
        ["meyer_check: witness lower_margin missing"]


def test_metric_names_and_benchmark_file():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    traced = {*trace_layers.TIME_METRICS, *trace_layers.count_metric_names(),
              "report.bytes", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == traced
    assert {m["name"] for m in bench["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}


SMALL_RUN = {"space": {"kind": "cantor", "xi": 1 / 3, "n": 1, "level": 4},
             "scale": {"kind": "constant", "beta": 0.8, "T0": 1.0},
             "kernel": {"kind": "cantor_axis"},
             "checks": [{"name": "se_check"}, {"name": "tj_check", "mode": "diagnostic"}]}
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS="1")


def _small_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_RUN))
    return cfg


def test_setup_probe_stops_after_the_clis_own_assemble(tmp_path):
    cases = [(["run", "--config", str(_small_config(tmp_path)), "--seed", "3"], 16),
             (["counterexample", "report", "--epsilon", "4", "--levels", "2", "--axes", "2"], 16)]
    for args, atoms in cases:
        out = tmp_path / f"out_{args[0]}"
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), *args,
                               "--out", str(out)], env=ENV, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == [str(atoms)]
        assert not out.exists()  # stopped before the CLI wrote anything


def test_traced_counts_repeat_and_reach_by_name_imports(tmp_path):
    cfg = _small_config(tmp_path)
    runs = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.json"
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans),
                               "run", "--config", str(cfg), "--out", str(tmp_path / f"o{i}")],
                              env=ENV, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(trace_layers.layer_metrics(json.loads(spans.read_text())))
    counts = trace_layers.count_metric_names()
    assert [runs[0][n] for n in counts] == [runs[1][n] for n in counts]
    # se_check reaches part_on through semigroup's by-name import
    assert runs[0]["form.part_on_calls"] > 0 and runs[0]["semigroup.se_s"] > 0
    assert runs[0]["form.assemble_calls"] == 1 and runs[0]["space.dist_from_calls"] > 0
