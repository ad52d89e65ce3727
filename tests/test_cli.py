import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hklab
from hklab import cli
from hklab.report import ConditionReport

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def child_env():
    """The environment with the directory this hklab was imported from first
    on PYTHONPATH, so that a child interpreter imports the same package."""
    src = str(Path(hklab.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

SMOKE_CONFIG = {
    "space": {"kind": "two_point"},
    "scale": {"kind": "constant", "beta": 1.0, "T0": "inf"},
    "kernel": {"kind": "uniform", "value": 1.0},
    "checks": [
        {"name": "heat_kernel_invariants", "mode": "pass",
         "params": {"times": [0.01, 0.1, 1.0, 10.0]}},
        {"name": "conservativeness_check", "mode": "pass"},
        {"name": "truncation_l2_check", "mode": "pass", "params": {"rho": 0.5}},
        {"name": "due_check", "mode": "diagnostic",
         "params": {"T0": 1.0, "time_grid": [0.1, 0.5, 1.0]}},
    ],
    "output": {"formats": ["json", "csv", "plotdata"]},
    "seed": 7,
}


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_smoke_exit_zero(tmp_path):
    path = write_config(tmp_path, SMOKE_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_pass"] is True
    assert {c["name"] for c in summary["checks"]} == {
        "heat_kernel_invariants", "conservativeness_check",
        "truncation_l2_check", "due_check"}
    assert (out / "report_due_check.csv").exists()
    assert (out / "plotdata_due.csv").read_text().splitlines()[0] == \
        "t,p_diag,due_bound,ratio"


def test_run_unknown_check_exit_2(tmp_path, capsys):
    cfg = dict(SMOKE_CONFIG, checks=[{"name": "foo"}])
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "checks[0].name" in err


def test_run_missing_section_exit_2(tmp_path, capsys):
    cfg = {k: v for k, v in SMOKE_CONFIG.items() if k != "kernel"}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "kernel" in capsys.readouterr().err


def test_run_inapplicable_check_exit_2_with_path(tmp_path, capsys):
    cfg = dict(SMOKE_CONFIG)
    # corner cross-jump sums are only defined on cantor products
    cfg["checks"] = [{"name": "cross_jump_exponent", "mode": "diagnostic"}]
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "checks[0]" in err and "cross_jump_exponent" in err


@pytest.mark.parametrize("domain", [[0, 0, 1], [999]])
def test_run_bad_meyer_domain_exit_2_with_path(tmp_path, capsys, domain):
    cfg = dict(SMOKE_CONFIG)
    cfg["checks"] = [{"name": "meyer_check", "mode": "pass",
                      "params": {"domain": domain}}]
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "checks[0]" in err and "domain" in err


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_committed_config_runs(tmp_path, config):
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


def test_run_point_cap_exit_3(tmp_path):
    cfg = dict(SMOKE_CONFIG)
    cfg["space"] = {"kind": "cantor", "xi": 1 / 3, "n": 2, "level": 7}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("kind", ["uniform", "zero", "cantor_axis"])
def test_run_above_dense_cap_exit_3(tmp_path, capsys, kind):
    # a raised point_cap admits the space, but not its dense eigensolve; no
    # point_cap lifts the dense cap, so the message does not suggest one
    cfg = dict(SMOKE_CONFIG, kernel={"kind": kind},
               space={"kind": "cantor", "xi": 1 / 3, "n": 1, "level": 14,
                      "point_cap": 1 << 14})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "point cap exceeded" in err and "pass point_cap" not in err
    assert "16384 points exceeds the fixed dense-matrix cap of 8192 points" in err


def test_run_deterministic_outputs(tmp_path):
    path = write_config(tmp_path, SMOKE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(path), "--out", str(out2)]) == 0
    for f1 in sorted(out1.iterdir()):
        f2 = out2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_sweep_checks_never_build_the_kernel_matrix(tmp_path, monkeypatch):
    # every check of the benchmark sweep, on a 64-atom product: forms read
    # the kernel in blocks, so a kernel matrix that refuses to be built
    # changes nothing
    sweep = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / "sweep_256.json"
    cfg = dict(json.loads(sweep.read_text()),
               space={"kind": "cantor", "xi": 1 / 3, "n": 2, "level": 3})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0

    def refuse(self):
        raise AssertionError("kernel.matrix() called")

    monkeypatch.setattr(hklab.kernel.JumpKernel, "matrix", refuse)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "summary.json").read_bytes()
            == (tmp_path / "b" / "summary.json").read_bytes())


def test_csv_cells_print_numpy_scalars_as_plain_numbers():
    # np.float64 is a float, whose repr is "np.float64(...)" since numpy 2
    report = ConditionReport(condition="c", witness={"C": np.float64(2.5)},
                             series=[{"C": np.float64(0.1), "x": np.int64(3)}])
    assert report.to_csv() == "condition,verdict,C,x\nc,diagnostic,0.1,3\n"
    report.series = []
    assert report.to_csv() == "condition,verdict,C\nc,diagnostic,2.5\n"


def test_sweep_csv_files_hold_no_numpy_reprs(tmp_path):
    sweep = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / "sweep_256.json"
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(sweep), "--out", str(out)]) == 0
    written = sorted(out.glob("*.csv"))
    assert len(written) == 21 and (out / "plotdata_due.csv") in written
    for path in written:
        text = path.read_text()
        assert "np." not in text and "array(" not in text, path.name


def test_failing_pass_mode_check_fails_run(tmp_path):
    cfg = dict(SMOKE_CONFIG)
    # the two-point space has a positive jump tail, so a tail threshold of 0
    # is a pass-mode check that an honest run cannot meet
    cfg["checks"] = [
        {"name": "tj_check", "mode": "pass", "params": {"threshold": 0.0}}]
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_diagnostic_mode_never_fails_run(tmp_path):
    cfg = dict(SMOKE_CONFIG)
    cfg["checks"] = [
        {"name": "tj_check", "mode": "diagnostic", "params": {"threshold": 0.0}}]
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("level", [9, 10])
def test_te_check_time_grid_skips_the_rounded_zero_eigenvalue(tmp_path, level):
    # A dense eigh leaves the zero eigenvalue anywhere within about
    # eps max |lambda| of 0 (3e-12 at level 10), its sign and size depending
    # on the BLAS build and thread count.  Above the old fixed cut of 1e-12 it
    # was taken for the spectral gap, which scaled the default time grid to
    # t ~ 1e8 and te_check to ~1e-9.
    cfg = {"space": {"kind": "cantor", "xi": 1 / 3, "n": 1, "level": level},
           "scale": {"kind": "constant", "beta": 0.8, "T0": 1.0},
           "kernel": {"kind": "cantor_axis"},
           "checks": [{"name": "te_check", "mode": "diagnostic"}], "seed": 0}
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"][0]["best_constant"] == pytest.approx(1.67, rel=0.01)


def test_list_checks_catalog(capsys):
    assert cli.main(["list-checks"]) == 0
    first = capsys.readouterr().out
    for name in ("due_check", "meyer_check", "fk_family_check"):
        assert name in first
    assert cli.main(["list-checks"]) == 0
    assert capsys.readouterr().out == first      # stable across runs


def test_counterexample_report_bundle(tmp_path):
    assert cli.main(["counterexample", "report", "--epsilon", "4",
                     "--levels", "3", "--axes", "2",
                     "--out", str(tmp_path / "cx")]) == 0
    bundle = json.loads((tmp_path / "cx" / "counterexample_report.json").read_text())
    assert set(bundle) == {"config", "exponents", "condition_reports",
                           "diagnostic_series"}
    assert bundle["exponents"]["gap"] > 0
    assert "not desk-reproducible" in bundle["diagnostic_series"]["regime_note"]
    profile = (tmp_path / "cx" / "counterexample_profile.csv").read_text()
    assert profile.splitlines()[0] == "t,p,r"


@pytest.mark.parametrize("args,code,message", [
    (["--epsilon", "nan"], 2, "epsilon must be a finite positive number"),
    (["--epsilon", "inf"], 2, "epsilon must be a finite positive number"),
    (["--epsilon", "4", "--levels", "8", "--axes", "2"], 3,
     "dense work on 65536 points exceeds the fixed dense-matrix cap of 8192"),
    *[(["--epsilon", eps, "--levels", "2", "--axes", "1"], 2,
       "k > 53, which is 1 in double precision") for eps in ("0.03", "1e-4", "1e-6")],
    (["--epsilon", "1e308", "--levels", "3"], 2, "needs more than 2^52 product axes"),
    (["--epsilon", "0.05", "--levels", "3", "--axes", "1"], 2,
     "puts distinct atoms at one double-precision coordinate"),
    (["--epsilon", "4", "--levels", "1"], 2, "--levels must be in 2..16, got 1"),
    (["--epsilon", "4", "--axes", "0"], 2, "--axes must be at least 1, got 0"),
    (["--epsilon", "4", "--axes", "-1"], 2, "--axes must be at least 1, got -1")],
    ids=["nan_epsilon", "infinite_epsilon", "above_dense_cap", "rung_past_double_3e-2",
         "rung_past_double_1e-4", "rung_past_double_1e-6", "axes_overflow",
         "coincident_cantor_atoms", "level_1_empty_anchor_ball", "no_axes",
         "negative_axes"])
def test_counterexample_report_refuses_at_the_boundary(tmp_path, args, code, message):
    # in a child with a timeout, so that a refusal that never comes fails the test
    out = tmp_path / "cx"
    res = subprocess.run([sys.executable, "-m", "hklab.cli", "counterexample", "report",
                          *args, "--out", str(out)],
                         capture_output=True, text=True, env=child_env(), timeout=30)
    assert res.returncode == code
    assert message in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


def test_counterexample_report_at_the_lowest_level(tmp_path):
    # level 2 is the first at which the anchor ball around corner_e1 holds an atom
    out = tmp_path / "cx"
    assert cli.main(["counterexample", "report", "--epsilon", "4", "--levels", "2",
                     "--out", str(out)]) == 0
    assert (out / "counterexample_report.json").exists()


def test_counterexample_report_finds_a_large_axis_count_at_once(tmp_path):
    # n is about 8e9 at epsilon 1e9: taken from the closed-form bound, not
    # counted up to, so the report is written within the timeout
    out = tmp_path / "cx"
    res = subprocess.run([sys.executable, "-m", "hklab.cli", "counterexample", "report",
                          "--epsilon", "1e9", "--levels", "3", "--out", str(out)],
                         capture_output=True, text=True, env=child_env(), timeout=30)
    assert res.returncode == 0, res.stderr
    config = json.loads((out / "counterexample_report.json").read_text())["config"]
    assert config["n"] > 8e9


def test_console_script_entry_point(tmp_path):
    res = subprocess.run([sys.executable, "-m", "hklab.cli", "list-checks"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0
    assert "tj_check" in res.stdout


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_kernel_value_exit_2(tmp_path, capsys, value):
    # JSON NaN/Infinity parse, so the config boundary must refuse them
    cfg = dict(SMOKE_CONFIG, kernel={"kind": "uniform", "value": value})
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "symmetric" not in err


CANTOR_CFG = {"space": {"kind": "cantor", "xi": 1 / 3, "n": 1, "level": 3},
              "scale": {"kind": "constant", "beta": 0.8, "T0": 1.0},
              "kernel": {"kind": "uniform", "value": 1.0},
              "checks": [{"name": "conservativeness_check", "mode": "pass"}]}
GRID_CFG = dict(CANTOR_CFG, space={"kind": "grid", "d": 1, "side": 4},
                kernel={"kind": "stable_like", "lower_constant": 1.0})
BALLS_CFG = dict(CANTOR_CFG, scale={"kind": "balls", "beta1": 1.0, "beta2": 1.2,
                                    "anchors": [{"center": 0, "radius": 0.5, "value": 1.2}]})
TWO_POINT_CFG = dict(CANTOR_CFG, space={"kind": "two_point", "gap": 1.0})


def custom_space(metric, coords=((0.0,), (1.0,), (2.0,))):
    return {"kind": "custom", "coords": [list(c) for c in coords],
            "weights": [1.0 / len(coords)] * len(coords), "metric_matrix": metric}


def anchored_at(center):
    return {**BALLS_CFG["scale"], "anchors": [{"center": center, "radius": 0.5, "value": 1.2}]}
SCALAR_FIELDS = [
    (CANTOR_CFG, "space", "xi"), (CANTOR_CFG, "space", "n"), (CANTOR_CFG, "space", "level"),
    (CANTOR_CFG, "space", "point_cap"), (CANTOR_CFG, "scale", "beta"),
    (CANTOR_CFG, "kernel", "value"), (GRID_CFG, "space", "d"), (GRID_CFG, "space", "side"),
    (GRID_CFG, "kernel", "lower_constant"), (BALLS_CFG, "scale", "beta1"),
    (BALLS_CFG, "scale", "beta2"), (TWO_POINT_CFG, "space", "gap"),
]


def _not_a_number(text):
    for convert in (float, Fraction):
        try:
            convert(text)
            return False
        except (ValueError, ZeroDivisionError):
            pass
    return True


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(SCALAR_FIELDS),
       bad=st.one_of(st.text(max_size=8).filter(_not_a_number),
                     st.lists(st.integers(), max_size=3), st.none()))
@example(case=SCALAR_FIELDS[0], bad="1/0")
@example(case=SCALAR_FIELDS[0], bad="0/0")
# whole-number fields refuse fractions and booleans instead of truncating them
@example(case=SCALAR_FIELDS[1], bad=1.5)
@example(case=SCALAR_FIELDS[2], bad=2.7)
@example(case=SCALAR_FIELDS[2], bad=True)
@example(case=SCALAR_FIELDS[3], bad=100.5)
@example(case=SCALAR_FIELDS[6], bad=True)
@example(case=SCALAR_FIELDS[7], bad=4.5)
def test_malformed_config_scalar_exits_2_with_path(case, bad):
    base, section, key = case
    cfg = copy.deepcopy(base)
    cfg[section][key] = bad
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code == 2
    assert f"{section}.{key}" in err.getvalue()


@pytest.mark.parametrize("name,grid_key", [("te_check", "time_grid"),
                                           ("vd_fit", "radius_grid"),
                                           ("cs_check", "ball_radii")])
def test_malformed_check_grid_exits_2_with_path(tmp_path, capsys, name, grid_key):
    cfg = dict(CANTOR_CFG, checks=[{"name": name, "mode": "pass",
                                    "params": {grid_key: [0.1, "x"]}}])
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "checks[0]" in err and grid_key in err


# one check that reads each scalar check parameter
CHECK_OF_PARAM = {"gamma": "ij_check", "q": "tjq_check", "kappa": "lre_check",
                  "nu": "fk_nash_consistency", "b": "fk_nash_consistency",
                  "Cprime": "fk_nash_consistency", "delta": "fk_family_check",
                  "rho": "truncation_l2_check", "t": "meyer_check",
                  "eta": "cross_jump_exponent", "T0": "te_check", "k": "due_check"}


@pytest.mark.parametrize("bad", ["abc", [1.0], None], ids=["string", "list", "null"])
@pytest.mark.parametrize("key", sorted(CHECK_OF_PARAM))
def test_malformed_check_param_exits_2_naming_key(tmp_path, capsys, key, bad):
    check = {"name": CHECK_OF_PARAM[key], "mode": "pass", "params": {key: bad}}
    path = write_config(tmp_path, dict(CANTOR_CFG, checks=[check]))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "checks[0]" in err and f"{key} must be a number" in err


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this one has imported scipy through the tests
    code = "import sys, hklab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env())
    assert res.stdout.strip() == "[]"



@pytest.mark.parametrize("argv", [
    ["run", "--config", str(CONFIG_DIR / "cantor_sweep.json")],
    ["counterexample", "report", "--epsilon", "4", "--levels", "3", "--axes", "2"]],
    ids=["sweep", "counterexample"])
def test_runs_load_no_numpy_ma(tmp_path, argv):
    # np.unique, and np.quantile through it, import numpy.ma on their first
    # call (numpy 2.4), at 28 ms and over 1 MB a run; a fresh interpreter
    code = ("import sys; from hklab import cli; code = cli.main(sys.argv[1:]); "
            "print(code, 'numpy.ma' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, env=child_env(), timeout=120)
    assert res.stdout.splitlines()[-1] == "0 False", res.stderr


def test_the_form_is_assembled_before_numpy_random_and_hashlib_load(tmp_path):
    # numpy.random imports secrets and hmac, which load OpenSSL's _hashlib;
    # both were resident through the eigensolve when the run made its
    # generator first, and report.py imported hashlib at the top.  A fresh
    # interpreter: pytest has loaded both
    code = ("import sys\n"
            "from hklab import cli, form\n"
            "assemble, loaded = form.assemble, []\n"
            "def assemble_and_look(kernel):\n"
            "    out = assemble(kernel)\n"
            "    loaded.append([m for m in ('numpy.random', '_hashlib') if m in sys.modules])\n"
            "    return out\n"
            "form.assemble = assemble_and_look\n"
            "print(cli.main(sys.argv[1:]), loaded[0])")
    config = write_config(tmp_path, CANTOR_CFG)
    res = subprocess.run([sys.executable, "-c", code, "run", "--config", str(config),
                          "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, env=child_env(), timeout=120)
    assert res.stdout.splitlines()[-1] == "0 []", res.stderr


def test_counterexample_report_at_epsilon_1e14(tmp_path):
    # the order-gap identity is checked relative to 1 + eps
    assert cli.main(["counterexample", "report", "--epsilon", "1e14", "--levels", "2",
                     "--axes", "2", "--out", str(tmp_path / "cx")]) == 0


# the params that hold a radius, a time, an a0 or k: each must be positive
POSITIVE_KEYS = {"radius_grid", "ball_radii", "pairs", "radii", "rho",
                 "time_grid", "times", "T0", "t", "a0_grid", "k"}


def _bad_values(key, convert):
    """(label, value) pairs: a string, a list of strings, null unless the param
    may be null; for a numeric param also NaN, and -1 for a positive one, each
    in the shape the param takes (a number, a flat list, a list of pairs)."""
    bad = [(type(v).__name__, v)
           for v in ["abc", ["abc"]] + ([] if convert is cli._number_or_null else [None])]
    doc = convert.__doc__
    if doc.startswith("one of"):
        return bad
    shape = ((lambda x: [[x, 0.5]]) if "pairs" in doc else
             (lambda x: [x]) if "list" in doc else (lambda x: x))
    bad.append(("nan", shape(float("nan"))))
    if key in POSITIVE_KEYS:
        bad.append(("negative", shape(-1.0)))
    return bad


# every param every check declares, so that a param added later is covered too
DECLARED_PARAMS = [(name, key, label, bad) for name, entry in sorted(cli.CHECKS.items())
                   for key, (convert, _) in entry["params"].items()
                   for label, bad in _bad_values(key, convert)]


def test_positive_keys_are_declared():
    declared = {key for entry in cli.CHECKS.values() for key in entry["params"]}
    assert POSITIVE_KEYS <= declared


def _run_exit_code_and_err(tmp_path, capsys, checks):
    path = write_config(tmp_path, dict(CANTOR_CFG, checks=checks))
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name,key,label,bad", DECLARED_PARAMS,
                         ids=[f"{n}-{k}-{label}" for n, k, label, _ in DECLARED_PARAMS])
def test_every_declared_param_rejects_wrong_type(tmp_path, capsys, name, key, label, bad):
    checks = [{"name": "conservativeness_check", "mode": "pass"},
              {"name": name, "mode": "pass", "params": {key: bad}}]
    code, err = _run_exit_code_and_err(tmp_path, capsys, checks)
    assert code == 2
    assert f"checks[1]: {key} must be" in err
    assert not (tmp_path / "o").exists()          # refused before anything ran


@pytest.mark.parametrize("name,key,bad", [
    ("fk_family_check", "variant", "bogus"), ("fk_family_check", "subset_strategy", "bogus"),
    ("nash_check", "test_family", "bogus"), ("meyer_check", "domain", [0.5]),
    ("ij_check", "pairs", [[0.25, 0.5, 1.0]]), ("te_check", "time_grid", [[0.1, 0.2]]),
    ("truncation_semigroup_check", "f", [1.0, 1.0])])
def test_invalid_param_value_exits_2_naming_key(tmp_path, capsys, name, key, bad):
    code, err = _run_exit_code_and_err(
        tmp_path, capsys, [{"name": name, "mode": "pass", "params": {key: bad}}])
    assert code == 2
    assert "checks[0]" in err and key in err


def test_check_params_must_be_an_object(tmp_path, capsys):
    code, err = _run_exit_code_and_err(
        tmp_path, capsys, [{"name": "vd_fit", "mode": "pass", "params": [0.5]}])
    assert code == 2 and "checks[0].params" in err


@pytest.mark.parametrize("name,key", [("te_check", "time_grid"), ("vd_fit", "radius_grid"),
                                      ("ij_check", "pairs"), ("te_check", "ball_radii"),
                                      ("cs_check", "ball_radii"),
                                      ("capacity_check", "ball_radii")])
def test_empty_grid_means_the_default(tmp_path, name, key):
    outputs = []
    for params in ({}, {key: []}):
        cfg = dict(CANTOR_CFG, checks=[{"name": name, "mode": "pass", "params": params}])
        out = tmp_path / str(len(outputs))
        assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)]) in (0, 1)
        outputs.append((out / f"report_{name}.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_list_checks_prints_every_declared_param(capsys):
    assert cli.main(["list-checks"]) == 0
    blocks = {}
    for line in capsys.readouterr().out.splitlines():
        if not line.startswith(" "):
            name = line
            blocks[name] = []
        elif line.startswith("  param "):
            blocks[name].append(line[len("  param "):].split(":")[0])
    assert blocks == {name: list(entry["params"]) for name, entry in cli.CHECKS.items()}
    for name in ("fk_family_check", "nash_check", "fk_nash_consistency", "se_from_lre",
                 "te_check"):
        assert "ball_radii" in blocks[name]
    assert "delta" in blocks["fk_family_check"] and "threshold" in blocks["tjq_check"]
    assert "radius_grid" in blocks["ij_check"]
    assert "time_grid" in blocks["truncation_semigroup_check"]


def test_truncation_checks_share_one_near_form(tmp_path, capsys, monkeypatch):
    # the full form, then one near form at the default rho for all three checks
    calls = []
    assemble = cli.form_mod.assemble

    def counting_assemble(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(cli.form_mod, "assemble", counting_assemble)
    checks = [{"name": name, "mode": "pass"} for name in
              ("truncation_l2_check", "truncation_semigroup_check", "meyer_check")]
    code, _ = _run_exit_code_and_err(tmp_path, capsys, checks)
    assert code == 0
    assert len(calls) == 2


def test_kernel_level_checks_assemble_no_form(tmp_path, monkeypatch):
    # 1024 atoms above a dense cap lowered to 512: checks that read only the
    # space, the order field and the kernel run without the form, which a
    # check that reads it still cannot have
    monkeypatch.setattr(cli.form_mod, "DENSE_MATRIX_CAP", 512)
    calls = []
    assemble = cli.form_mod.assemble

    def counting_assemble(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(cli.form_mod, "assemble", counting_assemble)
    checks = [{"name": name, "mode": "pass"} for name in
              ("vd_fit", "tj_check", "ij_check", "cs_check", "capacity_check")]
    cfg = {"space": {"kind": "cantor", "xi": 1 / 3, "n": 2, "level": 5},
           "scale": {"kind": "constant", "beta": 0.8, "T0": 1.0},
           "kernel": {"kind": "cantor_axis"}, "checks": checks}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert calls == []
    path = write_config(tmp_path, {**cfg, "checks": checks + [{"name": "due_check"}]})
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(n for n, e in cli.CHECKS.items()
                                         if e.get("needs_form", True) is False))
def test_a_check_that_needs_no_form_runs_without_one(name):
    # every check declared "needs_form": False runs from a ctx with no form;
    # the kernel has a density, which tjq_check needs
    space = hklab.build_cantor_product(1 / 3, 2, 3)
    scale = hklab.constant_field(space, 0.8, T0=1.0)
    ctx = {"space": space, "scale": scale, "kernel": hklab.build_uniform_kernel(space),
           "form": None, "rng": np.random.default_rng(0)}
    entry = cli.CHECKS[name]
    report = entry["fn"](ctx, cli._resolve_params(entry["params"], {}, ctx))
    assert isinstance(report, ConditionReport) and report.series


@pytest.mark.parametrize("edit,path", [
    (lambda c: None, "config"), (lambda c: {**c, "space": 5}, "space"),
    (lambda c: {**c, "checks": [5]}, "checks[0]"),
    (lambda c: {**c, "checks": [{"name": ["tj_check"]}]}, "checks[0].name"),
    (lambda c: {**c, "output": [1]}, "output"),
    (lambda c: {**c, "output": {"formats": 5}}, "output.formats"),
    (lambda c: {**c, "output": {"dir": 5}}, "output.dir"),
    (lambda c: {**c, "scale": {**BALLS_CFG["scale"], "anchors": 3}}, "scale.anchors"),
    (lambda c: {**c, "seed": -1}, "seed"),
    (lambda c: {**c, "seed": 1.9}, "seed"), (lambda c: {**c, "seed": True}, "seed"),
    (lambda c: {**c, "output": {"formats": ["json", "jsn"]}}, "output.formats"),
    (lambda c: {**c, "space": {**c["space"], "level": 0}}, "space"),
    (lambda c: {**c, "space": {**c["space"], "n": 10**30}}, None),
    (lambda c: {**c, "kernel": {"kind": "stable_like"}}, "kernel"),
    (lambda c: {**c, "space": {"kind": "two_point", "weights": [math.nan, 0.5]}},
     "space.weights"),
    (lambda c: {**c, "space": {"kind": "two_point", "weights": [math.inf, 0.5]}},
     "space.weights"),
    (lambda c: {**c, "space": custom_space(None, ((0.0,), (math.inf,)))}, "space.coords"),
    (lambda c: {**c, "space": custom_space([[0.5, 1.0], [3.0, 0.5]], ((0.0,), (1.0,)))},
     "space.metric_matrix"),
    (lambda c: {**c, "space": custom_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]])},
     "space.metric_matrix"),
    (lambda c: {**c, "space": custom_space([[0, 1, 2], [1, 0, math.inf], [2, math.inf, 0]])},
     "space.metric_matrix"),
    (lambda c: {**c, "scale": anchored_at(2.7)}, "scale.anchors[0].center"),
    (lambda c: {**c, "scale": anchored_at(True)}, "scale.anchors[0].center"),
    (lambda c: {**c, "scale": anchored_at([math.nan])}, "scale.anchors[0].center"),
    (lambda c: {**c, "scale": {"kind": "table", "values": [1.0] * 8, "beta1": 1.0,
                               "beta2": 1.2, "lipschitz": "no"}}, "scale.lipschitz"),
    (lambda c: {**c, "checks": [{"name": "lre_check", "params": {"kapa": 2.0}}]},
     "checks[0].params.kapa"),
    (lambda c: {**c, "checks": [{"name": "heat_kernel_invariants", "tims": [1.0]}]},
     "checks[0].tims"),
    (lambda c: {**c, "checks": [{"name": "heat_kernel_invariants", "time_grid": [1.0]}]},
     "checks[0].time_grid")],
    ids=["root", "section", "check", "name", "output", "formats", "dir", "anchors", "seed",
         "fractional_seed", "boolean_seed", "unknown_format", "builder", "huge_n",
         "kernel_builder", "nan_weight", "infinite_weight", "infinite_coord",
         "asymmetric_metric", "triangle_metric", "infinite_metric", "fractional_center",
         "boolean_center", "nan_center_coord", "string_lipschitz", "unknown_param",
         "unknown_check_key", "undeclared_hoisted_key"])
def test_malformed_config_structure_exits_with_path(tmp_path, capsys, edit, path):
    # a huge product is refused by the point cap (exit 3) before its size is formed;
    # what is not a metric measure space, or not a whole atom id or a JSON boolean,
    # is refused at its path instead of running
    config = write_config(tmp_path, edit(copy.deepcopy(CANTOR_CFG)))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if path is None:
        assert code == 3 and "point cap exceeded" in err
    else:
        assert code == 2 and f"config schema violation at {path}:" in err


def _set(cfg, path, value):
    """``cfg`` with ``value`` at the dotted ``path`` (an index in brackets for a list)."""
    *parents, key = path.replace("[", ".").replace("]", "").split(".")
    target = cfg
    for part in parents:
        target = target[int(part)] if isinstance(target, list) else target.setdefault(part, {})
    target[key] = value
    return cfg


@pytest.mark.parametrize("base,path,value", [
    (TWO_POINT_CFG, "kernel.rh0", 0.5), (TWO_POINT_CFG, "scale.t0", 1.0),
    (TWO_POINT_CFG, "space.gapp", 2.0), (TWO_POINT_CFG, "output.format", ["json"]),
    (TWO_POINT_CFG, "seeed", 1), (BALLS_CFG, "scale.anchors[0].radiuss", 0.5),
    (TWO_POINT_CFG, "kernel.rho", "nan"), (TWO_POINT_CFG, "scale.T0", "nan"),
    (TWO_POINT_CFG, "scale.beta", "inf"), (TWO_POINT_CFG, "kernel.value", "-inf"),
    (BALLS_CFG, "scale.anchors[0].radius", "nan"), (TWO_POINT_CFG, "space.point_cap", 2),
    (dict(CANTOR_CFG, space={"kind": "custom", "coords": [[0.0], [1.0], [2.0]],
                             "weights": [0.25, 0.25, 0.5]}), "space.point_cap", 2)],
    ids=["kernel_rh0", "scale_t0", "space_gapp", "output_format", "top_level_seeed",
         "anchor_radiuss", "nan_rho", "nan_T0", "infinite_beta", "infinite_kernel_value",
         "nan_anchor_radius", "two_point_point_cap", "custom_point_cap"])
def test_undeclared_key_or_non_finite_number_exits_2_at_its_path(tmp_path, capsys, base,
                                                                  path, value):
    # accepted, a misspelled key would be ignored, rho nan would truncate to an
    # all-zero kernel on which every check passes, and T0 nan would run as T0 inf
    config = write_config(tmp_path, _set(copy.deepcopy(base), path, value))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2 and f"config schema violation at {path}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("path,check,reason", [
    ("space.level", None, "invalid value 'x'"),
    ("checks[0]", {"name": "lre_check", "params": {"kappa": "x"}}, "kappa must be a number"),
    ("checks[0]", {"name": "fk_family_check", "params": {"delta": 0}},
     "fk_family_check cannot run here: delta must be positive for FK")],
    ids=["section_field", "check_param", "check_refusal"])
def test_a_schema_violation_names_its_path_once(tmp_path, capsys, path, check, reason):
    # the message holds the path, and main printed it once more before it
    cfg = _set(copy.deepcopy(CANTOR_CFG), "space.level", "x") if check is None else \
        dict(CANTOR_CFG, checks=[check])
    config = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config schema violation at {path}: {reason}")
    assert err.count(path) == 1


@pytest.mark.parametrize("kernel,field", [
    ({"kind": "uniform", "value": -1.0}, "value"),
    ({"kind": "nearest_neighbor", "value": -1.0}, "value"),
    ({"kind": "stable_like", "lower_constant": -2.0}, "lower_constant")])
def test_negative_jump_intensity_exits_2_at_its_field(tmp_path, capsys, kernel, field):
    # it used to run, to a negative heat kernel or to NaN reports; zero runs
    space = {"kind": "grid", "d": 1, "side": 8}
    config = write_config(tmp_path, dict(CANTOR_CFG, space=space, kernel=kernel))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config schema violation at kernel.{field}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    config = write_config(tmp_path, dict(CANTOR_CFG, space=space, kernel={**kernel, field: 0}))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


def test_overflowing_generator_exits_2_at_the_kernel(tmp_path, capsys):
    # a finite intensity whose generator overflows used to end in a
    # traceback from the eigensolve
    cfg = _set(_set(copy.deepcopy(CANTOR_CFG), "space.level", 4), "kernel.value", 1e308)
    config = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config schema violation at kernel:" in err and "generator overflows" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("check", ["fk_family_check", "fk_nash_consistency"])
def test_overflowing_check_exits_2_at_the_check(tmp_path, capsys, check):
    # an FK exponent that overflows a float power used to end in a traceback
    cfg = _set(copy.deepcopy(CANTOR_CFG), "space.level", 4)
    cfg["checks"] = [{"name": check, "mode": "pass", "params": {"nu": 1e308}}]
    config = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config schema violation at checks[0]:" in err and f"{check} overflows" in err
    cfg["checks"][0]["params"]["nu"] = 200
    config = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) in (0, 1)


def test_due_check_time_whose_radius_underflows_exits_2_at_the_check(tmp_path, capsys):
    # phi^-1(x, 1e-300) = 1e-375 underflows to 0; the refusal used to say
    # only "ball radius must be positive"
    cfg = _set(copy.deepcopy(CANTOR_CFG), "space.n", 2)
    cfg["kernel"] = {"kind": "cantor_axis"}
    cfg["checks"] = [{"name": "due_check", "params": {"time_grid": [1e-300]}}]
    config = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config schema violation at checks[0]:" in err
    assert "time 1e-300 is too small: phi^-1(x, t) underflows to 0" in err


def test_a_huge_kernel_fails_only_the_survival_floor(tmp_path):
    # uniform 1e300 on the 16-atom Cantor set leaves its zero eigenvalue at
    # -4.6e284 unless rounded zeros are exact: exp(-t lambda) overflowed, and
    # conservativeness, the invariants and the Meyer comparison failed
    cfg = json.loads((CONFIG_DIR / "cantor_sweep.json").read_text())
    cfg["space"]["level"] = 4
    cfg["kernel"] = {"kind": "uniform", "value": 1e300}
    cfg["checks"] = [c for c in cfg["checks"] if c["name"] != "due_check"]
    config = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    failed = [c["name"] for c in summary["checks"] if c["verdict"] == "fail"]
    assert failed == ["se_check"]                      # its survival floor is 0


BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["sweep_256", "spectral_2048", "counterexample_256"])
def test_gates_agree_with_the_benchmark_reference_and_its_limits(tmp_path, workload):
    # the benchmark's limits restate the gates' bounds as an independent
    # guard: neither may move alone
    ref = json.loads((BENCH_DIR / "reference" / f"{workload}.json").read_text())
    if workload == "counterexample_256":
        assert cli.counterexample_report(4.0, 4, 2, tmp_path) == ref["expected_exit"]
        bundle = json.loads((tmp_path / "counterexample_report.json").read_text())
        reports = bundle["condition_reports"].items()
        verdicts = {"due_violation_diagnostic": bundle["diagnostic_series"]["verdict"]}
        case = {k: v for k, v in ref["cases"]["fixed"].items() if k != "exponents"}  # no verdict
    else:
        cfg = json.loads((BENCH_DIR / "workloads" / f"{workload}.json").read_text())
        code = cli.run_config({**cfg, "output": {"formats": ["json"]}}, tmp_path, seed=0)
        assert code == ref["expected_exit"]
        reports = [(c["name"], c) for c in json.loads((tmp_path / "summary.json").read_text())
                   ["checks"]]
        verdicts, case = {}, ref["cases"]["0"]
    verdicts.update((name, rep["verdict"]) for name, rep in reports)
    assert verdicts == {name: want["verdict"] for name, want in case.items()}
    gates = {name: {g["name"]: (g["op"], g["bound"]) for g in rep["gates"]}
             for name, rep in reports}
    for name, limits in ref["limits"].items():
        for key, (op, bound, *flags) in limits.items():
            if key in gates[name]:
                assert gates[name][key] == (op, bound), (name, key)
            else:
                assert "optional" in flags, f"{name}: no gate {key}"


@pytest.mark.parametrize("T0", ["inf", None, math.inf, 2.5])
def test_scale_T0_takes_inf_null_or_a_positive_number(tmp_path, T0):
    config = write_config(tmp_path, _set(copy.deepcopy(TWO_POINT_CFG), "scale.T0", T0))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


# ---------------------------------------------------------------------------
# Whole-config fuzzing: sections nested, keys dropped and types mixed at once
# ---------------------------------------------------------------------------

FUZZ_BASE = {
    "space": {"kind": "cantor", "xi": 1 / 3, "n": 1, "level": 2},
    "scale": {"kind": "constant", "beta": 0.8, "T0": 1.0},
    "kernel": {"kind": "uniform", "value": 1.0},
    "checks": [{"name": "tj_check", "mode": "diagnostic", "params": {"radius_grid": [0.25]}},
               {"name": "se_check", "mode": "pass", "params": {"a0_grid": [0.5]}},
               {"name": "conservativeness_check", "params": {"time_grid": [0.1]}}],
    "output": {"formats": ["json"]},
    "seed": 1,
}
FUZZ_WORDS = ["space", "scale", "kernel", "checks", "params", "name", "mode", "kind",
              "pass", "diagnostic", "cantor", "grid", "two_point", "custom", "constant",
              "balls", "table", "uniform", "zero", "stable_like", "json", "csv",
              "inf", "seed", "output", "formats", "dir", *sorted(cli.CHECKS),
              *sorted({key for entry in cli.CHECKS.values() for key in entry["params"]})]
FUZZ_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.sampled_from(FUZZ_WORDS),
              st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(FUZZ_WORDS), inner, max_size=3)),
    max_leaves=6)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(cfg, data):
    """One random edit of ``cfg``: drop, replace or nest the value at a random
    path, or add a key to the object at a random path."""
    path = data.draw(st.sampled_from(list(_paths(cfg))))
    action = data.draw(st.sampled_from(["drop", "replace", "nest", "add"]))
    if action == "add":
        target = cfg
        for key in path:
            target = target[key]
        if isinstance(target, dict):
            target[data.draw(st.sampled_from(FUZZ_WORDS))] = data.draw(FUZZ_VALUES)
        return cfg
    if not path:
        return data.draw(FUZZ_VALUES) if action == "replace" else cfg
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "drop":
        del parent[key]
    elif action == "replace":
        parent[key] = data.draw(FUZZ_VALUES)
    else:
        parent[key] = data.draw(st.sampled_from([[parent[key]], {"params": parent[key]},
                                                 {data.draw(st.sampled_from(FUZZ_WORDS)):
                                                  parent[key]}]))
    return cfg


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_config_exits_cleanly(data):
    cfg = copy.deepcopy(FUZZ_BASE)
    for _ in range(data.draw(st.integers(1, 4))):
        cfg = _mutate(cfg, data)
    # a small point cap keeps every space the edits can reach cheap to assemble
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli.space_mod, "DEFAULT_POINT_CAP", 64):
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert "config schema violation at " in err.getvalue(), err.getvalue()
