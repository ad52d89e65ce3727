"""Which pass-mode checks see which defect: the first rows of a mutation table.

Each row plants one defect in the full form right after ``assemble``: in its
spectrum, its diagonal, its kernel or the weights of its space.  It then runs
every check of the ``sweep_256`` workload through ``cli.run_config``, the
diagnostic ones too, so that the checks draw from the run's generator as in
the workload; the table pins which pass-mode checks fail, and the gates each
one fails by, as ``summary.json`` names them.  A change that blinds a check
or a gate to a defect, or makes one see it, changes a row.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import hklab as hk
from hklab import cli

_SWEEP = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
                     / "sweep_256.json").read_text())


def _counterexample_config():
    """The sweep on the 64-atom product (xi = 1/3, level 3, 2 axes) under the
    two-plateau field of epsilon = 4, which fails the reflection gate: the
    anchors of ``build_counterexample_field``, as a config."""
    cx = hk.synthesize_config(4.0, xi=1 / 3, level=3)
    anchors = [{"center": [0.0, 0.0], "radius": 0.25, "value": cx.beta2},
               {"center": [1.0, 0.0], "radius": 0.25, "value": cx.beta1}]
    return {**_SWEEP, "space": {"kind": "cantor", "xi": 1 / 3, "n": 2, "level": 3},
            "scale": {"kind": "balls", "anchors": anchors, "beta1": cx.beta1,
                      "beta2": cx.beta2, "T0": 1.0}}


def _scale_even_eigenvalue(form):
    form.basis.factors[0].eigvals[1] *= 1.05


def _scale_eigenvalue(form):
    assert isinstance(form.basis, hk.form._DenseBasis)
    form.eigvals[1] *= 1.05


def _scale_diag_5(form):
    form.diag[5] *= 1.01


def _cut_jump_5_6(form):
    kernel = form.kernel

    def block_fn(rows, cols):
        out = kernel.block(rows, cols)
        pair = np.isin(rows, (5, 6))[:, None] & np.isin(cols, (5, 6))[None, :]
        out[pair] = 0.0
        return out

    form.kernel = hk.JumpKernel(kernel.space, block_fn, kernel.support_pattern, kernel.meta)


def _scale_weight_5(form):
    # the space's own copy of the weights is read-only; a defect has to unlock it
    form.space.weights.flags.writeable = True
    form.space.weights[5] *= 1.01


_ROW_SUM = {"heat_kernel_invariants": ["row_sum"]}
# (config, defect, each pass-mode check that fails, in run order, with the
# gates it fails by)
_TABLE = {
    "split_form_even_eigenvalue_1": (_SWEEP, _scale_even_eigenvalue,
                                     {"heat_kernel_invariants": ["negativity"]}),
    "unsplit_form_eigenvalue_1": (_counterexample_config(), _scale_eigenvalue, {}),
    "split_form_diag_5": (_SWEEP, _scale_diag_5, _ROW_SUM),
    "unsplit_form_diag_5": (_counterexample_config(), _scale_diag_5, _ROW_SUM),
    "split_form_jump_5_6": (_SWEEP, _cut_jump_5_6, _ROW_SUM),
    "unsplit_form_jump_5_6": (_counterexample_config(), _cut_jump_5_6, _ROW_SUM),
    "split_form_weight_5": (_SWEEP, _scale_weight_5, {
        "conservativeness_check": ["max_defect"],
        "heat_kernel_invariants": ["mass", "t0_identity", "row_sum"]}),
    "unsplit_form_weight_5": (_counterexample_config(), _scale_weight_5, {
        "conservativeness_check": ["max_defect"],
        "heat_kernel_invariants": ["mass", "chapman_kolmogorov", "t0_identity", "row_sum"],
        "truncation_semigroup_check": ["worst_margin"]}),
}


@pytest.mark.parametrize("row", list(_TABLE))
def test_pass_mode_checks_that_see_a_defect(row, monkeypatch, tmp_path):
    cfg, defect, failing = _TABLE[row]
    assemble = hk.form.assemble
    forms = []

    def assemble_with_defect(kernel):
        form = assemble(kernel)
        if not forms:                      # the full form; a truncation's near form is later
            defect(form)
        forms.append(form)
        return form

    monkeypatch.setattr(hk.form, "assemble", assemble_with_defect)
    code = cli.run_config({**cfg, "output": {"formats": ["json"]}}, tmp_path, seed=0)
    summary = json.loads((tmp_path / "summary.json").read_text())
    modes = [check["mode"] for check in cfg["checks"]]
    assert [check["mode"] for check in summary["checks"]] == modes
    assert [(check["name"], [g["name"] for g in check["gates"] if not g["holds"]])
            for check in summary["checks"]
            if check["mode"] == "pass" and check["verdict"] == "fail"] == list(failing.items())
    assert code == (cli.EXIT_FAIL if failing else cli.EXIT_OK)
