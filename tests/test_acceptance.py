"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

import hklab as hk
from conftest import random_setup
from hklab.counterexample import REGIME_NOTE

ALPHA_THIRD = math.log(2) / math.log(3)


def _announce(number: int, label: str):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_two_point_oracle():
    start = time.monotonic()
    space = hk.build_two_point()
    form = hk.assemble(hk.build_uniform_kernel(space))
    for t in (0.1, 1.0, 10.0):
        p = form.heat_kernel(t)
        assert abs(p[0, 0] - (1 + math.exp(-2 * t))) <= 1e-12
        assert abs(p[0, 1] - (1 - math.exp(-2 * t))) <= 1e-12
        assert abs(p[1, 1] - (1 + math.exp(-2 * t))) <= 1e-12
    part = hk.part_on(form, [0])
    for t in (0.1, 1.0, 10.0):
        assert abs(hk.survival(part, t)[0] - math.exp(-t)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(1, "two-point oracle")


def test_criterion_02_invariant_suite_randomized():
    start = time.monotonic()
    for seed in range(10):
        space, _, kern = random_setup(seed, max_points=400)
        form = hk.assemble(kern)
        rep = hk.heat_kernel_invariants(form, times=(0.01, 0.1, 1.0, 10.0))
        assert rep.witness["symmetry"] <= 1e-10, (seed, rep.witness)
        assert rep.witness["mass"] <= 1e-10, (seed, rep.witness)
        assert rep.witness["chapman_kolmogorov"] <= 1e-8, (seed, rep.witness)
        assert rep.witness["negativity"] <= 1e-10, (seed, rep.witness)
        assert rep.passed, (seed, rep.witness)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(2, "semigroup invariant suite on 10 randomized configs")


def test_criterion_03_cantor_volume_exponents():
    start = time.monotonic()
    sp = hk.build_cantor_product(1 / 3, 1, 8)
    radii = np.sort(2.0 ** -np.arange(1, 8, dtype=float))
    alpha_hat, _ = hk.fit_vd_exponent(sp, radii)
    assert abs(alpha_hat - ALPHA_THIRD) / ALPHA_THIRD <= 0.05

    sp2 = hk.build_cantor_product(1 / 2, 2, 6)
    radii2 = np.sort(2.0 ** -np.arange(1, 8, dtype=float))
    alpha2, _ = hk.fit_vd_exponent(sp2, radii2)
    assert abs(alpha2 - 1.0) <= 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _announce(3, "volume exponent fits")


def test_criterion_04_tj_stability_across_levels():
    start = time.monotonic()
    constants = []
    for level in (5, 6, 7, 8):
        sp = hk.build_cantor_product(1 / 3, 1, level)
        field = hk.constant_field(sp, 0.8, T0=1.0)
        kern = hk.build_cantor_axis_kernel(field)
        rep = hk.tj_check(kern, field, hk.dyadic_radius_grid(sp))
        assert math.isfinite(rep.best_constant)
        constants.append(rep.best_constant)
    spread = (max(constants) - min(constants)) / min(constants)
    assert spread < 0.20, constants
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _announce(4, "jump-tail constant stable across levels 5..8")


def test_criterion_05_truncation_l2_bound():
    for seed in range(10):
        space, _, kern = random_setup(seed)
        form = hk.assemble(kern)
        for frac in (0.125, 0.25, 0.5):
            rep = hk.truncation_l2_check(hk.Truncation(form, frac * space.diameter))
            assert rep.witness["margin"] >= -1e-9, (seed, frac, rep.witness)
    _announce(5, "truncated-energy eigenvalue bound on 10 configs x 3 radii")


def test_criterion_06_truncation_semigroup_bound():
    times = np.logspace(-2, 0.7, 7)
    for seed in range(5):
        space, _, kern = random_setup(seed)
        form = hk.assemble(kern)
        trunc = hk.Truncation(form, space.diameter / 8.0)
        wider = hk.Truncation(form, space.diameter / 4.0)
        f = (space.dist_from(0) < space.diameter / 4.0).astype(float)
        rep = hk.truncation_semigroup_check(trunc, f, times, wider=wider)
        assert rep.witness["worst_margin"] >= -1e-9, (seed, rep.witness)
        assert rep.witness["nested_margin"] >= -1e-9, (seed, rep.witness)
    _announce(6, "semigroup truncation bounds, plain and nested")


def test_criterion_07_meyer_comparison():
    space = hk.build_cantor_product(1 / 3, 1, 7)          # 128 atoms
    assert space.n_points <= 200
    field = hk.constant_field(space, 0.8, T0=1.0)
    kern = hk.build_cantor_axis_kernel(field)
    form = hk.assemble(kern)
    trunc = hk.Truncation(form, 0.125)
    mid = int(np.argmin(np.abs(space.coords[:, 0] - 0.5)))
    domains = [np.arange(space.n_points),
               space.ball(0, 0.5).member_idx,
               space.ball(mid, 0.4).member_idx]
    for D in domains:
        for t in (0.2, 0.5, 1.0):
            rep = hk.meyer_check(trunc, D, t)
            assert rep.passed, (t, rep.witness)
            assert rep.witness["upper_margin"] >= -1e-6
            assert rep.witness["lower_margin"] >= -1e-6
            assert rep.witness["identity_residual"] <= 1e-6

    # far-kernel-zero control: exact equality of the two Dirichlet kernels
    near_all = hk.Truncation(form, 2.0)
    D = domains[1]
    rep = hk.meyer_check(near_all, D, 0.5)
    assert rep.witness["identity_residual"] <= 1e-10
    p_full = hk.part_on(form, D).heat_kernel(0.5)
    p_near = hk.part_on(near_all.near, D).heat_kernel(0.5)
    assert np.abs(p_full - p_near).max() <= 1e-10
    _announce(7, "jump-interchange comparison at quadrature tolerance")


def test_criterion_08_fk_nash_two_way_consistency():
    rng = hk.Stream(8)
    configs = []
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    configs.append((sp, hk.constant_field(sp, 0.8, T0=1.0), "cantor"))
    sp = hk.build_cantor_product(1 / 3, 1, 6)
    configs.append((sp, hk.constant_field(sp, 1.2, T0=1.0), "cantor"))
    sp = hk.build_grid(1, 24)
    configs.append((sp, hk.constant_field(sp, 1.0, T0=1.0), "grid"))
    sp = hk.build_grid(2, 6)
    configs.append((sp, hk.constant_field(sp, 0.9, T0=1.0), "grid"))
    sp = hk.build_cantor_product(1 / 2, 2, 3)
    configs.append((sp, hk.constant_field(sp, 0.8, T0=1.0), "cantor"))
    for space, field, kind in configs:
        kern = (hk.build_cantor_axis_kernel(field) if kind == "cantor"
                else hk.build_stable_like_kernel(field))
        form = hk.assemble(kern)
        balls = hk.sample_balls(space, 2, [0.25, 0.5], rng)
        rep = hk.fk_nash_consistency(form, field, nu=0.6, b=1.0,
                                     Cprime=1.0, ball_sample=balls, rng=rng)
        assert rep.passed, rep.witness
        assert rep.witness["forward_margin"] >= -1e-9
        assert rep.witness["backward_margin"] >= -1e-9
    _announce(8, "eigenvalue/Nash constants satisfy the two-way algebra")


def test_criterion_09_survival_from_resolvent_chain():
    rng = hk.Stream(9)
    for seed in (1, 4):
        space, field, kern = random_setup(seed)
        form = hk.assemble(kern)
        radii = [space.diameter / 4.0, space.diameter / 2.0]
        balls = hk.sample_balls(space, 3, radii, rng)
        rep = hk.se_from_lre_chain(form, field, 1.0, balls)
        assert rep.series, "no usable balls sampled"
        assert rep.witness["worst_margin"] >= -1e-9, rep.witness
    _announce(9, "resolvent-derived survival floor")


def test_criterion_10_counterexample_arithmetic():
    start = time.monotonic()
    for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
        cfg = hk.synthesize_config(eps)
        identity = cfg.n * cfg.alpha_xi / 2 - cfg.n * cfg.alpha_xi / (2 * cfg.beta2)
        assert abs(identity - (1 + eps)) <= 1e-12
        rep = hk.exponent_report(cfg)
        assert rep["gap"] > 0
    cfg = hk.synthesize_config(4.0, xi=1 / 3)
    assert cfg.n == 32
    assert abs(cfg.beta2 - 1.9814) <= 5e-4
    assert abs(hk.exponent_report(cfg)["gap"] - 2.388) <= 2e-3
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(10, "construction parameter identities and exponent gap")


def test_criterion_11_cross_jump_mass_exponent():
    start = time.monotonic()
    cfg = hk.synthesize_config(4.0, xi=1 / 3, level=7)
    space = hk.build_cantor_product(1 / 3, 2, 7, point_cap=2**14)
    field = hk.build_counterexample_field(cfg, space)
    kern = hk.build_cantor_axis_kernel(field)
    radii = sorted(2.0 ** -k for k in range(2, 8))
    rep = hk.cross_jump_exponent_fit(kern, radii, eta=0.5)
    expected = 3 * ALPHA_THIRD
    assert abs(expected - 1.8928) < 1e-3
    assert rep.witness["relative_error"] <= 0.10, rep.witness
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _announce(11, "corner cross-jump mass exponent")


def test_criterion_12_recursion_limit():
    assert abs(hk.recursion_limit(1.0, 0.5, 0.5) - 4.0) <= 1e-10
    _announce(12, "self-improvement recursion fixed point")


def test_criterion_13_regime_gap_is_labeled():
    assert "not desk-reproducible" in REGIME_NOTE
    assert "2^(32*level)" in REGIME_NOTE
    cfg = hk.synthesize_config(1.0, level=3)
    space = hk.build_cantor_product(cfg.xi, 2, 3)
    form = hk.assemble(hk.build_cantor_axis_kernel(
        hk.build_counterexample_field(cfg, space)))
    rep = hk.due_violation_diagnostic(cfg, np.logspace(-4.5, 0.5, 9), form)
    assert rep["regime_note"] == REGIME_NOTE
    assert rep["config"]["n_config"] > rep["config"]["n_desk"]
    _announce(13, "non-reproducibility statement and regime label")
