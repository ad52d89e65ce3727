import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import hklab as hk
from hklab.errors import ParameterError

ALPHA_THIRD = math.log(2) / math.log(3)


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_synthesized_config_invariants(eps):
    cfg = hk.synthesize_config(eps)
    cfg.validate()
    assert cfg.alpha_xi <= eps / 2 + 1e-12
    assert 1.0 < cfg.beta2 < 2.0
    identity = cfg.n * cfg.alpha_xi / 2 - cfg.n * cfg.alpha_xi / (2 * cfg.beta2)
    assert identity == pytest.approx(1.0 + eps, abs=1e-12)
    assert (1 - cfg.nu) * cfg.gamma < 1 + cfg.nu + eps



def test_order_gap_identity_is_checked_relative_to_one_plus_epsilon():
    # at epsilon 1e14 the two terms of the identity are about 2e14 and round
    # far above an absolute 1e-12
    cfg = hk.synthesize_config(1e14, level=2)
    assert hk.exponent_report(cfg)["gap"] > 0
    for eps, nudge in ((4.0, -1e-11), (1e14, -1e-10)):
        cfg = hk.synthesize_config(eps, level=2)
        tampered = dataclasses.replace(cfg, beta2=cfg.beta2 + nudge)  # within the 1e-9 beta2 test
        with pytest.raises(ParameterError, match="order-gap identity violated"):
            tampered.validate()


def test_config_eps4_xi_third_instance():
    cfg = hk.synthesize_config(4.0, xi=1 / 3)
    assert cfg.n == 32
    assert cfg.alpha_xi == pytest.approx(ALPHA_THIRD, abs=1e-12)
    assert cfg.beta2 == pytest.approx(1.9814, abs=5e-4)
    rep = hk.exponent_report(cfg)
    assert rep["gap"] == pytest.approx(1 + 4 - cfg.alpha_xi - cfg.beta2, abs=1e-12)
    assert rep["gap"] == pytest.approx(2.388, abs=2e-3)
    assert rep["lower_exponent"] == pytest.approx(31 * ALPHA_THIRD - cfg.beta2, abs=1e-9)
    assert rep["due_exponent"] == pytest.approx(
        (1 + 1 / cfg.beta2) * 32 * ALPHA_THIRD / 2, abs=1e-9)


def test_synthesize_rejects_inadmissible_xi():
    # epsilon below 2 caps the admissible volume exponent
    with pytest.raises(ParameterError, match="admissible"):
        hk.synthesize_config(0.5, xi=1 / 3)


def test_minimal_axes_grow_as_epsilon_shrinks():
    # the first smallness condition forces n > 4(1+eps)/alpha
    n_small = hk.synthesize_config(0.5).n
    n_mid = hk.synthesize_config(1.0).n
    assert n_small > n_mid
    for eps in (0.5, 1.0, 2.0):
        cfg = hk.synthesize_config(eps)
        assert cfg.n > 4 * (1 + eps) / cfg.alpha_xi


@pytest.mark.parametrize("eps", [2 / 53, 0.04, 0.5, 1.0, 4.0, 1e3, 1e6])
def test_minimal_axes_is_the_first_n_meeting_both_conditions(eps):
    cfg = hk.synthesize_config(eps)

    def holds(n):
        frac = 2.0 * (1.0 + eps) / (n * cfg.alpha_xi)
        return frac < 0.5 and (1.0 + eps / 2.0) * (1.0 - frac) > 1.0

    assert holds(cfg.n) and not holds(cfg.n - 1)


def test_default_xi_stops_at_the_last_dyadic_rung_of_double_precision():
    # 1 - 2^-53 is the last rung below 1.0; epsilon = 2/54 takes it
    assert hk.synthesize_config(2 / 54).xi == Fraction(2**53 - 1, 2**53)
    for eps in (0.03, 1e-4, 1e-6, 5e-324):
        with pytest.raises(ParameterError, match="k > 53"):
            hk.synthesize_config(eps)


def test_gap_equals_closed_form_to_1e12():
    for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
        cfg = hk.synthesize_config(eps)
        rep = hk.exponent_report(cfg)
        assert rep["gap"] == pytest.approx(1 + eps - cfg.alpha_xi - cfg.beta2,
                                           abs=1e-12)
        assert rep["gap"] > 0


def test_field_plateaus_feasible_config():
    cfg = hk.synthesize_config(0.5, level=4)       # beta2 - beta1 < 1/2
    assert cfg.beta2 - cfg.beta1 < 0.5
    sp = hk.build_cantor_product(cfg.xi, 2, 4)
    field = hk.build_counterexample_field(cfg, sp)
    d0 = sp.dist_from_coord(sp.meta["corner_zero"])
    d1 = sp.dist_from_coord(sp.meta["corner_e1"])
    assert np.all(np.abs(field.beta_values[d0 < 0.25] - cfg.beta2) < 1e-12)
    assert np.all(np.abs(field.beta_values[d1 < 0.25] - cfg.beta1) < 1e-12)
    assert "plateau_clamped" not in field.meta


def test_field_clamp_note_when_orders_too_far_apart():
    cfg = hk.synthesize_config(4.0, xi=1 / 3, level=3)   # beta2 - beta1 > 1/2
    sp = hk.build_cantor_product(1 / 3, 2, 3)
    field = hk.build_counterexample_field(cfg, sp)
    assert "plateau_clamped" in field.meta
    # the bridge is still 1-Lipschitz and respects the low plateau
    d1 = sp.dist_from_coord(sp.meta["corner_e1"])
    assert np.all(np.abs(field.beta_values[d1 < 0.25] - 1.0) < 1e-12)


def test_field_lipschitz_scan_level5():
    cfg = hk.synthesize_config(1.0, level=5)
    sp = hk.build_cantor_product(cfg.xi, 2, 5)           # 1024 atoms
    field = hk.build_counterexample_field(cfg, sp)
    d = sp.pairwise()
    gap = np.abs(field.beta_values[:, None] - field.beta_values[None, :]) - d
    assert gap.max() <= 1e-12


def test_field_rejects_wrong_space():
    cfg = hk.synthesize_config(1.0)
    grid = hk.build_grid(2, 4)
    with pytest.raises(ParameterError):
        hk.build_counterexample_field(cfg, grid)
    other = hk.build_cantor_product(1 / 3, 2, 3)
    if abs(float(cfg.xi) - 1 / 3) > 1e-12:
        with pytest.raises(ParameterError):
            hk.build_counterexample_field(cfg, other)


def _construction_form(cfg, sp):
    return hk.assemble(hk.build_cantor_axis_kernel(hk.build_counterexample_field(cfg, sp)))


def test_diagnostic_report_structure():
    cfg = hk.synthesize_config(1.0, level=4)
    sp = hk.build_cantor_product(cfg.xi, 2, 4)
    times = np.logspace(-4.5, 0.5, 9)
    rep = hk.due_violation_diagnostic(cfg, times, _construction_form(cfg, sp))
    assert rep["verdict"] == "diagnostic"
    assert rep["usable_decades"] >= 4
    assert len(rep["series"]) == 9
    assert "trend_slope" in rep
    assert "not desk-reproducible" in rep["regime_note"]
    control = [row["r"] for row in rep["control_series"]]
    assert all(math.isfinite(r) for r in control)
    assert max(control) < 10.0


def test_diagnostic_inconclusive_cases():
    cfg = hk.synthesize_config(1.0, level=3)
    sp = hk.build_cantor_product(cfg.xi, 2, 3)
    form = _construction_form(cfg, sp)
    assert hk.due_violation_diagnostic(cfg, [], form)["verdict"] == "inconclusive"
    narrow = hk.due_violation_diagnostic(cfg, [0.1, 0.2, 0.4, 0.8], form)
    assert narrow["verdict"] == "inconclusive"
    assert "decades" in narrow["reason"]


def test_desk_scale_conditions_all_finite():
    cfg = hk.synthesize_config(1.0, level=4)
    sp = hk.build_cantor_product(cfg.xi, 2, 4)
    field = hk.build_counterexample_field(cfg, sp)
    kern = hk.build_cantor_axis_kernel(field)
    form = hk.assemble(kern)
    rng = hk.Stream(0)
    grid = hk.dyadic_radius_grid(sp)
    balls = hk.sample_balls(sp, 2, grid[-2:], rng)

    tj = hk.tj_check(kern, field, grid)
    assert math.isfinite(tj.best_constant) and tj.best_constant > 0
    cs = hk.cs_check(kern, field, balls)
    assert math.isfinite(cs.best_constant)
    n_desk = sp.meta["n_axes"]
    wfk = hk.fk_family_check(form, field, "WFK", 1.0 / (n_desk * cfg.alpha_xi), 1.0,
                             1.0, 0.5, balls, rng=rng)
    assert wfk.passed and wfk.best_constant > 0
    pairs = [(r, R) for r in grid for R in grid if r <= R]
    ij = hk.ij_check(kern, field, cfg.gamma, pairs)
    assert math.isfinite(ij.best_constant)
    assert ij.witness["gamma_hat"] <= cfg.gamma + 0.25


@pytest.mark.parametrize("level", [3, 4])
def test_control_form_entries_are_kronecker_products(level):
    # the control form of the profile (constant field, 2 axes) is the
    # Kronecker sum of two 1-axis forms, so p(t, (a1, a2), (b1, b2)) is
    # p1(t, a1, b1) p1(t, a2, b2).  Its split off-diagonal entries, from the
    # pair rows of the half eigenbases, agree to 1e-12 of
    # sqrt(p(t,x,x) p(t,y,y)): tiny entries at small t carry the rounding of
    # the spectral sum at that scale
    cfg = hk.synthesize_config(4.0, level=level)

    def control(axes):
        sp = hk.build_cantor_product(cfg.xi, axes, level)
        return sp, hk.assemble(hk.build_cantor_axis_kernel(
            hk.constant_field(sp, cfg.beta1, T0=1.0)))

    (_, line), (sp, square) = control(1), control(2)
    assert isinstance(square.basis, hk.form._HalfSpectrum)
    m, n = line.domain.size, square.domain.size
    x0 = int(np.argmin(sp.dist_from_coord(sp.meta["corner_zero"])))
    y0 = int(np.argmin(sp.dist_from_coord(sp.meta["corner_e1"])))
    rng = np.random.default_rng(level)
    xs = np.append(rng.integers(0, n, size=200), x0)
    ys = np.append(rng.integers(0, n, size=200), y0)
    xs, ys = xs[xs != ys], ys[xs != ys]
    (a1, a2), (b1, b2) = np.divmod(xs, m), np.divmod(ys, m)
    assert np.allclose(sp.coords[xs], np.hstack([line.space.coords[a1], line.space.coords[a2]]))
    for t in np.logspace(-4.5, 0.5, 11):
        got = square.heat_kernel_entries(t, xs, ys)
        want = line.heat_kernel_entries(t, a1, b1) * line.heat_kernel_entries(t, a2, b2)
        diag = square.heat_kernel_entries(t, np.arange(n), np.arange(n))
        assert np.all(np.abs(got - want) <= 1e-12 * np.sqrt(diag[xs] * diag[ys])), t


def test_diagnostic_profile_matches_per_form_loops():
    # reference: the profile and its control read off the full kernel, one
    # form and one time at a time
    cfg = hk.synthesize_config(4.0, level=3)
    sp = hk.build_cantor_product(cfg.xi, 2, 3)
    form = hk.assemble(hk.build_cantor_axis_kernel(hk.build_counterexample_field(cfg, sp)))
    control = hk.assemble(hk.build_cantor_axis_kernel(
        hk.constant_field(sp, cfg.beta1, T0=1.0)))
    times = np.logspace(-4.5, 0.5, 11)
    rep = hk.due_violation_diagnostic(cfg, times, form=form)
    x0 = int(np.argmin(sp.dist_from_coord(sp.meta["corner_zero"])))
    y0 = int(np.argmin(sp.dist_from_coord(sp.meta["corner_e1"])))
    for key, f, rate in (("series", form, (1.0 + 1.0 / cfg.beta2) * 2 * cfg.alpha_xi / 2.0),
                         ("control_series", control, 2 * cfg.alpha_xi / cfg.beta1)):
        assert [row["t"] for row in rep[key]] == [float(t) for t in times]
        for row, t in zip(rep[key], times):
            # entries sum in another order than the full kernel's panels
            p = f.heat_kernel(float(t))
            bound = 1e-14 * math.sqrt(p[x0, x0] * p[y0, y0])
            assert abs(row["p"] - p[x0, y0]) <= bound
            assert abs(row["r"] - p[x0, y0] * float(t) ** rate) <= bound * float(t) ** rate
