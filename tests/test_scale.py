import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hklab as hk
from conftest import random_setup
from hklab.errors import ParameterError
from hklab.report import canonical_json


def test_phi_values():
    sp = hk.build_two_point()
    field = hk.constant_field(sp, 1.5)
    assert hk.phi(field, 0, 0.25) == pytest.approx(0.125, abs=1e-15)
    assert hk.phi(field, 0, 1.0) == pytest.approx(1.0, abs=0)
    field1 = hk.constant_field(sp, 1.0)
    assert hk.phi(field1, 0, 4.0) == pytest.approx(4.0, abs=0)


def test_phi_beyond_crossover_uses_beta1():
    sp = hk.build_two_point()
    field = hk.field_from_table(sp, [1.0, 1.8], beta1=1.0, beta2=1.8)
    assert hk.phi(field, 1, 4.0) == pytest.approx(4.0)      # r > 1 -> r^beta1
    assert hk.phi(field, 1, 0.5) == pytest.approx(0.5**1.8)


def test_phi_rejects_nonpositive():
    sp = hk.build_two_point()
    field = hk.constant_field(sp, 1.0)
    with pytest.raises(ParameterError):
        hk.phi(field, 0, 0.0)
    with pytest.raises(ParameterError):
        hk.phi_inverse(field, 0, -1.0)


def test_phi_inverse_examples():
    sp = hk.build_two_point()
    field = hk.constant_field(sp, 2.0)
    assert hk.phi_inverse(field, 0, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert hk.phi_inverse(field, 0, 1.0) == pytest.approx(1.0, abs=0)
    field15 = hk.constant_field(sp, 1.5)
    assert hk.phi_inverse(field15, 0, 0.125) == pytest.approx(0.25, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.3, 2.0), r=st.floats(1e-6, 10.0))
def test_phi_roundtrip(beta, r):
    sp = hk.build_two_point()
    field = hk.constant_field(sp, beta)
    t = hk.phi(field, 0, r)
    assert hk.phi_inverse(field, 0, t) == pytest.approx(r, rel=1e-12)
    assert hk.phi(field, 0, hk.phi_inverse(field, 0, t)) == pytest.approx(t, rel=1e-12)


def test_phi_strictly_increasing():
    sp = hk.build_cantor_product(1 / 3, 1, 4)
    field = hk.field_from_table(sp, np.linspace(0.5, 1.5, sp.n_points),
                                beta1=0.5, beta2=1.5)
    radii = np.logspace(-3, 1, 40)
    for x in (0, 5, 15):
        vals = [hk.phi(field, x, r) for r in radii]
        assert np.all(np.diff(vals) > 0)


def test_scale_axioms_constant_field():
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    field = hk.constant_field(sp, 0.8)
    rep = hk.verify_scale_axioms(field, sp, hk.dyadic_radius_grid(sp), np.random.default_rng(0))
    assert rep.passed
    assert rep.witness["C1"] == pytest.approx(1.0, abs=1e-12)
    assert rep.witness["C2"] == pytest.approx(1.0, abs=1e-12)


def test_scale_axioms_counterexample_field():
    cfg = hk.synthesize_config(0.5, level=5)
    sp = hk.build_cantor_product(cfg.xi, 2, 3)
    field = hk.build_counterexample_field(cfg, sp)
    rep = hk.verify_scale_axioms(field, sp, hk.dyadic_radius_grid(sp), np.random.default_rng(0))
    assert rep.passed
    assert math.isfinite(rep.witness["C1"])
    assert rep.witness["C1"] >= 1.0


def test_scale_axioms_flags_lipschitz_violation():
    sp = hk.build_two_point()
    field = hk.field_from_table(sp, [0.5, 1.9], beta1=0.5, beta2=1.9,
                                lipschitz=True)    # jump 1.4 over distance 1
    rep = hk.verify_scale_axioms(field, sp, [0.5, 1.0], np.random.default_rng(0))
    assert rep.passed is False
    assert rep.witness["lipschitz_excess"] > 0


def unstreamed_scale_axioms(scale, space, radius_grid, rng):
    # test oracle: the scan on whole P x P pair matrices that
    # verify_scale_axioms streams in row chunks
    radii = np.asarray(radius_grid, dtype=float)
    n = space.n_points
    if n <= hk.scale._AXIOM_PAIR_SAMPLE:
        pair_idx = np.arange(n)
    else:
        pair_idx = rng.choice(n, size=hk.scale._AXIOM_PAIR_SAMPLE, replace=False)
    phi_vec = hk.scale.phi_vec
    dist = space.dist_block(pair_idx, pair_idx)
    c1, c1_witness = 1.0, {}
    for r in radii:
        vals = phi_vec(scale, pair_idx, float(r))
        ratio = np.where(dist <= r, vals[None, :] / vals[:, None], 0.0)
        k = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[k] > c1:
            c1 = float(ratio[k])
            c1_witness = {"x": int(pair_idx[k[0]]), "y": int(pair_idx[k[1]]), "r": float(r)}
    c2, c2_witness = 1.0, {}
    for a in range(radii.size):
        for b in range(a + 1, radii.size):
            r, big_r = radii[a], radii[b]
            ratio = phi_vec(scale, pair_idx, float(big_r)) / phi_vec(scale, pair_idx, float(r))
            q = big_r / r
            worst = float(max((ratio / q ** scale.beta2).max(), (q ** scale.beta1 / ratio).max()))
            if worst > c2:
                c2, c2_witness = worst, {"r": float(r), "R": float(big_r)}
    c_off = 0.0
    for a in range(radii.size):
        for b in range(a, radii.size):
            r, big_r = radii[a], radii[b]
            vals_r = phi_vec(scale, pair_idx, float(r))
            vals_R = phi_vec(scale, pair_idx, float(big_r))
            bound = ((big_r + dist) / r) ** scale.beta2
            c_off = max(c_off, float((vals_R[None, :] / vals_r[:, None] / bound).max()))
    witness = {"C1": c1, "C2": c2, "C_offpoint": c_off, **c1_witness}
    series = [{"C1": c1, "C2": c2, "C_offpoint": c_off,
               "r": c2_witness.get("r"), "R": c2_witness.get("R")}]
    passed = all(map(math.isfinite, (c1, c2, c_off)))
    if scale.lipschitz:
        beta = scale.beta_values[pair_idx]
        gap = max(0.0, float((np.abs(beta[None, :] - beta[:, None]) - dist).max()))
        witness["lipschitz_excess"] = gap
        passed = passed and gap <= 1e-9
    return c1, witness, series, passed


def _axiom_case(case):
    if case == "tied_product":                          # 256 atoms, maxima tied across chunks
        cfg = hk.synthesize_config(4.0, level=4)
        sp = hk.build_cantor_product(cfg.xi, 2, 4)
        return sp, hk.build_counterexample_field(cfg, sp)
    if case == "sampled_pairs":                         # 1024 atoms, P = 512 sampled
        sp = hk.build_cantor_product(1 / 3, 1, 10)
        anchors = [(0, 0.1, 1.4), (sp.n_points - 1, 0.1, 0.7)]
        return sp, hk.field_from_balls(sp, anchors, 0.7, 1.4)
    sp = hk.build_grid(2, 19)                           # 361 atoms, a ragged last chunk
    values = np.random.default_rng(3).uniform(0.6, 1.6, size=sp.n_points)
    return sp, hk.field_from_table(sp, values, 0.6, 1.6, lipschitz=True)


@pytest.mark.parametrize("case", ["tied_product", "sampled_pairs", "lipschitz_violation"])
def test_streamed_scale_axioms_equal_the_unstreamed_scan(case):
    sp, field = _axiom_case(case)
    radii = hk.dyadic_radius_grid(sp)
    rep = hk.verify_scale_axioms(field, sp, radii, rng=np.random.default_rng(0))
    c1, witness, series, passed = unstreamed_scale_axioms(field, sp, radii,
                                                          np.random.default_rng(0))
    assert canonical_json([rep.best_constant, rep.witness, rep.series, rep.passed]) == \
        canonical_json([c1, witness, series, passed])
    assert "x" in witness
    assert passed is (case != "lipschitz_violation")


def test_scale_axioms_allocate_under_two_square_pair_arrays():
    # 256 atoms, all of them paired; tracemalloc sees numpy's arrays.  The
    # pair scans hold a few row chunks at a time, not the P x P distance,
    # ratio and bound matrices (4.0 square arrays)
    sp, field = _axiom_case("tied_product")
    radii = hk.dyadic_radius_grid(sp)
    rng = np.random.default_rng(0)
    square = sp.n_points**2 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        hk.verify_scale_axioms(field, sp, radii, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * square


def test_quasi_metric_constant_field_exact():
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    for beta in (0.8, 1.3):
        field = hk.constant_field(sp, beta)
        dstar, comp = hk.induced_quasi_metric(field, sp, beta_star=beta)
        assert comp == pytest.approx(1.0, rel=1e-9)
        d = sp.pairwise()
        off = ~np.eye(sp.n_points, dtype=bool)
        assert np.allclose(dstar[off] ** beta, d[off] ** beta, rtol=1e-9)


def test_quasi_metric_two_point():
    sp = hk.build_two_point(gap=0.5)
    field = hk.field_from_table(sp, [0.7, 1.4], beta1=0.7, beta2=1.4)
    dstar, _ = hk.induced_quasi_metric(field, sp, beta_star=1.4)
    rho = max(0.5**0.7, 0.5**1.4) ** (1 / 1.4)
    assert dstar[0, 1] == pytest.approx(rho, rel=1e-12)


def test_quasi_metric_counterexample_field():
    cfg = hk.synthesize_config(0.5, level=4)
    sp = hk.build_cantor_product(cfg.xi, 2, 3)
    field = hk.build_counterexample_field(cfg, sp)
    dstar, comp = hk.induced_quasi_metric(field, sp)   # default beta_star = beta2
    assert math.isfinite(comp) and comp >= 1.0
    # metric axioms of the chain metric
    assert np.allclose(dstar, dstar.T)
    assert np.all(np.diag(dstar) == 0)
    n = sp.n_points
    for k in range(0, n, 7):
        assert np.all(dstar <= dstar[:, [k]] + dstar[[k], :] + 1e-12)


def test_field_from_balls_plateaus():
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    field = hk.field_from_balls(sp, [(0, 0.25, 1.2), ((1.0,), 0.25, 1.0)],
                                beta1=1.0, beta2=1.2)
    d0 = sp.dist_from(0)
    d1 = sp.dist_from_coord([1.0])
    assert np.all(field.beta_values[d0 < 0.25] == pytest.approx(1.2))
    assert np.all(field.beta_values[d1 < 0.25] == pytest.approx(1.0))
    # 1-Lipschitz by construction
    d = sp.pairwise()
    gap = np.abs(field.beta_values[:, None] - field.beta_values[None, :]) - d
    assert gap.max() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_field_from_balls_matches_brute_force_minimum(seed, chunk_budget):
    space, _, _ = random_setup(seed)
    anchors = [(0, 0.3, 1.4), (space.n_points - 1, 0.2, 0.9),
               (tuple(space.coords[space.n_points // 2] + 0.01), 0.25, 1.1)]
    field = hk.field_from_balls(space, anchors, beta1=0.9, beta2=1.4)
    envelopes = []
    for center, radius, value in anchors:
        d_center = (space.dist_from(center) if np.ndim(center) == 0
                    else space.dist_from_coord(center))
        members = np.flatnonzero(d_center < radius)
        dist_to_ball = np.min([space.dist_from(m) for m in members], axis=0)
        envelopes.append(value + dist_to_ball)
    want = np.clip(np.min(envelopes, axis=0), 0.9, 1.4)
    assert np.array_equal(field.beta_values, want)
