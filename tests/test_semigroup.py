import dataclasses
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import hklab as hk
from conftest import full_generator, random_setup, shuffled, split_psi
from hklab.errors import ParameterError
from hklab.form import _DenseBasis, _HalfSpectrum, _interchange_integral, default_time_grid
from hklab.semigroup import _SE_FROM_LRE_T_FRACS, _SE_TIMES_PER_A0


def test_two_point_heat_kernel_closed_form(two_point):
    _, _, form = two_point
    for t in (0.1, 1.0, 10.0):
        p = form.heat_kernel(t)
        assert p[0, 0] == pytest.approx(1 + math.exp(-2 * t), abs=1e-12)
        assert p[0, 1] == pytest.approx(1 - math.exp(-2 * t), abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_heat_kernel_entries_match_full_kernel(seed):
    space, _, kern = random_setup(seed)
    form = hk.assemble(kern)
    part = hk.part_on(form, space.ball(0, space.diameter / 2.0).member_idx)
    rng = np.random.default_rng(seed)
    for f in (form, part):
        n = f.domain.size
        xs = np.concatenate([np.arange(n), rng.integers(0, n, size=64)])
        ys = np.concatenate([np.arange(n), rng.integers(0, n, size=64)])
        for t in (0.0, 0.01, 0.5):
            p = f.heat_kernel(t)
            bound = 1e-14 * np.sqrt(np.diag(p)[xs] * np.diag(p)[ys])
            assert np.all(np.abs(f.heat_kernel_entries(t, xs, ys) - p[xs, ys]) <= bound), t


def test_heat_kernel_t0_and_equilibrium(two_point):
    _, _, form = two_point
    assert np.allclose(form.heat_kernel(0.0), np.diag([2.0, 2.0]), atol=1e-12)
    assert np.allclose(form.heat_kernel(60.0), 1.0, atol=1e-12)


def test_two_point_survival(two_point):
    _, _, form = two_point
    part = hk.part_on(form, [0])
    for t in (0.3, 1.0, 2.5):
        assert hk.survival(part, t)[0] == pytest.approx(math.exp(-t), abs=1e-12)
    assert hk.survival(part, 0.0)[0] == pytest.approx(1.0, abs=1e-14)


def test_survival_nonincreasing(cantor6):
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    part = hk.part_on(form, space.ball(0, 0.4).member_idx)
    times = np.linspace(0.0, 3.0, 16)
    vals = np.array([hk.survival(part, t) for t in times])
    assert np.all(np.diff(vals, axis=0) <= 1e-12)


def test_cantor_product_is_kronecker_sum_of_axes():
    # with a constant field the cantor_axis kernel's off-axis factor m^(n-1)
    # cancels the weights m^-n, so L is the Kronecker sum of the 1-axis
    # generators: p_t factorizes and the spectrum is the sum set
    def form_of(n):
        space = hk.build_cantor_product(1 / 3, n, 5)
        scale = hk.constant_field(space, 0.8, T0=1.0)
        return hk.assemble(hk.build_cantor_axis_kernel(scale))

    line, square = form_of(1), form_of(2)
    assert square.domain.size == 1024
    for t in (0.01, 0.1, 1.0):
        p1 = line.heat_kernel(t)
        oracle = np.kron(p1, p1)
        err = np.abs(square.heat_kernel(t) - oracle).max() / np.abs(oracle).max()
        assert err <= 1e-11, (t, err)
    sums = np.sort((line.eigvals[:, None] + line.eigvals[None, :]).ravel())
    err = np.abs(square.eigvals - sums).max() / np.abs(sums).max()
    assert err <= 1e-11, err


def test_invariant_suite_on_assembled_forms():
    for seed in (0, 1, 3):
        space, _, kern = random_setup(seed)
        form = hk.assemble(kern)
        rep = hk.heat_kernel_invariants(form)
        assert rep.passed, rep.witness



def test_row_sums_tie_the_diagonal_to_the_kernel():
    # summed as assemble sums them, an untouched form's row sums equal its
    # diagonal exactly; a diagonal entry 1% off no kernel residual could see
    space = hk.build_cantor_product(1 / 3, 2, 4)
    form = hk.assemble(hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0)))
    rep = hk.heat_kernel_invariants(form)
    assert rep.passed and rep.series[0]["row_sum"] == 0.0 and "row_sum" not in rep.witness
    diag = form.diag.copy()
    form.diag[5] *= 1.01
    rep = hk.heat_kernel_invariants(form)
    assert rep.passed is False
    assert rep.series[0]["row_sum"] == pytest.approx(
        abs(form.diag[5] - diag[5]) / np.abs(form.diag).max(), rel=1e-12)
    part = hk.part_on(form, space.ball(0, 0.5).member_idx)
    assert "row_sum" not in hk.heat_kernel_invariants(part).series[0]
    with pytest.raises(ParameterError, match="full form"):
        hk.form.row_sum_residual(part)


def _invariants_oracle(form, times=(0.01, 0.1, 1.0, 10.0)):
    # the five residuals from whole kernels laid out from psi, as the check
    # computed them when it held them
    psi = split_psi(form) if isinstance(form.basis, _HalfSpectrum) else form.psi
    w = form.weights

    def kernel(t):
        return (psi * np.exp(-t * form.eigvals)) @ psi.T

    res = dict.fromkeys(["symmetry", "mass", "chapman_kolmogorov", "negativity"], 0.0)
    res["t0_identity"] = np.abs(kernel(0.0) - np.diag(1.0 / w)).max()
    for t in times:
        p, half = kernel(t), kernel(t / 2)
        defect = p @ w - 1.0
        res["symmetry"] = max(res["symmetry"], np.abs(p - p.T).max())
        res["mass"] = max(res["mass"], (defect if form.is_part else np.abs(defect)).max())
        res["negativity"] = max(res["negativity"], (-p).max())
        res["chapman_kolmogorov"] = max(res["chapman_kolmogorov"],
                                        np.abs(p - (half * w) @ half).max())
    return res


def _invariant_forms():
    """A split form, one of the same kernel on shuffled atoms, an unsplit one
    (the two-plateau field fails the reflection gate) and a Dirichlet part of
    the unsplit one."""
    split_space = hk.build_cantor_product(1 / 3, 2, 4)
    split_kernel = hk.build_cantor_axis_kernel(hk.constant_field(split_space, 0.8, T0=1.0))
    space = hk.build_cantor_product(1 / 3, 2, 3)
    field = hk.build_counterexample_field(hk.synthesize_config(4.0, xi=1 / 3, level=3), space)
    unsplit = hk.assemble(hk.build_cantor_axis_kernel(field))
    part = hk.part_on(unsplit, space.ball(0, 0.45).member_idx)
    return {"split": hk.assemble(split_kernel),
            "shuffled_split": hk.assemble(shuffled(split_kernel)),
            "unsplit": unsplit, "part": part}


@pytest.mark.parametrize("panel_rows", [None, (5, 5)], ids=["default_panels", "5_row_panels"])
@pytest.mark.parametrize("case", ["split", "shuffled_split", "unsplit", "part"])
def test_streamed_invariants_match_the_dense_kernel_oracle(monkeypatch, panel_rows, case):
    # the residuals streamed in row panels (each covering atoms of both
    # mirror halves on a split form) against the same residuals of whole
    # kernels built from psi
    if panel_rows:
        monkeypatch.setattr(hk.form, "_PANEL_ROWS", panel_rows)
    form = _invariant_forms()[case]
    split = case in ("split", "shuffled_split")
    assert isinstance(form.basis, _HalfSpectrum) == split
    rep = hk.heat_kernel_invariants(form)
    assert not hasattr(form.basis, "psi") or not split  # the split check laid out no psi
    want = _invariants_oracle(form)
    assert list(rep.witness) == ["symmetry", "mass", "chapman_kolmogorov", "negativity",
                                 "t0_identity"]
    for key, value in want.items():
        assert abs(rep.witness[key] - value) <= 1e-12, key
    assert rep.best_constant == rep.witness["chapman_kolmogorov"]
    assert rep.passed


def _laid_out(form):
    """``form`` with its split spectrum laid out as one dense basis: the same
    eigenvalues and ``psi`` rows, none of the half-block arithmetic."""
    psi = split_psi(form)
    return dataclasses.replace(form, basis=_DenseBasis(form.eigvals, psi, form.weights))


@pytest.mark.parametrize("case", ["cantor_product", "even_grid"])
def test_split_and_dense_layouts_of_one_spectrum_agree(case):
    # a split form against its own spectrum wrapped as a dense basis: every
    # operation of the basis protocol agrees to 1e-12 relative, kernel values
    # relative to the kernel's largest entry
    if case == "cantor_product":
        space = hk.build_cantor_product(1 / 3, 2, 4)
        kern = hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0))
    else:
        space = hk.build_grid(1, 32)
        kern = hk.build_stable_like_kernel(hk.constant_field(space, 0.8, T0=1.0))
    form = hk.assemble(kern)
    assert isinstance(form.basis, _HalfSpectrum)
    dense = _laid_out(form)
    n = space.n_points

    def close(got, want, scale=None):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * (scale or np.abs(want).max())

    rng = np.random.default_rng(9)
    f, F = rng.normal(size=n), rng.normal(size=(n, 3))
    times = [1e-3 / np.abs(form.eigvals).max(), 0.1, 1.0]
    for g in (f, F):
        close(form.apply_semigroup(times, g), dense.apply_semigroup(times, g))
        close(form.resolvent(2.0, g), dense.resolvent(2.0, g))
    atoms = np.arange(n)
    xs, ys = rng.integers(0, n, size=50), rng.integers(0, n, size=50)
    for t in times:
        diag = dense.heat_kernel_entries(t, atoms, atoms)
        close(form.heat_kernel_entries(t, atoms, atoms), diag)
        close(form.heat_kernel_entries(t, xs, ys), dense.heat_kernel_entries(t, xs, ys),
              diag.max())
    split_rep, dense_rep = hk.heat_kernel_invariants(form), hk.heat_kernel_invariants(dense)
    top = float((1.0 / space.weights).max())           # p(0) = W^-1
    assert list(split_rep.witness) == list(dense_rep.witness)
    for key, value in dense_rep.witness.items():
        assert abs(split_rep.witness[key] - value) <= 1e-12 * top, key
    assert split_rep.passed and dense_rep.passed
    assert not hasattr(form.basis, "psi")


# The eigenbasis protocol: all that the spectral operations may read of a basis.
_PROTOCOL = ("eigvals", "entries", "calculus", "panels", "rows", "composed")


def _protocol_cases():
    """A split and a dense form, each with an order field on its space, and
    the Dirichlet part of the split form on B(0, 0.5)."""
    split_space = hk.build_cantor_product(1 / 3, 2, 3)
    split_scale = hk.constant_field(split_space, 0.8, T0=1.0)
    split = hk.assemble(hk.build_cantor_axis_kernel(split_scale))
    space = hk.build_cantor_product(1 / 3, 2, 3)
    field = hk.build_counterexample_field(hk.synthesize_config(4.0, xi=1 / 3, level=3), space)
    return {"split": (split, split_scale),
            "dense": (hk.assemble(hk.build_cantor_axis_kernel(field)), field),
            "part": (hk.part_on(split, split_space.ball(0, 0.5).member_idx), split_scale)}


def _data_only(method):
    """``method``, asserting that it is handed no callable and no indexer tuple."""
    def call(*args, **kwargs):
        for arg in (*args, *kwargs.values()):
            assert not callable(arg) and not isinstance(arg, tuple), arg
        return method(*args, **kwargs)
    return call


@pytest.mark.parametrize("case", ["split", "dense", "part"])
def test_spectral_operations_read_only_the_basis_protocol(case):
    # the form's basis behind an object with the six members of the protocol
    # and nothing else: every spectral operation and checker gives the same
    # bits through it, ``entries`` and ``calculus`` are handed data only, and
    # each panel's rows are the kernel's rows of the atoms it covers, in atom
    # column order.  A new kind of basis has to pass this test
    form, scale = _protocol_cases()[case]
    assert isinstance(form.basis, _HalfSpectrum) == (case == "split")
    assert form.is_part == (case == "part")
    members = {name: getattr(form.basis, name) for name in _PROTOCOL}
    members.update(entries=_data_only(members["entries"]),
                   calculus=_data_only(members["calculus"]))
    bare = dataclasses.replace(form, basis=types.SimpleNamespace(**members))
    n = form.domain.size
    rng = np.random.default_rng(3)
    f, F = rng.normal(size=n), rng.normal(size=(n, 2))
    xs, ys = rng.integers(0, n, size=30), rng.integers(0, n, size=30)
    times = default_time_grid(form)
    for g in (f, F):
        assert np.array_equal(bare.apply_semigroup(times, g), form.apply_semigroup(times, g))
        assert np.array_equal(bare.resolvent(2.0, g), form.resolvent(2.0, g))
    for t in (0.0, 0.1):
        assert np.array_equal(bare.heat_kernel_entries(t, xs, ys),
                              form.heat_kernel_entries(t, xs, ys))
        assert np.array_equal(bare.heat_kernel_entries(t, xs, xs),
                              form.heat_kernel_entries(t, xs, xs))
        assert np.array_equal(bare.heat_kernel(t), form.heat_kernel(t))
    balls = [(0, 0.25), (5, 0.5)]
    checks = [hk.heat_kernel_invariants, hk.conservativeness_check]
    if case != "part":                                 # these two refuse a part
        checks += [lambda g: hk.due_check(g, scale, 1.0, times, np.random.default_rng(0)),
                   lambda g: hk.te_check(g, scale, 1.0, balls, times)]
    for check in checks:
        assert check(bare).to_json() == check(form).to_json()
    p, w = form.heat_kernel(0.1), form.weights
    composed = (p * w) @ p
    covered = []
    for panel, atoms in bare.basis.panels():
        covered.extend(atoms)
        for rows, want in ((bare.basis.rows(panel, 0.1), p[atoms]),
                           (bare.basis.rows(panel, 0.1, mirrored=True), p[:, atoms].T),
                           (bare.basis.composed(panel, 0.1), composed[atoms])):
            assert np.abs(rows - want).max() <= 1e-12 * np.abs(p).max()
    assert sorted(covered) == list(range(n))


_TIME_ENTRY_POINTS = {
    "heat_kernel": lambda form, scale, t: form.heat_kernel(t),
    "heat_kernel_entries": lambda form, scale, t: form.heat_kernel_entries(t, [0, 1], [1, 2]),
    "resolvent": lambda form, scale, t: form.resolvent(t, np.ones(form.domain.size)),
    "apply_semigroup": lambda form, scale, t: form.apply_semigroup(t, np.ones(form.domain.size)),
    "apply_semigroup_grid": lambda form, scale, t: form.apply_semigroup(
        [0.1, t], np.ones(form.domain.size)),
    "heat_kernel_invariants": lambda form, scale, t: hk.heat_kernel_invariants(
        form, times=[0.1, t]),
    "te_check": lambda form, scale, t: hk.te_check(form, scale, 1.0, [(0, 0.25)], [0.1, t]),
    "due_check": lambda form, scale, t: hk.due_check(form, scale, 1.0, [0.1, t],
                                                     np.random.default_rng(0)),
    "truncation_semigroup_check": lambda form, scale, t: hk.truncation_semigroup_check(
        hk.Truncation(form, 0.25), np.ones(form.domain.size), [0.1, t]),
}


def _split_product():
    """The 64-atom product (xi = 1/3, level 3, 2 axes), its constant field
    and its form, which is split."""
    space = hk.build_cantor_product(1 / 3, 2, 3)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    return scale, hk.assemble(hk.build_cantor_axis_kernel(scale))


@pytest.mark.parametrize("entry,t", [
    *((entry, t) for t in (math.nan, -1.0) for entry in _TIME_ENTRY_POINTS),
    ("te_check", 0.0)], ids=lambda v: {-1.0: "negative", 0.0: "zero"}.get(v, str(v)))
def test_spectral_entry_points_refuse_nan_and_negative_times(entry, t):
    # a NaN time passed every comparison guard (the invariants with every
    # residual 0.0, te_check with best constant 0.0, due_check by dropping
    # it), and a negative one grew the semigroup without bound; the
    # resolvent parameter is refused the same way.  te_check divides by
    # each time, and raised ZeroDivisionError at a zero one
    scale, form = _split_product()
    with pytest.raises(ParameterError, match="nonnegative|positive"):
        _TIME_ENTRY_POINTS[entry](form, scale, t)


@pytest.mark.parametrize("entry", [e for e in _TIME_ENTRY_POINTS if e != "resolvent"])
def test_spectral_entry_points_refuse_infinite_times(entry):
    # exp(-inf * 0) is NaN at the zero eigenvalue: the invariants, te_check
    # and the truncation comparison passed with it, and heat_kernel_entries
    # returned NaN; one time rule in ``form`` refuses it everywhere
    scale, form = _split_product()
    with pytest.raises(ParameterError, match="finite"):
        _TIME_ENTRY_POINTS[entry](form, scale, math.inf)


def test_invariants_allocate_less_than_one_square_array():
    # 1024 atoms; tracemalloc sees numpy's arrays.  The check streams the
    # kernel in row panels of the split form's half eigenbases, and of psi
    # on the same form kept whole; it made 5.7 N x N arrays when it held
    # whole kernels
    space = hk.build_cantor_product(1 / 3, 1, 10)
    form = hk.assemble(hk.build_cantor_axis_kernel(
        hk.constant_field(space, 0.8, T0=1.0)))
    n = space.n_points
    for f in (form, _laid_out(form)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rep = hk.heat_kernel_invariants(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < n * n * 8
        assert rep.passed, rep.witness
    assert not hasattr(form.basis, "psi")


def _fails_through_negativity(form):
    rep = hk.heat_kernel_invariants(form)
    assert not rep.passed
    assert rep.witness["negativity"] > 1e-3
    assert max(rep.witness[key] for key in ("symmetry", "mass", "chapman_kolmogorov")) <= 1e-10
    return rep


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("level", [3, 4])
def test_invariants_catch_a_wrong_even_eigenvalue(level, k):
    # one even eigenvalue of a split form 5% off makes the kernel negative
    # somewhere (about 0.006 to 0.05); symmetry, mass and the semigroup
    # property still hold, since they hold for any eigenvalues
    space = hk.build_cantor_product(1 / 3, 2, level)
    form = hk.assemble(hk.build_cantor_axis_kernel(
        hk.constant_field(space, 0.8, T0=1.0)))
    form.basis.factors[0].eigvals[k] *= 1.05                # the even half's
    _fails_through_negativity(form)


def test_invariants_catch_a_wrong_eigenvalue_of_an_unsplit_form():
    form = _invariant_forms()["unsplit"]
    form.eigvals[20] *= 1.05
    _fails_through_negativity(form)


def test_dirichlet_domination(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    D = space.ball(0, 0.45).member_idx
    part = hk.part_on(form, D)
    for t in (0.05, 0.5, 2.0):
        p_full = form.heat_kernel(t)[np.ix_(D, D)]
        p_part = part.heat_kernel(t)
        assert np.all(p_part <= p_full + 1e-10)


def test_se_check_floor_positive(cantor6):
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    rng = np.random.default_rng(0)
    rep = hk.se_check(form, scale, hk.sample_balls(space, 3, [0.25, 0.45], rng))
    assert rep.passed and rep.best_constant > 0
    assert all(row["eps0"] is None or 0 <= row["eps0"] <= 1 for row in rep.series)


def test_te_whole_space_contributes_zero(two_point):
    space, _, form = two_point
    field = hk.constant_field(space, 1.0)
    rep = hk.te_check(form, field, 1.0, [(0, 3.0)], [0.1, 1.0])
    assert rep.best_constant == pytest.approx(0.0, abs=1e-12)


def test_te_two_point_closed_form(two_point):
    space, _, form = two_point
    outside = np.array([0.0, 1.0])       # indicator of the complement of {0}
    for t in (0.05, 0.4):
        val = form.apply_semigroup(t, outside)[0]
        assert val == pytest.approx((1 - math.exp(-2 * t)) / 2, abs=1e-12)


def test_te_small_time_slope_matches_tail_sum(cantor6):
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    ball = space.ball(0, 0.3)
    outside = np.ones(space.n_points)
    outside[ball.member_idx] = 0.0
    t = 1e-4
    # Richardson-extrapolated derivative of P_t 1_{B^c} at t = 0
    s1 = form.apply_semigroup(t, outside) / t
    s2 = form.apply_semigroup(2 * t, outside) / (2 * t)
    slope = 2 * s1 - s2
    probes = ball.member_idx[:4]
    direct = np.array([
        2.0 * sum(kern.j(int(x), y) * space.weights[y]
                  for y in range(space.n_points) if space.dist(0, y) >= 0.3)
        for x in probes])
    assert np.allclose(slope[probes], direct, rtol=5e-3)


def _te_per_ball(form, space, scale, T0, ball_sample, time_grid):
    """te_check's series as it was computed, one apply_semigroup call per ball."""
    series = []
    for x0, r in ball_sample:
        ball = space.ball(x0, r)
        quarter = ball.within(r / 4.0)
        if quarter.size == 0:
            continue
        hits = form.apply_semigroup(time_grid, (ball.dist >= r).astype(float))
        for t, hit in zip(time_grid, hits):
            c = float(hit[quarter].max()) * min(hk.phi(scale, x0, r), T0) / float(t)
            series.append({"x0": x0, "r": r, "t": float(t), "C": c})
    return series


@pytest.mark.parametrize("seed", range(5))
def test_te_batched_matches_per_ball_reference(seed):
    space, scale, kern = random_setup(seed)
    form = hk.assemble(kern)
    rng = np.random.default_rng(seed)
    balls = hk.sample_balls(space, 4, [0.05, 0.2, 0.6], rng)
    times = list(default_time_grid(form))
    rep = hk.te_check(form, scale, 1.0, balls, times)
    ref = _te_per_ball(form, space, scale, 1.0, balls, times)
    assert ref
    assert [{k: v for k, v in row.items() if k != "C"} for row in rep.series] == \
        [{k: v for k, v in row.items() if k != "C"} for row in ref]
    got, want = np.array([row["C"] for row in rep.series]), np.array([row["C"] for row in ref])
    assert np.allclose(got, want, rtol=1e-10, atol=0)
    assert rep.best_constant == pytest.approx(want.max(), rel=1e-10, abs=0)


def test_apply_semigroup_columns_and_vectors():
    # an odd grid has no mirror pairing, so its form keeps the dense psi,
    # whose 1-D expression the single-time call equals bit for bit
    space = hk.build_grid(1, 33)
    form = hk.assemble(hk.build_stable_like_kernel(
        hk.constant_field(space, 0.8, T0=1.0)))
    assert isinstance(form.basis, _DenseBasis)
    F = np.random.default_rng(7).normal(size=(space.n_points, 3))
    times = [0.01, 0.3, 2.0]
    rows = form.apply_semigroup(times, F)
    assert rows.shape == (3, space.n_points, 3)
    for t, row in zip(times, rows):
        for k in range(3):
            f = F[:, k]
            single = form.apply_semigroup(t, f)
            # the 1-D expression, bit for bit
            coef = form.psi.T @ (f * form.weights)
            assert np.array_equal(single, form.psi @ (np.exp(-t * form.eigvals) * coef))
            assert np.allclose(row[:, k], single, rtol=1e-12, atol=1e-14)
    assert form.apply_semigroup(0.3, F).shape == F.shape
    assert form.apply_semigroup([], F).shape == (0, *F.shape)


def test_due_two_point_bounded(two_point):
    space, _, form = two_point
    field = hk.constant_field(space, 1.0)
    for t in (0.1, 0.5, 0.9):
        p = form.heat_kernel(t)
        v = space.volume(0, 1.5)
        assert p[0, 0] * v <= 2.0 + 1e-12
    rep = hk.due_check(form, field, 1.0, [0.1, 0.5, 0.9], np.random.default_rng(0))
    assert rep.passed
    assert rep.witness["sqrt_product_residual"] <= 1e-10


def test_due_plotdata_columns(cantor6):
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    rep = hk.due_check(form, scale, 1.0, [0.02, 0.1, 0.5], np.random.default_rng(0))
    for row in rep.series:
        assert {"t", "p_diag", "due_bound", "ratio"} <= set(row)


def _due_tie_rows(space, scale, kern):
    form = hk.assemble(kern)
    rep = hk.due_check(form, scale, 1.0, default_time_grid(form), np.random.default_rng(0))
    ids = np.arange(space.n_points)
    return rep, [np.diag(form.heat_kernel(row["t"]))
                 * space.volumes_at(hk.phi_inverse(scale, ids, row["t"])) for row in rep.series]


def _tj_tie_rows(space, scale, kern):
    rep = hk.tj_check(kern, scale, hk.dyadic_radius_grid(space))
    jmat, d = kern.matrix(), space.pairwise()
    return rep, [np.where(d >= row["r"], jmat, 0.0) @ space.weights
                 * hk.phi(scale, np.arange(space.n_points), row["r"]) for row in rep.series]


def _cs_tie_rows(space, scale, kern):
    # balls whose cutoff energy ties on mirror atoms; at (51, 1.5) np.argmax
    # took atom 240, the last of its 24-atom tie
    balls = [(34, 1.5), (51, 1.5), (102, 1.0), (136, 1.0)]
    rep = hk.cs_check(kern, scale, balls)
    jmat, w = kern.matrix(), space.weights
    rows = []
    for x0, r in balls:
        cut = space.ball(x0, r).cutoff()
        energy = ((cut[:, None] - cut[None, :]) ** 2 * jmat * w[None, :]).sum(axis=1)
        rows.append(energy * hk.phi(scale, np.arange(space.n_points), r / 4.0))
    return rep, rows


def _ij_tie_rows(space, scale, kern):
    grid = hk.dyadic_radius_grid(space)
    rep = hk.ij_check(kern, scale, 0.5, [(r, R) for r in grid for R in grid if r <= R])
    jmat, d, ids = kern.matrix(), space.pairwise(), np.arange(space.n_points)
    rows = []
    for row in rep.series:
        inner = hk.phi_inverse(scale, ids, row["R"])[:, None]
        vol = space.volumes_at(hk.phi_inverse(scale, ids, row["r"]))
        annulus = np.where((d >= inner) & (d < 2 * inner), jmat, 0.0)
        rows.append(annulus @ (space.weights / np.sqrt(vol)) * row["R"] * np.sqrt(vol))
    return rep, rows


# each check's rows, from the dense kernel or heat kernel, and its value key
_TIE_ROWS = {"due_check": (_due_tie_rows, "C_at_t"), "tj_check": (_tj_tie_rows, "C_at_r"),
             "cs_check": (_cs_tie_rows, "c"), "ij_check": (_ij_tie_rows, "C")}


@pytest.mark.parametrize("check", sorted(_TIE_ROWS))
def test_due_witness_is_the_smallest_atom_of_a_tie(check):
    # mirror atoms of the Cantor product tie in exact arithmetic; the
    # reported atom must not depend on how its value was rounded.  At
    # r = 1/16 np.argmax made atom 180 the tj_check witness, of {68, 75, 180, 187}
    space = hk.build_cantor_product(1 / 3, 2, 4)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    rows_of, key = _TIE_ROWS[check]
    rep, rows = rows_of(space, scale, hk.build_cantor_axis_kernel(scale))
    for row, vals in zip(rep.series, rows, strict=True):
        ties = np.flatnonzero(vals >= vals.max() * (1 - 1e-12))
        assert ties.size > 1 and row["x"] == ties[0]
    assert rep.witness["x"] == max(rep.series, key=lambda row: row[key])["x"]


def test_conservativeness_modes(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    assert hk.conservativeness_check(form).passed
    part = hk.part_on(form, space.ball(0, 0.4).member_idx)
    rep = hk.conservativeness_check(part)
    assert rep.passed is False
    assert any("expected" in n for n in rep.notes)
    zform = hk.assemble(hk.build_zero_kernel(space))
    assert hk.conservativeness_check(zform).passed


def test_rounded_zero_eigenvalues_are_exact_at_huge_times():
    # a rounded zero eigenvalue below 0 made exp(-t lambda) blow up: at t =
    # 1e14 the mass defect was 0.274, at 1e300 it was 1.0, and the Meyer
    # comparison overflowed
    space = hk.build_cantor_product(1 / 3, 2, 3)
    kern = hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0))
    form = hk.assemble(kern)
    assert form.eigvals[0] == 0.0
    for t in (1e14, 1e300):
        assert hk.conservativeness_check(form, [t]).passed
    assert hk.heat_kernel_invariants(form, times=[1e300]).passed
    D = space.ball(0, space.diameter / 2.0).member_idx
    assert hk.meyer_check(hk.Truncation(form, space.diameter / 4.0), D, 1e300).passed


def test_truncation_l2_two_point_sharp(two_point):
    space, kern, form = two_point
    rep = hk.truncation_l2_check(hk.Truncation(form, 0.5))
    assert rep.params == {"rho": 0.5}
    assert rep.witness["sup_eigenvalue"] == pytest.approx(2.0, abs=1e-12)
    assert rep.witness["bound"] == pytest.approx(2.0, abs=1e-12)
    assert rep.witness["margin"] >= -1e-9


def test_truncation_l2_top_eigenvalue_matches_eigh(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    sqrt_w = np.sqrt(space.weights)
    for rho in (0.05, 0.25):
        trunc = hk.Truncation(form, rho)
        sym = (sqrt_w[:, None] * (full_generator(form) - full_generator(trunc.near))
               / sqrt_w[None, :])
        top = np.linalg.eigh(0.5 * (sym + sym.T))[0][-1]
        rep = hk.truncation_l2_check(trunc)
        assert top > 0 and abs(rep.best_constant - top) <= 1e-13 * top


def test_truncation_l2_rho_beyond_diameter(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    rep = hk.truncation_l2_check(hk.Truncation(form, 2.0))
    assert rep.witness["sup_eigenvalue"] == pytest.approx(0.0, abs=1e-10)
    assert rep.witness["bound"] == pytest.approx(0.0, abs=1e-12)


def test_truncation_semigroup_zero_function(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    rep = hk.truncation_semigroup_check(hk.Truncation(form, 0.2),
                                        np.zeros(space.n_points), [0.1, 1.0])
    assert all(row["diff"] == 0.0 and row["bound"] == 0.0
               for row in rep.series if "diff" in row)


def test_truncation_semigroup_rho_beyond_diameter(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    f = (space.dist_from(0) < 0.25).astype(float)
    rep = hk.truncation_semigroup_check(hk.Truncation(form, 2.0), f, [0.1, 1.0])
    assert all(row["diff"] <= 1e-12 for row in rep.series if "diff" in row)
    assert rep.witness["far_tail"] == 0.0


def test_truncation_semigroup_indicator(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    f = (space.dist_from(0) < 0.25).astype(float)
    times = np.logspace(-2, 0.5, 7)
    rep = hk.truncation_semigroup_check(hk.Truncation(form, 0.125), f, times,
                                        wider=hk.Truncation(form, 0.25))
    assert rep.passed and rep.params["rho"] == 0.125
    assert rep.witness["worst_margin"] >= -1e-9
    assert rep.witness["nested_margin"] >= -1e-9


def test_truncation_semigroup_rejects_signed_function(two_point):
    space, kern, form = two_point
    with pytest.raises(ParameterError):
        hk.truncation_semigroup_check(hk.Truncation(form, 0.5),
                                      np.array([1.0, -1.0]), [0.1])


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_truncation_semigroup_rejects_a_non_finite_function(two_point, value):
    # a NaN used to pass with worst_margin inf, since min(inf, nan) is inf
    space, kern, form = two_point
    with pytest.raises(ParameterError, match="finite"):
        hk.truncation_semigroup_check(hk.Truncation(form, 0.5), np.array([1.0, value]), [0.1])


def test_nested_truncation_takes_the_same_form_at_a_larger_rho(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    trunc = hk.Truncation(form, 0.125)
    f = np.ones(space.n_points)
    # passed swapped (rho 0.25 as the near form, 0.125 as the wider one), the
    # nested comparison used to fail here with nested_margin -0.150 instead
    # of refusing its input
    for wider in (hk.Truncation(form, 0.0625), hk.Truncation(form, 0.125),
                  hk.Truncation(hk.assemble(kern), 0.25)):
        with pytest.raises(ParameterError, match="same form"):
            hk.truncation_semigroup_check(trunc, f, [0.1], wider=wider)
    rep = hk.truncation_semigroup_check(trunc, f, [0.1], wider=hk.Truncation(form, 0.25))
    assert rep.witness["nested_margin"] >= -1e-9


def test_meyer_two_point_duhamel_identity(two_point):
    space, kern, form = two_point
    trunc = hk.Truncation(form, 0.5)
    for t in (0.2, 0.5, 1.0):
        rep = hk.meyer_check(trunc, [0, 1], t)
        assert rep.params["rho"] == 0.5
        assert rep.passed, rep.witness
        assert rep.witness["identity_residual"] <= 1e-6
        assert rep.witness["upper_margin"] >= -1e-6
        assert rep.witness["lower_margin"] >= -1e-6


def test_meyer_single_coefficient_variant_fails_on_two_point(two_point):
    # the interchange term enters the exact identity with weight two, so the
    # weight-one upper comparison is genuinely false on far-dominated kernels
    space, kern, form = two_point
    rep = hk.meyer_check(hk.Truncation(form, 0.5), [0, 1], 0.2)
    assert rep.witness["upper1_margin"] < -0.1


def test_meyer_far_zero_control(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    trunc = hk.Truncation(form, 2.0)       # rho beyond the diameter
    D = space.ball(0, 0.5).member_idx
    rep = hk.meyer_check(trunc, D, 0.5)
    assert rep.witness["identity_residual"] <= 1e-10
    p_full = hk.part_on(form, D).heat_kernel(0.5)
    p_near = hk.part_on(trunc.near, D).heat_kernel(0.5)
    assert np.allclose(p_full, p_near, atol=1e-10)


def test_meyer_lower_below_upper_reconstruction(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    D = space.ball(0, 0.5).member_idx
    rep = hk.meyer_check(hk.Truncation(form, 0.25), D, 0.4)
    # lower reconstruction <= p_D <= upper reconstruction
    assert rep.witness["lower_margin"] + rep.witness["upper_margin"] >= -2e-6


def test_meyer_interchange_matches_van_loan_block_exponential():
    # int_0^t e^{-s A} S e^{-(t-s) B} ds is the upper-right block of
    # expm(t [[-A, S], [0, -B]]) (Van Loan 1978); kernels carry 1/mu(y)
    space = hk.build_cantor_product(1 / 3, 1, 7)          # 128 atoms
    field = hk.constant_field(space, 0.8, T0=1.0)
    kern = hk.build_cantor_axis_kernel(field)
    form = hk.assemble(kern)
    trunc = hk.Truncation(form, 1 / 8)
    D = space.ball(0, 0.5).member_idx
    part_near, part_full = hk.part_on(trunc.near, D), hk.part_on(form, D)
    w = space.weights[D]
    S = trunc.far.block(D, D) * w[None, :]
    n = D.size
    # each part's L_D = W^(-1/2) S_D W^(1/2)
    A, B = (np.sqrt(w)[None, :] * part.S / np.sqrt(w)[:, None] for part in (part_near, part_full))
    gen = np.zeros((2 * n, 2 * n))
    gen[:n, :n], gen[:n, n:], gen[n:, n:] = -A, S, -B
    for t in (0.2, 0.5, 1.0):
        oracle = scipy.linalg.expm(t * gen)[:n, n:] / w[None, :]
        closed = _interchange_integral(part_near, part_full, S, t)
        assert np.abs(closed - oracle).max() <= 1e-12 * np.abs(oracle).max(), t
        rep = hk.meyer_check(trunc, D, t)
        assert rep.witness["identity_residual"] <= 1e-12, (t, rep.witness)


def test_se_from_lre_chain_margins(cantor6):
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    rng = np.random.default_rng(4)
    balls = hk.sample_balls(space, 3, [0.2, 0.45], rng)
    rep = hk.se_from_lre_chain(form, scale, 1.0, balls)
    assert rep.passed
    assert rep.witness["worst_margin"] >= -1e-9


def test_recursion_limit_fixed_point():
    # oracle: p = 1 + sqrt(p)/2 + p/2  =>  p - sqrt(p) - 2 = 0  =>  sqrt(p) = 2
    assert hk.recursion_limit(1.0, 0.5, 0.5) == pytest.approx(4.0, abs=1e-10)
    assert hk.recursion_limit(0.0, 0.5, 0.5) == pytest.approx(0.0, abs=1e-10)
    assert hk.recursion_limit(2.0, 1e-9, 1e-9) == pytest.approx(2.0, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.1, 50.0), kappa=st.floats(0.01, 100.0),
       a=st.floats(0.05, 0.95), b=st.floats(0.05, 0.9))
def test_recursion_limit_homogeneous_in_q(q, kappa, a, b):
    lim1 = hk.recursion_limit(q, a, b)
    lim2 = hk.recursion_limit(kappa * q, a, b)
    assert lim2 == pytest.approx(kappa * lim1, rel=1e-6)


def test_recursion_rejects_bad_contraction():
    with pytest.raises(ParameterError):
        hk.recursion_limit(1.0, 1.0, 0.5)


def test_apply_semigroup_time_sequence_matches_single_times(cantor6):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    f = np.random.default_rng(4).normal(size=space.n_points)
    times = [0.01, 0.3, 2.0]
    rows = form.apply_semigroup(times, f)
    assert rows.shape == (3, space.n_points)
    for t, row in zip(times, rows):
        assert np.array_equal(row, form.apply_semigroup(t, f))
    assert form.apply_semigroup(np.array([]), f).shape[0] == 0


# ---------------------------------------------------------------------------
# The per-time loops the checkers ran before they made one semigroup call per
# time grid.  They stay here as references: the checkers must reproduce them
# bit for bit (compared through float repr, which also tells -0.0 from 0.0).
# ---------------------------------------------------------------------------

def _bits(value) -> str:
    return json.dumps(value)


@pytest.fixture
def cantor_2x3():
    space = hk.build_cantor_product(1 / 3, 2, 3)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    kern = hk.build_cantor_axis_kernel(scale)
    form = hk.assemble(kern)
    balls = hk.sample_balls(space, 4, hk.dyadic_radius_grid(space)[-3:],
                            np.random.default_rng(3))
    return space, scale, kern, form, balls


def _quarter_ball_parts(form, space, scale, ball_sample):
    for x0, r in ball_sample:
        if hk.phi(scale, x0, r) >= scale.T0:
            continue
        ball = space.ball(x0, r)
        quarter_mask = space.dist_from(x0)[ball.member_idx] < r / 4.0
        if quarter_mask.any():
            yield x0, r, hk.part_on(form, ball.member_idx), quarter_mask


def _ones_per_time(part, t):
    return part.apply_semigroup(t, np.ones(part.domain.size))


def _conservativeness_per_time(form, time_grid):
    worst = 0.0
    for t in time_grid:
        worst = max(worst, float(np.abs(_ones_per_time(form, float(t)) - 1.0).max()))
    return worst


def _se_curve_per_time(form, space, scale, ball_sample, a0_grid):
    balls = list(_quarter_ball_parts(form, space, scale, ball_sample))
    curve = []
    for a0 in a0_grid:
        eps0 = math.inf
        for x0, r, part, quarter_mask in balls:
            horizon = a0 * hk.phi(scale, x0, r)
            for frac in np.linspace(1.0 / _SE_TIMES_PER_A0, 1.0, _SE_TIMES_PER_A0):
                surv = _ones_per_time(part, frac * horizon)
                eps0 = min(eps0, float(surv[quarter_mask].min()))
        curve.append({"a0": float(a0), "eps0": (None if eps0 is math.inf else eps0)})
    return curve


def _se_from_lre_series_per_time(form, space, scale, kappa, ball_sample):
    series = []
    for x0, r, part, quarter_mask in _quarter_ball_parts(form, space, scale, ball_sample):
        u = part.resolvent(kappa / hk.phi(scale, x0, r), np.ones(part.domain.size))
        u_min, u_max = float(u[quarter_mask].min()), float(u.max())
        for frac in _SE_FROM_LRE_T_FRACS:
            t = frac * u_min / 2.0
            surv = _ones_per_time(part, t)
            series.append({"x0": x0, "r": r, "t": t,
                           "margin": float(surv[quarter_mask].min() - (u_min - t) / u_max)})
    return series


def _truncation_series_per_time(form_full, form_near, f, time_grid, form_near_wider=None):
    L_full, L_near = full_generator(form_full), full_generator(form_near)
    tail = float((0.5 * np.diag(L_full - L_near)).max())
    fmax = float(f.max(initial=0.0))
    series = []
    for t in time_grid:
        t = float(t)
        diff = float(np.abs(form_full.apply_semigroup(t, f)
                            - form_near.apply_semigroup(t, f)).max())
        bound = 2.0 * t * fmax * tail
        series.append({"t": t, "diff": diff, "bound": bound, "margin": bound - diff})
    if form_near_wider is not None:
        tail_gap = float((0.5 * np.diag(L_full - L_near)
                          - 0.5 * np.diag(L_full - full_generator(form_near_wider))).max())
        for t in time_grid:
            t = float(t)
            diff = float(np.abs(form_near_wider.apply_semigroup(t, f)
                                - form_near.apply_semigroup(t, f)).max())
            series.append({"t": t, "nested_diff": diff,
                           "margin": 2.0 * t * fmax * tail_gap - diff})
    return tail, series


def test_conservativeness_matches_per_time_loop(cantor_2x3):
    space, _, _, form, _ = cantor_2x3
    part = hk.part_on(form, space.ball(0, 0.4).member_idx)
    for f, grid in ((form, (0.01, 0.1, 1.0, 10.0)), (form, default_time_grid(form)),
                    (part, [0.05, 0.5, 5.0]), (part, [])):
        worst = _conservativeness_per_time(f, grid)
        rep = hk.conservativeness_check(f, grid)
        assert _bits(rep.best_constant) == _bits(worst)
        assert _bits(rep.witness) == _bits({"max_defect": worst})


def test_se_check_matches_per_time_loop(cantor_2x3):
    space, scale, _, form, balls = cantor_2x3
    for a0_grid in ((0.125, 0.25, 0.5), np.array([0.3, 1.7]), ()):
        rep = hk.se_check(form, scale, balls, a0_grid=a0_grid)
        curve = _se_curve_per_time(form, space, scale, balls, a0_grid)
        assert all(row["eps0"] is not None for row in curve)
        assert len(curve) == len(a0_grid) and _bits(rep.series) == _bits(curve)


def test_se_from_lre_chain_matches_per_time_loop(cantor_2x3):
    space, scale, _, form, balls = cantor_2x3
    for kappa in (1.0, 0.25):
        rep = hk.se_from_lre_chain(form, scale, kappa, balls)
        series = _se_from_lre_series_per_time(form, space, scale, kappa, balls)
        assert series and _bits(rep.series) == _bits(series)
        assert _bits(rep.best_constant) == _bits(min(row["margin"] for row in series))


def test_truncation_semigroup_matches_per_time_loop(cantor_2x3):
    space, _, kern, form, _ = cantor_2x3
    trunc, trunc_wider = hk.Truncation(form, 0.125), hk.Truncation(form, 0.5)
    assert np.array_equal(trunc.tail,
                          0.5 * np.diag(full_generator(form) - full_generator(trunc.near)))
    f = (space.dist_from(0) < 0.25) + 0.5 * space.weights * space.n_points
    for grid in (default_time_grid(form), [0.5, 0.01], []):
        for wider in (None, trunc_wider):
            rep = hk.truncation_semigroup_check(trunc, f, grid, wider=wider)
            tail, series = _truncation_series_per_time(
                form, trunc.near, f, grid, None if wider is None else wider.near)
            assert _bits(rep.series) == _bits(series)
            assert _bits(rep.witness["far_tail"]) == _bits(tail)
