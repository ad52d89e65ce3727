import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hklab as hk
from conftest import dense_kernel, full_generator, random_setup, shuffled, split_psi
from hklab.errors import ParameterError, PointCapExceeded
from hklab.form import (_DenseBasis, _generator_blocks, _HalfSpectrum, _part_generator,
                        _quantile, _reflection_blocks, _symmetric_generator)
from hklab.kernel import _tail_masses


def energy_oracle(space, kern, f):
    # plain ordered-pair double sum, independent of the assembled generator
    total = 0.0
    for x in range(space.n_points):
        for y in range(space.n_points):
            total += (f[x] - f[y]) ** 2 * kern.j(x, y) * space.weights[x] * space.weights[y]
    return total


def test_assemble_two_point(two_point):
    space, kern, form = two_point
    assert np.allclose(full_generator(form), [[1.0, -1.0], [-1.0, 1.0]])
    f = np.array([1.0, 0.0])
    assert form.energy(f) == pytest.approx(0.5, abs=1e-14)
    assert form.energy(f) == pytest.approx(energy_oracle(space, kern, f), abs=1e-14)


def test_assemble_constant_function_energy_zero(two_point):
    _, _, form = two_point
    c = np.full(2, 3.7)
    assert form.energy(c) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(full_generator(form) @ c, 0.0, atol=1e-12)


def test_assemble_zero_kernel():
    sp = hk.build_grid(1, 4)
    form = hk.assemble(hk.build_zero_kernel(sp))
    assert np.abs(full_generator(form)).max() == 0.0


def test_assemble_rejects_asymmetric_kernel():
    sp = hk.build_grid(1, 3)
    bad = hk.JumpKernel(sp, lambda rows, cols: (rows[:, None] + 2.0 * cols[None, :]))
    with pytest.raises(ParameterError, match="symmetric"):
        hk.assemble(bad)


def test_quadratic_form_identity_random_functions():
    rng = np.random.default_rng(3)
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    field = hk.constant_field(sp, 0.8)
    kern = hk.build_cantor_axis_kernel(field)
    form = hk.assemble(kern)
    jmat = kern.matrix()
    w = sp.weights
    for _ in range(50):
        f = rng.normal(size=sp.n_points)
        double_sum = float(((f[:, None] - f[None, :]) ** 2 * jmat
                            * w[:, None] * w[None, :]).sum())
        assert form.energy(f) == pytest.approx(double_sum, rel=1e-10, abs=1e-10)


def test_part_two_point(two_point):
    _, _, form = two_point
    part = hk.part_on(form, [0])
    assert part.S == pytest.approx(np.array([[1.0]]))
    assert hk.lambda1(form, [0]) == pytest.approx(1.0, abs=1e-12)
    # Rayleigh quotient over vectors supported on D
    f = np.array([2.5, 0.0])
    quotient = form.energy(f) / (f[0] ** 2 * 0.5)
    assert quotient == pytest.approx(1.0, abs=1e-12)


def test_part_full_space_lambda_zero(two_point):
    _, _, form = two_point
    assert hk.lambda1(form, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_part_disjoint_components_spectrum_union():
    g = hk.build_grid(1, 12)
    kern = hk.build_nearest_neighbor_kernel(g)
    form = hk.assemble(kern)
    d1 = np.array([0, 1, 2])
    d2 = np.array([8, 9, 10])           # separated by more than one spacing
    both = hk.part_on(form, np.concatenate([d1, d2]))
    merged = np.sort(np.concatenate([hk.part_on(form, d1).eigvals,
                                     hk.part_on(form, d2).eigvals]))
    assert np.allclose(np.sort(both.eigvals), merged, atol=1e-10)


def test_lambda1_is_rayleigh_infimum():
    rng = np.random.default_rng(5)
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    field = hk.constant_field(sp, 0.8)
    form = hk.assemble(hk.build_cantor_axis_kernel(field))
    D = sp.ball(0, 0.4).member_idx
    part = hk.part_on(form, D)
    lam = part.eigvals[0]
    w = sp.weights[D]
    for _ in range(25):
        f = rng.normal(size=D.size)
        assert part.energy(f) / float(f**2 @ w) >= lam - 1e-10
    ground = part.psi[:, 0]
    assert part.energy(ground) == pytest.approx(lam, rel=1e-10)


def test_domain_monotonicity_of_lambda1():
    sp = hk.build_cantor_product(1 / 3, 1, 6)
    field = hk.constant_field(sp, 0.8)
    form = hk.assemble(hk.build_cantor_axis_kernel(field))
    for r_small, r_big in [(0.1, 0.3), (0.3, 0.7), (0.05, 0.9)]:
        small = sp.ball(0, r_small).member_idx
        big = sp.ball(0, r_big).member_idx
        assert hk.lambda1(form, small) >= hk.lambda1(form, big) - 1e-12


def test_resolvent_examples(two_point):
    _, _, form = two_point
    part = hk.part_on(form, [0])
    assert part.resolvent(1.0, np.ones(1))[0] == pytest.approx(0.5, abs=1e-14)
    # full space: u = 1/lam exactly
    for lam in (0.5, 3.0):
        u = form.resolvent(lam, np.ones(2))
        assert np.allclose(u, 1.0 / lam, atol=1e-12)
    # lam -> inf: lam * G 1 -> 1; defect shrinks ~10x from 1e3 to 1e4
    d3 = np.abs(1e3 * part.resolvent(1e3, np.ones(1)) - 1.0).max()
    d4 = np.abs(1e4 * part.resolvent(1e4, np.ones(1)) - 1.0).max()
    assert d4 < d3 / 5


def test_resolvent_contraction_bound():
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    field = hk.constant_field(sp, 0.8)
    form = hk.assemble(hk.build_cantor_axis_kernel(field))
    for r in (0.2, 0.5):
        D = sp.ball(3, r).member_idx
        part = hk.part_on(form, D)
        for lam in (0.1, 1.0, 10.0):
            u = lam * part.resolvent(lam, np.ones(D.size))
            assert u.min() >= -1e-12
            assert u.max() <= 1.0 + 1e-10


def _form16():
    space = hk.build_cantor_product(1 / 3, 1, 4)
    return hk.assemble(hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8)))


@pytest.mark.parametrize("xs,ys", [([-1], [0]), ([16], [0]), ([0], [0, 1, 2]),
                                   ([0, 1, 2], [0]), ([0.0], [0]), (0, 0)])
def test_heat_kernel_entries_refuses_bad_atom_ids(xs, ys):
    # on 16 atoms, [-1], [0] used to return p(t, 15, 0), [0], [0, 1, 2] one
    # value, and [0, 1, 2], [0] a bare IndexError
    form = _form16()
    with pytest.raises(ParameterError):
        form.heat_kernel_entries(0.1, xs, ys)
    part = hk.part_on(form, np.arange(5))
    with pytest.raises(ParameterError, match=r"0\.\.4"):
        part.heat_kernel_entries(0.1, [5], [0])
    assert form.heat_kernel_entries(0.1, [], []).shape == (0,)


@pytest.mark.parametrize("shape", [(15,), (17,), (15, 3), ()])
def test_calculus_refuses_a_function_off_the_domain(shape):
    # a 15-entry f on 16 atoms used to raise numpy's broadcast ValueError
    form = _form16()
    part = hk.part_on(form, np.arange(5))
    f = np.ones(shape)
    for refused in (lambda: form.apply_semigroup(0.1, f), lambda: form.apply_semigroup([0.1], f),
                    lambda: form.resolvent(1.0, f), lambda: part.resolvent(1.0, np.ones(16))):
        with pytest.raises(ParameterError, match="entries along its first axis"):
            refused()


def test_energy_refuses_a_function_of_the_wrong_length():
    # numpy's broadcast error on the full form and a matmul core-dimension
    # error on a part, before
    space = hk.build_cantor_product(1 / 3, 2, 3)
    form = hk.assemble(hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0)))
    part = hk.part_on(form, np.arange(4))
    for refused in (lambda: form.energy(np.ones(3)), lambda: form.energy(np.ones((2, 63))),
                    lambda: form.energy(1.0), lambda: part.energy(np.ones(5)),
                    lambda: part.energy(np.ones((2, 2, 4)))):
        with pytest.raises(ParameterError, match="4 entries along its last axis|64 entries"):
            refused()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_markovian_clamp_contraction(seed):
    rng = np.random.default_rng(seed)
    sp = hk.build_grid(1, 10)
    field = hk.constant_field(sp, 1.0)
    form = hk.assemble(hk.build_stable_like_kernel(field))
    f = rng.normal(scale=2.0, size=sp.n_points)
    clamped = np.clip(f, 0.0, 1.0)
    assert form.energy(clamped) <= form.energy(f) + 1e-12


def test_ball_cutoff_and_quarter():
    sp = hk.build_grid(1, 21)
    for x0, r in ((0, 0.6), (7, 0.4), (3, 1)):
        ball = sp.ball(x0, r)
        d = sp.dist_from(x0)
        cut = ball.cutoff()
        # the cutoff formula the ball checkers used, plateau r/2 and ramp r/4
        assert _same_bits(cut, np.clip(1.0 - (d - r / 2.0) / (r / 4.0), 0.0, 1.0))
        assert np.all(cut[d <= r / 2.0] == 1.0)
        assert np.all(cut[d >= 0.75 * r] == 0.0)
        assert 0.0 < cut[np.argmin(np.abs(d - 0.625 * r))] < 1.0
        assert ball.quarter.dtype == bool and ball.quarter.shape == ball.member_idx.shape
        assert ball.member_idx[ball.quarter].tolist() == ball.within(r / 4).tolist()


def test_lre_whole_space_ratio(two_point):
    space, _, form = two_point
    field = hk.constant_field(space, 1.0)
    for kappa in (0.5, 1.0, 4.0):
        rep = hk.lre_check(form, field, kappa, [(0, 2.0)])
        assert rep.best_constant == pytest.approx(1.0 / kappa, rel=1e-12)


def test_lre_positive_on_cantor_instance(cantor6):
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    balls = [(0, 0.25), (13, 0.25), (40, 0.125)]
    rep = hk.lre_check(form, scale, 1.0, balls)
    assert rep.passed
    assert rep.best_constant > 0
    assert len(rep.series) == len(balls)


def test_lre_zero_kernel_degenerate():
    sp = hk.build_grid(1, 8)
    field = hk.constant_field(sp, 1.0)
    form = hk.assemble(hk.build_zero_kernel(sp))
    rep = hk.lre_check(form, field, 1.0, [(0, 0.9)])
    assert rep.best_constant == pytest.approx(1.0, rel=1e-12)   # u = 1/lam
    assert any("zero" in n for n in rep.notes)


def test_lre_skips_empty_quarter_ball():
    sp = hk.build_grid(1, 9)
    field = hk.constant_field(sp, 1.0)
    form = hk.assemble(hk.build_nearest_neighbor_kernel(sp))
    spacing = sp.meta["spacing"]
    rep = hk.lre_check(form, field, 1.0, [(4, 2.0 * spacing)])
    # quarter radius spacing/2 only contains the center itself -> usable
    assert rep.series


def test_cs_check_edge_cases(cantor6):
    space, scale, kern = cantor6
    rep = hk.cs_check(hk.build_zero_kernel(space), scale, [(0, 0.4)])
    assert rep.best_constant == 0.0
    # cutoff identically 1: plateau covers the space
    rep_one = hk.cs_check(kern, scale, [(0, 4.0)])
    assert rep_one.best_constant == 0.0
    rep_real = hk.cs_check(kern, scale, [(0, 0.25), (9, 0.5)])
    assert math.isfinite(rep_real.best_constant) and rep_real.best_constant > 0


def test_capacity_check_cases(two_point, cantor6):
    space2, kern2, _ = two_point
    field2 = hk.constant_field(space2, 1.0)
    rep = hk.capacity_check(kern2, field2, [(0, 3.0)])
    assert rep.best_constant == pytest.approx(0.0, abs=1e-14)   # cutoff constant 1

    space, scale, kern = cantor6
    assert hk.capacity_check(hk.build_zero_kernel(space), scale,
                             [(0, 0.3)]).best_constant == 0.0
    rep6 = hk.capacity_check(kern, scale, [(0, 0.25), (13, 0.25)])
    assert math.isfinite(rep6.best_constant) and rep6.best_constant > 0


def test_a_nan_sweep_fails_and_a_zero_one_passes():
    # the extremum passes NaN over, so a NaN kernel gave best 0.0, witness {}
    # and a pass; a zero kernel's rows are all 0.0, which is finite
    space = hk.build_cantor_product(1 / 3, 1, 3)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    nan = hk.JumpKernel(space, lambda rows, cols: np.full((rows.size, cols.size), np.nan))
    for check, key in ((hk.cs_check, "c"), (hk.capacity_check, "C")):
        rep = check(nan, scale, [(0, 0.5)])
        assert rep.passed is False and rep.notes == [f"1 of 1 rows have a non-finite {key}"]
        assert math.isnan(rep.series[0][key])
        zero = check(hk.build_zero_kernel(space), scale, [(0, 0.5)])
        assert zero.passed is True and zero.best_constant == 0.0 and zero.notes == []


def test_checks_that_measure_nothing_do_not_pass(cantor6):
    # no ball, or no time below k T0: an empty series, a note, and no pass
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    times = [0.1, 0.5]
    reports = [hk.cs_check(kern, scale, []),
               hk.capacity_check(kern, scale, []),
               hk.te_check(form, scale, 1.0, [], times),
               hk.due_check(form, scale, 1.0, times, k=0.05,
                            rng=hk.Stream(0))]
    for rep in reports:
        assert rep.series == [] and rep.passed is False and rep.notes, rep.condition


def test_capacity_stable_across_levels():
    vals = []
    for lvl in (5, 6):
        sp = hk.build_cantor_product(1 / 3, 1, lvl)
        field = hk.constant_field(sp, 0.8, T0=1.0)
        kern = hk.build_cantor_axis_kernel(field)
        rep = hk.capacity_check(kern, field, [(0, 0.25)])
        vals.append(rep.best_constant)
    assert abs(vals[1] - vals[0]) / vals[0] <= 0.25


def test_fk_ball_itself_reduces_to_lambda_phi(cantor6):
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    x0, r = 0, 0.25
    rep = hk.fk_family_check(form, scale, "FK", 0.5, 1.0, 1.0, 0.5,
                             [(x0, r)], hk.Stream(0))
    ball = space.ball(x0, r)
    direct = hk.lambda1(form, ball.member_idx) * hk.phi(scale, x0, r)
    whole_rows = [row for row in rep.series if row["size_D"] == ball.member_idx.size]
    assert whole_rows and whole_rows[0]["C"] == pytest.approx(direct, rel=1e-10)


def test_fk_two_point_closed_form(two_point):
    space, _, form = two_point
    field = hk.constant_field(space, 1.0)
    nu = 0.7
    rep = hk.fk_family_check(form, field, "FK", nu, 1.0, 1.0, 0.5, [(0, 2.0)],
                             hk.Stream(0))
    # subset {atom 0} inside the whole-space ball: lambda1 = 1, V/mu(D) = 2
    expected = 1.0 * hk.phi(field, 0, 2.0) / 2.0**nu
    singles = [row["C"] for row in rep.series if row["size_D"] == 1]
    assert singles and min(singles) == pytest.approx(expected, rel=1e-10)
    # the whole compact space as a subset has lambda1 = 0: the display can
    # only hold there with C = 0, and the sweep reports exactly that
    whole = [row["C"] for row in rep.series if row["size_D"] == 2]
    assert whole and whole[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("sample", [[], [(0, 0.25)]], ids=["no_balls", "one_ball"])
def test_fk_family_check_refuses_an_unknown_variant_before_it_sweeps(cantor6, sample):
    # "wfk" used to give a fail report for condition fk_wfk on an empty sample
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    with pytest.raises(ParameterError, match="unknown variant 'wfk'"):
        hk.fk_family_check(form, scale, "wfk", 0.5, 1.0, 1.0, 0.5, sample,
                           hk.Stream(0))


@pytest.mark.parametrize("T0", [1.0, math.inf])
@pytest.mark.parametrize("delta", [0.0, -1.0])
def test_fk_and_wfk_refuse_a_nonpositive_delta_at_every_horizon(T0, delta):
    # refused by name before the sweep, an empty sample too; with T0 = inf
    # they used to skip the radius cap and pass without a word, and then to
    # fail in phi_inverse, which did not name delta
    space = hk.build_cantor_product(1 / 3, 1, 5)
    scale = hk.constant_field(space, 0.8, T0=T0)
    form = hk.assemble(hk.build_cantor_axis_kernel(scale))
    for variant in ("FK", "WFK"):
        for sample in ([(0, 0.25)], []):
            with pytest.raises(ParameterError, match=f"delta must be positive for {variant}"):
                hk.fk_family_check(form, scale, variant, 0.5, 1.0, 1.0, delta, sample,
                                   hk.Stream(0))
    # GFK reads no delta
    rep = hk.fk_family_check(form, scale, "GFK", 0.5, 1.0, 1.0, delta, [(0, 0.25)],
                             hk.Stream(0))
    assert rep.passed and math.isfinite(rep.best_constant)


def test_gfk_with_derived_exponent_finite(cantor6):
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    radii = np.sort(2.0 ** -np.arange(1, 6, dtype=float))
    alpha_hat, _ = hk.fit_vd_exponent(space, radii)
    nu = scale.beta1 / alpha_hat
    b = (1 + nu) * alpha_hat / scale.beta1
    rng = hk.Stream(0)
    balls = hk.sample_balls(space, 3, [0.2, 0.45], rng)
    rep = hk.fk_family_check(form, scale, "GFK", nu, b, 1.0, 0.5, balls,
                             rng=rng)
    assert rep.passed
    assert math.isfinite(rep.best_constant) and rep.best_constant > 0


def test_nash_single_atom_closed_form(cantor6):
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    x0, r, nu = 0, 0.3, 0.8
    D = space.ball(x0, r).member_idx
    y = 2                                  # an atom inside the ball
    assert y in D
    f = np.zeros(D.size)
    f[np.searchsorted(D, y)] = 1.0 / math.sqrt(space.weights[y])
    part = hk.part_on(form, D)
    phival = hk.phi(scale, x0, r)
    damping = min(1.0, scale.T0 / phival)
    l1 = math.sqrt(space.weights[y])
    expected = (1.0 * space.volume(x0, r) ** nu * damping
                / (phival * (part.energy(f) + 1.0 / phival) * l1 ** (2 * nu)))
    got, = hk.form.nash_witness_constants(space.ball(x0, r), phival, damping, nu, 1.0, [f], part)
    assert got == pytest.approx(expected, rel=1e-12)


def test_nash_zero_kernel_finite():
    sp = hk.build_grid(1, 12)
    field = hk.constant_field(sp, 1.0, T0=1.0)
    form = hk.assemble(hk.build_zero_kernel(sp))
    rep = hk.nash_check(form, field, 0.5, 1.0, [(0, 0.6)], hk.Stream(0))
    assert math.isfinite(rep.best_constant) and rep.best_constant > 0


def test_fk_nash_consistency_two_configs():
    rng = hk.Stream(11)
    for build in (lambda: hk.build_cantor_product(1 / 3, 1, 5),
                  lambda: hk.build_grid(1, 24)):
        sp = build()
        field = hk.constant_field(sp, 0.9, T0=1.0)
        if sp.meta["kind"] == "cantor":
            kern = hk.build_cantor_axis_kernel(field)
        else:
            kern = hk.build_stable_like_kernel(field)
        form = hk.assemble(kern)
        balls = hk.sample_balls(sp, 2, [0.25, 0.5], rng)
        rep = hk.fk_nash_consistency(form, field, nu=0.6, b=1.0,
                                     Cprime=1.0, ball_sample=balls, rng=rng)
        assert rep.passed, rep.witness


def test_fk_nash_consistency_reuses_its_parts(monkeypatch):
    # the backward chain reads lambda_1 from the parts the first pass solved,
    # and the GFK sweep looks up the lambda_1 it or the first pass has solved
    sp = hk.build_cantor_product(1 / 3, 2, 3)
    field = hk.constant_field(sp, 0.8, T0=1.0)
    form = hk.assemble(hk.build_cantor_axis_kernel(field))
    part_on, calls = hk.form.part_on, []
    monkeypatch.setattr(hk.form, "part_on", lambda f, D: calls.append(D) or part_on(f, D))
    rep = hk.fk_nash_consistency(form, field, nu=0.6, b=1.0, Cprime=1.0,
                                 ball_sample=[(0, 0.25), (27, 0.5)],
                                 rng=hk.Stream(3))
    assert rep.passed
    # 43 when the backward chain re-solved 8 parts, 35 when the GFK sweep
    # re-solved 9, 26 when a super-level set equal to the ball re-solved it
    # and 24 when the GFK sweep re-solved each ball part for its ground state
    assert len(calls) == 22
    assert len({np.asarray(D).tobytes() for D in calls}) == 22


@pytest.mark.parametrize("check", ["nash_check", "fk_nash_consistency", "fk_family_check"])
def test_nash_and_fk_sweeps_compute_phi_once_per_ball(monkeypatch, check):
    # the Nash witness computed phi(x0, r) and the damping for each test
    # function, and the backward chain and the GFK sweep each once more per
    # ball: 155 phi calls for the 12 balls of the benchmark sweep
    sp = hk.build_cantor_product(1 / 3, 2, 3)
    field = hk.constant_field(sp, 0.8, T0=1.0)
    form = hk.assemble(hk.build_cantor_axis_kernel(field))
    balls = hk.sample_balls(sp, 4, hk.dyadic_radius_grid(sp)[-3:], hk.Stream(0))
    phi, calls = hk.form.phi, []
    monkeypatch.setattr(hk.form, "phi", lambda *args: calls.append(args) or phi(*args))
    rng = hk.Stream(3)
    rep = {"nash_check": lambda: hk.nash_check(form, field, 1.2, 1.0, balls, rng),
           "fk_nash_consistency": lambda: hk.fk_nash_consistency(
               form, field, 1.2, 1.0, 1.0, balls, rng),
           "fk_family_check": lambda: hk.fk_family_check(
               form, field, "GFK", 1.2, 1.0, 1.0, 0.5, balls, rng)}[check]()
    assert rep.passed
    assert sorted(args[1:] for args in calls) == sorted(balls)


def test_fk_passes_where_due_confirmed():
    # homogeneous instance: constant order on a grid
    sp = hk.build_grid(1, 32)
    field = hk.constant_field(sp, 1.0, T0=1.0)
    kern = hk.build_stable_like_kernel(field)
    form = hk.assemble(kern)
    due = hk.due_check(form, field, 1.0, [0.01, 0.05, 0.2], hk.Stream(0))
    assert math.isfinite(due.best_constant)
    radii = np.sort(2.0 ** -np.arange(2, 6, dtype=float))
    alpha_hat, _ = hk.fit_vd_exponent(sp, radii)
    rng = hk.Stream(2)
    rep = hk.fk_family_check(form, field, "FK", field.beta1 / alpha_hat, 1.0, 1.0, 0.5,
                             hk.sample_balls(sp, 3, [0.2, 0.4], rng), rng=rng)
    assert rep.passed and rep.best_constant > 0


def test_lambda1_reads_the_parts_part_on_solved(cantor6, monkeypatch):
    space, _, kern = cantor6
    form = hk.assemble(kern)
    trunc = hk.Truncation(form, 0.25)
    D = space.ball(0, 0.25).member_idx
    part = hk.part_on(form, D)
    assert part._lambda1 == {} and list(form._lambda1) == [D.tobytes()]
    near_part = hk.part_on(trunc.near, D)
    recorded = dict(trunc.near._lambda1)
    assert list(recorded) == [D.tobytes()]
    trunc.killed_part(near_part)
    assert trunc.near._lambda1 == recorded and list(form._lambda1) == [D.tobytes()]

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert _same_bits(hk.lambda1(form, list(D)), part.eigvals[0])
    # the domain is checked before it is looked up
    with pytest.raises(ParameterError):
        hk.lambda1(form, [D])
    with pytest.raises(ParameterError):
        hk.lambda1(part, D)


def test_subset_parts_are_sliced_from_their_ball_part(monkeypatch):
    # S_D sliced from the ball part's S equals the one read from the kernel
    # bit for bit, whatever the order of D, and reads no kernel block; its
    # lambda_1 lands in the full form's memo
    space = hk.build_cantor_product(1 / 3, 2, 3)
    form = hk.assemble(hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0)))
    ball = space.ball(0, 0.5).member_idx
    part = hk.part_on(form, ball)
    rng = np.random.default_rng(0)
    subsets = [np.sort(rng.choice(ball, size=k, replace=False)) for k in (1, 3, ball.size // 2)]
    subsets.append(rng.permutation(ball)[: ball.size - 1])
    read = [_part_generator(form, D)[1] for D in subsets]
    blocks, block = [], hk.JumpKernel.block
    monkeypatch.setattr(hk.JumpKernel, "block",
                        lambda self, rows, cols: blocks.append(1) or block(self, rows, cols))
    with hk.form._inside(form, ball, part.S):
        sliced = [hk.part_on(form, D) for D in subsets]
    assert blocks == [] and form._outer is None
    for D, S, sub in zip(subsets, read, sliced):
        assert _same_bits(sub.S, S)
        assert form._lambda1[D.tobytes()] == sub.eigvals[0]
    # a domain outside the part is read from the kernel
    with hk.form._inside(form, ball, part.S):
        outside = hk.part_on(form, [0, space.n_points - 1])
    assert blocks == [1] and _same_bits(outside.S, _part_generator(form, [0, 63])[1])
    with pytest.raises(ParameterError, match="generator of a part on the domain"):
        with hk.form._inside(form, ball[1:], part.S):
            pass


def test_each_part_checks_its_domain_once(monkeypatch, cantor6):
    # lambda1 checked a domain, then part_on checked it again on a miss:
    # 377 checks for 208 parts on the 256-atom sweep
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    checked = []
    check = hk.form._checked_domain
    monkeypatch.setattr(hk.form, "_checked_domain",
                        lambda f, D: checked.append(1) or check(f, D))
    D = space.ball(3, 0.3).member_idx
    lam = hk.lambda1(form, D)
    assert len(checked) == 1 and list(form._lambda1) == [D.tobytes()]
    assert hk.lambda1(form, list(D)) == lam and len(checked) == 1     # a key needs no check
    parts = []
    part_on = hk.form.part_on
    monkeypatch.setattr(hk.form, "part_on", lambda f, D: parts.append(1) or part_on(f, D))
    checked.clear()
    hk.fk_family_check(form, scale, "FK", 0.5, 1.0, 1.0, 0.5,
                       hk.sample_balls(space, 4, [0.2, 0.4], hk.Stream(0)),
                       hk.Stream(1))
    assert len(checked) == len(parts) > 0


def test_quarter_balls_carry_phi_of_their_ball(cantor6):
    space, scale, _ = cantor6
    sample = [(0, 0.01), (3, 0.3), (40, 0.6), (7, 2.0)]
    balls, skipped = hk.form._quarter_balls(scale, sample)      # phi(7, 2) is above T0
    assert skipped == 0 and [(x0, r) for x0, r, *_ in balls] == sample[:3]
    for x0, r, phival, ball in balls:
        assert _same_bits(phival, hk.phi(scale, x0, r)) and ball.center == x0


def test_part_empty_domain_rejected(two_point):
    _, _, form = two_point
    with pytest.raises(ParameterError):
        hk.part_on(form, [])


def test_part_negative_index_rejected(two_point):
    _, _, form = two_point
    with pytest.raises(ParameterError):
        hk.part_on(form, [-1, 0])


def test_truncation_takes_a_full_form_and_kills_parts_of_its_near_form(cantor6):
    # a Dirichlet part passed as the full form was a numpy broadcast error
    space, _, kern = cantor6
    form = hk.assemble(kern)
    D = space.ball(0, 0.25).member_idx
    with pytest.raises(ParameterError, match="full-space form"):
        hk.Truncation(hk.part_on(form, D), 0.25)
    trunc = hk.Truncation(form, 0.25)
    for other in (hk.part_on(form, D), hk.part_on(hk.Truncation(form, 0.5).near, D),
                  trunc.near):
        with pytest.raises(ParameterError, match="part of the near form"):
            trunc.killed_part(other)
    # the pieces are built from the form and rho, never handed in
    with pytest.raises(TypeError):
        hk.Truncation(form, 0.25, trunc.near, trunc.far, trunc.tail)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(trunc, near=hk.Truncation(form, 0.5).near)
    assert _same_bits(dataclasses.replace(trunc, rho=0.5).tail, hk.Truncation(form, 0.5).tail)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trunc.rho = 0.5
    with pytest.raises(ValueError, match="read-only"):
        trunc.tail[0] = 0.0


@pytest.mark.parametrize("rounding", [False, True], ids=["exact", "rounding_first"])
def test_assemble_rejects_asymmetry_in_last_row_chunk(chunk_budget, rounding):
    # a gap of one ulp is refused wherever it lies, with or without another
    # one ulp gap in the first chunk
    sp = hk.build_grid(1, 64)
    m = np.ones((64, 64))
    if rounding:
        m[0, 1] = np.nextafter(1.0, 2.0)      # in the first chunk
    m[63, 61] = np.nextafter(1.0, 2.0)        # both atoms in the last chunk of the small budget
    with pytest.raises(ParameterError, match="symmetric"):
        hk.assemble(dense_kernel(sp, m))
    m[63, 61] = 1.0
    if rounding:
        with pytest.raises(ParameterError, match="symmetric"):
            hk.assemble(dense_kernel(sp, m))
    else:
        assert hk.assemble(dense_kernel(sp, m)).jmat_nonzeros == 64 * 63


@pytest.mark.parametrize("case", ["exact"])
def test_generator_builds_read_each_kernel_entry_once(chunk_budget, case):
    # 256 atoms, four chunks at the default budget: assemble, a truncation's
    # near form and its far top each pass each of the N^2 entries of J to the
    # block function once, and the form keeps the kernel it was given
    space = hk.build_cantor_product(1 / 3, 2, 4)
    m = hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8)).matrix()
    read = []

    def block_fn(rows, cols):
        read.append(rows.size * cols.size)
        return m[np.ix_(rows, cols)]

    kern = hk.JumpKernel(space, block_fn)
    form = hk.assemble(kern)
    assert sum(read) == space.n_points**2
    assert form.kernel is kern
    read.clear()
    trunc = hk.Truncation(form, 0.125)
    assert sum(read) == space.n_points**2
    read.clear()
    trunc.far_top()
    assert sum(read) == space.n_points**2


def test_assemble_matches_reference_formulas(chunk_budget):
    # the generator as written before the in-place rewrite, on a random
    # kernel that equals its transpose
    sp = hk.build_grid(1, 40)
    rng = np.random.default_rng(5)
    m = rng.uniform(0.0, 1.0, size=(40, 40))
    m = m + m.T
    kern = dense_kernel(sp, m)
    form = hk.assemble(kern)
    assert form.kernel is kern
    jmat = m.copy()
    np.fill_diagonal(jmat, 0.0)
    L = -2.0 * jmat * sp.weights[None, :]
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    atoms = np.arange(40)
    assert np.array_equal(form.kernel.block(atoms, atoms), jmat) and jmat[3, 7] == jmat[7, 3]
    assert np.array_equal(form.kernel.block([3, 7], atoms), jmat[[3, 7]])
    assert np.array_equal(full_generator(form), L)
    sqrt_w = np.sqrt(sp.weights)
    sym = (L * sqrt_w[:, None]) / sqrt_w[None, :]
    eigvals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    assert np.allclose(form.eigvals, eigvals, rtol=1e-12, atol=1e-12)


def _dense_generator(space, jmat):
    # the dense formula L = -2 J W, its diagonal minus its off-diagonal row sums
    L = jmat * -2.0
    L *= space.weights[None, :]
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def _closed_form(space, jmat):
    # the reference for the chunked builder: S = W^(1/2) L W^(-1/2) as
    # -2 J o (sqrt(w) sqrt(w)^T) off the diagonal, the diagonal of L on it
    sqrt_w = np.sqrt(space.weights)
    S = jmat * -2.0
    S *= np.multiply.outer(sqrt_w, sqrt_w)
    np.fill_diagonal(S, np.diag(_dense_generator(space, jmat)))
    return S


def _dense_spectrum(S, weights):
    # the eigh of the symmetric generator S, rounded zeros made exact, and
    # the rescaled psi
    eigvals, psi = np.linalg.eigh(S)
    _zero_rounded(eigvals)
    psi /= np.sqrt(weights)[:, None]
    return eigvals, psi, S


def _zero_rounded(*spectra):
    # the eigenvalues of one matrix within N eps max |lambda| of 0, N and the
    # max taken over all of ``spectra``, are rounded zeros: exactly 0
    floor = sum(v.size for v in spectra) * np.finfo(float).eps * max(np.abs(v).max()
                                                                     for v in spectra)
    for v in spectra:
        v[np.abs(v) <= floor] = 0.0


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _generator_case(case):
    """A space, a kernel and a truncation radius: non-uniform weights, a
    Cantor product, and (``rounding``) a dense random kernel m + m.T on
    random weights."""
    if case == "custom":
        space, _, kern = random_setup(3)
        return space, kern, float(np.median(space.dist_from(0)))
    if case == "cantor":
        space = hk.build_cantor_product(1 / 3, 2, 3)
        return space, hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8)), 0.125
    rng = np.random.default_rng(8)
    n = 45
    w = rng.uniform(0.5, 2.0, size=n)
    space = hk.build_custom(rng.uniform(0.0, 1.0, size=(n, 2)), w / w.sum())
    m = rng.uniform(0.0, 1.0, size=(n, n))
    return space, dense_kernel(space, m + m.T), float(np.median(space.dist_from(0)))


def _assert_matches_spectrum(form, eigvals, psi, sym):
    """A split ``form``'s spectrum against the dense ``eigvals``, ``psi`` of
    ``sym``, within rounding."""
    w = form.weights
    top = np.abs(eigvals).max()
    assert np.abs(form.eigvals - eigvals).max() <= 1e-12 * top
    form_psi = split_psi(form)
    gram = form_psi.T @ (form_psi * w[:, None])
    assert np.abs(gram - np.eye(w.size)).max() <= 1e-13
    q = form_psi * np.sqrt(w)[:, None]                 # orthonormal eigenvectors of sym
    assert np.abs(sym @ q - q * form.eigvals).max() <= 1e-11 * top
    f = np.random.default_rng(3).normal(size=w.size)
    for t in (1e-3 / top, 0.1, 1.0):
        want = psi @ (np.exp(-t * eigvals) * (psi.T @ (f * w)))
        assert np.abs(form.apply_semigroup(t, f) - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("split", [True, False])
def test_removed_top_eigenvalue_is_the_top_of_the_far_form(split):
    # the same generator, the same dense-or-split choice: the far kernel's
    # assembled form ends with the removed top eigenvalue
    space = hk.build_cantor_product(1 / 3, 1 if split else 2, 6 if split else 3)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    if not split:
        scale = hk.build_counterexample_field(hk.synthesize_config(4.0, xi=1 / 3, level=3), space)
    trunc = hk.Truncation(hk.assemble(hk.build_cantor_axis_kernel(scale)), 0.2)
    form = hk.assemble(trunc.far)
    assert isinstance(form.basis, _HalfSpectrum) == split
    top = form.eigvals[-1]
    assert abs(trunc.far_top() - top) <= 1e-12 * abs(top)


@pytest.mark.parametrize("case", ["custom", "cantor", "rounding"])
def test_chunked_generator_matches_dense_reference(chunk_budget, case):
    # Everything before the eigensolve matches the closed form bit for bit.
    # The Cantor product is symmetric under its central reflection, so its
    # whole-space forms are solved as two half-size blocks and match the
    # dense spectrum within rounding; the other two cases have no such
    # symmetry and take the one dense eigh, bit for bit.
    space, kern, rho = _generator_case(case)
    form = hk.assemble(kern)
    near_kern = hk.truncate(kern, rho)[0]
    trunc = hk.Truncation(form, rho)
    near = trunc.near
    assert form.kernel is kern
    w = space.weights
    L, L_near = _dense_generator(space, kern.matrix()), _dense_generator(space, near_kern.matrix())
    S, S_near = _closed_form(space, kern.matrix()), _closed_form(space, near_kern.matrix())
    for f, ref, sym in ((form, L, S), (near, L_near, S_near)):
        eigvals, psi, _ = _dense_spectrum(sym, w)
        assert (_reflection_blocks(space, sym) is not None) == (case == "cantor")
        if case == "cantor":
            _assert_matches_spectrum(f, eigvals, psi, sym)
        else:
            assert _same_bits(f.eigvals, eigvals) and _same_bits(f.psi, psi)
        assert _same_bits(f.diag, np.diag(ref))
        assert _same_bits(full_generator(f), ref)
    D = np.random.default_rng(1).permutation(space.n_points)[: space.n_points // 2]
    part = hk.part_on(form, D)
    eigvals, psi, _ = _dense_spectrum(S[np.ix_(D, D)], w[D])
    assert _same_bits(part.eigvals, eigvals) and _same_bits(part.psi, psi)
    tail = 0.5 * (np.diag(L) - np.diag(L_near))
    assert tail.max() > 0
    assert _same_bits(trunc.tail, tail) and not trunc.tail.flags.writeable
    near_part = hk.part_on(near, D)
    killed = trunc.killed_part(near_part)
    SD = S_near[np.ix_(D, D)] + 2.0 * np.diag(tail[D])
    eigvals, psi, _ = _dense_spectrum(SD, w[D])
    assert _same_bits(killed.S, SD) and not np.shares_memory(killed.S, near_part.S)
    assert _same_bits(killed.eigvals, eigvals) and _same_bits(killed.psi, psi)
    # the removed generator S - S_near is the generator of the far kernel,
    # within rounding: its diagonal is its own row sums, and its zeros are
    # -0.0 where S - S_near has +0.0; bit for bit, it is the far kernel's
    # closed form
    far = hk.truncate(kern, rho)[1]
    removed = trunc.far_top()
    top = np.linalg.eigvalsh(S - S_near)[-1]
    assert abs(removed - top) <= 1e-12 * abs(top)
    if case != "cantor":
        assert _same_bits(removed, np.linalg.eigvalsh(_closed_form(space, far.matrix()))[-1])


@pytest.mark.parametrize("case", ["custom", "cantor", "rounding"])
def test_every_generator_is_the_closed_form(chunk_budget, case):
    # S = -2 J o (sqrt(w) sqrt(w)^T) off the diagonal and the diagonal of L
    # on it, equal to its transpose bit for bit, on random non-dyadic
    # weights too: the whole form's, a part's restriction of it, and a
    # killed part's, the near part's plus 2 tail on the diagonal
    space, kern, rho = _generator_case(case)
    S = _closed_form(space, kern.matrix())
    sym, diag, _ = _symmetric_generator(kern)
    assert _same_bits(sym, S) and _same_bits(sym, sym.T) and _same_bits(diag, np.diag(S))
    form = hk.assemble(kern)
    D = np.random.default_rng(1).permutation(space.n_points)[: space.n_points // 2]
    assert _same_bits(_part_generator(form, D)[1], S[np.ix_(D, D)])
    assert _same_bits(hk.part_on(form, D).S, S[np.ix_(D, D)])
    trunc = hk.Truncation(form, rho)
    near_part = hk.part_on(trunc.near, D)
    assert _same_bits(near_part.S, _closed_form(space, trunc.near.kernel.matrix())[np.ix_(D, D)])
    killed = trunc.killed_part(near_part).S
    assert _same_bits(killed, near_part.S + 2.0 * np.diag(trunc.tail[D]))


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.eigh``, in call order."""
    shapes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


def test_reflection_symmetric_form_is_solved_in_two_halves(eigh_shapes):
    space = hk.build_cantor_product(1 / 3, 1, 10)
    kern = hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0))
    hk.assemble(kern)
    assert eigh_shapes == [(512, 512), (512, 512)]


def _mirror_case(case):
    """A space and kernel for the reflection gate: the Cantor kernel and the
    stable-like kernel on an even-sided grid, which it takes, and four that it
    must refuse."""
    if case == "two_plateau_field":
        space = hk.build_cantor_product(1 / 3, 2, 3)
        field = hk.build_counterexample_field(hk.synthesize_config(4.0, xi=1 / 3, level=3),
                                              space)
        return space, hk.build_cantor_axis_kernel(field)
    if case in ("odd_grid", "even_grid"):              # odd: the centre is its own mirror
        space = hk.build_grid(1, 33 if case == "odd_grid" else 32)
        return space, hk.build_stable_like_kernel(hk.constant_field(space, 0.8, T0=1.0))
    cantor = hk.build_cantor_product(1 / 3, 1, 6)
    m = hk.build_cantor_axis_kernel(hk.constant_field(cantor, 0.8)).matrix().copy()
    if case == "explicit_metric":
        space = hk.build_custom(cantor.coords, cantor.weights, metric_matrix=cantor.pairwise())
        return space, dense_kernel(space, m)
    if case == "mirror_pair_off_by_1e-6":
        # (30, 5) against its mirror (33, 58); pair row 30 is in the last small chunk
        m[30, 5] *= 1 + 1e-6
        m[5, 30] = m[30, 5]
    return cantor, dense_kernel(cantor, m)


@pytest.mark.parametrize("case", ["cantor", "two_plateau_field", "odd_grid",
                                  "explicit_metric", "mirror_pair_off_by_1e-6", "even_grid"])
def test_reflection_gate(chunk_budget, eigh_shapes, case):
    # a refused split leaves the one dense eigh, bit for bit
    space, kern = _mirror_case(case)
    form = hk.assemble(kern)
    n = space.n_points
    split = case in ("cantor", "even_grid")
    assert eigh_shapes == ([(n // 2, n // 2)] * 2 if split else [(n, n)])
    eigvals, psi, sym = _dense_spectrum(_closed_form(space, kern.matrix()), space.weights)
    if split:
        _assert_matches_spectrum(form, eigvals, psi, sym)
    else:
        assert _same_bits(form.eigvals, eigvals) and _same_bits(form.psi, psi)


def test_reflection_split_merges_a_tie_even_first(eigh_shapes):
    # two mirror-image components {0, 1} and {2, 3} of a 4-atom line: the
    # even and the odd block are equal, so each eigenvalue is an exact tie
    # of an even and an odd eigenvector
    space = hk.build_grid(1, 4)
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = m[2, 3] = m[3, 2] = 1.0
    form = hk.assemble(dense_kernel(space, m))
    assert eigh_shapes == [(2, 2), (2, 2)]
    assert form.eigvals[0] == form.eigvals[1] and form.eigvals[2] == form.eigvals[3]
    psi = split_psi(form)
    mirror = psi[::-1]                                 # row x holds the mirror atom of x
    assert np.array_equal(mirror[:, [0, 2]], psi[:, [0, 2]])
    assert np.array_equal(mirror[:, [1, 3]], -psi[:, [1, 3]])
    eigvals, psi, sym = _dense_spectrum(_closed_form(space, m), space.weights)
    _assert_matches_spectrum(form, eigvals, psi, sym)


def _merged_layout(space, sym):
    """The merged eigenvalues and the :func:`split_psi` of a split form whose
    blocks are solved here, from ``sym``, by their own ``eigh`` and the
    rounding floor of the whole."""
    (A, B), blocks = _reflection_blocks(space, sym)
    halves = [SimpleNamespace(eigvals=vals, psi=vecs) for vals, vecs in map(np.linalg.eigh, blocks)]
    _zero_rounded(*(half.eigvals for half in halves))
    basis = SimpleNamespace(A=A, B=B, factors=halves)
    psi = split_psi(SimpleNamespace(basis=basis, weights=space.weights))
    return np.sort(np.concatenate([half.eigvals for half in halves]), kind="stable"), psi


def _split_case(case):
    if case == "shuffled_product":
        kern = shuffled(_split_case("cantor_product")[1])
        return kern.space, kern
    if case == "cantor":
        space = hk.build_cantor_product(1 / 3, 1, 7)
        return space, hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0))
    if case == "cantor_product":
        space = hk.build_cantor_product(1 / 3, 2, 3)
        return space, hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0))
    space = hk.build_grid(1, 32)
    return space, hk.build_stable_like_kernel(hk.constant_field(space, 0.8, T0=1.0))


@pytest.mark.parametrize("case", ["cantor", "cantor_product", "even_grid", "shuffled_product"])
def test_split_form_spectral_operations_match_the_dense_spectrum(case):
    # a split form keeps its two half eigenbases and computes on them; every
    # operation agrees with the one dense eigh within 1e-12 relative
    space, kern = _split_case(case)
    form = hk.assemble(kern)
    assert isinstance(form.basis, _HalfSpectrum) and not hasattr(form.basis, "psi")
    assert all(isinstance(cols, slice) != (case == "shuffled_product")
               for cols in form.basis.columns)
    n, w = space.n_points, space.weights
    eigvals, psi, sym = _dense_spectrum(_closed_form(space, kern.matrix()), w)

    def close(got, want, scale=None):
        # relative to the largest |value|, of the whole kernel for its entries
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * (scale or np.abs(want).max())

    rng = np.random.default_rng(5)
    f, F = rng.normal(size=n), rng.normal(size=(n, 3))
    coef, coefs = psi.T @ (f * w), psi.T @ (F * w[:, None])
    times = [1e-3 / np.abs(eigvals).max(), 0.1, 1.0]
    for t in times:
        decay = np.exp(-t * eigvals)
        close(form.apply_semigroup(t, f), psi @ (decay * coef))
        p = (psi * decay) @ psi.T
        xs, ys = rng.integers(0, n, size=40), rng.integers(0, n, size=40)
        close(form.heat_kernel_entries(t, xs, ys), p[xs, ys], np.abs(p).max())
        close(form.heat_kernel_entries(t, np.arange(n), np.arange(n)), np.diag(p))
    close(form.apply_semigroup(times, F),
          np.array([psi @ (np.exp(-t * eigvals)[:, None] * coefs) for t in times]))
    close(form.apply_semigroup(times[1], F), psi @ (np.exp(-times[1] * eigvals)[:, None] * coefs))
    assert form.apply_semigroup([], F).shape == (0, n, 3)
    assert form.apply_semigroup([], f).shape == (0, n)
    close(form.resolvent(2.0, f), psi @ (coef / (eigvals + 2.0)))
    for t in times:                                    # heat_kernel from panels
        close(form.heat_kernel(t), (psi * np.exp(-t * eigvals)) @ psi.T)
    assert not hasattr(form.basis, "psi")              # no operation laid out psi
    merged_vals, merged_psi = _merged_layout(space, sym)
    assert _same_bits(form.eigvals, merged_vals)
    assert _same_bits(split_psi(form), merged_psi)
    p = (merged_psi * np.exp(-0.1 * form.eigvals)) @ merged_psi.T
    close(form.heat_kernel_entries(0.1, xs, ys),
          np.einsum("ij,ij->i", merged_psi[xs] * np.exp(-0.1 * form.eigvals), merged_psi[ys]),
          np.abs(p).max())


def test_diagonal_entries_gather_their_rows_once(monkeypatch):
    # on a form that keeps psi, the diagonal p(t, x, x) reads each row of
    # psi once, with the result of the expression that gathers xs and ys apart;
    # the gathers are seen as the indexing of a psi that records them
    space = hk.build_grid(1, 33)
    form = hk.assemble(hk.build_stable_like_kernel(
        hk.constant_field(space, 0.8, T0=1.0)))
    xs = np.arange(space.n_points)
    want = np.einsum("ij,ij->i", form.psi[xs] * np.exp(-0.2 * form.eigvals), form.psi[xs])
    gathered = []

    class Watched(np.ndarray):
        def __getitem__(self, atoms):
            gathered.append(np.size(atoms))
            return super().__getitem__(atoms).view(np.ndarray)

    assert isinstance(form.basis, _DenseBasis)
    monkeypatch.setattr(form.basis, "psi", form.psi.view(Watched))
    assert _same_bits(form.heat_kernel_entries(0.2, xs, xs), want)
    assert sum(gathered) == xs.size



def test_split_diagonal_entries_gather_each_pair_row_once(monkeypatch):
    # on a split form, an atom and its mirror share one pair row of each
    # half, so the whole diagonal reads h rows of each half, not N, with
    # the floats of the expression that gathers every atom's row
    space = hk.build_cantor_product(1 / 3, 1, 6)
    form = hk.assemble(hk.build_cantor_axis_kernel(
        hk.constant_field(space, 0.8, T0=1.0)))
    basis = form.basis
    assert isinstance(basis, _HalfSpectrum)
    xs = np.arange(space.n_points)
    x, w = basis.pair[xs], space.weights
    even, odd = (np.einsum("ij,ij->i", half.psi[x] * np.exp(-0.2 * half.eigvals), half.psi[x])
                 for half in basis.factors)
    want = (even + basis.sign * basis.sign * odd) / (2.0 * np.sqrt(w * w))
    gathered = []

    class Watched(np.ndarray):
        def __getitem__(self, atoms):
            gathered.append(np.size(atoms))
            return super().__getitem__(atoms).view(np.ndarray)

    for half in basis.factors:
        monkeypatch.setattr(half, "psi", half.psi.view(Watched))
    assert _same_bits(form.heat_kernel_entries(0.2, xs, xs), want)
    assert sum(gathered) == 2 * basis.A.size           # h rows of each half
    assert _same_bits(form.heat_kernel_entries(0.2, xs[::-3], xs[::-3]), want[::-3])


def test_quantile_is_numpy_quantile_bit_for_bit():
    # random sizes, ties and q, and the three super-level cuts of the FK family
    rng = np.random.default_rng(11)
    for size in [1, 2, 3, 4, 5, 7, 16, 33, 100, 257]:
        for values in (rng.random(size), np.round(rng.random(size), 1),
                       np.abs(rng.normal(size=size)) * 1e-3):
            for q in [0.0, 0.25, 0.5, 0.75, 1.0, *rng.random(6)]:
                got, want = _quantile(values, float(q)), np.quantile(values, float(q))
                assert _same_bits(np.float64(got), want), (size, q)


def test_part_refuses_a_repeated_atom(two_point):
    _, _, form = two_point
    with pytest.raises(ParameterError, match="distinct"):
        hk.part_on(form, [1, 0, 1])


def test_default_time_grid_cuts_zero_at_the_rounding_floor():
    # a zero eigenvalue of 3e-12 is rounding at max |lambda| = 3.4e4
    # (eps max |lambda| = 7.5e-12): the spectrum holds it as exactly 0, not
    # as the spectral gap
    eigvals = np.array([3e-12, 3.9, 120.0, 3.4e4])
    hk.form._zero_rounding(eigvals)
    assert eigvals[0] == 0.0 and np.array_equal(eigvals[1:], [3.9, 120.0, 3.4e4])
    form = SimpleNamespace(eigvals=eigvals)
    assert np.array_equal(hk.form.default_time_grid(form),
                          (1.0 / 3.9) * np.logspace(-3, 1, 9))
    form = SimpleNamespace(eigvals=np.zeros(4))         # zero kernel: no gap at all
    assert np.array_equal(hk.form.default_time_grid(form), np.logspace(-3, 1, 9))


def test_assemble_keeps_no_dense_generator():
    # 512 atoms.  tracemalloc sees numpy's arrays, not the LAPACK workspace
    # or the copy of its input that eigh makes in untraced buffers.
    space = hk.build_cantor_product(1 / 3, 1, 9)
    kern = hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0))
    kern.matrix()
    square = space.n_points**2 * 8
    tracemalloc.start()
    try:
        form = hk.assemble(kern)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * square                        # 3.04 when L was kept
    assert held <= 0.6 * square                        # the two half eigenbases; 2.00 with psi and L
    assert form.S is None
    assert not hasattr(form.basis, "psi")


@pytest.mark.parametrize("name", ["volumes_at", "tail_masses", "energy", "generator"])
def test_chunked_passes_allocate_under_two_square_arrays(name):
    # 256 atoms, whose chunks are 64 rows; tracemalloc sees numpy's arrays.
    # Beyond what it returns, each whole-space pass holds a few chunks at a
    # time, not the N x N temporaries of a pass made in one chunk (3.0 to
    # 4.4 square arrays)
    space = hk.build_cantor_product(1 / 3, 2, 4)
    kern = hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0))
    form = hk.assemble(kern)
    fs = np.random.default_rng(0).normal(size=(3, space.n_points))
    run = {"volumes_at": lambda: space.volumes_at(0.2),
           "tail_masses": lambda: _tail_masses(kern, hk.dyadic_radius_grid(space)),
           "energy": lambda: form.energy(fs),
           "generator": lambda: _symmetric_generator(kern)[0]}[name]
    square = space.n_points**2 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start - result.nbytes < 2 * square


def test_checks_on_a_split_form_allocate_no_square_array():
    # 1024 atoms; tracemalloc sees numpy's arrays.  The semigroup and the
    # diagonal run on the two half eigenbases, and the sampled entries lay
    # out their rows of psi one chunk at a time, so no N x N float64 array
    # is made, nor psi laid out
    space = hk.build_cantor_product(1 / 3, 1, 10)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    form = hk.assemble(hk.build_cantor_axis_kernel(scale))
    times = hk.form.default_time_grid(form)
    balls = hk.sample_balls(space, 8, hk.dyadic_radius_grid(space)[-3:],
                            hk.Stream(0))
    rng = hk.Stream(0)
    square = space.n_points**2 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        reports = [hk.conservativeness_check(form, times),
                   hk.te_check(form, scale, 1.0, balls, times),
                   hk.due_check(form, scale, 1.0, times, rng)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < square
    assert not hasattr(form.basis, "psi")
    assert reports[0].passed and reports[1].series and reports[2].series


def test_split_heat_kernel_comes_from_panels():
    # 1024 atoms; tracemalloc sees numpy's arrays.  The whole kernel of a
    # split form is assembled from row panels of the half eigenbases: the
    # result and a few panels, and no psi laid out N wide
    space = hk.build_cantor_product(1 / 3, 1, 10)
    form = hk.assemble(hk.build_cantor_axis_kernel(
        hk.constant_field(space, 0.8, T0=1.0)))
    square = space.n_points**2 * 8
    psi = split_psi(form)
    for t in (1e-3 / np.abs(form.eigvals).max(), 0.1, 1.0):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            p = form.heat_kernel(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 2 * square
        want = (psi * np.exp(-t * form.eigvals)) @ psi.T
        assert np.abs(p - want).max() <= 1e-12 * np.abs(want).max()
    assert not hasattr(form.basis, "psi")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_assemble_refuses_a_non_finite_kernel(value):
    space = hk.build_grid(1, 4)
    with pytest.raises(ParameterError, match="non-finite"):
        hk.assemble(hk.build_uniform_kernel(space, value))


def test_generator_builds_refuse_a_negative_jump_intensity(chunk_budget):
    # in the last row chunk too; the diagonal is never read, and zero is a
    # jump intensity
    space = hk.build_grid(1, 6)
    m = np.ones((6, 6))
    m[2, 2] = -5.0
    m[5, 0] = m[0, 5] = -1e-3
    kern = dense_kernel(space, m)
    with pytest.raises(ParameterError, match="negative jump intensity"):
        hk.assemble(kern)
    with pytest.raises(ParameterError, match="negative jump intensity"):
        _generator_blocks(kern)                 # the build of Truncation.far_top
    m[5, 0] = m[0, 5] = 0.0
    assert hk.assemble(kern).jmat_nonzeros == 28
    assert np.isfinite(hk.Truncation(hk.assemble(kern), 0.5).far_top())


def test_generator_builds_refuse_a_generator_that_overflows(chunk_budget):
    # a finite kernel whose -2 J w overflows, in the last row chunk too; it
    # used to reach the eigensolve, which did not converge
    space = hk.build_grid(1, 6)
    m = np.ones((6, 6))
    m[5, 0] = m[0, 5] = 1e308
    kern = dense_kernel(space, m)
    with pytest.raises(ParameterError, match="overflows"):
        hk.assemble(kern)
    with pytest.raises(ParameterError, match="overflows"):
        _generator_blocks(kern)                 # the build of Truncation.far_top
    m[5, 0] = m[0, 5] = 1e300                                 # large, and finite
    assert np.isfinite(hk.assemble(kern).eigvals).all()
    assert np.isfinite(hk.Truncation(hk.assemble(kern), 0.5).far_top())
    space = hk.build_cantor_product(1 / 3, 1, 4)              # uniform, and split
    kern = hk.JumpKernel(space, lambda rows, cols: np.full((rows.size, cols.size), 1e308))
    with pytest.raises(ParameterError, match="overflows"):
        hk.assemble(kern)


def test_assemble_keeps_a_kernel_with_a_signed_zero_pair():
    # symmetry is equality of values: +0 and -0 are equal, and the kernel is
    # kept as given, its -0 too
    sp = hk.build_grid(1, 3)
    m = np.ones((3, 3))
    m[0, 1], m[1, 0] = 0.0, -0.0
    kern = dense_kernel(sp, m)
    form = hk.assemble(kern)
    assert form.kernel is kern and form.jmat_nonzeros == 4
    j = form.kernel.block([0, 1], [0, 1])
    assert not np.signbit(j[0, 1]) and np.signbit(j[1, 0])


def test_part_energy_equals_part_on_energy(cantor6):
    # the Nash witness reads the energy of the ball part, g . (S_D g) with
    # g = f sqrt(w), S_D built once per ball
    space, scale, kern = cantor6
    form = hk.assemble(kern)
    rng = np.random.default_rng(2)
    for x0, r in [(0, 0.5), (17, 0.2), (40, 1.0)]:
        D = space.ball(x0, r).member_idx
        f = rng.normal(size=D.size)
        _, SD = _part_generator(form, D)
        part = hk.part_on(form, D)
        g = f * np.sqrt(space.weights[D])
        assert float((SD @ g) @ g) == part.energy(f)
        v = space.volume(x0, r)
        phival = hk.phi(scale, x0, r)
        l1, l2sq = float(np.abs(f) @ space.weights[D]), float(f**2 @ space.weights[D])
        energy = part.energy(f)
        damping = min(1.0, scale.T0 / phival)
        expected = (l2sq ** 2.2 * v**1.2 * damping
                    / (phival * (energy + l2sq / phival) * l1 ** 2.4))
        got, = hk.form.nash_witness_constants(space.ball(x0, r), phival, damping, 1.2, 1.0,
                                              [f], part)
        assert got == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ParameterError):
        _part_generator(form, [-1, 0])


_BUILDERS = {"cantor_axis": hk.build_cantor_axis_kernel,
             "stable_like": hk.build_stable_like_kernel,
             "cylindrical": hk.build_cylindrical_kernel,
             "nearest_neighbor": lambda scale: hk.build_nearest_neighbor_kernel(scale.space),
             "uniform": lambda scale: hk.build_uniform_kernel(scale.space),
             "zero": lambda scale: hk.build_zero_kernel(scale.space)}


@pytest.mark.parametrize("kind", list(_BUILDERS))
def test_assemble_never_builds_the_kernel_matrix(kind):
    # 1024 atoms, whose kernel matrix was never built, by the builder or by
    # assemble; tracemalloc sees numpy's arrays, not the LAPACK workspace or
    # eigh's copy of its input
    space = (hk.build_cantor_product(1 / 3, 1, 10) if kind == "cantor_axis"
             else hk.build_grid(2, 32))
    scale = hk.constant_field(space, 0.8, T0=1.0)
    square = space.n_points**2 * 8
    tracemalloc.start()
    try:
        kern = _BUILDERS[kind](scale)
        form = hk.assemble(kern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kern._matrix is None
    assert peak <= 2.3 * square                        # 3.01 with the kernel matrix
    assert form.kernel is kern
    assert form.jmat_nonzeros == np.count_nonzero(kern.matrix())


def _traffic_scale(case):
    """The order field of a traffic case ``space-field`` on its space: a
    constant one, the two-plateau counterexample field, or (``balls``)
    plateaus of 1.2 around the first atom and of 0.8 around the last."""
    where, field = case.split("-")
    space = {"cantor": lambda: hk.build_cantor_product(1 / 3, 2, 3),
             "grid1": lambda: hk.build_grid(1, 40),
             "grid2": lambda: hk.build_grid(2, 7)}[where]()
    if field == "counterexample":
        return hk.build_counterexample_field(hk.synthesize_config(4.0, xi=1 / 3, level=3), space)
    if field == "balls":
        anchors = [(0, 0.25, 1.2), (space.n_points - 1, 0.25, 0.8)]
        return hk.field_from_balls(space, anchors, 0.8, 1.2, T0=1.0)
    return hk.constant_field(space, 0.8, T0=1.0)


_TRAFFIC = [("cantor_axis", "cantor-constant"), ("cantor_axis", "cantor-counterexample")]
_TRAFFIC += [(kind, f"{grid}-{field}") for kind in ("stable_like", "cylindrical")
             for grid in ("grid1", "grid2") for field in ("constant", "balls")]
_TRAFFIC += [(kind, f"{where}-constant") for kind in ("nearest_neighbor", "uniform", "zero")
             for where in ("cantor", "grid2")]


@pytest.mark.parametrize("kind,case", _TRAFFIC, ids=[f"{k}-{c}" for k, c in _TRAFFIC])
def test_every_builder_and_its_cuts_equal_their_transposes(kind, case):
    # what the program builds meets the precondition of assemble bit for
    # bit, under constant and variable order fields, and so do both cuts of
    # ``truncate``: assemble keeps each as it was given
    scale = _traffic_scale(case)
    space = scale.space
    kern = _BUILDERS[kind](scale)
    assert (np.ptp(scale.beta_values) > 0) == (not case.endswith("constant"))
    atoms = np.arange(space.n_points)
    for k in (kern, *hk.truncate(kern, 0.3)):
        m = k.block(atoms, atoms)
        assert _same_bits(m, m.T)
        assert hk.assemble(k).kernel is k


@pytest.mark.parametrize("gap,big", [(1e-8, 1e3), (1e-8, 1.0), (1e-6, 1e3)],
                         ids=["within_final_tolerance", "no_large_entry", "beyond"])
def test_assemble_decides_symmetry_with_the_global_tolerance(chunk_budget, gap, big):
    # the tolerance is zero whatever max |J| is: an inexact pair in the first
    # chunk is refused, also the one within 1e-10 max |J| once the largest
    # |J| comes in the last chunk (``within_final_tolerance``)
    sp = hk.build_grid(1, 64)
    m = np.ones((64, 64))
    np.fill_diagonal(m, 0.0)
    m[0, 1], m[1, 0] = 0.0, gap
    m[63, 61] = m[61, 63] = big
    with pytest.raises(ParameterError, match="symmetric"):
        hk.assemble(dense_kernel(sp, m))
    m[1, 0] = 0.0
    kern = dense_kernel(sp, m)
    assert hk.assemble(kern).kernel is kern


@pytest.mark.parametrize("seed", range(5))
def test_jmat_nonzeros_counts_the_symmetric_kernel(seed, chunk_budget):
    space, _, kern = random_setup(seed)
    form = hk.assemble(kern)
    assert form.jmat_nonzeros == np.count_nonzero(kern.matrix())
    assert hk.part_on(form, [0, 1]).jmat_nonzeros == form.jmat_nonzeros


def test_full_form_energy_is_exact_on_near_constant_functions():
    # the full form integrates the energy density, a sum of nonnegative
    # terms whose differences f(x) - f(y) are exact for f near a constant:
    # a constant has energy exactly 0, and a function 1e-9 from one keeps its
    # relative accuracy against the double sum over pairs, where L f alone
    # cancelled to 100 times it
    space = hk.build_cantor_product(1 / 3, 2, 4)
    kern = hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0))
    form = hk.assemble(kern)
    w, jmat = space.weights, kern.matrix()
    assert form.energy(np.ones(space.n_points)) == 0.0
    for f in 1.0 + 1e-9 * np.random.default_rng(0).normal(size=(3, space.n_points)):
        want = ((f[:, None] - f[None, :]) ** 2 * jmat * np.outer(w, w)).sum()
        assert form.energy(f) == pytest.approx(want, rel=1e-12)


def test_part_on_every_atom_multiplies_by_its_own_generator(cantor6):
    # a part whose domain holds every atom, in any order, reads its S_D; it
    # used to take the full form's row chunks, in the order of the space
    space, _, kern = cantor6
    form = hk.assemble(kern)
    D = np.random.default_rng(0).permutation(space.n_points)
    part = hk.part_on(form, D)
    f = np.random.default_rng(1).normal(size=D.size)
    g = f * np.sqrt(part.weights)
    assert part.energy(f) == float((part.S @ g) @ g)
    assert part.energy(f) == pytest.approx(form.energy(f[np.argsort(D)]), rel=1e-12)


def test_a_part_on_every_atom_is_refused_where_the_full_form_is_needed():
    # a part keeps its S, whatever its domain; a permuted whole domain used to
    # pass as the full form, and its own parts read the kernel by atom id
    # against its diagonal, which is in its domain order
    space = hk.build_cantor_product(1 / 3, 1, 5)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    form = hk.assemble(hk.build_cantor_axis_kernel(scale))
    part = hk.part_on(form, np.random.default_rng(0).permutation(space.n_points))
    assert part.is_part and not form.is_part
    balls = [(0, 0.5)]
    for refused in (lambda: hk.part_on(part, [0, 1, 2]),
                    lambda: hk.te_check(part, scale, 1.0, balls, [0.1]),
                    lambda: hk.due_check(part, scale, 1.0, [0.1],
                                         hk.Stream(0))):
        with pytest.raises(ParameterError, match="full-space"):
            refused()


def test_full_form_energy_is_chunked_L(chunk_budget):
    space, _, kern = random_setup(3)
    form = hk.assemble(kern)
    w, L = space.weights, full_generator(form)
    fs = np.random.default_rng(6).normal(size=(4, space.n_points))
    for f in fs:
        assert form.energy(f) == pytest.approx(float((L @ f) @ (f * w)), rel=1e-13)
    # several functions in one pass: the floats of one call per function
    assert _same_bits(form.energy(fs), [form.energy(f) for f in fs])
    part = hk.part_on(form, np.arange(0, space.n_points, 2))
    gs = fs[:, ::2].copy()
    assert _same_bits(part.energy(gs), [part.energy(g) for g in gs])


@pytest.mark.parametrize("r", [0.5, 0.25])
def test_full_form_energy_of_a_cutoff_is_exact(r):
    # the mu-integral of the energy density, against the exactly rounded sum
    # of the N^2 pair terms; through L f, less the mu-mean, the energy was
    # 2.8e-14 (r = 0.5) and 6.4e-14 (r = 0.25) off on this 256-atom set
    space = hk.build_cantor_product(1 / 3, 1, 8)
    kern = hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8, T0=1.0))
    cut = space.ball(0, r).cutoff()
    terms = (cut[:, None] - cut[None, :]) ** 2 * kern.matrix() * np.outer(space.weights,
                                                                            space.weights)
    want = math.fsum(terms.ravel())
    assert abs(hk.assemble(kern).energy(cut) - want) <= 1e-15 * want


@pytest.mark.parametrize("case", ["custom", "cantor", "rounding"])
def test_capacity_energy_is_the_full_form_energy(chunk_budget, case):
    # one formula: the check, which reads no form, and the form agree bit for bit
    space, kern, _ = _generator_case(case)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    form = hk.assemble(kern)
    sample = [(x0, r) for x0 in (0, 5) for r in (0.2, 0.6)]
    rep = hk.capacity_check(kern, scale, sample)
    for (x0, r), row in zip(sample, rep.series):
        assert _same_bits(row["energy"], form.energy(space.ball(x0, r).cutoff()))


@pytest.mark.parametrize("case", ["custom", "cantor", "rounding"])
def test_cs_check_reads_the_kernel_in_row_chunks(chunk_budget, case):
    # the dense formula on the oracle matrix, bit for bit, for every cutoff
    space, kern, _ = _generator_case(case)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    sample = [(x0, r) for x0 in (0, 5) for r in (0.2, 0.6)]
    rep = hk.cs_check(kern, scale, sample)
    jmat, w = kern.matrix(), space.weights
    for (x0, r), row in zip(sample, rep.series):
        cut = np.clip(1.0 - (space.dist_from(x0) - r / 2.0) / (r / 4.0), 0.0, 1.0)
        vals = ((cut[:, None] - cut[None, :]) ** 2 * jmat * w[None, :]).sum(axis=1)
        vals *= hk.phi(scale, np.arange(space.n_points), r / 4.0)
        assert row["x"] == int(np.argmax(vals)) and _same_bits(row["c"], vals.max())


@pytest.mark.parametrize("build", [
    hk.build_uniform_kernel, hk.build_zero_kernel, hk.build_nearest_neighbor_kernel,
    lambda space: hk.build_stable_like_kernel(hk.constant_field(space, 0.8))],
    ids=["uniform", "zero", "nearest_neighbor", "stable_like"])
def test_assemble_refuses_above_the_dense_cap(build):
    # lazy kernels, built above the cap with no N x N array: the dense
    # eigensolve is what the cap refuses, before any N x N array is made
    space = hk.build_grid(2, 91, point_cap=1 << 14)    # 8281 atoms
    kern = build(space)
    with pytest.raises(PointCapExceeded):
        hk.assemble(kern)
    assert kern._matrix is None


def test_dense_refusals_name_the_fixed_cap():
    # no point_cap lifts the dense cap, so the refusals do not suggest one
    space = hk.build_cantor_product(1 / 3, 1, 14, point_cap=1 << 14)
    kern = hk.build_zero_kernel(space)
    for refused in (lambda: hk.assemble(kern), kern.matrix, space.pairwise):
        with pytest.raises(PointCapExceeded) as exc:
            refused()
        assert "dense-matrix cap of 8192" in str(exc.value)
        assert "point_cap=" not in str(exc.value)
