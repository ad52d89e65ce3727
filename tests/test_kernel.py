import math
import tracemalloc

import numpy as np
import pytest

import hklab as hk
from conftest import random_setup
from hklab.errors import ParameterError, UnsupportedKernelError
from hklab.kernel import _tail_masses

ALPHA_THIRD = math.log(2) / math.log(3)


def brute_force_tail(kernel, space, x, r):
    total = 0.0
    for y in range(space.n_points):
        if space.dist(x, y) >= r:
            total += kernel.j(x, y) * space.weights[y]
    return total


def test_cantor_axis_single_pair_value():
    sp = hk.build_cantor_product(1 / 3, 1, 1)
    field = hk.constant_field(sp, 0.8)
    kern = hk.build_cantor_axis_kernel(field)
    i0 = int(np.argmin(sp.coords[:, 0]))
    i1 = int(np.argmax(sp.coords[:, 0]))
    expected = (2.0 / 3.0) ** (-(ALPHA_THIRD + 0.8))
    assert kern.j(i0, i1) == pytest.approx(expected, rel=1e-12)
    assert kern.j(i0, i0) == 0.0


def test_cantor_axis_diagonal_moves_forbidden():
    sp = hk.build_cantor_product(1 / 3, 2, 2)
    field = hk.constant_field(sp, 0.8)
    kern = hk.build_cantor_axis_kernel(field)
    # find a pair differing in both axes
    c = sp.coords
    for i in range(sp.n_points):
        for k in range(sp.n_points):
            moved = np.sum(np.abs(c[i] - c[k]) > 1e-12)
            if moved == 2:
                assert kern.j(i, k) == 0.0
                return
    raise AssertionError("no two-axis pair found")


def test_cantor_axis_symmetric_with_variable_order():
    cfg = hk.synthesize_config(0.5, level=3)
    sp = hk.build_cantor_product(cfg.xi, 2, 3)
    field = hk.build_counterexample_field(cfg, sp)
    kern = hk.build_cantor_axis_kernel(field)
    m = kern.matrix()
    assert np.allclose(m, m.T, atol=1e-12 * max(m.max(), 1.0))
    assert sp.n_points <= 200


def test_stable_like_two_point_grid():
    sp = hk.build_grid(1, 2)
    field = hk.constant_field(sp, 1.0)
    kern = hk.build_stable_like_kernel(field)
    # V(0,1) counts atoms strictly inside distance 1: just the center atom
    assert kern.j(0, 1) == pytest.approx(2.0, rel=1e-12)
    assert kern.j(0, 0) == 0.0


@pytest.mark.parametrize("d,side", [(1, 16), (2, 6)])
def test_stable_like_ties_atoms_at_equal_distance(d, side):
    # volumes and phi are read in whole grid steps, so atoms at the same
    # distance tie exactly however their coordinates round: on the 16-atom
    # line j(2, 3) was half of j(2, 1), and the kernel was not symmetric
    # under the central reflection, which reverses the order of the atoms
    sp = hk.build_grid(d, side)
    kern = hk.build_stable_like_kernel(hk.constant_field(sp, 0.8, T0=1.0))
    if d == 1:
        assert kern.j(2, 3) == kern.j(2, 1) and kern.j(3, 4) == kern.j(3, 2)
    m = kern.matrix()
    assert np.array_equal(m, m[::-1, ::-1])


def test_stable_like_distance_doubling_ratio():
    sp = hk.build_grid(1, 32)
    field = hk.constant_field(sp, 1.0)
    kern = hk.build_stable_like_kernel(field)
    x, step = 16, 4
    spacing = sp.meta["spacing"]
    j_near = kern.j(x, x + step)
    j_far = kern.j(x, x + 2 * step)
    ratio = j_far / j_near
    assert ratio == pytest.approx(0.25, abs=0.05)
    assert sp.dist(x, x + 2 * step) == pytest.approx(2 * sp.dist(x, x + step))
    assert spacing * step == pytest.approx(sp.dist(x, x + step))


def test_truncate_partition_identities(cantor6):
    space, scale, kern = cantor6
    near, far = hk.truncate(kern, 0.3)
    m = kern.matrix()
    assert np.allclose(near.matrix() + far.matrix(), m, atol=0)
    d = space.pairwise()
    assert np.all(far.matrix()[(d < 0.3) & (d > 0)] == 0)
    assert np.all(near.matrix()[d >= 0.3] == 0)

    _, far_all = hk.truncate(kern, 2.0)      # rho > diameter
    assert np.abs(far_all.matrix()).max() == 0.0
    near_none, _ = hk.truncate(kern, 1e-12)  # rho below atom spacing
    assert np.abs(near_none.matrix()).max() == 0.0


@pytest.mark.parametrize("rho", [math.nan, 0.0, -1.0])
def test_truncate_refuses_a_radius_that_is_not_positive(cantor6, rho):
    # rho nan made both the near and the far kernel zero, so every jump was
    # lost; rho inf (beyond the diameter) stays allowed
    _, _, kern = cantor6
    with pytest.raises(ParameterError, match="positive"):
        hk.truncate(kern, rho)
    with pytest.raises(ParameterError, match="positive"):
        hk.Truncation(hk.assemble(kern), rho)
    assert np.abs(hk.truncate(kern, math.inf)[1].matrix()).max() == 0.0


def test_tail_mass_against_brute_force(cantor6):
    space, scale, kern = cantor6
    for x, r in [(0, 2.0**-3), (7, 0.1), (21, 0.55)]:
        assert hk.tail_mass(kern, x, r) == pytest.approx(
            brute_force_tail(kern, space, x, r), rel=1e-12)


def test_tail_mass_edge_cases():
    sp = hk.build_two_point(gap=0.8)
    kern = hk.build_uniform_kernel(sp, value=3.0)
    assert hk.tail_mass(kern, 0, 2.0) == 0.0
    assert hk.tail_mass(kern, 0, 0.5) == pytest.approx(3.0 * 0.5)


def test_tail_of_near_part_vanishes_at_rho(cantor6):
    space, scale, kern = cantor6
    near, _ = hk.truncate(kern, 0.25)
    assert np.abs(_tail_masses(near, [0.25])).max() == 0.0


def test_tj_zero_kernel_and_scaling(cantor6):
    space, scale, kern = cantor6
    grid = hk.dyadic_radius_grid(space)
    zero = hk.build_zero_kernel(space)
    assert hk.tj_check(zero, scale, grid).best_constant == 0.0
    base = hk.tj_check(kern, scale, grid).best_constant
    scaled_kern = hk.JumpKernel(space, lambda rows, cols: 3.5 * kern.block(rows, cols),
                                kern.support_pattern)
    scaled = hk.tj_check(scaled_kern, scale, grid).best_constant
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_tjq_reduces_to_tj_at_q1():
    sp = hk.build_grid(1, 32)
    field = hk.constant_field(sp, 1.0)
    kern = hk.build_stable_like_kernel(field)
    grid = hk.dyadic_radius_grid(sp)
    c_tj = hk.tj_check(kern, field, grid).best_constant
    c_q1 = hk.tjq_check(kern, field, 1.0, grid).best_constant
    assert c_q1 == pytest.approx(c_tj, rel=1e-12)


def test_tjq_q2_finite_on_grid():
    sp = hk.build_grid(1, 64)
    field = hk.constant_field(sp, 1.0)
    kern = hk.build_stable_like_kernel(field)
    rep = hk.tjq_check(kern, field, 2.0, hk.dyadic_radius_grid(sp))
    assert math.isfinite(rep.best_constant) and rep.best_constant > 0


def test_tjq_refuses_axis_kernel(cantor6):
    space, scale, kern = cantor6
    with pytest.raises(UnsupportedKernelError, match="density"):
        hk.tjq_check(kern, scale, 2.0, hk.dyadic_radius_grid(space))


def test_ij_homogeneous_gamma_near_zero():
    sp = hk.build_grid(1, 48)
    field = hk.constant_field(sp, 1.0)
    kern = hk.build_stable_like_kernel(field)
    grid = [2.0**-k for k in range(1, 6)]
    pairs = [(r, R) for r in grid for R in grid if r <= R]
    rep = hk.ij_check(kern, field, 0.0, pairs)
    gamma_hat = rep.witness["gamma_hat"]
    assert abs(gamma_hat) <= 0.15


def test_ij_fitted_exponent_below_general_bound(cantor6):
    space, scale, kern = cantor6
    radii = np.sort(2.0 ** -np.arange(1, 6, dtype=float))
    alpha_hat, _ = hk.fit_vd_exponent(space, radii)
    alpha0_hat = hk.fit_rvd_exponent(space, radii)
    bound = alpha_hat / (2 * scale.beta1) - alpha0_hat / (2 * scale.beta2) + 0.1
    grid = [2.0**-k for k in range(1, 6)]
    pairs = [(r, R) for r in grid for R in grid if r <= R]
    rep = hk.ij_check(kern, scale, 0.0, pairs)
    assert rep.witness["gamma_hat"] <= bound


def test_ij_zero_kernel(cantor6):
    space, scale, _ = cantor6
    zero = hk.build_zero_kernel(space)
    rep = hk.ij_check(zero, scale, 0.0, [(0.1, 0.2), (0.1, 0.4)])
    assert rep.best_constant == 0.0


@pytest.mark.parametrize("call,name", [
    (lambda k, s, g: hk.tjq_check(k, s, math.nan, g), "q"),
    (lambda k, s, g: hk.tjq_check(k, s, math.inf, g), "q"),
    (lambda k, s, g: hk.tjq_check(k, s, 2.0, g, threshold=math.nan), "threshold"),
    (lambda k, s, g: hk.tj_check(k, s, g, threshold=math.nan), "threshold"),
    (lambda k, s, g: hk.ij_check(k, s, math.nan, [(g[0], g[-1])]), "gamma"),
    (lambda k, s, g: hk.ij_check(k, s, math.inf, [(g[0], g[-1])]), "gamma")],
    ids=["tjq-q-nan", "tjq-q-inf", "tjq-threshold", "tj-threshold", "ij-gamma-nan",
         "ij-gamma-inf"])
def test_kernel_checks_refuse_non_finite_parameters(call, name):
    # a NaN q or gamma swept to best 0.0 and witness {}, and a NaN threshold
    # failed the verdict, without a word
    sp = hk.build_grid(1, 16)
    field = hk.constant_field(sp, 1.0)
    with pytest.raises(ParameterError, match=f"^{name} must be finite$"):
        call(hk.build_stable_like_kernel(field), field, hk.dyadic_radius_grid(sp))


def test_symmetry_exhaustive_small_spaces():
    for seed in range(3):
        space, _, kern = random_setup(seed, max_points=400)
        if space.n_points > 200:
            continue
        m = kern.matrix()
        assert np.allclose(m, m.T, atol=1e-12 * max(np.abs(m).max(), 1.0))


def test_cross_jump_single_pair_regime():
    sp = hk.build_cantor_product(1 / 3, 2, 3)
    field = hk.constant_field(sp, 1.0)
    kern = hk.build_cantor_axis_kernel(field)
    # eta*r = 1/18: captures exactly (0,0) near the zero corner and
    # (26/27, 0) near the e1 corner (next candidates sit at distance 2/27, 3/27)
    r, eta = 1.0 / 9.0, 0.5
    rad = eta * r
    assert np.sum(sp.dist_from_coord([0.0, 0.0]) < rad) == 1
    assert np.sum(sp.dist_from_coord([1.0, 0.0]) < rad) == 1
    got = hk.cross_jump_mass(kern, r, eta)
    top = 26.0 / 27.0
    mu = 1.0 / sp.n_points
    expected = top ** (-(ALPHA_THIRD + 1.0)) * 8 * mu * mu
    assert got == pytest.approx(expected, rel=1e-12)


def test_cross_jump_vanishes_without_far_part():
    sp = hk.build_cantor_product(1 / 3, 2, 3)
    field = hk.constant_field(sp, 1.0)
    kern = hk.build_cantor_axis_kernel(field)
    near, _ = hk.truncate(kern, 0.2)       # below the 1/4 indicator
    assert hk.cross_jump_mass(near, 0.25, 0.5) == 0.0


def test_cross_jump_requires_cantor():
    g = hk.build_grid(1, 8)
    kern = hk.build_uniform_kernel(g)
    with pytest.raises(ParameterError):
        hk.cross_jump_mass(kern, 0.1, 0.5)


def test_nearest_neighbor_kernel_pattern():
    g = hk.build_grid(1, 8)
    kern = hk.build_nearest_neighbor_kernel(g)
    m = kern.matrix()
    h = g.meta["spacing"]
    assert m[0, 1] == pytest.approx(1.0 / h**2)
    assert m[0, 2] == 0.0
    assert kern.support_pattern == "nearest_neighbor"


def test_cylindrical_kernel_axis_pattern():
    g = hk.build_grid(2, 4)
    field = hk.constant_field(g, 1.0)
    kern = hk.build_cylindrical_kernel(field)
    c = g.coords
    for i in range(g.n_points):
        for k in range(g.n_points):
            moved = np.sum(np.abs(c[i] - c[k]) > 1e-12)
            if moved == 2:
                assert kern.j(i, k) == 0.0
    m = kern.matrix()
    assert np.allclose(m, m.T)


# ---------------------------------------------------------------------------
# Grid kernels against the dense builders they replaced
# ---------------------------------------------------------------------------

def stable_like_reference(space, scale, lower_constant=1.0):
    """The stable-like kernel matrix as first built: one row at a time from
    the whole distance matrix, with ball volumes from a sorted row."""
    per_unit = space.meta["side"] - 1
    dist = np.rint(space.pairwise() * per_unit)
    n = space.n_points
    raw = np.zeros((n, n))
    for x in range(n):
        row = dist[x]
        order = np.argsort(row, kind="stable")
        cumw = np.concatenate([[0.0], np.cumsum(space.weights[order])])
        vol = cumw[np.searchsorted(row[order], row, side="left")]
        r = row / per_unit
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_row = np.where(r <= 1.0, r ** scale.beta_values[x], r ** scale.beta1)
            raw[x] = lower_constant / (vol * phi_row)
    raw[~np.isfinite(raw)] = 0.0
    np.fill_diagonal(raw, 0.0)
    return 0.5 * (raw + raw.T)


def nearest_neighbor_reference(space, value=1.0):
    """The nearest-neighbour kernel matrix as first built, from the whole
    distance matrix."""
    dist = space.pairwise()
    h = float(dist[dist > 0].min())
    m = np.where((dist > 0) & (dist <= h * (1 + 1e-9)), value / h**2, 0.0)
    np.fill_diagonal(m, 0.0)
    return m


@pytest.mark.parametrize("d,side,field,lower_constant", [
    (1, 2, "constant", 1.0), (1, 33, "sqrt", 1.3), (1, 16, "table", 1.3),
    (2, 8, "constant", 1.3), (2, 9, "table", 1.0), (2, 6, "square", 1.0),
    (3, 4, "table", 1.3), (3, 5, "constant", 1.0)])
def test_stable_like_matches_the_dense_builder(chunk_budget, d, side, field, lower_constant):
    # bit for bit, with orders of 0.5 and 2, which numpy's scalar power
    # takes as sqrt and square, and a table field that repeats some orders
    sp = hk.build_grid(d, side)
    if field == "table":
        rng = np.random.default_rng(side)
        orders = np.where(rng.random(sp.n_points) < 0.5, rng.uniform(0.5, 2.0, sp.n_points),
                          rng.choice([0.5, 1.0, 2.0], sp.n_points))
        scale = hk.field_from_table(sp, orders, 0.5, 2.0)
    else:
        scale = hk.constant_field(sp, {"constant": 0.8, "sqrt": 0.5, "square": 2.0}[field])
    kern = hk.build_stable_like_kernel(scale, lower_constant)
    ref = stable_like_reference(sp, scale, lower_constant)
    assert np.array_equal(kern.matrix().view(np.uint64), ref.view(np.uint64))


def test_stable_like_build_holds_no_table_of_n_rows():
    # a 1-D grid, where side = N; tracemalloc sees numpy's arrays.  The
    # build kept an N x side table of the one-sided values (32 MB here, and
    # 128 MB at 4096 atoms), and then one phi row of side steps per distinct
    # order, as many rows again under a two-anchor field, whose orders ramp
    # from one plateau to the other; the lattice indices and the orders are a
    # few arrays of N entries
    sp = hk.build_grid(1, 2048)
    fields = [hk.field_from_table(sp, np.resize([0.7, 1.1, 1.6], sp.n_points), 0.5, 2.0),
              hk.field_from_balls(sp, [(0, 0.1, 0.6), (sp.n_points - 1, 0.1, 1.9)], 0.5, 2.0)]
    assert np.unique(fields[1].beta_values).size > sp.n_points // 2
    for scale in fields:
        tracemalloc.start()
        try:
            kern = hk.build_stable_like_kernel(scale, 1.3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 16 * sp.n_points * 8
        assert kern.j(0, 5) > kern.j(0, 6) > 0


def _lattice_with_euclidean_metric(side):
    pts = np.array([(a, b) for a in range(side) for b in range(side)]) / (side - 1)
    metric = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    return hk.build_custom(pts, np.full(side * side, 1.0 / side**2), metric_matrix=metric)


@pytest.mark.parametrize("case", ["line", "square", "cube", "explicit_metric"])
def test_nearest_neighbor_matches_the_dense_threshold(chunk_budget, case):
    if case == "explicit_metric":
        sp = _lattice_with_euclidean_metric(7)
    else:
        sp = hk.build_grid({"line": 1, "square": 2, "cube": 3}[case], 9 if case == "line" else 5)
    kern = hk.build_nearest_neighbor_kernel(sp, 1.7)
    ref = nearest_neighbor_reference(sp, 1.7)
    assert np.array_equal(kern.matrix().view(np.uint64), ref.view(np.uint64))
    assert kern.meta["spacing"] == float(sp.pairwise()[sp.pairwise() > 0].min())


def test_nearest_neighbor_refuses_coincident_and_single_atoms():
    pair = hk.FiniteMMSpace(coords=[[0.0], [0.0], [1.0]], weights=np.full(3, 1 / 3),
                            diameter=1.0)
    with pytest.raises(ParameterError, match="must not coincide"):
        hk.build_nearest_neighbor_kernel(pair)
    single = hk.build_custom([[0.5]], [1.0])
    with pytest.raises(ParameterError, match="fewer than two distinct points"):
        hk.build_nearest_neighbor_kernel(single)


def test_custom_space_is_refused_by_the_lattice_kernels():
    # a custom space has neither a grid's lattice nor a Cantor construction
    coords = [[0.0, 0.0], [0.3, 0.0], [0.7, 0.2], [1.0, 1.0]]
    sp = hk.build_custom(coords, [0.1, 0.2, 0.3, 0.4])
    assert sp.meta == {"kind": "custom"}
    scale = hk.constant_field(sp, 0.8)
    with pytest.raises(ParameterError, match="grid space"):
        hk.build_stable_like_kernel(scale)
    with pytest.raises(ParameterError, match="cantor product"):
        hk.build_cantor_axis_kernel(scale)


# ---------------------------------------------------------------------------
# Chunked checkers against the per-atom loops they replaced
# ---------------------------------------------------------------------------

def brute_force_ij_q(kernel, space, scale, pairs):
    """Q(x) for every pair and every atom x, by the per-atom loop ij_check used to run."""
    all_idx = np.arange(space.n_points)
    q = np.zeros((len(pairs), space.n_points))
    for p, (r, big_r) in enumerate(pairs):
        inv_radii = hk.phi_inverse(scale, all_idx, r)
        vols_r = np.array([space.volume(int(y), float(inv_radii[y])) for y in all_idx])
        for x in range(space.n_points):
            r1 = hk.phi_inverse(scale, x, big_r)
            d = space.dist_from(x)
            ann = np.flatnonzero((d >= r1) & (d < 2 * r1))
            if ann.size == 0:
                continue
            vals = kernel.block(np.array([x]), ann)[0]
            lhs = float((vals * space.weights[ann] / np.sqrt(vols_r[ann])).sum())
            q[p, x] = lhs * big_r * math.sqrt(vols_r[x])
    return q


def test_ij_check_takes_one_volume_pass_per_distinct_r(monkeypatch):
    # it used to take one per (r, R) pair: 10 here, where 4 suffice
    space, scale, kern = random_setup(1)
    grid = [2.0**-k for k in range(1, 5)]
    pairs = [(r, R) for r in grid for R in grid if r <= R]
    radii = []
    volumes_at = space.volumes_at
    monkeypatch.setattr(space, "volumes_at", lambda r: radii.append(r) or volumes_at(r))
    hk.ij_check(kern, scale, 0.5, pairs)
    assert len(pairs) == 10 and len(radii) == 4


@pytest.mark.parametrize("seed", range(5))
def test_tail_mass_all_matches_per_point(seed, chunk_budget):
    space, _, kern = random_setup(seed)
    for r in (0.05, 0.3, 0.7):
        want = [hk.tail_mass(kern, x, r) for x in range(space.n_points)]
        assert np.allclose(_tail_masses(kern, [r])[0], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(3))
def test_energy_density_is_the_dense_pair_sum_of_each_row(seed, chunk_budget):
    # bit for bit, whatever the chunks; its mu-integral is the energy
    space, _, kern = random_setup(seed)
    jmat, w = kern.matrix(), space.weights
    fs = np.random.default_rng(seed).normal(size=(3, space.n_points))
    for f, gamma in zip(fs, hk.kernel.energy_density(kern, fs)):
        want = ((f[:, None] - f[None, :]) ** 2 * jmat * w[None, :]).sum(axis=1)
        assert gamma.tobytes() == want.tobytes()
    assert hk.kernel.energy_density(kern, fs[:0]).shape == (0, space.n_points)
    for refused in (fs[0], fs[:, 1:], fs[None]):
        with pytest.raises(ParameterError, match="one function of"):
            hk.kernel.energy_density(kern, refused)


@pytest.mark.parametrize("seed", range(5))
def test_ij_matches_per_atom_loop(seed, chunk_budget):
    space, scale, kern = random_setup(seed)
    grid = [2.0**-k for k in range(1, 5)]
    pairs = [(r, R) for r in grid for R in grid if r <= R]
    rep = hk.ij_check(kern, scale, 0.5, pairs)
    q = brute_force_ij_q(kern, space, scale, pairs)
    for p, row in enumerate(rep.series):
        assert row["Q_max"] == pytest.approx(q[p].max(), rel=1e-12, abs=0)
        if row["x"] is not None:       # the witness attains the maximum
            assert q[p, row["x"]] == pytest.approx(q[p].max(), rel=1e-12, abs=0)
    want = max(q[p].max() * (r / R) ** 0.5 for p, (r, R) in enumerate(pairs))
    assert rep.best_constant == pytest.approx(want, rel=1e-12, abs=0)


def test_tjq_matches_per_atom_loop(chunk_budget):
    space, scale, kern = random_setup(4)
    radii = [0.05, 0.2, 0.5]
    rep = hk.tjq_check(kern, scale, 2.0, radii)
    for row, r in zip(rep.series, radii):
        c = [math.sqrt(float(kern.block([x], np.arange(space.n_points))[0] ** 2
                             @ (space.weights * (space.dist_from(x) >= r))))
             * math.sqrt(space.volume(x, r)) * hk.phi(scale, x, r)
             for x in range(space.n_points)]
        assert row["C_at_r"] == pytest.approx(max(c), rel=1e-12, abs=0)


def _kernels_for_matrix_test():
    cantor = hk.build_cantor_product(1 / 3, 2, 3)
    ramp = hk.field_from_table(cantor, np.linspace(0.6, 1.2, cantor.n_points), 0.6, 1.2)
    axis = hk.build_cantor_axis_kernel(ramp)
    grid = hk.build_grid(2, 7)
    stable = hk.build_stable_like_kernel(hk.constant_field(grid, 1.1))
    ones = hk.JumpKernel(grid, lambda rows, cols: np.ones((rows.size, cols.size)))
    return [axis, hk.truncate(axis, 0.3)[0], hk.truncate(axis, 0.3)[1], stable,
            hk.build_uniform_kernel(grid, 2.5), ones]


def test_matrix_equals_single_block(chunk_budget):
    for kern in _kernels_for_matrix_test():
        idx = np.arange(kern.space.n_points)
        ref = kern.block(idx, idx)
        assert np.array_equal(kern.matrix().view(np.uint64), ref.view(np.uint64))


def test_block_is_zero_wherever_a_row_atom_equals_a_column_atom():
    # block is the one place a kernel's diagonal is zeroed: a block function
    # that puts 1 everywhere, read with repeated and shuffled rows and
    # columns, and the whole-space block of every builder
    ones = _kernels_for_matrix_test()[-1]
    rows, cols = np.array([3, 0, 3, 7]), np.array([7, 3, 1, 3, 0])
    want = (rows[:, None] != cols[None, :]).astype(float)
    assert np.array_equal(ones.block(rows, cols), want)
    assert ones.j(4, 4) == 0.0 and ones.j(4, 5) == 1.0
    for kern in _kernels_for_matrix_test() + [hk.build_nearest_neighbor_kernel(
            hk.build_grid(2, 7)), hk.build_zero_kernel(hk.build_grid(1, 4))]:
        idx = np.arange(kern.space.n_points)
        block = kern.block(idx, idx)
        assert np.array_equal(np.diagonal(block).view(np.uint64), np.zeros(idx.size, np.uint64))


def axis_aligned_reference(space, beta_values, alpha_axis, off_axis_factor):
    # the block formula over an (N, N, n_axes) difference array, as first written
    c = space.coords
    diff = np.abs(c[:, None, :] - c[None, :, :])
    moved = (diff > 1e-12).sum(axis=2)
    bmin = np.minimum(beta_values[:, None], beta_values[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = diff.max(axis=2) ** (-(alpha_axis + bmin)) * off_axis_factor
    return np.where(moved == 1, vals, 0.0)


@pytest.mark.parametrize("n_axes", [1, 2, 3])
def test_axis_aligned_block_equals_reference(n_axes):
    rng = np.random.default_rng(n_axes)
    cantor = hk.build_cantor_product(1 / 3, n_axes, 6 // n_axes)
    grid = hk.build_grid(n_axes, 30 // n_axes ** 2)
    for sp in (cantor, grid):
        field = hk.field_from_table(sp, rng.uniform(0.5, 1.5, sp.n_points), 0.5, 1.5)
        if sp is cantor:
            kern = hk.build_cantor_axis_kernel(field)
            alpha, factor = kern.meta["alpha"], float(sp.meta["axis_atoms"]) ** (n_axes - 1)
        else:
            kern = hk.build_cylindrical_kernel(field)
            alpha, factor = 1.0, float(sp.meta["side"]) ** (n_axes - 1)
        idx = np.arange(sp.n_points)
        ref = axis_aligned_reference(sp, field.beta_values, alpha, factor)
        assert np.array_equal(kern.block(idx, idx).view(np.uint64), ref.view(np.uint64))
        rows = rng.permutation(sp.n_points)[:9]
        assert np.array_equal(kern.block(rows, idx[::-1]), ref[np.ix_(rows, idx[::-1])])


def test_block_never_writes_through_what_the_block_function_returns(chunk_budget):
    # views of the caller's matrix (with a nonzero diagonal, which block
    # zeroes in its copy) and read-only broadcast arrays are copied
    sp = hk.build_grid(1, 16)
    user = np.random.default_rng(2).random((16, 16))
    user = user + user.T
    kept = user.copy()

    def view_fn(rows, cols):
        return user[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]

    view_kern = hk.JumpKernel(sp, view_fn)
    assert np.shares_memory(view_fn(np.arange(16), np.arange(16)), user)
    form = hk.assemble(view_kern)
    assert np.array_equal(user, kept)
    expected = hk.assemble(hk.JumpKernel(sp, lambda r, c: kept[np.ix_(r, c)]))
    assert np.array_equal(form.eigvals, expected.eigvals)
    block = view_kern.block(np.arange(4), np.arange(16))
    block[:] = -1.0
    assert np.array_equal(user, kept)

    const = hk.JumpKernel(sp, lambda r, c: np.broadcast_to(2.0, (r.size, c.size)))
    block = const.block(np.arange(16), np.arange(16))
    assert block.flags.writeable and np.array_equal(block, 2.0 - 2.0 * np.eye(16))
    uniform = hk.assemble(hk.build_uniform_kernel(sp, 2.0))
    assert np.array_equal(hk.assemble(const).eigvals, uniform.eigvals)
