import math
from fractions import Fraction

import numpy as np
import pytest

import hklab as hk
from conftest import random_setup
from hklab.errors import ParameterError, PointCapExceeded

ALPHA_THIRD = math.log(2) / math.log(3)


def cantor_endpoints_oracle(xi: Fraction, level: int) -> list[Fraction]:
    # direct removal rule, independent of the builder implementation
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        nxt = []
        for a, b in intervals:
            length = b - a
            nxt.append((a, a + length * (1 - xi) / 2))
            nxt.append((b - length * (1 - xi) / 2, b))
        intervals = nxt
    return sorted(a for a, _ in intervals)


def test_cantor_level1():
    sp = hk.build_cantor_product(1 / 3, 1, 1)
    assert np.allclose(np.sort(sp.coords.ravel()), [0.0, 2.0 / 3.0])
    assert np.allclose(sp.weights, 0.5)


def test_cantor_level2_matches_removal_rule():
    expected = [float(e) for e in cantor_endpoints_oracle(Fraction(1, 3), 2)]
    sp = hk.build_cantor_product(1 / 3, 1, 2)
    assert np.allclose(np.sort(sp.coords.ravel()), expected)
    assert expected == pytest.approx([0.0, 2 / 9, 2 / 3, 8 / 9])
    assert np.allclose(sp.weights, 0.25)



@pytest.mark.parametrize("xi", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 7),
                                Fraction(999, 1000), Fraction(1, 10**9)])
def test_cantor_endpoints_are_the_nearest_doubles(xi):
    # one correctly rounded integer division each: the doubles of the exact
    # endpoints, in ascending order
    for level in range(1, 14):
        expected = [float(e) for e in cantor_endpoints_oracle(xi, level)]
        assert hk.space.cantor_axis_endpoints(xi, level) == expected


def test_cantor_product_mass_and_diameter():
    sp = hk.build_cantor_product(1 / 2, 2, 3)
    assert sp.n_points == 64
    assert sp.total_mass == pytest.approx(1.0, abs=1e-15)
    assert sp.diameter == 1.0


@pytest.mark.parametrize("level", [3, 4])
def test_cantor_mass_conserved_under_refinement(level):
    # weights are exact binary powers, so the sum is exactly one
    for lvl in (level, level + 1):
        assert hk.build_cantor_product(1 / 3, 1, lvl).total_mass == 1.0


def test_cantor_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        hk.build_cantor_product(1.5, 1, 2)
    with pytest.raises(PointCapExceeded) as exc:
        hk.build_cantor_product(1 / 3, 2, 7)
    assert exc.value.requested == 2**14
    # at xi = 1 - 2^-39, level 3, the last two atoms 1 - 2^-80 and 1 - 2^-120
    # both round to 1.0
    xi = Fraction(2**39 - 1, 2**39)
    assert hk.build_cantor_product(xi, 1, 2).n_points == 4
    with pytest.raises(ParameterError, match="one double-precision coordinate"):
        hk.build_cantor_product(xi, 1, 3)


def test_grid_examples():
    g1 = hk.build_grid(1, 2)
    assert np.allclose(np.sort(g1.coords.ravel()), [0.0, 1.0])
    assert np.allclose(g1.weights, 0.5)
    g2 = hk.build_grid(2, 3)
    assert g2.n_points == 9
    assert g2.total_mass == pytest.approx(1.0)


def test_grid_ball_volume_within_one_shell():
    side = 16
    g = hk.build_grid(2, side)
    center = int(np.argmin(g.dist_from_coord([0.5, 0.5])))
    r = 0.25 + 0.01
    # per-axis count oracle: coords k/(side-1), |k - k0| < r (side-1)
    k0 = np.round(g.coords[center] * (side - 1)).astype(int)
    per_axis = [sum(abs(k - k0[a]) < r * (side - 1) for k in range(side))
                for a in range(2)]
    expected_count = per_axis[0] * per_axis[1]
    ball = g.ball(center, r)
    assert ball.member_idx.size == expected_count
    shell = ((per_axis[0] + 2) * (per_axis[1] + 2) - expected_count) / side**2
    assert abs(ball.volume - 0.25) <= shell


def test_ball_two_point():
    sp = hk.build_two_point()
    assert sp.ball(0, 2.0).member_idx.tolist() == [0, 1]
    assert sp.ball(0, 2.0).volume == pytest.approx(1.0)
    half = sp.ball(0, 0.5)
    assert half.member_idx.tolist() == [0]
    assert half.volume == pytest.approx(0.5)


def test_ball_cantor_strict_inequality():
    sp = hk.build_cantor_product(1 / 3, 1, 2)
    coords = np.sort(sp.coords.ravel())
    x = int(np.argmin(sp.coords.ravel()))
    ball = sp.ball(x, 0.3)
    # oracle: enumerate distances from 0
    members = [i for i in range(sp.n_points) if abs(sp.coords[i, 0]) < 0.3]
    assert sorted(ball.member_idx.tolist()) == sorted(members)
    assert ball.volume == pytest.approx(0.5)
    assert coords[1] == pytest.approx(2 / 9)
    # the ball record against the distance layer, on both metric paths
    prod = hk.build_cantor_product(1 / 3, 2, 2)
    for space in (prod, explicit_copy(prod)):
        for x, r in ((0, 0.3), (5, 0.5), (9, 0.05), (15, 1.5)):
            ball, d = space.ball(x, r), space.dist_from(x)
            assert ball.member_idx.tolist() == np.flatnonzero(d < r).tolist()
            assert ball.volume == pytest.approx(space.volumes_at(r)[x], rel=1e-14)
            for s in (r / 4, r / 2, r):
                assert ball.within(s).tolist() == np.flatnonzero(d < s).tolist()


def test_ball_unknown_point():
    sp = hk.build_two_point()
    with pytest.raises(ParameterError):
        sp.ball(5, 0.1)


def test_metric_axioms_all_builders():
    for sp in (hk.build_two_point(), hk.build_grid(2, 5),
               hk.build_cantor_product(1 / 3, 1, 5),
               hk.build_cantor_product(1 / 2, 2, 3)):
        assert sp.n_points <= 200
        assert hk.metric_axioms_ok(sp, np.random.default_rng(0))


def test_cantor_self_similar_volumes_exact():
    # radii aligned with the construction scales: all atoms see equal mass
    sp = hk.build_cantor_product(1 / 3, 1, 8)
    for j in (1, 2, 3, 4):
        vols = [sp.volume(x, 3.0**-j) for x in range(0, sp.n_points, 7)]
        assert all(v == vols[0] for v in vols)
        assert vols[0] == pytest.approx(2.0**-j, abs=0)
    sp2 = hk.build_cantor_product(1 / 2, 1, 6)
    for j in (1, 2, 3):
        vols = [sp2.volume(x, 4.0**-j) for x in range(sp2.n_points)]
        assert all(v == vols[0] for v in vols)


def test_fit_vd_exponent_grid2d():
    g = hk.build_grid(2, 32)
    # radii well above the grid spacing, so counts scale like areas
    radii = np.sort(2.0 ** -np.arange(1, 5, dtype=float))
    alpha_hat, max_ratio = hk.fit_vd_exponent(g, radii)
    assert alpha_hat == pytest.approx(2.0, rel=0.05)
    assert max_ratio >= 1.0 and math.isfinite(max_ratio)


def test_fit_rvd_examples():
    g = hk.build_grid(1, 64)
    radii = np.sort(2.0 ** -np.arange(2, 7, dtype=float))
    assert hk.fit_rvd_exponent(g, radii) == pytest.approx(1.0, rel=0.10)

    sp = hk.build_cantor_product(1 / 3, 1, 8)
    radii = np.sort(2.0 ** -np.arange(1, 8, dtype=float))
    alpha_hat, _ = hk.fit_vd_exponent(sp, radii)
    alpha0_hat = hk.fit_rvd_exponent(sp, radii)
    assert alpha0_hat == pytest.approx(alpha_hat, rel=0.10)
    assert alpha0_hat == pytest.approx(ALPHA_THIRD, rel=0.10)


def test_fit_requires_four_radii():
    g = hk.build_grid(1, 16)
    with pytest.raises(ParameterError):
        hk.fit_rvd_exponent(g, [0.25])
    with pytest.raises(ParameterError):
        hk.fit_vd_exponent(g, [0.1, 0.2, 0.3])


def test_vd_dominates_rvd_on_builders():
    for sp, ks in [(hk.build_grid(2, 16), range(2, 6)),
                   (hk.build_cantor_product(1 / 3, 1, 7), range(1, 7)),
                   (hk.build_cantor_product(1 / 2, 2, 3), range(1, 6))]:
        radii = np.sort(2.0 ** -np.asarray(list(ks), dtype=float))
        alpha_hat, _ = hk.fit_vd_exponent(sp, radii)
        assert alpha_hat >= hk.fit_rvd_exponent(sp, radii) - 1e-12


def test_explicit_metric_space():
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    sp = hk.build_custom(np.zeros((3, 1)), np.full(3, 1 / 3), metric_matrix=m)
    assert sp.dist(0, 2) == 2.0
    assert hk.metric_axioms_ok(sp, np.random.default_rng(0))
    assert sp.metric_kind == "explicit"


def test_a_metric_matrix_is_always_the_metric():
    # the matrix was kept and never read unless metric_kind="explicit" was
    # passed beside it: d(0, 2) came out as the coordinate distance 2.0
    m = np.full((3, 3), 5.0)
    np.fill_diagonal(m, 0.0)
    sp = hk.FiniteMMSpace(coords=np.arange(3.0), weights=np.ones(3), diameter=5.0,
                          metric_matrix=m)
    assert sp.metric_kind == "explicit"
    assert sp.dist(0, 2) == 5.0
    assert sp.ball(0, 3.0).member_idx.tolist() == [0]
    plain = hk.FiniteMMSpace(coords=np.arange(3.0), weights=np.ones(3), diameter=2.0)
    assert plain.metric_kind == "sup" and plain.dist(0, 2) == 2.0
    with pytest.raises(AttributeError):
        sp.metric_kind = "sup"
    with pytest.raises(ParameterError, match="n_points x n_points"):
        hk.FiniteMMSpace(coords=np.arange(3.0), weights=np.ones(3), diameter=5.0,
                         metric_matrix=m[:2])


# ---------------------------------------------------------------------------
# Distance layer against the per-point reference paths
# ---------------------------------------------------------------------------

def explicit_copy(space):
    return hk.build_custom(space.coords, space.weights, metric_matrix=space.pairwise())


@pytest.mark.parametrize("seed", range(5))
def test_dist_block_matches_dist_from_rows(seed):
    space, _, _ = random_setup(seed)
    for sp in (space, explicit_copy(space)):
        n = sp.n_points
        rows = np.arange(n)
        stacked = np.array([sp.dist_from(x) for x in rows])
        # the per-row formulas the layer replaced
        if sp.metric_kind == "sup":
            per_row = [np.max(np.abs(sp.coords - sp.coords[x]), axis=1) for x in rows]
        else:
            per_row = [sp.metric_matrix[x] for x in rows]
        assert np.array_equal(stacked, np.array(per_row))
        assert np.array_equal(sp.dist_block(rows), stacked)
        assert np.array_equal(sp.pairwise(), stacked)
        sub_r, sub_c = rows[::3], rows[n // 2::2]
        assert np.array_equal(sp.dist_block(sub_r, sub_c), stacked[np.ix_(sub_r, sub_c)])


@pytest.mark.parametrize("seed", range(5))
def test_volumes_at_matches_volume(seed, chunk_budget):
    space, _, _ = random_setup(seed)
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.01, space.diameter, size=space.n_points)
    got = space.volumes_at(radii)
    want = np.array([space.volume(x, radii[x]) for x in range(space.n_points)])
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert np.allclose(space.volumes_at(0.2),
                       [space.volume(x, 0.2) for x in range(space.n_points)],
                       rtol=1e-12, atol=0)
    if space.meta["kind"] == "cantor":
        assert np.array_equal(got, want)     # dyadic weights sum exactly


@pytest.mark.parametrize("n", [1, 15, 16, 17, 256, 1024, 4096])
def test_row_chunks_cover_the_rows_within_the_budget(n):
    # consecutive pieces that cover every row, each of max(1, 2^14 // N)
    # rows but the last, which holds the rows left: a 256-atom pass makes
    # 64-row chunks, a 1024-atom one 16 rows and a 4096-atom one 4 rows
    space = hk.FiniteMMSpace(coords=np.arange(float(n)), weights=np.ones(n), diameter=1.0)
    step = max(1, (1 << 14) // n)
    some = np.arange(n)[::-3]
    for rows, chunks in ((np.arange(n), space._row_chunks()),
                         (some, space._row_chunks(some))):
        chunks = list(chunks)
        assert np.array_equal(np.concatenate(chunks), rows)
        assert [chunk.size for chunk in chunks] == \
            [min(step, rows.size - start) for start in range(0, rows.size, step)]
    if n == 4096:
        assert {chunk.size for chunk in space._row_chunks()} == {4}


def test_volumes_at_rejects_bad_radii():
    sp = hk.build_cantor_product(1 / 3, 1, 3)
    with pytest.raises(ParameterError):
        sp.volumes_at(0.0)
    with pytest.raises(ParameterError):
        sp.volumes_at([0.1, 0.2])


def test_dist_from_coord_rejects_wrong_length():
    # a 3-entry center used to broadcast silently against a 1-axis space
    for n in (1, 2):
        sp = hk.build_cantor_product(1 / 3, n, 2)
        with pytest.raises(ParameterError):
            sp.dist_from_coord([0.1, 0.2, 0.3])


def test_dist_block_rejects_bad_ids():
    sp = hk.build_cantor_product(1 / 3, 1, 3)
    for bad in ([-1], [sp.n_points], [[0, 1]], [0.5]):
        with pytest.raises(ParameterError):
            sp.dist_block(bad)


def test_space_arrays_are_read_only_copies():
    coords = np.array([[0.0], [0.5], [1.0]])
    weights = np.full(3, 1 / 3)
    metric = np.abs(coords - coords.T)
    space = hk.build_custom(coords, weights, metric_matrix=metric)
    for mine, its in ((coords, space.coords), (weights, space.weights),
                      (metric, space.metric_matrix)):
        assert mine.flags.writeable and not its.flags.writeable
        assert not np.shares_memory(mine, its)
    weights[0] = 0.5                    # the caller's array stays the caller's
    assert space.weights[0] == 1 / 3
    space = hk.build_cantor_product(1 / 3, 1, 4)
    hk.assemble(hk.build_cantor_axis_kernel(hk.constant_field(space, 0.8)))
    with pytest.raises(ValueError, match="read-only"):
        space.weights[5] *= 1.01


def test_build_custom_rejects_coincident_atoms():
    with pytest.raises(ParameterError, match="atoms 0 and 2"):
        hk.build_custom([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], np.full(3, 1 / 3))
    m = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ParameterError, match="distance 0.0"):
        hk.build_custom(np.arange(3.0), np.full(3, 1 / 3), metric_matrix=m)
    sp = hk.build_custom([[0.0, 0.0], [0.25, 1.0], [0.5, 0.0]], np.full(3, 1 / 3))
    assert sp.diameter == 1.0
    # nor non-finite coordinates or weights
    for coords, weights in (([[0.0], [np.inf]], [0.5, 0.5]), ([[0.0], [1.0]], [np.nan, 0.5])):
        with pytest.raises(ParameterError, match="finite"):
            hk.build_custom(coords, weights)


def triple_scan_loop(space, rng, n_samples, tol=1e-12):
    # the per-triple scan the vectorized pass replaced, with its own metric
    def dist(i, k):
        if space.metric_kind == "explicit":
            return float(space.metric_matrix[i, k])
        return float(np.max(np.abs(space.coords[i] - space.coords[k])))
    for i, j, k in rng.integers(0, space.n_points, size=(n_samples, 3)):
        dij, djk, dik = dist(i, j), dist(j, k), dist(i, k)
        if dik > dij + djk + tol or abs(dij - dist(j, i)) > tol:
            return False
    return True


def test_sampled_metric_scan_matches_triple_loop():
    cantor = hk.build_cantor_product(1 / 3, 2, 4)
    assert cantor.n_points == 256
    d = cantor.pairwise()
    hub = d.copy()                          # atom 3 within 1e-3 of every atom
    hub[3, :] = hub[:, 3] = 1e-3
    hub[3, 3] = 0.0
    lopsided = d + np.triu(np.full(d.shape, 1e-6), k=1)
    cases = [(cantor, 20_000, True), (explicit_copy(cantor), 20_000, True),
             (hk.build_custom(cantor.coords, cantor.weights, metric_matrix=hub),
              200_000, False),
             (hk.build_custom(cantor.coords, cantor.weights, metric_matrix=lopsided),
              200_000, False)]
    for sp, n_samples, verdict in cases:
        for seed in range(2):
            loop = triple_scan_loop(sp, np.random.default_rng(seed), n_samples)
            assert loop is verdict
            assert hk.metric_axioms_ok(sp, np.random.default_rng(seed), n_samples) is loop


@pytest.mark.parametrize("seed", range(5))
def test_dist_matches_dist_block(seed):
    space, _, _ = random_setup(seed)
    for sp in (space, explicit_copy(space)):
        ids = np.arange(0, sp.n_points, 7)
        block = sp.dist_block(ids, ids)
        assert all(sp.dist(int(a), int(b)) == block[p, q]
                   for p, a in enumerate(ids) for q, b in enumerate(ids))
