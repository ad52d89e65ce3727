"""Symmetric jump kernels, truncation, and jump-tail checks.

A :class:`JumpKernel` stores a symmetric atom-to-atom intensity ``j(x, y)``
so that the pair mass between atoms is ``j(x,y) * mu(x) * mu(y)``.  Kernels
are evaluated lazily through a vectorized block function, so tail sums over
small balls work on spaces too large for a dense matrix.  The tail checks
report per radius, or (r, R) pair, the atom of :func:`hklab.report.extremum`,
and take their best from :func:`hklab.report.best_of`.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from .errors import ParameterError, PointCapExceeded, UnsupportedKernelError, _require_finite
from .report import ConditionReport, best_of, extremum, gate
from .scale import ScaleField, _space_shared_with, phi, phi_inverse
from .space import DENSE_MATRIX_CAP, FiniteMMSpace

_AXIS_TOL = 1e-12


class JumpKernel:
    """Symmetric jump intensity with a lazily evaluated block interface.

    The block function must give j(x, y) and j(y, x) the same value:
    ``assemble`` refuses a kernel that differs from its transpose in any
    entry, by one ulp too.  Every builder below gives equal values, and so
    do the cuts of ``truncate``.
    """

    def __init__(self, space: FiniteMMSpace,
                 block_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 support_pattern: str = "full",
                 meta: dict[str, Any] | None = None):
        if support_pattern not in ("full", "axis_aligned", "nearest_neighbor"):
            raise ParameterError(f"unknown support pattern {support_pattern!r}")
        self.space = space
        self._block_fn = block_fn
        self.support_pattern = support_pattern
        self.meta = meta or {}
        self._matrix: np.ndarray | None = None

    def j(self, x: int, y: int) -> float:
        return float(self.block(np.array([x]), np.array([y]))[0, 0])

    def block(self, rows, cols) -> np.ndarray:
        """j on rows x cols, 0 wherever a row atom equals a column atom,
        whatever the block function puts there: the one place a kernel's
        diagonal is zeroed.  A new array on every call, which the caller may
        overwrite: what the block function returns is copied unless it is a
        writeable array owning its data, so a view of the caller's own matrix,
        or a read-only or broadcast array, is never written through.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=int))
        cols = np.atleast_1d(np.asarray(cols, dtype=int))
        out = np.asarray(self._block_fn(rows, cols), dtype=float)
        if not (out.flags.owndata and out.flags.writeable):
            out = out.copy()
        out = out.reshape(rows.size, cols.size)
        out[rows[:, None] == cols[None, :]] = 0.0
        return out

    def matrix(self) -> np.ndarray:
        """Dense intensity matrix; cached, read-only, refused above the dense cap.

        Filled one row chunk at a time, so the block function's temporaries
        stay at chunk size; read-only because every caller shares it.  No
        builder makes it and forms read blocks only: it is the tests' oracle.
        """
        if self._matrix is None:
            n = self.space.n_points
            if n > DENSE_MATRIX_CAP:
                raise PointCapExceeded(n, DENSE_MATRIX_CAP, dense=True)
            idx = np.arange(n)
            m = np.empty((n, n))
            for rows in self.space._row_chunks():
                m[rows] = self.block(rows, idx)
            m.flags.writeable = False
            self._matrix = m
        return self._matrix


def _masked_kernel(kernel: JumpKernel, keep_near: bool, rho: float) -> JumpKernel:
    space = kernel.space

    def block_fn(rows, cols):
        vals = kernel.block(rows, cols)
        d = space.dist_block(rows, cols)
        mask = d < rho if keep_near else d >= rho
        return np.where(mask, vals, 0.0)

    return JumpKernel(space, block_fn, support_pattern=kernel.support_pattern,
                      meta=dict(kernel.meta))


def truncate(kernel: JumpKernel, rho: float) -> tuple[JumpKernel, JumpKernel]:
    """Split into (near, far): jumps shorter than rho and the complement."""
    if not rho > 0:
        raise ParameterError("truncation radius must be positive")
    return _masked_kernel(kernel, True, rho), _masked_kernel(kernel, False, rho)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_zero_kernel(space: FiniteMMSpace) -> JumpKernel:
    return JumpKernel(space, lambda rows, cols: np.zeros((rows.size, cols.size)), "full",
                      meta={"kind": "zero"})


def build_uniform_kernel(space: FiniteMMSpace, value: float = 1.0) -> JumpKernel:
    """j(x, y) = value off the diagonal, which ``JumpKernel.block`` zeroes."""
    return JumpKernel(space, lambda rows, cols: np.full((rows.size, cols.size), float(value)),
                      "full", meta={"kind": "uniform", "value": value})


def _axis_aligned_block(space: FiniteMMSpace, beta_values: np.ndarray,
                        alpha_axis: float, off_axis_factor: float):
    coords = space.coords

    def block_fn(rows, cols):
        # one axis at a time and in place, so no temporary is larger than
        # the block: |x - y| along the moved axis, the number of moved axes
        a, b = coords[rows], coords[cols]
        vals = np.abs(a[:, None, 0] - b[None, :, 0])
        moved = (vals > _AXIS_TOL).astype(np.uint8)
        for k in range(1, coords.shape[1]):
            diff = np.abs(a[:, None, k] - b[None, :, k])
            moved += diff > _AXIS_TOL
            np.maximum(vals, diff, out=vals)
        expo = np.minimum(beta_values[rows][:, None], beta_values[cols][None, :])
        expo += alpha_axis
        np.negative(expo, out=expo)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.power(vals, expo, out=vals)
        vals *= off_axis_factor
        vals[moved != 1] = 0.0
        return vals

    return block_fn


def build_cantor_axis_kernel(scale: ScaleField) -> JumpKernel:
    """Axis-aligned kernel on the Cantor product of ``scale``.

    Along the moved axis the intensity is |x_i - y_i|^(-(alpha + beta(x) ^ beta(y)))
    with alpha the axis volume exponent; dividing by the off-axis weight
    factor (per-axis atom count to the power n-1) makes the atom pair mass
    j * mu * mu match the per-axis measure times point masses on the frozen
    axes.  Symmetric because the exponent takes the smaller order.
    """
    space = scale.space
    if space.meta.get("kind") != "cantor":
        raise ParameterError("cantor axis kernel needs a cantor product space")
    alpha = float(space.meta["alpha"])
    n = int(space.meta["n_axes"])
    factor = float(space.meta["axis_atoms"]) ** (n - 1)
    block_fn = _axis_aligned_block(space, scale.beta_values, alpha, factor)
    return JumpKernel(space, block_fn, "axis_aligned",
                      meta={"kind": "cantor_axis", "alpha": alpha})


def build_cylindrical_kernel(scale: ScaleField) -> JumpKernel:
    """Axis-aligned stable-like kernel on the grid product of ``scale`` (no joint density)."""
    space = scale.space
    if space.meta.get("kind") != "grid":
        raise ParameterError("cylindrical kernel needs a grid space")
    d = int(space.meta["n_axes"])
    side = int(space.meta["side"])
    block_fn = _axis_aligned_block(space, scale.beta_values, 1.0, float(side) ** (d - 1))
    return JumpKernel(space, block_fn, "axis_aligned", meta={"kind": "cylindrical"})


def build_stable_like_kernel(scale: ScaleField, lower_constant: float = 1.0) -> JumpKernel:
    """Variable-order stable-like density on the grid of ``scale``.

    j(x,y) = lower_constant / (V(x, |x-y|) * phi(x, |x-y|)), symmetrized by
    arithmetic averaging, with |x-y| in whole grid steps, so that atoms at the
    same distance tie however their coordinates round.  Each block counts
    the atoms in the open ball of k steps around x in closed form from the
    lattice indices of x, and takes phi as one power per entry, so no table
    of N rows is kept.  Step 0, the diagonal, is a division by zero, which
    ``JumpKernel.block`` zeroes.
    """
    space = scale.space
    if space.meta.get("kind") != "grid":
        raise ParameterError("stable-like kernel needs a grid space")
    per_unit = space.meta["side"] - 1                  # grid steps in a unit of length
    lattice = np.rint(space.coords * per_unit).astype(np.int64)
    cumw = np.concatenate([[0.0], np.cumsum(space.weights)])
    beta = scale.beta_values

    def one_sided(ids, k):
        count = np.ones(k.shape, dtype=np.int64)
        for i in lattice[ids].transpose(2, 0, 1):
            count *= np.minimum(i + k - 1, per_unit) - np.maximum(i - k + 1, 0) + 1
        # no step exceeds one unit of length, where phi(x, r) = r^beta(x).
        # numpy takes a scalar order 0.5 or 2 as sqrt or square, the bits
        # that stable_like_reference pins; at every other order its array
        # power is its scalar one
        steps = k / per_unit
        order = beta[ids]
        phi_k = np.where(order == 0.5, np.sqrt(steps),
                         np.where(order == 2.0, np.square(steps), steps ** order))
        with np.errstate(divide="ignore", invalid="ignore"):
            return lower_constant / (cumw[count] * phi_k)

    def block_fn(rows, cols):
        k = np.rint(space.dist_block(rows, cols) * per_unit).astype(np.intp)
        return 0.5 * (one_sided(rows[:, None], k) + one_sided(cols[None, :], k))

    return JumpKernel(space, block_fn, "full",
                      meta={"kind": "stable_like", "lower_constant": lower_constant})


def build_nearest_neighbor_kernel(space: FiniteMMSpace, value: float = 1.0) -> JumpKernel:
    """Jump surrogate for a local form: jumps only at the minimal atom spacing."""
    h = space._distance_range()[1]
    if not math.isfinite(h):
        raise ParameterError("space has fewer than two distinct points")

    def block_fn(rows, cols):
        d = space.dist_block(rows, cols)
        return np.where(d <= h * (1 + 1e-9), value / h**2, 0.0)

    return JumpKernel(space, block_fn, "nearest_neighbor",
                      meta={"kind": "nearest_neighbor", "spacing": h})


# ---------------------------------------------------------------------------
# Tail quantities and checks
# ---------------------------------------------------------------------------

def tail_mass(kernel: JumpKernel, x: int, r: float) -> float:
    """Sum of j(x,y) mu(y) over atoms at distance >= r from x."""
    if r <= 0:
        raise ParameterError("tail radius must be positive")
    space = kernel.space
    far = np.flatnonzero(space.dist_from(x) >= r)
    if far.size == 0:
        return 0.0
    vals = kernel.block(np.array([x]), far)[0]
    return float(vals @ space.weights[far])


def _tail_masses(kernel: JumpKernel, radii, q: float = 1.0) -> np.ndarray:
    """sum of j(x,y)^q mu(y) over d(x,y) >= r, shape (len(radii), n_points).

    One kernel block and one distance block per row chunk serve every radius.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ParameterError("tail radius must be positive")
    space = kernel.space
    all_idx = np.arange(space.n_points)
    tails = np.empty((radii.size, space.n_points))
    for rows in space._row_chunks():
        vals = kernel.block(rows, all_idx)
        if q != 1.0:
            vals = vals ** q
        d = space._dist_rows(rows)
        for k, r in enumerate(radii):
            tails[k, rows] = np.where(d >= r, vals, 0.0) @ space.weights
    return tails


def energy_density(kernel: JumpKernel, fs) -> np.ndarray:
    """The energy density Gamma(f)(x) = sum_y (f(x) - f(y))^2 j(x,y) mu(y),
    a sum of nonnegative terms whose mu-integral is the energy of f, of each
    row f of the 2-D ``fs``; one kernel block per row chunk serves every f."""
    space = kernel.space
    fs = np.asarray(fs, dtype=float)
    if fs.ndim != 2 or fs.shape[1] != space.n_points:
        raise ParameterError(f"fs must hold one function of {space.n_points} entries per row")
    atoms, w = np.arange(space.n_points), space.weights
    out = np.empty_like(fs)
    for rows in space._row_chunks():
        j = kernel.block(rows, atoms)
        for k, f in enumerate(fs):
            out[k, rows] = ((f[rows, None] - f[None, :]) ** 2 * j * w[None, :]).sum(axis=1)
    return out


def tj_check(kernel: JumpKernel, scale: ScaleField, radius_grid,
             threshold: float | None = None) -> ConditionReport:
    """Best constant C = max over (x, r) of phi(x,r) * tail_mass(x, r)."""
    space = _space_shared_with(kernel, scale)
    _require_finite(threshold=threshold)
    radii = np.asarray(radius_grid, dtype=float)
    if np.any(radii <= 0) or np.any(radii > space.diameter):
        raise ParameterError("radius grid must lie in (0, diameter]")
    series = []
    for r, tails in zip(radii, _tail_masses(kernel, radii)):
        vals = tails * phi(scale, np.arange(space.n_points), float(r))
        x = extremum(vals)
        series.append({"r": float(r), "x": x,
                       "C_at_r": 0.0 if x is None else float(vals[x]),
                       "tail_mass": None if x is None else float(tails[x])})
    best, witness = best_of(series, "C_at_r", ("x", "r", "tail_mass"))
    return ConditionReport(condition="tj", params={"radii": radii.tolist(),
                                                   "threshold": threshold},
                           best_constant=best, witness=witness, series=series,
                           gates=[] if threshold is None else [gate("C_at_r", best, "<=",
                                                                    threshold)])


def tjq_check(kernel: JumpKernel, scale: ScaleField, q: float, radius_grid,
              threshold: float | None = None) -> ConditionReport:
    """L^q tail check for kernels with a density.

    Best constant over (x, r) of
    (sum_{d(x,y) >= r} j(x,y)^q mu(y))^(1/q) * V(x,r)^((q-1)/q) * phi(x,r).
    Axis-aligned and nearest-neighbor kernels are refused: their atomized
    intensities blow up with refinement, so no density-level bound is meant
    to hold for them.
    """
    space = _space_shared_with(kernel, scale)
    _require_finite(q=q, threshold=threshold)
    if q < 1:
        raise ParameterError("q must be at least 1")
    if kernel.support_pattern != "full":
        raise UnsupportedKernelError(
            f"{kernel.support_pattern} kernel has no jump density; the L^q tail "
            "condition applies only to density kernels")
    radii = np.asarray(radius_grid, dtype=float)
    if np.any(radii <= 0) or np.any(radii > space.diameter):
        raise ParameterError("radius grid must lie in (0, diameter]")
    all_idx = np.arange(space.n_points)
    series = []
    for r, tails in zip(radii, _tail_masses(kernel, radii, q)):
        c = (tails ** (1.0 / q) * space.volumes_at(float(r)) ** ((q - 1.0) / q)
             * phi(scale, all_idx, float(r)))
        x = extremum(c)
        series.append({"r": float(r), "C_at_r": 0.0 if x is None else float(c[x]), "x": x})
    best, witness = best_of(series, "C_at_r", ("x", "r"))
    return ConditionReport(condition="tjq", params={"q": q, "radii": radii.tolist()},
                           best_constant=best, witness=witness, series=series,
                           gates=[] if threshold is None else [gate("C_at_r", best, "<=",
                                                                    threshold)])


def ij_check(kernel: JumpKernel, scale: ScaleField, gamma: float, rR_pairs) -> ConditionReport:
    """Annulus jump check weighted by inverse square-root ball volumes.

    For each pair (r, R) with r <= R and each atom x, sums
    j(x,y) mu(y) / sqrt(V(y, phi^-1(y, r))) over the annulus between radii
    phi^-1(x, R) and 2 phi^-1(x, R), and forms
    Q = LHS * R * sqrt(V(x, phi^-1(x, r))).  Reports the best constant C
    making Q <= C (R/r)^gamma, and the exponent fitted from log max_x Q
    against log(R/r).
    """
    space = _space_shared_with(kernel, scale)
    _require_finite(gamma=gamma)
    pairs = [(float(r), float(R)) for r, R in rR_pairs]
    if any(r <= 0 or r > R for r, R in pairs):
        raise ParameterError("need 0 < r <= R for every pair")
    all_idx = np.arange(space.n_points)
    vols = {r: space.volumes_at(phi_inverse(scale, all_idx, r)) for r in {r for r, _ in pairs}}
    dens = {r: space.weights / np.sqrt(v) for r, v in vols.items()}
    inner = [phi_inverse(scale, all_idx, big_r) for _, big_r in pairs]
    q_vals = np.empty((len(pairs), space.n_points))
    for rows in space._row_chunks():
        vals = kernel.block(rows, all_idx)
        d = space._dist_rows(rows)
        for p, (r, _) in enumerate(pairs):
            r1 = inner[p][rows, None]
            q_vals[p, rows] = np.where((d >= r1) & (d < 2 * r1), vals, 0.0) @ dens[r]
    series = []
    fit_pts: dict[float, float] = {}
    for (r, big_r), q_row in zip(pairs, q_vals):
        q = q_row * big_r * np.sqrt(vols[r])
        x = extremum(q)
        q_max = 0.0 if x is None else float(q[x])
        ratio = big_r / r
        series.append({"r": r, "R": big_r, "Q_max": q_max, "x": x,
                       "C": q_max * (r / big_r) ** gamma})
        if q_max > 0:
            fit_pts[ratio] = max(fit_pts.get(ratio, 0.0), q_max)
    best, witness = best_of(series, "C", ("x", "r", "R"))
    if len(fit_pts) >= 2:
        xs_fit = np.log(sorted(fit_pts))
        ys_fit = np.log([fit_pts[k] for k in sorted(fit_pts)])
        raw_slope = float(np.polyfit(xs_fit, ys_fit, 1)[0])
    else:
        raw_slope = math.nan
    # the condition is posed for gamma >= 0; a decaying fit means gamma = 0
    # is already the minimal admissible exponent
    gamma_hat = max(raw_slope, 0.0) if math.isfinite(raw_slope) else raw_slope
    return ConditionReport(
        condition="ij",
        params={"gamma": gamma, "pairs": pairs},
        best_constant=best,
        witness={**witness, "gamma_hat": gamma_hat, "fit_slope": raw_slope},
        series=series,
    )


def cross_jump_mass(kernel: JumpKernel, r: float, eta: float) -> float:
    """Jump mass between shrinking corner balls, restricted to long jumps.

    Sums j(z, w) mu(z) mu(w) over z within eta*r of the zero corner and w
    within eta*r of the e1 corner, keeping only pairs at distance >= 1/4.
    """
    space = kernel.space
    if space.meta.get("kind") != "cantor":
        raise ParameterError("corner balls are defined only on cantor products")
    if r <= 0 or eta <= 0:
        raise ParameterError("need positive r and eta")
    rad = eta * r
    near0 = np.flatnonzero(space.dist_from_coord(space.meta["corner_zero"]) < rad)
    near1 = np.flatnonzero(space.dist_from_coord(space.meta["corner_e1"]) < rad)
    if near0.size == 0 or near1.size == 0:
        return 0.0
    vals = kernel.block(near0, near1)
    vals = np.where(space.dist_block(near0, near1) >= 0.25, vals, 0.0)
    return float(space.weights[near0] @ vals @ space.weights[near1])
