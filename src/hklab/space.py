"""Finite metric measure spaces.

A :class:`FiniteMMSpace` is a finite set of atoms with coordinates, a metric
(sup metric over coordinate axes by default, or an explicit matrix), and
strictly positive weights.  Builders produce Cantor-set products, uniform
grids on the unit cube, the two-point oracle space, and custom spaces.  Ball
queries use strict inequality (open balls).

All atom-to-atom distances come from ``FiniteMMSpace._dist_pairs`` or,
against every atom, ``_dist_rows``; blocks of them through
:meth:`FiniteMMSpace.dist_block`.  Whole-space passes walk
the atoms in row chunks of at most ``_CHUNK_ELEMENTS`` entries (128 KB of
float64) against every atom, and of one row where a row alone is more, so
one code path serves every size, and neither an N x N distance matrix nor
an N x N temporary of a chunked pass is made once N exceeds 128.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any

import numpy as np

from .errors import ParameterError, PointCapExceeded

DEFAULT_POINT_CAP = 4096

# Dense all-pairs work (distance matrices, eigensolves) is O(N^2)..O(N^3);
# anything above this must stay on the lazy per-point path.
DENSE_MATRIX_CAP = 8192

# Entries in one row chunk of a whole-space pass (128 KB of float64): a
# chunk is 64 rows of a 256-atom space and 4 rows of a 4096-atom one.  On
# the 4096-atom product, the temporaries of 16-row chunks (512 KB) were
# page-faulted afresh on every chunk, and those of this budget were not.
_CHUNK_ELEMENTS = 1 << 14


def _sup_metric(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max_k |a[..., k] - b[..., k]| for coordinate arrays broadcast against each other.

    A running maximum over the axes: the same values as
    ``np.abs(a - b).max(axis=-1)``, without its (..., n_axes) temporary.
    """
    out = np.abs(a[..., 0] - b[..., 0])
    for k in range(1, a.shape[-1]):
        np.maximum(out, np.abs(a[..., k] - b[..., k]), out=out)
    return out


@dataclass
class FiniteMMSpace:
    """Finite point set with a metric and positive weights.

    coords has shape (n_points, n_axes).  The metric is "explicit", read from
    ``metric_matrix`` when one is given, and else "sup", the max of per-axis
    absolute differences.  Instances are treated as immutable after
    construction: ``coords``, ``weights`` and ``metric_matrix`` are read-only
    copies of what the caller passed.
    """

    coords: np.ndarray
    weights: np.ndarray
    diameter: float
    metric_matrix: np.ndarray | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.coords = _read_only_copy(self.coords)
        if self.coords.ndim == 1:
            self.coords = self.coords[:, None]
        self.weights = _read_only_copy(self.weights)
        if not (np.isfinite(self.coords).all() and np.isfinite(self.weights).all()):
            raise ParameterError("coordinates and weights must be finite")
        if np.any(self.weights <= 0):
            raise ParameterError("all weights must be strictly positive")
        if self.metric_matrix is not None:
            self.metric_matrix = _read_only_copy(self.metric_matrix)
            if self.metric_matrix.shape != (self.n_points,) * 2:
                raise ParameterError("metric_matrix must be n_points x n_points")
        if self.weights.shape != (self.n_points,):
            raise ParameterError("need one weight per point")

    @property
    def metric_kind(self) -> str:
        """"explicit" when a distance matrix is given, else "sup"."""
        return "sup" if self.metric_matrix is None else "explicit"

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def n_axes(self) -> int:
        return self.coords.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def dist(self, i: int, k: int) -> float:
        return float(self._dist_pairs(np.array([i]), np.array([k]))[0])

    def dist_block(self, rows, cols=None) -> np.ndarray:
        """Distances from the atoms ``rows`` to ``cols`` (default: all atoms)."""
        rows = self._check_indices(rows)
        if cols is None:
            return self._dist_rows(rows)
        return self._dist_pairs(rows[:, None], self._check_indices(cols)[None, :])

    def _dist_rows(self, rows) -> np.ndarray:
        """Distances from the atoms ``rows`` (ids, or a slice, for which an
        explicit metric returns a view) to every atom, unchecked: the
        coordinates of every atom are read as they are, not gathered."""
        if self.metric_kind == "explicit":
            return self.metric_matrix[rows]
        return _sup_metric(self.coords[rows, None], self.coords[None])

    def _dist_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """d(a, b) for atom-id arrays broadcast against each other, unchecked.

        With :meth:`_dist_rows`, the one place that evaluates the metric
        between atoms.
        """
        if self.metric_kind == "explicit":
            return self.metric_matrix[a, b]
        return _sup_metric(self.coords[a], self.coords[b])

    def dist_from(self, i: int) -> np.ndarray:
        """Distances from point ``i`` to every point, shape (n_points,)."""
        return self.dist_block([int(i)])[0]

    def dist_from_coord(self, coord) -> np.ndarray:
        """Sup-metric distances from an ambient coordinate (need not be an atom)."""
        if self.metric_kind != "sup":
            raise ParameterError("ambient coordinates require the sup metric")
        coord = np.asarray(coord, dtype=float)
        if coord.shape != (self.n_axes,):
            raise ParameterError(f"ambient coordinates need {self.n_axes} entries")
        return _sup_metric(self.coords, coord)

    def pairwise(self) -> np.ndarray:
        """Full distance matrix; refuses above the dense-matrix cap."""
        if self.n_points > DENSE_MATRIX_CAP:
            raise PointCapExceeded(self.n_points, DENSE_MATRIX_CAP, dense=True)
        return self.dist_block(np.arange(self.n_points))

    def ball(self, x: int, r: float) -> "BallQuery":
        if r <= 0:
            raise ParameterError("ball radius must be positive")
        dist = self.dist_block([int(x)])[0]
        member = np.flatnonzero(dist < r)
        return BallQuery(center=x, radius=float(r), member_idx=member,
                         volume=float(self.weights[member].sum()), dist=dist)

    def volume(self, x: int, r: float) -> float:
        return self.ball(x, r).volume

    def volumes_at(self, radii) -> np.ndarray:
        """V(x, radii[x]) for every atom x (open balls); a scalar radius is broadcast."""
        radii = np.asarray(radii, dtype=float)
        if radii.ndim > 1 or (radii.ndim == 1 and radii.size != self.n_points):
            raise ParameterError("need one radius per point or a single radius")
        if np.any(radii <= 0):
            raise ParameterError("ball radius must be positive")
        radii = np.broadcast_to(radii, (self.n_points,))
        vols = np.empty(self.n_points)
        for rows in self._row_chunks():
            part = slice(rows[0], rows[-1] + 1)
            inside = self._dist_rows(part) < radii[part, None]
            vols[part] = np.where(inside, self.weights, 0.0).sum(axis=1)
        return vols

    def _distance_range(self) -> tuple[float, float]:
        """The largest distance and the smallest between distinct atoms (inf
        for one atom), in one pass over row chunks; distinct atoms at
        distance zero are refused, since balls and cutoffs would merge them
        without a word."""
        widest, nearest = 0.0, math.inf
        for rows in self._row_chunks():
            d = self._dist_rows(rows)
            widest = max(widest, float(d.max()))
            d[np.arange(rows.size), rows] = np.inf
            a, k = np.unravel_index(np.argmin(d), d.shape)
            if not d[a, k] > 0:
                raise ParameterError(f"atoms {int(rows[a])} and {int(k)} are at distance "
                                     f"{float(d[a, k])!r}; distinct atoms must not coincide")
            nearest = min(nearest, float(d[a, k]))
        return widest, nearest

    def _row_chunks(self, rows=None):
        """``_chunked`` pieces of ``rows`` (default: all atoms) against every atom."""
        return _chunked(np.arange(self.n_points) if rows is None else rows, self.n_points)

    def _check_indices(self, idx) -> np.ndarray:
        """``idx`` as a 1-D integer array of atom ids in 0..n_points-1."""
        return _checked_ids(idx, self.n_points)


def _read_only_copy(values) -> np.ndarray:
    """A float copy of ``values`` that refuses writes; a copy, so that the
    caller's own array stays writeable."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _chunked(rows, width: int):
    """The one row-chunk rule: consecutive pieces of ``rows`` whose block
    against ``width`` columns holds at most ``_CHUNK_ELEMENTS`` entries, or
    one row where a row alone holds more; only the last may be shorter."""
    step = max(1, _CHUNK_ELEMENTS // max(width, 1))
    for start in range(0, len(rows), step):
        yield rows[start:start + step]


def _checked_ids(idx, n: int) -> np.ndarray:
    """``idx`` as a 1-D integer array of ids in 0..n-1."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
        raise ParameterError("point ids must be a 1-D list of integers")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ParameterError(f"point ids must lie in 0..{n - 1}")
    return idx.astype(int, copy=False)


@dataclass
class BallQuery:
    """The open ball B(center, radius) and the distance row it was cut from.

    ``dist[y]`` is d(center, y) for every atom y, so sub-balls, the quarter
    ball and the cutoff around the same center come without a new pass.
    """

    center: int
    radius: float
    member_idx: np.ndarray
    volume: float
    dist: np.ndarray

    def within(self, radius: float) -> np.ndarray:
        """Atoms y with d(center, y) < radius, ascending."""
        return np.flatnonzero(self.dist < radius)

    @cached_property
    def quarter(self) -> np.ndarray:
        """The quarter ball B(center, radius/4) as a mask on ``member_idx``."""
        return self.dist[self.member_idx] < self.radius / 4.0

    def cutoff(self) -> np.ndarray:
        """The cutoff on every atom: 1 on B(center, radius/2), 0 off B(center, 3 radius/4)."""
        return np.clip(1.0 - (self.dist - self.radius / 2.0) / (self.radius / 4.0), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**9)


def cantor_axis_endpoints(xi: Fraction, level: int) -> list[float]:
    """Left endpoints of the level-``level`` middle-``xi`` construction
    intervals, ascending, each the double nearest its exact value.

    With xi = p/q, the k-th step of the construction (k = 0 first) moves an
    endpoint right by (1 + xi)/2 ((1 - xi)/2)^k, which is the integer
    (q + p)(q - p)^k (2q)^(level-1-k) over (2q)^level.  The endpoints are the
    subset sums of the steps, formed in integers in ascending order, and
    divided once, correctly rounded.
    """
    p, q = xi.numerator, xi.denominator
    numerators = [0]
    for k in range(level):
        step = (q + p) * (q - p) ** k * (2 * q) ** (level - 1 - k)
        numerators = [a + d for a in numerators for d in (0, step)]
    denominator = (2 * q) ** level
    return [a / denominator for a in numerators]


def cantor_volume_exponent(xi: float) -> float:
    """Mass-scaling exponent of the middle-``xi`` construction: log2 / log(2/(1-xi))."""
    return math.log(2.0) / math.log(2.0 / (1.0 - float(xi)))


def _point_count(base: int, power: int, point_cap: int) -> int:
    """base^power, refused above ``point_cap``; a power of 64 or more is refused unformed."""
    if power >= 64 or base**power > point_cap:
        raise PointCapExceeded(base**power if power < 64 else f"{base}^{power}", point_cap)
    return base**power


def build_cantor_product(xi, n: int, level: int,
                         point_cap: int = DEFAULT_POINT_CAP) -> FiniteMMSpace:
    """n-fold product of a level-``level`` middle-``xi`` Cantor approximation.

    Atoms sit at the left endpoints of surviving intervals, each with weight
    2^(-n*level); the metric is the sup metric over axes and the declared
    diameter is the ambient diameter 1.
    """
    xi_frac = _as_fraction(xi)
    if not (0 < xi_frac < 1):
        raise ParameterError("xi must lie strictly between 0 and 1")
    if level < 1 or level > 16:
        raise ParameterError("level must be in 1..16")
    if n < 1:
        raise ParameterError("n must be a positive integer")
    n_points = _point_count(2, n * level, point_cap)
    axis = cantor_axis_endpoints(xi_frac, level)
    if any(b <= a for a, b in zip(axis, axis[1:])):
        raise ParameterError(f"xi={xi_frac} at level {level} puts distinct atoms at "
                             "one double-precision coordinate")
    coords = np.array(list(itertools.product(axis, repeat=n)), dtype=float)
    weights = np.full(n_points, 1.0 / n_points)
    meta = {
        "kind": "cantor",
        "xi": float(xi_frac),
        "xi_fraction": (xi_frac.numerator, xi_frac.denominator),
        "n_axes": n,
        "level": level,
        "axis_endpoints": axis,
        "axis_atoms": 2 ** level,
        "alpha": cantor_volume_exponent(float(xi_frac)),
        "corner_zero": [0.0] * n,
        "corner_e1": [1.0] + [0.0] * (n - 1),
    }
    return FiniteMMSpace(coords=coords, weights=weights, diameter=1.0, meta=meta)


def build_grid(d: int, side: int, point_cap: int = DEFAULT_POINT_CAP) -> FiniteMMSpace:
    """Uniform side^d grid on [0,1]^d with sup metric, weight side^-d per atom."""
    if side < 2:
        raise ParameterError("side must be at least 2")
    if d < 1:
        raise ParameterError("d must be a positive integer")
    n_points = _point_count(side, d, point_cap)
    axis = np.linspace(0.0, 1.0, side)
    coords = np.array(list(itertools.product(axis, repeat=d)), dtype=float)
    weights = np.full(n_points, 1.0 / n_points)
    meta = {"kind": "grid", "n_axes": d, "side": side,
            "spacing": 1.0 / (side - 1)}
    return FiniteMMSpace(coords=coords, weights=weights, diameter=1.0, meta=meta)


def build_two_point(gap: float = 1.0, weights=(0.5, 0.5)) -> FiniteMMSpace:
    """The two-point oracle space: atoms at 0 and ``gap``."""
    if gap <= 0:
        raise ParameterError("gap must be positive")
    w = np.asarray(weights, dtype=float)
    if w.shape != (2,):
        raise ParameterError("two-point space needs exactly two weights")
    coords = np.array([[0.0], [float(gap)]])
    meta = {"kind": "two_point", "n_axes": 1, "gap": float(gap)}
    return FiniteMMSpace(coords=coords, weights=w, diameter=float(gap), meta=meta)


def build_custom(coords, weights, metric_matrix=None) -> FiniteMMSpace:
    """Space from explicit coordinates (sup metric) or an explicit distance matrix.

    Distinct atoms at distance zero are rejected.  The diameter is the
    largest distance.  Its kind is "custom", so no builder that needs the
    lattice of a grid or the construction of a Cantor product accepts it.
    """
    space = FiniteMMSpace(coords=coords, weights=weights, diameter=0.0,
                          metric_matrix=metric_matrix, meta={"kind": "custom"})
    space.diameter = space._distance_range()[0]
    return space


# ---------------------------------------------------------------------------
# Doubling-exponent fits
# ---------------------------------------------------------------------------

def _check_radius_grid(space: FiniteMMSpace, radius_grid) -> np.ndarray:
    radii = np.asarray(radius_grid, dtype=float)
    if radii.size < 4:
        raise ParameterError("radius grid needs at least 4 entries")
    if np.any(np.diff(radii) <= 0):
        raise ParameterError("radius grid must be strictly increasing")
    if np.any(radii <= 0):
        raise ParameterError("radii must be positive")
    if np.any(radii >= space.diameter):
        raise ParameterError("radii must stay below the diameter")
    return radii


def _per_point_slopes(space: FiniteMMSpace, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vols = np.column_stack([space.volumes_at(r) for r in radii])     # (x, r)
    if np.any(vols <= 0):
        raise ParameterError("a radius captured zero points; refine the grid")
    slopes = np.polyfit(np.log(radii), np.log(vols).T, 1)[0]
    return slopes, vols


def fit_vd_exponent(space: FiniteMMSpace, radius_grid) -> tuple[float, float]:
    """Volume-growth exponent fit.

    Returns ``(alpha_hat, per_point_max_ratio)``: the mean over atoms of the
    log-log least-squares slope of V(x, r), and the largest value of
    (V(x,R)/V(x,r)) / (R/r)^alpha_hat over atoms and grid pairs r <= R, i.e.
    the doubling constant realized by the fitted exponent.
    """
    radii = _check_radius_grid(space, radius_grid)
    slopes, vols = _per_point_slopes(space, radii)
    alpha_hat = float(slopes.mean())
    ratio = vols[:, None, :] / vols[:, :, None]        # (x, r, R)
    scale = (radii[None, :] / radii[:, None]) ** alpha_hat
    upper = np.triu_indices(radii.size, k=1)
    max_ratio = float((ratio[:, upper[0], upper[1]] / scale[upper]).max())
    return alpha_hat, max_ratio


def fit_rvd_exponent(space: FiniteMMSpace, radius_grid) -> float:
    """Reverse-doubling exponent: least-squares slope of the lower volume envelope.

    Fits log min_x V(x, r) against log r, clamped from above by the forward
    exponent estimate: two-sided power bounds force the reverse exponent to
    sit at or below the forward one, so the clamp encodes a structural
    constraint rather than data.
    """
    radii = _check_radius_grid(space, radius_grid)
    slopes, vols = _per_point_slopes(space, radii)
    envelope = np.log(vols.min(axis=0))
    env_slope = float(np.polyfit(np.log(radii), envelope, 1)[0])
    return min(env_slope, float(slopes.mean()))


def dyadic_radius_grid(space: FiniteMMSpace) -> np.ndarray:
    """Radii 2^-k from k = 1, ascending, staying above the atom scale and below the diameter."""
    nz = space.dist_from(0)
    atom = float(nz[nz > 0].min()) if np.any(nz > 0) else 1e-6
    k_max = max(4, int(np.floor(-np.log2(max(atom, 1e-12)))))
    radii = 2.0 ** (-np.arange(1, k_max + 1, dtype=float))
    radii = radii[radii < space.diameter]
    return np.sort(radii)


# ---------------------------------------------------------------------------
# Metric-axiom scan
# ---------------------------------------------------------------------------

# Absolute slack of every comparison in the metric-axiom scan.
_METRIC_TOL = 1e-12


def metric_axioms_ok(space: FiniteMMSpace, rng: np.random.Generator,
                     n_samples: int = 200_000) -> bool:
    """Exhaustive triangle/symmetry scan for <= 200 points, triples drawn from
    ``rng`` above, each comparison within ``_METRIC_TOL``."""
    n = space.n_points
    if n <= 200:
        d = space.pairwise()
        if not np.allclose(d, d.T, atol=_METRIC_TOL):
            return False
        if np.any(np.abs(np.diag(d)) > _METRIC_TOL) or np.any(d < -_METRIC_TOL):
            return False
        for k in range(n):
            if np.any(d > d[:, [k]] + d[[k], :] + _METRIC_TOL):
                return False
        return True
    i, j, k = rng.integers(0, n, size=(n_samples, 3)).T
    dij, djk, dik = space._dist_pairs(i, j), space._dist_pairs(j, k), space._dist_pairs(i, k)
    broken = dik > dij + djk + _METRIC_TOL
    broken |= np.abs(dij - space._dist_pairs(j, i)) > _METRIC_TOL
    return not broken.any()
