"""Variable-order scale functions and the induced quasi-metric.

A :class:`ScaleField` assigns every atom an order ``beta(x)`` in
``[beta1, beta2]`` and defines the space-time scaling law

    phi(x, r) = r^beta(x)  for r <= 1,    phi(x, r) = r^beta1  for r > 1,

strictly increasing and continuous in r: both branches are 1 at the crossover r = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ParameterError
from .report import ConditionReport, gate
from .space import FiniteMMSpace
from .stream import Stream

QUASI_METRIC_POINT_CAP = 512
_AXIOM_PAIR_SAMPLE = 512                # points whose pairs verify_scale_axioms scans
_LIPSCHITZ_TOL = 1e-9                   # how far a 1-Lipschitz field's |beta(x)-beta(y)| may pass d


@dataclass
class ScaleField:
    """Per-point order field on ``space``, defining phi(x, r) and its inverse."""

    space: FiniteMMSpace
    beta_values: np.ndarray
    beta1: float
    beta2: float
    T0: float = math.inf
    lipschitz: bool = False
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.beta_values = np.asarray(self.beta_values, dtype=float)
        if self.beta_values.shape != (self.space.n_points,):
            raise ParameterError("need one order value per point")
        if not (0 < self.beta1 <= self.beta2):
            raise ParameterError("need 0 < beta1 <= beta2")
        if not self.T0 > 0:
            raise ParameterError("T0 must be positive (may be inf)")
        lo, hi = self.beta_values.min(), self.beta_values.max()
        if lo < self.beta1 - 1e-12 or hi > self.beta2 + 1e-12:
            raise ParameterError("beta values must lie in [beta1, beta2]")


def phi(scale: ScaleField, x, r):
    """phi(x, r) with the atom ids ``x`` broadcast against the radii ``r``.

    Scalar inputs give a float, from numpy's scalar power; arrays give an
    array, from the array power.
    """
    r = np.asarray(r, dtype=float)
    if not (r > 0).all():
        raise ParameterError("phi needs r > 0")
    beta = np.where(r <= 1.0, scale.beta_values[x], scale.beta1)
    return _float_if_scalar(r[()] ** beta[()])


def phi_inverse(scale: ScaleField, x, t):
    """phi^-1(x, t), the radius where phi(x, .) reaches t, with the atom ids
    ``x`` broadcast against the times ``t`` as in :func:`phi`."""
    t = np.asarray(t, dtype=float)
    if not (t > 0).all():
        raise ParameterError("phi_inverse needs t > 0")
    beta = np.where(t <= 1.0, scale.beta_values[x], scale.beta1)
    return _float_if_scalar(t[()] ** (1.0 / beta[()]))


def _float_if_scalar(value):
    """A 0-d result as a Python float, whose arithmetic raises on overflow
    and division by zero where a numpy scalar would only warn."""
    return float(value) if value.ndim == 0 else value


def _space_shared_with(owner, scale: ScaleField) -> FiniteMMSpace:
    """The space of ``owner``, a form or a kernel, refused unless ``scale``
    was built on that same space object."""
    if owner.space is not scale.space:
        raise ParameterError(f"the {type(owner).__name__} and the order field "
                             "are built on different spaces")
    return owner.space


# ---------------------------------------------------------------------------
# Field builders
# ---------------------------------------------------------------------------

def constant_field(space: FiniteMMSpace, beta: float, T0: float = math.inf) -> ScaleField:
    return ScaleField(space=space, beta_values=np.full(space.n_points, float(beta)),
                      beta1=float(beta), beta2=float(beta), T0=T0, lipschitz=True,
                      meta={"kind": "constant", "beta": float(beta)})


def field_from_table(space: FiniteMMSpace, values, beta1: float, beta2: float,
                     T0: float = math.inf, lipschitz: bool = False) -> ScaleField:
    return ScaleField(space=space, beta_values=values, beta1=beta1, beta2=beta2, T0=T0,
                      lipschitz=lipschitz, meta={"kind": "table"})


def field_from_balls(space: FiniteMMSpace, anchors, beta1: float, beta2: float,
                     T0: float = math.inf) -> ScaleField:
    """1-Lipschitz field from ball plateaus, bridged by distance-clamped interpolation.

    ``anchors`` is a list of (center, radius, value); a center may be a point
    index or an ambient coordinate tuple.  The field is the upper Lipschitz
    envelope min_k (v_k + dist(x, B_k)) clipped to the anchor value range, so
    it is 1-Lipschitz by construction and equals v_k on B_k whenever the
    anchor plateaus are mutually Lipschitz-compatible.
    """
    if not anchors:
        raise ParameterError("need at least one anchor ball")
    n = space.n_points
    envelopes = []
    values = []
    for center, radius, value in anchors:
        if radius <= 0:
            raise ParameterError("anchor radius must be positive")
        if np.ndim(center) == 0:
            d_center = space.dist_from(int(center))
        else:
            d_center = space.dist_from_coord(center)
        members = np.flatnonzero(d_center < radius)
        if not members.size:
            raise ParameterError("anchor ball contains no atoms")
        dist_to_ball = np.full(n, np.inf)
        for rows in space._row_chunks(members):
            dist_to_ball = np.minimum(dist_to_ball, space._dist_rows(rows).min(axis=0))
        envelopes.append(float(value) + dist_to_ball)
        values.append(float(value))
    beta = np.clip(np.min(envelopes, axis=0), min(values), max(values))
    beta = np.clip(beta, beta1, beta2)
    return ScaleField(space=space, beta_values=beta, beta1=beta1, beta2=beta2, T0=T0,
                      lipschitz=True, meta={"kind": "balls", "n_anchors": len(anchors)})


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------

def verify_scale_axioms(scale: ScaleField, radius_grid,
                        rng: Stream) -> ConditionReport:
    """Best constants for the scale-function axioms on a radius grid.

    Reports C1 = max over pairs (x, y) and grid radii r >= d(x,y) of
    phi(y,r)/phi(x,r); C2 = the smallest constant making the two-sided
    exponent bound (R/r)^beta1 / C2 <= phi(x,R)/phi(x,r) <= C2 (R/r)^beta2
    hold on the grid; and the off-point variant constant that controls
    phi(y,R)/phi(x,r) by ((R + d(x,y))/r)^beta2.  A declared 1-Lipschitz
    field is scanned and a violation fails the verdict.  Above
    ``_AXIOM_PAIR_SAMPLE`` atoms the pairs are those of that many distinct
    atoms drawn from ``rng``; at or below it ``rng`` is not read.
    """
    space = scale.space
    radii = np.asarray(radius_grid, dtype=float)
    if radii.size < 2 or np.any(radii <= 0):
        raise ParameterError("need a grid of at least two positive radii")
    if np.any(radii > space.diameter):
        raise ParameterError("radii must stay within (0, diameter]")
    n = space.n_points
    if n <= _AXIOM_PAIR_SAMPLE:
        pair_idx = np.arange(n)
    else:
        pair_idx = rng.choice(n, size=_AXIOM_PAIR_SAMPLE, replace=False)
    vals = phi(scale, pair_idx, radii[:, None])
    beta = scale.beta_values[pair_idx]
    offpoint = [(a, b) for a in range(radii.size) for b in range(a, radii.size)]

    # The pair scans walk the sample in row chunks and keep only each
    # chunk's maxima: per radius its first largest C1 ratio (row-major) and
    # where it lies, and its largest off-point and Lipschitz terms.  The
    # first chunk holding the largest ratio (``argmax`` over the chunks)
    # then gives the witness of a P x P ``argmax``, and ``np.max`` over the
    # chunks the P x P maxima, NaN included.
    chunk_c1, chunk_at, chunk_off, chunk_gap = [], [], [], []
    for rows in space._row_chunks(np.arange(pair_idx.size)):
        dist = space.dist_block(pair_idx[rows], pair_idx)
        best, at = [], []
        for r, v in zip(radii, vals):
            ratio = v[None, :] / v[rows, None]          # [x, y] -> phi(y)/phi(x)
            ratio = np.where(dist <= r, ratio, 0.0)
            k = np.unravel_index(np.argmax(ratio), ratio.shape)
            best.append(ratio[k])
            at.append((rows[k[0]], k[1]))
        chunk_c1.append(best)
        chunk_at.append(at)
        chunk_off.append([(vals[b][None, :] / vals[a][rows, None]
                           / ((radii[b] + dist) / radii[a]) ** scale.beta2).max()
                          for a, b in offpoint])
        if scale.lipschitz:
            chunk_gap.append((np.abs(beta[None, :] - beta[rows, None]) - dist).max())
        del dist

    c1 = 1.0
    c1_witness: dict[str, Any] = {}
    chunk_c1 = np.array(chunk_c1)                       # [chunk, radius]
    for i, (r, c) in enumerate(zip(radii, np.argmax(chunk_c1, axis=0))):
        if chunk_c1[c, i] > c1:
            c1 = float(chunk_c1[c, i])
            x, y = chunk_at[c][i]
            c1_witness = {"x": int(pair_idx[x]), "y": int(pair_idx[y]), "r": float(r)}

    c2 = 1.0
    c2_witness: dict[str, Any] = {}
    for a in range(radii.size):
        for b in range(a + 1, radii.size):
            r, big_r = radii[a], radii[b]
            ratio = vals[b] / vals[a]
            q = big_r / r
            upper = ratio / q ** scale.beta2
            lower = q ** scale.beta1 / ratio
            worst = float(max(upper.max(), lower.max()))
            if worst > c2:
                c2 = worst
                c2_witness = {"r": float(r), "R": float(big_r)}

    c_off = 0.0
    for col in np.max(chunk_off, axis=0):
        c_off = max(c_off, float(col))

    report = ConditionReport(
        condition="scale_axioms",
        params={"beta1": scale.beta1, "beta2": scale.beta2, "radii": radii.tolist()},
        best_constant=c1,
        witness={"C1": c1, "C2": c2, "C_offpoint": c_off, **c1_witness},
        gates=[gate(key, c, "<", math.inf)
               for key, c in (("C1", c1), ("C2", c2), ("C_offpoint", c_off))],
        series=[{"C1": c1, "C2": c2, "C_offpoint": c_off,
                 "r": c2_witness.get("r"), "R": c2_witness.get("R")}],
    )
    if scale.lipschitz:
        gap = max(0.0, float(np.max(chunk_gap)))
        report.witness["lipschitz_excess"] = gap
        report.gates.append(gate("lipschitz_excess", gap, "<=", _LIPSCHITZ_TOL))
        if not report.gates[-1]["holds"]:
            report.note("declared 1-Lipschitz field violates |beta(x)-beta(y)| <= d(x,y)")
    return report


# ---------------------------------------------------------------------------
# Change of metric
# ---------------------------------------------------------------------------

def induced_quasi_metric(scale: ScaleField,
                         beta_star: float | None = None) -> tuple[np.ndarray, float]:
    """Shortest-chain metric candidate comparable to phi(x, d(x,y))^(1/beta_star).

    Link length rho(x,y) = max(phi(x,d), phi(y,d))^(1/beta_star); the returned
    matrix is the all-pairs shortest-chain metric it generates, and the
    comparability constant is max over pairs of
    max(dstar^beta_star / phi(x,d), phi(x,d) / dstar^beta_star).
    """
    # imported here: no other code needs scipy, and loading it costs more
    # start-up time than everything else in the package
    from scipy.sparse.csgraph import shortest_path

    if beta_star is None:
        beta_star = scale.beta2
    if beta_star <= 0:
        raise ParameterError("beta_star must be positive")
    space = scale.space
    n = space.n_points
    if n > QUASI_METRIC_POINT_CAP:
        raise ParameterError(f"quasi-metric construction capped at {QUASI_METRIC_POINT_CAP} points")
    d = space.pairwise()
    phi_d = phi(scale, np.arange(n)[:, None], d + np.eye(n))   # 1 on the diagonal, zeroed below
    np.fill_diagonal(phi_d, 0.0)
    link = np.maximum(phi_d, phi_d.T) ** (1.0 / beta_star)
    np.fill_diagonal(link, 0.0)
    dstar = shortest_path(link, method="FW", directed=False)

    off = ~np.eye(n, dtype=bool)
    lhs = dstar[off] ** beta_star
    rhs = phi_d[off]
    comparability = float(max((lhs / rhs).max(), (rhs / lhs).max())) if n > 1 else 1.0
    return dstar, comparability
