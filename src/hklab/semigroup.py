"""The semigroup-level checkers.

They read heat-kernel entries, semigroups and parts through the spectral
operations of :mod:`hklab.form`, the jump-interchange integral of
:func:`meyer_check` included: it is evaluated in closed form in the
eigenbases, so no numerical approximation remains.

A convention note that matters for the comparison inequalities: with the
ordered-pair generator (L f)(x) = 2 sum_y (f(x)-f(y)) j(x,y) mu(y), the jump
rate of the associated Markov chain from x to an atom w is 2 j(x,w) mu(w).
The first-long-jump decomposition on a domain D is then the exact identity

    p_D(t,x,y) = p_kill(t,x,y)
                 + 2 * int_0^t sum_z p_kill(s,x,z) mu(z)
                       sum_w j_far(z,w) mu(w) p_D(t-s,w,y) ds,

where p_kill is the kernel of the near part plus the killing potential
2 * tail(x) with tail(x) = sum_{d(x,w) >= rho} j(x,w) mu(w).  Replacing
p_kill by the (larger) truncated kernel and dropping the killing correction
yields the two provable comparison bounds checked here.

The sweeps take their best from :func:`hklab.report.best_of`; ``due_check``
its atom per time and ``se_check`` its a0 from :func:`hklab.report.extremum`.

The truncation checks take one :class:`hklab.form.Truncation`, built by
``Truncation(form, rho)``: the full form, its near form, its far kernel
j_far and its tail, all cut from one form at one rho, so no check can be
handed pieces of two different cuts.  Each report records rho.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .form import (SpectralForm, Truncation, _checked_times, _interchange_integral,
                   _quarter_balls, default_time_grid, part_on, row_sum_residual)
from .report import MARGIN_TOL, ConditionReport, best_of, extremum, gate, gate_rows
from .scale import ScaleField, _space_shared_with, phi, phi_inverse

_SE_TIMES_PER_A0 = 3                     # se_check times per a0, evenly spaced up to a0 * phi
_DUE_PAIR_SAMPLE = 64                    # off-diagonal pairs per time in due_check
_SE_FROM_LRE_T_FRACS = (0.25, 0.5, 1.0)  # se_from_lre times, in halves of the resolvent minimum
# The bound of each gate of heat_kernel_invariants but t0_identity, whose is
# _T0_RTOL times the largest 1/mu(x).  An untouched form's row sums equal its
# diagonal exactly, being summed as assemble sums them; the slack of row_sum
# is for a block function that rounds an entry differently when it is read
# again, which leaves the form right.
_INVARIANT_TOL = {"symmetry": 1e-10, "mass": 1e-10, "chapman_kolmogorov": 1e-8,
                  "negativity": 1e-10, "row_sum": 1e-12}
_T0_RTOL = 1e-8
_SQRT_PRODUCT_TOL = 1e-10                # due_check's off-diagonal bound, exact up to rounding
_CONSERVATION_TOL = 1e-9                 # pass tolerance of conservativeness_check
_MEYER_TOL = 1e-6                        # pass tolerance of each meyer_check comparison


# ---------------------------------------------------------------------------
# Invariant suite
# ---------------------------------------------------------------------------

def heat_kernel_invariants(form: SpectralForm, times=(0.01, 0.1, 1.0, 10.0)) -> ConditionReport:
    """Symmetry, sub-Markov/stochasticity, semigroup property, nonnegativity,
    t=0, and on a full form the row sums of its generator.

    Each residual is a max over all x, y and the times:
    |p(t,x,y) - p(t,y,x)|, the mass defect |sum_y p(t,x,y) mu(y) - 1| (its
    excess over 1 on a Dirichlet part), |p(t) - p(t/2) W p(t/2)|, -p(t,x,y),
    and |p(0) - W^-1|.  The kernel is streamed from the form's eigenbasis
    (``form.basis``) one row panel at a time, p(t)[atoms] for the atoms the
    panel covers: p[:, atoms] comes from a second product, and p(t/2) W
    p(t/2) is formed through the basis, so no N x N array is held.

    The series row of a full form also holds ``row_sum``, the
    :func:`hklab.form.row_sum_residual` of its diagonal against its kernel,
    which the verdict reads too; that of a part none, since a part's
    diagonal also counts the jumps that leave it, and a killed part's the
    far tail.  The witness keeps the five kernel residuals.
    """
    w = form.weights
    basis = form.basis
    times = _checked_times(times).tolist()
    residuals = dict.fromkeys(("symmetry", "mass", "chapman_kolmogorov", "negativity",
                               "t0_identity"), 0.0)

    def worst(key: str, value) -> None:
        residuals[key] = max(residuals[key], float(value))

    mass = np.zeros((len(times), w.size))
    for panel, atoms in basis.panels():
        p0 = basis.rows(panel, 0.0)
        p0[np.arange(atoms.size), atoms] -= 1.0 / w[atoms]
        worst("t0_identity", np.abs(p0).max())
        for k, t in enumerate(times):
            p = basis.rows(panel, t)
            mass[k, atoms] = p @ w
            worst("symmetry", np.abs(p - basis.rows(panel, t, mirrored=True)).max())
            worst("negativity", (-p).max())
            worst("chapman_kolmogorov", np.abs(p - basis.composed(panel, t / 2.0)).max())
    defect = mass - 1.0
    worst("mass", (defect if form.is_part else np.abs(defect)).max(initial=0.0))
    row = residuals if form.is_part else {**residuals, "row_sum": row_sum_residual(form)}
    bounds = {**_INVARIANT_TOL, "t0_identity": _T0_RTOL * float((1.0 / w).max())}
    return ConditionReport(condition="heat_kernel_invariants",
                           params={"times": times},
                           best_constant=residuals["chapman_kolmogorov"],
                           witness=residuals, series=[row],
                           gates=[gate(key, row[key], "<=", bounds[key]) for key in row])


# ---------------------------------------------------------------------------
# Survival / tail / diagonal estimates
# ---------------------------------------------------------------------------

def survival(part: SpectralForm, t) -> np.ndarray:
    """P_t 1 on the part's domain; for a sequence of times, row k is P_{t[k]} 1."""
    return part.apply_semigroup(t, np.ones(part.domain.size))


def se_check(form: SpectralForm, scale: ScaleField, ball_sample,
             a0_grid=(0.125, 0.25, 0.5)) -> ConditionReport:
    """Survival floor on quarter balls.

    For each candidate a0, eps0(a0) is the smallest quarter-ball minimum of
    P^B_t 1_B over sampled balls (radius below the horizon) and times
    t <= a0 * phi(x0, r).  The representative pair maximizes a0 * eps0(a0);
    the full curve is reported.
    """
    _space_shared_with(form, scale)
    fracs = np.linspace(1.0 / _SE_TIMES_PER_A0, 1.0, _SE_TIMES_PER_A0)
    floors = []                 # per usable ball, its quarter-ball floor for each a0
    balls, skipped = _quarter_balls(scale, ball_sample)
    for x0, r, phival, ball in balls:
        horizons = [a0 * phival for a0 in a0_grid]
        surv = survival(part_on(form, ball.member_idx),
                        [frac * horizon for horizon in horizons for frac in fracs])
        minima = surv[:, ball.quarter].min(axis=1)             # one per (a0, frac), a0-major
        floors.append(minima.reshape(len(horizons), fracs.size).min(axis=1))
    curve = [{"a0": float(a0), "eps0": min((float(floor[i]) for floor in floors), default=None)}
             for i, a0 in enumerate(a0_grid)]
    usable = [row for row in curve if row["eps0"] is not None]
    if not usable:
        return ConditionReport(condition="se", params={"a0_grid": list(a0_grid)},
                               gates=[gate("eps0", None, ">", 0.0)],
                               notes=["no usable balls"], series=curve)
    # with no positive a0 eps0 the check fails, and the first a0 stands for the curve
    best_row = usable[extremum([row["a0"] * row["eps0"] for row in usable]) or 0]
    report = ConditionReport(condition="se", params={"a0_grid": list(a0_grid)},
                             best_constant=best_row["eps0"],
                             witness={"a0": best_row["a0"], "eps0": best_row["eps0"]},
                             gates=[gate("eps0", best_row["eps0"], ">", 0.0)], series=curve)
    if skipped:
        report.note(f"skipped {skipped} balls with empty quarter ball")
    return report


def te_check(form: SpectralForm, scale: ScaleField, T0: float, ball_sample,
             time_grid) -> ConditionReport:
    """Best C with quarter-ball max of P_t 1_{B^c} <= C t / (phi(x0,r) ^ T0).

    The outside indicators of all usable balls are the columns of one
    matrix, so the semigroup acts on them in one product per time.
    """
    space = _space_shared_with(form, scale)
    if form.is_part:
        raise ParameterError("tail estimate uses the full-space semigroup")
    if not T0 > 0:
        raise ParameterError("T0 must be positive (may be inf)")
    times = _checked_times(time_grid)
    if not times.all():
        raise ParameterError("te_check times must be positive: C divides by each")
    balls, outside = [], []
    skipped = 0
    for x0, r in ball_sample:
        ball = space.ball(x0, r)
        quarter = ball.member_idx[ball.quarter]
        if quarter.size == 0:
            skipped += 1
            continue
        balls.append((x0, r, quarter, min(phi(scale, x0, r), T0)))
        outside.append(ball.dist >= r)
    outside = np.array(outside, dtype=float).reshape(len(balls), space.n_points).T
    hits = form.apply_semigroup(times, outside)
    series = [{"x0": x0, "r": r, "t": t, "C": float(hit[quarter].max()) * denom / t}
              for k, (x0, r, quarter, denom) in enumerate(balls)
              for t, hit in zip(times.tolist(), hits[:, :, k])]
    best, witness = best_of(series, "C", ("x0", "r", "t"))
    report = gate_rows(ConditionReport(condition="te", params={"T0": T0},
                                       best_constant=best, witness=witness, series=series,
                                       notes=[] if series else ["no usable ball, or no time"]),
                       "C")
    if skipped:
        report.note(f"skipped {skipped} balls with empty quarter ball")
    return report


def due_check(form: SpectralForm, scale: ScaleField, T0: float, time_grid,
              rng: np.random.Generator, k: float = 1.0) -> ConditionReport:
    """On-diagonal constant C = max of p(t,x,x) V(x, phi^-1(x,t)) for t < k T0.

    Also verifies the off-diagonal square-root-product bound
    p(t,x,y) <= sqrt(p(t,x,x) p(t,y,y)) on sampled triples (an inner-product
    inequality, exact up to rounding).  The atom reported at each time is
    the :func:`hklab.report.extremum` of that time's values.
    """
    space = _space_shared_with(form, scale)
    if form.is_part:
        raise ParameterError("diagonal estimate uses the full-space semigroup")
    if not (T0 > 0 and k > 0):
        raise ParameterError("T0 and k must be positive (may be inf)")
    n = space.n_points
    series = []
    cs_resid = 0.0
    for t in _checked_times(time_grid).tolist():
        if t >= k * T0:
            continue
        diag = form.heat_kernel_entries(t, np.arange(n), np.arange(n))
        radii = phi_inverse(scale, np.arange(n), t)
        if not radii.min() > 0:
            raise ParameterError(f"time {t!r} is too small: phi^-1(x, t) underflows to 0")
        vols = space.volumes_at(radii)
        vals = diag * vols
        x = extremum(vals)                     # p(t, x, x) >= 1 / mu(X) > 0
        series.append({"t": t, "C_at_t": float(vals[x]), "x": x,
                       "p_diag": float(diag[x]), "due_bound": float(1.0 / vols[x]),
                       "ratio": float(vals[x])})
        xs = rng.integers(0, n, size=min(_DUE_PAIR_SAMPLE, n * n))
        ys = rng.integers(0, n, size=xs.size)
        cs_resid = max(cs_resid, float((form.heat_kernel_entries(t, xs, ys)
                                        - np.sqrt(np.maximum(diag[xs] * diag[ys], 0.0))).max()))
    best, witness = best_of(series, "C_at_t", ("x", "t"))
    report = ConditionReport(condition="due", params={"T0": T0, "k": k},
                             best_constant=best,
                             witness={**witness, "sqrt_product_residual": cs_resid},
                             gates=[gate("rows", len(series), ">", 0),
                                    gate("finite C_at_t", best, "<", math.inf),
                                    gate("sqrt_product_residual", cs_resid, "<=",
                                         _SQRT_PRODUCT_TOL)],
                             notes=[] if series else ["no time of the grid lies below k T0"],
                             series=series)
    return report


def conservativeness_check(form: SpectralForm, time_grid=(0.01, 0.1, 1.0, 10.0)
                           ) -> ConditionReport:
    """max_t max_x |P_t 1 - 1| over the grid, passing up to ``_CONSERVATION_TOL``;
    Dirichlet parts are expected to fail."""
    worst = float(np.abs(survival(form, time_grid) - 1.0).max(initial=0.0))
    report = ConditionReport(condition="conservativeness", params={},
                             best_constant=worst, witness={"max_defect": worst},
                             gates=[gate("max_defect", worst, "<=", _CONSERVATION_TOL)],
                             series=[{"max_defect": worst}])
    if form.is_part and not report.passed:
        report.note("mass loss is expected: this is a Dirichlet part with killing")
    return report


# ---------------------------------------------------------------------------
# Truncation comparisons
# ---------------------------------------------------------------------------

def truncation_l2_check(trunc: Truncation) -> ConditionReport:
    """Largest eigenvalue of the removed generator against four times the far tail.

    The removed generator is that of ``trunc.far``, the jumps the near form
    drops; the far tail comes from the generator diagonals, which is exact.
    """
    sup_eig = trunc.far_top()
    bound = 4.0 * float(trunc.tail.max())
    margin = bound - sup_eig
    return ConditionReport(
        condition="truncation_l2", params={"rho": trunc.rho},
        best_constant=sup_eig,
        witness={"sup_eigenvalue": sup_eig, "bound": bound, "margin": margin},
        gates=[gate("margin", margin, ">=", -MARGIN_TOL)],
        series=[{"sup_eigenvalue": sup_eig, "bound": bound, "margin": margin}],
    )


def truncation_semigroup_check(trunc: Truncation, f, time_grid,
                               wider: Truncation | None = None) -> ConditionReport:
    """Semigroup truncation bound |P_t f - P^(rho)_t f| <= 2 t ||f||_inf J(rho).

    ``f`` must be finite and nonnegative.  When ``wider``, a truncation of
    the same form at rho' > rho, is given, the nested version comparing the
    two truncated semigroups is checked as well, with the tail difference
    constant.
    """
    form = trunc.form
    f = np.asarray(f, dtype=float)
    if f.shape != (form.domain.size,):
        raise ParameterError("f must have one value per atom")
    if not np.isfinite(f).all():
        raise ParameterError("f must be finite")
    if np.any(f < 0):
        raise ParameterError("the comparison needs a nonnegative function")
    if wider is not None and (wider.form is not form or not wider.rho > trunc.rho):
        raise ParameterError("the nested comparison takes a truncation of the same form "
                             f"at a radius above {trunc.rho!r}")
    fmax = float(f.max(initial=0.0))
    tail = float(trunc.tail.max())
    near = trunc.near.apply_semigroup(time_grid, f)
    diffs = np.abs(form.apply_semigroup(time_grid, f) - near).max(axis=1)
    worst_margin = math.inf
    series = []
    for t, diff in zip(time_grid, diffs):
        t, diff = float(t), float(diff)
        bound = 2.0 * t * fmax * tail
        margin = bound - diff
        series.append({"t": t, "diff": diff, "bound": bound, "margin": margin})
        worst_margin = min(worst_margin, margin)
    nested_margin = None
    if wider is not None:
        tail_gap = float((trunc.tail - wider.tail).max())
        nested = np.abs(wider.near.apply_semigroup(time_grid, f) - near).max(axis=1)
        nested_margin = math.inf
        for t, diff in zip(time_grid, nested):
            t, diff = float(t), float(diff)
            margin = 2.0 * t * fmax * tail_gap - diff
            series.append({"t": t, "nested_diff": diff, "margin": margin})
            nested_margin = min(nested_margin, margin)
    gates = [gate("worst_margin", worst_margin, ">=", -MARGIN_TOL)]
    if wider is not None:
        gates.append(gate("nested_margin", nested_margin, ">=", -MARGIN_TOL))
    return ConditionReport(
        condition="truncation_semigroup", params={"f_max": fmax, "rho": trunc.rho},
        best_constant=worst_margin,
        witness={"worst_margin": worst_margin, "nested_margin": nested_margin,
                 "far_tail": tail},
        gates=gates, series=series)


# ---------------------------------------------------------------------------
# Jump-interchange (Meyer-type) comparison
# ---------------------------------------------------------------------------

def meyer_check(trunc: Truncation, D, t: float) -> ConditionReport:
    """Jump-interchange comparison between a Dirichlet kernel and its truncation.

    With I(t) the interchange integral built from the truncated kernel and
    I_kill(t) the one built from the killed kernel (see the module note), the
    checked facts are

        upper:    p_D <= p^(rho)_D + 2 I            (entrywise),
        lower:    p_D >= 2 I_kill                   (entrywise),
        identity: p_D = p_kill + 2 I_kill           (entrywise),

    each up to ``_MEYER_TOL``.  Both integrals are evaluated in closed form.  The
    single-coefficient variants upper1/lower1 (I in place of 2I, and p_D >= I)
    are reported for reference but not asserted; they fail already on the
    two-point space.  When the far kernel vanishes both integrals vanish and
    the identity collapses to p_D = p^(rho)_D.
    """
    if not 0 < t < math.inf:
        raise ParameterError("comparison time must be positive and finite")
    part_full = part_on(trunc.form, D)
    part_near = part_on(trunc.near, D)
    part_kill = trunc.killed_part(part_near)

    D = part_full.domain
    smoother = trunc.far.block(D, D) * part_full.weights[None, :]
    p_t = part_full.heat_kernel(t)
    p_near_t = part_near.heat_kernel(t)
    p_kill_t = part_kill.heat_kernel(t)
    i_near = _interchange_integral(part_near, part_full, smoother, t)
    i_kill = _interchange_integral(part_kill, part_full, smoother, t)

    upper_margin = float((p_near_t + 2.0 * i_near - p_t).min())
    lower_margin = float((p_t - 2.0 * i_kill).min())
    identity_resid = float(np.abs(p_t - p_kill_t - 2.0 * i_kill).max())
    upper1_margin = float((p_near_t + i_near - p_t).min())
    lower1_margin = float((p_t - i_near).min())

    return ConditionReport(
        condition="meyer",
        params={"t": t, "rho": trunc.rho, "tol": _MEYER_TOL},
        best_constant=identity_resid,
        witness={"upper_margin": upper_margin, "lower_margin": lower_margin,
                 "identity_residual": identity_resid,
                 "upper1_margin": upper1_margin, "lower1_margin": lower1_margin},
        gates=[gate("upper_margin", upper_margin, ">=", -_MEYER_TOL),
               gate("lower_margin", lower_margin, ">=", -_MEYER_TOL),
               gate("identity_residual", identity_resid, "<=", _MEYER_TOL)],
        series=[{"t": t, "upper_margin": upper_margin, "lower_margin": lower_margin,
                 "identity_residual": identity_resid,
                 "upper1_margin": upper1_margin, "lower1_margin": lower1_margin}],
    )


# ---------------------------------------------------------------------------
# Survival-from-resolvent chain
# ---------------------------------------------------------------------------

def se_from_lre_chain(form: SpectralForm, scale: ScaleField, kappa: float,
                      ball_sample) -> ConditionReport:
    """Resolvent-derived survival floor.

    On each sampled ball with resolvent u = (L_B + kappa/phi)^-1 1_B, the
    exact spectral identity gives, for every t,

        min_{quarter} P^B_t 1_B >= (min_{quarter} u - t) / max_B u.

    Times run up to half the quarter-ball resolvent minimum (the horizon
    phi / (2 c1) with c1 = phi / min u).  The worst margin is reported.
    """
    _space_shared_with(form, scale)
    if not kappa > 0:
        raise ParameterError("kappa must be positive")
    series = []
    balls, skipped = _quarter_balls(scale, ball_sample)
    for x0, r, phival, ball in balls:
        part = part_on(form, ball.member_idx)
        u = part.resolvent(kappa / phival, np.ones(ball.member_idx.size))
        u_min = float(u[ball.quarter].min())
        u_max = float(u.max())
        times = [frac * u_min / 2.0 for frac in _SE_FROM_LRE_T_FRACS]
        series += [{"x0": x0, "r": r, "t": t,
                    "margin": float(surv[ball.quarter].min() - (u_min - t) / u_max)}
                   for t, surv in zip(times, survival(part, times))]
    worst = best_of(series, "margin", (), lowest=True)[0]
    worst = None if worst == math.inf else worst
    report = ConditionReport(
        condition="se_from_lre", params={"kappa": kappa},
        best_constant=worst, witness={"worst_margin": worst},
        gates=[gate("worst_margin", worst, ">=", -MARGIN_TOL)], series=series)
    if skipped:
        report.note(f"skipped {skipped} balls with empty quarter ball")
    return report


# ---------------------------------------------------------------------------
# The self-improvement recursion
# ---------------------------------------------------------------------------

def recursion_limit(q: float, a: float, b: float) -> float:
    """Limit of p_{n+1} = q + a sqrt(q p_n) + b p_n for a, b in (0, 1).

    The iteration contracts toward its unique fixed point, whatever its
    nonnegative start: with p = q s^2 it reads (1 - b) s^2 - a s - 1 = 0, so
    p = q s^2 with s = (a + sqrt(a^2 + 4 (1 - b))) / (2 (1 - b)).
    """
    if not (0 < a < 1 and 0 < b < 1):
        raise ParameterError("need a, b strictly inside (0, 1)")
    if q < 0:
        raise ParameterError("q must be nonnegative")
    s = (a + math.sqrt(a * a + 4.0 * (1.0 - b))) / (2.0 * (1.0 - b))
    return q * s * s
