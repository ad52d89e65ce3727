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
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .errors import ParameterError
from .form import (SpectralForm, _interchange_integral, _quarter_balls, default_time_grid,
                   far_tail_profile, killed_part, part_on, removed_top_eigenvalue)
from .kernel import JumpKernel
from .report import ConditionReport
from .scale import ScaleField, phi, phi_inverse_vec
from .space import FiniteMMSpace

_SE_TIMES_PER_A0 = 3                     # se_check times per a0, evenly spaced up to a0 * phi
_DUE_PAIR_SAMPLE = 64                    # off-diagonal pairs per time in due_check
_SE_FROM_LRE_T_FRACS = (0.25, 0.5, 1.0)  # se_from_lre times, in halves of the resolvent minimum
_CONSERVATION_TOL = 1e-9                 # pass tolerance of conservativeness_check
_MEYER_TOL = 1e-6                        # pass tolerance of each meyer_check comparison


# ---------------------------------------------------------------------------
# Invariant suite
# ---------------------------------------------------------------------------

def heat_kernel_invariants(form: SpectralForm, times=(0.01, 0.1, 1.0, 10.0)) -> ConditionReport:
    """Symmetry, sub-Markov/stochasticity, semigroup property, nonnegativity, t=0.

    Each residual is a max over all x, y and the times:
    |p(t,x,y) - p(t,y,x)|, the mass defect |sum_y p(t,x,y) mu(y) - 1| (its
    excess over 1 on a Dirichlet part), |p(t) - p(t/2) W p(t/2)|, -p(t,x,y),
    and |p(0) - W^-1|.  The kernel is streamed one row panel at a time from
    the factors of the form's eigenbasis (``form.basis``), per A/B quadrant
    on a split form: p[:, panel] comes from a second product, and
    p(t/2) W p(t/2) is formed through the basis, as
    ((p(t/2)[panel] W) psi) exp(-t/2 lambda) psi.T, so no N x N array is held.
    """
    w = form.weights
    basis = form.basis
    times = [float(t) for t in times]
    residuals = dict.fromkeys(("symmetry", "mass", "chapman_kolmogorov", "negativity",
                               "t0_identity"), 0.0)

    def worst(key: str, value) -> None:
        residuals[key] = max(residuals[key], float(value))

    mass = np.zeros((len(times), w.size))
    for panel in basis.panels():
        for X, Y, p0 in basis.kernel(panel, basis.rows(panel, 0.0)):
            if X is Y:
                p0[np.arange(panel.size), panel] -= 1.0 / w[X[panel]]
            worst("t0_identity", np.abs(p0).max())
        for k, t in enumerate(times):
            quadrants = zip(*(basis.kernel(panel, blocks) for blocks in (
                basis.rows(panel, t), basis.rows(panel, t, mirrored=True),
                basis.composed(panel, t / 2.0))))
            for (X, Y, p), (_, _, mirror), (_, _, comp) in quadrants:
                mass[k, X[panel]] += p @ w[Y]
                worst("symmetry", np.abs(p - mirror).max())
                worst("negativity", (-p).max())
                worst("chapman_kolmogorov", np.abs(p - comp).max())
    defect = mass - 1.0
    worst("mass", (defect if form.is_part else np.abs(defect)).max(initial=0.0))
    ok = (residuals["symmetry"] <= 1e-10
          and residuals["mass"] <= 1e-10
          and residuals["chapman_kolmogorov"] <= 1e-8
          and residuals["negativity"] <= 1e-10
          and residuals["t0_identity"] <= 1e-8 * float((1.0 / w).max()))
    return ConditionReport(condition="heat_kernel_invariants",
                           params={"times": times},
                           best_constant=residuals["chapman_kolmogorov"],
                           witness=residuals, passed=ok,
                           series=[residuals])


# ---------------------------------------------------------------------------
# Survival / tail / diagonal estimates
# ---------------------------------------------------------------------------

def survival(part: SpectralForm, t) -> np.ndarray:
    """P_t 1 on the part's domain; for a sequence of times, row k is P_{t[k]} 1."""
    return part.apply_semigroup(t, np.ones(part.domain.size))


def se_check(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
             ball_sample, a0_grid=(0.125, 0.25, 0.5)) -> ConditionReport:
    """Survival floor on quarter balls.

    For each candidate a0, eps0(a0) is the smallest quarter-ball minimum of
    P^B_t 1_B over sampled balls (radius below the horizon) and times
    t <= a0 * phi(x0, r).  The representative pair maximizes a0 * eps0(a0);
    the full curve is reported.
    """
    fracs = np.linspace(1.0 / _SE_TIMES_PER_A0, 1.0, _SE_TIMES_PER_A0)
    floors = []                 # per usable ball, its quarter-ball floor for each a0
    balls, skipped = _quarter_balls(space, scale, ball_sample)
    for x0, r, members, quarter_mask in balls:
        horizons = [a0 * phi(scale, x0, r) for a0 in a0_grid]
        surv = survival(part_on(form, members),
                        [frac * horizon for horizon in horizons for frac in fracs])
        minima = surv[:, quarter_mask].min(axis=1)             # one per (a0, frac), a0-major
        floors.append(minima.reshape(len(horizons), fracs.size).min(axis=1))
    curve = [{"a0": float(a0), "eps0": min((float(floor[i]) for floor in floors), default=None)}
             for i, a0 in enumerate(a0_grid)]
    usable = [row for row in curve if row["eps0"] is not None]
    if not usable:
        return ConditionReport(condition="se", params={"a0_grid": list(a0_grid)},
                               passed=False, notes=["no usable balls"], series=curve)
    best_row = max(usable, key=lambda row: row["a0"] * row["eps0"])
    report = ConditionReport(condition="se", params={"a0_grid": list(a0_grid)},
                             best_constant=best_row["eps0"],
                             witness={"a0": best_row["a0"], "eps0": best_row["eps0"]},
                             passed=best_row["eps0"] > 0, series=curve)
    if skipped:
        report.note(f"skipped {skipped} balls with empty quarter ball")
    return report


def te_check(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
             T0: float, ball_sample, time_grid) -> ConditionReport:
    """Best C with quarter-ball max of P_t 1_{B^c} <= C t / (phi(x0,r) ^ T0).

    The outside indicators of all usable balls are the columns of one
    matrix, so the semigroup acts on them in one product per time.
    """
    if form.is_part:
        raise ParameterError("tail estimate uses the full-space semigroup")
    balls, outside = [], []
    skipped = 0
    for x0, r in ball_sample:
        ball = space.ball(x0, r)
        quarter = ball.within(r / 4.0)
        if quarter.size == 0:
            skipped += 1
            continue
        balls.append((x0, r, quarter, min(phi(scale, x0, r), T0)))
        outside.append(ball.dist >= r)
    outside = np.array(outside, dtype=float).reshape(len(balls), space.n_points).T
    hits = form.apply_semigroup(time_grid, outside)
    best = 0.0
    witness: dict[str, Any] = {}
    series = []
    for k, (x0, r, quarter, denom) in enumerate(balls):
        for t, hit in zip(time_grid, hits[:, :, k]):
            c = float(hit[quarter].max()) * denom / float(t)
            series.append({"x0": x0, "r": r, "t": float(t), "C": c})
            if c > best:
                best = c
                witness = {"x0": x0, "r": r, "t": float(t)}
    report = ConditionReport(condition="te", params={"T0": T0},
                             best_constant=best, witness=witness,
                             passed=bool(series) and math.isfinite(best), series=series,
                             notes=[] if series else ["no usable ball, or no time"])
    if skipped:
        report.note(f"skipped {skipped} balls with empty quarter ball")
    return report


def _first_near_max(vals: np.ndarray) -> int:
    """The smallest index whose value is within 1e-12 relative of the maximum.

    Mirror atoms of a Cantor product tie in exact arithmetic, and
    ``np.argmax`` would let rounding choose among them.
    """
    top = vals.max()
    return int(np.argmax(vals >= top - 1e-12 * abs(top)))


def due_check(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
              T0: float, time_grid, rng: np.random.Generator,
              k: float = 1.0) -> ConditionReport:
    """On-diagonal constant C = max of p(t,x,x) V(x, phi^-1(x,t)) for t < k T0.

    Also verifies the off-diagonal square-root-product bound
    p(t,x,y) <= sqrt(p(t,x,x) p(t,y,y)) on sampled triples (an inner-product
    inequality, exact up to rounding).  The atom reported at each time is the
    smallest id within 1e-12 relative of that time's maximum.
    """
    if form.is_part:
        raise ParameterError("diagonal estimate uses the full-space semigroup")
    n = space.n_points
    best = 0.0
    witness: dict[str, Any] = {}
    series = []
    cs_resid = 0.0
    for t in time_grid:
        t = float(t)
        if not (t < k * T0):
            continue
        diag = form.heat_kernel_entries(t, np.arange(n), np.arange(n))
        vols = space.volumes_at(phi_inverse_vec(scale, np.arange(n), t))
        vals = diag * vols
        x = _first_near_max(vals)
        series.append({"t": t, "C_at_t": float(vals[x]), "x": x,
                       "p_diag": float(diag[x]), "due_bound": float(1.0 / vols[x]),
                       "ratio": float(vals[x])})
        if vals[x] > best:
            best = float(vals[x])
            witness = {"x": x, "t": t}
        xs = rng.integers(0, n, size=min(_DUE_PAIR_SAMPLE, n * n))
        ys = rng.integers(0, n, size=xs.size)
        cs_resid = max(cs_resid, float((form.heat_kernel_entries(t, xs, ys)
                                        - np.sqrt(np.maximum(diag[xs] * diag[ys], 0.0))).max()))
    report = ConditionReport(condition="due", params={"T0": T0, "k": k},
                             best_constant=best,
                             witness={**witness, "sqrt_product_residual": cs_resid},
                             passed=bool(series) and math.isfinite(best) and cs_resid <= 1e-10,
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
                             passed=worst <= _CONSERVATION_TOL,
                             series=[{"max_defect": worst}])
    if form.is_part and worst > _CONSERVATION_TOL:
        report.note("mass loss is expected: this is a Dirichlet part with killing")
    return report


# ---------------------------------------------------------------------------
# Truncation comparisons
# ---------------------------------------------------------------------------

def truncation_l2_check(form_full: SpectralForm, form_near: SpectralForm,
                        kernel_far: JumpKernel) -> ConditionReport:
    """Largest eigenvalue of the removed generator against four times the far tail.

    The removed generator is that of ``kernel_far``, the jumps the near form
    drops; the far tail comes from the generator diagonals, which is exact.
    """
    sup_eig = removed_top_eigenvalue(form_full.space, kernel_far)
    tail = far_tail_profile(form_full, form_near)
    bound = 4.0 * float(tail.max())
    margin = bound - sup_eig
    return ConditionReport(
        condition="truncation_l2", params={},
        best_constant=sup_eig,
        witness={"sup_eigenvalue": sup_eig, "bound": bound, "margin": margin},
        passed=margin >= -1e-9,
        series=[{"sup_eigenvalue": sup_eig, "bound": bound, "margin": margin}],
    )


def truncation_semigroup_check(form_full: SpectralForm, form_near: SpectralForm, f, time_grid,
                               form_near_wider: SpectralForm | None = None,
                               ) -> ConditionReport:
    """Semigroup truncation bound |P_t f - P^(rho)_t f| <= 2 t ||f||_inf J(rho).

    ``f`` must be nonnegative and bounded.  When ``form_near_wider`` (a
    truncation at rho' > rho) is given, the nested version comparing the two
    truncated semigroups is checked as well, with the tail difference
    constant.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (form_full.domain.size,):
        raise ParameterError("f must have one value per atom")
    if np.any(f < 0):
        raise ParameterError("the comparison needs a nonnegative function")
    fmax = float(f.max(initial=0.0))
    tail_profile = far_tail_profile(form_full, form_near)
    tail = float(tail_profile.max())
    near = form_near.apply_semigroup(time_grid, f)
    diffs = np.abs(form_full.apply_semigroup(time_grid, f) - near).max(axis=1)
    worst_margin = math.inf
    series = []
    for t, diff in zip(time_grid, diffs):
        t, diff = float(t), float(diff)
        bound = 2.0 * t * fmax * tail
        margin = bound - diff
        series.append({"t": t, "diff": diff, "bound": bound, "margin": margin})
        worst_margin = min(worst_margin, margin)
    nested_margin = None
    if form_near_wider is not None:
        tail_gap = float((tail_profile - far_tail_profile(form_full, form_near_wider)).max())
        nested = np.abs(form_near_wider.apply_semigroup(time_grid, f) - near).max(axis=1)
        nested_margin = math.inf
        for t, diff in zip(time_grid, nested):
            t, diff = float(t), float(diff)
            margin = 2.0 * t * fmax * tail_gap - diff
            series.append({"t": t, "nested_diff": diff, "margin": margin})
            nested_margin = min(nested_margin, margin)
    passed = worst_margin >= -1e-9 and (nested_margin is None or nested_margin >= -1e-9)
    return ConditionReport(
        condition="truncation_semigroup", params={"f_max": fmax},
        best_constant=worst_margin,
        witness={"worst_margin": worst_margin, "nested_margin": nested_margin,
                 "far_tail": tail},
        passed=passed, series=series)


# ---------------------------------------------------------------------------
# Jump-interchange (Meyer-type) comparison
# ---------------------------------------------------------------------------

def meyer_check(form_full: SpectralForm, form_near: SpectralForm,
                kernel_far: JumpKernel, space: FiniteMMSpace,
                D, t: float) -> ConditionReport:
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
    if t <= 0:
        raise ParameterError("comparison time must be positive")
    D = np.asarray(D, dtype=int)
    part_full = part_on(form_full, D)
    part_near = part_on(form_near, D)
    part_kill = killed_part(form_full, form_near, D)

    jfar_D = kernel_far.block(D, D)
    np.fill_diagonal(jfar_D, 0.0)
    smoother = jfar_D * space.weights[D][None, :]
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

    passed = bool(upper_margin >= -_MEYER_TOL
                  and lower_margin >= -_MEYER_TOL
                  and identity_resid <= _MEYER_TOL)
    return ConditionReport(
        condition="meyer",
        params={"t": t, "rho": kernel_far.meta.get("truncation", {}).get("rho"),
                "tol": _MEYER_TOL},
        best_constant=identity_resid,
        witness={"upper_margin": upper_margin, "lower_margin": lower_margin,
                 "identity_residual": identity_resid,
                 "upper1_margin": upper1_margin, "lower1_margin": lower1_margin},
        passed=passed,
        series=[{"t": t, "upper_margin": upper_margin, "lower_margin": lower_margin,
                 "identity_residual": identity_resid,
                 "upper1_margin": upper1_margin, "lower1_margin": lower1_margin}],
    )


# ---------------------------------------------------------------------------
# Survival-from-resolvent chain
# ---------------------------------------------------------------------------

def se_from_lre_chain(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
                      kappa: float, ball_sample) -> ConditionReport:
    """Resolvent-derived survival floor.

    On each sampled ball with resolvent u = (L_B + kappa/phi)^-1 1_B, the
    exact spectral identity gives, for every t,

        min_{quarter} P^B_t 1_B >= (min_{quarter} u - t) / max_B u.

    Times run up to half the quarter-ball resolvent minimum (the horizon
    phi / (2 c1) with c1 = phi / min u).  The worst margin is reported.
    """
    worst = math.inf
    series = []
    balls, skipped = _quarter_balls(space, scale, ball_sample)
    for x0, r, members, quarter_mask in balls:
        part = part_on(form, members)
        lam = kappa / phi(scale, x0, r)
        u = part.resolvent(lam, np.ones(members.size))
        u_min = float(u[quarter_mask].min())
        u_max = float(u.max())
        times = [frac * u_min / 2.0 for frac in _SE_FROM_LRE_T_FRACS]
        for t, surv in zip(times, survival(part, times)):
            margin = float(surv[quarter_mask].min() - (u_min - t) / u_max)
            series.append({"x0": x0, "r": r, "t": t, "margin": margin})
            worst = min(worst, margin)
    report = ConditionReport(
        condition="se_from_lre", params={"kappa": kappa},
        best_constant=(None if worst is math.inf else worst),
        witness={"worst_margin": (None if worst is math.inf else worst)},
        passed=bool(series) and worst >= -1e-9, series=series)
    if skipped:
        report.note(f"skipped {skipped} balls with empty quarter ball")
    return report


# ---------------------------------------------------------------------------
# The self-improvement recursion
# ---------------------------------------------------------------------------

def recursion_limit(q: float, a: float, b: float, p0: float = 0.0) -> float:
    """Limit of p_{n+1} = q + a sqrt(q p_n) + b p_n for a, b in (0, 1).

    The iteration contracts toward its unique fixed point, whatever p0:
    with p = q s^2 it reads (1 - b) s^2 - a s - 1 = 0, so
    p = q s^2 with s = (a + sqrt(a^2 + 4 (1 - b))) / (2 (1 - b)).
    """
    if not (0 < a < 1 and 0 < b < 1):
        raise ParameterError("need a, b strictly inside (0, 1)")
    if q < 0 or p0 < 0:
        raise ParameterError("q and p0 must be nonnegative")
    s = (a + math.sqrt(a * a + 4.0 * (1.0 - b))) / (2.0 * (1.0 - b))
    return q * s * s
