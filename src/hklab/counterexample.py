"""Sharpness construction: parameter synthesis, exponent gap, desk-scale diagnostics.

The construction lives on an n-fold Cantor product with a two-plateau order
field: high order near the zero corner, order one near the first-axis corner.
The full regime needs n of order 4(1+eps)/alpha product axes, so its state
space (2^(n*level) atoms) is far beyond any in-memory model; what is
desk-checkable is the parameter algebra at the true n and the kernel and
semigroup diagnostics on 2- or 3-axis surrogates, and the reports label that
gap explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .errors import ParameterError
from .form import SpectralForm, assemble
from .kernel import JumpKernel, build_cantor_axis_kernel, cross_jump_mass
from .report import ConditionReport
from .scale import ScaleField, constant_field, field_from_balls
from .space import FiniteMMSpace, cantor_volume_exponent

IDENTITY_TOL = 1e-12


@dataclass
class CounterexampleConfig:
    epsilon: float
    xi: Fraction
    n: int
    alpha_xi: float
    beta1: float
    beta2: float
    gamma: float
    nu: float
    level: int = 5

    def validate(self) -> None:
        eps, n, alpha = self.epsilon, self.n, self.alpha_xi
        if abs(alpha - cantor_volume_exponent(float(self.xi))) > IDENTITY_TOL:
            raise ParameterError("alpha_xi does not match xi")
        if alpha > eps / 2.0 + IDENTITY_TOL:
            raise ParameterError("alpha_xi must not exceed epsilon/2")
        frac = 2.0 * (1.0 + eps) / (n * alpha)
        if not frac < 0.5:
            raise ParameterError("first smallness condition fails: need 2(1+eps)/(n alpha) < 1/2")
        if not (1.0 + eps / 2.0) * (1.0 - frac) > 1.0:
            raise ParameterError("second smallness condition fails")
        beta2 = 1.0 / (1.0 - frac)
        if abs(beta2 - self.beta2) > 1e-9 or not (1.0 < self.beta2 < 2.0):
            raise ParameterError("beta2 must equal (1 - 2(1+eps)/(n alpha))^-1 in (1,2)")
        if self.beta1 != 1.0:
            raise ParameterError("beta1 is fixed at 1")
        # relative to 1 + eps, as in exponent_report: the two products of
        # size n alpha / 2 round at that scale
        identity = n * alpha / 2.0 - n * alpha / (2.0 * self.beta2)
        if abs(identity - (1.0 + eps)) > IDENTITY_TOL * (1.0 + eps):
            raise ParameterError("order-gap identity violated beyond 1e-12 relative")
        if abs(self.gamma - (1.0 + eps)) > IDENTITY_TOL:
            raise ParameterError("gamma must equal 1 + epsilon")
        if abs(self.nu - 1.0 / (n * alpha)) > IDENTITY_TOL:
            raise ParameterError("nu must equal 1/(n alpha)")
        if not (1.0 - self.nu) * self.gamma < 1.0 + self.nu + eps:
            raise ParameterError("(1-nu) gamma < 1 + nu + eps fails")


# The highest dyadic rung 1 - 2^-k that double precision holds: 1 - 2^-54
# rounds to 1, where the volume exponent divides by zero.
_TOP_DYADIC_RUNG = 53


def _default_xi(epsilon: float) -> Fraction:
    # ladder 1 - 2^-k has volume exponent 1/(k+1); smallest admissible rung
    # maximizes the exponent under the epsilon/2 cap and so minimizes n
    k = max(1, math.ceil(min(2.0 / epsilon - 1.0, _TOP_DYADIC_RUNG + 1)))
    while k <= _TOP_DYADIC_RUNG and 1.0 / (k + 1) > epsilon / 2.0:
        k += 1
    if k > _TOP_DYADIC_RUNG:
        raise ParameterError(
            f"epsilon={epsilon!r} needs the Cantor rung xi = 1 - 2^-k with k > "
            f"{_TOP_DYADIC_RUNG}, which is 1 in double precision; the default xi "
            f"needs epsilon >= 2/{_TOP_DYADIC_RUNG + 1}")
    return Fraction(2**k - 1, 2**k)


def _minimal_axes(epsilon: float, alpha: float) -> int:
    """The smallest n >= 2 with 2(1+eps)/(n alpha) < 1/2 and
    (1 + eps/2)(1 - 2(1+eps)/(n alpha)) > 1.

    The two conditions say n > 4(1+eps)/alpha and
    n > 2(1+eps)(2+eps)/(alpha eps); the larger bound is where the search
    starts, and the two tests, in floating point, decide within a step or two.
    """
    def holds(n: int) -> bool:
        frac = 2.0 * (1.0 + epsilon) / (n * alpha)
        return frac < 0.5 and (1.0 + epsilon / 2.0) * (1.0 - frac) > 1.0

    bound = max(4.0 * (1.0 + epsilon) / alpha,
                2.0 * (1.0 + epsilon) * (2.0 + epsilon) / (alpha * epsilon))
    if not bound < 2.0**52:             # n must count exactly in double precision
        raise ParameterError(f"epsilon={epsilon!r} needs more than 2^52 product axes")
    n = max(2, math.floor(bound))
    while n > 2 and holds(n - 1):
        n -= 1
    while not holds(n):
        n += 1
    return n


def synthesize_config(epsilon: float, xi=None, level: int = 5) -> CounterexampleConfig:
    """Choose (xi, n, beta2, gamma, nu) for a given epsilon and validate.

    With no explicit xi, picks the dyadic rung 1 - 2^-k with the smallest k
    whose volume exponent 1/(k+1) stays at or below epsilon/2; an explicit
    xi (for instance 1/3) is accepted if admissible.  n is the smallest
    number of axes meeting both smallness conditions.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ParameterError("epsilon must be a finite positive number")
    if xi is None:
        xi_frac = _default_xi(epsilon)
    else:
        xi_frac = xi if isinstance(xi, Fraction) else Fraction(xi).limit_denominator(10**9)
    if not (0 < xi_frac < 1):
        raise ParameterError("xi must lie strictly between 0 and 1")
    alpha = cantor_volume_exponent(float(xi_frac))
    if alpha > epsilon / 2.0 + IDENTITY_TOL:
        raise ParameterError(
            f"xi={xi_frac} has volume exponent {alpha:.5f} > epsilon/2; not admissible")
    n = _minimal_axes(epsilon, alpha)
    beta2 = 1.0 / (1.0 - 2.0 * (1.0 + epsilon) / (n * alpha))
    config = CounterexampleConfig(
        epsilon=float(epsilon), xi=xi_frac, n=n, alpha_xi=alpha,
        beta1=1.0, beta2=beta2, gamma=1.0 + float(epsilon),
        nu=1.0 / (n * alpha), level=level)
    config.validate()
    return config


def exponent_report(config: CounterexampleConfig) -> dict[str, float]:
    """Short-time exponents of the corner-to-corner bound and the diagonal bound.

    lower_exponent = (n-1) alpha - beta2 governs the corner-to-corner lower
    bound t^-lower_exponent; due_exponent = (1 + 1/beta2) n alpha / 2 governs
    the diagonal-product upper bound.  Their gap equals
    1 + eps - alpha - beta2 identically and must be positive: the lower bound
    eventually beats the upper bound as t -> 0, which is the contradiction.
    """
    config.validate()
    n, alpha, beta2, eps = config.n, config.alpha_xi, config.beta2, config.epsilon
    lower = (n - 1) * alpha - beta2
    due = (1.0 + 1.0 / beta2) * n * alpha / 2.0
    gap = lower - due
    algebraic_gap = 1.0 + eps - alpha - beta2
    if abs(gap - algebraic_gap) > IDENTITY_TOL * max(1.0, abs(gap)):
        raise ParameterError("exponent gap disagrees with its closed form")
    if not gap > 0:
        raise ParameterError("exponent gap must be positive")
    return {"lower_exponent": lower, "due_exponent": due, "gap": gap}


def build_counterexample_field(config: CounterexampleConfig,
                               space: FiniteMMSpace) -> ScaleField:
    """Two-plateau order field on a Cantor product, 1-Lipschitz by construction.

    Order beta2 near the zero corner, beta1 near the first-axis corner,
    bridged by distance-clamped interpolation.  When beta2 - beta1 exceeds
    the corner-ball separation (one half), no 1-Lipschitz field can reach
    beta2 on the high plateau; the clamp then tops out below beta2 and the
    field meta records it.
    """
    if space.meta.get("kind") != "cantor":
        raise ParameterError("the order field lives on a cantor product")
    if abs(float(config.xi) - space.meta["xi"]) > 1e-12:
        raise ParameterError("space was built with a different xi")
    anchors = [
        (space.meta["corner_zero"], 0.25, config.beta2),
        (space.meta["corner_e1"], 0.25, config.beta1),
    ]
    field = field_from_balls(space, anchors, beta1=config.beta1,
                             beta2=config.beta2, T0=1.0)
    field.meta["desk_axes"] = int(space.meta["n_axes"])
    field.meta["config_axes"] = config.n
    if space.meta["n_axes"] != config.n:
        field.meta["regime"] = "desk-scale surrogate: fewer axes than the configuration"
    if config.beta2 - config.beta1 > 0.5:
        field.meta["plateau_clamped"] = (
            "beta2 - beta1 exceeds the corner separation 1/2, so the "
            "1-Lipschitz bridge cannot reach beta2 near the zero corner")
    return field


REGIME_NOTE = (
    "The full failure regime needs roughly 4(1+eps)/alpha product axes "
    "(n = 32 at eps = 4, xi = 1/3), i.e. a state space of at least "
    "2^(32*level) atoms, which is not desk-reproducible. The parameter "
    "algebra is verified at the true n; kernel and semigroup diagnostics "
    "run on 2- or 3-axis surrogates where the contradiction exponents do "
    "not apply, so the profile below is a diagnostic, not a pass/fail."
)


def due_violation_diagnostic(config: CounterexampleConfig, time_grid,
                             form: SpectralForm) -> dict[str, Any]:
    """Corner-to-corner profile r(t) = p(t, x0, y0) * t^((1+1/beta2) n' alpha / 2).

    ``form`` is the form of :func:`build_counterexample_field` on its space.
    Probes are the atoms nearest the two corners.  A growing r(t) as t -> 0
    is the signature the full construction amplifies; at desk scale the
    output is a profile only.  A control run with the constant order-one
    field reports the analogous profile, which stays bounded when the
    diagonal bound holds.  Fewer than four usable decades of time (or an
    empty grid) is inconclusive.
    """
    space = form.space
    times = np.asarray(list(time_grid), dtype=float)
    report: dict[str, Any] = {
        "config": {"epsilon": config.epsilon, "xi": str(config.xi),
                   "n_config": config.n, "n_desk": int(space.meta.get("n_axes", 0)),
                   "level": int(space.meta.get("level", 0)),
                   "beta2": config.beta2, "alpha_xi": config.alpha_xi},
        "regime_note": REGIME_NOTE,
        "series": [],
        "control_series": [],
        "verdict": "inconclusive",
    }
    if times.size == 0:
        report["reason"] = "empty time grid"
        return report
    if np.any(times <= 0):
        raise ParameterError("times must be positive")
    decades = math.log10(times.max() / times.min()) if times.size > 1 else 0.0
    report["usable_decades"] = decades

    n_desk = int(space.meta["n_axes"])
    probe0 = int(np.argmin(space.dist_from_coord(space.meta["corner_zero"])))
    probe1 = int(np.argmin(space.dist_from_coord(space.meta["corner_e1"])))
    report["probes"] = {"near_zero": probe0, "near_e1": probe1}

    control_field = constant_field(space, config.beta1, T0=1.0)
    profiles = (
        ("series", form, (1.0 + 1.0 / config.beta2) * n_desk * config.alpha_xi / 2.0),
        ("control_series", assemble(build_cantor_axis_kernel(control_field)),
         n_desk * config.alpha_xi / config.beta1))
    for key, profile_form, rate in profiles:
        for t in times:
            p = float(profile_form.heat_kernel_entries(float(t), [probe0], [probe1])[0])
            report[key].append({"t": float(t), "p": p, "r": p * float(t) ** rate})

    positive = [(row["t"], row["r"]) for row in report["series"] if row["r"] > 0]
    if decades >= 4.0 and len(positive) >= 4:
        ts, rs = zip(*positive)
        slope = float(np.polyfit(np.log(ts), np.log(rs), 1)[0])
        report["trend_slope"] = slope
        report["verdict"] = "diagnostic"
    else:
        report["reason"] = "fewer than four usable decades of time"
    return report


def cross_jump_exponent_fit(kernel: JumpKernel, radii, eta: float = 0.5) -> ConditionReport:
    """Log-log slope of the corner cross-jump mass against the ball scale."""
    space = kernel.space
    radii = np.asarray(list(radii), dtype=float)
    masses = np.array([cross_jump_mass(kernel, float(r), eta) for r in radii])
    keep = masses > 0
    n_axes = int(space.meta.get("n_axes", 0))
    alpha = float(space.meta.get("alpha", math.nan))
    expected = (n_axes + 1) * alpha
    if keep.sum() < 2:
        return ConditionReport(condition="cross_jump_exponent",
                               params={"eta": eta, "radii": radii.tolist()},
                               notes=["not enough nonzero masses"],
                               series=[{"r": float(r), "mass": float(m)}
                                       for r, m in zip(radii, masses)])
    slope = float(np.polyfit(np.log(radii[keep]), np.log(masses[keep]), 1)[0])
    return ConditionReport(
        condition="cross_jump_exponent",
        params={"eta": eta, "radii": radii.tolist()},
        best_constant=slope,
        witness={"fitted_exponent": slope, "expected_exponent": expected,
                 "relative_error": abs(slope - expected) / expected},
        series=[{"r": float(r), "mass": float(m)} for r, m in zip(radii, masses)],
    )
