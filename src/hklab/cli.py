"""Experiment orchestration: JSON config in, reports out.

Subcommands:

* ``hk-lab run --config cfg.json [--out dir] [--seed k]`` builds the space,
  order field, kernel and form once, runs the configured checks in order,
  writes one report file per check plus a summary, and exits 0 iff every
  pass-mode check passed (diagnostic checks never fail the run), 2 on a
  config schema violation, 3 when a point cap is exceeded.
* ``hk-lab list-checks`` prints the catalog of checks with the inequality
  each one measures and its parameter schema.
* ``hk-lab counterexample report --epsilon e [--levels l] [--axes n]`` emits
  the sharpness-construction bundle (parameters, exponents, desk-scale
  condition reports, diagnostic profile) plus a CSV of the profile.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import counterexample as cx
from . import form as form_mod
from . import kernel as kernel_mod
from . import scale as scale_mod
from . import semigroup as semi_mod
from . import space as space_mod
from .errors import ParameterError, PointCapExceeded, UnsupportedKernelError
from .report import ConditionReport, canonical_json, config_hash

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_POINT_CAP = 3
OUTPUT_FORMATS = ("json", "csv", "plotdata")


class SchemaError(Exception):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Builders from config
# ---------------------------------------------------------------------------

def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "must be an object")
    return value


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return cfg[key]


def _convert(convert, value, path: str):
    """``convert(value)``, or a SchemaError at ``path`` when the value has the wrong type."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"invalid value {value!r}: {exc}") from exc


def _field(cfg: dict, key: str, path: str, convert, default=None):
    """Converted ``cfg[key]``; a missing field is required unless a default is given."""
    value = cfg[key] if key in cfg else (
        _require(cfg, key, path) if default is None else default)
    return _convert(convert, value, f"{path}.{key}")


def _declared(cfg: dict, path: str, *keys: str) -> None:
    """Refuse a key of the object at ``path`` (empty: the top level) not in ``keys``."""
    for key in cfg:
        if key not in keys:
            raise SchemaError(f"{path}.{key}" if path else str(key),
                              f"undeclared key; {path or 'the config'} takes {', '.join(keys)}")


def _float_array(value):
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("not finite")
    return arr


def build_space(cfg: dict) -> space_mod.FiniteMMSpace:
    kind = _require(cfg, "kind", "space")
    cap = _field(cfg, "point_cap", "space", _whole, space_mod.DEFAULT_POINT_CAP)
    if kind == "cantor":
        _declared(cfg, "space", "kind", "point_cap", "xi", "n", "level")
        return space_mod.build_cantor_product(
            _field(cfg, "xi", "space", space_mod._as_fraction),
            _field(cfg, "n", "space", _whole), _field(cfg, "level", "space", _whole),
            point_cap=cap)
    if kind == "grid":
        _declared(cfg, "space", "kind", "point_cap", "d", "side")
        return space_mod.build_grid(_field(cfg, "d", "space", _whole),
                                    _field(cfg, "side", "space", _whole), point_cap=cap)
    if kind == "two_point":
        _declared(cfg, "space", "kind", "gap", "weights")
        return space_mod.build_two_point(_field(cfg, "gap", "space", _number, 1.0),
                                         _field(cfg, "weights", "space", _float_array,
                                                (0.5, 0.5)))
    if kind == "custom":
        _declared(cfg, "space", "kind", "coords", "weights", "metric_matrix")
        metric = cfg.get("metric_matrix")
        space = space_mod.build_custom(
            _field(cfg, "coords", "space", _float_array),
            _field(cfg, "weights", "space", _float_array),
            metric_matrix=(None if metric is None else
                           _field(cfg, "metric_matrix", "space", _float_array)))
        d = space.metric_matrix
        if d is not None and not (np.all(np.diag(d) == 0) and np.array_equal(d, d.T)
                                  and space_mod.metric_axioms_ok(space, np.random.default_rng(0))):
            raise SchemaError("space.metric_matrix", "not a metric: needs a zero diagonal, "
                                                     "symmetry and the triangle inequality")
        return space
    raise SchemaError("space.kind", f"unknown space kind {kind!r}")


def _center(value):
    """An anchor center: an atom id, or an ambient coordinate list."""
    return tuple(_number(c) for c in value) if isinstance(value, list) else _whole(value)


def _bool(value) -> bool:
    """true or false"""
    if not isinstance(value, bool):
        raise ValueError("not true or false")
    return value


def build_scale(cfg: dict, space: space_mod.FiniteMMSpace) -> scale_mod.ScaleField:
    kind = _require(cfg, "kind", "scale")
    T0 = cfg.get("T0")
    T0 = math.inf if T0 in (None, "inf", math.inf) else _field(cfg, "T0", "scale", _positive)
    if kind == "constant":
        _declared(cfg, "scale", "kind", "T0", "beta")
        return scale_mod.constant_field(space, _field(cfg, "beta", "scale", _positive), T0=T0)
    if kind == "balls":
        _declared(cfg, "scale", "kind", "T0", "anchors", "beta1", "beta2")
        anchors = []
        for i, a in enumerate(_field(cfg, "anchors", "scale", list)):
            path = f"scale.anchors[{i}]"
            if not isinstance(a, dict):
                raise SchemaError(path, "must be an object with center, radius and value")
            _declared(a, path, "center", "radius", "value")
            anchors.append((_field(a, "center", path, _center),
                            _field(a, "radius", path, _positive),
                            _field(a, "value", path, _number)))
        return scale_mod.field_from_balls(space, anchors,
                                          _field(cfg, "beta1", "scale", _positive),
                                          _field(cfg, "beta2", "scale", _positive), T0=T0)
    if kind == "table":
        _declared(cfg, "scale", "kind", "T0", "values", "beta1", "beta2", "lipschitz")
        return scale_mod.field_from_table(space, _field(cfg, "values", "scale", _float_array),
                                          _field(cfg, "beta1", "scale", _positive),
                                          _field(cfg, "beta2", "scale", _positive), T0=T0,
                                          lipschitz=_field(cfg, "lipschitz", "scale", _bool,
                                                           False))
    raise SchemaError("scale.kind", f"unknown scale kind {kind!r}")


def build_kernel(cfg: dict, space: space_mod.FiniteMMSpace,
                 scale: scale_mod.ScaleField) -> kernel_mod.JumpKernel:
    kind = _require(cfg, "kind", "kernel")
    if kind == "cantor_axis":
        _declared(cfg, "kernel", "kind", "rho")
        kern = kernel_mod.build_cantor_axis_kernel(space, scale)
    elif kind == "stable_like":
        _declared(cfg, "kernel", "kind", "rho", "lower_constant")
        kern = kernel_mod.build_stable_like_kernel(
            space, scale, _field(cfg, "lower_constant", "kernel", _nonnegative, 1.0))
    elif kind == "cylindrical":
        _declared(cfg, "kernel", "kind", "rho")
        kern = kernel_mod.build_cylindrical_kernel(space, scale)
    elif kind == "nearest_neighbor":
        _declared(cfg, "kernel", "kind", "rho", "value")
        kern = kernel_mod.build_nearest_neighbor_kernel(
            space, _field(cfg, "value", "kernel", _nonnegative, 1.0))
    elif kind == "uniform":
        _declared(cfg, "kernel", "kind", "rho", "value")
        kern = kernel_mod.build_uniform_kernel(
            space, _field(cfg, "value", "kernel", _nonnegative, 1.0))
    elif kind == "zero":
        _declared(cfg, "kernel", "kind", "rho")
        kern = kernel_mod.build_zero_kernel(space)
    else:
        raise SchemaError("kernel.kind", f"unknown kernel kind {kind!r}")
    if cfg.get("rho") is not None:
        kern = kernel_mod.truncate(kern, _field(cfg, "rho", "kernel", _positive))[0]
    return kern


# ---------------------------------------------------------------------------
# Check registry
#
# CHECKS[name]["params"] maps every key a check reads to (converter, default).
# run_config converts each key a config sets before it builds anything; a key
# left out, or set to a value its converter maps to None, takes the default:
# a value, or a function of (ctx, the params resolved so far).  The docstring
# of a converter names the type it accepts, that of a default function the
# value it derives; list-checks and the error messages print them.  "fn" only
# wires ctx and the resolved params into the checker.
# ---------------------------------------------------------------------------

def _number(value) -> float:
    """a number"""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("non-finite")
    return x


def _positive(value) -> float:
    """a number > 0"""
    x = _number(value)
    if not x > 0:
        raise ValueError("not positive")
    return x


def _nonnegative(value) -> float:
    """a number >= 0"""
    x = _number(value)
    if x < 0:
        raise ValueError("negative")
    return x


def _whole(value) -> int:
    """a whole number"""
    x = value if isinstance(value, int) else _number(value)
    if isinstance(value, bool) or x != int(x):
        raise ValueError("not a whole number")
    return int(x)


def _number_or_null(value) -> float | None:
    """a number or null"""
    return None if value is None else _number(value)


def _numbers(value, convert=_number) -> np.ndarray:
    """a flat list of numbers"""
    if np.ndim(value) != 1:
        raise ValueError("not a flat list")
    return np.array([convert(v) for v in value])


def _positives(value) -> np.ndarray:
    """a flat list of numbers > 0"""
    return _numbers(value, _positive)


def _grid(value) -> np.ndarray | None:
    """a flat list of numbers > 0 ([] for the default)"""
    grid = _positives(value)
    return grid if grid.size else None


def _atom_ids(value) -> np.ndarray:
    """a flat list of atom indices"""
    return _numbers(value, _whole).astype(int)


def _pairs(value) -> list[tuple[float, float]] | None:
    """a list of [r, R] pairs of numbers > 0 ([] for the default)"""
    if np.shape(value) == (0,):
        return None
    if np.ndim(value) != 2 or np.shape(value)[1] != 2:
        raise ValueError("not a list of pairs")
    return [(_positive(r), _positive(R)) for r, R in value]


def _choice(*options: str):
    def convert(value) -> str:
        if value not in options:
            raise ValueError("not an option")
        return value
    convert.__doc__ = "one of " + "|".join(options)
    return convert


def _derived(doc: str, default):
    """``default(ctx, params)``, labelled ``doc`` in list-checks."""
    default.__doc__ = doc
    return default


def _grid_pairs(ctx, p):
    """every pair r <= R of radius_grid"""
    grid = p["radius_grid"]
    return [(float(r), float(R)) for r in grid for R in grid if r <= R]


_RADIUS_GRID = {"radius_grid": (_grid, _derived(
    "the dyadic radius grid of the space",
    lambda ctx, p: space_mod.dyadic_radius_grid(ctx["space"])))}
_BALL_RADII = {"ball_radii": (_grid, _derived(
    "the three largest radii of the dyadic grid",
    lambda ctx, p: space_mod.dyadic_radius_grid(ctx["space"])[-3:]))}
_TIME_GRID = {"time_grid": (_grid, _derived(
    "9 log-spaced times over [1e-3, 10] relaxation times of the form",
    lambda ctx, p: semi_mod.default_time_grid(ctx["form"])))}
_RHO = {"rho": (_positive, _derived("a quarter of the diameter",
                                  lambda ctx, p: ctx["space"].diameter / 4.0))}
_FK_PARAMS = {"nu": (_number, 0.5), "b": (_number, 1.0), "Cprime": (_number, 1.0)}


def _set_params(i: int, check: dict) -> dict:
    """Check ``i``'s params, converted; an undeclared key is refused."""
    raw = check.get("params", {})
    if not isinstance(raw, dict):
        raise SchemaError(f"checks[{i}].params", "must be an object")
    spec = CHECKS[check["name"]]["params"]
    unknown = [f"params.{key}" for key in raw if key not in spec]
    unknown += [key for key in check if key not in ("name", "mode", "params")]
    if unknown:
        raise SchemaError(f"checks[{i}].{unknown[0]}", f"{check['name']} declares no such "
                                                       f"key; its params are {', '.join(spec)}")
    values = {}
    for key, (convert, _) in spec.items():
        if key in raw:
            try:
                values[key] = convert(raw[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"checks[{i}]", f"{key} must be {convert.__doc__}, "
                                                  f"got {raw[key]!r}") from exc
    return values


def _resolve_params(spec: dict, values: dict, ctx: dict) -> dict:
    """``values`` with every unset or None param replaced by its default."""
    p: dict[str, Any] = {}
    for key, (_, default) in spec.items():
        value = values.get(key)
        if value is None:
            value = default(ctx, p) if callable(default) else default
        p[key] = value
    return p


def _balls(ctx, p):
    """Balls of every radius in ball_radii around 4 random centers."""
    return form_mod.sample_balls(ctx["space"], 4, p["ball_radii"], ctx["rng"])


def _run_quasi_metric(ctx, p):
    dstar, comp = scale_mod.induced_quasi_metric(ctx["scale"], ctx["space"], p["beta_star"])
    return ConditionReport(condition="quasi_metric",
                           params={"beta_star": p["beta_star"]},
                           best_constant=comp, witness={"comparability": comp},
                           passed=math.isfinite(comp),
                           series=[{"comparability": comp}])


def _run_vd_fit(ctx, p):
    alpha_hat, ratio = space_mod.fit_vd_exponent(ctx["space"], p["radius_grid"])
    return ConditionReport(condition="vd_fit", params={},
                           best_constant=alpha_hat,
                           witness={"alpha_hat": alpha_hat, "max_ratio": ratio},
                           passed=None, series=[{"alpha_hat": alpha_hat,
                                                 "max_ratio": ratio}])


def _run_rvd_fit(ctx, p):
    alpha0 = space_mod.fit_rvd_exponent(ctx["space"], p["radius_grid"])
    return ConditionReport(condition="rvd_fit", params={}, best_constant=alpha0,
                           witness={"alpha0_hat": alpha0}, passed=None,
                           series=[{"alpha0_hat": alpha0}])


def _near_far_forms(ctx, rho):
    """The near form and the far kernel of the truncation at ``rho``, built once per run."""
    built = ctx.setdefault("near_far", {})
    if rho not in built:
        near, far = kernel_mod.truncate(ctx["kernel"], rho)
        built[rho] = (form_mod.assemble(ctx["space"], near), far)
    return built[rho]


def _truncated(check):
    """Run ``check(ctx, p, near form, far kernel)`` at ``rho``, which the report records."""
    def run(ctx, p):
        rep = check(ctx, p, *_near_far_forms(ctx, p["rho"]))
        rep.params["rho"] = p["rho"]
        return rep
    return run


CHECKS: dict[str, dict[str, Any]] = {
    "scale_axioms": {
        "fn": lambda ctx, p: scale_mod.verify_scale_axioms(
            ctx["scale"], ctx["space"], p["radius_grid"], rng=ctx["rng"]),
        "measures": "order-field constants: phi(y,r) <= C1 phi(x,r) for r >= d(x,y); "
                    "(R/r)^b1 / C2 <= phi(x,R)/phi(x,r) <= C2 (R/r)^b2",
        "params": _RADIUS_GRID},
    "quasi_metric": {
        "fn": _run_quasi_metric,
        "measures": "comparability of the shortest-chain metric power with phi(x, d(x,y))",
        "params": {"beta_star": (_number_or_null, None)}},
    "vd_fit": {
        "fn": _run_vd_fit,
        "measures": "volume-growth exponent: slope of log V(x,r) against log r",
        "params": _RADIUS_GRID},
    "rvd_fit": {
        "fn": _run_rvd_fit,
        "measures": "reverse volume-growth exponent: smallest per-point slope",
        "params": _RADIUS_GRID},
    "tj_check": {
        "fn": lambda ctx, p: kernel_mod.tj_check(
            ctx["kernel"], ctx["space"], ctx["scale"], p["radius_grid"],
            threshold=p["threshold"]),
        "measures": "jump tail bound: sum_{d(x,y)>=r} j(x,y) mu(y) <= C / phi(x,r)",
        "params": {**_RADIUS_GRID, "threshold": (_number_or_null, None)}},
    "tjq_check": {
        "fn": lambda ctx, p: kernel_mod.tjq_check(
            ctx["kernel"], ctx["space"], ctx["scale"], p["q"], p["radius_grid"],
            threshold=p["threshold"]),
        "measures": "L^q jump tail: (sum_{d>=r} j^q mu)^(1/q) <= C / (V(x,r)^((q-1)/q) phi(x,r))",
        "params": {"q": (_number, 2.0), **_RADIUS_GRID, "threshold": (_number_or_null, None)}},
    "ij_check": {
        "fn": lambda ctx, p: kernel_mod.ij_check(
            ctx["kernel"], ctx["space"], ctx["scale"], p["gamma"], p["pairs"]),
        "measures": "annulus jump mass weighted by 1/sqrt(V(y, .)) <= C (R/r)^gamma / (R sqrt(V(x, .)))",
        "params": {"gamma": (_number, 0.0), **_RADIUS_GRID, "pairs": (_pairs, _grid_pairs)}},
    "lre_check": {
        "fn": lambda ctx, p: form_mod.lre_check(
            ctx["form"], ctx["space"], ctx["scale"], p["kappa"], _balls(ctx, p)),
        "measures": "resolvent floor: min over the quarter ball of (L_B + kappa/phi)^-1 1_B >= c1 phi",
        "params": {"kappa": (_number, 1.0), **_BALL_RADII}},
    "cs_check": {
        "fn": lambda ctx, p: form_mod.cs_check(
            ctx["form"], ctx["space"], ctx["scale"], _balls(ctx, p)),
        "measures": "cutoff energy density: sum_y (cut(x)-cut(y))^2 j mu <= c / phi(x,r)",
        "params": _BALL_RADII},
    "capacity_check": {
        "fn": lambda ctx, p: form_mod.capacity_check(
            ctx["form"], ctx["space"], ctx["scale"], _balls(ctx, p)),
        "measures": "cutoff capacity: E(cut,cut) <= C V(x0,r) / phi(x0,r)",
        "params": _BALL_RADII},
    "fk_family_check": {
        "fn": lambda ctx, p: form_mod.fk_family_check(
            ctx["form"], ctx["space"], ctx["scale"], p["variant"], p["nu"], p["b"],
            p["Cprime"], p["delta"], _balls(ctx, p), rng=ctx["rng"]),
        "measures": "first Dirichlet eigenvalue vs volume ratio: "
                    "lambda_1(D) >= C/phi [damping^b (V/mu(D))^nu - C']",
        "params": {"variant": (_choice("FK", "WFK", "GFK"), "FK"), **_FK_PARAMS,
                   "delta": (_number, 0.5), **_BALL_RADII}},
    "nash_check": {
        "fn": lambda ctx, p: form_mod.nash_check(
            ctx["form"], ctx["space"], ctx["scale"], p["nu"], p["b"], _balls(ctx, p),
            rng=ctx["rng"]),
        "measures": "ball Nash display: ||f||_2^(2+2nu) <= C phi/V^nu damping^-b "
                    "[E(f,f) + ||f||_2^2/phi] ||f||_1^(2nu)",
        "params": {"nu": (_number, 0.5), "b": (_number, 1.0), **_BALL_RADII}},
    "fk_nash_consistency": {
        "fn": lambda ctx, p: form_mod.fk_nash_consistency(
            ctx["form"], ctx["space"], ctx["scale"], p["nu"], p["b"], p["Cprime"],
            _balls(ctx, p), rng=ctx["rng"]),
        "measures": "two-way algebra between the eigenvalue and Nash constants",
        "params": {**_FK_PARAMS, **_BALL_RADII}},
    "se_check": {
        "fn": lambda ctx, p: semi_mod.se_check(
            ctx["form"], ctx["space"], ctx["scale"], _balls(ctx, p), a0_grid=p["a0_grid"]),
        "measures": "survival floor: quarter-ball min of P^B_t 1_B >= eps0 for t <= a0 phi",
        "params": {"a0_grid": (_positives, (0.125, 0.25, 0.5)), **_BALL_RADII}},
    "se_from_lre": {
        "fn": lambda ctx, p: semi_mod.se_from_lre_chain(
            ctx["form"], ctx["space"], ctx["scale"], p["kappa"], _balls(ctx, p)),
        "measures": "survival from resolvent: min P^B_t 1_B >= (min u - t)/max u",
        "params": {"kappa": (_number, 1.0), **_BALL_RADII}},
    "te_check": {
        "fn": lambda ctx, p: semi_mod.te_check(
            ctx["form"], ctx["space"], ctx["scale"], p["T0"], _balls(ctx, p), p["time_grid"]),
        "measures": "tail estimate: quarter-ball max of P_t 1_{B^c} <= C t/(phi ^ T0)",
        "params": {"T0": (_positive, _derived("the T0 of the order field",
                                            lambda ctx, p: ctx["scale"].T0)),
                   **_BALL_RADII, **_TIME_GRID}},
    "due_check": {
        "fn": lambda ctx, p: semi_mod.due_check(
            ctx["form"], ctx["space"], ctx["scale"], p["T0"], p["time_grid"], k=p["k"],
            rng=ctx["rng"]),
        "measures": "diagonal bound: p(t,x,x) V(x, phi^-1(x,t)) <= C for t < k T0",
        "params": {"T0": (_positive, 1.0), **_TIME_GRID, "k": (_positive, 1.0)}},
    "conservativeness_check": {
        "fn": lambda ctx, p: semi_mod.conservativeness_check(ctx["form"], p["time_grid"]),
        "measures": "mass conservation: max |P_t 1 - 1| <= 1e-9",
        "params": {"time_grid": (_positives, (0.01, 0.1, 1.0, 10.0))}},
    "heat_kernel_invariants": {
        "fn": lambda ctx, p: semi_mod.heat_kernel_invariants(ctx["form"], times=p["times"]),
        "measures": "symmetry, stochasticity, semigroup property, nonnegativity, t=0 identity",
        "params": {"times": (_positives, (0.01, 0.1, 1.0, 10.0))}},
    "truncation_l2_check": {
        "fn": _truncated(lambda ctx, p, near, far: semi_mod.truncation_l2_check(
            ctx["form"], near, far)),
        "measures": "removed-energy bound: largest eigenvalue of (L - L_near) <= 4 max_x far-tail(x)",
        "params": _RHO},
    "truncation_semigroup_check": {
        "fn": _truncated(lambda ctx, p, near, far: semi_mod.truncation_semigroup_check(
            ctx["form"], near, p["f"], p["time_grid"])),
        "measures": "semigroup truncation bound: |P_t f - P^(rho)_t f| <= 2 t ||f|| max far-tail",
        "params": {**_RHO, "f": (_numbers, _derived(
            "1 at every atom", lambda ctx, p: np.ones(ctx["space"].n_points))),
            **_TIME_GRID}},
    "meyer_check": {
        "fn": lambda ctx, p: semi_mod.meyer_check(
            ctx["form"], *_near_far_forms(ctx, p["rho"]), ctx["space"], p["domain"], p["t"]),
        "measures": "jump-interchange comparison between a Dirichlet kernel and its truncation",
        "params": {**_RHO, "domain": (_atom_ids, _derived(
            "the atoms of the ball B(0, diameter/2)",
            lambda ctx, p: ctx["space"].ball(0, ctx["space"].diameter / 2.0).member_idx)),
            "t": (_positive, 0.5)}},
    "cross_jump_exponent": {
        "fn": lambda ctx, p: cx.cross_jump_exponent_fit(
            ctx["kernel"], ctx["space"], sorted(p["radii"]), eta=p["eta"]),
        "measures": "corner-to-corner long-jump mass scaling exponent",
        "params": {"radii": (_positives, [2.0 ** (-k) for k in range(2, 8)]),
                   "eta": (_number, 0.5)}},
}


def list_checks() -> None:
    for name in sorted(CHECKS):
        entry = CHECKS[name]
        print(f"{name}")
        print(f"  measures: {entry['measures']}")
        for key, (convert, default) in entry["params"].items():
            shown = default.__doc__ if callable(default) else json.dumps(default)
            print(f"  param {key}: {convert.__doc__}; default {shown}")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _validate_config(cfg) -> list[dict]:
    """Check the config's structure; return the converted params each check sets."""
    _object(cfg, "config")
    _declared(cfg, "", "space", "scale", "kernel", "checks", "output", "seed")
    for key in ("space", "scale", "kernel", "checks"):
        if key not in cfg:
            raise SchemaError(key, "missing required section")
        if key != "checks":
            _object(cfg[key], key)
    if not isinstance(cfg["checks"], list):
        raise SchemaError("checks", "must be a list")
    for i, check in enumerate(cfg["checks"]):
        _object(check, f"checks[{i}]")
        if "name" not in check:
            raise SchemaError(f"checks[{i}].name", "missing required field")
        if not isinstance(check["name"], str) or check["name"] not in CHECKS:
            raise SchemaError(f"checks[{i}].name", f"unknown check {check['name']!r}")
        if check.get("mode", "pass") not in ("pass", "diagnostic"):
            raise SchemaError(f"checks[{i}].mode", "must be 'pass' or 'diagnostic'")
    output = _object(cfg.get("output", {}), "output")
    _declared(output, "output", "formats", "dir")
    formats = output.get("formats", [])
    if not isinstance(formats, list):
        raise SchemaError("output.formats", "must be a list of format names")
    for name in formats:
        if name not in OUTPUT_FORMATS:
            raise SchemaError("output.formats", f"unknown format {name!r}, not one of "
                                                f"{', '.join(OUTPUT_FORMATS)}")
    if not isinstance(output.get("dir", ""), str):
        raise SchemaError("output.dir", "must be a string")
    return [_set_params(i, check) for i, check in enumerate(cfg["checks"])]


def _build(path: str, build, *args):
    """``build(*args)``; a builder's refusal becomes a SchemaError at ``path``."""
    try:
        return build(*args)
    except (ParameterError, UnsupportedKernelError) as exc:
        raise SchemaError(path, str(exc)) from exc


def run_config(cfg: dict, out_dir: Path | None = None, seed: int | None = None) -> int:
    """Run ``cfg``; ``out_dir`` defaults to the config's output.dir, else hk_out."""
    set_params = _validate_config(cfg)
    seed = _convert(_whole, cfg.get("seed", 0) if seed is None else seed, "seed")
    rng = _convert(np.random.default_rng, seed, "seed")
    space = _build("space", build_space, cfg["space"])
    scale = _build("scale", build_scale, cfg["scale"], space)
    kern = _build("kernel", build_kernel, cfg["kernel"], space, scale)
    form = _build("kernel", form_mod.assemble, space, kern)
    ctx = {"space": space, "scale": scale, "kernel": kern, "form": form, "rng": rng}

    output = cfg.get("output", {})
    out_dir = out_dir or Path(output.get("dir", "hk_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = output.get("formats", ["json", "csv"])
    summary_checks = []
    all_pass = True
    for i, (check, values) in enumerate(zip(cfg["checks"], set_params)):
        name = check["name"]
        try:
            report = CHECKS[name]["fn"](ctx, _resolve_params(CHECKS[name]["params"],
                                                             values, ctx))
        except (ParameterError, UnsupportedKernelError) as exc:
            raise SchemaError(f"checks[{i}]", f"{name} cannot run here: {exc}") from exc
        mode = check.get("mode", "pass")
        if mode == "diagnostic":
            report.note("diagnostic mode: verdict does not gate the run")
        if "json" in formats:
            (out_dir / f"report_{name}.json").write_text(report.to_json() + "\n")
        if "csv" in formats:
            (out_dir / f"report_{name}.csv").write_text(report.to_csv())
        if "plotdata" in formats and name == "due_check":
            rows = ["t,p_diag,due_bound,ratio"]
            rows += [f"{r['t']!r},{r['p_diag']!r},{r['due_bound']!r},{r['ratio']!r}"
                     for r in report.series]
            (out_dir / "plotdata_due.csv").write_text("\n".join(rows) + "\n")
        summary_checks.append({"name": name, "mode": mode, "verdict": report.verdict,
                               "best_constant": report.best_constant,
                               "witness": report.witness})
        if mode == "pass" and report.passed is False:
            all_pass = False
    summary = {"config_hash": config_hash(cfg), "seed": seed,
               "checks": summary_checks, "all_pass": all_pass}
    (out_dir / "summary.json").write_text(canonical_json(summary) + "\n")
    return EXIT_OK if all_pass else EXIT_FAIL


def counterexample_report(epsilon: float, level: int, axes: int,
                          out_dir: Path) -> int:
    # at level 1 (xi = 1/2) the atom nearest corner_e1 lies 1/4 away, outside
    # the open anchor ball of radius 1/4; 16 is the Cantor builder's top level
    if not 2 <= level <= 16:
        raise ParameterError(f"--levels must be in 2..16, got {level}")
    if axes < 1:
        raise ParameterError(f"--axes must be at least 1, got {axes}")
    config = cx.synthesize_config(epsilon, xi=None, level=level)
    exponents = cx.exponent_report(config)

    try:
        space = space_mod.build_cantor_product(config.xi, axes, level,
                                               point_cap=space_mod.DENSE_MATRIX_CAP)
    except PointCapExceeded as exc:     # the form is assembled: no cap but the dense one holds
        raise PointCapExceeded(exc.requested, exc.cap, dense=True) from None
    field = cx.build_counterexample_field(config, space)
    kern = kernel_mod.build_cantor_axis_kernel(space, field)
    form = form_mod.assemble(space, kern)
    rng = np.random.default_rng(0)

    grid = space_mod.dyadic_radius_grid(space)
    balls = form_mod.sample_balls(space, 3, grid[-2:], rng)
    reports = {
        "tj": kernel_mod.tj_check(kern, space, field, grid),
        "cs": form_mod.cs_check(form, space, field, balls),
        "ij": kernel_mod.ij_check(kern, space, field, config.gamma,
                                  [(r, R) for r in grid for R in grid if r <= R]),
        "wfk": form_mod.fk_family_check(form, space, field, "WFK",
                                        1.0 / (axes * config.alpha_xi), 1.0, 1.0, 0.5,
                                        balls, rng=rng),
    }
    times = np.logspace(-4.5, 0.5, 11)
    diagnostic = cx.due_violation_diagnostic(config, space, times, form)
    bundle = {
        "config": {"epsilon": config.epsilon, "xi": str(config.xi), "n": config.n,
                   "alpha_xi": config.alpha_xi, "beta1": config.beta1,
                   "beta2": config.beta2, "gamma": config.gamma, "nu": config.nu,
                   "desk_axes": axes, "level": level},
        "exponents": exponents,
        "condition_reports": {k: v.to_dict() for k, v in reports.items()},
        "diagnostic_series": diagnostic,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "counterexample_report.json").write_text(canonical_json(bundle) + "\n")
    rows = ["t,p,r"]
    rows += [f"{row['t']!r},{row['p']!r},{row['r']!r}" for row in diagnostic["series"]]
    (out_dir / "counterexample_profile.csv").write_text("\n".join(rows) + "\n")
    print(f"gap = {exponents['gap']:.6f} (must be positive); "
          f"reports in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hk-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run checks from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    sub.add_parser("list-checks", help="print the check catalog")

    p_cx = sub.add_parser("counterexample", help="sharpness construction tools")
    cx_sub = p_cx.add_subparsers(dest="cx_command", required=True)
    p_rep = cx_sub.add_parser("report", help="emit the construction report bundle")
    p_rep.add_argument("--epsilon", type=float, required=True)
    p_rep.add_argument("--levels", type=int, default=5)
    p_rep.add_argument("--axes", type=int, default=2)
    p_rep.add_argument("--out", default="counterexample_out")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-checks":
            list_checks()
            return EXIT_OK
        if args.command == "run":
            cfg_path = Path(args.config)
            try:
                cfg = json.loads(cfg_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_SCHEMA
            return run_config(cfg, Path(args.out) if args.out else None, seed=args.seed)
        if args.command == "counterexample":
            return counterexample_report(args.epsilon, args.levels, args.axes,
                                         Path(args.out))
    except SchemaError as exc:
        print(f"config schema violation at {exc.path}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except PointCapExceeded as exc:
        print(f"point cap exceeded: {exc}", file=sys.stderr)
        return EXIT_POINT_CAP
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
