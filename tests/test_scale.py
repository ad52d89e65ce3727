import ast
import importlib
import inspect
import math
import pathlib
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hklab as hk
from conftest import random_setup
from hklab.errors import ParameterError
from hklab.report import canonical_json


def test_phi_values():
    sp = hk.build_two_point()
    field = hk.constant_field(sp, 1.5)
    assert hk.phi(field, 0, 0.25) == pytest.approx(0.125, abs=1e-15)
    assert hk.phi(field, 0, 1.0) == pytest.approx(1.0, abs=0)
    field1 = hk.constant_field(sp, 1.0)
    assert hk.phi(field1, 0, 4.0) == pytest.approx(4.0, abs=0)


def test_phi_beyond_crossover_uses_beta1():
    sp = hk.build_two_point()
    field = hk.field_from_table(sp, [1.0, 1.8], beta1=1.0, beta2=1.8)
    assert hk.phi(field, 1, 4.0) == pytest.approx(4.0)      # r > 1 -> r^beta1
    assert hk.phi(field, 1, 0.5) == pytest.approx(0.5**1.8)


def test_phi_rejects_nonpositive():
    sp = hk.build_two_point()
    field = hk.constant_field(sp, 1.0)
    with pytest.raises(ParameterError):
        hk.phi(field, 0, 0.0)
    with pytest.raises(ParameterError):
        hk.phi_inverse(field, 0, -1.0)
    # anywhere in an array, and NaN too
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError, match="phi needs r > 0"):
            hk.phi(field, [0, 1], [0.5, bad])
        with pytest.raises(ParameterError, match="phi_inverse needs t > 0"):
            hk.phi_inverse(field, [0, 1], [bad, 0.5])


def test_phi_inverse_examples():
    sp = hk.build_two_point()
    field = hk.constant_field(sp, 2.0)
    assert hk.phi_inverse(field, 0, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert hk.phi_inverse(field, 0, 1.0) == pytest.approx(1.0, abs=0)
    field15 = hk.constant_field(sp, 1.5)
    assert hk.phi_inverse(field15, 0, 0.125) == pytest.approx(0.25, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.3, 2.0), r=st.floats(1e-6, 10.0))
def test_phi_roundtrip(beta, r):
    sp = hk.build_two_point()
    field = hk.constant_field(sp, beta)
    t = hk.phi(field, 0, r)
    assert hk.phi_inverse(field, 0, t) == pytest.approx(r, rel=1e-12)
    assert hk.phi(field, 0, hk.phi_inverse(field, 0, t)) == pytest.approx(t, rel=1e-12)


def test_phi_strictly_increasing():
    sp = hk.build_cantor_product(1 / 3, 1, 4)
    field = hk.field_from_table(sp, np.linspace(0.5, 1.5, sp.n_points),
                                beta1=0.5, beta2=1.5)
    radii = np.logspace(-3, 1, 40)
    for x in (0, 5, 15):
        vals = [hk.phi(field, x, r) for r in radii]
        assert np.all(np.diff(vals) > 0)


def test_phi_and_its_inverse_broadcast_atoms_against_radii():
    sp = hk.build_cantor_product(1 / 3, 1, 4)
    field = hk.field_from_table(sp, np.linspace(0.5, 2.0, sp.n_points), beta1=0.5, beta2=2.0)
    ids = np.arange(sp.n_points)
    radii = np.array([1e-3, 0.3, 1.0, 2.5])            # both sides of the crossover
    grid = hk.phi(field, ids[:, None], radii[None, :])
    assert grid.shape == (sp.n_points, radii.size)
    want = [[hk.phi(field, int(x), float(r)) for r in radii] for x in ids]
    assert np.allclose(grid, want, rtol=1e-15, atol=0)
    assert np.array_equal(hk.phi(field, ids, 2.5), np.full(sp.n_points, 2.5 ** 0.5))
    back = hk.phi_inverse(field, ids[:, None], grid)
    assert np.allclose(back, np.broadcast_to(radii, grid.shape), rtol=1e-12, atol=0)
    # a scalar atom and radius give a Python float
    assert type(hk.phi(field, 3, 0.3)) is float and type(hk.phi_inverse(field, 3, 0.3)) is float


def test_scale_axioms_constant_field():
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    field = hk.constant_field(sp, 0.8)
    rep = hk.verify_scale_axioms(field, hk.dyadic_radius_grid(sp), np.random.default_rng(0))
    assert rep.passed
    assert rep.witness["C1"] == pytest.approx(1.0, abs=1e-12)
    assert rep.witness["C2"] == pytest.approx(1.0, abs=1e-12)


def test_scale_axioms_counterexample_field():
    cfg = hk.synthesize_config(0.5, level=5)
    sp = hk.build_cantor_product(cfg.xi, 2, 3)
    field = hk.build_counterexample_field(cfg, sp)
    rep = hk.verify_scale_axioms(field, hk.dyadic_radius_grid(sp), np.random.default_rng(0))
    assert rep.passed
    assert math.isfinite(rep.witness["C1"])
    assert rep.witness["C1"] >= 1.0


def test_scale_axioms_flags_lipschitz_violation():
    sp = hk.build_two_point()
    field = hk.field_from_table(sp, [0.5, 1.9], beta1=0.5, beta2=1.9,
                                lipschitz=True)    # jump 1.4 over distance 1
    rep = hk.verify_scale_axioms(field, [0.5, 1.0], np.random.default_rng(0))
    assert rep.passed is False
    assert rep.witness["lipschitz_excess"] > 0


def unstreamed_scale_axioms(scale, space, radius_grid, rng):
    # test oracle: the scan on whole P x P pair matrices that
    # verify_scale_axioms streams in row chunks
    radii = np.asarray(radius_grid, dtype=float)
    n = space.n_points
    if n <= hk.scale._AXIOM_PAIR_SAMPLE:
        pair_idx = np.arange(n)
    else:
        pair_idx = rng.choice(n, size=hk.scale._AXIOM_PAIR_SAMPLE, replace=False)
    dist = space.dist_block(pair_idx, pair_idx)
    c1, c1_witness = 1.0, {}
    for r in radii:
        vals = hk.phi(scale, pair_idx, float(r))
        ratio = np.where(dist <= r, vals[None, :] / vals[:, None], 0.0)
        k = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[k] > c1:
            c1 = float(ratio[k])
            c1_witness = {"x": int(pair_idx[k[0]]), "y": int(pair_idx[k[1]]), "r": float(r)}
    c2, c2_witness = 1.0, {}
    for a in range(radii.size):
        for b in range(a + 1, radii.size):
            r, big_r = radii[a], radii[b]
            ratio = hk.phi(scale, pair_idx, float(big_r)) / hk.phi(scale, pair_idx, float(r))
            q = big_r / r
            worst = float(max((ratio / q ** scale.beta2).max(), (q ** scale.beta1 / ratio).max()))
            if worst > c2:
                c2, c2_witness = worst, {"r": float(r), "R": float(big_r)}
    c_off = 0.0
    for a in range(radii.size):
        for b in range(a, radii.size):
            r, big_r = radii[a], radii[b]
            vals_r = hk.phi(scale, pair_idx, float(r))
            vals_R = hk.phi(scale, pair_idx, float(big_r))
            bound = ((big_r + dist) / r) ** scale.beta2
            c_off = max(c_off, float((vals_R[None, :] / vals_r[:, None] / bound).max()))
    witness = {"C1": c1, "C2": c2, "C_offpoint": c_off, **c1_witness}
    series = [{"C1": c1, "C2": c2, "C_offpoint": c_off,
               "r": c2_witness.get("r"), "R": c2_witness.get("R")}]
    passed = all(map(math.isfinite, (c1, c2, c_off)))
    if scale.lipschitz:
        beta = scale.beta_values[pair_idx]
        gap = max(0.0, float((np.abs(beta[None, :] - beta[:, None]) - dist).max()))
        witness["lipschitz_excess"] = gap
        passed = passed and gap <= 1e-9
    return c1, witness, series, passed


def _axiom_case(case):
    if case == "tied_product":                          # 256 atoms, maxima tied across chunks
        cfg = hk.synthesize_config(4.0, level=4)
        sp = hk.build_cantor_product(cfg.xi, 2, 4)
        return sp, hk.build_counterexample_field(cfg, sp)
    if case == "sampled_pairs":                         # 1024 atoms, P = 512 sampled
        sp = hk.build_cantor_product(1 / 3, 1, 10)
        anchors = [(0, 0.1, 1.4), (sp.n_points - 1, 0.1, 0.7)]
        return sp, hk.field_from_balls(sp, anchors, 0.7, 1.4)
    sp = hk.build_grid(2, 19)                           # 361 atoms, a ragged last chunk
    values = np.random.default_rng(3).uniform(0.6, 1.6, size=sp.n_points)
    return sp, hk.field_from_table(sp, values, 0.6, 1.6, lipschitz=True)


@pytest.mark.parametrize("case", ["tied_product", "sampled_pairs", "lipschitz_violation"])
def test_streamed_scale_axioms_equal_the_unstreamed_scan(case):
    sp, field = _axiom_case(case)
    radii = hk.dyadic_radius_grid(sp)
    rep = hk.verify_scale_axioms(field, radii, rng=np.random.default_rng(0))
    c1, witness, series, passed = unstreamed_scale_axioms(field, sp, radii,
                                                          np.random.default_rng(0))
    assert canonical_json([rep.best_constant, rep.witness, rep.series, rep.passed]) == \
        canonical_json([c1, witness, series, passed])
    assert "x" in witness
    assert passed is (case != "lipschitz_violation")


def test_scale_axioms_allocate_under_two_square_pair_arrays():
    # 256 atoms, all of them paired; tracemalloc sees numpy's arrays.  The
    # pair scans hold a few row chunks at a time, not the P x P distance,
    # ratio and bound matrices (4.0 square arrays)
    sp, field = _axiom_case("tied_product")
    radii = hk.dyadic_radius_grid(sp)
    rng = np.random.default_rng(0)
    square = sp.n_points**2 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        hk.verify_scale_axioms(field, radii, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * square


def test_quasi_metric_constant_field_exact():
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    for beta in (0.8, 1.3):
        field = hk.constant_field(sp, beta)
        dstar, comp = hk.induced_quasi_metric(field, beta_star=beta)
        assert comp == pytest.approx(1.0, rel=1e-9)
        d = sp.pairwise()
        off = ~np.eye(sp.n_points, dtype=bool)
        assert np.allclose(dstar[off] ** beta, d[off] ** beta, rtol=1e-9)


def test_quasi_metric_two_point():
    sp = hk.build_two_point(gap=0.5)
    field = hk.field_from_table(sp, [0.7, 1.4], beta1=0.7, beta2=1.4)
    dstar, _ = hk.induced_quasi_metric(field, beta_star=1.4)
    rho = max(0.5**0.7, 0.5**1.4) ** (1 / 1.4)
    assert dstar[0, 1] == pytest.approx(rho, rel=1e-12)


def test_quasi_metric_counterexample_field():
    cfg = hk.synthesize_config(0.5, level=4)
    sp = hk.build_cantor_product(cfg.xi, 2, 3)
    field = hk.build_counterexample_field(cfg, sp)
    dstar, comp = hk.induced_quasi_metric(field)   # default beta_star = beta2
    assert math.isfinite(comp) and comp >= 1.0
    # metric axioms of the chain metric
    assert np.allclose(dstar, dstar.T)
    assert np.all(np.diag(dstar) == 0)
    n = sp.n_points
    for k in range(0, n, 7):
        assert np.all(dstar <= dstar[:, [k]] + dstar[[k], :] + 1e-12)


def test_field_from_balls_plateaus():
    sp = hk.build_cantor_product(1 / 3, 1, 5)
    field = hk.field_from_balls(sp, [(0, 0.25, 1.2), ((1.0,), 0.25, 1.0)],
                                beta1=1.0, beta2=1.2)
    d0 = sp.dist_from(0)
    d1 = sp.dist_from_coord([1.0])
    assert np.all(field.beta_values[d0 < 0.25] == pytest.approx(1.2))
    assert np.all(field.beta_values[d1 < 0.25] == pytest.approx(1.0))
    # 1-Lipschitz by construction
    d = sp.pairwise()
    gap = np.abs(field.beta_values[:, None] - field.beta_values[None, :]) - d
    assert gap.max() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_field_from_balls_matches_brute_force_minimum(seed, chunk_budget):
    space, _, _ = random_setup(seed)
    anchors = [(0, 0.3, 1.4), (space.n_points - 1, 0.2, 0.9),
               (tuple(space.coords[space.n_points // 2] + 0.01), 0.25, 1.1)]
    field = hk.field_from_balls(space, anchors, beta1=0.9, beta2=1.4)
    envelopes = []
    for center, radius, value in anchors:
        d_center = (space.dist_from(center) if np.ndim(center) == 0
                    else space.dist_from_coord(center))
        members = np.flatnonzero(d_center < radius)
        dist_to_ball = np.min([space.dist_from(m) for m in members], axis=0)
        envelopes.append(value + dist_to_ball)
    want = np.clip(np.min(envelopes, axis=0), 0.9, 1.4)
    assert np.array_equal(field.beta_values, want)


def test_an_order_field_needs_one_value_per_point_of_its_space():
    sp = hk.build_grid(1, 4)
    with pytest.raises(ParameterError, match="one order value per point"):
        hk.ScaleField(sp, np.ones(3), 1.0, 1.0)
    with pytest.raises(ParameterError, match="one order value per point"):
        hk.field_from_table(sp, [[1.0, 1.0], [1.0, 1.0]], 1.0, 1.0)
    assert hk.field_from_table(sp, [1.0] * 4, 1.0, 1.0).space is sp


# ---------------------------------------------------------------------------
# One space per object
# ---------------------------------------------------------------------------

_SPACE_OWNERS = {"form", "form_full", "form_near", "kernel", "kernel_far", "scale", "trunc"}


def _public_functions():
    """(qualified name, function) for every public function of the package and
    its layer modules, and for the constructor of every public class."""
    modules = [hk] + [importlib.import_module(f"hklab.{name}") for name in
                      ("space", "scale", "kernel", "form", "semigroup", "counterexample", "cli")]
    for mod in modules:
        names = hk.__all__ if mod is hk else [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name)
            if inspect.isclass(fn):
                fn = fn.__init__
            if inspect.isfunction(fn):
                yield f"{mod.__name__}.{name}", fn


def test_no_public_function_takes_a_space_beside_an_object_that_has_one():
    both = [name for name, fn in _public_functions()
            if "space" in (params := set(inspect.signature(fn).parameters))
            and params & _SPACE_OWNERS]
    assert both == []


def test_no_public_function_takes_two_forms_or_a_form_beside_a_kernel():
    # a near form and a far kernel passed beside the full form were pieces of
    # one truncation that nothing checked belonged together; a Truncation
    # holds them
    def takes(hint, cls):
        return hint is cls or cls in typing.get_args(hint)

    mixed, with_a_form = [], 0
    for name, fn in _public_functions():
        hints = [h for p, h in typing.get_type_hints(fn).items() if p != "return"]
        forms = sum(takes(h, hk.SpectralForm) for h in hints)
        with_a_form += forms > 0
        if forms > 1 or (forms and any(takes(h, hk.JumpKernel) for h in hints)):
            mixed.append(name)
    assert mixed == [] and with_a_form >= 10


# the attributes of the reflection fold of a split eigenbasis
_FOLD_ATTRIBUTES = {"factors", "pair", "sign", "quadrants", "columns", "A", "B"}


def test_no_module_but_form_reads_the_reflection_fold():
    # a basis answers kernel rows by atom; only form.py, where the split
    # basis lives, may name the attributes of its fold.  numpy's and math's
    # own functions of those names are not a basis's
    package = pathlib.Path(hk.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "form.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in _FOLD_ATTRIBUTES
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("np", "numpy", "math"))):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert found == []


# a name or attribute that holds an order of the scale field
_ORDER_NAMES = {"beta_values", "beta1"}


def _reads(node, names) -> bool:
    return any(isinstance(n, ast.Name) and n.id in names
               or isinstance(n, ast.Attribute) and n.attr in names for n in ast.walk(node))


def _order_powers(source: str) -> list[str]:
    """``function:line`` of each ``**`` whose exponent reads an order: one of
    ``_ORDER_NAMES``, or a name the same function binds from one, through
    assignments, loops and comprehensions."""
    tree = ast.parse(source)
    functions = [node for top in tree.body
                 for node in ([top] if not isinstance(top, ast.ClassDef) else top.body)
                 if isinstance(node, ast.FunctionDef)]
    found = []
    for fn in functions:
        tainted = set(_ORDER_NAMES)
        grew = True
        while grew:                                     # to a fixed point
            grew = False
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    value = node.value
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                elif isinstance(node, (ast.For, ast.comprehension)):
                    value, targets = node.iter, [node.target]
                else:
                    continue
                if value is None or not _reads(value, tainted):
                    continue
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                grew |= not names <= tainted
                tainted |= names
        found += [f"{fn.name}:{node.lineno}" for node in ast.walk(fn)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  and _reads(node.right, tainted)]
    return found


def test_order_power_detector_sees_direct_and_bound_orders():
    # the per-atom loop induced_quasi_metric used to run, and a comprehension
    # over the distinct orders
    loop = ("def f(scale, d):\n"
            "    for x in range(3):\n"
            "        y = d[x] ** scale.beta_values[x]\n")
    table = ("def g(scale, r):\n"
             "    orders = sorted(set(scale.beta_values))\n"
             "    return [r ** (1.0 / b) for b in orders]\n")
    plain = "def h(r, beta2):\n    return r ** beta2 * 2.0 ** r\n"
    assert _order_powers(loop) == ["f:3"]
    assert _order_powers(table) == ["g:3"]
    assert _order_powers(plain) == []
    scale_src = (pathlib.Path(hk.__file__).parent / "scale.py").read_text()
    assert {"phi", "phi_inverse"} <= {f.split(":")[0] for f in _order_powers(scale_src)}


# functions outside scale.py whose ``**`` reads an order, and why they may
_ORDER_POWER_EXCEPTIONS = {
    # a power per block entry that takes the orders 0.5 and 2 as sqrt and
    # square, as numpy's scalar power does: stable_like_reference pins those
    # bits, and phi's array power differs from them in the last place
    "kernel.py:build_stable_like_kernel",
    # raises a time, not a radius, to the profile rate n' alpha / beta1 of
    # the counterexample's own config
    "counterexample.py:due_violation_diagnostic",
}


def test_no_module_but_scale_raises_a_radius_to_an_order():
    # phi and phi_inverse are the scaling law; a checker that needs
    # phi(x, d(x, y)) on a kernel block calls phi(scale, rows[:, None], d).
    # The axis-aligned kernels' np.power reads the pair order
    # min(beta(x), beta(y)) + alpha, which is no atom's phi, and is no ``**``
    package = pathlib.Path(hk.__file__).parent
    found = {f"{path.name}:{hit.rsplit(':', 1)[0]}" for path in sorted(package.glob("*.py"))
             if path.name != "scale.py" for hit in _order_powers(path.read_text())}
    assert found == _ORDER_POWER_EXCEPTIONS


def _mixed_spaces():
    """A kernel and its form on the 64-atom Cantor product, and an order field
    on the 8 x 8 grid, which has as many atoms."""
    a = hk.build_cantor_product(1 / 3, 2, 3)
    kernel_on_a = hk.build_cantor_axis_kernel(hk.constant_field(a, 0.8, T0=1.0))
    return a, kernel_on_a, hk.assemble(kernel_on_a), hk.constant_field(hk.build_grid(2, 8), 0.8)


_BALLS = [(0, 0.25), (5, 0.5)]
_MIXED_CALLS = {
    "tj_check": lambda k, f, s, rng: hk.tj_check(k, s, [0.125, 0.25, 0.5]),
    "tjq_check": lambda k, f, s, rng: hk.tjq_check(hk.build_uniform_kernel(k.space), s,
                                                   2.0, [0.25]),   # a kernel with a density
    "ij_check": lambda k, f, s, rng: hk.ij_check(k, s, 0.0, [(0.25, 0.5)]),
    "lre_check": lambda k, f, s, rng: hk.lre_check(f, s, 1.0, _BALLS),
    "cs_check": lambda k, f, s, rng: hk.cs_check(k, s, _BALLS),
    "capacity_check": lambda k, f, s, rng: hk.capacity_check(k, s, _BALLS),
    "fk_family_check": lambda k, f, s, rng: hk.fk_family_check(
        f, s, "FK", 0.5, 1.0, 1.0, 0.5, _BALLS, rng),
    "nash_check": lambda k, f, s, rng: hk.nash_check(f, s, 0.5, 1.0, _BALLS, rng),
    "fk_nash_consistency": lambda k, f, s, rng: hk.fk_nash_consistency(
        f, s, 0.5, 1.0, 1.0, _BALLS, rng),
    "se_check": lambda k, f, s, rng: hk.se_check(f, s, _BALLS),
    "se_from_lre_chain": lambda k, f, s, rng: hk.se_from_lre_chain(f, s, 1.0, _BALLS),
    "te_check": lambda k, f, s, rng: hk.te_check(f, s, 1.0, _BALLS, [0.1, 1.0]),
    "due_check": lambda k, f, s, rng: hk.due_check(f, s, 1.0, [0.1, 1.0], rng),
}


@pytest.mark.parametrize("name", sorted(_MIXED_CALLS))
def test_a_form_or_kernel_with_an_order_field_of_another_space_is_refused(name):
    # with a space argument of their own, te_check(form_on_a, b, scale_on_b,
    # ...) on a 256-atom product and the 16 x 16 grid reported 2.0036, a pass,
    # and tj_check 2.857; an equal space built twice is another space too
    a, kernel_on_a, form_on_a, scale_on_b = _mixed_spaces()
    rng = np.random.default_rng(0)
    for scale in (scale_on_b, hk.constant_field(hk.build_cantor_product(1 / 3, 2, 3), 0.8)):
        with pytest.raises(ParameterError, match="built on different spaces"):
            _MIXED_CALLS[name](kernel_on_a, form_on_a, scale, rng)
    assert _MIXED_CALLS[name](kernel_on_a, form_on_a, hk.constant_field(a, 0.8, T0=1.0), rng)


_NAN = math.nan
_NAN_CALLS = {
    "lre_check.kappa": lambda f, s, rng: hk.lre_check(f, s, _NAN, _BALLS),
    "se_from_lre_chain.kappa": lambda f, s, rng: hk.se_from_lre_chain(f, s, _NAN, _BALLS),
    "fk_family_check.nu": lambda f, s, rng: hk.fk_family_check(
        f, s, "WFK", _NAN, 1.0, 1.0, 0.5, _BALLS, rng),
    "fk_family_check.b": lambda f, s, rng: hk.fk_family_check(
        f, s, "GFK", 0.5, _NAN, 1.0, 0.5, _BALLS, rng),
    "fk_family_check.Cprime": lambda f, s, rng: hk.fk_family_check(
        f, s, "WFK", 0.5, 1.0, _NAN, 0.5, _BALLS, rng),
    "fk_family_check.delta": lambda f, s, rng: hk.fk_family_check(
        f, s, "FK", 0.5, 1.0, 1.0, _NAN, _BALLS, rng),
    "nash_check.nu": lambda f, s, rng: hk.nash_check(f, s, _NAN, 1.0, _BALLS, rng),
    "nash_check.b": lambda f, s, rng: hk.nash_check(f, s, 0.5, _NAN, _BALLS, rng),
    "fk_nash_consistency.nu": lambda f, s, rng: hk.fk_nash_consistency(
        f, s, _NAN, 1.0, 1.0, _BALLS, rng),
    "fk_nash_consistency.Cprime": lambda f, s, rng: hk.fk_nash_consistency(
        f, s, 0.5, 1.0, _NAN, _BALLS, rng),
    "constant_field.T0": lambda f, s, rng: hk.constant_field(f.space, 0.8, T0=_NAN),
    "te_check.T0": lambda f, s, rng: hk.te_check(f, s, _NAN, _BALLS, [0.1, 1.0]),
    "due_check.T0": lambda f, s, rng: hk.due_check(f, s, _NAN, [0.1, 1.0], rng),
    "due_check.k": lambda f, s, rng: hk.due_check(f, s, 1.0, [0.1, 1.0], rng, k=_NAN),
    "meyer_check.t": lambda f, s, rng: hk.meyer_check(hk.Truncation(f, 0.25), [0, 1, 2], _NAN),
}


@pytest.mark.parametrize("name", sorted(_NAN_CALLS))
def test_a_nan_parameter_is_refused(name):
    # every comparison with NaN is false: lre_check, se_from_lre_chain and
    # fk_family_check("WFK", nu=nan) passed with best_constant None,
    # te_check(T0=nan) passed with C = 1.50 (min(phi, nan) is phi), and an
    # order field took T0 nan
    a, _, form_on_a, _ = _mixed_spaces()
    with pytest.raises(ParameterError, match="must be"):
        _NAN_CALLS[name](form_on_a, hk.constant_field(a, 0.8, T0=1.0),
                         np.random.default_rng(0))


def test_a_form_reads_its_space_from_its_kernel():
    a, kernel_on_a, form_on_a, _ = _mixed_spaces()
    assert form_on_a.space is kernel_on_a.space is a
    assert hk.part_on(form_on_a, [0, 1, 2]).space is a
    with pytest.raises(AttributeError):
        form_on_a.space = hk.build_grid(2, 8)
