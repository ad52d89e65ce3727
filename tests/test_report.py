import ast
import json
import math
import pathlib
import sys

import numpy as np
import pytest

import hklab as hk
import hklab.report as report_mod
from conftest import custom_metric_config
from hklab.report import ConditionReport, best_of, canonical_json, extremum, gate, gate_rows


def test_extremum_takes_the_first_index_of_a_tie():
    assert extremum([1.0, 3.0, 3.0 * (1 - 1e-13), 3.0]) == 1
    assert extremum([3.0 * (1 - 1e-13), 1.0, 3.0]) == 0          # within 1e-12: a tie
    assert extremum([3.0, 3.0 * (1 + 1e-11)]) == 1                # 1e-11 above: it wins
    assert extremum([-2.0 * (1 - 1e-13), -2.0, 5.0], lowest=True) == 0
    assert extremum([-2.0, -2.0 * (1 + 1e-11)], lowest=True) == 1
    assert extremum(np.array([0.5, 2.0])) == 1


def test_extremum_candidates_and_non_finite_values():
    assert extremum([]) is None
    assert extremum([], lowest=True) is None
    assert extremum([0.0, -1.0, math.nan]) is None                # only values above 0
    assert extremum([math.nan, None, 0.5]) == 2                   # NaN never wins
    assert extremum([math.inf, math.nan], lowest=True) is None    # only values below inf
    assert extremum([math.nan, 4.0, 3.0], lowest=True) == 2
    assert extremum([0.0, 2.0], lowest=True) == 0                 # 0 is a candidate here
    # an infinite extremum ties only with itself: inf - inf * 1e-12 is NaN,
    # which took every index for a tie and returned index 0
    assert extremum([1e308, math.inf, 5.0, math.inf]) == 1
    assert extremum([-1e308, -math.inf, -math.inf], lowest=True) == 1


def test_best_of_reads_every_field_at_its_witness_row():
    series = [{"x": 3, "r": 0.5, "C": 1.0, "m": 7.0},
              {"x": 9, "r": 0.25, "C": 2.0 * (1 + 1e-13), "m": 8.0},
              {"x": 1, "r": 0.125, "C": 2.0, "m": 9.0}]
    assert best_of(series, "C", ("x", "r", "m")) == (2.0 * (1 + 1e-13),
                                                     {"x": 9, "r": 0.25, "m": 8.0})
    assert best_of(series, "C", ("x",), lowest=True) == (1.0, {"x": 3})
    assert best_of(series, "m", ()) == (9.0, {})


def test_best_of_without_a_candidate():
    assert best_of([], "C", ("x",)) == (0.0, {})
    assert best_of([], "C", ("x",), lowest=True) == (math.inf, {})
    assert best_of([{"C": 0.0, "x": 1}, {"C": math.nan, "x": 2}], "C", ("x",)) == (0.0, {})
    assert best_of([{"C": math.inf, "x": 1}], "C", ("x",), lowest=True) == (math.inf, {})


_A0 = [(0, 0.25), (5, 0.5), (21, 0.5)]
# sweep check: its call on the 64-atom product, the series key of its
# constant, the keys of its witness, and whether it takes the smallest
_SWEEPS = {
    "tj_check": (lambda k, f, s, rng: hk.tj_check(k, s, [0.125, 0.25, 0.5]),
                 "C_at_r", ("x", "r", "tail_mass"), False),
    "tjq_check": (lambda k, f, s, rng: hk.tjq_check(hk.build_uniform_kernel(k.space), s,
                                                    2.0, [0.125, 0.25]),
                  "C_at_r", ("x", "r"), False),
    "ij_check": (lambda k, f, s, rng: hk.ij_check(k, s, 0.5, [(0.125, 0.25), (0.25, 0.5)]),
                 "C", ("x", "r", "R"), False),
    "cs_check": (lambda k, f, s, rng: hk.cs_check(k, s, _A0), "c", ("x0", "R", "r", "x"), False),
    "capacity_check": (lambda k, f, s, rng: hk.capacity_check(k, s, _A0),
                       "C", ("x0", "r"), False),
    "lre_check": (lambda k, f, s, rng: hk.lre_check(f, s, 1.0, _A0), "c1", ("x0", "r"), True),
    "fk_family_check": (lambda k, f, s, rng: hk.fk_family_check(
        f, s, "FK", 0.5, 1.0, 1.0, 0.5, _A0, rng), "C", ("x0", "r", "size_D", "lambda1"), True),
    "nash_check": (lambda k, f, s, rng: hk.nash_check(f, s, 0.5, 1.0, _A0, rng),
                   "C", ("x0", "r", "family"), False),
    "te_check": (lambda k, f, s, rng: hk.te_check(f, s, 1.0, _A0, [0.1, 1.0]),
                 "C", ("x0", "r", "t"), False),
    "due_check": (lambda k, f, s, rng: hk.due_check(f, s, 1.0, [0.01, 0.1, 0.5], rng),
                  "C_at_t", ("x", "t"), False),
    "se_from_lre_chain": (lambda k, f, s, rng: hk.se_from_lre_chain(f, s, 1.0, _A0),
                          "margin", (), True),
}


@pytest.fixture(scope="module")
def product64():
    space = hk.build_cantor_product(1 / 3, 2, 3)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    kern = hk.build_cantor_axis_kernel(scale)
    return kern, hk.assemble(kern), scale


@pytest.mark.parametrize("name", sorted(_SWEEPS))
def test_every_sweep_witness_is_a_projection_of_its_first_best_row(product64, name, rng):
    call, key, keys, lowest = _SWEEPS[name]
    rep = call(*product64, rng)
    best = rep.best_constant
    assert rep.series and math.isfinite(best) and (lowest or best > 0)
    first = next(row for row in rep.series if abs(row[key] - best) <= 1e-12 * abs(best))
    assert first[key] == best
    assert {k: rep.witness[k] for k in keys} == {k: first[k] for k in keys}
    if name != "se_from_lre_chain":
        pick = min if lowest else max
        assert best == pytest.approx(pick(row[key] for row in rep.series), rel=1e-12)


def test_a_report_is_converted_once_for_its_json(monkeypatch):
    rep = ConditionReport("tj", params={"radii": np.array([0.25, 0.5])},
                          best_constant=np.float64(1.5),
                          witness={"x": np.int64(3), "r": 0.25},
                          notes=["a"], series=[{"r": 0.25, "C": math.inf},
                                               {"r": 0.5, "C": np.float64(1.5)}])
    calls = []
    convert = report_mod._jsonable
    monkeypatch.setattr(report_mod, "_jsonable", lambda v: calls.append(v) or convert(v))
    as_dict = rep.to_dict()
    per_pass = len(calls)
    text = rep.to_json()
    assert len(calls) == 2 * per_pass                             # one pass each
    assert text == canonical_json(as_dict) == canonical_json({"tj": rep})[6:-1]
    assert as_dict["witness"] == {"x": 3, "r": 0.25} and as_dict["verdict"] == "diagnostic"
    assert as_dict["series"][0]["C"] == "inf" and as_dict["pass"] is None


def _extremum_picks(source: str) -> set[str]:
    """The outermost function (or ``<module>``) of each ``argmax`` and each
    ``max`` or ``min`` with a ``key=`` in ``source``."""
    found = set()

    def visit(node, owner):
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "argmax") or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("max", "min")
                and any(kw.arg == "key" for kw in node.keywords)):
            found.add(owner or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_extremum_pick_detector_sees_every_form():
    source = ("import numpy as np\n"
              "def f(v):\n    return int(np.argmax(v))\n"
              "class K:\n    def g(self, v):\n        return v.argmax()\n"
              "def h(rows):\n    return max(rows, key=lambda row: row['C'])\n"
              "def k(a, b):\n    return max(a, b), min([a, b]), np.max(a)\n"
              "LOW = min([1, 2], key=abs)\n")
    assert _extremum_picks(source) == {"f", "g", "h", "<module>"}
    report_src = pathlib.Path(report_mod.__file__).read_text()
    assert _extremum_picks(report_src) == {"extremum"}


# the one place outside report.py that picks a witness by hand: the C1 scan
# of verify_scale_axioms is streamed in row chunks for peak memory, and a
# tie tolerance across chunks would need a second pass
_EXTREMUM_EXCEPTIONS = {"scale.py:verify_scale_axioms"}


def test_no_module_but_report_picks_an_extremum():
    package = pathlib.Path(hk.__file__).parent
    found = {f"{path.name}:{owner}" for path in sorted(package.glob("*.py"))
             if path.name != "report.py" for owner in _extremum_picks(path.read_text())}
    assert found == _EXTREMUM_EXCEPTIONS


@pytest.mark.parametrize("values,passed,notes", [
    ([0.0, 0.0], True, []), ([math.nan, 1.0], False, ["1 of 2 rows have a non-finite C"]),
    ([math.inf], False, ["1 of 1 rows have a non-finite C"]), ([], False, [])])
def test_a_sweep_passes_only_when_every_row_is_finite(values, passed, notes):
    # best_of passes NaN over: a sweep that is NaN everywhere is best 0.0, witness {}
    rep = gate_rows(ConditionReport("x", series=[{"C": v} for v in values]), "C")
    assert rep.passed is passed and rep.notes == notes
    finite = sum(map(math.isfinite, values))
    assert rep.gates == [gate("rows", len(values), ">", 0),
                         gate("finite rows", finite, ">=", len(values))]
    assert [g["holds"] for g in rep.gates] == [bool(values), finite == len(values)]


def test_a_verdict_is_every_gate_holding():
    assert ConditionReport("x").passed is None                    # no gate: a diagnostic
    assert ConditionReport("x").verdict == "diagnostic"
    assert gate("m", -1e-10, ">=", -1e-9) == {"name": "m", "value": -1e-10, "op": ">=",
                                              "bound": -1e-9, "holds": True}
    assert [gate("m", v, op, 1.0)["holds"] for op in ("<", "<=", ">", ">=")
            for v in (0.5, 1.0, 2.0)] == [True, False, False, True, True, False,
                                          False, False, True, False, True, True]
    for value in (math.nan, None):                                # never holds
        assert not any(gate("m", value, op, 0.0)["holds"] for op in ("<", "<=", ">", ">="))
    assert not gate("C", math.inf, "<", math.inf)["holds"]        # the finiteness gate
    holds, fails = gate("a", 0.0, "<=", 1.0), gate("b", 2.0, "<=", 1.0)
    assert ConditionReport("x", gates=[holds]).verdict == "pass"
    assert ConditionReport("x", gates=[holds, fails]).verdict == "fail"
    as_dict = ConditionReport("x", gates=[gate("c", math.nan, "<=", 1.0)]).to_dict()
    assert as_dict["gates"] == [{"name": "c", "value": "nan", "op": "<=", "bound": 1.0,
                                 "holds": False}] and as_dict["pass"] is False
    with pytest.raises(AttributeError):
        ConditionReport("x").passed = True                        # read from the gates only


def _verdict_sites(source: str) -> set[str]:
    """The outermost function (or ``<module>``) of each ``passed=`` keyword
    of a call and each assignment to an attribute named ``passed`` in
    ``source``."""
    found = set()

    def visit(node, owner):
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        if (isinstance(node, ast.Call) and any(kw.arg == "passed" for kw in node.keywords)) or any(
                isinstance(t, ast.Attribute) and t.attr == "passed"
                for target in targets for t in ast.walk(target)):
            found.add(owner or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_verdict_site_detector_sees_every_form():
    source = ("def f(R):\n    return R(condition='x', passed=True)\n"
              "def g(rep):\n    rep.passed = False\n"
              "def h(rep):\n    rep.passed &= False\n"
              "def k(rep, other):\n    other.x, rep.passed = 1, True\n"
              "def m(rep):\n    passed = rep.passed\n    return passed, dict(passed=passed)\n"
              "REP.passed: bool = True\n")
    assert _verdict_sites(source) == {"f", "g", "h", "k", "m", "<module>"}
    assert _verdict_sites("def ok(rep):\n    passed = rep.passed\n    return passed\n") == set()


def test_no_module_but_report_decides_a_verdict():
    package = pathlib.Path(hk.__file__).parent
    found = {f"{path.name}:{owner}" for path in sorted(package.glob("*.py"))
             if path.name != "report.py" for owner in _verdict_sites(path.read_text())}
    assert found == set()


REPO = pathlib.Path(__file__).resolve().parent.parent
COMMITTED_CONFIGS = sorted([*(REPO / "configs").glob("*.json"),
                            *(REPO / "perfbench" / "workloads").glob("*.json")])


def hashlib_digest(cfg):
    import hashlib      # the oracle; the package hashes with CPython's built-in SHA-256

    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("path", COMMITTED_CONFIGS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_config_hash_is_sha256_of_the_canonical_json(path):
    cfg = json.loads(path.read_text())
    assert report_mod.config_hash(cfg) == hashlib_digest(cfg)


def test_config_hash_of_a_custom_metric_config():
    # 201 atoms: about 800 KB of canonical JSON, which grows as the square of the atoms
    cfg = custom_metric_config(201)
    assert len(canonical_json(cfg)) > 790_000
    assert report_mod.config_hash(cfg) == hashlib_digest(cfg)


def test_config_hash_falls_back_on_hashlib_without_a_built_in_sha256(monkeypatch):
    # a None entry in sys.modules makes its import fail
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    with pytest.raises(ImportError):
        import _sha256  # noqa: F401
    cfg = json.loads(COMMITTED_CONFIGS[0].read_text())
    assert report_mod.config_hash(cfg) == hashlib_digest(cfg)
