"""Span recording around hklab's public functions, and per-layer aggregation.

The tracer lives in the benchmark, not in the program: ``install`` replaces
the public functions of each hklab module with timing wrappers, at every name
callers look them up by (a function imported by name into another module, such
as ``semigroup.part_on``, is replaced there too).  Spans are kept in memory as
``(name, start, end, parent)`` and written out once, when the run ends.

``layer_metrics`` turns a span list into the per-layer metrics.  A span's self
time is its duration minus the time covered by its child spans.  A public
function that has no metric of its own counts toward the layer that called it,
so every second of the traced run is attributed to exactly one metric.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYER_MODULES = ("space", "scale", "kernel", "form", "semigroup",
                 "counterexample", "report", "cli")

# Methods that open a span of their own.
SPAN_METHODS = {
    "form": {"SpectralForm": ("heat_kernel",)},
    "kernel": {"JumpKernel": ("matrix",)},
    "report": {"ConditionReport": ("to_dict", "to_json", "to_csv")},
}

# Methods called tens of thousands of times inside the checkers' per-point
# loops: they are counted, and their time stays with the calling layer.
COUNTED_METHODS = {
    "space": {"FiniteMMSpace": ("dist_from", "ball")},
    "kernel": {"JumpKernel": ("block",)},
}

# Time metric -> span names whose self time it sums.
TIME_METRICS = {
    "space.build_s": ("space.build_cantor_product", "space.build_grid",
                      "space.build_two_point", "space.build_custom"),
    "space.vd_fit_s": ("space.fit_vd_exponent", "space.fit_rvd_exponent"),
    "scale.field_s": ("scale.constant_field", "scale.field_from_balls",
                      "scale.field_from_table"),
    "scale.axioms_s": ("scale.verify_scale_axioms",),
    "kernel.matrix_s": ("kernel.JumpKernel.matrix",),
    "kernel.tj_s": ("kernel.tj_check",),
    "kernel.ij_s": ("kernel.ij_check",),
    "form.assemble_s": ("form.assemble",),
    "form.part_on_s": ("form.part_on",),
    "form.heat_kernel_s": ("form.SpectralForm.heat_kernel",),
    "form.lre_s": ("form.lre_check",),
    "form.cs_s": ("form.cs_check",),
    "form.capacity_s": ("form.capacity_check",),
    "form.fk_s": ("form.fk_family_check",),
    "form.nash_s": ("form.nash_check",),
    "form.fk_nash_s": ("form.fk_nash_consistency",),
    "semigroup.se_s": ("semigroup.se_check",),
    "semigroup.se_from_lre_s": ("semigroup.se_from_lre_chain",),
    "semigroup.te_s": ("semigroup.te_check",),
    "semigroup.due_s": ("semigroup.due_check",),
    "semigroup.invariants_s": ("semigroup.heat_kernel_invariants",),
    "semigroup.conservativeness_s": ("semigroup.conservativeness_check",),
    "semigroup.truncation_s": ("semigroup.truncation_l2_check",
                               "semigroup.truncation_semigroup_check"),
    "semigroup.meyer_s": ("semigroup.meyer_check",),
    "counterexample.field_s": ("counterexample.build_counterexample_field",),
    "counterexample.due_diagnostic_s": ("counterexample.due_violation_diagnostic",),
    "report.write_s": ("report.canonical_json", "report.config_hash",
                       "report.ConditionReport.to_dict", "report.ConditionReport.to_json",
                       "report.ConditionReport.to_csv"),
    "cli.self_s": ("cli.main", "cli.run_config", "cli.counterexample_report",
                   "cli.build_space", "cli.build_scale", "cli.build_kernel",
                   "cli.list_checks"),
}

# Count metric -> span or counter name whose calls it counts.
CALL_METRICS = {
    "space.dist_from_calls": "space.FiniteMMSpace.dist_from",
    "space.ball_calls": "space.FiniteMMSpace.ball",
    "kernel.block_calls": "kernel.JumpKernel.block",
    "form.assemble_calls": "form.assemble",
    "form.part_on_calls": "form.part_on",
    "form.heat_kernel_calls": "form.SpectralForm.heat_kernel",
}

# Work counter: sum of n^3 over the domains of the forms that assemble and
# part_on return, n being the size of the dense eigenproblem each one solved.
EIGH_WORK = "form.eigh_work"
EIGH_SPANS = ("form.assemble", "form.part_on")

METRIC_OF_SPAN = {span: metric for metric, spans in TIME_METRICS.items() for span in spans}


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self.eigh_work = 0
        self._stack: list[int] = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if name in EIGH_SPANS:
                self.eigh_work += int(result.domain.size) ** 3
            return result
        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package="hklab"):
        """Wrap the public functions and the listed methods of every layer module."""
        modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYER_MODULES}
        every_module = [importlib.import_module(package), *modules.values()]
        wrapped = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapped[id(value)] = self.span(f"{short}.{attr}", value)
        # rebind at every name that refers to a wrapped function
        for mod in every_module:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
        for table, make in ((SPAN_METHODS, self.span), (COUNTED_METHODS, self.counter)):
            for short, classes in table.items():
                for cls_name, methods in classes.items():
                    cls = getattr(modules[short], cls_name)
                    for method in methods:
                        setattr(cls, method,
                                make(f"{short}.{cls_name}.{method}", getattr(cls, method)))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "eigh_work": self.eigh_work}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the time its children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def metric_of(spans, index: int) -> str | None:
    """Metric of a span, or of its nearest ancestor that has one."""
    while index >= 0:
        name, _, _, parent = spans[index]
        if name in METRIC_OF_SPAN:
            return METRIC_OF_SPAN[name]
        index = parent
    return None


def layer_metrics(trace: dict) -> dict[str, float | int]:
    """Per-layer self times and exact counts from one traced run."""
    spans = [tuple(s) for s in trace["spans"]]
    out: dict[str, float | int] = {name: 0.0 for name in TIME_METRICS}
    for index, own in enumerate(self_times(spans)):
        metric = metric_of(spans, index)
        if metric is not None:
            out[metric] += own
    calls: dict[str, int] = dict(trace["counts"])
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(name, 0)
    out[EIGH_WORK] = int(trace["eigh_work"])
    return out


def count_metric_names() -> list[str]:
    return [*CALL_METRICS, EIGH_WORK]
