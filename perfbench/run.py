#!/usr/bin/env python3
"""hklab benchmark: the hk-lab CLI as a closed loop with one client.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep_256 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

One run at a time, each a fresh subprocess of the real CLI entry point
(``python3 -m hklab.cli`` with PYTHONPATH=src), started from this process.
Every run's exit code and outputs are checked against ``reference/``.

``--trace 0`` measures the end-to-end metrics with tracing off: ``run_s`` and
``peak_rss_mb`` of each CLI run, and ``setup_s``, the wall time of a fresh
process that only imports hklab and builds what every run builds before its
first check.  ``--trace 1`` alternates untraced runs with runs traced by
``traced_cli.py`` and reports the per-layer metrics of ``trace_layers.py``.

The last line printed is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import outcheck
import trace_layers

BENCH_DIR = Path(__file__).resolve().parent

# Every child gets this many BLAS/OpenMP threads (at most nproc on any host).
BLAS_THREADS = 1
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 60.0
# No child starts, and every child is killed, this long after a workload
# starts, so a run ends within 180 s even when the program hangs.
HARD_STOP_S = 150.0
# Seeded workloads have references for these many workload seeds; the bench
# seed is reduced modulo this number.
REFERENCE_SEEDS = 32
OUT_DIR = Path(".bench_out")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "run" (seeded) or "counterexample" (fixed inputs)
    cli_args: tuple[str, ...]

    def workload_case(self, seed: int) -> str:
        return str(seed % REFERENCE_SEEDS) if self.kind == "run" else "fixed"

    def argv(self, case: str, out_dir: Path) -> list[str]:
        args = [*self.cli_args, "--out", str(out_dir)]
        return args + ["--seed", case] if self.kind == "run" else args


def _config(name: str) -> str:
    return str(BENCH_DIR / "workloads" / f"{name}.json")


# Sizes are one level below the 1024/4096-atom rungs of the ROADMAP ladder so
# that several runs fit in one measured window (see README.md).
WORKLOADS = {
    "sweep_256": Workload("sweep_256", "run", ("run", "--config", _config("sweep_256"))),
    "spectral_2048": Workload("spectral_2048", "run",
                              ("run", "--config", _config("spectral_2048"))),
    # counterexample report has no seed flag: its inputs are fixed.
    "counterexample_256": Workload("counterexample_256", "counterexample",
                                   ("counterexample", "report", "--epsilon", "4",
                                    "--levels", "4", "--axes", "2")),
}


@dataclass
class ChildResult:
    wall_s: float
    exit_code: int
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], log_path: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; wall time from spawn to exit, and its peak RSS."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Session:
    """One workload at one seed: spawns children, checks them, keeps the tally."""

    def __init__(self, workload: Workload, seed: int):
        self.wl = workload
        self.case = workload.workload_case(seed)
        self.reference = json.loads((BENCH_DIR / "reference" / f"{workload.name}.json").read_text())
        self.root = OUT_DIR / f"{workload.name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self._n = 0
        self._hard_stop = time.perf_counter() + HARD_STOP_S

    def in_time(self) -> bool:
        return time.perf_counter() < self._hard_stop

    def _timeout(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, self._hard_stop - time.perf_counter()))

    def _fail(self, what: str, issues: list[str], log: Path) -> None:
        self.failed += 1
        print(f"FAILED {what}: {'; '.join(issues)}", file=sys.stderr)
        print(log.read_text(errors="replace")[-2000:], file=sys.stderr)

    def cli(self, traced: bool) -> tuple[ChildResult, dict | None, int]:
        """One CLI run; returns its result, its trace (if traced) and output bytes."""
        self._n += 1
        run_dir = self.root / f"run{self._n}"
        run_dir.mkdir(parents=True)
        out, spans = run_dir / "out", run_dir / "spans.json"
        args = self.wl.argv(self.case, out)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "hklab.cli", *args]
        self.attempted += 1
        res = spawn(argv, run_dir / "log.txt", self._timeout())
        issues = outcheck.problems(self.reference, self.case, res.exit_code, out, self.wl.kind)
        trace = None
        if traced and not issues:
            try:
                trace = json.loads(spans.read_text())
            except (OSError, ValueError) as exc:
                issues.append(f"unreadable trace: {exc!r}")
        if issues:
            self._fail(f"{'traced ' if traced else ''}run {self._n}", issues, run_dir / "log.txt")
        nbytes = dir_bytes(out) if out.exists() else 0
        shutil.rmtree(run_dir)
        return res, trace, nbytes

    def setup(self) -> ChildResult:
        self._n += 1
        log = self.root / f"setup{self._n}.txt"
        log.parent.mkdir(parents=True, exist_ok=True)
        self.attempted += 1
        argv = self.wl.argv(self.case, self.root / f"setup{self._n}_out")
        res = spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"), *argv],
                    log, self._timeout())
        want = str(self.reference["atoms"])
        got = log.read_text(errors="replace").strip()
        if res.exit_code != 0 or got != want:
            self._fail(f"setup {self._n}", [f"exit {res.exit_code}, printed {got[-200:]!r}, "
                                            f"expected {want}"], log)
        log.unlink()
        return res

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass  # not empty: another run is using it


def _fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def _room_for(durations: list[float], deadline: float) -> bool:
    """Whether one more step of the typical length ends before the deadline."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def measure_end_to_end(s: Session, seconds: float) -> tuple[dict, list[str]]:
    s.cli(traced=False)  # untimed warm-up: file cache, bytecode
    deadline = time.perf_counter() + seconds
    # one set-up probe after each run, so both samples span the whole window
    runs, setups = [], []
    while (len(runs) < MIN_RUNS
           or _room_for([r.wall_s + p.wall_s for r, p in zip(runs, setups)], deadline)) \
            and s.in_time():
        runs.append(s.cli(traced=False)[0])
        setups.append(s.setup())
    if not (runs and setups):
        return {}, ["out of time"]
    run_s = [r.wall_s for r in runs]
    rss = [r.peak_rss_mb for r in runs]
    setup_s = [r.wall_s for r in setups]
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = [f"run_s: median of {len(run_s)} runs: {_fmt(run_s)}",
             f"setup_s: median of {len(setup_s)} set-ups: {_fmt(setup_s)}",
             f"peak_rss_mb: median of {len(rss)} runs: {_fmt(rss)}"]
    return metrics, notes


def measure_layers(s: Session, seconds: float) -> tuple[dict, list[str]]:
    s.cli(traced=False)  # untimed warm-up
    deadline = time.perf_counter() + seconds
    plain, traced, layers, nbytes = [], [], [], set()
    while (len(traced) < MIN_TRACED_PAIRS
           or _room_for([a + b for a, b in zip(plain, traced)], deadline)) and s.in_time():
        plain.append(s.cli(traced=False)[0].wall_s)
        res, trace, size = s.cli(traced=True)
        traced.append(res.wall_s)
        if trace is not None:
            layers.append(trace_layers.layer_metrics(trace))
            nbytes.add(size)
    notes = [f"{len(traced)} traced runs, {len(plain)} untraced runs"]
    metrics: dict[str, tuple[float | int, str]] = {}
    if not layers:
        return metrics, notes
    counts = trace_layers.count_metric_names()
    for name in counts:
        if len({m[name] for m in layers}) != 1:
            s.mismatches.append(f"count {name} differs between traced runs: "
                                f"{sorted({m[name] for m in layers})}")
        metrics[name] = (layers[0][name], "count")
    if len(nbytes) != 1:
        s.mismatches.append(f"report.bytes differs between traced runs: {sorted(nbytes)}")
    metrics["report.bytes"] = (min(nbytes), "bytes")
    for name in trace_layers.TIME_METRICS:
        metrics[name] = (statistics.median(m[name] for m in layers), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return dict(sorted(metrics.items())), notes


def blas_version() -> str:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit() -> str:
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=env)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_version(),
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    s = Session(WORKLOADS[name], seed)
    try:
        measure = measure_layers if trace else measure_end_to_end
        metrics, notes = measure(s, seconds)
    finally:
        s.close()
    print(f"== workload {name}  seed {seed}  (workload seed {s.case})  trace {int(trace)}")
    for note in notes + s.mismatches:
        print(f"   {note}")
    for metric, (value, unit) in metrics.items():
        print(f"   {metric:34s} {value!r} {unit}")
    print(f"   {'error_rate':34s} {s.failed}/{s.attempted} = "
          f"{s.failed / max(s.attempted, 1):.4f} (failed / attempted child processes)")
    correct = s.failed == 0 and not s.mismatches and bool(metrics)
    return {"correct": correct, "attempted": s.attempted,
            "failed": s.failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated bench unwinds through spawn(), which kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (Path("src/hklab/cli.py").is_file() and Path("src/hklab/__init__.py").is_file()):
        print("perfbench: run from the repository root; src/hklab is missing", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{m}": v for n, r in results.items()
                              for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
