"""In-memory spans around the public functions of the ``isingbell`` modules.

The tracer rebinds each target function in every ``isingbell`` module
namespace that holds it, so calls between modules and within one module are
both timed; the package source is not touched.  Spans record name, start,
end, parent and run id (the id of the top-level ``cli.main`` span) and stay
in memory until the traced pass ends.  Self time is a span's duration minus
that of its direct children; the benchmark process is single-threaded, so
children never overlap.  Calls made inside worker processes are not traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: (span name, defining module, attribute); ``Class.method`` patches the class
TARGETS = (
    ("cli.main", "isingbell.cli", "main"),
    ("propagator.propagate", "isingbell.propagator", "propagate"),
    ("propagator.rk4_evolve", "isingbell.propagator", "rk4_evolve"),
    ("propagator.sample", "isingbell.propagator", "ControlWaveform.sample"),
    ("propagator.hc_batch", "isingbell.propagator", "hc_batch"),
    ("propagator.segment_propagators", "isingbell.propagator", "segment_propagators"),
    ("propagator.write_trajectory_csv", "isingbell.propagator", "write_trajectory_csv"),
    ("shortcut.tqd_fidelity_curve", "isingbell.shortcut", "tqd_fidelity_curve"),
    ("shortcut.write_waveform_csv", "isingbell.shortcut", "write_waveform_csv"),
    ("shortcut.write_fidelity_curve_csv", "isingbell.shortcut", "write_fidelity_curve_csv"),
    ("optimize.adjoint_gradient", "isingbell.optimize", "adjoint_gradient"),
    ("optimize.lbfgs", "isingbell.optimize", "fmin_l_bfgs_b"),
    ("optimize.optimize_piecewise", "isingbell.optimize", "optimize_piecewise"),
    ("optimize.optimize_trig", "isingbell.optimize", "optimize_trig"),
    ("optimize.sweep_detuning", "isingbell.optimize", "sweep_detuning"),
    ("optimize.sweep_duration", "isingbell.optimize", "sweep_duration"),
    ("optimize.write_report_json", "isingbell.optimize", "write_report_json"),
    ("optimize.write_sweep_csv", "isingbell.optimize", "write_sweep_csv"),
    ("optimize.write_series_json", "isingbell.optimize", "write_series_json"),
)
TASKS = ("optimize.optimize_piecewise", "optimize.optimize_trig")
#: a start is useful when it ends within this of its problem's best start
USEFUL_START_TOL = 1e-4

#: per-layer metrics of the traced run, in BENCHMARK.json order
LAYER_METRICS = (
    ("propagator.propagate.calls", "count"),
    ("propagator.propagate.s", "s"),
    ("propagator.propagate.p50_ms", "ms"),
    ("propagator.propagate.p95_ms", "ms"),
    ("propagator.rk4_evolve.s", "s"),
    ("propagator.rk4.steps", "count"),
    ("propagator.rk4.steps_per_s", "1/s"),
    ("propagator.sample.s", "s"),
    ("propagator.hc_batch.s", "s"),
    ("propagator.segment_propagators.calls", "count"),
    ("propagator.segment_propagators.s", "s"),
    ("propagator.segment_propagators.segments", "count"),
    ("propagator.write_trajectory_csv.s", "s"),
    ("propagator.write_trajectory_csv.rows", "count"),
    ("shortcut.tqd_fidelity_curve.s", "s"),
    ("shortcut.write_waveform_csv.s", "s"),
    ("shortcut.write_fidelity_curve_csv.s", "s"),
    ("optimize.adjoint_gradient.calls", "count"),
    ("optimize.adjoint_gradient.s", "s"),
    ("optimize.adjoint_gradient.self_s", "s"),
    ("optimize.adjoint_gradient.p50_ms", "ms"),
    ("optimize.adjoint_gradient.segments_per_s", "1/s"),
    ("optimize.lbfgs.calls", "count"),
    ("optimize.lbfgs.self_s", "s"),
    ("optimize.lbfgs.nit", "count"),
    ("optimize.lbfgs.nfev", "count"),
    ("optimize.task.p50_s", "s"),
    ("optimize.task.max_s", "s"),
    ("optimize.starts", "count"),
    ("optimize.useful_start_frac", "frac"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.artifacts.s", "s"),
    ("cli.artifacts.bytes", "bytes"),
    ("run.cpu_s", "s"),
    ("run.cpu_util", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _lbfgs_info(args, kwargs, result):
    # x0 and x are kept (not written out) to chain penalty rounds into starts
    _, f, info = result
    return {"nit": info["nit"], "nfev": info["funcalls"], "f": float(f),
            "x0": _arg(args, kwargs, 1, "x0"), "x": result[0]}


#: work counts recorded per span, taken from arguments and results
INFO = {
    "propagator.rk4_evolve": lambda a, k, r: {"steps": len(_arg(a, k, 0, "h_mid"))},
    "propagator.segment_propagators": lambda a, k, r: {"segments": len(_arg(a, k, 0, "delta"))},
    "propagator.write_trajectory_csv": lambda a, k, r: {"rows": int(_arg(a, k, 0, "traj").times.size)},
    "optimize.adjoint_gradient": lambda a, k, r: {"segments": int(_arg(a, k, 0, "problem").segments)},
    "optimize.lbfgs": _lbfgs_info,
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Rebinds the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent.id if parent else None,
                        parent.run if parent else len(self.spans))
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "isingbell" or n.startswith("isingbell.")]
        for name, module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            holders = [owner] if path else [m for m in modules if getattr(m, leaf, None) is fn]
            for holder in holders:
                self._undo.append((holder, leaf, holder.__dict__[leaf]))
                setattr(holder, leaf, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, leaf, original = self._undo.pop()
            setattr(holder, leaf, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                info = {k: v for k, v in s.info.items() if k not in ("x0", "x")}
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent, "run": s.run,
                                     "start": s.start, "end": s.end, **info}) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one span: a traced no-op call minus a plain one."""

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        traced()
    return max(0.0, (time.perf_counter() - start - plain) / n)


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def _starts(spans: list[Span], by_id: dict[int, Span]) -> list[tuple[int | None, float]]:
    """(task id, final value) per optimizer start.  A start is a chain of
    L-BFGS-B calls each resuming from the previous call's result (the
    penalty rounds of a series start); its value is minus the last call's
    objective."""
    starts: list[tuple[int | None, float]] = []
    prev: Span | None = None
    for s in spans:
        if s.name != "optimize.lbfgs" or not s.info:
            continue
        task = s.parent
        while task is not None and by_id[task].name not in TASKS:
            task = by_id[task].parent
        if prev is not None and s.info["x0"] is prev.info["x"]:
            starts[-1] = (task, -s.info["f"])
        else:
            starts.append((task, -s.info["f"]))
        prev = s
    return starts


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer values from the spans of one traced pass.  Functions never
    called (or absent) report zero time and zero counts."""
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.dur

    def total(name):
        return sum(s.dur for s in by_name[name])

    def self_time(name):
        return sum(s.dur - child_time[s.id] for s in by_name[name])

    def durs(name):
        return [s.dur for s in by_name[name]]

    def count(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name])

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    prop, grad = durs("propagator.propagate"), durs("optimize.adjoint_gradient")
    tasks = [d for name in TASKS for d in durs(name)]
    starts = _starts(spans, by_id)
    best: dict[int | None, float] = {}
    for task, value in starts:
        best[task] = max(value, best.get(task, -math.inf))
    useful = sum(value >= best[task] - USEFUL_START_TOL for task, value in starts)
    writers = [name for name, _, attr in TARGETS if attr.startswith("write_")]
    return {
        "propagator.propagate.calls": len(prop),
        "propagator.propagate.s": sum(prop),
        "propagator.propagate.p50_ms": 1e3 * statistics.median(prop) if prop else 0.0,
        "propagator.propagate.p95_ms": 1e3 * _p95(prop) if prop else 0.0,
        "propagator.rk4_evolve.s": total("propagator.rk4_evolve"),
        "propagator.rk4.steps": count("propagator.rk4_evolve", "steps"),
        "propagator.rk4.steps_per_s": ratio(count("propagator.rk4_evolve", "steps"), total("propagator.rk4_evolve")),
        "propagator.sample.s": total("propagator.sample"),
        "propagator.hc_batch.s": total("propagator.hc_batch"),
        "propagator.segment_propagators.calls": len(by_name["propagator.segment_propagators"]),
        "propagator.segment_propagators.s": total("propagator.segment_propagators"),
        "propagator.segment_propagators.segments": count("propagator.segment_propagators", "segments"),
        "propagator.write_trajectory_csv.s": total("propagator.write_trajectory_csv"),
        "propagator.write_trajectory_csv.rows": count("propagator.write_trajectory_csv", "rows"),
        "shortcut.tqd_fidelity_curve.s": total("shortcut.tqd_fidelity_curve"),
        "shortcut.write_waveform_csv.s": total("shortcut.write_waveform_csv"),
        "shortcut.write_fidelity_curve_csv.s": total("shortcut.write_fidelity_curve_csv"),
        "optimize.adjoint_gradient.calls": len(grad),
        "optimize.adjoint_gradient.s": sum(grad),
        "optimize.adjoint_gradient.self_s": self_time("optimize.adjoint_gradient"),
        "optimize.adjoint_gradient.p50_ms": 1e3 * statistics.median(grad) if grad else 0.0,
        "optimize.adjoint_gradient.segments_per_s": ratio(count("optimize.adjoint_gradient", "segments"), sum(grad)),
        "optimize.lbfgs.calls": len(by_name["optimize.lbfgs"]),
        "optimize.lbfgs.self_s": self_time("optimize.lbfgs"),
        "optimize.lbfgs.nit": count("optimize.lbfgs", "nit"),
        "optimize.lbfgs.nfev": count("optimize.lbfgs", "nfev"),
        "optimize.task.p50_s": statistics.median(tasks) if tasks else 0.0,
        "optimize.task.max_s": max(tasks, default=0.0),
        "optimize.starts": len(starts),
        "optimize.useful_start_frac": ratio(useful, len(starts)),
        "cli.main.calls": len(by_name["cli.main"]),
        "cli.main.s": total("cli.main"),
        "cli.main.self_s": self_time("cli.main"),
        "cli.artifacts.s": sum(total(name) for name in writers),
        "trace.coverage": ratio(sum(s.dur for s in spans if s.parent is None), wall_s),
    }
