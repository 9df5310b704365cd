"""Benchmark workloads: seeded ``isingbell`` CLI invocations and their checks.

A workload is a list of CLI calls generated from the benchmark seed; the
program sees only the generated argv.  Every call declares how many
operations it performs (one propagation, one sweep cell or one
optimization) and a check that reads the artifacts back and returns how
many of those operations failed.  Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

KINDS = ("symmetric", "nonsymmetric")
FIG1B_POINTS = 100  # the fixed T grid of `isingbell repro fig1b`


@dataclass(frozen=True)
class Refs:
    """Reference values the checks compare against (the paper's numbers)."""

    ceiling: float = 0.3166  # shortcut fidelity as T -> 0
    ceiling_tol: float = 0.02
    anchors: dict = field(default_factory=lambda: {"symmetric": 0.9993, "nonsymmetric": 0.9991})
    anchor_tol: float = 5e-4  # shortcut at T = 10, e = 0.1
    table1_min: float = 0.99  # xi-units convention of the reference series
    cell_min: dict = field(default_factory=lambda: {0.0: 0.9908, -0.11: 0.999})  # bang-bang, T = 2.5
    series_min: float = 0.999
    series_eval_tol: float = 1e-6
    #: slack for float rounding only; equals the program's own feasibility
    #: tolerance at grid nodes (optimize.TRIG_FEASIBILITY_TOL)
    bound_tol: float = 1e-9


@dataclass(frozen=True)
class Call:
    """One CLI invocation.  Its artifacts go to ``<pass dir>/<name>``;
    ``check`` returns how many of its ``ops`` operations failed."""

    name: str
    argv: tuple[str, ...]
    ops: int
    check: Callable[[Path, Refs], int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    calls: Callable[[int, bool], list[Call]]  # (seed, small) -> calls
    warmup: tuple[tuple[str, ...], ...]


def failed_ops(call: Call, code: int | None, out: Path, refs: Refs) -> int:
    """Failed operations of one call: all of them on an exception or a
    nonzero exit, otherwise what its check finds.  A check that cannot read
    the artifacts fails every operation of the call."""
    if code != 0:
        return call.ops
    try:
        return min(call.ops, call.check(out, refs))
    except Exception:  # malformed or missing artifacts: the run goes on
        return call.ops


def _rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _is_fidelity(f: float, refs: Refs) -> bool:
    return math.isfinite(f) and 0.0 <= f <= 1.0 + refs.bound_tol


# ---------------------------------------------------------------------------
# shortcut-cli


def _check_fig1b(out: Path, refs: Refs) -> int:
    rows = _rows(out / "fig1b.csv")
    if len(rows) != FIG1B_POINTS:
        return 2 * FIG1B_POINTS
    failed = 0
    for i, row in enumerate(rows):
        for kind in KINDS:
            f = float(row[f"fidelity_{kind}"])
            ok = _is_fidelity(f, refs)
            if i == 0:
                ok = ok and abs(float(row["T"]) - 0.01) < 1e-12 and abs(f - refs.ceiling) <= refs.ceiling_tol
            failed += not ok
    return failed


def _check_table1(out: Path, refs: Refs) -> int:
    fid = _json(out / "table1.json")["fidelity"]
    xi, period = float(fid["xi-units"]), float(fid["per-duration"])
    return (not (_is_fidelity(xi, refs) and xi >= refs.table1_min)) + (not _is_fidelity(period, refs))


def _tqd_check(target: float | None) -> Callable[[Path, Refs], int]:
    """The summary fidelity must be pop2 of the trajectory's last row (equal
    up to the CSV's 15 significant digits); an anchor must also hit its
    published value."""

    def check(out: Path, refs: Refs) -> int:
        fid = float(_json(out / "tqd_summary.json")["fidelity"])
        pop2 = float(_rows(out / "tqd_trajectory.csv")[-1]["pop2"])
        ok = _is_fidelity(fid, refs) and abs(fid - pop2) <= 1e-14
        if target is not None:
            ok = ok and abs(fid - refs.anchors[target]) <= refs.anchor_tol
        return int(not ok)

    return check


def shortcut_calls(seed: int, small: bool) -> list[Call]:
    rng = random.Random(seed)
    calls = [
        Call("fig1b", ("repro", "fig1b"), 2 * FIG1B_POINTS, _check_fig1b),
        Call("table1", ("repro", "table1"), 2, _check_table1),
    ]
    for kind in KINDS:
        argv = ("tqd", "--kind", kind, "--e", "0.1", "--T", "10")
        calls.append(Call(f"tqd-{kind}-T10", argv, 1, _tqd_check(kind)))
    for i in range(1 if small else 4):
        kind = rng.choice(KINDS)
        e, t = rng.uniform(0.05, 0.2), rng.uniform(0.5, 15.0)
        argv = ("tqd", "--kind", kind, "--e", f"{e:.4f}", "--T", f"{t:.4f}")
        calls.append(Call(f"tqd-{i}", argv, 1, _tqd_check(None)))
    return calls


# ---------------------------------------------------------------------------
# bangbang-sweep


def _sweep_check(deltas: list[float]) -> Callable[[Path, Refs], int]:
    def check(out: Path, refs: Refs) -> int:
        rows = _rows(out / "sweep_detuning.csv")
        if len(rows) != len(deltas):
            return len(deltas)
        failed = 0
        for delta, row in zip(deltas, rows):
            f = float(row["fidelity"])
            ok = abs(float(row["delta"]) - delta) <= 1e-12 and _is_fidelity(f, refs)
            if delta in refs.cell_min:
                ok = ok and f >= refs.cell_min[delta]
            failed += not ok
        return failed

    return check


SWEEP_STRATA = 12  # seeded detunings, one per equal slice of [-0.3, 0.3]
SWEEP_SEGMENTS = 250


def bangbang_calls(seed: int, small: bool) -> list[Call]:
    # A cell's gradient count grows with |delta| (about 280 at 0, 900 near
    # -0.3 at 250 segments), so one seeded detuning per narrow slice of
    # [-0.3, 0.3] covers the range on every seed while the sweep's total work
    # varies by a few percent between seeds.
    rng = random.Random(seed)
    strata = 4 if small else SWEEP_STRATA
    width = 0.6 / strata
    deltas = ["0", "-0.11"] + [f"{-0.3 + width * (i + rng.random()):.4f}" for i in range(strata)]
    argv = (
        "sweep-detuning", "--T", "2.5", "--deltas=" + ",".join(deltas),
        "--restarts", "1", "--segments", "50" if small else str(SWEEP_SEGMENTS), "--seed", str(seed),
    )
    return [Call("sweep", argv, len(deltas), _sweep_check([float(d) for d in deltas]))]


# ---------------------------------------------------------------------------
# series-joint


def _series_values(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """a0 + sum_k a_{2k-1} cos(k t) + a_{2k} sin(k t), t in 1/xi units."""
    k = np.arange(1, (coeffs.size - 1) // 2 + 1)
    arg = t[:, None] * k[None, :]
    return coeffs[0] + np.cos(arg) @ coeffs[1::2] + np.sin(arg) @ coeffs[2::2]


def _check_series(out: Path, refs: Refs) -> int:
    from isingbell.optimize import TrigSeries, evaluate_series

    report = _json(out / "optimize_report.json")
    wf = report["waveform"]
    fid, t_tot = float(report["fidelity"]), float(wf["T"])
    a = np.asarray(wf["coefficients"]["a"], dtype=float)
    b = np.asarray(wf["coefficients"]["b"], dtype=float)
    replay = evaluate_series(TrigSeries(p=int(wf["p"]), a=a, b=b), t_tot, convention=wf["convention"])
    # the bounds must hold in continuous time, endpoints included
    t = np.linspace(0.0, t_tot, 20001)
    peak = max(np.max(np.abs(_series_values(a, t))), np.max(np.abs(_series_values(b, t))))
    ok = (
        _is_fidelity(fid, refs)
        and fid >= refs.series_min
        and abs(fid - replay) <= refs.series_eval_tol
        and peak <= 1.0 + refs.bound_tol
    )
    return int(not ok)


def series_calls(seed: int, small: bool) -> list[Call]:
    argv = ("optimize", "--mode", "trig", "--joint", "--p", "3", "--T", "2.5", "--restarts", "1", "--seed", str(seed))
    if small:
        argv += ("--segments", "50")
    return [Call("optimize", argv, 1, _check_series)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shortcut-cli",
            why="Regenerates the shortcut datasets (fig1b curve, table1, tqd trajectories): "
            "RK4 propagation and the artifact writers dominate while the optimizer is idle.",
            stresses="propagator (RK4 loop, control sampling), shortcut, artifact writers",
            bypasses="optimize (adjoint gradient, L-BFGS-B)",
            calls=shortcut_calls,
            warmup=(("tqd", "--T", "0.5"), ("repro", "table1")),
        ),
        Workload(
            name="bangbang-sweep",
            why="A detuning sweep of 14 independent 250-segment bang-bang cells: the fixed-delta "
            "adjoint gradient and L-BFGS-B over 250 variables dominate; cells could run in parallel.",
            stresses="optimize (adjoint gradient, L-BFGS-B on 250 variables), propagator.segment_propagators",
            bypasses="propagator RK4, shortcut",
            calls=bangbang_calls,
            warmup=(("sweep-detuning", "--T", "2.5", "--deltas=0", "--restarts", "0", "--segments", "50"),),
        ),
        Workload(
            name="series-joint",
            why="Joint (omega, delta) series optimization: the joint gradient on 14 variables "
            "dominates; L-BFGS-B is cheap and there is almost nothing independent to parallelize.",
            stresses="optimize (joint adjoint gradient), propagator.segment_propagators",
            bypasses="propagator RK4 (except the replay check), shortcut, process-level parallelism",
            calls=series_calls,
            warmup=(("optimize", "--mode", "trig", "--joint", "--p", "1", "--T", "2.5",
                     "--restarts", "0", "--segments", "50"),),
        ),
    )
}
