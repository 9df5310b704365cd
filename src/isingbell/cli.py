"""Command-line entry point: reproducible experiments as CSV/JSON artifacts.

Subcommands map one-to-one onto the library surface (tqd, simulate,
optimize, sweep-detuning, sweep-duration, evaluate-series, limit) plus
``repro`` which regenerates a named benchmark dataset end to end.

Each command's parameters are declared once, as ``{parameter: default}``
in ``COMMANDS`` (and each ``repro`` dataset's in ``REPRO_DATASETS``).
Every parameter is both a flag and a config key of its default's type: a
float, an int, a list of numbers (a comma-separated flag), a bool (a
``--x/--no-x`` switch), a tuple of choices whose first entry is the default
(``--help`` lists them), or None for an optional path.  Configuration
precedence is flags > JSON config file > defaults; the fully resolved
configuration, experiment id and output directory included, is echoed to
stdout and embedded in every artifact, so passing it back with ``--config``
replays the run exactly.  A flag the run does not read (one of another
``repro`` dataset, or one ``optimize`` ignores in its mode) is a usage
error.  Each command builds its inputs once through the library, which
checks their ranges, then calls ``begin``, which makes the output
directory and prints the echo before any work, and runs what it built; so
invalid inputs leave stdout empty and make no directory.  No command takes
a step count: ``propagator.step_count`` picks it, and ``tqd``,
``simulate``, ``evaluate-series`` and ``repro fig1b`` (all 200 waveforms,
one probe each) ask for it before ``begin``, so a waveform past the step
ceiling is refused before the echo too (``repro table1``'s fixed series
cannot reach it).
The ``tqd`` and ``simulate`` summaries record the count with the route,
the drift and the error estimate.  Exit codes: 0 ok, 2 invalid
usage/parameters (a waveform whose step count exceeds the ceiling
included), 3 numeric failure (norm drift, a step-halving estimate above
tolerance, controls that jump, no convergence, infeasible series), 141
when the reader of stdout closed it
(128 + SIGPIPE).  A fixed-detuning series optimum carries its detuning as
the constant term b[0] of its delta series, so its report replays alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .artifacts import write_csv, write_json
from .model import TripletAmplitudes
from .propagator import (
    PROBE_SAMPLES,
    ControlWaveform,
    NonUnitaryDrift,
    fidelity,
    propagate,
    step_count,
    write_trajectory_csv,
)
from .shortcut import (
    KINDS,
    NONSYMMETRIC,
    SYMMETRIC,
    ShortcutSpec,
    short_time_fidelity_limit,
    shortcut_waveform,
    tqd_curve,
    tqd_fidelity_curve,
    write_fidelity_curve_csv,
    write_waveform_csv,
)
from .optimize import (
    BENCHMARK_SERIES_T25_A,
    BENCHMARK_SERIES_T25_B,
    CONVENTION_PERIOD,
    CONVENTION_XI,
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    DEFAULT_SEGMENTS,
    ControlProblem,
    InfeasibleResult,
    NoConvergence,
    TrigSeries,
    check_harmonics,
    check_starts,
    detuning_problems,
    duration_problems,
    evaluate_series,
    optimize_piecewise,
    optimize_trig,
    read_series_json,
    saturation_fraction,
    series_waveform,
    sweep,
    trig_harmonic_scan,
    write_report_json,
    write_series_json,
    write_sweep_csv,
)

DEFAULT_OUT = "isingbell_out"
#: the detuning grid of ``sweep-detuning`` and ``repro fig3a``
_DELTA_GRID = [round(x, 10) for x in np.linspace(-0.5, 0.5, 21)]
#: the duration grid of ``sweep-duration`` and ``repro fig3b``
_DURATION_GRID = [round(x, 10) for x in np.arange(1.0, 3.7, 0.2)]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_config_value(key: str, value, default) -> None:
    """A config-file value must be JSON of its key's type: a number for a
    float, an integer for an int, a list of numbers for a list, one of the
    choices for a tuple; null only where the default is None (``series``,
    otherwise a path string)."""
    if isinstance(default, tuple):
        ok, want = value in default, "one of " + ", ".join(default)
    else:
        want = str if default is None else type(default)
        if value is None and default is None:
            ok = True
        elif want is float:
            ok = _is_number(value)
        elif want is list:
            ok = isinstance(value, list) and all(_is_number(v) for v in value)
        else:
            ok = type(value) is want
        want = f"of type {want.__name__}"
    if not ok:
        raise ValueError(f"config key {key!r} must be {want}, got {json.dumps(value)}")


def _read_config(path: str, name: str, defaults: dict) -> dict:
    """A config file's entries: parameters of this command, plus the
    ``experiment`` (which must be ``name``) and ``out`` that the echoed
    config holds, each of its key's type."""
    with open(path) as fh:
        file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ValueError(f"config file must hold a JSON object, got {json.dumps(file_cfg)}")
    known = {"experiment": name, "out": DEFAULT_OUT, **defaults}
    unknown = sorted(set(file_cfg) - set(known))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; expected a subset of {sorted(known)}")
    for key, value in file_cfg.items():
        _check_config_value(key, value, known[key])
    if file_cfg.get("experiment", name) != name:
        raise ValueError(f"config file is for experiment {file_cfg['experiment']!r}, not {name!r}")
    return file_cfg


def _resolve(args: argparse.Namespace, name: str, defaults: dict) -> dict:
    """The configuration of a run: experiment id, output directory and every
    parameter (flags > config file > defaults), each of its default's type."""
    config = {"experiment": name, "out": DEFAULT_OUT}
    config.update((key, d[0] if isinstance(d, tuple) else d) for key, d in defaults.items())
    if args.config:
        config.update(_read_config(args.config, name, defaults))
    for key in ("out", *defaults):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    for key, default in defaults.items():  # a JSON integer where a float is due becomes a float
        if isinstance(default, float):
            config[key] = float(config[key])
        elif isinstance(default, list):
            config[key] = [float(v) for v in config[key]]
    return config


def _reject_flags(args: argparse.Namespace, ignored, label: str) -> None:
    """A flag given on the command line that the run does not read is a
    usage error."""
    for key in ignored:
        if getattr(args, key) is not None:
            raise ValueError(f"{label} takes no --{key}")


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write_summary(path: Path, cfg: dict, traj) -> None:
    """Write a propagation's summary (config, fidelity, and how ``propagate``
    made it: route, automatic step count, measured norm drift, step-halving
    error estimate) and print the fidelity."""
    fid = fidelity(traj)
    summary = {
        "config": cfg,
        "fidelity": fid,
        "method": traj.method,
        "steps": traj.steps,
        "max_drift": traj.max_drift,
        "error_estimate": traj.error_estimate,
    }
    write_json(path, summary)
    print(f"fidelity: {fid:.12g}")


def _best_cell(cells):
    """Best successful sweep cell; a sweep where every cell failed is a
    numerical failure, not a usage error."""
    done = [c for c in cells if c.error is None]
    if not done:
        raise NoConvergence(f"all {len(cells)} sweep cells failed; first: {cells[0].error}")
    return max(done, key=lambda c: c.fidelity)


# ---------------------------------------------------------------------------
# subcommand implementations: each builds and checks its inputs, calls
# ``begin`` (output directory and config echo), then runs


def cmd_tqd(cfg: dict, out: Path, begin) -> None:
    """propagate the shortcut drive and record the trajectory"""
    wf = shortcut_waveform(ShortcutSpec(kind=cfg["kind"], e=cfg["e"], T=cfg["T"]))
    steps = step_count(wf, "piecewise-exponential")
    begin()
    traj = propagate(wf, TripletAmplitudes.spin_down(), method="piecewise-exponential", steps=steps)
    write_waveform_csv(wf, out / "tqd_waveform.csv", config=cfg)
    write_trajectory_csv(traj, out / "tqd_trajectory.csv", config=cfg)
    _write_summary(out / "tqd_summary.json", cfg, traj)


def cmd_simulate(cfg: dict, out: Path, begin) -> None:
    """propagate constant controls"""
    wf = ControlWaveform.piecewise_constant(cfg["T"], [cfg["omega"]], delta=cfg["delta"])
    steps = step_count(wf, cfg["method"])
    begin()
    traj = propagate(wf, TripletAmplitudes.spin_down(), method=cfg["method"], steps=steps)
    write_trajectory_csv(traj, out / "simulate_trajectory.csv", config=cfg)
    _write_summary(out / "simulate_summary.json", cfg, traj)


def _optimize_ignores(cfg: dict) -> tuple[str, tuple[str, ...]]:
    """The mode of a resolved ``optimize`` configuration and the parameters
    it does not read."""
    if cfg["mode"] == "piecewise":
        return "--mode piecewise", ("p", "joint")
    return ("--mode trig --joint", ("delta",)) if cfg["joint"] else ("--mode trig", ())


def cmd_optimize(cfg: dict, out: Path, begin) -> None:
    """optimize bounded controls for the Bell transfer"""
    if cfg["mode"] == "piecewise":
        problem = ControlProblem(T=cfg["T"], delta_value=cfg["delta"], segments=cfg["segments"])
        begin()
        report = optimize_piecewise(problem, restarts=cfg["restarts"], seed=cfg["seed"])
        print(f"fidelity: {report.fidelity:.12g}  saturation: {saturation_fraction(report.waveform):.4f}")
    else:
        # joint mode shapes the detuning, so a configured constant one is not used
        mode, delta = ("trig-series", 0.0) if cfg["joint"] else ("fixed", cfg["delta"])
        problem = ControlProblem(T=cfg["T"], delta_mode=mode, delta_value=delta, segments=cfg["segments"])
        # the search grid's basis and the replay's CF4 probe, the larger
        check_harmonics(cfg["p"], max(cfg["segments"], PROBE_SAMPLES["piecewise-exponential"]))
        begin()
        report = optimize_trig(problem, p=cfg["p"], restarts=cfg["restarts"], seed=cfg["seed"])
        print(f"fidelity: {report.fidelity:.12g}")
    write_report_json(report, out / "optimize_report.json", config=cfg)
    write_waveform_csv(report.waveform, out / "optimize_waveform.csv", config=cfg)


def cmd_sweep_detuning(cfg: dict, out: Path, begin) -> None:
    """best fidelity over a constant-detuning grid"""
    problems = detuning_problems(cfg["T"], cfg["deltas"], cfg["segments"])
    begin()
    cells = sweep(problems, restarts=cfg["restarts"], seed=cfg["seed"])
    write_sweep_csv(cells, out / "sweep_detuning.csv", config=cfg)
    best = _best_cell(cells)
    print(f"best: T={best.T:g} delta={best.delta:g} fidelity={best.fidelity:.12g}")


def cmd_sweep_duration(cfg: dict, out: Path, begin) -> None:
    """best fidelity against duration at fixed detuning"""
    problems = duration_problems(cfg["delta"], cfg["T"], cfg["segments"])
    begin()
    cells = sweep(problems, restarts=cfg["restarts"], seed=cfg["seed"])
    write_sweep_csv(cells, out / "sweep_duration.csv", config=cfg)
    for c in cells:
        print(f"T={c.T:g} fidelity={c.fidelity:.12g}" + (f"  [{c.error}]" if c.error else ""))


def cmd_evaluate_series(cfg: dict, out: Path, begin) -> None:
    """propagate a trigonometric series from a JSON file"""
    if cfg["series"] is None:
        series = TrigSeries(p=3, a=np.array(BENCHMARK_SERIES_T25_A), b=np.array(BENCHMARK_SERIES_T25_B))
    else:
        series = read_series_json(cfg["series"])
    wf = series_waveform(series, cfg["T"], convention=cfg["convention"])
    steps = step_count(wf, "piecewise-exponential")
    begin()
    fid = fidelity(propagate(wf, TripletAmplitudes.spin_down(), method="piecewise-exponential", steps=steps))
    write_json(out / "series_eval.json", {"config": cfg, "series": series.to_dict(), "fidelity": fid})
    print(f"fidelity: {fid:.12g}")


# ---------------------------------------------------------------------------
# benchmark reproductions


def _repro_fig1b(cfg: dict, out: Path, begin) -> None:
    t_grid = np.geomspace(0.01, 15.0, 100)
    curves = {kind: tqd_curve(kind, cfg["e"], t_grid) for kind in (SYMMETRIC, NONSYMMETRIC)}
    begin()
    sym = tqd_fidelity_curve(curves[SYMMETRIC])
    non = tqd_fidelity_curve(curves[NONSYMMETRIC])
    write_fidelity_curve_csv(out / "fig1b.csv", t_grid, [f for _, f in sym], [f for _, f in non], config=cfg)
    print(f"fidelity at T={t_grid[0]:g}: {sym[0][1]:.6f} (sym) {non[0][1]:.6f} (non); limit {short_time_fidelity_limit():.6f}")
    print(f"fidelity at T={t_grid[-1]:g}: {sym[-1][1]:.6f} (sym) {non[-1][1]:.6f} (non)")


def _repro_fig2(cfg: dict, out: Path, begin) -> None:
    problems = [ControlProblem(T=t_tot, segments=cfg["segments"]) for t_tot in (2.0, 2.5, 3.0, 3.6)]
    begin()
    rows = []
    for problem in problems:
        rep = optimize_piecewise(problem, restarts=cfg["restarts"], seed=cfg["seed"])
        write_report_json(rep, out / f"fig2_T{problem.T:g}.json", config=cfg)
        rows.append((problem.T, rep.fidelity, saturation_fraction(rep.waveform)))
        print(f"T={problem.T:g}: fidelity={rep.fidelity:.12g} saturation={rows[-1][2]:.4f}")
    write_csv(out / "fig2.csv", ("T", "fidelity", "saturation"), np.transpose(rows), cfg)


def _repro_fig3a(cfg: dict, out: Path, begin) -> None:
    problems = detuning_problems([2.5], _DELTA_GRID, cfg["segments"])
    begin()
    cells = sweep(problems, restarts=cfg["restarts"], seed=cfg["seed"])
    write_sweep_csv(cells, out / "fig3a.csv", config=cfg)
    best = _best_cell(cells)
    print(f"best delta={best.delta:g} fidelity={best.fidelity:.12g}")


def _repro_fig3b(cfg: dict, out: Path, begin) -> None:
    # one sweep per detuning: one merged sweep would warm-start each detuning's cells from the other's optima
    sweeps = {dval: duration_problems(dval, _DURATION_GRID, cfg["segments"]) for dval in (0.0, -0.11)}
    begin()
    all_cells = []
    for dval, problems in sweeps.items():
        cells = sweep(problems, restarts=cfg["restarts"], seed=cfg["seed"])
        all_cells.extend(cells)
        reach = next((c.T for c in cells if c.error is None and c.fidelity >= 0.999), None)
        print(f"delta={dval:g}: first T with fidelity>=0.999: {reach}")
    write_sweep_csv(all_cells, out / "fig3b.csv", config=cfg)


def _repro_fig4c(cfg: dict, out: Path, begin) -> None:
    problem = ControlProblem(T=2.5, delta_mode="trig-series", segments=cfg["segments"])
    begin()
    reports = trig_harmonic_scan(problem, [1, 2, 3, 5], restarts=cfg["restarts"], seed=cfg["seed"])
    columns = [[rep.series.p for rep in reports], [rep.fidelity for rep in reports]]
    write_csv(out / "fig4c.csv", ("p", "fidelity"), columns, cfg)
    for rep in reports:
        write_report_json(rep, out / f"fig4c_p{rep.series.p}.json", config=cfg)
        print(f"p={rep.series.p}: fidelity={rep.fidelity:.12g}")


def _repro_table1(cfg: dict, out: Path, begin) -> None:
    series = TrigSeries(p=3, a=np.array(BENCHMARK_SERIES_T25_A), b=np.array(BENCHMARK_SERIES_T25_B))
    begin()
    results = {conv: evaluate_series(series, 2.5, convention=conv) for conv in (CONVENTION_XI, CONVENTION_PERIOD)}
    succeeded = [conv for conv, fid in results.items() if fid >= 0.99]
    extra = {"config": cfg, "T": 2.5, "fidelity": results, "convention_succeeded": succeeded}
    write_series_json(series, out / "table1.json", extra=extra)
    for conv, fid in results.items():
        print(f"{conv}: fidelity={fid:.12g}")
    print(f"convention succeeded: {', '.join(succeeded) if succeeded else 'none'}")


# ---------------------------------------------------------------------------
# parameter tables: every flag, config key and type comes from these

#: the optimizer's parameters; single optima take DEFAULT_RESTARTS random starts, sweeps 2 until a cell is solved
_OPTIMIZER = {"segments": DEFAULT_SEGMENTS, "restarts": 2, "seed": DEFAULT_SEED}

COMMANDS = {
    "tqd": (cmd_tqd, {"kind": KINDS, "e": 0.1, "T": 10.0}),
    "simulate": (cmd_simulate, {"T": 2.5, "delta": 0.0, "omega": 1.0, "method": ("rk4", "piecewise-exponential")}),
    "optimize": (
        cmd_optimize,
        {"mode": ("piecewise", "trig"), "T": 2.5, "delta": 0.0, "joint": False, "p": 3,
         **_OPTIMIZER, "restarts": DEFAULT_RESTARTS},
    ),
    "sweep-detuning": (cmd_sweep_detuning, {"T": [2.5], "deltas": _DELTA_GRID, **_OPTIMIZER}),
    "sweep-duration": (cmd_sweep_duration, {"delta": 0.0, "T": _DURATION_GRID, **_OPTIMIZER}),
    "evaluate-series": (
        cmd_evaluate_series, {"series": None, "T": 2.5, "convention": (CONVENTION_XI, CONVENTION_PERIOD)}
    ),
}

REPRO_DATASETS = {
    "fig1b": (_repro_fig1b, {"e": 0.1}),
    "fig2": (_repro_fig2, {**_OPTIMIZER, "restarts": DEFAULT_RESTARTS}),
    "fig3a": (_repro_fig3a, _OPTIMIZER),
    "fig3b": (_repro_fig3b, _OPTIMIZER),
    "fig4c": (_repro_fig4c, _OPTIMIZER),
    "table1": (_repro_table1, {}),
}
#: the flags of ``repro``: every dataset's parameters
_REPRO_PARAMS = {key: default for _, params in REPRO_DATASETS.values() for key, default in params.items()}

_HELP = {
    ("tqd", "e"): "envelope amplitude",
    ("tqd", "T"): "duration",
    ("optimize", "delta"): "fixed detuning value",
    ("optimize", "joint"): "optimize delta as a series too (trig mode)",
    ("optimize", "p"): "harmonic count (trig mode)",
    ("sweep-detuning", "T"): "comma-separated durations",
    ("sweep-detuning", "deltas"):
        "comma-separated detuning grid; write --deltas=-0.2,0,0.2 when the first entry is negative",
    ("sweep-duration", "T"): "comma-separated ascending durations",
    ("evaluate-series", "series"): "JSON file {p, a, b}; defaults to the built-in T=2.5 benchmark",
}


def _run(args: argparse.Namespace) -> None:
    """Resolve a run's configuration, reject the flags it does not read and
    run the command, which calls ``begin`` once its inputs are checked:
    ``begin`` makes the output directory and echoes the configuration."""
    if args.command == "repro":
        if args.id not in REPRO_DATASETS:
            raise ValueError(f"unknown reproduction id {args.id!r}; choose from {', '.join(REPRO_DATASETS)}")
        func, defaults = REPRO_DATASETS[args.id]
        _reject_flags(args, [key for key in _REPRO_PARAMS if key not in defaults], f"repro {args.id}")
        cfg = _resolve(args, f"repro-{args.id}", defaults)
    else:
        func, defaults = COMMANDS[args.command]
        cfg = _resolve(args, args.command, defaults)
        if args.command == "optimize":
            mode, ignored = _optimize_ignores(cfg)
            _reject_flags(args, ignored, f"optimize {mode}")
    if "restarts" in cfg:  # every optimizer-backed run
        check_starts(cfg["restarts"], cfg["seed"])
    out = Path(cfg["out"] or DEFAULT_OUT)
    cfg["out"] = str(out)

    def begin() -> None:
        out.mkdir(parents=True, exist_ok=True)
        print("config: " + json.dumps(cfg, sort_keys=True))

    func(cfg, out, begin)


def cmd_limit(args: argparse.Namespace) -> None:
    print(f"{short_time_fidelity_limit():.12f}")


# ---------------------------------------------------------------------------
# parser


def _add_parameters(sp: argparse.ArgumentParser, command: str, params: dict) -> None:
    """One flag per parameter, parsed as its default's type, then ``--out``
    and ``--config``."""
    for key, default in params.items():
        if isinstance(default, bool):
            kind = {"action": argparse.BooleanOptionalAction}
        elif isinstance(default, tuple):
            kind = {"choices": default}
        elif isinstance(default, list):
            kind = {"type": _floats}
        else:
            kind = {} if default is None else {"type": type(default)}
        sp.add_argument(f"--{key}", help=_HELP.get((command, key)), **kind)
    sp.add_argument("--out", help=f"output directory (default ./{DEFAULT_OUT})")
    sp.add_argument("--config", help="JSON config file; flags override its entries")
    sp.set_defaults(func=_run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingbell",
        description="Bell-state generation in an Ising spin pair: shortcut and optimal-control experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, params) in COMMANDS.items():
        _add_parameters(sub.add_parser(command, help=func.__doc__), command, params)
    sub.add_parser("limit", help="print the short-time fidelity ceiling of the shortcut").set_defaults(func=cmd_limit)
    sp = sub.add_parser("repro", help="regenerate a benchmark dataset")
    sp.add_argument("id", help=f"one of {', '.join(REPRO_DATASETS)}")
    _add_parameters(sp, "repro", _REPRO_PARAMS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles its own help/usage output
        return 0 if exc.code in (0, None) else 2
    try:
        args.func(args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader of stdout went away: point stdout at devnull so the
        # flush at exit cannot fail again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (NonUnitaryDrift, NoConvergence, InfeasibleResult) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
