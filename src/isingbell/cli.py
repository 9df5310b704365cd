"""Command-line entry point: reproducible experiments as CSV/JSON artifacts.

Subcommands map one-to-one onto the library surface (tqd, simulate,
optimize, sweep-detuning, sweep-duration, evaluate-series, limit) plus
``repro`` which regenerates a named benchmark dataset end to end.

Configuration precedence is flags > JSON config file > built-in defaults;
the fully resolved configuration, experiment id and output directory
included, is echoed to stdout and embedded in every artifact, so passing it
back with ``--config`` replays the run exactly.  No command takes an RK4
step count: ``propagator._auto_steps`` picks it, and the ``tqd`` and
``simulate`` summaries record it.  Exit codes: 0 ok, 2 invalid
usage/parameters, 3 numeric failure (norm drift, no convergence, infeasible
series).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .artifacts import write_csv, write_json
from .model import TripletAmplitudes
from .propagator import (
    ControlWaveform,
    NonUnitaryDrift,
    fidelity,
    propagate,
    write_trajectory_csv,
)
from .shortcut import (
    KINDS,
    NONSYMMETRIC,
    SYMMETRIC,
    ShortcutSpec,
    short_time_fidelity_limit,
    shortcut_waveform,
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
    evaluate_series,
    optimize_piecewise,
    optimize_trig,
    read_series_json,
    saturation_fraction,
    sweep_detuning,
    sweep_duration,
    trig_harmonic_scan,
    write_report_json,
    write_series_json,
    write_sweep_csv,
)

REPRO_IDS = ("fig1b", "fig2", "fig3a", "fig3b", "fig4c", "table1")
#: integer flags of ``repro``; each dataset takes only those in its defaults
REPRO_FLAGS = ("segments", "restarts", "seed")
DEFAULT_OUT = "isingbell_out"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_config_value(key: str, value, default) -> None:
    """A config-file value must be JSON of its key's type: a number for a
    float, an integer for an int, a list of numbers for a list; null only
    where the default is None (``series``, otherwise a path string)."""
    if value is None and default is None:
        return
    want = str if default is None else type(default)
    if want is float:
        ok = _is_number(value)
    elif want is list:
        ok = isinstance(value, list) and all(_is_number(v) for v in value)
    else:
        ok = type(value) is want
    if not ok:
        raise ValueError(f"config key {key!r} must be of type {want.__name__}, got {json.dumps(value)}")


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


def _experiment(args: argparse.Namespace, name: str, defaults: dict) -> tuple[dict, Path]:
    """The resolved configuration (experiment id, output directory and every
    parameter; flags > config file > defaults), echoed to stdout, and the
    created output directory."""
    config = {"experiment": name, "out": DEFAULT_OUT, **defaults}
    if args.config:
        config.update(_read_config(args.config, name, defaults))
    for key in ("out", *defaults):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            config[key] = val
    out = Path(config["out"] or DEFAULT_OUT)
    out.mkdir(parents=True, exist_ok=True)
    config["out"] = str(out)
    print("config: " + json.dumps(config, sort_keys=True))
    return config, out


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write_summary(path: Path, cfg: dict, traj) -> None:
    """Write a propagation's summary (config, fidelity, and how ``propagate``
    made it: route, automatic step count, measured norm drift) and print
    the fidelity."""
    fid = fidelity(traj)
    summary = {"config": cfg, "fidelity": fid, "method": traj.method, "steps": traj.steps, "max_drift": traj.max_drift}
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
# subcommand implementations


def cmd_tqd(args: argparse.Namespace) -> int:
    defaults = {"kind": SYMMETRIC, "e": 0.1, "T": 10.0}
    cfg, out = _experiment(args, "tqd", defaults)
    spec = ShortcutSpec(kind=cfg["kind"], e=float(cfg["e"]), T=float(cfg["T"]))
    wf = shortcut_waveform(spec)
    traj = propagate(wf, TripletAmplitudes.spin_down())
    write_waveform_csv(wf, out / "tqd_waveform.csv", config=cfg)
    write_trajectory_csv(traj, out / "tqd_trajectory.csv", config=cfg)
    _write_summary(out / "tqd_summary.json", cfg, traj)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    defaults = {"T": 2.5, "delta": 0.0, "omega": 1.0, "method": "rk4"}
    cfg, out = _experiment(args, "simulate", defaults)
    wf = ControlWaveform.piecewise_constant(float(cfg["T"]), [float(cfg["omega"])], delta=float(cfg["delta"]))
    traj = propagate(wf, TripletAmplitudes.spin_down(), method=cfg["method"])
    write_trajectory_csv(traj, out / "simulate_trajectory.csv", config=cfg)
    _write_summary(out / "simulate_summary.json", cfg, traj)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    defaults = {
        "mode": "piecewise",
        "T": 2.5,
        "delta": 0.0,
        "joint": False,
        "p": 3,
        "segments": DEFAULT_SEGMENTS,
        "restarts": DEFAULT_RESTARTS,
        "seed": DEFAULT_SEED,
    }
    cfg, out = _experiment(args, "optimize", defaults)
    if cfg["mode"] == "piecewise":
        problem = ControlProblem(T=float(cfg["T"]), delta_value=float(cfg["delta"]), segments=int(cfg["segments"]))
        report = optimize_piecewise(problem, restarts=int(cfg["restarts"]), seed=int(cfg["seed"]))
        print(f"fidelity: {report.fidelity:.12g}  saturation: {saturation_fraction(report.waveform):.4f}")
    elif cfg["mode"] == "trig":
        mode = "trig-series" if cfg["joint"] else "fixed"
        problem = ControlProblem(
            T=float(cfg["T"]), delta_mode=mode, delta_value=float(cfg["delta"]), segments=int(cfg["segments"])
        )
        report = optimize_trig(problem, p=int(cfg["p"]), restarts=int(cfg["restarts"]), seed=int(cfg["seed"]))
        print(f"fidelity: {report.fidelity:.12g}")
    else:
        raise ValueError(f"mode must be 'piecewise' or 'trig', got {cfg['mode']!r}")
    write_report_json(report, out / "optimize_report.json", config=cfg)
    write_waveform_csv(report.waveform, out / "optimize_waveform.csv", config=cfg)
    return 0


def cmd_sweep_detuning(args: argparse.Namespace) -> int:
    defaults = {
        "T": [2.5],
        "deltas": [round(x, 10) for x in np.linspace(-0.5, 0.5, 21)],
        "segments": DEFAULT_SEGMENTS,
        "restarts": 2,
        "seed": DEFAULT_SEED,
    }
    cfg, out = _experiment(args, "sweep-detuning", defaults)
    cells = sweep_detuning(
        [float(t) for t in cfg["T"]],
        [float(d) for d in cfg["deltas"]],
        restarts=int(cfg["restarts"]),
        seed=int(cfg["seed"]),
        segments=int(cfg["segments"]),
    )
    write_sweep_csv(cells, out / "sweep_detuning.csv", config=cfg)
    best = _best_cell(cells)
    print(f"best: T={best.T:g} delta={best.delta:g} fidelity={best.fidelity:.12g}")
    return 0


def cmd_sweep_duration(args: argparse.Namespace) -> int:
    defaults = {
        "delta": 0.0,
        "T": [round(x, 10) for x in np.arange(1.0, 3.7, 0.2)],
        "segments": DEFAULT_SEGMENTS,
        "restarts": 2,
        "seed": DEFAULT_SEED,
    }
    cfg, out = _experiment(args, "sweep-duration", defaults)
    cells = sweep_duration(
        float(cfg["delta"]),
        [float(t) for t in cfg["T"]],
        restarts=int(cfg["restarts"]),
        seed=int(cfg["seed"]),
        segments=int(cfg["segments"]),
    )
    write_sweep_csv(cells, out / "sweep_duration.csv", config=cfg)
    for c in cells:
        print(f"T={c.T:g} fidelity={c.fidelity:.12g}" + (f"  [{c.error}]" if c.error else ""))
    return 0


def cmd_evaluate_series(args: argparse.Namespace) -> int:
    defaults = {"series": None, "T": 2.5, "convention": CONVENTION_XI}
    cfg, out = _experiment(args, "evaluate-series", defaults)
    if cfg["series"] is None:
        series = TrigSeries(p=3, a=np.array(BENCHMARK_SERIES_T25_A), b=np.array(BENCHMARK_SERIES_T25_B))
    else:
        series = read_series_json(cfg["series"])
    fid = evaluate_series(series, float(cfg["T"]), convention=cfg["convention"])
    write_json(
        out / "series_eval.json",
        {"config": cfg, "series": series.to_dict(), "fidelity": fid},
    )
    print(f"fidelity: {fid:.12g}")
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    print(f"{short_time_fidelity_limit():.12f}")
    return 0


# ---------------------------------------------------------------------------
# benchmark reproductions


def _repro_fig1b(cfg: dict, out: Path) -> None:
    t_grid = np.geomspace(0.01, 15.0, 100)
    sym = tqd_fidelity_curve(SYMMETRIC, float(cfg["e"]), t_grid)
    non = tqd_fidelity_curve(NONSYMMETRIC, float(cfg["e"]), t_grid)
    write_fidelity_curve_csv(
        out / "fig1b.csv",
        t_grid,
        [f for _, f in sym],
        [f for _, f in non],
        config=cfg,
    )
    print(f"fidelity at T={t_grid[0]:g}: {sym[0][1]:.6f} (sym) {non[0][1]:.6f} (non); limit {short_time_fidelity_limit():.6f}")
    print(f"fidelity at T={t_grid[-1]:g}: {sym[-1][1]:.6f} (sym) {non[-1][1]:.6f} (non)")


def _repro_fig2(cfg: dict, out: Path) -> None:
    rows = []
    for t_tot in (2.0, 2.5, 3.0, 3.6):
        problem = ControlProblem(T=t_tot, segments=int(cfg["segments"]))
        rep = optimize_piecewise(problem, restarts=int(cfg["restarts"]), seed=int(cfg["seed"]))
        write_report_json(rep, out / f"fig2_T{t_tot:g}.json", config=cfg)
        rows.append((t_tot, rep.fidelity, saturation_fraction(rep.waveform)))
        print(f"T={t_tot:g}: fidelity={rep.fidelity:.12g} saturation={rows[-1][2]:.4f}")
    write_csv(out / "fig2.csv", ("T", "fidelity", "saturation"), np.transpose(rows), cfg)


def _repro_fig3a(cfg: dict, out: Path) -> None:
    deltas = [round(x, 10) for x in np.linspace(-0.5, 0.5, 21)]
    cells = sweep_detuning(
        [2.5], deltas, restarts=int(cfg["restarts"]), seed=int(cfg["seed"]), segments=int(cfg["segments"])
    )
    write_sweep_csv(cells, out / "fig3a.csv", config=cfg)
    best = _best_cell(cells)
    print(f"best delta={best.delta:g} fidelity={best.fidelity:.12g}")


def _repro_fig3b(cfg: dict, out: Path) -> None:
    t_grid = [round(x, 10) for x in np.arange(1.0, 3.7, 0.2)]
    all_cells = []
    for dval in (0.0, -0.11):
        cells = sweep_duration(
            dval, t_grid, restarts=int(cfg["restarts"]), seed=int(cfg["seed"]), segments=int(cfg["segments"])
        )
        all_cells.extend(cells)
        reach = next((c.T for c in cells if c.error is None and c.fidelity >= 0.999), None)
        print(f"delta={dval:g}: first T with fidelity>=0.999: {reach}")
    write_sweep_csv(all_cells, out / "fig3b.csv", config=cfg)


def _repro_fig4c(cfg: dict, out: Path) -> None:
    problem = ControlProblem(T=2.5, delta_mode="trig-series", segments=int(cfg["segments"]))
    reports = trig_harmonic_scan(problem, [1, 2, 3, 5], restarts=int(cfg["restarts"]), seed=int(cfg["seed"]))
    columns = [[rep.series.p for rep in reports], [rep.fidelity for rep in reports]]
    write_csv(out / "fig4c.csv", ("p", "fidelity"), columns, cfg)
    for rep in reports:
        write_report_json(rep, out / f"fig4c_p{rep.series.p}.json", config=cfg)
        print(f"p={rep.series.p}: fidelity={rep.fidelity:.12g}")


def _repro_table1(cfg: dict, out: Path) -> None:
    series = TrigSeries(p=3, a=np.array(BENCHMARK_SERIES_T25_A), b=np.array(BENCHMARK_SERIES_T25_B))
    results = {conv: evaluate_series(series, 2.5, convention=conv) for conv in (CONVENTION_XI, CONVENTION_PERIOD)}
    succeeded = [conv for conv, fid in results.items() if fid >= 0.99]
    write_series_json(
        series,
        out / "table1.json",
        extra={
            "config": cfg,
            "T": 2.5,
            "fidelity": results,
            "convention_succeeded": succeeded,
        },
    )
    for conv, fid in results.items():
        print(f"{conv}: fidelity={fid:.12g}")
    print(f"convention succeeded: {', '.join(succeeded) if succeeded else 'none'}")


def cmd_repro(args: argparse.Namespace) -> int:
    runners = {
        "fig1b": (_repro_fig1b, {"e": 0.1}),
        "fig2": (_repro_fig2, {"segments": DEFAULT_SEGMENTS, "restarts": DEFAULT_RESTARTS, "seed": DEFAULT_SEED}),
        "fig3a": (_repro_fig3a, {"segments": DEFAULT_SEGMENTS, "restarts": 2, "seed": DEFAULT_SEED}),
        "fig3b": (_repro_fig3b, {"segments": DEFAULT_SEGMENTS, "restarts": 2, "seed": DEFAULT_SEED}),
        "fig4c": (_repro_fig4c, {"segments": DEFAULT_SEGMENTS, "restarts": 2, "seed": DEFAULT_SEED}),
        "table1": (_repro_table1, {}),
    }
    if args.id not in runners:
        raise ValueError(f"unknown reproduction id {args.id!r}; choose from {', '.join(REPRO_IDS)}")
    runner, defaults = runners[args.id]
    for flag in REPRO_FLAGS:
        if getattr(args, flag) is not None and flag not in defaults:
            raise ValueError(f"repro {args.id} takes no --{flag}")
    cfg, out = _experiment(args, f"repro-{args.id}", defaults)
    runner(cfg, out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingbell",
        description="Bell-state generation in an Ising spin pair: shortcut and optimal-control experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help=f"output directory (default ./{DEFAULT_OUT})")
        sp.add_argument("--config", help="JSON config file; flags override its entries")

    sp = sub.add_parser("tqd", help="propagate the shortcut drive and record the trajectory")
    sp.add_argument("--kind", choices=KINDS)
    sp.add_argument("--e", type=float, help="envelope amplitude")
    sp.add_argument("--T", type=float, help="duration")
    common(sp)
    sp.set_defaults(func=cmd_tqd)

    sp = sub.add_parser("simulate", help="propagate constant controls")
    sp.add_argument("--T", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--omega", type=float)
    sp.add_argument("--method", choices=("rk4", "piecewise-exponential"))
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("optimize", help="optimize bounded controls for the Bell transfer")
    sp.add_argument("--mode", choices=("piecewise", "trig"))
    sp.add_argument("--T", type=float)
    sp.add_argument("--delta", type=float, help="fixed detuning value")
    sp.add_argument("--joint", action=argparse.BooleanOptionalAction, help="optimize delta as a series too (trig mode)")
    sp.add_argument("--p", type=int, help="harmonic count (trig mode)")
    sp.add_argument("--segments", type=int)
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--seed", type=int)
    common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("sweep-detuning", help="best fidelity over a constant-detuning grid")
    sp.add_argument("--T", type=_floats, help="comma-separated durations")
    sp.add_argument("--deltas", type=_floats,
                    help="comma-separated detuning grid; write --deltas=-0.2,0,0.2 when the first entry is negative")
    sp.add_argument("--segments", type=int)
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--seed", type=int)
    common(sp)
    sp.set_defaults(func=cmd_sweep_detuning)

    sp = sub.add_parser("sweep-duration", help="best fidelity against duration at fixed detuning")
    sp.add_argument("--delta", type=float)
    sp.add_argument("--T", type=_floats, help="comma-separated ascending durations")
    sp.add_argument("--segments", type=int)
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--seed", type=int)
    common(sp)
    sp.set_defaults(func=cmd_sweep_duration)

    sp = sub.add_parser("evaluate-series", help="propagate a trigonometric series from a JSON file")
    sp.add_argument("--series", help="JSON file {p, a, b}; defaults to the built-in T=2.5 benchmark")
    sp.add_argument("--T", type=float)
    sp.add_argument("--convention", choices=(CONVENTION_XI, CONVENTION_PERIOD))
    common(sp)
    sp.set_defaults(func=cmd_evaluate_series)

    sp = sub.add_parser("limit", help="print the short-time fidelity ceiling of the shortcut")
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("repro", help="regenerate a benchmark dataset")
    sp.add_argument("id", help=f"one of {', '.join(REPRO_IDS)}")
    for flag in REPRO_FLAGS:
        sp.add_argument(f"--{flag}", type=int)
    common(sp)
    sp.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles its own help/usage output
        return 0 if exc.code in (0, None) else 2
    try:
        return int(args.func(args) or 0)
    except (NonUnitaryDrift, NoConvergence, InfeasibleResult) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
