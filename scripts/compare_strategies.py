#!/usr/bin/env python3
"""Head-to-head at a single duration: how close does each control strategy
get to the triplet Bell state?

Compares, at the same T and bounds:

    shortcut      counterdiabatic drive (no bound, whatever amplitude it needs)
    adiabatic     linear sweep + Gaussian pulse reference
    bang-bang     piecewise-constant omega, |omega| <= 1, delta = 0
    bang-bang*    same with the favourable constant detuning -0.11
    series p=3    joint (omega, delta) trigonometric series, both bounded

Writes strategy_comparison.json next to the printed table.  The bounded
strategies are where duration bites: at T = 2.5 the shortcut is already
essentially exact while the bounded optima are still climbing.
"""

import argparse
from pathlib import Path

import numpy as np

from isingbell.artifacts import write_json
from isingbell.model import TripletAmplitudes
from isingbell.optimize import (
    DEFAULT_SEED,
    DEFAULT_SEGMENTS,
    ControlProblem,
    adiabatic_baseline,
    optimize_piecewise,
    optimize_trig,
    saturation_fraction,
)
from isingbell.propagator import fidelity, propagate
from isingbell.shortcut import ShortcutSpec, shortcut_waveform


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=float, default=2.5, help="common duration")
    parser.add_argument("--restarts", type=int, default=2)
    parser.add_argument("--segments", type=int, default=DEFAULT_SEGMENTS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default="comparison_out")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    spin_down = TripletAmplitudes.spin_down()
    rows: list[tuple[str, float, str]] = []

    # every row is scored on the exact route, as the optimizers' reports are
    exact = "piecewise-exponential"
    wf = shortcut_waveform(ShortcutSpec(kind="symmetric", e=0.1, T=args.T))
    peak = float(np.max(np.abs(wf.sample(np.linspace(0.0, args.T, 401))[1])))
    rows.append(("shortcut", fidelity(propagate(wf, spin_down, method=exact)),
                 f"peak |omega| = {peak:.3f}, unbounded"))

    wf = adiabatic_baseline(args.T)
    rows.append(("adiabatic", fidelity(propagate(wf, spin_down, method=exact)),
                 "linear sweep + Gaussian pulse"))

    problem = ControlProblem(T=args.T, segments=args.segments)
    rep = optimize_piecewise(problem, restarts=args.restarts, seed=args.seed)
    rows.append(("bang-bang", rep.fidelity,
                 f"saturation {saturation_fraction(rep.waveform):.2f}, {rep.iterations} iters"))

    problem = ControlProblem(T=args.T, delta_value=-0.11, segments=args.segments)
    rep = optimize_piecewise(problem, restarts=args.restarts, seed=args.seed)
    rows.append(("bang-bang, delta=-0.11", rep.fidelity,
                 f"saturation {saturation_fraction(rep.waveform):.2f}"))

    problem = ControlProblem(T=args.T, delta_mode="trig-series", segments=args.segments)
    rep = optimize_trig(problem, p=3, restarts=args.restarts, seed=args.seed)
    rows.append(("series p=3 (joint)", rep.fidelity, f"exit: {rep.exit_reason}"))

    width = max(len(name) for name, _, _ in rows)
    print(f"\nBell-state fidelity at T = {args.T:g} (coupling units)\n")
    for name, fid, note in rows:
        print(f"  {name:<{width}}  {fid:12.9f}  {note}")
    print(f"  {'infidelity floor':<{width}}  {1.0 - max(f for _, f, _ in rows):12.3e}\n")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "T": args.T,
        "restarts": args.restarts,
        "segments": args.segments,
        "seed": args.seed,
        "fidelity": {name: fid for name, fid, _ in rows},
    }
    write_json(out / "strategy_comparison.json", payload)
    print(f"wrote {out / 'strategy_comparison.json'}")


if __name__ == "__main__":
    main()
