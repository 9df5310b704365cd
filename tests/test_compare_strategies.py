"""``scripts/compare_strategies.py`` runs against the library it calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import isingbell
from isingbell.model import TripletAmplitudes
from isingbell.optimize import adiabatic_baseline
from isingbell.propagator import fidelity, propagate
from isingbell.shortcut import ShortcutSpec, shortcut_waveform

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_strategies.py"
STRATEGIES = {"shortcut", "adiabatic", "bang-bang", "bang-bang, delta=-0.11", "series p=3 (joint)"}


def test_small_comparison_names_every_strategy(tmp_path):
    # about a second: one start per optimizer on 20 segments
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(isingbell.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, str(SCRIPT), "--T", "2.5", "--restarts", "0", "--segments", "20", "--out", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    fidelities = json.loads((tmp_path / "strategy_comparison.json").read_text())["fidelity"]
    assert set(fidelities) == STRATEGIES
    assert all(0.0 <= f <= 1.0 for f in fidelities.values()), fidelities
    # the two unoptimized rows are scored on the exact route, as the optimizers' are
    spin_down = TripletAmplitudes.spin_down()
    for name, wf in [("shortcut", shortcut_waveform(ShortcutSpec(kind="symmetric", e=0.1, T=2.5))),
                     ("adiabatic", adiabatic_baseline(2.5))]:
        assert fidelities[name] == fidelity(propagate(wf, spin_down, method="piecewise-exponential")), name
