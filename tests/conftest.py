"""Shared fixtures.

The optimization runs are the expensive part of the suite, so everything
that more than one test consumes (benchmark optima, sweeps, the shortcut
fidelity curve) is computed once per session here with fixed seeds.
"""

import json

import numpy as np
import pytest

from isingbell.optimize import (
    ControlProblem,
    adjoint_gradient,
    optimize_piecewise,
    sweep_detuning,
    sweep_duration,
    trig_harmonic_scan,
)
from isingbell.shortcut import tqd_fidelity_curve

BENCH_DURATIONS = (2.0, 2.5, 3.0, 3.6)
DETUNING_GRID = (-0.3, -0.2, -0.15, -0.11, -0.05, 0.0, 0.05, 0.11, 0.2, 0.3)


def chain_reference(maps: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """The plain per-step loop c_{k+1} = maps[k] @ c_k that the package's
    blocked scan must reproduce; shares no code with it."""
    out = np.empty((maps.shape[0] + 1, maps.shape[1]), dtype=complex)
    out[0] = c0
    for k, m in enumerate(maps):
        out[k + 1] = m @ out[k]
    return out


def gradient_fd_worst_rel(
    instances: int = 20,
    seed: int = 7,
    probes: int = 3,
    segments: tuple[int, int] = (60, 200),
    bang: bool = False,
) -> float:
    """Worst relative mismatch between the adjoint gradient and central
    finite differences over random bounded-control problems (both detuning
    modes, segment counts drawn from ``segments``), probing a few random
    coordinates per instance.

    With ``bang`` the controls look like the optimizer's bang-bang iterates:
    most values are exactly -1, 0 or 1, fixed-detuning problems use
    delta = 0, and a few segments hold delta = omega = 0, where the spectrum
    of H = diag(0, 0, 4) is degenerate; the first probe lands on the omega
    of such a segment and, in joint mode, the second on its delta."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(instances):
        nseg = int(rng.integers(*segments))
        mode = "fixed" if k % 2 == 0 else "trig-series"
        problem = ControlProblem(
            T=float(rng.uniform(1.0, 4.0)),
            delta_mode=mode,
            delta_value=0.0 if bang else float(rng.uniform(-0.5, 0.5)),
            segments=nseg,
        )
        nx = nseg if mode == "fixed" else 2 * nseg
        x = rng.uniform(-1.0, 1.0, size=nx)
        coords = rng.choice(nx, size=probes, replace=False)
        if bang:
            x = np.where(rng.random(nx) < 0.8, rng.choice([-1.0, 0.0, 1.0], size=nx), x)
            idle = rng.choice(nseg, size=3, replace=False)
            x[idle] = 0.0
            coords[0] = idle[0]
            if mode != "fixed":
                x[nseg + idle] = 0.0
                coords[1] = nseg + idle[0]
        _, g = adjoint_gradient(problem, x)
        scale = max(float(np.max(np.abs(g))), 1e-10)
        h = 1e-6
        for i in coords:
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fp, _ = adjoint_gradient(problem, xp)
            fm, _ = adjoint_gradient(problem, xm)
            worst = max(worst, abs((fp - fm) / (2 * h) - g[i]) / scale)
    return worst


@pytest.fixture(scope="session")
def fig2_reports():
    """Bang-bang optima at the four benchmark durations, delta = 0."""
    return {
        t: optimize_piecewise(ControlProblem(T=t), restarts=2, seed=42)
        for t in BENCH_DURATIONS
    }


@pytest.fixture(scope="session")
def neg_detuning_report():
    """Piecewise optimum at the favourable constant detuning -0.11."""
    return optimize_piecewise(ControlProblem(T=2.5, delta_value=-0.11), restarts=2, seed=42)


@pytest.fixture(scope="session")
def detuning_cells():
    """Fidelity against constant detuning at T = 2.5."""
    return sweep_detuning([2.5], list(DETUNING_GRID), restarts=2, seed=42)


@pytest.fixture(scope="session")
def duration_cells_zero():
    return sweep_duration(0.0, list(BENCH_DURATIONS), restarts=2, seed=42)


@pytest.fixture(scope="session")
def duration_cells_neg():
    return sweep_duration(-0.11, list(BENCH_DURATIONS), restarts=2, seed=42)


@pytest.fixture(scope="session")
def trig_scan_reports():
    """Joint (omega, delta) series optima for p = 1, 2, 3, 5 at T = 2.5."""
    problem = ControlProblem(T=2.5, delta_mode="trig-series")
    return trig_harmonic_scan(problem, [1, 2, 3, 5], restarts=2, seed=42)


@pytest.fixture(scope="session")
def fd_worst_rel():
    return gradient_fd_worst_rel(instances=20, seed=7)


@pytest.fixture(scope="session")
def determinism_jsons():
    """The same seeded optimization run twice, serialized."""

    def run():
        rep = optimize_piecewise(ControlProblem(T=2.0, segments=200), restarts=2, seed=11)
        return json.dumps(rep.to_dict(), sort_keys=True)

    return run(), run()


@pytest.fixture(scope="session")
def tqd_curves():
    """Shortcut fidelity vs duration on a log grid, both schedule kinds."""
    grid = np.geomspace(0.01, 15.0, 100)
    return {
        "grid": grid,
        "symmetric": tqd_fidelity_curve("symmetric", 0.1, grid),
        "nonsymmetric": tqd_fidelity_curve("nonsymmetric", 0.1, grid),
    }
