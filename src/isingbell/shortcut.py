"""Transitionless-driving shortcut controls for the Bell-state transfer.

The reference adiabatic path is set by a mixing angle theta(s) running from 0
to pi over normalized time s = t/T with flat ends, plus an energy envelope
E0(s) = e*s*(1-s) that switches the fields off at the boundaries:

    theta_sym(s) = pi s^2 (3 - 2s)           (flat ends only)
    theta_non(s) = pi s^2 (3s^2 - 8s + 6)    (additionally theta''(1) = 0)

Instead of adding the counterdiabatic thetadot*S_y correction directly, a
gauge rotation exp(-i b S_z) with tan b = thetadot / (E0 sin theta) folds it
back into the original (S_z, S_x) control form, giving the modified pair

    delta' = (E0^3 sin^2 th cos th + E0dot thdot sin th
              + E0 (2 thdot^2 cos th - thddot sin th)) / (E0^2 sin^2 th + thdot^2)
    omega' = sqrt((E0^2 sin^2 th + thdot^2) / 2)

which invert the two-level block exactly at any duration.  Embedded in the
full three-level system the transfer degrades: as T -> 0 the Rabi pulse
becomes a delta pulse of fixed area pi/sqrt(2) and the Bell fidelity
saturates at sin^2(pi/sqrt(2))/2 ~= 0.3166.

All derivatives here are analytic in s; nothing in the control path is
finite-differenced (the delta-pulse regime would amplify that noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .artifacts import write_csv
from .model import SQRT2, TripletAmplitudes
from .propagator import ControlWaveform, NonUnitaryDrift, _rk4_states, fidelity, propagate, step_count

SYMMETRIC = "symmetric"
NONSYMMETRIC = "nonsymmetric"
KINDS = (SYMMETRIC, NONSYMMETRIC)

#: default envelope amplitude, in xi units
DEFAULT_AMPLITUDE = 0.1

#: inside this distance of s = 0, 1 the 0/0 forms are replaced by their
#: analytic limits: delta' = omega' = 0
ENDPOINT_EPS = 1e-9

#: sample points of a waveform CSV, endpoints included
WAVEFORM_CSV_POINTS = 1001


class DomainError(ValueError):
    """Normalized time outside the schedule domain [0, 1]."""


@dataclass(frozen=True)
class ShortcutSpec:
    """A shortcut schedule: angle family, envelope amplitude, duration."""

    kind: str
    e: float = DEFAULT_AMPLITUDE
    T: float = 10.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.e) and self.e > 0.0):
            raise ValueError(f"envelope amplitude must be positive, got {self.e}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"duration must be positive, got {self.T}")


class ShortTimeControls(NamedTuple):
    """T -> 0 limiting controls at normalized time s.  ``delta`` is already
    T-independent; ``omega_scaled`` is omega*T (divide by T to scale)."""

    delta: float
    omega_scaled: float


def _check_domain(s: np.ndarray) -> None:
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise DomainError("normalized time must lie in [0, 1]")


def theta(s, kind: str):
    """Schedule angle theta(s) with its first two s-derivatives (analytic).

    theta(0) = 0, theta(1) = pi, theta'(0) = theta'(1) = 0 for both kinds;
    the nonsymmetric kind additionally has theta''(1) = 0.
    """
    s = np.asarray(s, dtype=float)
    _check_domain(s)
    if kind == SYMMETRIC:
        th = math.pi * s * s * (3.0 - 2.0 * s)
        d1 = math.pi * 6.0 * s * (1.0 - s)
        d2 = math.pi * (6.0 - 12.0 * s)
    elif kind == NONSYMMETRIC:
        th = math.pi * s * s * (3.0 * s * s - 8.0 * s + 6.0)
        d1 = math.pi * 12.0 * s * (s - 1.0) ** 2
        d2 = math.pi * (36.0 * s * s - 48.0 * s + 12.0)
    else:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return th, d1, d2


def envelope(s, e: float):
    """Energy envelope E0(s) = e s (1 - s) and its s-derivative e (1 - 2s)."""
    s = np.asarray(s, dtype=float)
    _check_domain(s)
    return e * s * (1.0 - s), e * (1.0 - 2.0 * s)


def _controls_arrays(s: np.ndarray, spec: ShortcutSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized modified controls on a normalized-time grid."""
    s = np.asarray(s, dtype=float)
    th, d1, d2 = theta(s, spec.kind)
    e0, de0 = envelope(s, spec.e)
    # np.float64, not float: a huge T**2 overflows to inf instead of raising
    t_tot = np.float64(spec.T)
    thdot = d1 / t_tot
    thddot = d2 / t_tot**2
    e0dot = de0 / t_tot
    sin_th, cos_th = np.sin(th), np.cos(th)
    den = (e0 * sin_th) ** 2 + thdot**2
    omega = np.sqrt(0.5 * den)
    num = e0**3 * sin_th**2 * cos_th + e0dot * thdot * sin_th + e0 * (2.0 * thdot**2 * cos_th - thddot * sin_th)
    interior = (s > ENDPOINT_EPS) & (s < 1.0 - ENDPOINT_EPS)
    delta = np.zeros_like(s)
    delta[interior] = num[interior] / den[interior]
    omega[~interior] = 0.0
    return delta, omega


def shortcut_waveform(spec: ShortcutSpec) -> ControlWaveform:
    """The modified-control pair packaged as a parametric waveform."""

    def fn(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.clip(np.asarray(ts, dtype=float) / spec.T, 0.0, 1.0)
        return _controls_arrays(s, spec)

    return ControlWaveform(spec.T, fn)


def short_time_controls(s: float, spec: ShortcutSpec) -> ShortTimeControls:
    """T -> 0 limit of the modified controls at interior normalized time s.

    delta loses its T dependence; omega diverges as theta'(s)/(sqrt(2) T)
    (a delta pulse of fixed area pi/sqrt(2)), so omega*T is returned.
    """
    if not (0.0 < s < 1.0):
        raise DomainError("short-time limit is defined on the open interval (0, 1)")
    th, d1, d2 = theta(s, spec.kind)
    e0, de0 = envelope(s, spec.e)
    sin_th, cos_th = math.sin(th), math.cos(th)
    delta = (de0 * d1 * sin_th + e0 * (2.0 * d1 * d1 * cos_th - d2 * sin_th)) / (d1 * d1)
    return ShortTimeControls(delta=float(delta), omega_scaled=float(d1 / SQRT2))


def short_time_fidelity_limit() -> float:
    """Bell fidelity reached by the shortcut as T -> 0: sin^2(pi/sqrt(2))/2.

    The delta-pulse area pi/sqrt(2) is fixed by the pi sweep of theta, so no
    field amplitude can push the short-time fidelity above this value."""
    return 0.5 * math.sin(math.pi / SQRT2) ** 2


def tqd_fidelity_curve(kind: str, e: float, T_grid: Sequence[float] | np.ndarray) -> list[tuple[float, float]]:
    """Final Bell fidelity of the three-level system for each duration in
    ``T_grid`` under the modified controls, starting from |dd>.  Each
    duration runs ``propagate``'s piecewise-exponential route: CF4 steps at
    its automatic count, checked by step halving; a propagation error names
    its duration."""
    t_grid = np.asarray(T_grid, dtype=float)
    if t_grid.size == 0 or np.any(t_grid <= 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("T_grid must be positive and strictly ascending")
    c0 = TripletAmplitudes.spin_down()
    out = []
    for t_tot in t_grid:
        spec = ShortcutSpec(kind=kind, e=e, T=float(t_tot))
        try:
            traj = propagate(shortcut_waveform(spec), c0, method="piecewise-exponential")
        except NonUnitaryDrift as exc:
            raise NonUnitaryDrift(f"T={t_tot:g}: {exc}") from exc
        out.append((float(t_tot), fidelity(traj)))
    return out


def two_level_inversion(spec: ShortcutSpec) -> float:
    """Final inverted population when the modified controls drive the
    two-level block alone, starting from (1, 0).

    This is the defining exactness property of the construction: the result
    is 1 up to integrator error for any duration; only the three-level
    embedding degrades the transfer.  RK4, independent of the exponential
    route the fidelity curves take, runs on the {|dd>, bell} block of H_c
    at ``propagate``'s RK4 step count and passes its drift gate, so an
    under-resolved history raises ``NonUnitaryDrift``.
    """
    wf = shortcut_waveform(spec)
    psi, _ = _rk4_states(wf, np.array([1.0 + 0.0j, 0.0j]), step_count(wf))
    return float(np.abs(psi[-1, 1]) ** 2)


def write_waveform_csv(waveform: ControlWaveform, path, config=None) -> None:
    """Sample a waveform on ``WAVEFORM_CSV_POINTS`` points and dump (t,
    delta, omega) as CSV."""
    ts = np.linspace(0.0, waveform.duration, WAVEFORM_CSV_POINTS)
    write_csv(path, ("t", "delta", "omega"), [ts, *waveform.sample(ts)], config)


def write_fidelity_curve_csv(path, T_grid, fid_symmetric, fid_nonsymmetric, config=None) -> None:
    """Dump the fidelity-vs-duration curves for both schedule kinds."""
    write_csv(
        path,
        ("T", "fidelity_symmetric", "fidelity_nonsymmetric"),
        [T_grid, fid_symmetric, fid_nonsymmetric],
        config,
    )
