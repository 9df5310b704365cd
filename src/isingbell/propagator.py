"""Schrodinger propagation for the rotating-frame triplet system.

Times are in units of 1/xi with the coupling xi = 1 fixed (see ``model``).
A waveform is either piecewise constant, when it carries its segment values
(``piece_omega is not None``), or parametric, a vectorized sampler.

Two integration routes are provided and cross-checked against each other.
Both build their per-step maps in batch and share one kernel,
``chain_indexed``, a blocked scan in real arithmetic that applies them in
order with O(sqrt(n)) numpy calls instead of one call per step.  It reads
each step's map from a table by index, so a map shared by many steps is
built once:

* fixed-step RK4 with the control pair frozen at each step midpoint.  For a
  frozen H one RK4 step is exactly the degree-4 Taylor polynomial of
  exp(-i H dt), so that polynomial, built from real powers of H dt, is the
  step map; on grids aligned with the segment edges the route agrees with
  the exponential one to Taylor error (~1e-13 at default resolution).
  Freezing at the midpoint keeps delta-like pulses and discontinuous
  waveforms well behaved; for smooth controls the midpoint commutator error
  is O(dt^2) and negligible at the default 4000 steps.
* exact piecewise exponentials, exp(-i H dt) per distinct (delta, omega)
  pair of the constant segments via eigendecomposition of the (real
  symmetric) Hamiltonian (``segment_propagators``).

The optimizer runs its forward pass and its adjoint pass (the adjoint maps
in reverse order, stored in the same table) through the same kernel in one
batched call.

The RK4 step count has one source, ``_auto_steps``: max(4000,
ceil(1000 max|omega| T)), raised to a multiple of the segment count of a
piecewise waveform, at most ``MAX_STEPS``; no caller picks it.  Every state
history, of either route, passes one drift gate: norm drift beyond 1e-8, or a
NaN norm, raises ``NonUnitaryDrift``.  That always means the policy
under-resolves the waveform, never a physical effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .artifacts import write_csv
from .model import TripletAmplitudes, hc_batch

DRIFT_LIMIT = 1e-8
DEFAULT_STEPS = 4000
#: extra RK4 steps per unit of max|omega|*T; pulse area, not duration, sets
#: the resolution a delta-like pulse needs.
STEPS_PER_UNIT_AREA = 1000
#: most RK4 steps one propagation may take, at a few hundred bytes of arrays
#: each; the datasets need at most 38,234 (``repro table1``)
MAX_STEPS = 1_000_000
#: RK4 step maps are built and chained this many steps at a time, so the
#: scan's real-form scratch stays O(MAP_BLOCK).  Peak RSS of `repro table1`
#: (38,234 steps per propagation; ru_maxrss, one process): 86.6 MiB blocked,
#: 119 MiB with every map built and scanned at once.
MAP_BLOCK = 2048

TRAJECTORY_CSV_COLUMNS = (
    "t",
    "re_c1",
    "im_c1",
    "re_c2",
    "im_c2",
    "re_c3",
    "im_c3",
    "pop1",
    "pop2",
    "pop3",
    "delta",
    "omega",
)


class NonUnitaryDrift(RuntimeError):
    """Propagated state norm drifted beyond tolerance (step too coarse)."""


class MethodMismatch(ValueError):
    """Requested integration method cannot handle the given waveform."""


@dataclass(frozen=True, eq=False)
class ControlWaveform:
    """Time-dependent control pair (delta(t), omega(t)) on [0, duration].

    ``sampler`` is a vectorized evaluator mapping an array of times to the
    (delta, omega) arrays.  Piecewise-constant waveforms additionally expose
    their segment values so the exponential route and the optimizer can use
    them directly.
    """

    duration: float
    sampler: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    piece_delta: np.ndarray | None = None
    piece_omega: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be positive and finite, got {self.duration}")

    @classmethod
    def piecewise_constant(
        cls,
        duration: float,
        omega: Sequence[float] | np.ndarray,
        delta: float | Sequence[float] | np.ndarray = 0.0,
    ) -> "ControlWaveform":
        """Uniform-grid piecewise-constant waveform; scalar delta broadcasts."""
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        delta = np.broadcast_to(np.asarray(delta, dtype=float), omega.shape).copy()
        if omega.ndim != 1 or omega.size == 0:
            raise ValueError("omega must be a non-empty 1-d array of segment values")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(delta))):
            raise ValueError("segment values must be finite")
        n = omega.size
        dt = duration / n

        def sampler(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            idx = np.clip(np.floor(np.asarray(ts, dtype=float) / dt).astype(int), 0, n - 1)
            return delta[idx], omega[idx]

        return cls(duration, sampler, piece_delta=delta, piece_omega=omega)

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ts = np.asarray(ts, dtype=float)
        delta, omega = self.sampler(ts)
        return np.asarray(delta, dtype=float), np.asarray(omega, dtype=float)


@dataclass(frozen=True)
class Trajectory:
    """Propagated states on a time grid plus the waveform that drove them;
    the controls at the grid nodes are ``waveform.sample(times)``."""

    times: np.ndarray
    states: np.ndarray  # (K+1, 3) complex
    waveform: ControlWaveform
    #: how ``propagate`` made it: route, step count and the largest
    #: |norm - 1| over the states
    method: str
    steps: int
    max_drift: float

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    @property
    def final(self) -> TripletAmplitudes:
        return TripletAmplitudes.from_array(self.states[-1])


def _real_form(re: np.ndarray, im: np.ndarray, out: np.ndarray) -> None:
    """Write the real form [[Re M, -Im M], [Im M, Re M]] of the maps M =
    re + i im into ``out``; it acts on (Re c, Im c) as M acts on c."""
    d = re.shape[-1]
    out[..., :d, :d] = out[..., d:, d:] = re
    out[..., d:, :d] = im
    out[..., :d, d:] = -im


def segment_propagators(
    delta: np.ndarray, omega: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact propagators exp(-i H dt) of the distinct (delta, omega) pairs
    among the segments, via eigendecomposition, as a table for
    ``chain_indexed``.

    Bang-bang controls repeat a few values over many segments, so the
    spectral work runs once per distinct pair.  Returns (table, index,
    evals, evecs): segment k holds pair ``index[k]``; for m pairs, rows
    [0, m) of the table are the maps U in real form, rows [m, 2m) their
    transposes, which are the real forms of the adjoint maps U^H, and row
    2m is the identity that pads the scan.  evals/evecs are the pairs'
    spectra, reused by the adjoint gradient.  For H = V diag(E) V^T with V
    real, U = V cos(E dt) V^T - i V sin(E dt) V^T.
    """
    # complex keys sort and compare as (delta, omega) pairs
    key = np.empty(np.shape(delta), dtype=complex)
    key.real = delta
    key.imag = omega
    pairs, index = np.unique(key, return_inverse=True)
    evals, evecs = np.linalg.eigh(hc_batch(pairs.real, pairs.imag))
    arg = dt * evals
    vt = np.swapaxes(evecs, 1, 2).copy()
    m = pairs.size
    table = np.empty((2 * m + 1, 6, 6))
    re = np.matmul(evecs * np.cos(arg)[:, None, :], vt)
    _real_form(re, -np.matmul(evecs * np.sin(arg)[:, None, :], vt), table[:m])
    table[m : 2 * m] = np.swapaxes(table[:m], 1, 2)
    table[2 * m] = np.eye(6)
    return table, index, evals, evecs


def chain_indexed(table: np.ndarray, index: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """States of c_{k+1} = M_k c_k for b independent stacks, where step k of
    stack i applies the map whose real form is ``table[index[i, k]]``.

    ``table`` has shape (m, 2 dim, 2 dim) and holds the real forms
    [[Re M, -Im M], [Im M, Re M]], which act on (Re c, Im c) and whose
    products are several times cheaper than complex ones in numpy; its last
    row must be the identity.  ``index`` has shape (b, n), ``c0`` (b, dim);
    the result is the complex (b, n+1, dim) history with ``out[:, 0]`` equal
    to ``c0`` exactly.  A map shared by many steps is stored once.

    Two-level blocked scan (Blelloch, "Prefix sums and their applications",
    1990): the steps are cut into blocks of L = ceil(sqrt(n)), the last
    padded with the identity row, and gathered from the table block
    position first, so that every product runs on contiguous memory.  L
    batched products build the prefix products inside all blocks, a
    sequential pass over the ~sqrt(n) block-end products gives each block's
    entry state, and one batched product fills in every state.
    """
    b, n = index.shape
    d = table.shape[-1] // 2
    size = math.isqrt(max(n - 1, 0)) + 1
    nblk = max(-(-n // size), 1)
    layout = np.full((b, nblk * size), table.shape[0] - 1)
    layout[:, :n] = index
    # prefix[j, i, k] is step k * size + j of batch i, then, after the
    # loop, the product of steps k * size .. k * size + j
    prefix = table[layout.reshape(b, nblk, size).transpose(2, 0, 1)]
    for j in range(1, size):
        np.matmul(prefix[j], prefix[j - 1], out=prefix[j])
    entry = np.empty((b, nblk, 2 * d, 1))
    entry[:, 0, :d, 0] = c0.real
    entry[:, 0, d:, 0] = c0.imag
    for k in range(nblk - 1):
        np.matmul(prefix[-1, :, k], entry[:, k], out=entry[:, k + 1])
    x = np.matmul(prefix, entry)[..., 0].transpose(1, 2, 0, 3).reshape(b, nblk * size, 2 * d)
    out = np.empty((b, n + 1, d), dtype=complex)
    out[:, 0] = c0
    out[:, 1:].real = x[:, :n, :d]
    out[:, 1:].imag = x[:, :n, d:]
    return out


def _rk4_table(h: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step maps of a stack of frozen Hamiltonians, sum_{j<=4} A^j / j!
    with A = -i H dt, as a ``chain_indexed`` table (the n maps in real form,
    then the identity).  With a = H dt the map is (I - a^2/2 + a^4/24) -
    i (a - a^3/6), so a real symmetric H costs three real products and no
    complex arithmetic.  Each map differs from exp(-i H dt) by at most
    (|H| dt)^5 / 120 * exp(|H| dt) in any submultiplicative norm."""
    n, d = h.shape[0], h.shape[1]
    a = dt * h
    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2
    table = np.empty((n + 1, 2 * d, 2 * d))
    _real_form(np.eye(d) - a2 / 2.0 + a4 / 24.0, a3 / 6.0 - a, table[:n])
    table[n] = np.eye(2 * d)
    return table


def rk4_evolve(h_mid: np.ndarray, c0: np.ndarray, dt: float) -> np.ndarray:
    """March a state through the stack of midpoint-frozen Hamiltonians.

    ``h_mid[k]`` is the Hamiltonian frozen on step k, real symmetric (a
    stack of ``model.hc_batch`` or a leading block of one); works for any
    dimension.  Returns the full (n+1, dim) history.
    """
    n, dim = h_mid.shape[0], h_mid.shape[1]
    out = np.empty((n + 1, dim), dtype=complex)
    out[0] = c0
    for k in range(0, n, MAP_BLOCK):
        table = _rk4_table(h_mid[k : k + MAP_BLOCK], dt)
        steps = table.shape[0] - 1
        out[k : k + steps + 1] = chain_indexed(table, np.arange(steps)[None], out[k][None])[0]
    return out


def _auto_steps(waveform: ControlWaveform) -> int:
    """RK4 step count scaled to the pulse area max|omega|*T; above
    ``MAX_STEPS`` it is a ValueError, raised before any allocation."""
    if waveform.piece_omega is not None:
        peak = float(np.max(np.abs(waveform.piece_omega)))
    else:
        # a sampler that overflows gives a non-finite peak, which the area
        # check below reports, rather than numpy warnings
        with np.errstate(all="ignore"):
            _, w = waveform.sample(np.linspace(0.0, waveform.duration, 513))
            peak = float(np.max(np.abs(w)))
    # an infinite or NaN area fails this comparison too
    if not STEPS_PER_UNIT_AREA * peak * waveform.duration <= MAX_STEPS:
        raise ValueError(f"pulse area {peak * waveform.duration:.3g} needs over {MAX_STEPS} RK4 steps")
    steps = max(DEFAULT_STEPS, math.ceil(STEPS_PER_UNIT_AREA * peak * waveform.duration))
    if waveform.piece_omega is not None:
        # align step edges with segment edges so no step straddles a jump
        nseg = waveform.piece_omega.size
        steps = math.ceil(steps / nseg) * nseg
    if steps > MAX_STEPS:
        raise ValueError(f"{steps} RK4 steps exceed the ceiling of {MAX_STEPS}")
    return steps


def _gated_drift(states: np.ndarray) -> float:
    """Largest |norm - 1| over a state history; beyond ``DRIFT_LIMIT``, or
    NaN, it raises ``NonUnitaryDrift``."""
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    # a NaN drift fails this comparison too
    if not drift <= DRIFT_LIMIT:
        raise NonUnitaryDrift(
            f"norm drift {drift:.3e} exceeds {DRIFT_LIMIT:.0e}; the step policy under-resolves this waveform"
            " (for example a pulse narrower than its peak sampling)"
        )
    return drift


def _rk4_states(waveform: ControlWaveform, c0: np.ndarray) -> tuple[np.ndarray, float]:
    """Gated RK4 history of ``c0`` over the waveform at the ``_auto_steps``
    count, and its drift.  Each step is frozen at ``hc_batch`` of its
    midpoint controls, cut to the leading ``c0.size`` block: 3 for the
    triplet, 2 for the {|dd>, bell} block (see ``model``)."""
    n = _auto_steps(waveform)
    dt = waveform.duration / n
    d_mid, w_mid = waveform.sample((np.arange(n) + 0.5) * dt)
    k = c0.size
    states = rk4_evolve(hc_batch(d_mid, w_mid)[:, :k, :k], c0, dt)
    return states, _gated_drift(states)


def propagate(waveform: ControlWaveform, c0: TripletAmplitudes, method: str = "rk4") -> Trajectory:
    """Integrate i dc/dt = H_c(t) c over the waveform from state ``c0``.

    method="rk4": fixed-step midpoint-frozen RK4 at the ``_auto_steps``
    count.  method="piecewise-exponential": exact segment exponentials;
    requires a piecewise-constant waveform and returns states on the
    segment-edge grid.  Both routes pass the drift gate; the trajectory
    records the route, its step count and the measured drift.
    """
    c_init = c0.as_array()
    if method == "rk4":
        states, drift = _rk4_states(waveform, c_init)
    elif method == "piecewise-exponential":
        if waveform.piece_omega is None:
            raise MethodMismatch("piecewise-exponential integration needs a piecewise-constant waveform")
        dvals, wvals = waveform.piece_delta, waveform.piece_omega
        table, index, _, _ = segment_propagators(dvals, wvals, waveform.duration / wvals.size)
        states = chain_indexed(table, index[None], c_init[None])[0]
        drift = _gated_drift(states)
    else:
        raise ValueError(f"unknown method {method!r}")
    n = states.shape[0] - 1
    times = np.linspace(0.0, waveform.duration, n + 1)
    return Trajectory(times=times, states=states, waveform=waveform, method=method, steps=n, max_drift=drift)


def fidelity(traj: Trajectory) -> float:
    """Final population of the triplet Bell state, |c2(T)|^2."""
    return float(np.abs(traj.states[-1, 1]) ** 2)


def write_trajectory_csv(traj: Trajectory, path, config: Mapping | None = None) -> None:
    """Dump a trajectory as CSV (15 significant digits), with the controls
    sampled at the grid nodes.  ``config`` is embedded as a leading comment
    line for reproducibility audits."""
    c = traj.states
    re_im = np.stack([c.real, c.imag], axis=-1).reshape(c.shape[0], -1)
    columns = [traj.times, re_im, traj.populations, *traj.waveform.sample(traj.times)]
    write_csv(path, TRAJECTORY_CSV_COLUMNS, columns, config)
