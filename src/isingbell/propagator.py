"""Schrodinger propagation for the rotating-frame triplet system.

Times are in units of 1/xi with the coupling xi = 1 fixed (see ``model``).
A waveform is either piecewise constant, when it carries its segment values
(``piece_omega is not None``), or parametric, a vectorized sampler.

Two integration routes are provided and cross-checked against each other.
Both build their per-step maps in batch and share one kernel,
``chain_indexed``, a blocked scan in real arithmetic that applies them in
order with O(sqrt(n)) numpy calls instead of one call per step.  It reads
each step's map from a table by index, so a map shared by many steps is
built once.  Maps come from one of two builders: ``_taylor_table``, a
truncated Taylor series of exp(-i H dt) from real powers of H dt, for
steps whose maps are all distinct, and ``segment_propagators``, exact
exponentials via eigendecomposition, once per distinct (delta, omega)
pair, for piecewise-constant controls:

* ``rk4``: fixed-step RK4 with the control pair frozen at each step
  midpoint.  For a frozen H one RK4 step is exactly the degree-4 Taylor
  polynomial of exp(-i H dt), so ``_taylor_table`` at degree 4, unscaled,
  is the step map; on grids aligned with the segment edges the route
  agrees with the exponential one to Taylor error (~1e-13 at default
  resolution).  Freezing at the midpoint keeps delta-like pulses and
  discontinuous waveforms well behaved; for smooth controls the route is
  second order in time.  It is the default of ``propagate``, the
  independent cross-check of the other route, and the route of
  ``shortcut.two_level_inversion``.
* ``piecewise-exponential``: exponentials exp(-i H dt) of real symmetric
  Hamiltonians.  A piecewise-constant waveform is propagated segment by
  segment, exactly, with the ``segment_propagators`` maps.  A parametric
  one takes the commutator-free fourth-order step CF4:2 (Blanes & Moan,
  Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput. Phys.
  230, 5930 (2011)): a step of length D samples the controls x = (delta,
  omega) at the Gauss nodes t + (1/2 -+ sqrt(3)/6) D and applies
  exp(-i D (a1 H1 + a2 H2)) exp(-i D (a2 H1 + a1 H2)) with
  a1,2 = 1/4 -+ sqrt(3)/6.  H is affine in x with weights summing to one,
  so each factor is a half-step exponential at the effective controls
  2 (a2 x1 + a1 x2), then 2 (a1 x1 + a2 x2).  ``_taylor_table`` builds
  those half-step maps at degree 12, scaling and squaring past
  ``TAYLOR_THETA``; they agree with the eigendecomposition to rounding
  (~1e-15) and need no sort of the all-distinct pairs and no ``eigh``.
  The history is kept at the step edges.

The optimizer runs its forward pass and its adjoint pass (the adjoint maps
in reverse order, appended to the ``segment_propagators`` table as their
transposed real forms) through the same kernel in one batched call, and
reuses the pairs' spectra for its gradient.

Step counts have one source, ``step_count``, which bounds the step by the
Gershgorin bound |H| <= 4 + max|delta| + sqrt(2) max|omega|, detuning
included, and by the pulse area max|omega| T for RK4; no caller picks a
count, and one above ``MAX_STEPS`` is a ValueError raised before any
allocation.  ``propagate`` asks for the count itself unless its caller
already did (the CLI does, so that it can refuse a waveform before it
writes anything).  The gates, each raising ``NonUnitaryDrift``:

* every state history, of either route, passes one drift gate: norm drift
  beyond ``DRIFT_LIMIT`` = 1e-8, or a NaN norm;
* a CF4 history also reports the step-halving estimate |c_N(T) -
  c_{N/2}(T)| (about 15 times its error at fourth order); above
  ``HALVING_TOL`` the count doubles, and past ``MAX_STEPS`` it raises;
* step halving cannot see a jump that both counts straddle, so the CF4
  route first probes the controls on 4000 intervals, the spacing of the
  default RK4 grid, and refuses adjacent samples that differ by more than
  ``JUMP_LIMIT`` of the channel's peak.

Any of them means the policy under-resolves the waveform, never a physical
effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .artifacts import write_csv
from .model import SQRT2, TripletAmplitudes, hc_batch

DRIFT_LIMIT = 1e-8
#: fewest RK4 steps of one propagation
DEFAULT_STEPS = 4000
#: RK4 steps per unit of max|omega|*T; pulse area, not duration, sets the
#: resolution a delta-like pulse needs.  Per ten units of |H| T as well, so
#: a strong detuning is resolved too.
STEPS_PER_UNIT_AREA = 1000
#: fewest CF4 steps of one parametric propagation, and CF4 steps per unit
#: of |H| T (|H| D <= 1/6); the shortcut datasets take 100-400 steps,
#: the two table1 series 200 and 910
CF4_MIN_STEPS = 100
CF4_STEPS_PER_UNIT_NORM = 6
#: largest accepted step-halving estimate |c_N(T) - c_{N/2}(T)| of a CF4
#: history; the error of c_N is about a fifteenth of it
HALVING_TOL = 1e-7
#: largest jump between adjacent probe samples of a control channel, as a
#: share of the channel's peak, that the CF4 route accepts; the shortcut
#: and table1 datasets reach 0.003, a discontinuous pulse 1
JUMP_LIMIT = 0.05
#: control samples (evenly spaced, endpoints included) from which the
#: policy reads a parametric waveform: RK4's peak probe, and the CF4 probe
#: at the 4000-step spacing its jump guard needs
PROBE_SAMPLES = {"rk4": 513, "piecewise-exponential": 4001}
#: CF4:2 Gauss-node offset and weights
CF4_NODE = math.sqrt(3.0) / 6.0
CF4_A1, CF4_A2 = 0.25 - CF4_NODE, 0.25 + CF4_NODE
#: Taylor degree of the CF4 half-step maps, and the largest |A|_inf =
#: |H|_inf D / 2 they take unscaled: there the remainder is below
#: 0.25^13 / 13! e^0.25 ~ 3e-18, under rounding.  The step policy keeps the
#: shortcut and table1 half-steps below 0.17; only forced coarse grids
#: scale and square.
CF4_TAYLOR_DEGREE = 12
TAYLOR_THETA = 0.25
#: most steps one propagation may take, at a few hundred bytes of arrays
#: each
MAX_STEPS = 1_000_000
#: step maps are built and chained this many steps at a time, so the
#: scan's real-form scratch stays O(MAP_BLOCK).  Peak RSS over 38,234 RK4
#: steps (ru_maxrss, one process): 86.6 MiB blocked, 119 MiB with every
#: map built and scanned at once.
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
    #: how ``propagate`` made it: route, step count, the largest |norm - 1|
    #: over the states, and the CF4 step-halving estimate (0.0 for exact
    #: segments, None for RK4, which makes none)
    method: str
    steps: int
    max_drift: float
    error_estimate: float | None

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
    ``chain_indexed``: the maps of piecewise-constant waveforms and of the
    optimizer, whose gradient reuses the spectra.

    Bang-bang controls repeat a few values over many segments, so the
    spectral work runs once per distinct pair.  Returns (table, index,
    evals, evecs): segment k holds pair ``index[k]``; for m pairs, rows
    [0, m) of the table are the maps U in real form and row m is the
    identity that pads the scan.  evals/evecs are the pairs' spectra.  For
    H = V diag(E) V^T with V real, U = V cos(E dt) V^T - i V sin(E dt) V^T.
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
    table = np.empty((m + 1, 6, 6))
    re = np.matmul(evecs * np.cos(arg)[:, None, :], vt)
    _real_form(re, -np.matmul(evecs * np.sin(arg)[:, None, :], vt), table[:m])
    table[m] = np.eye(6)
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


def _taylor_table(h: np.ndarray, dt: float, degree: int, theta: float = math.inf) -> np.ndarray:
    """Step maps sum_{j<=degree} A^j / j! with A = -i H dt of a stack of
    real symmetric H, as a ``chain_indexed`` table (the n maps in real form,
    then the identity).

    With a = H dt and B = a^2 the map is p(B) - i a q(B), the even terms
    p(B) = I - B/2 + B^2/24 - ... and the odd ones q(B) = I - B/6 + B^2/120
    - ..., so a real symmetric H needs real products only.  p and q are
    evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 60 (1973)) in B:
    with I, B, ..., B^s stored, s = ceil(sqrt(degree / 2)), each run of s
    coefficients is a linear combination of them, and the runs are nested
    Horner-fashion in B^s.  Degree 4, the frozen-midpoint RK4 step, costs
    three batched products; degree 12 six.  Unscaled, each map differs from
    exp(-i H dt) by at most x^(d+1) / (d+1)! e^x, x = |H| dt and d the
    degree, in any submultiplicative norm.  When the largest |A|_inf of the
    stack exceeds ``theta``, every A is scaled by 2^-k to at most ``theta``
    and the maps are squared k times (Moler & Van Loan, SIAM Rev. 45, 3
    (2003); Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005))."""
    n, d = h.shape[0], h.shape[1]
    norm = dt * float(np.max(np.abs(h).reshape(-1, d) @ np.ones(d)))
    # a non-finite norm skips the scaling; the drift gate reports the NaN
    squarings = math.ceil(math.log2(norm / theta)) if theta < norm < math.inf else 0
    a = (dt / 2.0**squarings) * h
    m = degree // 2
    s = math.isqrt(max(m - 1, 0)) + 1
    powers = np.empty((s + 1, n, d, d))
    powers[0] = np.eye(d)
    powers[1] = a @ a
    for j in range(2, s + 1):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    flat = powers.reshape(s + 1, n * d * d)

    def series(coeffs: list[float]) -> np.ndarray:
        # runs [0, s), [s, 2s), ...; the top run also takes the B^s term
        starts = list(range(0, max(len(coeffs) - 1, 1), s))
        top = coeffs[starts[-1] :]
        out = np.dot(top, flat[: len(top)]).reshape(n, d, d)
        for k in reversed(starts[:-1]):
            out = np.dot(coeffs[k : k + s], flat[:s]).reshape(n, d, d) + powers[s] @ out
        return out

    p = series([(-1.0) ** k / math.factorial(2 * k) for k in range(m + 1)])
    q = series([(-1.0) ** k / math.factorial(2 * k + 1) for k in range((degree + 1) // 2)])
    table = np.empty((n + 1, 2 * d, 2 * d))
    _real_form(p, -(a @ q), table[:n])
    for _ in range(squarings):
        table[:n] = table[:n] @ table[:n]
    table[n] = np.eye(2 * d)
    return table


def _chain_blocks(
    build: Callable[[int, int], tuple[np.ndarray, np.ndarray]], n: int, c0: np.ndarray, stride: int = 1
) -> np.ndarray:
    """History of ``c0`` through n step maps, built and chained
    ``MAP_BLOCK`` steps at a time, so the tables and the scan's scratch
    stay O(MAP_BLOCK); ``build(k, stop)`` returns the ``chain_indexed``
    table and index of steps [k, stop).  Keeps every ``stride``-th state
    (``stride`` divides n and ``MAP_BLOCK``)."""
    out = np.empty((n // stride + 1, c0.size), dtype=complex)
    out[0] = c0
    for k in range(0, n, MAP_BLOCK):
        table, index = build(k, min(k + MAP_BLOCK, n))
        states = chain_indexed(table, index[None], out[k // stride][None])[0]
        out[k // stride + 1 : (k + index.size) // stride + 1] = states[stride::stride]
    return out


def rk4_evolve(h_mid: np.ndarray, c0: np.ndarray, dt: float) -> np.ndarray:
    """March a state through the stack of midpoint-frozen Hamiltonians.

    ``h_mid[k]`` is the Hamiltonian frozen on step k, real symmetric (a
    stack of ``model.hc_batch`` or a leading block of one); works for any
    dimension.  Returns the full (n+1, dim) history.
    """

    def build(k: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        return _taylor_table(h_mid[k:stop], dt, 4), np.arange(stop - k)

    return _chain_blocks(build, h_mid.shape[0], c0)


def _cf4_controls(waveform: ControlWaveform, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Effective controls (delta, omega) of the 2n half-steps of n CF4:2
    steps, in order (see the module docstring)."""
    dt = waveform.duration / n
    nodes = np.arange(n)[:, None] * dt + np.array([0.5 - CF4_NODE, 0.5 + CF4_NODE]) * dt
    d, w = waveform.sample(nodes.ravel())
    # rows (x1, x2) -> (2 (a2 x1 + a1 x2), 2 (a1 x1 + a2 x2)), the first
    # half-step first; the mixing matrix is symmetric
    mix = 2.0 * np.array([[CF4_A2, CF4_A1], [CF4_A1, CF4_A2]])
    return (d.reshape(n, 2) @ mix).ravel(), (w.reshape(n, 2) @ mix).ravel()


def _cf4_history(waveform: ControlWaveform, c0: np.ndarray, n: int) -> np.ndarray:
    """History of ``c0`` at the edges of n CF4:2 steps: per step, two
    half-step maps at the effective controls of its Gauss nodes, degree-12
    Taylor maps from ``_taylor_table``, chained by ``chain_indexed``."""
    d_eff, w_eff = _cf4_controls(waveform, n)
    half = waveform.duration / (2 * n)

    def build(k: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        h = hc_batch(d_eff[k:stop], w_eff[k:stop])
        return _taylor_table(h, half, CF4_TAYLOR_DEGREE, TAYLOR_THETA), np.arange(stop - k)

    return _chain_blocks(build, 2 * n, c0, stride=2)


def step_count(waveform: ControlWaveform, method: str = "rk4") -> int:
    """Step count of a route over the waveform, from one bound on the step.

    The exact route of a piecewise-constant waveform takes one step per
    segment.  Otherwise the controls are read from the segment values of a
    piecewise waveform, or from ``PROBE_SAMPLES[method]`` evenly spaced
    samples of a parametric one, and bound the Hamiltonian by its largest row sum, |H| <= 4 + max|delta| +
    sqrt(2) max|omega| (Gershgorin).  RK4 takes max(``DEFAULT_STEPS``,
    ceil(``STEPS_PER_UNIT_AREA`` T max(max|omega|, |H| / 10))) steps, so
    max|omega| dt <= 1e-3 and |H| dt <= 1e-2, raised to a multiple of the
    segment count of a piecewise waveform.  The parametric exponential
    route takes max(``CF4_MIN_STEPS``, 2 ceil(``CF4_STEPS_PER_UNIT_NORM``
    |H| T / 2)) steps, an even count so that its step-halving estimate can
    run half as many; adjacent probe samples that differ by more than
    ``JUMP_LIMIT`` of a channel's peak raise ``NonUnitaryDrift``, since a
    jump fools that estimate.  A count above ``MAX_STEPS`` is a ValueError,
    raised before any allocation.  ``propagate`` asks for the count unless
    its caller already did, so a caller can refuse a waveform before it
    starts writing its output without the waveform being probed twice.
    """
    if method not in PROBE_SAMPLES:
        raise ValueError(f"unknown method {method!r}")
    duration = waveform.duration
    if waveform.piece_omega is not None and method != "rk4":
        return waveform.piece_omega.size
    if waveform.piece_omega is not None:
        d, w = waveform.piece_delta, waveform.piece_omega
    else:
        # a sampler that overflows gives a non-finite bound, which the
        # check below reports, rather than numpy warnings
        with np.errstate(all="ignore"):
            d, w = waveform.sample(np.linspace(0.0, duration, PROBE_SAMPLES[method]))
    peak = float(np.max(np.abs(w)))
    # Python floats: an overflow gives inf, which fails the check below
    norm = 4.0 + float(np.max(np.abs(d))) + SQRT2 * peak
    if method == "rk4":
        floor, rate, even = DEFAULT_STEPS, STEPS_PER_UNIT_AREA * max(peak, norm / 10.0), 1
    else:
        floor, rate, even = CF4_MIN_STEPS, CF4_STEPS_PER_UNIT_NORM * norm, 2
    # an infinite or NaN bound fails this comparison too
    if not rate * duration <= MAX_STEPS:
        raise ValueError(
            f"pulse area {peak * duration:.3g} and |H| T <= {norm * duration:.3g} need over {MAX_STEPS} steps"
        )
    if method != "rk4":
        # step halving cannot see a jump that both counts straddle alike
        for x in (d, w):
            scale = float(np.max(np.abs(x)))
            jump = float(np.max(np.abs(np.diff(x)))) / scale if scale > 0.0 else 0.0
            if jump > JUMP_LIMIT:
                raise NonUnitaryDrift(
                    f"the controls jump by {jump:.3g} of their peak between adjacent probe samples, beyond"
                    f" {JUMP_LIMIT:g}; the piecewise-exponential route needs smooth or piecewise-constant controls"
                )
    steps = max(floor, even * math.ceil(rate * duration / even))
    if waveform.piece_omega is not None:
        # align step edges with segment edges so no step straddles a jump
        nseg = waveform.piece_omega.size
        steps = math.ceil(steps / nseg) * nseg
    if steps > MAX_STEPS:
        raise ValueError(f"{steps} steps exceed the ceiling of {MAX_STEPS}")
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


def _rk4_states(waveform: ControlWaveform, c0: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Gated RK4 history of ``c0`` over the waveform in n steps (the
    ``step_count``), and its drift.  Each step is frozen at ``hc_batch`` of
    its midpoint controls, cut to the leading ``c0.size`` block: 3 for the
    triplet, 2 for the {|dd>, bell} block (see ``model``)."""
    dt = waveform.duration / n
    d_mid, w_mid = waveform.sample((np.arange(n) + 0.5) * dt)
    k = c0.size
    states = rk4_evolve(hc_batch(d_mid, w_mid)[:, :k, :k], c0, dt)
    return states, _gated_drift(states)


def _cf4_states(waveform: ControlWaveform, c0: np.ndarray, n: int) -> tuple[np.ndarray, float, float]:
    """Gated CF4 history of ``c0`` over a parametric waveform, its drift and
    its step-halving estimate |c_N(T) - c_{N/2}(T)|.  N starts at n, the
    ``step_count``, and doubles while the estimate exceeds ``HALVING_TOL``;
    past ``MAX_STEPS`` that raises ``NonUnitaryDrift``."""
    coarse = _cf4_history(waveform, c0, n // 2)[-1]
    while True:
        states = _cf4_history(waveform, c0, n)
        drift = _gated_drift(states)
        error = float(np.linalg.norm(states[-1] - coarse))
        if error <= HALVING_TOL:
            return states, drift, error
        if 2 * n > MAX_STEPS:
            raise NonUnitaryDrift(
                f"step-halving estimate {error:.3e} exceeds {HALVING_TOL:.0e} at {n} steps, and {2 * n} exceed"
                f" the ceiling of {MAX_STEPS}; the step policy under-resolves this waveform"
            )
        coarse, n = states[-1], 2 * n


def propagate(
    waveform: ControlWaveform, c0: TripletAmplitudes, method: str = "rk4", steps: int | None = None
) -> Trajectory:
    """Integrate i dc/dt = H_c(t) c over the waveform from state ``c0``.

    method="rk4": fixed-step midpoint-frozen RK4.
    method="piecewise-exponential": exact segment exponentials on the
    segment-edge grid of a piecewise-constant waveform, CF4:2 steps at the
    step edges of a parametric one.  ``steps`` is ``step_count(waveform,
    method)`` when the caller has it already; None asks for it here.  Every
    history passes the drift gate; the trajectory records the route, its
    step count, the measured drift and the error estimate.
    """
    c_init = c0.as_array()
    n = step_count(waveform, method) if steps is None else steps
    error = None
    if method == "rk4":
        states, drift = _rk4_states(waveform, c_init, n)
    elif method == "piecewise-exponential" and waveform.piece_omega is None:
        states, drift, error = _cf4_states(waveform, c_init, n)
    elif method == "piecewise-exponential":
        table, index, _, _ = segment_propagators(waveform.piece_delta, waveform.piece_omega, waveform.duration / n)
        states = chain_indexed(table, index[None], c_init[None])[0]
        drift, error = _gated_drift(states), 0.0
    else:
        raise ValueError(f"unknown method {method!r}")
    n = states.shape[0] - 1
    times = np.linspace(0.0, waveform.duration, n + 1)
    return Trajectory(
        times=times, states=states, waveform=waveform, method=method, steps=n, max_drift=drift, error_estimate=error
    )


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
