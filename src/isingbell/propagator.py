"""Schrodinger propagation for the rotating-frame triplet system.

Times are in units of 1/xi with the coupling xi = 1 fixed (see ``model``).
A waveform is a vectorized sampler over pieces between its ``piece_edges``.
It is piecewise constant when it carries its piece values (``piece_omega is
not None``), and parametric otherwise: a single piece from 0 to its
duration.

Two integration routes are provided and cross-checked against each other.
Both build their per-step maps in batch and share one kernel,
``chain_indexed``, a blocked scan in real arithmetic that applies them in
order with O(sqrt(n)) numpy calls instead of one call per step.  It reads
each step's map from a table by index, so a map shared by many steps is
built once.  Maps come from one of two builders: ``_taylor_table``, a
truncated Taylor series of exp(-i H dt) from real powers of H dt, for
steps whose maps are all distinct, and ``segment_propagators``, exact
exponentials via eigendecomposition, for piecewise-constant controls, once
per piece (per distinct (delta, omega) pair on the optimizer's grid):

* ``rk4``: fixed-step RK4 with the control pair frozen at each step
  midpoint, whole steps inside each piece.  For a frozen H one RK4 step is
  exactly the degree-4 Taylor polynomial of exp(-i H dt), so
  ``_taylor_table`` at degree 4 is the step map.  Steps never
  straddle the edges of a piecewise waveform, so there the route agrees
  with the exponential one to Taylor error (~1e-13 at default
  resolution).  Freezing at the midpoint keeps delta-like pulses well
  behaved; for smooth controls the route is second order in time.  It is
  the default of ``propagate``, the independent cross-check of the other
  route, and the route of ``shortcut.two_level_inversion``.
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
  those half-step maps at degree 12, unscaled at the policy's step; they
  agree with the eigendecomposition to rounding (~1e-15) and need no sort
  of the all-distinct pairs and no ``eigh``.
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
#: at the spacing of the default RK4 grid, which its jump guard needs
PROBE_SAMPLES = {"rk4": 513, "piecewise-exponential": DEFAULT_STEPS + 1}
#: CF4:2 Gauss-node offset and weights
CF4_NODE = math.sqrt(3.0) / 6.0
CF4_A1, CF4_A2 = 0.25 - CF4_NODE, 0.25 + CF4_NODE
#: Taylor degree of the CF4 half-step maps: exact to rounding at the
#: policy's |H|_inf D / 2 <= 0.19 (see ``_taylor_table``)
CF4_TAYLOR_DEGREE = 12
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
    their piece values, so the exponential route and the optimizer can use
    them directly.  Every waveform has piece edges; a parametric one, given
    none, is one piece, [0, duration].
    """

    duration: float
    sampler: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    piece_delta: np.ndarray | None = None
    piece_omega: np.ndarray | None = None
    #: piece edges, rising from 0 to ``duration``; [0, duration] when not given
    piece_edges: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        if self.piece_edges is None:
            object.__setattr__(self, "piece_edges", np.array([0.0, self.duration]))

    @classmethod
    def piecewise_constant(
        cls,
        duration: float,
        omega: Sequence[float] | np.ndarray,
        delta: float | Sequence[float] | np.ndarray = 0.0,
        edges: Sequence[float] | np.ndarray | None = None,
    ) -> "ControlWaveform":
        """Piecewise-constant waveform; scalar delta broadcasts.  The pieces
        span the strictly increasing ``edges`` from 0 to ``duration`` (an
        even grid by default), each from its start edge: sampling is
        right-continuous."""
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        delta = np.broadcast_to(np.asarray(delta, dtype=float), omega.shape).copy()
        if omega.ndim != 1 or omega.size == 0:
            raise ValueError("omega must be a non-empty 1-d array of segment values")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(delta))):
            raise ValueError("segment values must be finite")
        n = omega.size
        if edges is None:
            with np.errstate(invalid="ignore"):  # __post_init__ refuses a non-finite duration
                edges = np.linspace(0.0, duration, n + 1)
        else:
            edges = np.asarray(edges, dtype=float)
            if edges.shape != (n + 1,) or edges[0] != 0.0 or edges[-1] != duration or not np.all(np.diff(edges) > 0):
                raise ValueError(f"edges must rise strictly from 0 to the duration {duration}, one more than the pieces")

        def sampler(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            idx = np.clip(np.searchsorted(edges, np.asarray(ts, dtype=float), side="right") - 1, 0, n - 1)
            return delta[idx], omega[idx]

        return cls(duration, sampler, piece_delta=delta, piece_omega=omega, piece_edges=edges)

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
    delta: np.ndarray, omega: np.ndarray, dt: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact propagators exp(-i H dt) of the pieces, via
    eigendecomposition, as a table for ``chain_indexed``: the maps of
    piecewise-constant waveforms and of the optimizer, whose gradient reuses
    the spectra.  ``dt`` is one duration per piece, or one for all.

    Bang-bang controls repeat a few values over many segments, so with one
    duration the spectral work runs once per distinct (delta, omega) pair;
    with one duration per piece (a waveform's pieces) it runs once per piece.
    Returns (table, index, evals, vt): piece k holds row ``index[k]``; for
    m rows, the m rows of the table are the maps U in real form, and evals
    and vt = V^T their spectra.  For H = V diag(E) V^T with V real,
    U = V cos(E dt) V^T - i V sin(E dt) V^T.
    """
    if np.ndim(dt) == 0:
        # complex keys sort and compare as (delta, omega) pairs
        key = np.empty(np.shape(delta), dtype=complex)
        key.real = delta
        key.imag = omega
        pairs, index = np.unique(key, return_inverse=True)
        delta, omega = pairs.real, pairs.imag
    else:
        index = np.arange(np.size(dt))
        dt = np.asarray(dt)[:, None]
    evals, evecs = np.linalg.eigh(hc_batch(delta, omega))
    arg = dt * evals
    vt = np.swapaxes(evecs, 1, 2).copy()
    table = np.empty((evals.shape[0], 6, 6))
    re = np.matmul(evecs * np.cos(arg)[:, None, :], vt)
    _real_form(re, -np.matmul(evecs * np.sin(arg)[:, None, :], vt), table)
    return table, index, evals, vt


def chain_indexed(table: np.ndarray, index: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """States of c_{k+1} = M_k c_k for b independent stacks, where step k of
    stack i applies the map whose real form is ``table[index[i, k]]``.

    ``table`` has shape (m, 2 dim, 2 dim) and holds the real forms
    [[Re M, -Im M], [Im M, Re M]], which act on (Re c, Im c) and whose
    products are several times cheaper than complex ones in numpy.
    ``index`` has shape (b, n), ``c0`` (b, dim); the result is the complex
    (b, n+1, dim) history with ``out[:, 0]`` equal to ``c0`` exactly.  A
    map shared by many steps is stored once.

    Two-level blocked scan (Blelloch, "Prefix sums and their applications",
    1990): the steps are cut into blocks of L = ceil(sqrt(n)), the last
    padded with identity maps, and gathered from the table block
    position first, so that every product runs on contiguous memory.  L
    batched products build the prefix products inside all blocks, a
    sequential pass over the ~sqrt(n) block-end products gives each block's
    entry state, and one batched product fills in every state.
    """
    b, n = index.shape
    d = table.shape[-1] // 2
    size = math.isqrt(max(n - 1, 0)) + 1
    nblk = max(-(-n // size), 1)
    layout = np.zeros((b, nblk * size), dtype=int)
    layout[:, :n] = index
    # prefix[j, i, k] is step k * size + j of batch i, then, after the
    # loop, the product of steps k * size .. k * size + j
    prefix = table[layout.reshape(b, nblk, size).transpose(2, 0, 1)]
    prefix[n - (nblk - 1) * size :, :, -1] = np.eye(2 * d)
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


def _taylor_table(a_stack: np.ndarray, degree: int) -> np.ndarray:
    """Step maps sum_{j<=degree} (-i a)^j / j! of a stack of a = H dt, each
    a real symmetric H times its step length, as a ``chain_indexed`` table
    of the n maps in real form.

    With B = a^2 the map is p(B) - i a q(B), the even terms
    p(B) = I - B/2 + B^2/24 - ... and the odd ones q(B) = I - B/6 + B^2/120
    - ..., so a real symmetric H needs real products only.  p and q are
    evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 60 (1973)) in B:
    with I, B, ..., B^s stored, s = ceil(sqrt(degree / 2)), each run of s
    coefficients is a linear combination of them, and the runs are nested
    Horner-fashion in B^s.  Degree 4, the frozen-midpoint RK4 step, costs
    three batched products; degree 12 six.  Each map differs from
    exp(-i H dt) by at most x^(d+1) / (d+1)! e^x, x = |H| dt and d the
    degree, in any submultiplicative norm; the step policy keeps x small, so
    no map is scaled and squared.  RK4 steps have x <= 1e-2.  A CF4 step D
    has |H|_inf D <= 1/6 at the probe's peak controls (``cf4_steps``) and
    effective controls at most 2 (|a1| + |a2|) = 2 / sqrt(3) times those, so
    x <= 1 / (6 sqrt(3)) ~ 0.096 per half-step, 0.19 on the N/2 halving
    run, where the degree-12 remainder is ~1e-19.  A count forced below the
    policy is left to the drift gate and the halving estimate."""
    n, d = a_stack.shape[0], a_stack.shape[1]
    m = degree // 2
    s = math.isqrt(max(m - 1, 0)) + 1
    powers = np.empty((s + 1, n, d, d))
    powers[0] = np.eye(d)
    powers[1] = a_stack @ a_stack
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
    table = np.empty((n, 2 * d, 2 * d))
    _real_form(p, -(a_stack @ q), table)
    return table


def _taylor_chain(a_stack: np.ndarray, degree: int, c0: np.ndarray, stride: int = 1) -> np.ndarray:
    """History of ``c0`` through the ``_taylor_table`` maps of the stack
    a = H dt, one step each, tabled and chained ``MAP_BLOCK`` steps at a time,
    so the tables and the scan's scratch stay O(MAP_BLOCK).  Keeps every
    ``stride``-th state (``stride`` divides the step count and
    ``MAP_BLOCK``)."""
    n = a_stack.shape[0]
    out = np.empty((n // stride + 1, c0.size), dtype=complex)
    out[0] = c0
    for k in range(0, n, MAP_BLOCK):
        table = _taylor_table(a_stack[k : k + MAP_BLOCK], degree)
        states = chain_indexed(table, np.arange(len(table))[None], out[k // stride][None])[0]
        out[k // stride + 1 : (k + len(table)) // stride + 1] = states[stride::stride]
    return out


def rk4_evolve(h_mid: np.ndarray, c0: np.ndarray, dt: float) -> np.ndarray:
    """March a state through the stack of midpoint-frozen Hamiltonians.

    ``h_mid[k]`` is the Hamiltonian frozen on step k, real symmetric (a
    stack of ``model.hc_batch`` or a leading block of one); works for any
    dimension.  Returns the full (n+1, dim) history.
    """
    return _taylor_chain(h_mid * dt, 4, c0)


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
    Taylor maps chained by ``_taylor_chain``."""
    h = hc_batch(*_cf4_controls(waveform, n))
    return _taylor_chain(h * (waveform.duration / (2 * n)), CF4_TAYLOR_DEGREE, c0, stride=2)


def norm_bound(delta_peak: float, omega_peak: float) -> float:
    """Gershgorin bound on |H| for |delta| <= delta_peak and |omega| <=
    omega_peak: the largest row sum, 4 + delta_peak + sqrt(2) omega_peak."""
    return 4.0 + delta_peak + SQRT2 * omega_peak


def cf4_steps(norm: float, duration: float) -> int:
    """The even count of CF4 steps that resolves |H| <= norm over the
    duration: 2 ceil(``CF4_STEPS_PER_UNIT_NORM`` norm T / 2)."""
    return 2 * math.ceil(CF4_STEPS_PER_UNIT_NORM * norm * duration / 2)


def step_count(waveform: ControlWaveform, method: str = "rk4") -> int:
    """Step count of a route over the waveform, from one bound on the step.

    The exact route of a piecewise-constant waveform takes one step per
    piece.  Otherwise the controls are read from the piece values of a
    piecewise waveform, or from ``PROBE_SAMPLES[method]`` evenly spaced
    samples of a parametric one, and bound the Hamiltonian by its largest
    row sum, |H| <= 4 + max|delta| + sqrt(2) max|omega| (Gershgorin).  RK4
    takes N = max(``DEFAULT_STEPS``, ceil(``STEPS_PER_UNIT_AREA`` T
    max(max|omega|, |H| / 10))) steps, so max|omega| dt <= 1e-3 and
    |H| dt <= 1e-2; N sets the step bound, and the route takes ceil(N d / T)
    whole steps in a piece of duration d, at most N + pieces in all
    (``_piece_steps``; a parametric waveform's one piece takes N).  The
    parametric exponential route takes max(``CF4_MIN_STEPS``, 2
    ceil(``CF4_STEPS_PER_UNIT_NORM`` |H| T / 2)) steps, an even count so
    that its step-halving estimate can run half as many; adjacent probe samples that differ by more than
    ``JUMP_LIMIT`` of a channel's peak raise ``NonUnitaryDrift``, since a
    jump fools that estimate.  A count above ``MAX_STEPS`` on any route (the
    total over the pieces the route takes), or controls whose bound is not
    finite, is a ValueError, raised before any allocation.  ``propagate``
    asks for the count unless its caller already did, so a caller can
    refuse a waveform before it starts writing its output without the
    waveform being probed twice.
    """
    if method not in PROBE_SAMPLES:
        raise ValueError(f"unknown method {method!r}")
    duration = waveform.duration
    if waveform.piece_omega is not None and method != "rk4":
        return _under_ceiling(waveform.piece_omega.size)
    if waveform.piece_omega is not None:
        d, w = waveform.piece_delta, waveform.piece_omega
    else:
        # a sampler that overflows gives a non-finite bound, which the
        # check below reports, rather than numpy warnings
        with np.errstate(all="ignore"):
            d, w = waveform.sample(np.linspace(0.0, duration, PROBE_SAMPLES[method]))
    peak = float(np.max(np.abs(w)))
    # Python floats: an overflow gives inf, which fails the check below
    norm = norm_bound(float(np.max(np.abs(d))), peak)
    if method == "rk4":
        floor, rate = DEFAULT_STEPS, STEPS_PER_UNIT_AREA * max(peak, norm / 10.0)
    else:
        floor, rate = CF4_MIN_STEPS, CF4_STEPS_PER_UNIT_NORM * norm
    # an infinite or NaN bound fails this comparison too
    if not rate * duration <= MAX_STEPS:
        if not math.isfinite(norm):
            raise ValueError("the controls are not finite, so their pulse area and |H| T bound no step count")
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
    steps = max(floor, math.ceil(rate * duration) if method == "rk4" else cf4_steps(norm, duration))
    _under_ceiling(int(np.sum(_piece_steps(waveform, steps))))
    return steps


def _piece_steps(waveform: ControlWaveform, n: int) -> np.ndarray:
    """RK4 steps in each piece of a waveform at step count n:
    ceil(n (d / T)) in a piece of duration d; dividing first makes a lone
    piece take exactly n, where n d / T can round above n."""
    return np.ceil(n * (np.diff(waveform.piece_edges) / waveform.duration)).astype(int)


def _under_ceiling(steps: int) -> int:
    """``steps``, or a ValueError when it exceeds ``MAX_STEPS``."""
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


def _rk4_grid(waveform: ControlWaveform, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Step edges and the stack H dt of the RK4 route at step count n.
    Each piece takes whole steps (``_piece_steps``), since a step that
    straddled a jump of omega by 2 would cost about 1e-4 in amplitude; step
    k of a piece cut into q steps of length dt is frozen at the controls of
    its own midpoint, start + (k + 1/2) dt.  A parametric waveform, one
    piece, takes n steps of T / n."""
    edges = waveform.piece_edges
    per_piece = _piece_steps(waveform, n)
    length = np.repeat(np.diff(edges) / per_piece, per_piece)
    start = np.repeat(edges[:-1], per_piece)
    k = np.arange(length.size) - np.repeat(np.cumsum(per_piece) - per_piece, per_piece)
    h = hc_batch(*waveform.sample(start + (k + 0.5) * length))
    return np.append(start + k * length, edges[-1]), h * length[:, None, None]


def _rk4_states(waveform: ControlWaveform, c0: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Step edges and gated RK4 history of ``c0`` over the waveform at step
    count n (the ``step_count``), and its drift.  Each step is frozen at
    ``hc_batch`` of its controls (``_rk4_grid``), cut to the leading
    ``c0.size`` block: 3 for the triplet, 2 for the {|dd>, bell} block (see
    ``model``)."""
    times, h_dt = _rk4_grid(waveform, n)
    k = c0.size
    states = rk4_evolve(h_dt[:, :k, :k], c0, 1.0)
    return times, states, _gated_drift(states)


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

    method="rk4": fixed-step midpoint-frozen RK4, whole steps inside each
    piece of a piecewise waveform (``_rk4_grid``).
    method="piecewise-exponential": exact piece exponentials on the piece
    edges of a piecewise-constant waveform, CF4:2 steps at the step edges of
    a parametric one.  ``steps`` is ``step_count(waveform,
    method)`` when the caller has it already; None asks for it here.  Every
    history passes the drift gate; the trajectory records the route, its
    step count, the measured drift and the error estimate.
    """
    c_init = c0.as_array()
    n = step_count(waveform, method) if steps is None else steps
    error = None
    if method == "rk4":
        times, states, drift = _rk4_states(waveform, c_init, n)
    elif method == "piecewise-exponential" and waveform.piece_omega is None:
        states, drift, error = _cf4_states(waveform, c_init, n)
        times = np.linspace(0.0, waveform.duration, states.shape[0])
    elif method == "piecewise-exponential":
        table, index, _, _ = segment_propagators(waveform.piece_delta, waveform.piece_omega, np.diff(waveform.piece_edges))
        states = chain_indexed(table, index[None], c_init[None])[0]
        drift, error = _gated_drift(states), 0.0
        times = waveform.piece_edges
    else:
        raise ValueError(f"unknown method {method!r}")
    n = states.shape[0] - 1
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
