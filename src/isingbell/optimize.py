"""Bounded optimal control of the Bell-state transfer.

Maximizes the final Bell population |c2(T)|^2 over box-bounded controls in
two parameterizations: piecewise-constant Rabi frequency with a fixed
detuning (the optima come out bang-bang), and trigonometric series for
omega and, optionally, delta (smooth controls).

A piecewise optimum is found in two stages.  Multi-start L-BFGS-B searches
the omega values of a grid the dynamics resolve (``search_segments``: at
most ``ControlProblem.segments``, 1000 by default, and about 85 segments at
T = 2.5); each start's result is then polished as arcs (Xu & Antsaklis, IEEE
TAC 49, 2 (2004); Egerstedt, Wardi & Axelsson, IEEE TAC 51, 110 (2006)):
bang arcs at +-BOUND whose switch times move freely, and singular regions
whose values stay free at resolution T / segments, polished with the switch
times held and then jointly with them; search optima whose arcs coincide
are polished once.  The best polished waveform ships with its piece edges,
and its reported fidelity is its replay on ``propagate``'s exact route.
Each piece's propagator is an exact matrix exponential, built once per
distinct (delta, omega) pair on an even grid and once per piece otherwise,
so the adjoint gradient below is exact for the discrete objective, piece
durations included (checked against central finite differences to 1e-6).

Series coefficients form stacked channels of 2p + 1 (omega, then delta when
shaped), each optimized with a quadratic penalty on bound violations at the
discretization grid, tightened over continuation rounds, and finished with
an exact rescale onto the box.

Each optimizer owns its grid: a warm start is what an optimizer hands out,
a waveform of duration T for the piecewise search and a series of at most
p harmonics for the series one, and the optimizer maps it onto its own
grid or channel layout.

scipy is imported on the first L-BFGS-B call, not with this module: the
shortcut commands and ``evaluate_series`` never solve anything, and
importing ``scipy.optimize`` costs about 0.5 s and 47 MiB of memory.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .artifacts import write_csv, write_json
from .model import SQRT2
from .propagator import (
    MAX_STEPS,
    ControlWaveform,
    NonUnitaryDrift,
    TripletAmplitudes,
    cf4_steps,
    chain_indexed,
    fidelity,
    norm_bound,
    propagate,
    segment_propagators,
)

DELTA_FIXED = "fixed"
DELTA_TRIG = "trig-series"

#: trig-series time argument conventions: harmonics cos(kt), sin(kt) with t
#: in inverse-coupling units, or per-duration harmonics cos(2 pi k t / T)
CONVENTION_XI = "xi-units"
CONVENTION_PERIOD = "per-duration"

DEFAULT_SEGMENTS = 1000
MIN_SEGMENTS = 10
DEFAULT_RESTARTS = 8
DEFAULT_SEED = 42

#: |omega| <= BOUND, and |delta| <= BOUND when shaped, in coupling units
BOUND = 1.0
#: a piecewise segment within this of +-BOUND counts as saturated
SATURATION_TOL = 1e-3
GRAD_TOL = 1e-8
MAX_ITER = 2000
#: a run whose best fidelity stays below this is treated as failed
MIN_USEFUL_FIDELITY = 1e-3
#: a polished arc no longer than this share of T is dropped, its neighbours
#: merged and polished again
ARC_DROP_TOL = 1e-12
#: fidelities closer than this are equal to rounding (over a thousand pieces)
F_ROUNDING = 1e-12
#: search optima whose arcs match piece for piece, every switch time and
#: free value within this, are polished once
SAME_START_TOL = 1e-3
#: Newton steps that finish the switch times of bang arcs, and their
#: forward-difference step as a share of T
NEWTON_ITERATIONS = 2
NEWTON_STEP = 1e-7
#: allowed bound overshoot of a polished trig series at the grid nodes
TRIG_FEASIBILITY_TOL = 1e-9
PENALTY_WEIGHTS = (10.0, 1e3, 1e5)
#: function evaluations per L-BFGS-B line search in series optimization.
#: scipy's default of 20 runs out on many-harmonic bases: from the constant
#: start at p = 200, 1e-12 perturbations ended the first penalty round in a
#: line-search failure 8 times in 12 (none in 12 with 50).
SERIES_LINE_SEARCH = 50
#: most entries of one dense series basis, samples x (2p + 1): 256 MiB of
#: float64, which admits p <= 4192 at the 4001 samples of the CF4 probe
MAX_BASIS_ENTRIES = 2**25

#: initial state of the forward pass (spin down) and of the adjoint pass (e2)
_FORWARD_ADJOINT_STARTS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)

#: reference series coefficients for the T = 2.5 joint-control benchmark
#: (p = 3, xi-units convention); evaluate_series on these must give a
#: near-perfect transfer
BENCHMARK_SERIES_T25_A = (4.88177, -3.02932, -5.61925, -1.64576, 2.79904, 0.784017, -0.0724018)
BENCHMARK_SERIES_T25_B = (-8.67328, 0.800026, 14.4413, 8.33812, -1.43694, -1.41904, -3.07217)


def fmin_l_bfgs_b(*args, **kwargs):
    """``scipy.optimize.fmin_l_bfgs_b``, imported on the first call, with
    every argument forwarded.  It is a module attribute, not an import
    inside the optimizers, so callers (and tracers) that rebind
    ``optimize.fmin_l_bfgs_b`` still see every solver call."""
    from scipy.optimize import fmin_l_bfgs_b as solver

    return solver(*args, **kwargs)


class NoConvergence(RuntimeError):
    """No restart produced a usable optimum (e.g. duration too short)."""


class InfeasibleResult(RuntimeError):
    """Polished series still violates the control bounds at a grid node."""


@dataclass(frozen=True)
class ControlProblem:
    """Bounded control problem: maximize final |c2(T)|^2.

    Both controls are bounded by ``BOUND``.  delta_mode "fixed" holds the
    detuning at ``delta_value``; "trig-series" lets the optimizer shape it.
    """

    T: float
    delta_mode: str = DELTA_FIXED
    delta_value: float = 0.0
    segments: int = DEFAULT_SEGMENTS

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"duration must be positive, got {self.T}")
        if self.delta_mode not in (DELTA_FIXED, DELTA_TRIG):
            raise ValueError(f"delta_mode must be {DELTA_FIXED!r} or {DELTA_TRIG!r}")
        if not abs(self.delta_value) <= BOUND:
            raise ValueError(f"delta_value must be finite and within [-{BOUND}, {BOUND}], got {self.delta_value}")
        if not MIN_SEGMENTS <= self.segments <= MAX_STEPS:
            raise ValueError(f"segments must be within [{MIN_SEGMENTS}, {MAX_STEPS}], got {self.segments}")

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "omega_bounds": [-BOUND, BOUND],
            "delta_mode": self.delta_mode,
            "delta_value": self.delta_value,
            "delta_bounds": [-BOUND, BOUND],
            "segments": self.segments,
            "objective": "final-bell-population",
        }


@dataclass(frozen=True, eq=False)
class TrigSeries:
    """Truncated Fourier pair for (omega, delta):

        value(t) = x0 + sum_{k=1..p} x_{2k-1} cos(k t) + x_{2k} sin(k t)

    with t in inverse-coupling units (so k = 1 has period 2 pi).  ``a`` holds
    the omega coefficients, ``b`` the delta ones, each of length 2p + 1.
    """

    p: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        check_harmonics(self.p)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (2 * self.p + 1,) or b.shape != (2 * self.p + 1,):
            raise ValueError(f"coefficient vectors must have length {2 * self.p + 1}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def to_dict(self) -> dict:
        return {"p": self.p, "a": self.a.tolist(), "b": self.b.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "TrigSeries":
        """Parse {"p": integer, "a": [numbers], "b": [numbers]}, as read from
        JSON; a missing key or a value of the wrong type is a ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"series must be a JSON object with keys p, a, b; got {json.dumps(d)}")
        for key in ("p", "a", "b"):
            if key not in d:
                raise ValueError(f"series has no key {key!r}")
        if type(d["p"]) is not int:
            raise ValueError(f"series key 'p' must be an integer, got {json.dumps(d['p'])}")
        coeffs = {}
        for key in ("a", "b"):
            try:
                coeffs[key] = np.asarray(d[key], dtype=float)
            except TypeError:
                raise ValueError(f"series key {key!r} must be a list of numbers, got {json.dumps(d[key])}") from None
        return cls(p=d["p"], **coeffs)


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    """Outcome of one multi-start optimization, with enough state to replay.

    ``grad_norm`` is the infinity norm of the projected gradient of -F over
    the shipped optimum's free variables: a piecewise optimum's switch times
    and free values, or a series' coefficients, unbounded and unpenalised."""

    problem: ControlProblem
    waveform: ControlWaveform
    fidelity: float
    iterations: int
    grad_norm: float
    restarts: int
    seed: int
    exit_reason: str
    series: TrigSeries | None = None

    def to_dict(self) -> dict:
        if self.series is not None:
            wf = {
                "kind": "trig-series",
                "T": self.problem.T,
                "p": self.series.p,
                "coefficients": {"a": self.series.a.tolist(), "b": self.series.b.tolist()},
                "convention": CONVENTION_XI,
            }
        else:
            wf = {
                "kind": "piecewise-constant",
                "T": self.problem.T,
                "delta": self.problem.delta_value,
                "edges": self.waveform.piece_edges.tolist(),
                "omega": self.waveform.piece_omega.tolist(),
            }
        return {
            "problem": self.problem.to_dict(),
            "seed": self.seed,
            "restarts": self.restarts,
            "fidelity": self.fidelity,
            "iterations": self.iterations,
            "exit_reason": self.exit_reason,
            "grad_norm": self.grad_norm,
            "waveform": wf,
        }


# ---------------------------------------------------------------------------
# forward/adjoint machinery


def _channels(problem: ControlProblem) -> int:
    """Stacked control channels: omega, then delta when the detuning is shaped too."""
    return 1 if problem.delta_mode == DELTA_FIXED else 2


def _segment_controls(problem: ControlProblem, controls: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, bool]:
    k = _channels(problem)
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (k * n,):
        raise ValueError(f"expected {k} stacked channels of {n} segment values, got shape {controls.shape}")
    if k == 1:
        return np.full(n, problem.delta_value), controls, False
    return controls[n:], controls[:n], True


def adjoint_gradient(
    problem: ControlProblem, controls: np.ndarray, durations: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Fidelity and its exact gradient w.r.t. the piece control values.

    ``controls`` is the omega piece vector (fixed-delta mode) or the stacked
    (omega, delta) piece vectors (trig-series mode; the caller maps series
    coefficients to segments and chain-rules the result back).  The pieces
    are the ``problem.segments`` segments of T / segments, or, given
    ``durations``, one piece per duration; the gradient then stacks one more
    channel, the derivative with respect to each piece's duration d_k,

        dF/dd_k = 2 Re(conj(amp) lam_{k+1}^H (-i H_k) c_{k+1}).

    The spectral work runs once per distinct piece (``segment_propagators``);
    bang-bang iterates hold few.  One ``chain_indexed`` call over that table
    runs the forward pass for the states c_k and the backward pass for the
    costates lam_k; the derivative of each piece's exponential follows from
    its eigendecomposition: dU = V (W o Phi) V^T with W = V^T (dH/dtheta) V
    and

        Phi_mn = -i dt exp(-i (E_m + E_n) dt / 2) sinc((E_m - E_n) dt / 2),

    which is exact and stays stable for clustered eigenvalues (no divided
    difference of nearly equal exponentials).  Each piece's derivative
    lam_{k+1}^H dU c_k is contracted in its eigenbasis.
    """
    n = problem.segments if durations is None else len(durations)
    delta, omega, with_delta = _segment_controls(problem, controls, n)
    # one duration, or each table row's: with durations, row k is piece k
    dt = problem.T / n if durations is None else np.asarray(durations, dtype=float)
    col = dt if durations is None else dt[:, None]
    table, index, evals, vt = segment_propagators(delta, omega, dt)
    m = evals.shape[0]
    # rows [m, 2m) hold the transposed real forms, those of the adjoint maps U^H
    table = np.concatenate([table, table.transpose(0, 2, 1)])
    # the costate is linear in lam_T = amp * e2: chain e2 backwards through
    # the adjoint maps alongside the forward pass and scale by amp afterwards
    c, lam = chain_indexed(table, np.stack([index, m + index[::-1]]), _FORWARD_ADJOINT_STARTS)
    amp = c[-1, 1]
    fid = float(np.abs(amp) ** 2)

    half = np.exp(-0.5j * col * evals)
    sinc = np.sinc((evals[:, :, None] - evals[:, None, :]) * np.divide(col, 2.0 * math.pi)[..., None])
    phi = ((-1j * col) * half)[:, :, None] * half[:, None, :] * sinc
    # W = V^T (dH/dtheta) V in outer products of the rows v0, v1, v2 of V:
    # dH/domega = (e0 e1^T + e1 e0^T + e1 e2^T + e2 e1^T) / sqrt2 gives
    # (u v1^T + v1 u^T) / sqrt2 with u = v0 + v2, and dH/ddelta =
    # e0 e0^T - e2 e2^T gives v0 v0^T - v2 v2^T
    v0, v1, v2 = vt[:, :, 0], vt[:, :, 1], vt[:, :, 2]
    u = v0 + v2
    w = [(u[:, :, None] * v1[:, None, :] + v1[:, :, None] * u[:, None, :]) / SQRT2]
    if with_delta:
        w.append(v0[:, :, None] * v0[:, None, :] - v2[:, :, None] * v2[:, None, :])
    w_phi = np.stack(w, axis=1) * phi[:, None]  # (m, controls, 3, 3)

    # per segment a = V^T lam_{k+1} and b = V^T c_k in one real product on
    # the interleaved (re, im) columns; then with Y = W o Phi of its pair,
    # Re(a^H Y b) = Re sum_mn conj(a_m) b_n Y_mn is the real dot product of
    # the (re, im) pairs of conj(a) b^T with those of conj(Y)
    pair = np.stack([lam[::-1][1:], c[:-1]], axis=-1).view(float)  # (n, 3, 4)
    proj = np.matmul(vt[index], pair).view(complex)  # (n, 3, 2)
    outer = np.conj(amp * proj[:, :, None, 0]) * proj[:, None, :, 1]  # (n, 3, 3)
    y = np.conj(w_phi).reshape(m, len(w), 9).view(float)  # (m, controls, 18)
    g = 2.0 * np.matmul(y[index], outer.reshape(n, 9).view(float)[:, :, None])[..., 0].T
    if durations is not None:
        # lam_{k+1}^H (-i H_k) U_k c_k in the eigenbasis: the diagonal of outer
        # against -i E exp(-i E dt)
        rate = (-1j * evals * half**2)[index]
        g = np.vstack([g, 2.0 * np.real(np.einsum("kmm,km->k", outer, rate))])
    return fid, g.ravel()


def _projected_grad_inf(x: np.ndarray, g: np.ndarray, lo=-BOUND, hi=BOUND) -> float:
    """Infinity norm of the projected gradient of the *minimized* objective
    over the box [lo, hi]; 0 for no variables."""
    pg = g.copy()
    at_lo = x <= lo + 1e-12
    at_hi = x >= hi - 1e-12
    pg[at_lo] = np.minimum(pg[at_lo], 0.0)
    pg[at_hi] = np.maximum(pg[at_hi], 0.0)
    return float(np.max(np.abs(pg), initial=0.0))


def _exit_reason(info: dict) -> str:
    if info.get("warnflag", 0) == 1:
        return "maxiter"
    task = info.get("task", "")
    if isinstance(task, bytes):
        task = task.decode("ascii", "replace")
    return "gradient" if "PROJECTED_GRADIENT" in task.upper().replace(" ", "_") else "ftol"


def check_starts(restarts: int, seed: int) -> None:
    """A multi-start search draws ``restarts`` >= 0 random starts from the
    generator seeded with ``seed`` >= 0."""
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _starts(const: np.ndarray, restarts: int, seed: int, shrink: float, extra: list[np.ndarray]) -> list[np.ndarray]:
    """Starts of a multi-start search: ``restarts`` seeded uniform random
    vectors in the box divided by ``shrink``, then the constant start
    ``const``, then the optimizer's own vectors of its warm starts."""
    check_starts(restarts, seed)
    rng = np.random.default_rng(seed)
    return [*(rng.uniform(-BOUND, BOUND, size=const.size) / shrink for _ in range(restarts)), const, *extra]


def _check_useful(fid: float, problem: ControlProblem) -> None:
    """A best fidelity at or below ``MIN_USEFUL_FIDELITY`` raises NoConvergence."""
    if fid <= MIN_USEFUL_FIDELITY:
        raise NoConvergence(
            f"best fidelity {fid:.3e} <= {MIN_USEFUL_FIDELITY}; "
            f"bounded controls cannot transfer in T={problem.T:g}"
        )


# ---------------------------------------------------------------------------
# piecewise-constant optimization


def search_segments(problem: ControlProblem) -> int:
    """Segments of the grid a piecewise search runs on: ``problem.segments``,
    capped by the CF4 step count that resolves the box bound on |H| over T
    (``propagator.cf4_steps`` of ``norm_bound(|delta|, BOUND)``), and at
    least ``MIN_SEGMENTS``: 82-86 segments at T = 2.5, 118-120 at T = 3.6."""
    resolved = cf4_steps(norm_bound(abs(problem.delta_value), BOUND), problem.T)
    return min(problem.segments, max(MIN_SEGMENTS, resolved))


@dataclass(frozen=True, eq=False)
class _Arcs:
    """A piecewise omega as arcs: bang arcs, one piece at +-BOUND each, and
    singular regions of equal sub-pieces whose values are free.  The polish
    variables z are the inner arc edges (switch times, each within [0, T];
    the arcs span them sorted), then the free values."""

    T: float
    omega: np.ndarray  # value of each piece; the free ones are read from z
    pieces: np.ndarray  # sub-pieces per arc
    free: np.ndarray  # indices of the free pieces

    @classmethod
    def from_spans(cls, T: float, spans: list[tuple[float, np.ndarray, bool]]) -> tuple["_Arcs", np.ndarray]:
        """Arcs from (end time, piece values, free) spans in time order,
        neighbouring bang arcs of one value merged, and their variables."""
        merged: list[tuple[float, np.ndarray, bool]] = []
        for end, values, free in spans:
            if merged and not free and not merged[-1][2] and merged[-1][1][0] == values[0]:
                merged[-1] = (end, values, free)
            else:
                merged.append((end, values, free))
        omega = np.concatenate([values for _, values, _ in merged])
        pieces = np.array([values.size for _, values, _ in merged])
        free = np.flatnonzero(np.repeat([free for _, _, free in merged], pieces))
        return cls(T, omega, pieces, free), np.concatenate([[end for end, _, _ in merged[:-1]], omega[free]])

    @classmethod
    def from_search(cls, problem: ControlProblem, x: np.ndarray) -> tuple["_Arcs", np.ndarray]:
        """Arcs of a search optimum x on an even grid.  Saturated runs (within
        ``SATURATION_TOL``) become bang arcs; a lone interior segment between
        opposite bangs becomes a switch inside it at its time-average
        position; an interior run inside one bang that keeps its sign (a
        dent the grid cannot resolve) becomes a short opposite arc with the
        same time-average, centred on the dent; any other interior run is a
        singular region at resolution T / ``problem.segments``."""
        n = x.size
        dt = problem.T / n
        label = np.where(np.abs(np.abs(x) - BOUND) <= SATURATION_TOL, np.sign(x), 0.0)
        cuts = [0, *(np.flatnonzero(np.diff(label)) + 1).tolist(), n]
        spans = []
        for a, b in zip(cuts, cuts[1:]):
            if label[a] != 0.0:
                spans.append((b * dt, np.array([label[a] * BOUND]), False))
            elif b - a == 1 and 0 < a and b < n and label[a - 1] == -label[b] != 0.0:
                # the bang before it runs on for the share that averages to x[a]
                share = (x[a] - label[b]) / (label[a - 1] - label[b])
                spans[-1] = ((a + share) * dt, spans[-1][1], False)
            elif 0 < a and b < n and label[a - 1] == label[b] != 0.0 and np.all(x[a:b] * label[b] > 0.0):
                # a dent in a bang: an opposite arc of the same deficit, at its centroid
                deficit = label[b] * (label[b] - x[a:b])
                width = float(np.sum(deficit)) / 2.0
                centre = float(np.dot(deficit, np.arange(a, b) + 0.5) / np.sum(deficit))
                spans[-1] = ((centre - width / 2.0) * dt, spans[-1][1], False)
                spans.append(((centre + width / 2.0) * dt, np.array([-label[b] * BOUND]), False))
            else:
                q = max(1, round((b - a) * problem.segments / n))
                spans.append((b * dt, x[a + ((np.arange(q) + 0.5) * ((b - a) / q)).astype(int)], True))
        spans[-1] = (problem.T, *spans[-1][1:])
        return cls.from_spans(problem.T, spans)

    def bounds(self) -> list[tuple[float, float]]:
        return [(0.0, self.T)] * (self.pieces.size - 1) + [(-BOUND, BOUND)] * self.free.size

    def _edges_omega(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arc edges from 0 to T and piece values at z."""
        omega = self.omega.copy()
        omega[self.free] = z[self.pieces.size - 1 :]
        return np.concatenate([[0.0], np.sort(z[: self.pieces.size - 1]), [self.T]]), omega

    def objective(self, z: np.ndarray, problem: ControlProblem) -> tuple[float, np.ndarray]:
        """-F at z and its gradient: dF/dtau at the edge between arcs j and
        j + 1 is the derivative by arc j's duration minus arc j + 1's, each the
        mean of its sub-pieces'; a free value's is its piece's."""
        edges, omega = self._edges_omega(z)
        f, g = adjoint_gradient(problem, omega, np.repeat(np.diff(edges) / self.pieces, self.pieces))
        by_arc = np.add.reduceat(g[omega.size :], np.cumsum(self.pieces) - self.pieces) / self.pieces
        g_tau = np.empty(self.pieces.size - 1)
        g_tau[np.argsort(z[: self.pieces.size - 1])] = by_arc[:-1] - by_arc[1:]
        return -f, -np.concatenate([g_tau, g[self.free]])

    def matches(self, z: np.ndarray, other: "_Arcs", other_z: np.ndarray) -> bool:
        """Whether these arcs at z and ``other`` at other_z have the same
        pieces, free pieces and bang values, and every variable within
        ``SAME_START_TOL``."""
        return (
            np.array_equal(self.pieces, other.pieces)
            and np.array_equal(self.free, other.free)
            and np.array_equal(np.delete(self.omega, self.free), np.delete(other.omega, other.free))
            and bool(np.all(np.abs(z - other_z) <= SAME_START_TOL))
        )

    def value_objective(self, values: np.ndarray, switches: np.ndarray, problem: ControlProblem) -> tuple[float, np.ndarray]:
        """``objective`` over the free values alone, the switch times held."""
        f, g = self.objective(np.concatenate([switches, values]), problem)
        return f, g[switches.size :]

    def grad_norm(self, z: np.ndarray, problem: ControlProblem) -> float:
        """Infinity norm of the projected gradient of -F over every polish
        variable at z: switch times within [0, T], free values within the
        box; 0 when there is none."""
        _, g = self.objective(z, problem)
        lo, hi = np.array(self.bounds(), dtype=float).reshape(-1, 2).T
        return _projected_grad_inf(z, g, lo, hi)

    def drop_short(self, z: np.ndarray, tol: float) -> tuple["_Arcs", np.ndarray] | None:
        """The arcs at z without those of duration <= tol, neighbours merged,
        or None when every arc is longer."""
        edges, omega = self._edges_omega(z)
        keep = np.diff(edges) > tol
        if keep.all():
            return None
        starts = np.cumsum(self.pieces) - self.pieces
        free = np.zeros(omega.size, dtype=bool)
        free[self.free] = True
        spans = [(end, part, bool(free[start])) for end, part, start, k in
                 zip(edges[1:], np.split(omega, starts[1:]), starts, keep) if k]
        spans[-1] = (self.T, *spans[-1][1:])
        return _Arcs.from_spans(self.T, spans)

    def waveform(self, z: np.ndarray, delta: float) -> ControlWaveform:
        """The piecewise waveform at z, every arc cut into its equal sub-pieces."""
        edges, omega = self._edges_omega(z)
        fractions = np.concatenate([np.arange(q) / q for q in self.pieces])
        starts = np.repeat(edges[:-1], self.pieces) + fractions * np.repeat(np.diff(edges), self.pieces)
        return ControlWaveform.piecewise_constant(self.T, omega, delta=delta, edges=np.append(starts, self.T))


def _solve(
    objective, x0: np.ndarray, bounds: list[tuple[float, float]] | None, args: tuple = (), m: int = 10, maxls: int = 20
) -> tuple[np.ndarray, float, dict]:
    """L-BFGS-B, every call of this module: memory ``m`` (10 for the
    piecewise search and the polish, 20 for series rounds) and ``maxls``
    evaluations per line search (scipy's 20, or ``SERIES_LINE_SEARCH``),
    stopped when the objective no longer falls beyond rounding (factr 10)
    or the projected gradient is below ``GRAD_TOL``; returns the optimum,
    its objective and the solver info."""
    return fmin_l_bfgs_b(objective, x0, args=args, bounds=bounds, m=m, factr=10.0, pgtol=GRAD_TOL, maxiter=MAX_ITER,
                         maxfun=20 * MAX_ITER, maxls=maxls)


def _polish(problem: ControlProblem, arcs: _Arcs, z: np.ndarray) -> tuple[_Arcs, np.ndarray, int, dict | None]:
    """Arcs of a search optimum (``_Arcs.from_search``) with their switch
    times and free values z polished by L-BFGS-B; an arc that shrinks to
    zero length is dropped and the merged arcs are polished again.

    Free values are polished first with the switch times held.  A switch
    next to a singular region is a degenerate direction (F changes with the
    cube of its shift, since the switching function and its slope vanish on
    the region), along which a joint polish straight from the search
    optimum crawls while the values lag: on the singular cells of
    ``bangbang-sweep`` seeds 1 and 4 it took 240-590 evaluations per start,
    against 200-250 for both stages, and ended up to 1e-8 lower.  Returns
    the arcs, their polished variables, the iterations and the last solver
    info (None when there was nothing to polish, as for a single arc)."""
    nit, info = 0, None
    k = arcs.pieces.size - 1
    if arcs.free.size and k:
        values, _, info = _solve(arcs.value_objective, z[k:], arcs.bounds()[k:], (z[:k], problem))
        z = np.concatenate([z[:k], values])
        nit += int(info["nit"])
    while True:
        if z.size:
            z, _, info = _solve(arcs.objective, z, arcs.bounds(), (problem,))
            nit += int(info["nit"])
        shorter = arcs.drop_short(z, ARC_DROP_TOL * problem.T)
        if shorter is None:
            break
        arcs, z = shorter
    if arcs.free.size == 0 and z.size:
        z = _newton_switches(arcs, z, problem)
    return arcs, z, nit, info


def _newton_switches(arcs: _Arcs, z: np.ndarray, problem: ControlProblem) -> np.ndarray:
    """Switch times of bang arcs refined by Newton steps on dF/dtau = 0,
    with a forward-difference Jacobian of the exact gradient.  L-BFGS-B
    stops once F no longer falls beyond its rounding, at |dF/dtau| of about
    the square root of that; the switch conditions need no function
    values.  A step is kept while it shrinks the gradient."""
    h = NEWTON_STEP * problem.T
    _, g = arcs.objective(z, problem)
    for _ in range(NEWTON_ITERATIONS):
        jac = np.column_stack([arcs.objective(z + h * e, problem)[1] - g for e in np.eye(z.size)]) / h
        trial = np.clip(z - np.linalg.solve(jac, g), 0.0, problem.T)
        _, g_trial = arcs.objective(trial, problem)
        if not np.max(np.abs(g_trial)) < np.max(np.abs(g)):
            break
        z, g = trial, g_trial
    return z


def _replayed(waveform: ControlWaveform) -> float:
    """Final Bell population of the waveform from spin down on ``propagate``'s
    piecewise-exponential route, the fidelity every report ships."""
    return fidelity(propagate(waveform, TripletAmplitudes.spin_down(), method="piecewise-exponential"))


def optimize_piecewise(
    problem: ControlProblem,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
    extra_starts: Sequence[ControlWaveform] = (),
) -> OptimizationReport:
    """Multi-start bound-constrained ascent over the omega segment values of
    the ``search_segments`` grid, each start's optimum then polished as arcs
    (``_polish``); the best polished waveform ships.

    Starts: ``restarts`` uniform random feasible waveforms, one constant
    omega at the upper bound, plus any ``extra_starts``: waveforms of
    duration T (a shipped optimum, say), sampled at the search grid's
    segment midpoints and clipped; another duration is a ValueError.  The
    fidelity landscape has distinct local optima with different bang
    counts, hence the multi-start.  The search optima are polished best
    first; one whose arcs match a polished one's, piece for piece, with
    every switch time and value within ``SAME_START_TOL``, lies in the same
    basin and is not polished again.  A polished waveform more than
    ``F_ROUNDING`` below its search's fidelity gives way to that optimum,
    the search grid with every segment free.  The reported fidelity is the
    shipped waveform's on ``propagate``'s exact route, whose drift gate it
    passes, and ``grad_norm`` the projected gradient over its arcs' switch
    times and free values.  Raises NoConvergence when nothing lifts the
    fidelity above 1e-3 (bounded controls at tiny T genuinely cannot).
    """
    if problem.delta_mode != DELTA_FIXED:
        raise ValueError("optimize_piecewise requires delta_mode='fixed'")
    search = replace(problem, segments=search_segments(problem))
    n = search.segments
    for wf in extra_starts:
        if wf.duration != problem.T:
            raise ValueError(f"an extra start lasts {wf.duration:g}, not the problem's T = {problem.T:g}")
    t_mid = (np.arange(n) + 0.5) * (problem.T / n)
    starts = _starts(np.full(n, BOUND), restarts, seed, 1.0, [wf.sample(t_mid)[1] for wf in extra_starts])

    def objective(x):
        f, g = adjoint_gradient(search, x)
        return -f, -g

    found = []
    for x0 in starts:
        x, f, info = _solve(objective, np.clip(x0, -BOUND, BOUND), [(-BOUND, BOUND)] * n)
        found.append((f, np.clip(x, -BOUND, BOUND), info))
    best, polished = None, []
    # best search optimum first; ties keep the order of the starts
    for f, x, info in sorted(found, key=lambda item: item[0]):
        arcs, z = _Arcs.from_search(problem, x)
        if any(arcs.matches(z, *other) for other in polished):
            continue
        polished.append((arcs, z))
        arcs, z, nit, polish_info = _polish(problem, arcs, z)
        waveform = arcs.waveform(z, problem.delta_value)
        fid = _replayed(waveform)
        # near F = 1 the gradient falls below GRAD_TOL before the polish
        # climbs back what the finer regions lost, so the search optimum
        # itself, all its segments free, ships instead when it is better
        # beyond rounding
        if -f > fid + F_ROUNDING:
            arcs, z = _Arcs.from_spans(problem.T, [(problem.T, x, True)])
            waveform = arcs.waveform(z, problem.delta_value)
            fid = _replayed(waveform)
        if best is None or fid > best[0]:
            best = (fid, arcs, z, waveform, int(info["nit"]) + nit, polish_info or info)

    fid, arcs, z, waveform, nit, info = best
    _check_useful(fid, problem)
    return OptimizationReport(
        problem=problem,
        waveform=waveform,
        fidelity=fid,
        iterations=nit,
        grad_norm=arcs.grad_norm(z, problem),
        restarts=restarts,
        seed=seed,
        exit_reason=_exit_reason(info),
    )


def saturation_fraction(waveform: ControlWaveform) -> float:
    """Share of a piecewise waveform's time within ``SATURATION_TOL`` of
    either bound.

    Bang-bang structure diagnostic: optimal unconstrained-in-sign transfers
    ride the box boundary except at switches."""
    if waveform.piece_omega is None:
        raise ValueError("saturation_fraction needs a piecewise-constant waveform")
    at_bound = np.abs(np.abs(waveform.piece_omega) - BOUND) <= SATURATION_TOL
    return float(np.average(at_bound, weights=np.diff(waveform.piece_edges)))


# ---------------------------------------------------------------------------
# trigonometric-series optimization


def check_harmonics(p: int, samples: int = 1) -> None:
    """A series has p >= 0 harmonics, and its dense basis at ``samples``
    times (``trig_basis``) at most ``MAX_BASIS_ENTRIES`` entries."""
    if p < 0:
        raise ValueError(f"harmonic count p must be >= 0, got {p}")
    if samples * (2 * p + 1) > MAX_BASIS_ENTRIES:
        raise ValueError(f"a series of p = {p} harmonics at {samples} samples needs over {MAX_BASIS_ENTRIES} entries")


def trig_basis(p: int, t: np.ndarray, T: float | None = None, convention: str = CONVENTION_XI) -> np.ndarray:
    """Design matrix [1, cos(kt), sin(kt), ...] of shape (len(t), 2p+1);
    ``check_harmonics`` refuses one too large before it is allocated."""
    t = np.asarray(t, dtype=float)
    check_harmonics(p, t.size)
    if convention == CONVENTION_XI:
        karg = t[:, None] * np.arange(1, p + 1)[None, :]
    elif convention == CONVENTION_PERIOD:
        if T is None:
            raise ValueError("per-duration convention needs the total duration T")
        karg = (2.0 * math.pi / T) * t[:, None] * np.arange(1, p + 1)[None, :]
    else:
        raise ValueError(f"unknown convention {convention!r}")
    m = np.empty((t.size, 2 * p + 1))
    m[:, 0] = 1.0
    if p > 0:
        m[:, 1::2] = np.cos(karg)
        m[:, 2::2] = np.sin(karg)
    return m


def series_waveform(series: TrigSeries, T: float, convention: str = CONVENTION_XI) -> ControlWaveform:
    """Waveform realized by a coefficient pair: omega from ``a``, delta from ``b``."""

    def fn(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = trig_basis(series.p, ts, T=T, convention=convention)
        return m @ series.b, m @ series.a

    return ControlWaveform(T, fn)


def evaluate_series(series: TrigSeries, T: float, convention: str = CONVENTION_XI) -> float:
    """Propagate the series waveform from the spin-down state and return
    the final Bell population.  It runs ``propagate``'s
    piecewise-exponential route: CF4 steps at its automatic count, checked
    by step halving and refused for controls that jump."""
    return _replayed(series_waveform(series, T, convention=convention))


def _rescale_into_box(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Shrink a channel's coefficients so its realized values fit |v| <= BOUND."""
    peak = float(np.max(np.abs(values)))
    if peak <= BOUND:
        return coeffs
    return coeffs / (peak / BOUND)


def optimize_trig(
    problem: ControlProblem,
    p: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
    extra_starts: Sequence[TrigSeries] = (),
) -> OptimizationReport:
    """Optimize series coefficients for omega (and delta when joint).

    The coefficient vector stacks channels of 2p + 1 coefficients: omega,
    then delta in trig-series mode.  Bounds are enforced at the segment
    midpoints through a quadratic hinge penalty on each channel, whose
    weight is raised over continuation rounds; each start's channels are
    then rescaled onto the box (the bound is symmetric, so uniform
    shrinking preserves feasibility) and re-checked, and a start that still
    overshoots loses to every feasible one.  ``extra_starts`` takes series
    of at most p harmonics, such as the optimum of a lower harmonic count,
    zero-padded into that layout; more harmonics are a ValueError.  The
    search scores the series sampled at segment midpoints; the reported
    fidelity is ``evaluate_series`` of the series the report ships, which
    in fixed mode carries the fixed detuning as its constant term b =
    [delta_value, 0, ..., 0].
    """
    k = _channels(problem)
    n = problem.segments
    nc = 2 * p + 1
    dt = problem.T / n
    t_mid = (np.arange(n) + 0.5) * dt
    m = trig_basis(p, t_mid)

    def objective(x, weight):
        values = [m @ c for c in x.reshape(k, nc)]
        f, g_seg = adjoint_gradient(problem, np.concatenate(values))
        val = -f
        grad = np.empty((k, nc))
        for j, (v, g) in enumerate(zip(values, g_seg.reshape(k, n))):
            viol = np.maximum(np.abs(v) - BOUND, 0.0)
            val += weight * float(np.sum(viol**2))
            grad[j] = m.T @ (-g + 2.0 * weight * viol * np.sign(v))
        return val, grad.ravel()

    extra = []
    for series in extra_starts:
        if series.p > p:
            raise ValueError(f"an extra start has {series.p} harmonics, more than p = {p}")
        x0 = np.zeros((k, nc))
        x0[:, : 2 * series.p + 1] = np.stack([series.a, series.b])[:k]
        extra.append(x0.ravel())
    const = np.zeros(k * nc)
    const[0] = BOUND
    # random starts are scaled down so the realized waveforms begin feasible
    starts = _starts(const, restarts, seed, nc, extra)

    best = None
    for x0 in starts:
        x = x0
        nit = 0
        for weight in PENALTY_WEIGHTS:
            x, _, info = _solve(objective, x, None, (weight,), m=20, maxls=SERIES_LINE_SEARCH)
            nit += int(info["nit"])
        channels = np.stack([_rescale_into_box(c, m @ c) for c in x.reshape(k, nc)])
        values = [m @ c for c in channels]
        viol = max(float(np.max(np.abs(v))) - BOUND for v in values)
        f, _ = adjoint_gradient(problem, np.concatenate(values))
        # the rescale is exact only up to rounding, which huge coefficients
        # (ill-conditioned fits) can push past the tolerance: feasible
        # candidates win over infeasible ones, then the higher fidelity wins
        rank = (viol <= TRIG_FEASIBILITY_TOL, f)
        if best is None or rank > best[0]:
            best = (rank, channels, viol, nit, info)

    (_, fid), channels, viol, nit, info = best
    _check_useful(fid, problem)
    if viol > TRIG_FEASIBILITY_TOL:
        raise InfeasibleResult(f"series overshoots bounds by {viol:.3e} after polishing")

    # a fixed detuning is the constant term of the delta series
    b = channels[1] if k == 2 else np.concatenate([[problem.delta_value], np.zeros(nc - 1)])
    series = TrigSeries(p=p, a=channels[0], b=b)
    fid = evaluate_series(series, problem.T)
    _, g_last = objective(channels.ravel(), 0.0)  # unpenalised; unbounded, so unprojected
    return OptimizationReport(
        problem=problem,
        waveform=series_waveform(series, problem.T),
        fidelity=fid,
        iterations=nit,
        grad_norm=float(np.max(np.abs(g_last))),
        restarts=restarts,
        seed=seed,
        exit_reason=_exit_reason(info),
        series=series,
    )


def trig_harmonic_scan(
    problem: ControlProblem,
    p_list: Sequence[int],
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
) -> list[OptimizationReport]:
    """optimize_trig over ascending harmonic counts, feeding each optimum's
    series forward as an extra start of the next (``optimize_trig``
    zero-pads it); richer bases therefore never lose to poorer ones."""
    p_list = list(p_list)
    if any(p2 <= p1 for p1, p2 in zip(p_list, p_list[1:])):
        raise ValueError("harmonic counts must be strictly increasing")
    reports: list[OptimizationReport] = []
    for i, p in enumerate(p_list):
        extra = [reports[-1].series] if reports else []
        reports.append(optimize_trig(problem, p, restarts=restarts, seed=seed + i, extra_starts=extra))
    return reports


# ---------------------------------------------------------------------------
# parameter sweeps and the adiabatic reference


@dataclass(frozen=True)
class SweepCell:
    """One (T, delta) cell of a sweep; ``error`` is set when the cell failed."""

    T: float
    delta: float
    fidelity: float
    error: str | None = None


def _sweep_cell(
    problem: ControlProblem, restarts: int, seed: int, extra_starts: Sequence[ControlWaveform] = ()
) -> tuple[SweepCell, ControlWaveform | None]:
    """optimize_piecewise on one sweep cell, with the shipped waveform; a
    cell it cannot solve gets fidelity NaN, its error and no waveform."""
    try:
        rep = optimize_piecewise(problem, restarts=restarts, seed=seed, extra_starts=extra_starts)
    except (NoConvergence, NonUnitaryDrift) as exc:
        return SweepCell(T=problem.T, delta=problem.delta_value, fidelity=float("nan"), error=str(exc)), None
    return SweepCell(T=problem.T, delta=problem.delta_value, fidelity=rep.fidelity), rep.waveform


def _idled(waveform: ControlWaveform, problem: ControlProblem) -> ControlWaveform:
    """A solved cell's waveform with an idle piece (omega = 0) added up to
    ``problem.T``.  With omega = 0 the Hamiltonian is diagonal, so the idle
    piece turns only phases and keeps |c2|^2."""
    if problem.T == waveform.duration:
        return waveform
    omega, edges = np.append(waveform.piece_omega, 0.0), np.append(waveform.piece_edges, problem.T)
    return ControlWaveform.piecewise_constant(problem.T, omega, delta=problem.delta_value, edges=edges)


def sweep(problems: Sequence[ControlProblem], restarts: int = 2, seed: int = DEFAULT_SEED) -> list[SweepCell]:
    """Best piecewise fidelity on every problem, such as the cells of
    ``detuning_problems`` (a (T, constant delta) grid) or
    ``duration_problems`` (ascending durations at one detuning).

    Solve the cells in (T, delta) order, so durations never shrink; return
    them in the caller's order.  Only a cell with no solved predecessor draws
    ``restarts`` random starts (seed + its index); the others start from the
    constant start and the last solved cell's waveform, idle up to their
    own duration (``_idled``), which ``optimize_piecewise`` samples at the
    midpoints of its own search grid.  An idle end keeps the fidelity, so a
    cell ending over 1e-9 below the last solved cell of its detuning ships
    that cell's waveform instead, idled the same way, with that cell's
    fidelity: a duration sweep never falls from one cell to the
    next.  A cell that cannot be solved gets fidelity NaN and its error,
    passes nothing on, and the sweep goes on.
    """
    check_starts(restarts, seed)
    cells: list[SweepCell | None] = [None] * len(problems)
    floor: dict[float, tuple[float, ControlWaveform]] = {}  # F and waveform of the last solved cell per detuning
    prev: ControlWaveform | None = None  # the last solved cell's waveform
    for i in sorted(range(len(problems)), key=lambda j: (problems[j].T, problems[j].delta_value)):
        problem = problems[i]
        extra = [_idled(prev, problem)] if prev else []
        cell, waveform = _sweep_cell(problem, 0 if prev else restarts, seed + i, extra)
        floor_fidelity, floor_waveform = floor.get(problem.delta_value, (-math.inf, None))
        # a failed cell has fidelity NaN and stays failed
        if cell.fidelity + 1e-9 < floor_fidelity:
            cell, waveform = replace(cell, fidelity=floor_fidelity), _idled(floor_waveform, problem)
        cells[i] = cell
        if waveform is not None:
            floor[problem.delta_value] = (cell.fidelity, waveform)
            prev = waveform
    return cells


def detuning_problems(
    T_list: Sequence[float], delta_grid: Sequence[float], segments: int = DEFAULT_SEGMENTS
) -> list[ControlProblem]:
    """A detuning sweep's cells: one checked problem per (T, delta) pair."""
    T_list = list(T_list)
    delta_grid = list(delta_grid)
    if not T_list or not delta_grid:
        raise ValueError("sweep grids must be non-empty")
    return [ControlProblem(T=t, delta_value=d, segments=segments) for t, d in itertools.product(T_list, delta_grid)]


def duration_problems(
    delta_fixed: float, T_grid: Sequence[float], segments: int = DEFAULT_SEGMENTS
) -> list[ControlProblem]:
    """A duration sweep's cells: one checked problem per duration."""
    T_grid = list(T_grid)
    if not T_grid or any(t <= 0 for t in T_grid) or any(b <= a for a, b in zip(T_grid, T_grid[1:])):
        raise ValueError("T_grid must be positive and strictly ascending")
    return [ControlProblem(T=t_tot, delta_value=delta_fixed, segments=segments) for t_tot in T_grid]


def adiabatic_baseline(T: float) -> ControlWaveform:
    """Rapid-adiabatic-passage reference: linear detuning sweep at rate 8 / T
    through the two-level degeneracy at T/2 with a unit-peak Gaussian Rabi
    pulse of width T / 6 centered there.

    The shape is a heuristic choice; the scheme exists for qualitative
    comparison against the shortcut and optimal controls, not as a tuned
    benchmark.
    """

    def fn(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ts = np.asarray(ts, dtype=float)
        delta = (8.0 / T) * (ts - 0.5 * T)
        omega = np.exp(-0.5 * ((ts - 0.5 * T) / (T / 6.0)) ** 2)
        return delta, omega

    return ControlWaveform(T, fn)


# ---------------------------------------------------------------------------
# artifact writers


def write_report_json(report: OptimizationReport, path, config: dict | None = None) -> None:
    payload = report.to_dict()
    if config is not None:
        payload["config"] = config
    write_json(path, payload)


def write_sweep_csv(cells: Sequence[SweepCell], path, config: dict | None = None) -> None:
    columns = [[c.T for c in cells], [c.delta for c in cells], [c.fidelity for c in cells]]
    write_csv(path, ("T", "delta", "fidelity"), columns, config)


def write_series_json(series: TrigSeries, path, extra: dict | None = None) -> None:
    payload = series.to_dict()
    if extra:
        payload.update(extra)
    write_json(path, payload)


def read_series_json(path) -> TrigSeries:
    with open(path) as fh:
        return TrigSeries.from_dict(json.load(fh))
