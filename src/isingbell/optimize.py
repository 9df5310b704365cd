"""Bounded optimal control of the Bell-state transfer.

Maximizes the final Bell population |c2(T)|^2 over box-bounded controls in
two parameterizations: piecewise-constant Rabi frequency with a fixed
detuning (the optima come out bang-bang), and trigonometric series for
omega and, optionally, delta (smooth controls).

The search is multi-start L-BFGS-B over a piecewise-constant discretization
of ``ControlProblem.segments`` segments (1000 by default).  Each segment's
propagator is an exact matrix exponential, built once per distinct
(delta, omega) pair, so the adjoint gradient below is exact for the discrete
objective (checked against central finite differences to 1e-6).  Series
coefficients form stacked channels of 2p + 1 (omega, then delta when shaped),
each optimized with a quadratic penalty on bound violations at the
discretization grid, tightened over continuation rounds, and finished with
an exact rescale onto the box.

scipy is imported on the first L-BFGS-B call, not with this module: the
shortcut commands and ``evaluate_series`` never solve anything, and
importing ``scipy.optimize`` costs about 0.5 s and 47 MiB of memory.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifacts import write_csv, write_json
from .model import SQRT2
from .propagator import (
    ControlWaveform,
    NonUnitaryDrift,
    TripletAmplitudes,
    chain_indexed,
    fidelity,
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
#: allowed bound overshoot of a polished trig series at the grid nodes
TRIG_FEASIBILITY_TOL = 1e-9
PENALTY_WEIGHTS = (10.0, 1e3, 1e5)
#: function evaluations per L-BFGS-B line search in series optimization.
#: scipy's default of 20 runs out on many-harmonic bases: from the constant
#: start at p = 200, 1e-12 perturbations ended the first penalty round in a
#: line-search failure 8 times in 12 (none in 12 with 50).
SERIES_LINE_SEARCH = 50

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
        if self.segments < MIN_SEGMENTS:
            raise ValueError(f"need at least {MIN_SEGMENTS} segments, got {self.segments}")

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
    """Outcome of one multi-start optimization, with enough state to replay."""

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
                "segments": self.waveform.piece_omega.tolist(),
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


def _segment_controls(problem: ControlProblem, controls: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    n = problem.segments
    k = _channels(problem)
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (k * n,):
        raise ValueError(f"expected {k} stacked channels of {n} segment values, got shape {controls.shape}")
    if k == 1:
        return np.full(n, problem.delta_value), controls, False
    return controls[n:], controls[:n], True


def adjoint_gradient(problem: ControlProblem, controls: np.ndarray) -> tuple[float, np.ndarray]:
    """Fidelity and its exact gradient w.r.t. the segment control values.

    ``controls`` is the omega segment vector (fixed-delta mode) or the
    stacked (omega, delta) segment vectors (trig-series mode; the caller maps
    series coefficients to segments and chain-rules the result back).

    The spectral work runs once per distinct (delta, omega) pair
    (``segment_propagators``); bang-bang iterates hold few.  One
    ``chain_indexed`` call over that pair table runs the forward pass for
    the states c_k and the backward pass for the costates lam_k; the
    derivative of each pair's exponential follows from its
    eigendecomposition: dU = V (W o Phi) V^T with W = V^T (dH/dtheta) V and

        Phi_mn = -i dt exp(-i (E_m + E_n) dt / 2) sinc((E_m - E_n) dt / 2),

    which is exact and stays stable for clustered eigenvalues (no divided
    difference of nearly equal exponentials).  Each segment's derivative
    lam_{k+1}^H dU c_k is contracted in its pair's eigenbasis.
    """
    delta, omega, with_delta = _segment_controls(problem, controls)
    n = problem.segments
    dt = problem.T / n
    table, index, evals, evecs = segment_propagators(delta, omega, dt)
    m = evals.shape[0]
    # rows [m, 2m) hold the transposed real forms, those of the adjoint maps
    # U^H; the identity stays last
    table = np.concatenate([table[:m], table[:m].transpose(0, 2, 1), table[m:]])
    # the costate is linear in lam_T = amp * e2: chain e2 backwards through
    # the adjoint maps alongside the forward pass and scale by amp afterwards
    c, lam = chain_indexed(table, np.stack([index, m + index[::-1]]), _FORWARD_ADJOINT_STARTS)
    amp = c[-1, 1]
    fid = float(np.abs(amp) ** 2)

    vt = np.swapaxes(evecs, 1, 2).copy()
    half = np.exp(-0.5j * dt * evals)
    sinc = np.sinc((evals[:, :, None] - evals[:, None, :]) * (dt / (2.0 * math.pi)))
    phi = ((-1j * dt) * half)[:, :, None] * half[:, None, :] * sinc
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
    g = 2.0 * np.matmul(y[index], outer.reshape(n, 9).view(float)[:, :, None])
    return fid, g[..., 0].T.ravel()


def _projected_grad_inf(x: np.ndarray, g: np.ndarray) -> float:
    """Infinity norm of the projected gradient of the *minimized* objective."""
    pg = g.copy()
    at_lo = x <= -BOUND + 1e-12
    at_hi = x >= BOUND - 1e-12
    pg[at_lo] = np.minimum(pg[at_lo], 0.0)
    pg[at_hi] = np.maximum(pg[at_hi], 0.0)
    return float(np.max(np.abs(pg)))


def _exit_reason(info: dict) -> str:
    if info.get("warnflag", 0) == 1:
        return "maxiter"
    task = info.get("task", "")
    if isinstance(task, bytes):
        task = task.decode("ascii", "replace")
    return "gradient" if "PROJECTED_GRADIENT" in task.upper().replace(" ", "_") else "ftol"


def check_restarts(restarts: int) -> None:
    """A multi-start search draws ``restarts`` >= 0 random starts."""
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")


def _starts(
    const: np.ndarray, restarts: int, seed: int, shrink: float, extra_starts: Sequence[np.ndarray] | None
) -> list[np.ndarray]:
    """Starts of a multi-start search: ``restarts`` seeded uniform random
    vectors in the box divided by ``shrink``, then the constant start
    ``const``, then ``extra_starts``, each of const's shape."""
    check_restarts(restarts)
    rng = np.random.default_rng(seed)
    starts = [rng.uniform(-BOUND, BOUND, size=const.size) / shrink for _ in range(restarts)]
    starts.append(const)
    for x0 in extra_starts or ():
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != const.shape:
            raise ValueError(f"extra start must have shape {const.shape}")
        starts.append(x0)
    return starts


def _check_useful(fid: float, problem: ControlProblem) -> None:
    """A best fidelity at or below ``MIN_USEFUL_FIDELITY`` raises NoConvergence."""
    if fid <= MIN_USEFUL_FIDELITY:
        raise NoConvergence(
            f"best fidelity {fid:.3e} <= {MIN_USEFUL_FIDELITY}; "
            f"bounded controls cannot transfer in T={problem.T:g}"
        )


# ---------------------------------------------------------------------------
# piecewise-constant optimization


def optimize_piecewise(
    problem: ControlProblem,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
    extra_starts: Sequence[np.ndarray] | None = None,
) -> OptimizationReport:
    """Multi-start bound-constrained ascent over the omega segment values.

    Starts: ``restarts`` uniform random feasible waveforms, one constant
    omega at the upper bound, plus any ``extra_starts`` (clipped).  The
    fidelity landscape has distinct local optima with different bang counts,
    hence the multi-start.  Raises NoConvergence when nothing lifts the
    fidelity above 1e-3 (bounded controls at tiny T genuinely cannot).
    """
    if problem.delta_mode != DELTA_FIXED:
        raise ValueError("optimize_piecewise requires delta_mode='fixed'")
    n = problem.segments
    starts = _starts(np.full(n, BOUND), restarts, seed, 1.0, extra_starts)

    def objective(x):
        f, g = adjoint_gradient(problem, x)
        return -f, -g

    best = None
    for x0 in starts:
        x, negf, info = fmin_l_bfgs_b(
            objective,
            np.clip(x0, -BOUND, BOUND),
            bounds=[(-BOUND, BOUND)] * n,
            m=10,
            factr=10.0,
            pgtol=GRAD_TOL,
            maxiter=MAX_ITER,
            maxfun=20 * MAX_ITER,
        )
        if best is None or -negf > best[1]:
            best = (x, -negf, info)

    x, fid, info = best
    x = np.clip(x, -BOUND, BOUND)  # exact box feasibility for the reported waveform
    fid, g = adjoint_gradient(problem, x)
    _check_useful(fid, problem)
    waveform = ControlWaveform.piecewise_constant(problem.T, x, delta=problem.delta_value)
    return OptimizationReport(
        problem=problem,
        waveform=waveform,
        fidelity=float(fid),
        iterations=int(info["nit"]),
        grad_norm=_projected_grad_inf(x, -g),
        restarts=restarts,
        seed=seed,
        exit_reason=_exit_reason(info),
    )


def saturation_fraction(waveform: ControlWaveform) -> float:
    """Fraction of piecewise segments within ``SATURATION_TOL`` of either bound.

    Bang-bang structure diagnostic: optimal unconstrained-in-sign transfers
    ride the box boundary except at switches."""
    if waveform.piece_omega is None:
        raise ValueError("saturation_fraction needs a piecewise-constant waveform")
    at_bound = np.abs(np.abs(waveform.piece_omega) - BOUND) <= SATURATION_TOL
    return float(np.mean(at_bound))


# ---------------------------------------------------------------------------
# trigonometric-series optimization


def check_harmonics(p: int) -> None:
    """A series has p >= 0 harmonics."""
    if p < 0:
        raise ValueError(f"harmonic count p must be >= 0, got {p}")


def trig_basis(p: int, t: np.ndarray, T: float | None = None, convention: str = CONVENTION_XI) -> np.ndarray:
    """Design matrix [1, cos(kt), sin(kt), ...] of shape (len(t), 2p+1)."""
    check_harmonics(p)
    t = np.asarray(t, dtype=float)
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
    wf = series_waveform(series, T, convention=convention)
    traj = propagate(wf, TripletAmplitudes.spin_down(), method="piecewise-exponential")
    return fidelity(traj)


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
    extra_starts: Sequence[np.ndarray] | None = None,
) -> OptimizationReport:
    """Optimize series coefficients for omega (and delta when joint).

    The coefficient vector stacks channels of 2p + 1 coefficients: omega,
    then delta in trig-series mode.  Bounds are enforced at the segment
    midpoints through a quadratic hinge penalty on each channel, whose
    weight is raised over continuation rounds; each start's channels are
    then rescaled onto the box (the bound is symmetric, so uniform
    shrinking preserves feasibility) and re-checked, and a start that still
    overshoots loses to every feasible one.  ``extra_starts`` takes vectors
    of the same layout, e.g. the zero-padded optimum of a lower harmonic
    count.  The search scores the series sampled at segment midpoints; the
    reported fidelity is ``evaluate_series`` of the series the report
    ships, which in fixed mode carries the fixed detuning as its constant
    term b = [delta_value, 0, ..., 0].
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

    const = np.zeros(k * nc)
    const[0] = BOUND
    # random starts are scaled down so the realized waveforms begin feasible
    starts = _starts(const, restarts, seed, nc, extra_starts)

    best = None
    for x0 in starts:
        x = x0
        nit = 0
        for weight in PENALTY_WEIGHTS:
            x, _, info = fmin_l_bfgs_b(
                objective,
                x,
                args=(weight,),
                m=20,
                factr=10.0,
                pgtol=GRAD_TOL,
                maxiter=MAX_ITER,
                maxfun=20 * MAX_ITER,
                maxls=SERIES_LINE_SEARCH,
            )
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
    _, g_last = objective(channels.ravel(), PENALTY_WEIGHTS[-1])
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
    """optimize_trig over ascending harmonic counts, feeding each optimum
    forward (zero-padded) as an extra start; richer bases therefore never
    lose to poorer ones."""
    p_list = list(p_list)
    if any(p2 <= p1 for p1, p2 in zip(p_list, p_list[1:])):
        raise ValueError("harmonic counts must be strictly increasing")
    k = _channels(problem)
    reports: list[OptimizationReport] = []
    for i, p in enumerate(p_list):
        extra = []
        if reports:
            prev = reports[-1].series
            extra.append(np.pad(np.stack([prev.a, prev.b])[:k], ((0, 0), (0, 2 * (p - prev.p)))).ravel())
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
    problem: ControlProblem, restarts: int, seed: int, extra_starts: Sequence[np.ndarray] | None = None
) -> tuple[SweepCell, np.ndarray | None]:
    """optimize_piecewise on one sweep cell, with the optimum's omega
    segments; a cell it cannot solve gets fidelity NaN, its error and no
    segments."""
    try:
        rep = optimize_piecewise(problem, restarts=restarts, seed=seed, extra_starts=extra_starts)
    except (NoConvergence, NonUnitaryDrift) as exc:
        return SweepCell(T=problem.T, delta=problem.delta_value, fidelity=float("nan"), error=str(exc)), None
    return SweepCell(T=problem.T, delta=problem.delta_value, fidelity=rep.fidelity), rep.waveform.piece_omega


def _sweep(problems: Sequence[ControlProblem], restarts: int, seed: int) -> list[SweepCell]:
    """Solve the cells in (T, delta) order, so durations never shrink; return
    them in the caller's order.  Only a cell with no solved predecessor draws
    ``restarts`` random starts (seed + its index); the others start from the
    constant start and the last solved optimum, padded onto their duration.
    Idling costs nothing, so a cell ending over 1e-9 below the last solved
    cell of its detuning is re-run at once with 2 * restarts random starts
    (seed + 1000 + index) and keeps the better result.  A failed cell passes
    nothing on.
    """
    cells: list[SweepCell | None] = [None] * len(problems)
    floor: dict[float, float] = {}  # fidelity of the last solved cell per detuning
    prev: tuple[np.ndarray, float] | None = None  # (omega, T) of the last solved cell
    for i in sorted(range(len(problems)), key=lambda j: (problems[j].T, problems[j].delta_value)):
        problem = problems[i]
        extra = [_pad_resample(*prev, problem.T)] if prev else []
        cell, omega = _sweep_cell(problem, 0 if prev else restarts, seed + i, extra)
        if cell.fidelity + 1e-9 < floor.get(problem.delta_value, -math.inf):
            rerun, rerun_omega = _sweep_cell(problem, 2 * restarts, seed + 1000 + i, extra)
            # a failed rerun has fidelity NaN, so the first-pass cell stays
            if rerun.fidelity > cell.fidelity:
                cell, omega = rerun, rerun_omega
        cells[i] = cell
        if omega is not None:
            floor[problem.delta_value] = cell.fidelity
            prev = (omega, problem.T)
    return cells


def sweep_detuning(
    T_list: Sequence[float],
    delta_grid: Sequence[float],
    restarts: int = 2,
    seed: int = DEFAULT_SEED,
    segments: int = DEFAULT_SEGMENTS,
) -> list[SweepCell]:
    """Best piecewise fidelity on every (T, constant delta) pair, marched by
    ``_sweep`` once every cell has passed its checks; a failed cell gets
    fidelity NaN and the sweep goes on."""
    return _sweep(detuning_problems(T_list, delta_grid, segments), restarts, seed)


def detuning_problems(
    T_list: Sequence[float], delta_grid: Sequence[float], segments: int = DEFAULT_SEGMENTS
) -> list[ControlProblem]:
    """The cells of ``sweep_detuning``: one checked problem per (T, delta) pair."""
    T_list = list(T_list)
    delta_grid = list(delta_grid)
    if not T_list or not delta_grid:
        raise ValueError("sweep grids must be non-empty")
    return [ControlProblem(T=t, delta_value=d, segments=segments) for t, d in itertools.product(T_list, delta_grid)]


def _pad_resample(omega_prev: np.ndarray, T_prev: float, T_new: float) -> np.ndarray:
    """Previous optimum replayed on the first T_prev of a longer duration,
    idling (omega = 0) afterwards: a feasible start at least as good."""
    n = omega_prev.size
    t_mid = (np.arange(n) + 0.5) * (T_new / n)
    idx = np.minimum((t_mid / (T_prev / n)).astype(int), n - 1)
    return np.where(t_mid < T_prev, omega_prev[idx], 0.0)


def sweep_duration(
    delta_fixed: float,
    T_grid: Sequence[float],
    restarts: int = 2,
    seed: int = DEFAULT_SEED,
    segments: int = DEFAULT_SEGMENTS,
) -> list[SweepCell]:
    """Best piecewise fidelity against duration at a fixed detuning, marched
    by ``_sweep``: idling costs nothing, so no cell may end below the one
    before it."""
    return _sweep(duration_problems(delta_fixed, T_grid, segments), restarts, seed)


def duration_problems(
    delta_fixed: float, T_grid: Sequence[float], segments: int = DEFAULT_SEGMENTS
) -> list[ControlProblem]:
    """The cells of ``sweep_duration``: one checked problem per duration."""
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
