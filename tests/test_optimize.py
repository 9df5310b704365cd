"""Optimizer correctness: gradients, benchmark optima, series controls,
sweeps, the adiabatic reference, and artifact round trips."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import BENCH_DURATIONS, DETUNING_GRID, assert_arc_format, chain_reference, gradient_fd_worst_rel
from isingbell import optimize
from isingbell.cli import main
from isingbell.model import TripletAmplitudes, hc_batch
from isingbell.optimize import (
    BENCHMARK_SERIES_T25_A,
    BENCHMARK_SERIES_T25_B,
    CONVENTION_PERIOD,
    CONVENTION_XI,
    ControlProblem,
    NoConvergence,
    NonUnitaryDrift,
    OptimizationReport,
    TrigSeries,
    adiabatic_baseline,
    adjoint_gradient,
    detuning_problems,
    duration_problems,
    evaluate_series,
    optimize_piecewise,
    optimize_trig,
    read_series_json,
    saturation_fraction,
    series_waveform,
    sweep,
    trig_basis,
    trig_harmonic_scan,
    write_report_json,
    write_series_json,
    write_sweep_csv,
)
from isingbell.propagator import MAX_STEPS, ControlWaveform, fidelity, propagate

SPIN_DOWN = TripletAmplitudes.spin_down()

FIG2_FLOORS = {2.0: 0.9396, 2.5: 0.9908, 3.0: 0.9970, 3.6: 0.9999}


def _json_replay(rep: OptimizationReport) -> float:
    """Fidelity of the waveform in a report's JSON, rebuilt from that JSON
    alone: pieces on the exact route, a series through evaluate_series."""
    wf = json.loads(json.dumps(rep.to_dict()))["waveform"]
    if wf["kind"] == "trig-series":
        return evaluate_series(TrigSeries(wf["p"], wf["coefficients"]["a"], wf["coefficients"]["b"]), wf["T"])
    pieces = ControlWaveform.piecewise_constant(wf["T"], wf["omega"], wf["delta"], wf["edges"])
    return fidelity(propagate(pieces, SPIN_DOWN, method="piecewise-exponential"))


class TestControlProblem:
    def test_defaults(self):
        p = ControlProblem(T=2.5)
        assert p.to_dict()["omega_bounds"] == p.to_dict()["delta_bounds"] == [-1.0, 1.0]
        assert p.delta_mode == "fixed" and p.delta_value == 0.0
        assert p.segments == 1000

    def test_to_dict(self):
        d = ControlProblem(T=2.5, delta_value=-0.11).to_dict()
        assert d["T"] == 2.5 and d["delta_value"] == -0.11
        assert d["omega_bounds"] == [-1.0, 1.0]

    @pytest.mark.parametrize("kw", [
        dict(T=0.0),
        dict(T=float("nan")),
        dict(T=1.0, delta_mode="spline"),
        dict(T=1.0, segments=5),
        dict(T=1.0, delta_value=float("inf")),
        dict(T=1.0, delta_value=float("nan")),
        dict(T=1.0, delta_value=1.5),
        dict(T=1.0, delta_value=-5.0),
        dict(T=1.0, segments=MAX_STEPS + 1),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            ControlProblem(**kw)


class TestTrigSeries:
    def test_roundtrip(self):
        s = TrigSeries(p=1, a=[1.0, 2.0, 3.0], b=[0.0, -1.0, 0.5])
        s2 = TrigSeries.from_dict(s.to_dict())
        assert s2.p == 1
        np.testing.assert_array_equal(s2.a, s.a)
        np.testing.assert_array_equal(s2.b, s.b)

    @pytest.mark.parametrize("kw", [
        dict(p=-1, a=[1.0], b=[1.0]),
        dict(p=1, a=[1.0, 2.0], b=[0.0, 0.0, 0.0]),
        dict(p=0, a=[float("nan")], b=[0.0]),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TrigSeries(**kw)


def _segment_maps(delta: np.ndarray, omega: np.ndarray, dt: float):
    """exp(-i H_k dt) of every segment from its own eigendecomposition."""
    evals, evecs = np.linalg.eigh(hc_batch(delta, omega))
    return np.einsum("kij,kj,klj->kil", evecs, np.exp(-1j * dt * evals), evecs), evals, evecs


def _gradient_per_segment(problem: ControlProblem, controls: np.ndarray) -> tuple[float, np.ndarray]:
    """Reference for ``adjoint_gradient`` with no sharing between segments:
    eigh on every segment, per-step forward and adjoint loops, and each
    segment's derivative dU = V (W o Phi) V^T built in the full basis."""
    n = problem.segments
    dt = problem.T / n
    joint = problem.delta_mode == "trig-series"
    omega, delta = (controls[:n], controls[n:]) if joint else (controls, np.full(n, problem.delta_value))
    u, evals, evecs = _segment_maps(delta, omega, dt)
    c = chain_reference(u, np.array([1.0, 0.0, 0.0], dtype=complex))
    amp = c[-1, 1]
    lam = chain_reference(u.conj().transpose(0, 2, 1)[::-1], amp * np.array([0.0, 1.0, 0.0], dtype=complex))[::-1]
    esum = evals[:, :, None] + evals[:, None, :]
    ediff = evals[:, :, None] - evals[:, None, :]
    phi = -1j * dt * np.exp(-0.5j * dt * esum) * np.sinc(ediff * dt / (2.0 * math.pi))
    dh_omega = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
    dh_delta = np.diag([1.0, 0.0, -1.0])
    grads = []
    for dh in (dh_omega, dh_delta) if joint else (dh_omega,):
        w = np.swapaxes(evecs, 1, 2) @ dh @ evecs
        du = evecs @ (w * phi) @ np.swapaxes(evecs, 1, 2)
        grads.append(2.0 * np.real(np.einsum("ki,kij,kj->k", lam[1:].conj(), du, c[:-1])))
    return float(abs(amp) ** 2), np.concatenate(grads)


@st.composite
def repeated_controls(draw, joint: bool):
    """A problem and controls that repeat a few values the way bang-bang
    iterates do: every segment value comes from {-1, 0, 1} plus up to three
    interior values.  In joint mode the first four segments hold equal
    omega with different delta and equal delta with different omega."""
    n = draw(st.integers(min_value=10, max_value=120))
    interior = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=3))
    palette = st.sampled_from([-1.0, 0.0, 1.0, *interior])
    problem = ControlProblem(
        T=draw(st.floats(min_value=0.5, max_value=4.0)),
        delta_mode="trig-series" if joint else "fixed",
        delta_value=draw(palette),
        segments=n,
    )
    omega = np.array(draw(st.lists(palette, min_size=n, max_size=n)))
    if not joint:
        return problem, omega
    delta = np.array(draw(st.lists(palette, min_size=n, max_size=n)))
    a, b = draw(st.lists(palette, min_size=2, max_size=2, unique=True))
    omega[1] = omega[0]
    delta[:2] = a, b
    delta[3] = delta[2]
    omega[2:4] = a, b
    return problem, np.concatenate([omega, delta])


class TestAdjointGradient:
    def test_matches_finite_differences(self, fd_worst_rel):
        assert fd_worst_rel <= 1e-6

    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_finite_differences_at_saturated_controls(self, seed):
        # bang-bang-like points with degenerate delta = omega = 0 segments
        assert gradient_fd_worst_rel(instances=8, seed=seed, bang=True) <= 1e-6

    @given(case=st.one_of(repeated_controls(joint=False), repeated_controls(joint=True)))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_segment_reference(self, case):
        # segments that share a (delta, omega) pair share their spectral
        # work; the result must be that of the route that shares nothing
        problem, x = case
        f, g = adjoint_gradient(problem, x)
        f_ref, g_ref = _gradient_per_segment(problem, x)
        # a tiny amplitude is a cancellation of O(1) terms, so its relative
        # rounding grows as it shrinks: 4e-12 was seen below F = 1e-8
        assume(f_ref >= 1e-6)
        assert abs(f - f_ref) <= 1e-12 * f_ref
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))

    def test_exponential_route_matches_per_segment_maps(self):
        rng = np.random.default_rng(4)
        omega = rng.choice([-1.0, 1.0, 0.0, 0.37], size=250, p=[0.45, 0.45, 0.05, 0.05])
        wf = ControlWaveform.piecewise_constant(2.5, omega, delta=-0.11)
        traj = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        u, _, _ = _segment_maps(np.full(250, -0.11), omega, 2.5 / 250)
        ref = chain_reference(u, SPIN_DOWN.as_array())
        assert np.max(np.abs(traj.states - ref)) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_finite_differences_on_short_grids(self, seed):
        # one fixed-delta and one joint problem of 10-40 segments: padded,
        # single and non-square blocks of the batched forward/adjoint scan
        assert gradient_fd_worst_rel(instances=2, seed=seed, segments=(10, 41)) <= 1e-6

    def test_fixed_mode_gradient_is_omega_only(self):
        problem = ControlProblem(T=2.0, segments=80)
        rng = np.random.default_rng(0)
        f, g = adjoint_gradient(problem, rng.uniform(-1, 1, 80))
        assert g.shape == (80,)
        assert 0.0 < f < 1.0

    def test_trig_mode_gradient_stacks_omega_then_delta(self):
        problem = ControlProblem(T=2.0, segments=80, delta_mode="trig-series")
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 160)
        f, g = adjoint_gradient(problem, x)
        assert g.shape == (160,)
        # the two blocks respond to different Hamiltonian terms
        assert not np.allclose(g[:80], g[80:])

    def test_zero_control_is_stationary(self):
        problem = ControlProblem(T=2.5, segments=50, delta_value=-0.11)
        f, g = adjoint_gradient(problem, np.zeros(50))
        assert f == 0.0
        assert np.all(g == 0.0)

    def test_value_agrees_with_propagator(self):
        problem = ControlProblem(T=2.0, segments=60)
        rng = np.random.default_rng(3)
        omega = rng.uniform(-1, 1, 60)
        f, _ = adjoint_gradient(problem, omega)
        wf = ControlWaveform.piecewise_constant(2.0, omega)
        traj = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        assert f == pytest.approx(fidelity(traj), rel=1e-10)


def _fd_worst_rel(fun, z: np.ndarray, h: float) -> float:
    """Worst mismatch between the gradient of ``fun(z) -> (f, g)`` and
    central differences over every coordinate, relative to max|g|."""
    _, g = fun(z)
    worst = 0.0
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        worst = max(worst, abs((fun(zp)[0] - fun(zm)[0]) / (2 * h) - g[i]))
    return worst / max(float(np.max(np.abs(g))), 1e-10)


class TestArcGradient:
    """The derivatives of the arc polish: piece durations, switch times and
    singular-region values, against central differences."""

    @pytest.mark.parametrize("mode", ["fixed", "trig-series"])
    def test_piece_durations_and_values_match_finite_differences(self, mode):
        # uneven pieces, one of them 1e-5 long, and one idle delta = omega = 0
        # piece, where the spectrum is degenerate
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(4):
            n = int(rng.integers(5, 12))
            durations = rng.uniform(0.05, 0.6, n)
            durations[rng.integers(n)] = 1e-5
            problem = ControlProblem(T=float(durations.sum()), delta_mode=mode)
            k = 1 if mode == "fixed" else 2
            x = np.where(rng.random(k * n) < 0.6, rng.choice([-1.0, 1.0], k * n), rng.uniform(-1, 1, k * n))
            x[int(rng.integers(n))::n] = 0.0
            worst = max(worst, _fd_worst_rel(lambda z: adjoint_gradient(problem, z[: k * n], z[k * n :]),
                                             np.concatenate([x, durations]), 1e-7))
        assert worst <= 1e-6

    def test_switch_times_and_region_values_match_finite_differences(self):
        # a switch inside the lone interior segment 8, a singular region from
        # the interior run 14-17 (one idle omega = 0 value), and the -1 arc
        # then squeezed to 1e-5
        problem = ControlProblem(T=2.5, segments=60)
        x = np.array([1.0] * 8 + [0.3] + [-1.0] * 5 + [0.2, 0.0, -0.5, 0.4] + [1.0] * 2)
        arcs, z = optimize._Arcs.from_search(problem, x)
        np.testing.assert_array_equal(arcs.pieces, [1, 1, 12, 1])
        assert z.size == 3 + 12 and 0.0 in z[3:]
        z[1] = z[0] + 1e-5
        assert _fd_worst_rel(lambda v: arcs.objective(v, problem), z, 1e-7) <= 1e-6


def _switching_function(problem: ControlProblem, waveform: ControlWaveform) -> tuple[np.ndarray, float]:
    """The switching function Phi at every switch between bang arcs, as the
    switch-time derivative dF/dtau (the first arc's duration derivative
    minus the second's) over the jump of omega, and max|Phi| over [0, T],
    from the omega derivatives of the waveform cut at 4000 more edges."""
    omega, durations = waveform.piece_omega, np.diff(waveform.piece_edges)
    _, g = adjoint_gradient(problem, omega, durations)
    g_dur = g[omega.size :]
    bang = np.abs(np.abs(omega) - 1.0) <= optimize.SATURATION_TOL
    j = np.flatnonzero(bang[:-1] & bang[1:] & (omega[:-1] != omega[1:]))
    phi = (g_dur[j] - g_dur[j + 1]) / (omega[j] - omega[j + 1])
    fine = np.union1d(waveform.piece_edges, np.linspace(0.0, problem.T, 4001))
    _, w = waveform.sample(0.5 * (fine[1:] + fine[:-1]))
    _, g_fine = adjoint_gradient(problem, w, np.diff(fine))
    return phi, float(np.max(np.abs(g_fine[: w.size] / np.diff(fine))))


class TestSwitchingFunction:
    def test_every_shipped_switch_is_stationary(self, fig2_reports):
        switches = 0
        for t, rep in fig2_reports.items():
            phi, peak = _switching_function(rep.problem, rep.waveform)
            assert np.all(np.abs(phi) <= 1e-6 * peak), (t, phi / peak)
            switches += phi.size
        assert switches >= 8

    def test_grad_norm_is_the_switch_time_derivative(self, fig2_reports):
        # on pure bang-bang arcs the polish variables are the switch times, and
        # dF/dtau is Phi times the jump of 2
        for t in (2.5, 3.0, 3.6):
            rep = fig2_reports[t]
            phi, _ = _switching_function(rep.problem, rep.waveform)
            assert rep.grad_norm == pytest.approx(2.0 * np.max(np.abs(phi)), rel=1e-3, abs=0.0), t

    def test_a_switch_moved_by_a_thousandth_of_T_fails(self, fig2_reports):
        rep = fig2_reports[3.0]
        wf = rep.waveform
        for k in range(1, wf.piece_edges.size - 1):
            edges = wf.piece_edges.copy()
            edges[k] += 3.0 / 1000
            moved = ControlWaveform.piecewise_constant(3.0, wf.piece_omega, delta=0.0, edges=edges)
            phi, peak = _switching_function(rep.problem, moved)
            assert np.max(np.abs(phi)) > 1e-6 * peak, k


class TestSearchGrid:
    @pytest.mark.parametrize("T, deltas, lo, hi", [(2.5, (0.0, -0.11, -0.3, 0.3), 82, 86),
                                                   (3.6, (0.0, -0.11), 118, 120)])
    def test_grid_the_dynamics_resolve(self, T, deltas, lo, hi):
        for d in deltas:
            assert lo <= optimize.search_segments(ControlProblem(T=T, delta_value=d, segments=250)) <= hi

    def test_small_grids_are_searched_as_given(self):
        assert optimize.search_segments(ControlProblem(T=2.5, segments=60)) == 60
        assert optimize.search_segments(ControlProblem(T=0.01, segments=10)) == 10


class TestOptimizePiecewise:
    def test_benchmark_fidelities(self, fig2_reports):
        for t, floor in FIG2_FLOORS.items():
            rep = fig2_reports[t]
            assert rep.fidelity >= floor, f"T={t}: {rep.fidelity} < {floor}"
            assert rep.fidelity <= 1.0 + 1e-12

    def test_fidelity_grows_with_duration(self, fig2_reports):
        fids = [fig2_reports[t].fidelity for t in BENCH_DURATIONS]
        assert all(b > a for a, b in zip(fids, fids[1:]))

    def test_never_ships_below_its_search_optimum(self, monkeypatch):
        # near F = 1 the polish stops on its gradient tolerance below the
        # search optimum it started from (1.1e-11 below here)
        searched = []
        solver = optimize.fmin_l_bfgs_b

        def recording(objective, x0, **kwargs):
            x, f, info = solver(objective, x0, **kwargs)
            if not hasattr(objective, "__self__"):
                searched.append(-f)
            return x, f, info

        monkeypatch.setattr(optimize, "fmin_l_bfgs_b", recording)
        rep = optimize_piecewise(ControlProblem(T=3.4, delta_value=-0.11, segments=500), restarts=0, seed=42)
        assert rep.fidelity >= max(searched) - 1e-12
        # the search grid ships, every segment a piece, and replays as reported
        assert rep.waveform.piece_omega.size == optimize.search_segments(rep.problem)
        assert _json_replay(rep) == rep.fidelity

    def test_reported_fidelity_is_the_shipped_waveforms(self, fig2_reports):
        for t, rep in fig2_reports.items():
            replay = fidelity(propagate(rep.waveform, SPIN_DOWN))
            assert abs(replay - rep.fidelity) <= 1e-10, (t, replay, rep.fidelity)
            assert _json_replay(rep) == rep.fidelity, t

    def test_bounds_respected_exactly(self, fig2_reports):
        for rep in fig2_reports.values():
            assert np.max(np.abs(rep.waveform.piece_omega)) <= 1.0

    def test_bang_bang_character(self, fig2_reports):
        for t, rep in fig2_reports.items():
            frac = saturation_fraction(rep.waveform)
            assert frac >= 0.95, f"T={t}: saturation {frac}"

    def test_report_bookkeeping(self, fig2_reports):
        rep = fig2_reports[2.5]
        assert rep.seed == 42 and rep.restarts == 2
        assert rep.exit_reason in ("gradient", "ftol", "maxiter")
        assert rep.iterations > 0
        assert rep.series is None
        assert_arc_format(rep.waveform.piece_edges, rep.waveform.piece_omega, rep.problem.T)

    def test_no_convergence_when_duration_too_short(self):
        with pytest.raises(NoConvergence, match="cannot transfer"):
            optimize_piecewise(ControlProblem(T=0.01, segments=10), restarts=1, seed=0)

    def test_bounded_controls_barely_move_population_at_T_tenth(self):
        rep = optimize_piecewise(ControlProblem(T=0.1, segments=20), restarts=1, seed=0)
        assert rep.fidelity < 0.05

    def test_rejects_trig_mode(self):
        with pytest.raises(ValueError):
            optimize_piecewise(ControlProblem(T=2.0, delta_mode="trig-series"))

    def test_favourable_detuning_lifts_short_duration(self, neg_detuning_report, fig2_reports):
        assert neg_detuning_report.fidelity >= 0.999
        assert neg_detuning_report.fidelity > fig2_reports[2.5].fidelity


@pytest.mark.parametrize("optimizer, kwargs", [(optimize_piecewise, {}), (optimize_trig, {"p": 1})],
                         ids=["piecewise", "trig"])
def test_negative_restarts_rejected(optimizer, kwargs):
    # zero restarts is valid (the constant start alone); below zero is a usage error
    with pytest.raises(ValueError, match="restarts must be >= 0, got -1"):
        optimizer(ControlProblem(T=2.0, segments=20), restarts=-1, seed=0, **kwargs)


def test_sweep_checks_the_seed_before_any_cell():
    # the cell at index 1 (T = 2) is solved first, from seed + 1 = 0; only
    # the cell at index 0, solved after it, would draw from seed + 0 = -1
    problems = [ControlProblem(T=3.0, segments=10), ControlProblem(T=2.0, segments=10)]
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sweep(problems, restarts=0, seed=-1)


@pytest.mark.parametrize("optimizer, kwargs, start, message", [
    (optimize_piecewise, {}, ControlWaveform.piecewise_constant(1.5, [1.0]), "lasts 1.5, not the problem's T = 2"),
    (optimize_trig, {"p": 1}, TrigSeries(p=2, a=np.zeros(5), b=np.zeros(5)), "has 2 harmonics, more than p = 1"),
], ids=["piecewise", "trig"])
def test_extra_start_shape_checked(optimizer, kwargs, start, message):
    # a warm start is what an optimizer hands out: a waveform of duration T,
    # or a series of at most p harmonics
    with pytest.raises(ValueError, match=f"extra start {message}"):
        optimizer(ControlProblem(T=2.0, segments=50), restarts=0, seed=0, extra_starts=[start], **kwargs)


class TestLbfgsSeam:
    """Every solver call goes through the module attribute
    ``optimize.fmin_l_bfgs_b``, which tracers rebind."""

    @pytest.mark.parametrize("solve, calls", [
        (lambda: optimize_piecewise(ControlProblem(T=2.0, segments=40), restarts=1, seed=3), 2),
        # the search, then the polish of its three arcs
        (lambda: optimize_piecewise(ControlProblem(T=2.5, segments=40), restarts=0, seed=3), 2),
        # the search, the region values with the switch times held, then both
        (lambda: optimize_piecewise(ControlProblem(T=2.5, delta_value=-0.3, segments=40), restarts=0, seed=3), 3),
        # two searches from one start end in one basin, polished once
        (lambda: optimize_piecewise(ControlProblem(T=2.5, segments=40), restarts=0, seed=3,
                                    extra_starts=[ControlWaveform.piecewise_constant(2.5, np.ones(40))]), 3),
        (lambda: optimize_trig(ControlProblem(T=2.5, segments=40), p=1, restarts=0, seed=3),
         len(optimize.PENALTY_WEIGHTS)),
    ], ids=["piecewise", "piecewise-polish", "piecewise-region", "piecewise-same-basin", "trig"])
    def test_counting_pass_through_sees_every_call(self, monkeypatch, solve, calls):
        plain = solve().fidelity
        seen = []
        solver = optimize.fmin_l_bfgs_b

        def counting(*args, **kwargs):
            seen.append(kwargs.get("maxiter"))
            return solver(*args, **kwargs)

        monkeypatch.setattr(optimize, "fmin_l_bfgs_b", counting)
        assert solve().fidelity == plain
        assert len(seen) == calls


class TestSaturationFraction:
    def test_counts_segments_at_either_bound(self):
        wf = ControlWaveform.piecewise_constant(1.0, [1.0, -1.0, 0.5, 0.99951])
        assert saturation_fraction(wf) == pytest.approx(0.75)

    def test_weighs_pieces_by_duration(self):
        wf = ControlWaveform.piecewise_constant(2.0, [1.0, 0.5, -1.0], edges=[0.0, 0.2, 0.5, 2.0])
        assert saturation_fraction(wf) == pytest.approx(0.85)

    def test_requires_piecewise(self):
        wf = ControlWaveform(1.0, lambda ts: (0 * ts, 0 * ts))
        with pytest.raises(ValueError):
            saturation_fraction(wf)


class TestTrigBasis:
    def test_xi_units_columns(self):
        t = np.array([0.0, 0.5, 1.3])
        m = trig_basis(2, t)
        assert m.shape == (3, 5)
        np.testing.assert_allclose(m[:, 0], 1.0)
        np.testing.assert_allclose(m[:, 1], np.cos(t))
        np.testing.assert_allclose(m[:, 2], np.sin(t))
        np.testing.assert_allclose(m[:, 3], np.cos(2 * t))

    def test_per_duration_columns(self):
        t = np.array([0.0, 1.25, 2.5])
        m = trig_basis(1, t, T=2.5, convention=CONVENTION_PERIOD)
        np.testing.assert_allclose(m[:, 1], np.cos(2 * np.pi * t / 2.5), atol=1e-15)

    def test_per_duration_requires_T(self):
        with pytest.raises(ValueError):
            trig_basis(1, np.array([0.0]), convention=CONVENTION_PERIOD)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            trig_basis(1, np.array([0.0]), convention="fourier")


class TestSeriesEvaluation:
    def test_zero_series_moves_nothing(self):
        s = TrigSeries(p=1, a=np.zeros(3), b=np.zeros(3))
        assert evaluate_series(s, 2.5) < 1e-12

    def test_constant_series_matches_piecewise(self):
        s = TrigSeries(p=0, a=[0.7], b=[0.0])
        f_series = evaluate_series(s, 2.5)
        wf = ControlWaveform.piecewise_constant(2.5, np.full(1000, 0.7))
        f_piece = fidelity(propagate(wf, SPIN_DOWN))
        assert f_series == pytest.approx(f_piece, abs=1e-9)

    def test_benchmark_coefficients_reach_unit_fidelity_in_xi_units(self):
        s = TrigSeries(p=3, a=BENCHMARK_SERIES_T25_A, b=BENCHMARK_SERIES_T25_B)
        assert evaluate_series(s, 2.5, convention=CONVENTION_XI) >= 0.99

    def test_benchmark_coefficients_fail_under_per_duration_convention(self):
        s = TrigSeries(p=3, a=BENCHMARK_SERIES_T25_A, b=BENCHMARK_SERIES_T25_B)
        assert evaluate_series(s, 2.5, convention=CONVENTION_PERIOD) < 0.9

    def test_fixed_delta_plumbs_through(self):
        s = TrigSeries(p=0, a=[0.7], b=[-0.11])
        wf = series_waveform(s, 2.5)
        d, w = wf.sample(np.array([0.3, 1.9]))
        np.testing.assert_allclose(d, -0.11)
        np.testing.assert_allclose(w, 0.7)


class TestOptimizeTrig:
    def test_harmonic_scan_hits_near_unit_fidelity(self, trig_scan_reports):
        fids = [r.fidelity for r in trig_scan_reports]
        assert all(b >= a - 1e-9 for a, b in zip(fids, fids[1:])), fids
        assert fids[2] >= 0.999  # p = 3
        assert all(f <= 1.0 + 1e-12 for f in fids)

    def test_scan_reports_carry_series(self, trig_scan_reports):
        for p, rep in zip([1, 2, 3, 5], trig_scan_reports):
            assert rep.series is not None and rep.series.p == p
            assert rep.waveform.piece_omega is None
            # grad_norm: the unpenalised coefficient gradient of -F
            n = rep.problem.segments
            m = trig_basis(p, (np.arange(n) + 0.5) * (rep.problem.T / n))
            _, g = adjoint_gradient(rep.problem, np.concatenate([m @ rep.series.a, m @ rep.series.b]))
            assert rep.grad_norm == max(float(np.max(np.abs(m.T @ -gc))) for gc in g.reshape(2, n)), p

    def test_realized_waveforms_feasible(self, trig_scan_reports):
        for rep in trig_scan_reports:
            n = rep.problem.segments
            t_mid = (np.arange(n) + 0.5) * (rep.problem.T / n)
            m = trig_basis(rep.series.p, t_mid)
            assert np.max(np.abs(m @ rep.series.a)) <= 1.0 + 1e-9
            assert np.max(np.abs(m @ rep.series.b)) <= 1.0 + 1e-9

    def test_reported_fidelity_is_the_shipped_waveforms(self, trig_scan_reports):
        # the optimizer scores midpoint-sampled segments; the report ships the
        # smooth series, whose RK4 replay must give the same number
        for rep in trig_scan_reports:
            replay = fidelity(propagate(rep.waveform, SPIN_DOWN))
            assert abs(replay - rep.fidelity) <= 1e-9, (rep.series.p, replay, rep.fidelity)
            assert _json_replay(rep) == rep.fidelity, rep.series.p

    def test_constant_ansatz_loses_to_p3(self, trig_scan_reports):
        problem = ControlProblem(T=2.5, delta_mode="trig-series")
        rep0 = optimize_trig(problem, p=0, restarts=2, seed=42)
        assert rep0.fidelity < trig_scan_reports[2].fidelity - 1e-3

    @pytest.mark.parametrize("leaky_start", [0, 1])
    def test_feasible_start_wins_over_an_overshooting_one(self, monkeypatch, leaky_start):
        # one start's rescale leaves an overshoot, as rounding does on the huge
        # coefficients of an ill-conditioned fit; the report must not use it
        rescale = optimize._rescale_into_box
        calls = []

        def leaky_rescale(coeffs, values):
            scaled = rescale(coeffs, values)
            calls.append(None)
            return scaled * 1.001 if len(calls) == leaky_start + 1 else scaled

        monkeypatch.setattr(optimize, "_rescale_into_box", leaky_rescale)
        problem = ControlProblem(T=2.5, segments=40)
        rep = optimize_trig(problem, p=1, restarts=1, seed=0)
        assert len(calls) == 2
        t_mid = (np.arange(40) + 0.5) * (2.5 / 40)
        assert np.max(np.abs(trig_basis(1, t_mid) @ rep.series.a)) <= 1.0 + 1e-9

    def test_fixed_mode_scan_ships_fixed_detuning(self):
        problem = ControlProblem(T=2.5, delta_value=-0.11, segments=40)
        reports = trig_harmonic_scan(problem, [0, 1, 2], restarts=1, seed=3)
        ts = np.linspace(0.0, 2.5, 11)
        for rep in reports:
            np.testing.assert_array_equal(rep.series.b, [-0.11] + [0.0] * 2 * rep.series.p)
            np.testing.assert_array_equal(rep.waveform.sample(ts)[0], -0.11)
            assert evaluate_series(rep.series, 2.5) == rep.fidelity
        fids = [r.fidelity for r in reports]
        assert all(b >= a - 1e-9 for a, b in zip(fids, fids[1:])), fids

    def test_fixed_detuning_report_replays_from_its_coefficients(self, tmp_path):
        # as the benchmark's series check replays a report: from its JSON alone
        out = tmp_path / "o"
        argv = ["optimize", "--mode", "trig", "--p", "2", "--T", "2.5", "--delta", "-0.11",
                "--segments", "60", "--restarts", "1", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads((out / "optimize_report.json").read_text())
        wf = report["waveform"]
        series = TrigSeries(p=int(wf["p"]), a=np.asarray(wf["coefficients"]["a"], dtype=float),
                            b=np.asarray(wf["coefficients"]["b"], dtype=float))
        replay = evaluate_series(series, float(wf["T"]), convention=wf["convention"])
        assert replay == report["fidelity"]

    def test_scan_requires_increasing_harmonics(self):
        problem = ControlProblem(T=2.5, delta_mode="trig-series")
        with pytest.raises(ValueError):
            trig_harmonic_scan(problem, [2, 2], restarts=0, seed=0)

    def test_dense_series_reproduces_bang_solution(self, neg_detuning_report):
        # fit 200 harmonics to the bang-bang optimum, then polish in place
        problem = neg_detuning_report.problem
        n = problem.segments
        t_mid = (np.arange(n) + 0.5) * (problem.T / n)
        bang = neg_detuning_report.waveform.sample(t_mid)[1]
        coef, *_ = np.linalg.lstsq(trig_basis(200, t_mid), bang, rcond=None)
        fit = TrigSeries(p=200, a=coef, b=np.zeros(401))
        rep = optimize_trig(problem, p=200, restarts=0, seed=1, extra_starts=[fit])
        assert rep.fidelity >= 0.995
        vals = trig_basis(200, t_mid) @ rep.series.a
        # the polished series stays a one-sided bang up to a global sign flip
        dominant = max(float(np.mean(vals > 0.5)), float(np.mean(vals < -0.5)))
        assert dominant >= 0.8


class TestSweepDetuning:
    def test_grid_covered(self, detuning_cells):
        assert [c.delta for c in detuning_cells] == list(DETUNING_GRID)
        assert all(c.error is None for c in detuning_cells)
        assert all(c.T == 2.5 for c in detuning_cells)

    def test_best_detuning_is_small_and_negative(self, detuning_cells):
        best = max(detuning_cells, key=lambda c: c.fidelity)
        assert -0.2 <= best.delta < 0.0

    def test_favourite_cell_values(self, detuning_cells):
        by_delta = {c.delta: c.fidelity for c in detuning_cells}
        assert by_delta[-0.11] >= 0.999
        assert by_delta[0.0] == pytest.approx(0.9928, abs=2e-3)
        # red detuning helps, blue hurts: the curve is genuinely asymmetric
        assert by_delta[-0.11] > by_delta[0.11] + 0.01

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            detuning_problems([], [0.0])
        with pytest.raises(ValueError):
            detuning_problems([2.5], [])

    def test_failed_cell_recorded_and_sweep_continues(self):
        cells = sweep(detuning_problems([0.01, 2.0], [0.0], segments=10), restarts=1, seed=0)
        assert math.isnan(cells[0].fidelity) and cells[0].error
        assert cells[1].error is None and cells[1].fidelity > 0.5

    def test_cells_march_from_the_last_optimum(self, monkeypatch):
        calls = []
        fids = {0.1: 0.7, -0.1: 0.9, 0.0: 0.8}

        def fake_optimize(problem, restarts, seed, extra_starts=None):
            calls.append((problem.delta_value, restarts, seed, list(extra_starts or ())))
            wf = ControlWaveform.piecewise_constant(problem.T, np.full(problem.segments, problem.delta_value))
            return SimpleNamespace(fidelity=fids[problem.delta_value], waveform=wf)

        monkeypatch.setattr(optimize, "optimize_piecewise", fake_optimize)
        cells = sweep(detuning_problems([2.5], [0.1, -0.1, 0.0], segments=10), restarts=1, seed=0)
        assert [call[0] for call in calls] == [-0.1, 0.0, 0.1]
        assert calls[0][1:3] == (1, 1) and calls[0][3] == []
        for (prev_delta, *_), (_, restarts, _, extra) in zip(calls, calls[1:]):
            assert restarts == 0 and len(extra) == 1 and extra[0].duration == 2.5
            np.testing.assert_array_equal(extra[0].piece_omega, np.full(10, prev_delta))
        assert [(c.delta, c.fidelity) for c in cells] == [(0.1, 0.7), (-0.1, 0.9), (0.0, 0.8)]


class TestSweepDuration:
    def test_monotone_after_repair(self, duration_cells_zero, duration_cells_neg):
        for cells in (duration_cells_zero, duration_cells_neg):
            fids = [c.fidelity for c in cells]
            assert all(b >= a - 1e-9 for a, b in zip(fids, fids[1:])), fids

    def test_matches_benchmark_floors(self, duration_cells_zero):
        for cell in duration_cells_zero:
            assert cell.fidelity >= FIG2_FLOORS[cell.T]

    def test_negative_detuning_reaches_target_sooner(self, duration_cells_zero, duration_cells_neg):
        def first_T(cells, target=0.999):
            hits = [c.T for c in cells if c.fidelity >= target]
            return hits[0] if hits else float("inf")

        assert first_T(duration_cells_neg) < first_T(duration_cells_zero)

    def test_warm_start_idles_after_the_solved_duration(self):
        # the solved cell's arcs, idled, sampled at the next cell's search-grid midpoints
        wf = ControlWaveform.piecewise_constant(2.0, [1.0, -1.0], edges=[0.0, 1.5, 2.0])
        t_mid = (np.arange(10) + 0.5) * 0.25
        start = optimize._idled(wf, ControlProblem(T=2.5, segments=10)).sample(t_mid)[1]
        np.testing.assert_array_equal(start, np.where(t_mid < 1.5, 1.0, np.where(t_mid < 2.0, -1.0, 0.0)))

    def test_grid_validation(self):
        for bad in ([], [2.0, 1.0], [-1.0, 2.0]):
            with pytest.raises(ValueError):
                duration_problems(0.0, bad)

    @pytest.mark.parametrize("problems, fids, shipped", [
        pytest.param(duration_problems(0.0, [1.0, 2.0, 3.0], segments=10), [0.5, 0.4, 0.6], [0.5, 0.5, 0.6],
                     id="duration"),
        pytest.param(detuning_problems([1.0, 2.0], [0.0, 0.1], segments=10), [0.5, 0.3, 0.4, 0.2],
                     [0.5, 0.3, 0.5, 0.3], id="detuning"),
        pytest.param(detuning_problems([1.0, 1.0, 2.0], [0.0], segments=10), [0.5, 0.4, 0.6], [0.5, 0.5, 0.6],
                     id="repeated-cell"),
    ])
    def test_a_dip_ships_the_idled_predecessor(self, monkeypatch, problems, fids, shipped):
        # the optimizer returns the given fidelities in solve order, each with
        # omega held at it; a cell that dips ships the last solved waveform of
        # its detuning, idle up to its duration, with that cell's fidelity,
        # and the last cell starts from it
        calls = []

        def fake_optimize(problem, restarts, seed, extra_starts=None):
            calls.append(list(extra_starts or ()))
            f = fids[len(calls) - 1]
            return SimpleNamespace(fidelity=f, waveform=ControlWaveform.piecewise_constant(problem.T, np.full(10, f)))

        monkeypatch.setattr(optimize, "optimize_piecewise", fake_optimize)
        cells = sweep(problems, restarts=1, seed=0)
        assert [(c.fidelity, c.error) for c in cells] == [(f, None) for f in shipped]
        assert len(calls) == len(problems)
        t_mid = (np.arange(10) + 0.5) * (problems[-1].T / 10)
        assert calls[-1][0].duration == problems[-1].T
        np.testing.assert_array_equal(calls[-1][0].sample(t_mid)[1], np.where(t_mid < 1.0, 0.5, 0.0))

    @pytest.mark.parametrize("grid, rerun", [
        pytest.param("duration", NoConvergence, id="NoConvergence"),
        pytest.param("duration", NonUnitaryDrift, id="NonUnitaryDrift"),
        pytest.param("duration", 0.6, id="rerun-succeeds"),
        pytest.param("detuning", NoConvergence, id="detuning-NoConvergence"),
        pytest.param("detuning", NonUnitaryDrift, id="detuning-NonUnitaryDrift"),
        pytest.param("detuning", 0.6, id="detuning-rerun-succeeds"),
    ])
    def test_failed_repair_keeps_first_pass_cell(self, monkeypatch, grid, rerun):
        # the first pass dips at T = 2; a rerun (seed >= 1000) would fail (an
        # exception) or return the given fidelity, but the sweep never re-runs:
        # the dip ships the first pass's T = 1 cell, idled, with its fidelity
        first_pass = {1.0: 0.5, 2.0: 0.4}
        seeds = []

        def fake_optimize(problem, restarts, seed, extra_starts=None):
            seeds.append(seed)
            if seed >= 1000 and isinstance(rerun, type):
                raise rerun("rerun failed")
            wf = ControlWaveform.piecewise_constant(problem.T, np.zeros(problem.segments))
            return SimpleNamespace(fidelity=rerun if seed >= 1000 else first_pass[problem.T], waveform=wf)

        monkeypatch.setattr(optimize, "optimize_piecewise", fake_optimize)
        if grid == "duration":
            cells = sweep(duration_problems(0.0, [1.0, 2.0], segments=10), restarts=1, seed=0)
        else:
            cells = sweep(detuning_problems([1.0, 2.0], [0.0], segments=10), restarts=1, seed=0)
        assert [(c.T, c.fidelity, c.error) for c in cells] == [(1.0, 0.5, None), (2.0, 0.5, None)]
        assert len(seeds) == 2 and max(seeds) < 1000

    def test_idling_keeps_the_fidelity(self, fig2_reports):
        # with omega = 0 the Hamiltonian is diagonal: the idle piece turns phases only
        rep = fig2_reports[2.5]
        idled = optimize._idled(rep.waveform, ControlProblem(T=3.1))
        assert idled.duration == 3.1 and idled.piece_omega[-1] == 0.0
        assert optimize._idled(rep.waveform, rep.problem) is rep.waveform
        exact = [fidelity(propagate(wf, SPIN_DOWN, method="piecewise-exponential")) for wf in (rep.waveform, idled)]
        assert abs(exact[1] - exact[0]) <= 1e-14 and abs(exact[1] - rep.fidelity) <= 1e-14


class TestAdiabaticBaseline:
    def test_sweep_is_linear_and_pulse_symmetric(self):
        wf = adiabatic_baseline(10.0)
        ts = np.array([2.0, 5.0, 8.0])
        d, w = wf.sample(ts)
        assert d[1] == pytest.approx(0.0, abs=1e-14)
        assert d[0] == pytest.approx(-d[2])
        assert w[0] == pytest.approx(w[2])
        assert w[1] == pytest.approx(1.0)

    def test_fidelity_improves_with_duration(self):
        fids = []
        for T in (10.0, 20.0, 30.0):
            traj = propagate(adiabatic_baseline(T), SPIN_DOWN)
            fids.append(fidelity(traj))
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert fids[0] >= 0.99
        # slower than the shortcut: still short of 0.9995 even at T = 30
        assert fids[-1] < 0.9995

    def test_no_coupling_no_transfer(self):
        # the baseline's linear sweep (rate 8 / T) with the Rabi pulse off
        wf = ControlWaveform(10.0, lambda ts: (0.8 * (ts - 5.0), 0.0 * ts))
        assert fidelity(propagate(wf, SPIN_DOWN)) < 1e-12

    @pytest.mark.parametrize("kw", [dict(T=-1.0)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            adiabatic_baseline(**kw)


class TestDeterminism:
    def test_same_seed_bitwise_identical_report(self, determinism_jsons):
        first, second = determinism_jsons
        assert first == second

    def test_different_seeds_may_disagree_on_waveform(self):
        a = optimize_piecewise(ControlProblem(T=2.0, segments=100), restarts=1, seed=1)
        b = optimize_piecewise(ControlProblem(T=2.0, segments=100), restarts=1, seed=2)
        # fidelities agree to optimization tolerance; exact equality is not required
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-3)


class TestArtifacts:
    def test_report_json(self, tmp_path, fig2_reports):
        path = tmp_path / "report.json"
        write_report_json(fig2_reports[2.5], path, config={"experiment": "optimize"})
        doc = json.loads(path.read_text())
        assert doc["config"] == {"experiment": "optimize"}
        assert doc["waveform"]["kind"] == "piecewise-constant"
        assert_arc_format(doc["waveform"]["edges"], doc["waveform"]["omega"], 2.5)
        assert doc["fidelity"] == fig2_reports[2.5].fidelity

    def test_trig_report_json(self, tmp_path, trig_scan_reports):
        path = tmp_path / "report.json"
        write_report_json(trig_scan_reports[2], path)
        doc = json.loads(path.read_text())
        assert doc["waveform"]["kind"] == "trig-series"
        assert doc["waveform"]["convention"] == CONVENTION_XI
        assert len(doc["waveform"]["coefficients"]["a"]) == 7

    def test_sweep_csv(self, tmp_path, detuning_cells):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(detuning_cells, path, config={"experiment": "sweep-detuning"})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "T,delta,fidelity"
        assert len(lines) == 2 + len(detuning_cells)
        t, d, f = (float(x) for x in lines[2].split(","))
        assert (t, d) == (2.5, detuning_cells[0].delta)
        # values are written with 15 significant digits
        assert f == pytest.approx(detuning_cells[0].fidelity, rel=1e-14)

    def test_series_json_roundtrip(self, tmp_path):
        s = TrigSeries(p=3, a=BENCHMARK_SERIES_T25_A, b=BENCHMARK_SERIES_T25_B)
        path = tmp_path / "series.json"
        write_series_json(s, path, extra={"T": 2.5, "convention": CONVENTION_XI})
        s2 = read_series_json(path)
        np.testing.assert_array_equal(s2.a, s.a)
        np.testing.assert_array_equal(s2.b, s.b)
        assert json.loads(path.read_text())["convention"] == CONVENTION_XI
