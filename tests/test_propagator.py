"""Propagation: waveforms, the two integration routes, and their invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import chain_reference
from isingbell import propagator
from isingbell.model import TripletAmplitudes
from isingbell.optimize import BENCHMARK_SERIES_T25_A, BENCHMARK_SERIES_T25_B, TrigSeries, series_waveform
from isingbell.propagator import (
    HALVING_TOL,
    MAX_STEPS,
    ControlWaveform,
    NonUnitaryDrift,
    _cf4_controls,
    _cf4_history,
    _taylor_table,
    chain_indexed,
    fidelity,
    hc_batch,
    propagate,
    rk4_evolve,
    segment_propagators,
    step_count,
    write_trajectory_csv,
)
from isingbell.shortcut import ShortcutSpec, shortcut_waveform

SPIN_DOWN = TripletAmplitudes.spin_down()

bounded = st.floats(min_value=-1.0, max_value=1.0)
#: (delta, omega) segment values of a random bounded drive
drives = st.lists(st.tuples(bounded, bounded), min_size=1, max_size=40)
steps = st.floats(min_value=1e-3, max_value=0.5)
states3 = st.lists(st.complex_numbers(max_magnitude=1.0), min_size=3, max_size=3).filter(
    lambda c: np.linalg.norm(c) > 1e-3
)


def _narrow_pulse(omega: float) -> ControlWaveform:
    """omega on (0.5006, 0.5014) of T = 1, zero elsewhere: narrower than
    the 1/512 spacing of ``step_count``'s peak samples, and between two."""

    def sampler(ts):
        return 0.0 * ts, np.where((ts > 0.5006) & (ts < 0.5014), omega, 0.0)

    return ControlWaveform(1.0, sampler)


def _unit(c) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    return c / np.linalg.norm(c)


class TestControlWaveform:
    def test_piecewise_segments_sample_right_continuous(self):
        wf = ControlWaveform.piecewise_constant(2.0, [1.0, -1.0], delta=0.5)
        d, w = wf.sample(np.array([0.0, 0.99, 1.0, 1.99]))
        assert np.allclose(w, [1.0, 1.0, -1.0, -1.0])
        assert np.allclose(d, 0.5)

    def test_scalar_delta_broadcasts(self):
        wf = ControlWaveform.piecewise_constant(1.0, [0.3, 0.4, 0.5], delta=-0.11)
        assert wf.piece_delta.shape == (3,)

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            ControlWaveform.piecewise_constant(0.0, [1.0])

    def test_rejects_nonfinite_segments(self):
        with pytest.raises(ValueError):
            ControlWaveform.piecewise_constant(1.0, [np.nan])


class TestPropagate:
    def test_zero_controls_keep_populations(self):
        wf = ControlWaveform.piecewise_constant(3.0, [0.0], delta=0.0)
        traj = propagate(wf, SPIN_DOWN)
        assert np.allclose(traj.populations, np.tile([1.0, 0.0, 0.0], (traj.times.size, 1)), atol=1e-12)
        # only a global phase may have accumulated
        assert abs(abs(traj.states[-1, 0]) - 1.0) < 1e-12

    def test_grid_endpoints(self):
        wf = ControlWaveform.piecewise_constant(2.5, [1.0])
        traj = propagate(wf, SPIN_DOWN)
        assert traj.times[0] == 0.0 and traj.times[-1] == 2.5

    def test_constant_pulse_matches_exact_exponential(self):
        # one constant segment: rk4 against the closed-form exponential
        wf = ControlWaveform.piecewise_constant(1.0, [1.0], delta=0.0)
        traj = propagate(wf, SPIN_DOWN, method="rk4")
        h = hc_batch(np.array([0.0]), np.array([1.0]))[0]
        evals, evecs = np.linalg.eigh(h)
        u = evecs @ np.diag(np.exp(-1j * evals * 1.0)) @ evecs.T
        exact = u @ SPIN_DOWN.as_array()
        assert np.max(np.abs(traj.states[-1] - exact)) <= 1e-8

    def test_methods_agree_on_piecewise(self):
        rng = np.random.default_rng(3)
        wf = ControlWaveform.piecewise_constant(2.0, rng.uniform(-1, 1, 50), delta=-0.11)
        t_exp = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        t_rk4 = propagate(wf, SPIN_DOWN, method="rk4")
        assert np.max(np.abs(t_exp.states[-1] - t_rk4.states[-1])) <= 1e-7

    def test_exponential_route_takes_parametric_waveforms(self):
        # constant controls given as a sampler: CF4 steps are exact, so the
        # route agrees with the single exact segment to round-off
        wf = ControlWaveform(1.0, lambda ts: (np.zeros_like(ts), np.ones_like(ts)))
        traj = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        exact = propagate(ControlWaveform.piecewise_constant(1.0, [1.0]), SPIN_DOWN, method="piecewise-exponential")
        assert (traj.method, traj.steps) == ("piecewise-exponential", 100)
        assert traj.times.size == 101 and traj.error_estimate <= 1e-13
        assert np.max(np.abs(traj.states[-1] - exact.states[-1])) <= 1e-13

    def test_unknown_method_rejected(self):
        wf = ControlWaveform.piecewise_constant(1.0, [1.0])
        with pytest.raises(ValueError):
            propagate(wf, SPIN_DOWN, method="magnus")

    def test_exponential_route_records_segments(self):
        wf = ControlWaveform.piecewise_constant(2.0, [1.0, -0.5, 0.8], delta=0.2)
        traj = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        assert (traj.method, traj.steps) == ("piecewise-exponential", 3)
        assert 0.0 <= traj.max_drift <= 1e-14
        assert traj.error_estimate == 0.0

    def test_rk4_route_makes_no_error_estimate(self):
        traj = propagate(ControlWaveform.piecewise_constant(1.0, [1.0]), SPIN_DOWN)
        assert traj.error_estimate is None

    def test_coarse_steps_raise_drift(self):
        # the pulse lies between two of the policy's peak samples, so the
        # policy picks 4000 steps, four of them inside a pulse of area 8
        with pytest.raises(NonUnitaryDrift, match="under-resolves"):
            propagate(_narrow_pulse(1e4), SPIN_DOWN)

    def test_nan_trajectory_raises_drift(self):
        # at omega = 1e200 the RK4 maps overflow and the norm is NaN, which
        # a plain `drift > limit` test would let through
        with pytest.warns(RuntimeWarning), pytest.raises(NonUnitaryDrift, match="nan"):
            propagate(_narrow_pulse(1e200), SPIN_DOWN)

    def test_auto_steps_track_pulse_area(self):
        # max|omega|*T = 500 -> 500000 steps, and the drift guard passes
        wf = ControlWaveform.piecewise_constant(10.0, np.full(4, 50.0))
        traj = propagate(wf, SPIN_DOWN)
        assert traj.times.size - 1 == 500000

    def test_step_count_above_the_ceiling_is_rejected(self):
        # max|omega|*T = 1000 asks for exactly MAX_STEPS; aligning that to 7
        # segments gives 1,000,006
        assert step_count(ControlWaveform.piecewise_constant(1.0, np.full(8, 1000.0))) == MAX_STEPS
        with pytest.raises(ValueError, match="ceiling"):
            step_count(ControlWaveform.piecewise_constant(1.0, np.full(7, 1000.0)))

    def test_strong_detuning_sets_the_rk4_count(self):
        # |H| <= 4 + 30 + sqrt(2) bounds the step; the pulse area alone
        # (max|omega| T = 10) gave 10,000 steps and a norm drift of 1e-7
        wf = ControlWaveform.piecewise_constant(10.0, [1.0], delta=30.0)
        assert step_count(wf) == math.ceil(1000 * 10.0 * (34.0 + math.sqrt(2.0)) / 10.0)
        t_rk4 = propagate(wf, SPIN_DOWN)
        t_exp = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        assert np.max(np.abs(t_rk4.states[-1] - t_exp.states[-1])) <= 1e-7

    def test_rk4_steps_align_with_segments(self):
        wf = ControlWaveform.piecewise_constant(1.0, np.ones(7))
        traj = propagate(wf, SPIN_DOWN)
        assert (traj.times.size - 1) % 7 == 0

    def test_time_reversal_returns_start(self):
        rng = np.random.default_rng(11)
        n = 40
        omega = rng.uniform(-1, 1, n)
        delta = rng.uniform(-0.5, 0.5, n)
        wf = ControlWaveform.piecewise_constant(2.0, omega, delta=delta)
        traj = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        # backward leg: reversed waveform with the Hamiltonian negated
        dt = 2.0 / n
        h_back = -hc_batch(delta[::-1], omega[::-1])
        back = rk4_evolve(np.repeat(h_back, 50, axis=0), traj.states[-1], dt / 50)
        assert np.max(np.abs(back[-1] - SPIN_DOWN.as_array())) <= 1e-8

    def test_linearity_in_the_state(self):
        wf = ControlWaveform.piecewise_constant(2.0, [1.0, -0.5, 0.8], delta=0.2)
        u = TripletAmplitudes(1.0, 0.0, 0.0)
        v = TripletAmplitudes(0.0, 1.0, 0.0)
        mix = TripletAmplitudes(1 / np.sqrt(2), 1j / np.sqrt(2), 0.0)
        f_u = propagate(wf, u, method="piecewise-exponential").states[-1]
        f_v = propagate(wf, v, method="piecewise-exponential").states[-1]
        f_mix = propagate(wf, mix, method="piecewise-exponential").states[-1]
        assert np.max(np.abs(f_mix - (f_u / np.sqrt(2) + 1j * f_v / np.sqrt(2)))) <= 1e-9

    @given(segs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_norm_conserved_and_methods_agree(self, segs):
        wf = ControlWaveform.piecewise_constant(2.0, segs, delta=0.1)
        t_rk4 = propagate(wf, SPIN_DOWN)
        assert np.max(np.abs(np.sum(t_rk4.populations, axis=1) - 1.0)) <= 1e-10
        t_exp = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        assert np.max(np.abs(t_exp.states[-1] - t_rk4.states[-1])) <= 1e-7


class TestFourthOrderRoute:
    """The piecewise-exponential route on parametric waveforms: CF4:2 steps
    with a step-halving estimate and a jump guard."""

    @staticmethod
    def _shortcut(kind="symmetric", T=10.0):
        return shortcut_waveform(ShortcutSpec(kind=kind, e=0.1, T=T))

    def test_fourth_order(self):
        wf = self._shortcut()
        c0 = SPIN_DOWN.as_array()
        ref = _cf4_history(wf, c0, 2000)[-1]
        err = [np.linalg.norm(_cf4_history(wf, c0, n)[-1] - ref) for n in (50, 100)]
        assert err[1] > 1e-10
        assert err[0] / err[1] >= 12.0

    def test_history_is_kept_at_the_step_edges(self):
        wf = self._shortcut(T=1.0)
        traj = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        assert traj.states.shape == (traj.steps + 1, 3)
        np.testing.assert_allclose(traj.times, np.linspace(0.0, 1.0, traj.steps + 1))
        assert np.array_equal(traj.states, _cf4_history(wf, SPIN_DOWN.as_array(), traj.steps))
        assert 0.0 <= traj.error_estimate <= HALVING_TOL and traj.max_drift <= 1e-12

    @pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
    @pytest.mark.parametrize("T", [0.01, 10.0, 15.0])
    def test_agrees_with_rk4_on_the_shortcut(self, kind, T):
        # the ends of the fig1b grid and the T = 10 anchor
        wf = self._shortcut(kind, T)
        t_exp = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        t_rk4 = propagate(wf, SPIN_DOWN)
        assert np.linalg.norm(t_exp.states[-1] - t_rk4.states[-1]) <= 1e-7

    @pytest.mark.parametrize("convention", ["xi-units", "per-duration"])
    def test_agrees_with_rk4_on_the_table1_series(self, convention):
        series = TrigSeries(p=3, a=BENCHMARK_SERIES_T25_A, b=BENCHMARK_SERIES_T25_B)
        wf = series_waveform(series, 2.5, convention=convention)
        t_exp = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        t_rk4 = propagate(wf, SPIN_DOWN)
        assert np.linalg.norm(t_exp.states[-1] - t_rk4.states[-1]) <= 1e-7

    def test_coarse_count_doubles_until_the_estimate_passes(self, monkeypatch):
        monkeypatch.setattr(propagator, "CF4_MIN_STEPS", 10)
        monkeypatch.setattr(propagator, "CF4_STEPS_PER_UNIT_NORM", 0)
        wf = self._shortcut()
        traj = propagate(wf, SPIN_DOWN, method="piecewise-exponential")
        assert traj.steps > 10 and traj.steps % 10 == 0 and math.log2(traj.steps // 10).is_integer()
        assert traj.error_estimate <= HALVING_TOL
        assert np.linalg.norm(traj.states[-1] - propagate(wf, SPIN_DOWN).states[-1]) <= 1e-7

    @pytest.mark.parametrize("omega", [1e4, 30.0])
    def test_narrow_pulse_raises(self, omega):
        # step halving alone would pass the 1e4 pulse at a wrong fidelity:
        # both counts straddle it alike
        with pytest.raises(NonUnitaryDrift, match="jump"):
            propagate(_narrow_pulse(omega), SPIN_DOWN, method="piecewise-exponential")


def _complex_maps(table: np.ndarray) -> np.ndarray:
    """The complex maps M of real-form rows [[Re M, -Im M], [Im M, Re M]]."""
    d = table.shape[-1] // 2
    return table[:, :d, :d] + 1j * table[:, d:, :d]


class TestSegmentPropagators:
    def test_unitary(self):
        rng = np.random.default_rng(5)
        delta, omega = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
        table, index, _, _ = segment_propagators(delta, omega, 0.1)
        assert table.shape == (9, 6, 6) and np.array_equal(np.sort(index), np.arange(8))
        u = _complex_maps(table[:8])
        eye = np.broadcast_to(np.eye(3), (8, 3, 3))
        assert np.allclose(np.matmul(u.conj().transpose(0, 2, 1), u), eye, atol=1e-13)
        h = hc_batch(delta, omega)
        for k in range(8):
            assert np.max(np.abs(u[index[k]] - expm(-0.1j * h[k]))) <= 1e-13
        # the last row pads the scan
        assert np.array_equal(table[8], np.eye(6))

    def test_table_holds_each_distinct_pair_once(self):
        # equal omega with different delta and equal delta with different
        # omega are different pairs; -0.0 and 0.0 are the same value
        delta = np.array([0.0, -0.0, 0.3, 0.0, 0.3, 0.0])
        omega = np.array([1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
        table, index, evals, _ = segment_propagators(delta, omega, 0.2)
        assert table.shape == (5, 6, 6) and evals.shape == (4, 3)
        assert index[0] == index[1] == index[5]
        assert len({index[0], index[2], index[3], index[4]}) == 4
        h = hc_batch(delta, omega)
        u = _complex_maps(table[:4])
        for k in range(6):
            assert np.max(np.abs(u[index[k]] - expm(-0.2j * h[k]))) <= 1e-13


class TestChain:
    @staticmethod
    def _check_against_loop(n, dim, rows, batch, seed):
        # rows=None gives every step of every batch its own table row, as
        # RK4's table does; otherwise a few rows are shared by many steps, as
        # in the optimizer's distinct-pair table
        rng = np.random.default_rng(seed)
        m = batch * n if rows is None else rows
        z = rng.normal(size=(m, dim, dim)) + 1j * rng.normal(size=(m, dim, dim))
        maps, _ = np.linalg.qr(z)  # random unitary step maps
        table = np.empty((m + 1, 2 * dim, 2 * dim))
        table[:m, :dim, :dim] = table[:m, dim:, dim:] = maps.real
        table[:m, dim:, :dim] = maps.imag
        table[:m, :dim, dim:] = -maps.imag
        table[m] = np.eye(2 * dim)
        index = np.arange(m).reshape(batch, n) if rows is None else rng.integers(0, rows, size=(batch, n))
        c0 = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
        c0 /= np.linalg.norm(c0, axis=-1, keepdims=True)
        states = chain_indexed(table, index, c0)
        assert states.shape == (batch, n + 1, dim)
        assert np.array_equal(states[:, 0], c0)
        ref = np.array([chain_reference(maps[i], c) for i, c in zip(index, c0)])
        assert np.max(np.abs(states - ref)) <= 1e-13 * n

    # one map per step, in order: n = 1; one block (2); padded last blocks
    # (3, 7, 17); a square (16); a block length near that of the optimizer's
    # 250 segments
    @given(
        n=st.integers(min_value=1, max_value=300),
        dim=st.sampled_from([2, 3]),
        batch=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=1, dim=3, batch=1, seed=0)
    @example(n=2, dim=2, batch=2, seed=0)
    @example(n=3, dim=3, batch=2, seed=0)
    @example(n=7, dim=2, batch=1, seed=0)
    @example(n=16, dim=3, batch=1, seed=0)
    @example(n=17, dim=3, batch=2, seed=0)
    @example(n=250, dim=3, batch=2, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_loop(self, n, dim, batch, seed):
        self._check_against_loop(n, dim, None, batch, seed)

    # a few maps shared by many steps, read by index
    @given(
        n=st.integers(min_value=1, max_value=300),
        dim=st.sampled_from([2, 3]),
        rows=st.integers(min_value=1, max_value=6),
        batch=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=250, dim=3, rows=3, batch=2, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_indexed_matches_sequential_loop(self, n, dim, rows, batch, seed):
        self._check_against_loop(n, dim, rows, batch, seed)

    @given(drive=drives, dt=steps, c0=states3)
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved(self, drive, dt, c0):
        delta, omega = np.array(drive).T
        table, index, _, _ = segment_propagators(delta, omega, dt)
        states = chain_indexed(table, index[None], _unit(c0)[None])[0]
        assert states.shape == (len(drive) + 1, 3)
        assert np.array_equal(states[0], _unit(c0))
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-12

    @given(drive=drives, dt=steps, c0=states3, lam_final=states3)
    @settings(max_examples=40, deadline=None)
    def test_forward_and_adjoint_pair_conserve_overlap(self, drive, dt, c0, lam_final):
        # c_{k+1} = U_k c_k and lam_k = U_k^H lam_{k+1} keep <lam_k, c_k> fixed
        delta, omega = np.array(drive).T
        table, index, evals, _ = segment_propagators(delta, omega, dt)
        m = evals.shape[0]
        # forward and adjoint passes in one call, as the optimizer runs them:
        # the adjoint maps are the transposed real forms, in rows [m, 2m)
        table = np.concatenate([table[:m], table[:m].transpose(0, 2, 1), table[m:]])
        c, lam = chain_indexed(table, np.stack([index, m + index[::-1]]), np.stack([_unit(c0), _unit(lam_final)]))
        lam = lam[::-1]
        assert np.array_equal(lam[-1], _unit(lam_final))
        overlap = np.einsum("ki,ki->k", lam.conj(), c)
        assert np.max(np.abs(overlap - overlap[0])) <= 1e-12

    @given(drive=drives, dt=steps, dim=st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_rk4_maps_are_taylor_truncations_of_the_exponential(self, drive, dt, dim):
        # remainder of the degree-4 Taylor polynomial of exp(x):
        # |sum_{j>=5} A^j/j!| <= x^5/5! e^x with x = |H| dt (spectral norm),
        # plus round-off slack; dim 2 is the {|dd>, bell} block
        delta, omega = np.array(drive).T
        h = hc_batch(delta, omega)[:, :dim, :dim]
        maps = _complex_maps(_taylor_table(h, dt, 4)[:-1])
        for hk, mk in zip(h, maps):
            x = np.linalg.norm(hk, 2) * dt
            bound = x**5 / 120.0 * math.exp(x) + 1e-14
            assert np.linalg.norm(mk - expm(-1j * dt * hk), 2) <= bound


class TestTaylorTable:
    """The one Taylor step-map builder: degree 12 with scaling and squaring,
    the CF4 half-step (degree 4, the RK4 step, is checked with the chain)."""

    # |H dt|_inf, the norm the builder scales by, up to 8: up to five
    # squarings past TAYLOR_THETA = 0.25
    @given(
        drive=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=20),
        x=st.floats(min_value=0.0, max_value=8.0),
    )
    @example(drive=[(0.0, 1.0), (3.0, -3.0)], x=8.0)
    @settings(max_examples=60, deadline=None)
    def test_degree_12_matches_expm_at_any_norm(self, drive, x):
        delta, omega = np.array(drive).T
        h = hc_batch(delta, omega)
        dt = x / max(np.linalg.norm(hk, np.inf) for hk in h)
        table = _taylor_table(h, dt, 12, propagator.TAYLOR_THETA)
        assert np.array_equal(table[-1], np.eye(6))
        for hk, mk in zip(h, _complex_maps(table[:-1])):
            assert np.max(np.abs(mk - expm(-1j * dt * hk))) <= 1e-14

    @pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
    @pytest.mark.parametrize("T", [0.01, 15.0])
    def test_cf4_matches_eigh_maps_on_the_same_nodes(self, kind, T):
        # the CF4 history against one built from the exact eigh maps
        # (``segment_propagators``) at the same effective controls
        wf = shortcut_waveform(ShortcutSpec(kind=kind, e=0.1, T=T))
        n = step_count(wf, "piecewise-exponential")
        c0 = SPIN_DOWN.as_array()
        table, index, _, _ = segment_propagators(*_cf4_controls(wf, n), T / (2 * n))
        ref = chain_indexed(table, index[None], c0[None])[0, ::2]
        assert np.max(np.abs(_cf4_history(wf, c0, n) - ref)) <= 1e-13


class TestFidelityAndPopulations:
    def test_bell_state_scores_one(self):
        wf = ControlWaveform.piecewise_constant(1.0, [0.0])
        traj = propagate(wf, TripletAmplitudes(0.0, 1.0, 0.0))
        assert fidelity(traj) == pytest.approx(1.0, abs=1e-12)

    def test_spin_down_scores_zero(self):
        wf = ControlWaveform.piecewise_constant(1.0, [0.0])
        traj = propagate(wf, SPIN_DOWN)
        assert fidelity(traj) == pytest.approx(0.0, abs=1e-12)

    def test_populations_sum_to_one(self):
        wf = ControlWaveform.piecewise_constant(2.0, [1.0, -1.0, 1.0, -1.0])
        traj = propagate(wf, SPIN_DOWN)
        assert np.max(np.abs(traj.populations.sum(axis=1) - 1.0)) <= 1e-10


class TestTrajectoryCsv:
    def test_layout_and_precision(self, tmp_path):
        wf = ControlWaveform.piecewise_constant(1.0, [1.0, -1.0])
        traj = propagate(wf, SPIN_DOWN)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, config={"T": 1.0})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert json.loads(lines[0][len("# config: "):]) == {"T": 1.0}
        header = lines[1].split(",")
        assert header == ["t", "re_c1", "im_c1", "re_c2", "im_c2", "re_c3", "im_c3",
                          "pop1", "pop2", "pop3", "delta", "omega"]
        assert len(lines) == 2 + traj.times.size
        # values survive a parse round trip at 15 significant digits
        row = np.array([float(x) for x in lines[2].split(",")])
        assert row[0] == 0.0 and row[1] == 1.0
        last = np.array([float(x) for x in lines[-1].split(",")])
        assert abs(last[7] - np.abs(traj.states[-1, 0]) ** 2) < 1e-14

    def test_nodes_are_sampled_once_by_the_writer(self, tmp_path):
        # propagate samples the peak probe and the step midpoints; the
        # controls at the trajectory nodes are sampled only for the CSV
        sizes = []

        def sampler(ts):
            sizes.append(ts.size)
            return 0.0 * ts, 0.5 + 0.0 * ts

        traj = propagate(ControlWaveform(2.5, sampler), SPIN_DOWN)
        assert sizes == [513, 4000]
        write_trajectory_csv(traj, tmp_path / "traj.csv")
        assert sizes == [513, 4000, 4001]
