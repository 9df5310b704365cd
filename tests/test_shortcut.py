"""Shortcut schedules, modified controls, and their limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingbell import propagator
from isingbell.model import SQRT2
from isingbell.propagator import DRIFT_LIMIT, NonUnitaryDrift, propagate
from isingbell.model import TripletAmplitudes
from isingbell.shortcut import (
    DomainError,
    ShortcutSpec,
    envelope,
    short_time_controls,
    short_time_fidelity_limit,
    shortcut_waveform,
    theta,
    tqd_fidelity_curve,
    two_level_inversion,
    write_fidelity_curve_csv,
    write_waveform_csv,
)

unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
kinds = st.sampled_from(["symmetric", "nonsymmetric"])


class TestShortcutSpec:
    def test_defaults(self):
        spec = ShortcutSpec(kind="symmetric")
        assert spec.e == 0.1 and spec.T == 10.0

    @pytest.mark.parametrize("kw", [dict(kind="other"), dict(kind="symmetric", e=0.0),
                                    dict(kind="symmetric", T=0.0), dict(kind="symmetric", T=-1.0)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            ShortcutSpec(**kw)


class TestTheta:
    @pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
    def test_boundary_contract(self, kind):
        th0, d10, _ = theta(0.0, kind)
        th1, d11, d21 = theta(1.0, kind)
        assert th0 == 0.0 and d10 == 0.0
        assert th1 == pytest.approx(math.pi, abs=1e-15) and d11 == pytest.approx(0.0, abs=1e-12)
        if kind == "nonsymmetric":
            assert d21 == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_midpoint(self):
        th, _, _ = theta(0.5, "symmetric")
        assert th == pytest.approx(math.pi / 2)

    def test_derivatives_match_polynomial_differentiation(self):
        # central finite differences as the independent oracle
        for kind in ("symmetric", "nonsymmetric"):
            for s in (0.2, 0.5, 0.8):
                h = 1e-6
                thp, d1p, _ = theta(s + h, kind)
                thm, d1m, _ = theta(s - h, kind)
                _, d1, d2 = theta(s, kind)
                assert d1 == pytest.approx((thp - thm) / (2 * h), abs=1e-7)
                assert d2 == pytest.approx((d1p - d1m) / (2 * h), abs=1e-5)

    @given(s=unit_interval, kind=kinds)
    @settings(max_examples=80, deadline=None)
    def test_rate_never_negative(self, s, kind):
        _, d1, _ = theta(s, kind)
        assert d1 >= -1e-15

    @pytest.mark.parametrize("s", [-0.1, 1.1])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            theta(s, "symmetric")


class TestEnvelope:
    def test_vanishes_at_boundaries(self):
        assert envelope(0.0, 0.1)[0] == 0.0
        assert envelope(1.0, 0.1)[0] == 0.0

    def test_peak_and_quarter(self):
        assert envelope(0.5, 0.1)[0] == pytest.approx(0.025)
        assert envelope(0.25, 0.1)[0] == pytest.approx(0.01875)

    def test_derivative(self):
        e0, de0 = envelope(0.25, 0.1)
        assert de0 == pytest.approx(0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            envelope(1.5, 0.1)


class TestModifiedControls:
    def test_controls_vanish_at_boundaries(self):
        spec = ShortcutSpec(kind="symmetric", e=0.1, T=10.0)
        delta, omega = shortcut_waveform(spec).sample([0.0, 10.0])
        assert np.all(delta == 0.0) and np.all(omega == 0.0)

    def test_against_direct_formula_evaluation(self):
        # independent evaluation of the closed forms at s = 1/4, 1/2, 3/4
        spec = ShortcutSpec(kind="symmetric", e=0.1, T=10.0)
        got_delta, got_omega = shortcut_waveform(spec).sample([2.5, 5.0, 7.5])
        for s, got_d, got_w in zip((0.25, 0.5, 0.75), got_delta, got_omega):
            th = math.pi * s * s * (3 - 2 * s)
            d1 = 6 * math.pi * s * (1 - s)
            d2 = math.pi * (6 - 12 * s)
            e0 = 0.1 * s * (1 - s)
            de0 = 0.1 * (1 - 2 * s)
            thdot, thddot, e0dot = d1 / 10.0, d2 / 100.0, de0 / 10.0
            den = (e0 * math.sin(th)) ** 2 + thdot**2
            delta = (e0**3 * math.sin(th) ** 2 * math.cos(th)
                     + e0dot * thdot * math.sin(th)
                     + e0 * (2 * thdot**2 * math.cos(th) - thddot * math.sin(th))) / den
            omega = math.sqrt(den / 2)
            assert got_d == pytest.approx(delta, rel=1e-12)
            assert got_w == pytest.approx(omega, rel=1e-12)

    def test_antisymmetric_detuning_for_symmetric_kind(self):
        spec = ShortcutSpec(kind="symmetric", e=0.1, T=10.0)
        (a, b, mid), _ = shortcut_waveform(spec).sample([2.5, 7.5, 5.0])
        assert a == pytest.approx(-b, rel=1e-12)
        assert mid == pytest.approx(0.0, abs=1e-14)

    @given(s=st.floats(min_value=1e-6, max_value=1.0 - 1e-6), kind=kinds)
    @settings(max_examples=80, deadline=None)
    def test_rabi_floor(self, s, kind):
        # omega' >= |thetadot|/sqrt(2): dropping the envelope term only shrinks it
        spec = ShortcutSpec(kind=kind, e=0.1, T=5.0)
        _, d1, _ = theta(s, kind)
        _, omega = shortcut_waveform(spec).sample([s * spec.T])
        assert omega[0] >= abs(d1 / spec.T) / SQRT2 - 1e-12


class TestShortTimeLimit:
    def test_constant_value(self):
        assert short_time_fidelity_limit() == pytest.approx(0.5 * math.sin(math.pi / SQRT2) ** 2)
        assert round(short_time_fidelity_limit(), 4) == 0.3166

    def test_limit_controls_match_modified_at_small_T(self):
        for kind in ("symmetric", "nonsymmetric"):
            spec4 = ShortcutSpec(kind=kind, e=0.1, T=1e-4)
            s = np.array([0.25, 0.5, 0.75])
            delta, omega = shortcut_waveform(spec4).sample(s * spec4.T)
            for sk, d, w in zip(s, delta, omega):
                lim = short_time_controls(sk, spec4)
                assert w * spec4.T == pytest.approx(lim.omega_scaled, rel=1e-3)
                assert d == pytest.approx(lim.delta, abs=1e-3)

    def test_delta_limit_is_T_independent(self):
        vals = []
        for T in (1e-3, 1e-4):
            spec = ShortcutSpec(kind="nonsymmetric", e=0.1, T=T)
            vals.append(shortcut_waveform(spec).sample([0.25 * T])[0][0])
        lim = short_time_controls(0.25, ShortcutSpec(kind="nonsymmetric", e=0.1, T=1.0)).delta
        assert vals[0] == pytest.approx(lim, abs=1e-4)
        assert vals[1] == pytest.approx(lim, abs=1e-5)

    def test_pulse_area_is_pi_over_sqrt2(self):
        for kind in ("symmetric", "nonsymmetric"):
            wf = shortcut_waveform(ShortcutSpec(kind=kind, e=0.1, T=1e-3))
            ts = np.linspace(0.0, 1e-3, 20001)
            _, w = wf.sample(ts)
            area = np.trapezoid(w, ts)
            assert area == pytest.approx(math.pi / SQRT2, rel=1e-3)

    def test_domain(self):
        spec = ShortcutSpec(kind="symmetric", e=0.1, T=1.0)
        for s in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                short_time_controls(s, spec)


class TestTwoLevelInversion:
    @pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
    def test_exact_at_any_duration(self, kind, T):
        p = two_level_inversion(ShortcutSpec(kind=kind, e=0.1, T=T))
        assert p >= 1.0 - 1e-6

    def test_under_resolved_policy_raises_drift(self, monkeypatch):
        # the block history passes propagate's drift gate: a violent envelope
        # at 100 steps must not return a number
        monkeypatch.setattr(propagator, "DEFAULT_STEPS", 100)
        monkeypatch.setattr(propagator, "STEPS_PER_UNIT_AREA", 0)
        with pytest.raises(NonUnitaryDrift):
            two_level_inversion(ShortcutSpec("symmetric", e=100.0, T=10.0))


class TestFidelityCurve:
    def test_benchmark_durations(self, tqd_curves):
        # interpolate is unnecessary: T=10 is checked directly here
        sym = tqd_fidelity_curve("symmetric", 0.1, [10.0])
        non = tqd_fidelity_curve("nonsymmetric", 0.1, [10.0])
        assert sym[0][1] == pytest.approx(0.9993, abs=5e-4)
        assert non[0][1] == pytest.approx(0.9991, abs=5e-4)

    def test_short_duration_approaches_limit(self, tqd_curves):
        lim = short_time_fidelity_limit()
        for kind in ("symmetric", "nonsymmetric"):
            t0, f0 = tqd_curves[kind][0]
            assert t0 == pytest.approx(0.01)
            assert abs(f0 - lim) <= 0.02

    def test_long_duration_saturation(self, tqd_curves):
        tail = [f for t, f in tqd_curves["symmetric"] if t >= 10.0]
        assert tail and min(tail) >= 0.99

    def test_third_level_stays_weak_at_T10(self):
        spec = ShortcutSpec(kind="symmetric", e=0.1, T=10.0)
        traj = propagate(shortcut_waveform(spec), TripletAmplitudes.spin_down())
        assert float(np.max(traj.populations[:, 2])) < 0.05

    def test_trajectory_records_route_steps_and_drift(self):
        spec = ShortcutSpec(kind="symmetric", e=0.1, T=10.0)
        traj = propagate(shortcut_waveform(spec), TripletAmplitudes.spin_down())
        assert traj.method == "rk4"
        assert traj.steps == traj.times.size - 1 >= 4000
        drift = np.max(np.abs(np.sum(traj.populations, axis=1) - 1.0))
        assert traj.max_drift == drift <= DRIFT_LIMIT

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            tqd_fidelity_curve("symmetric", 0.1, [2.0, 1.0])
        with pytest.raises(ValueError):
            tqd_fidelity_curve("symmetric", 0.1, [])

    def test_propagation_error_carries_duration(self, monkeypatch):
        # a violent envelope at 100 steps under-resolves and must say which T
        monkeypatch.setattr(propagator, "DEFAULT_STEPS", 100)
        monkeypatch.setattr(propagator, "STEPS_PER_UNIT_AREA", 0)
        with pytest.raises(NonUnitaryDrift, match="T=10"):
            tqd_fidelity_curve("symmetric", 100.0, [10.0])


class TestCsvWriters:
    def test_waveform_csv(self, tmp_path):
        wf = shortcut_waveform(ShortcutSpec(kind="symmetric", e=0.1, T=10.0))
        path = tmp_path / "wave.csv"
        write_waveform_csv(wf, path, config={"kind": "symmetric"})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "t,delta,omega"
        assert len(lines) == 2 + 1001
        first = [float(x) for x in lines[2].split(",")]
        assert first == [0.0, 0.0, 0.0]

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_fidelity_curve_csv(path, [1.0, 2.0], [0.5, 0.6], [0.4, 0.55])
        lines = path.read_text().splitlines()
        assert lines[0] == "T,fidelity_symmetric,fidelity_nonsymmetric"
        assert [float(x) for x in lines[1].split(",")] == [1.0, 0.5, 0.4]
