"""Core types, Hamiltonians, and the rotating-frame transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingbell.model import (
    SQRT2,
    RotatingFrame,
    TripletAmplitudes,
    frame_transform,
    hc_batch,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


class TestTripletAmplitudes:
    def test_spin_down_is_basis_state(self):
        c = TripletAmplitudes.spin_down()
        assert c.c1 == 1.0 and c.c2 == 0.0 and c.c3 == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            TripletAmplitudes(0.5, 0.5, 0.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TripletAmplitudes(float("nan"), 0.0, 0.0)

    def test_populations_sum_to_one(self):
        c = TripletAmplitudes(1 / SQRT2, 1j / SQRT2, 0.0)
        assert math.isclose(sum(c.populations()), 1.0, abs_tol=1e-12)

    def test_array_round_trip(self):
        arr = np.array([0.6, 0.8j, 0.0])
        c = TripletAmplitudes.from_array(arr)
        assert np.allclose(c.as_array(), arr)


class TestHamiltonianC:
    def test_zero_controls_leaves_ising_shift(self):
        h = hc_batch([0.0], [0.0])[0]
        assert np.array_equal(h, np.diag([0.0, 0.0, 4.0]))

    def test_symmetric_detuning_point(self):
        h = hc_batch([2.0], [0.0])[0]
        assert np.array_equal(h, np.diag([2.0, 0.0, 2.0]))

    def test_benchmark_detuning_entries(self):
        h = hc_batch([-0.11], [1.0])[0]
        assert h[0, 0] == pytest.approx(-0.11)
        assert h[2, 2] == pytest.approx(4.11)
        assert h[0, 1] == pytest.approx(1 / SQRT2)
        assert h[1, 2] == pytest.approx(1 / SQRT2)

    @given(delta=finite, omega=finite)
    @settings(max_examples=60, deadline=None)
    def test_exactly_hermitian_and_tridiagonal(self, delta, omega):
        h = hc_batch([delta], [omega])[0]
        assert np.array_equal(h, h.conj().T)
        assert h[0, 2] == 0.0 and h[2, 0] == 0.0

    def test_triplet_block_of_the_two_spin_hamiltonian(self):
        # H4 = (2 - delta)(sz x 1 + 1 x sz)/2 + sz x sz + 1 + omega (sx x 1 + 1 x sx)/2
        # on the product space, spin up = (1, 0), spin down = (0, 1)
        one, sz, sx = np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        up, down = one
        triplet = np.stack([np.kron(down, down), (np.kron(down, up) + np.kron(up, down)) / SQRT2, np.kron(up, up)])
        singlet = (np.kron(up, down) - np.kron(down, up)) / SQRT2
        rng = np.random.default_rng(9)
        for delta, omega in rng.uniform(-3.0, 3.0, size=(100, 2)):
            h4 = ((2.0 - delta) * (np.kron(sz, one) + np.kron(one, sz)) / 2.0 + np.kron(sz, sz) + np.eye(4)
                  + omega * (np.kron(sx, one) + np.kron(one, sx)) / 2.0)
            assert np.max(np.abs(triplet @ h4 @ triplet.T - hc_batch([delta], [omega])[0])) <= 1e-15
            assert np.array_equal(h4 @ singlet, np.zeros(4))


class TestHamiltonianTwoLevel:
    """The paper's H_0 is the {|dd>, bell} block of H_c minus (delta/2) I."""

    @staticmethod
    def h0(delta, omega):
        return hc_batch([delta], [omega])[0][:2, :2] - 0.5 * delta * np.eye(2)

    def test_zero_controls(self):
        h = self.h0(0.0, 0.0)
        assert np.array_equal(h, np.zeros((2, 2)))

    def test_structure(self):
        h = self.h0(0.6, 0.8 / SQRT2)
        assert np.allclose(h, 0.5 * np.array([[0.6, 0.8], [0.8, -0.6]]))
        assert np.allclose(np.linalg.eigvalsh(h), [-0.5, 0.5])

    @given(e0=st.floats(min_value=0.0, max_value=10.0), theta=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_polar_eigenvalues_are_half_energy(self, e0, theta):
        # polar controls delta = E0 cos(theta), omega = E0 sin(theta)/sqrt(2)
        # give instantaneous levels exactly +/- E0/2
        h = self.h0(e0 * math.cos(theta), e0 * math.sin(theta) / SQRT2)
        evals = np.linalg.eigvalsh(h)
        assert abs(evals[0] + e0 / 2) < 1e-12
        assert abs(evals[1] - e0 / 2) < 1e-12


@st.composite
def normalized_amplitudes(draw):
    parts = [draw(finite) for _ in range(6)]
    vec = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3], parts[4] + 1j * parts[5]])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = np.array([1.0, 0.0, 0.0], dtype=complex)
        norm = 1.0
    return TripletAmplitudes.from_array(vec / norm)


class TestFrameTransform:
    def test_identity_at_t_zero(self):
        frame = RotatingFrame(omega_rf=2.0)
        a = TripletAmplitudes(0.6, 0.8j, 0.0)
        c = frame_transform(a, 0.0, frame)
        assert np.allclose(c.as_array(), a.as_array())

    @given(a=normalized_amplitudes(), t=finite, omega_rf=finite)
    @settings(max_examples=60, deadline=None)
    def test_populations_invariant(self, a, t, omega_rf):
        c = frame_transform(a, t, RotatingFrame(omega_rf))
        assert np.allclose(c.populations(), a.populations(), atol=1e-14)

    @given(a=normalized_amplitudes(), t=finite, omega_rf=finite)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, a, t, omega_rf):
        frame = RotatingFrame(omega_rf)
        c = frame_transform(a, t, frame, direction="lab_to_rotating")
        back = frame_transform(c, t, frame, direction="rotating_to_lab")
        assert np.max(np.abs(back.as_array() - a.as_array())) <= 1e-14

    def test_explicit_phases(self):
        # c1 = a1 e^{-i(w+xi)t}, c2 = a2 e^{-i xi t}, c3 = a3 e^{i(w-xi)t}
        frame = RotatingFrame(omega_rf=2.0)
        a = TripletAmplitudes(1 / SQRT2, 0.5, 0.5)
        t = 3.7
        c = frame_transform(a, t, frame)
        expect = a.as_array() * np.exp(1j * np.array([-(2.0 + 1.0) * t, -t, (2.0 - 1.0) * t]))
        assert np.allclose(c.as_array(), expect, atol=1e-15)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            frame_transform(TripletAmplitudes.spin_down(), 0.0, RotatingFrame(1.0), direction="sideways")
