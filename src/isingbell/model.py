"""Triplet-sector model of two Ising-coupled spins in a rotating transverse field.

Everything is expressed in coupling units: the Ising strength xi is fixed
at 1 and is not a parameter, so field amplitudes are in units of xi, times
in units of 1/xi, hbar = 1.  The dynamical basis is the triplet
{|dd>, (|du>+|ud>)/sqrt(2), |uu>}; the singlet carries total spin 0 and is
decoupled, so it never enters.

The rotating-frame Hamiltonian driving all dynamics is

    H_c = [[ delta,      omega/sqrt(2),  0             ],
           [ omega/sqrt(2),  0,          omega/sqrt(2) ],
           [ 0,          omega/sqrt(2),  4 - delta     ]]

Its {|dd>, bell} block minus (delta/2) I is the paper's two-level Hamiltonian

    H_0 = (1/2) [[delta, sqrt(2)*omega], [sqrt(2)*omega, -delta]];

the shift is a global phase, so the code propagates the block itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

NORM_TOL = 1e-10


@dataclass(frozen=True)
class TripletAmplitudes:
    """Complex amplitudes (c1, c2, c3) on the triplet basis, unit norm."""

    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        vals = (self.c1, self.c2, self.c3)
        if not all(cmath.isfinite(c) for c in vals):
            raise ValueError(f"amplitudes must be finite, got {vals}")
        norm2 = sum(abs(c) ** 2 for c in vals)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |c|^2 = {norm2!r}")

    @classmethod
    def spin_down(cls) -> "TripletAmplitudes":
        """The unentangled |dd> starting state, (1, 0, 0)."""
        return cls(1.0 + 0.0j, 0.0j, 0.0j)

    @classmethod
    def from_array(cls, vec: np.ndarray) -> "TripletAmplitudes":
        c = np.asarray(vec, dtype=complex).ravel()
        if c.shape != (3,):
            raise ValueError(f"expected a 3-vector, got shape {c.shape}")
        return cls(complex(c[0]), complex(c[1]), complex(c[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=complex)

    def populations(self) -> np.ndarray:
        return np.abs(self.as_array()) ** 2


@dataclass(frozen=True)
class RotatingFrame:
    """Rotating transverse-field frame at angular frequency ``omega_rf``
    (xi units).  The frame frequency is a free parameter of the transform;
    it is otherwise absorbed into the detuning and never fixed here."""

    omega_rf: float

    def __post_init__(self):
        if not math.isfinite(self.omega_rf):
            raise ValueError(f"frame frequency must be finite, got {self.omega_rf}")


def hc_batch(delta, omega) -> np.ndarray:
    """Stack of rotating-frame Hamiltonians, shape (n, 3, 3), real symmetric.

    Diagonal (delta, 0, 4 - delta); the single transverse field couples
    both adjacent pairs with strength omega/sqrt(2); the (1,3) corner stays
    zero (tridiagonal structure).
    """
    delta = np.asarray(delta, dtype=float)
    w = np.asarray(omega, dtype=float) / SQRT2
    h = np.zeros((delta.shape[0], 3, 3))
    h[:, 0, 0] = delta
    h[:, 2, 2] = 4.0 - delta
    h[:, 0, 1] = h[:, 1, 0] = w
    h[:, 1, 2] = h[:, 2, 1] = w
    return h


def _frame_phases(t: float, frame: RotatingFrame) -> np.ndarray:
    # lab amplitude a_i picks up these phases on the way to the rotating frame:
    # c1 = a1 e^{-i(w+1)t}, c2 = a2 e^{-i t}, c3 = a3 e^{+i(w-1)t}
    w = frame.omega_rf
    return np.exp(1j * np.array([-(w + 1.0) * t, -t, (w - 1.0) * t]))


def frame_transform(
    a: TripletAmplitudes,
    t: float,
    frame: RotatingFrame,
    direction: str = "lab_to_rotating",
) -> TripletAmplitudes:
    """Apply the diagonal phase map between lab-frame and rotating-frame
    amplitudes (or its inverse).  Unitary: every |component|^2 is preserved."""
    phases = _frame_phases(t, frame)
    if direction == "lab_to_rotating":
        out = a.as_array() * phases
    elif direction == "rotating_to_lab":
        out = a.as_array() / phases
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return TripletAmplitudes.from_array(out)

