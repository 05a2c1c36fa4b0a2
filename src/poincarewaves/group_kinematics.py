"""Complex Euler angles and the SL(2,C) covering map onto complex rotations.

CONVENTIONS
    * Six real parameters (phi, epsilon, theta, tau, chi, vareps) combine into
      three complex Euler angles

          phi_c = phi - i*epsilon,  theta_c = theta - i*tau,  chi_c = chi - i*vareps,

      whose real parts are ordinary z-x-z Euler angles and whose imaginary parts
      are boost (rapidity-like) parameters.  Ranges 0 <= theta <= pi,
      0 <= phi < 2*pi, -2*pi <= chi < 2*pi are enforced strictly on construction;
      out-of-range input is rejected, never wrapped.  The "dotted" (conjugate)
      series reads theta_c_dot = theta + i*tau.
    * The 2-to-1 covering map onto complex rotations is realized by conjugation
      on the Pauli-matrix expansion of a complex triple z:
      R_ij(g) = tr(sigma_i g sigma_j g^-1)/2.  R(g) is complex-orthogonal
      (R^T R = 1 over C) and preserves z.z = z1^2 + z2^2 + z3^2.

Angle values are immutable and all functions are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexEulerAngles",
    "make_angles",
    "angles_to_sl2c",
    "sl2c_to_complex_rotation",
]

_TWO_PI = 2 * math.pi

#: Pauli matrices sigma_1, sigma_2, sigma_3.
_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _require_real(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return value


@dataclass(frozen=True)
class ComplexEulerAngles:
    """Validated six-parameter point on the complexified rotation group.

    Angle ranges: 0 <= theta <= pi, 0 <= phi < 2*pi, -2*pi <= chi < 2*pi.
    epsilon, tau, vareps are unbounded finite reals.
    """

    phi: float
    epsilon: float
    theta: float
    tau: float
    chi: float
    vareps: float

    def __post_init__(self) -> None:
        for name in ("phi", "epsilon", "theta", "tau", "chi", "vareps"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < _TWO_PI:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi!r}")
        if not -_TWO_PI <= self.chi < _TWO_PI:
            raise ValueError(f"chi must lie in [-2*pi, 2*pi), got {self.chi!r}")

    @property
    def phi_c(self) -> complex:
        return complex(self.phi, -self.epsilon)

    @property
    def theta_c(self) -> complex:
        return complex(self.theta, -self.tau)

    @property
    def chi_c(self) -> complex:
        return complex(self.chi, -self.vareps)

    @property
    def theta_c_dot(self) -> complex:
        """Conjugate-series ("dotted") companion of theta_c."""
        return complex(self.theta, self.tau)


def make_angles(phi: float, epsilon: float, theta: float, tau: float,
                chi: float, vareps: float) -> ComplexEulerAngles:
    """Validate six real parameters into a ComplexEulerAngles value."""
    return ComplexEulerAngles(phi, epsilon, theta, tau, chi, vareps)


def angles_to_sl2c(angles: ComplexEulerAngles) -> np.ndarray:
    """Unimodular complex 2x2 matrix g in the z-x-z convention.

    g = exp(-i*phi_c*s3/2) exp(-i*theta_c*s1/2) exp(-i*chi_c*s3/2); the boost
    content sits in the imaginary parts of the complex angles.
    """
    half_phi = angles.phi_c / 2
    half_theta = angles.theta_c / 2
    half_chi = angles.chi_c / 2
    zp = np.array([[cmath.exp(-1j * half_phi), 0], [0, cmath.exp(1j * half_phi)]])
    ct, st = cmath.cos(half_theta), cmath.sin(half_theta)
    xr = np.array([[ct, -1j * st], [-1j * st, ct]])
    zc = np.array([[cmath.exp(-1j * half_chi), 0], [0, cmath.exp(1j * half_chi)]])
    return zp @ xr @ zc


def sl2c_to_complex_rotation(g: np.ndarray) -> np.ndarray:
    """Complex-orthogonal 3x3 rotation induced by conjugation on the Pauli basis.

    g = [[a, b], [c, d]] is unimodular, so g^-1 = [[d, -b], [-c, a]] exactly.
    R_ij = tr(sigma_i g sigma_j g^-1) / 2.  Satisfies R^T R = 1 (no conjugate
    transpose) and (R z).(R z) = z.z for every complex triple z.
    """
    mat = np.asarray(g, dtype=complex)
    (a, b), (c, d) = mat
    inv = np.array([[d, -b], [-c, a]])
    rotation = np.empty((3, 3), dtype=complex)
    for j in range(3):
        conjugated = mat @ _SIGMA[j] @ inv
        for i in range(3):
            rotation[i, j] = np.trace(_SIGMA[i] @ conjugated) / 2
    return rotation
