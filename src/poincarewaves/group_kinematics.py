"""Complex Euler angles, the complex two-sphere, and the SL(2,C) rotation action.

CONVENTIONS
    * Six real parameters (phi, epsilon, theta, tau, chi, vareps) combine into
      three complex Euler angles

          phi_c = phi - i*epsilon,  theta_c = theta - i*tau,  chi_c = chi - i*vareps,

      whose real parts are ordinary z-x-z Euler angles and whose imaginary parts
      are boost (rapidity-like) parameters.  Ranges 0 <= theta <= pi,
      0 <= phi < 2*pi, -2*pi <= chi < 2*pi are enforced strictly on construction;
      out-of-range input is rejected, never wrapped.  The "dotted" (conjugate)
      complex angles are theta + i*tau, etc.
    * Points of the complex two-sphere are complex triples z = x + i*y with the
      holomorphic invariant z.z = z1^2 + z2^2 + z3^2 (no conjugation), which
      equals x.x - y.y + 2i x.y.
    * The 2-to-1 covering map onto complex rotations is realized by conjugation
      on the Pauli-matrix expansion of z: R_ij(g) = tr(sigma_i g sigma_j g^-1)/2.
      R(g) is complex-orthogonal (R^T R = 1 over C) and preserves z.z.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexEulerAngles",
    "ComplexSpherePoint",
    "SL2CElement",
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
    def phi_c_dot(self) -> complex:
        """Conjugate-series ("dotted") companion of phi_c."""
        return complex(self.phi, self.epsilon)

    @property
    def theta_c_dot(self) -> complex:
        return complex(self.theta, self.tau)

    @property
    def chi_c_dot(self) -> complex:
        return complex(self.chi, self.vareps)


def make_angles(phi: float, epsilon: float, theta: float, tau: float,
                chi: float, vareps: float) -> ComplexEulerAngles:
    """Validate six real parameters into a ComplexEulerAngles value."""
    return ComplexEulerAngles(phi, epsilon, theta, tau, chi, vareps)


@dataclass(frozen=True)
class ComplexSpherePoint:
    """Point z = (z1, z2, z3) of the complex two-sphere (no constraint on z.z)."""

    z1: complex
    z2: complex
    z3: complex

    @classmethod
    def from_xy(cls, x: tuple[float, float, float],
                y: tuple[float, float, float]) -> "ComplexSpherePoint":
        return cls(complex(x[0], y[0]), complex(x[1], y[1]), complex(x[2], y[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.z1, self.z2, self.z3], dtype=complex)

    @property
    def r_sq(self) -> complex:
        """Holomorphic squared radius z1^2 + z2^2 + z3^2 (no conjugation)."""
        return self.z1 * self.z1 + self.z2 * self.z2 + self.z3 * self.z3

    @property
    def r_sq_conj(self) -> complex:
        """Squared radius of the conjugate (dotted) sphere point."""
        return self.r_sq.conjugate()

    @property
    def r(self) -> complex:
        """Principal-branch complex radius sqrt(r_sq)."""
        return cmath.sqrt(self.r_sq)


@dataclass(frozen=True)
class SL2CElement:
    """Unimodular complex 2x2 matrix [[a, b], [c, d]] with a*d - c*b = 1."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        det = self.a * self.d - self.c * self.b
        if abs(det - 1.0) > 1e-12:
            raise ValueError(f"matrix must be unimodular: det = {det!r}")

    @classmethod
    def identity(cls) -> "SL2CElement":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "SL2CElement":
        mat = np.asarray(mat, dtype=complex)
        return cls(mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1])

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def inverse_matrix(self) -> np.ndarray:
        """Exact inverse [[d, -b], [-c, a]] of a unimodular matrix."""
        return np.array([[self.d, -self.b], [-self.c, self.a]], dtype=complex)

    def compose(self, other: "SL2CElement") -> "SL2CElement":
        return SL2CElement.from_matrix(self.matrix() @ other.matrix())


def angles_to_sl2c(angles: ComplexEulerAngles) -> SL2CElement:
    """SL(2,C) entry parametrization in the z-x-z convention.

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
    return SL2CElement.from_matrix(zp @ xr @ zc)


def sl2c_to_complex_rotation(g: SL2CElement) -> np.ndarray:
    """Complex-orthogonal 3x3 rotation induced by conjugation on the Pauli basis.

    R_ij = tr(sigma_i g sigma_j g^-1) / 2.  Satisfies R^T R = 1 (no conjugate
    transpose) and (R z).(R z) = z.z for every complex triple z.
    """
    mat = g.matrix()
    inv = g.inverse_matrix()
    rotation = np.empty((3, 3), dtype=complex)
    for j in range(3):
        conjugated = mat @ _SIGMA[j] @ inv
        for i in range(3):
            rotation[i, j] = np.trace(_SIGMA[i] @ conjugated) / 2
    return rotation
