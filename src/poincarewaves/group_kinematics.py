"""Complex Euler angles: the six real parameters of the complexified rotation
group, and the one finite-number gate of every public scalar.

CONVENTIONS
    * Six real parameters (phi, epsilon, theta, tau, chi, vareps) combine into
      three complex Euler angles

          phi_c = phi - i*epsilon,  theta_c = theta - i*tau,  chi_c = chi - i*vareps,

      whose real parts are ordinary z-x-z Euler angles and whose imaginary parts
      are boost (rapidity-like) parameters.  Ranges 0 <= theta <= pi,
      0 <= phi < 2*pi, -2*pi <= chi < 2*pi are enforced strictly on construction;
      out-of-range input is rejected, never wrapped.  The "dotted" (conjugate)
      series reads theta_c_dot = theta + i*tau.

Angle values are immutable and all functions are pure.  An angles value also
holds a private memo of the assembled members' angular elements at it; the
memo is not a field, so equality, hashing, repr, ``dataclasses.asdict``,
``dataclasses.replace`` and pickling never see it, and every value read
through it has the bits of a fresh evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "ComplexEulerAngles",
    "make_angles",
]

_TWO_PI = 2 * math.pi


def _finite(name: str, value, kind=float):
    """value as a finite ``kind`` (float or complex): the one gate of every
    public scalar.  NaN, +-inf or an int past the float range: ValueError."""
    try:
        number = kind(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be finite, got a number beyond the "
                         "float range") from None
    if not cmath.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


@dataclass(frozen=True)
class ComplexEulerAngles:
    """Validated six-parameter point on the complexified rotation group.

    Angle ranges: 0 <= theta <= pi, 0 <= phi < 2*pi, -2*pi <= chi < 2*pi.
    epsilon, tau, vareps are unbounded finite reals.

    Each value carries an invisible memo that
    ``PoincareWaveFunction.lorentz_factor`` fills: the undotted element
    e^(-m(epsilon + i phi)) Z^l_m0(theta, tau) per doubled index, so the
    dotted twins of a catalog at these angles read it instead of computing
    it again.  A copy or an unpickled value starts with an empty memo.
    """

    phi: float
    epsilon: float
    theta: float
    tau: float
    chi: float
    vareps: float

    def __post_init__(self) -> None:
        for name in ("phi", "epsilon", "theta", "tau", "chi", "vareps"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < _TWO_PI:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi!r}")
        if not -_TWO_PI <= self.chi < _TWO_PI:
            raise ValueError(f"chi must lie in [-2*pi, 2*pi), got {self.chi!r}")
        # Not a field: equality, hash, repr and asdict stay those of the six
        # parameters.
        object.__setattr__(self, "_elements", {})

    def __reduce__(self):
        """Pickle and copy the six parameters only: the copy revalidates
        them and starts with an empty memo."""
        return type(self), (self.phi, self.epsilon, self.theta, self.tau,
                            self.chi, self.vareps)

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
