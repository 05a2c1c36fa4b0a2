"""Boost-rotation sector: spin-block matrices and the radial system on the
complex two-sphere.

CONTENTS
    * ``build_matrices`` -- the 3x3 spin-block matrices Lambda_1..3 and the
      six 6x6 block matrices Upsilon built from them.
      Two variants ship: the verbatim printed form, whose Lambda_1 is missing
      its (2,3) entry and consequently violates the spin-1 algebra, and the
      corrected ladder-symmetric form (the default), which satisfies
      [Lambda_i, Lambda_j] = +i eps_ijk Lambda_k and
      Lambda_1^2 + Lambda_2^2 + Lambda_3^2 = 2 * identity.
    * ``RadialSolution`` / ``radial_residual`` -- the first-order radial
      system at angular order l in r-multiplied form,

          2r f'_{1,+1}(r) - f_{1,+1}(r) - sqrt(2l(l+1)) f_{1,0}(r) = 0,
         -2r f'_{1,-1}(r) + f_{1,-1}(r) + sqrt(2l(l+1)) f_{1,0}(r) = 0,

      plus the dotted pair at the conjugated argument r*.  The system forces
      f_{1,-1} = f_{1,+1} identically.  Closed-form solutions are
      f_{1,+-1} = C sqrt(r) + (linear coefficient) * r with
      f_{1,0} = sqrt(2l(l+1)) r.  The "paper" variant uses linear coefficient
      sqrt(2l(l+1)), which leaves residual (sqrt(2l(l+1)) - 2l(l+1)) r in the
      first equation (kept as a documented, flagged discrepancy); the
      "corrected" variant uses 2l(l+1), which zeroes all four residuals.
      One evaluator pair serves all six slots: ``f(lam, r, dotted)`` and
      ``f_prime(lam, r, dotted)``, with ``select(lam, dotted)`` the same
      evaluator bound to a validated slot.

CONVENTIONS
    Square roots of complex r use the principal branch (cut along the
    negative real axis); sample points in tests avoid the cut.  r is an
    independent complex coordinate, not derived from the spacetime point.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .group_kinematics import _finite
from .photon_plane_waves import _check_helicity, commutator_sign

__all__ = [
    "VARIANTS",
    "LambdaMatrices",
    "RadialSolution",
    "build_matrices",
    "radial_residual",
    "radial_ladder",
    "angular_order",
]

#: Radial linear-coefficient variants: the printed form and the corrected one.
VARIANTS = ("paper", "corrected")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _whole_number(value) -> int | None:
    """value as an int if it is a finite whole number, else None."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf, nan
        return None
    return whole if whole == value else None


def angular_order(l) -> int:
    """l as an int, validated: the radial system needs an integer l >= 1."""
    order = _whole_number(l)
    if order is None or order < 1:
        raise ValueError(f"l must be an integer >= 1, got {l!r}")
    return order


def radial_ladder(l: int) -> float:
    """The coupling constant sqrt(2 l (l+1)) of the radial system.

    ValueError unless l is an integer >= 1 whose ladder is a finite float.
    """
    order = angular_order(l)
    ladder = math.sqrt(2.0 * _finite("l", order) * (order + 1))
    if ladder == math.inf:
        raise ValueError(
            f"l is too large: sqrt(2 l (l+1)) overflows a float, got {l!r}")
    return ladder


@dataclass(frozen=True)
class LambdaMatrices:
    """Spin-block matrices Lambda_1..3 and the 6x6 Upsilon family.

    The Upsilon matrices are block-anti-diagonal:
    Upsilon_i = [[0, conj(Lambda_i)], [Lambda_i, 0]] for i = 1..3 and the same
    with an extra factor i on both corner blocks for i = 4..6.
    """

    lambdas: tuple[np.ndarray, np.ndarray, np.ndarray]
    upsilons: tuple[np.ndarray, ...]

    def casimir(self) -> np.ndarray:
        """Lambda_1^2 + Lambda_2^2 + Lambda_3^2 (equals 2 I if corrected)."""
        return sum(lam @ lam for lam in self.lambdas)

    def casimir_defect(self) -> float:
        """Max-entry distance of the Casimir sum from 2 * identity."""
        return float(np.abs(self.casimir() - 2.0 * np.eye(3)).max())

    def commutator_sign(self) -> int:
        """Global sign s in [Lambda_i, Lambda_j] = s i eps_ijk Lambda_k.

        Measured numerically; +1 for the corrected variant.  Raises
        AssertionError if the commutators are not proportional to the
        generators (as happens for the verbatim printed variant).
        """
        return commutator_sign(self.lambdas, 1e-12)


def build_matrices(corrected: bool = True) -> LambdaMatrices:
    """Construct the Lambda and Upsilon matrices.

    corrected=False reproduces the printed arrays verbatim, including the
    Lambda_1 whose second row is missing its (2,3) entry; that variant fails
    both the commutation relations and the Casimir identity and is retained
    as a documented negative control.  corrected=True (default) restores the
    ladder-symmetric (2,3) entry.
    """
    over_sqrt2 = 1 / math.sqrt(2.0)
    row2_end = 1.0 if corrected else 0.0
    lambda1 = over_sqrt2 * np.array([[0, 1, 0], [1, 0, row2_end], [0, 1, 0]],
                                    dtype=complex)
    lambda2 = over_sqrt2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]])
    lambda3 = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    lambdas = (lambda1, lambda2, lambda3)
    zero = np.zeros((3, 3), dtype=complex)
    upsilons = tuple(
        np.block([[zero, factor * lam.conj()], [factor * lam, zero]])
        for factor in (1.0, 1j) for lam in lambdas
    )
    return LambdaMatrices(lambdas, upsilons)


@dataclass(frozen=True)
class RadialSolution:
    """Closed-form solutions of the radial system at angular order l.

    f_{1,+-1}(r) = C sqrt(r) + (linear coefficient) r,
    f_{1,0}(r)   = sqrt(2l(l+1)) r,

    where the linear coefficient is sqrt(2l(l+1)) for variant="paper"
    (printed form; leaves a nonzero first-equation residual) and 2l(l+1) for
    variant="corrected" (zeroes all four residuals).  The dotted functions
    have the same shape with integration constant Cdot, evaluated at the
    conjugated radius.  f_{1,-1} coincides with f_{1,+1} identically, as
    forced by the system.
    """

    l: int
    C: complex = 0.0
    Cdot: complex = 0.0
    variant: str = "corrected"
    #: sqrt(2 l (l+1)), computed once from the validated l.
    ladder: float = field(init=False, repr=False, compare=False)
    #: The variant's coefficient of r in f_{1,+-1}, computed once.
    linear_coefficient: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "l", angular_order(self.l))
        _check_variant(self.variant)
        for name in ("C", "Cdot"):
            object.__setattr__(self, name,
                               _finite(name, getattr(self, name), complex))
        object.__setattr__(self, "ladder", radial_ladder(self.l))
        object.__setattr__(self, "linear_coefficient",
                           self.ladder if self.variant == "paper"
                           else 2.0 * self.l * (self.l + 1))

    # f_{1,-1} = f_{1,+1}; the dotted slots (integration constant Cdot) are
    # evaluated at r* by callers, and the 0 slot has no integration constant.
    def f(self, lam: int, r: complex, dotted: bool = False) -> complex:
        """f_{1,lam}(r), or the dotted partner's value if dotted."""
        if lam == 0:
            return self.ladder * r
        constant = self.Cdot if dotted else self.C
        return constant * cmath.sqrt(r) + self.linear_coefficient * r

    def f_prime(self, lam: int, r: complex, dotted: bool = False) -> complex:
        """The r-derivative of f(lam, r, dotted)."""
        if lam == 0:
            return complex(self.ladder)
        constant = self.Cdot if dotted else self.C
        derivative = complex(self.linear_coefficient)
        if constant != 0:
            derivative += constant / (2.0 * cmath.sqrt(r))
        return derivative

    def select(self, lam: int, dotted: bool = False):
        """The radial evaluator r -> f(lam, r, dotted), lam in {+1, 0, -1}."""
        return functools.partial(self.f, _check_helicity(lam), dotted=dotted)


def radial_residual(l: int, radial, r: complex
                    ) -> tuple[complex, complex, complex, complex]:
    """Residuals of the four radial equations at r (and r* for the dotted pair).

    The equations are taken in r-multiplied form,

        eq1 =  2r f'_{1,+1}(r) - f_{1,+1}(r) - sqrt(2l(l+1)) f_{1,0}(r),
        eq2 = -2r f'_{1,-1}(r) + f_{1,-1}(r) + sqrt(2l(l+1)) f_{1,0}(r),

    with eq3/eq4 the dotted analogues at r* = conj(r).  ``radial`` may be any
    object with RadialSolution's ``f`` and ``f_prime``.  Raises ValueError at
    r = 0, at a non-finite r, and where a residual overflows.
    """
    ladder = radial_ladder(l)
    r = _finite("r", r, complex)
    if r == 0:
        raise ValueError("r = 0 is a singular point of the radial system")
    residuals = []
    for rho, dotted in ((r, False), (r.conjugate(), True)):
        f0 = radial.f(0, rho, dotted)
        residuals.append(2.0 * rho * radial.f_prime(1, rho, dotted)
                         - radial.f(1, rho, dotted) - ladder * f0)
        residuals.append(-2.0 * rho * radial.f_prime(-1, rho, dotted)
                         + radial.f(-1, rho, dotted) + ladder * f0)
    if not all(cmath.isfinite(value) for value in residuals):
        raise ValueError(f"radial residual is not finite at r={r!r}: the "
                         "solution's values overflow near this point")
    return tuple(residuals)
