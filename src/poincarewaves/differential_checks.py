"""Finite-difference eigen-residual checks for the matrix-element families.

The weighted matrix elements are joint eigenfunctions of two second-order
operators built from the complex Euler angles:

    X2 = d^2/d(theta_c)^2 + cot(theta_c) d/d(theta_c)
         + (1/sin^2 theta_c) [d^2/d(phi_c)^2
                              - 2 cos(theta_c) d/d(phi_c) d/d(chi_c)
                              + d^2/d(chi_c)^2]

with eigenvalue -l(l+1), and its dotted companion Y2 (same form with the
conjugate complex angles theta + i*tau, ...) acting on the dotted series with
eigenvalue -l(l+1) as well.  Because the matrix elements are holomorphic in the
complex angles, a derivative along the real angle direction equals the
complex-angle derivative, so plain central differences in (theta, phi, chi)
realize d/d(theta_c), d/d(phi_c), d/d(chi_c) for the undotted series and
d/d(theta_c_dot), ... for the dotted one.

Each check measures and returns a (residual, scale) pair: the residual and the
scale of the terms that had to cancel.  Near the edge of the float range the
stencil's values overflow, and a pair that is not finite raises ValueError.
A check does not judge its pair; the suites build one ResidualRecord per
measurement, whose verdict is residual <= tolerance * max(1, scale) at the
tolerance of its check name.
Central differences are second-order; one Richardson step from h and h / 2
sharpens them to the rounding floor.  The step 1e-3 and two levels leave
residuals around 1e-9 relative for weights l <= 4.  All three stencils read
the weighted element through one reader, which evaluates Z once per point.

The Legendre check verifies the single-variable second-order equation satisfied
by Z^l_mn as a function of z = cos(theta_c), and the holomorphy check measures
the Cauchy-Riemann defect d/d(tau) + i d/d(theta); the suites flag the
latter's records: reported, but never allowed to fail a verification run,
since the underlying smoothness assumption is checked rather than proven.

Everything here is pure and deterministic: identical inputs produce
bit-identical results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .lorentz_harmonics import HarmonicIndex, _weight_bound, _weighted, _z_value
from .group_kinematics import ComplexEulerAngles, _finite

__all__ = [
    "ResidualRecord",
    "make_record",
    "casimir_x2_residual",
    "casimir_y2_residual",
    "legendre_residual",
    "holomorphy_residual",
    "casimir_convergence_order",
]

#: Exclusion zone around the coordinate singularities theta = 0, pi (radians).
SINGULARITY_MARGIN = 0.1
#: Exclusion zone for the Legendre variable: require |1 - z^2| above this.
LEGENDRE_MARGIN = 1e-3
#: Central-difference step and Richardson depth of every check.
_STEP, _LEVELS = 1e-3, 2
#: The record-map entry types that _json_value keeps as they are.
_JSON_NATIVE = frozenset((bool, int, float, str))


@dataclass(slots=True)
class ResidualRecord:
    """One verification measurement: what was checked, where, and how it went.

    The verdict is derived, never stored, so it cannot disagree with the
    measurement: passed is residual <= tolerance * max(1, scale).  Records
    are slotted, not frozen (a frozen constructor costs ~4x as much, and
    its maps made it unhashable anyway): treat them as read-only.
    """

    check_name: str
    indices: Mapping[str, object]
    point: Mapping[str, object]
    residual: float
    scale: float
    tolerance: float
    flagged: bool = False

    def __post_init__(self) -> None:
        # Comparisons pass a record without a conversion (a report builds
        # thousands); nan fails them, and the gate names what they refuse.
        if not (0 <= self.residual < math.inf and 0 <= self.scale < math.inf
                and -math.inf < self.tolerance < math.inf):
            for name in ("residual", "scale", "tolerance"):
                _finite(name, getattr(self, name))
            raise ValueError(
                "residual and scale must be non-negative numbers, got "
                f"residual={self.residual!r}, scale={self.scale!r}")

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance * max(1.0, self.scale)


def _json_value(key, value):
    """Coerce one indices/point entry to a JSON-native scalar; a float entry
    must be finite, since JSON has no NaN or infinity."""
    if type(value) in _JSON_NATIVE:
        if type(value) is not float or math.isfinite(value):
            return value
    elif isinstance(value, (bool, np.bool_)):
        return bool(value)
    elif isinstance(value, (int, np.integer)):
        return int(value)
    elif isinstance(value, str):
        return str(value)
    elif not isinstance(value, (float, np.floating)):
        raise TypeError(f"record entry {value!r} is not JSON-representable")
    return _finite(f"record entry {key!r}", value)


def make_record(check_name: str, indices: Mapping[str, object],
                point: Mapping[str, object], residual: float, scale: float,
                tolerance: float, flagged: bool = False) -> ResidualRecord:
    """A ResidualRecord in the report's own form: float measurements and
    indices / point maps with str keys and JSON-native values."""
    indices = {str(key): _json_value(key, value) for key, value in indices.items()}
    point = {str(key): _json_value(key, value) for key, value in point.items()}
    try:
        residual, scale = float(residual), float(scale)
        tolerance = float(tolerance)
    except OverflowError:  # an int past the float range: the gate names it
        residual, scale = _finite("residual", residual), _finite("scale", scale)
        tolerance = _finite("tolerance", tolerance)
    return ResidualRecord(check_name, indices, point, residual, scale,
                          tolerance, bool(flagged))


def _richardson(estimates: Sequence[complex]) -> complex:
    """A second-order estimator's value at step, or from step and step / 2
    the h^2-free (4 fine - coarse) / 3; a third level fails to unpack."""
    if len(estimates) == 1:
        return estimates[0]
    coarse, fine = estimates
    return (4.0 * fine - coarse) / 3.0


def _steps(step: float, levels: int) -> list[float]:
    """The Richardson steps h = step / 2**i, one per level."""
    return [step / 2**i for i in range(levels)]


def _finite_pair(residual: float, scale: float) -> tuple[float, float]:
    """(residual, scale), refused when the stencil's values left the floats."""
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise ValueError(
            f"finite-difference residual={residual!r}, scale={scale!r} is not "
            "finite: the stencil's values overflow near this point")
    return residual, scale


def _weighted_z(idx: HarmonicIndex, epsilon: float, tau: float, vareps: float):
    """(z, f), tau and the weight checked once: z(theta) evaluates idx's Z at
    (theta, tau) and f(z, phi, chi) weights it as generalized_m_values does."""
    (L, M, N), m, n, dotted = idx.doubled, idx.m, idx.n, idx.dotted
    tau, decay = _weight_bound(L, M, N, m, n, epsilon, tau, vareps)
    return (lambda theta: _z_value(L, M, N, theta, tau),
            lambda z, phi, chi: _weighted(m * phi + n * chi, decay, z, dotted))


def _along_theta(idx: HarmonicIndex, tau: float) -> Callable[[float], complex]:
    """theta -> idx's weighted element at (theta, tau), the other angles 0."""
    z, f = _weighted_z(idx, 0.0, tau, 0.0)
    return lambda theta: f(z(theta), 0.0, 0.0)


def _sides(g: Callable[[float], complex], x: float) -> list[tuple]:
    """(h, g(x + h), g(x - h)) at each Richardson step h of the checks."""
    return [(h, g(x + h), g(x - h)) for h in _steps(_STEP, _LEVELS)]


def _slope(sides: Sequence[tuple]) -> complex:
    """dg/dx from its ``_sides``: Richardson-extrapolated central differences."""
    return _richardson([(g_p - g_m) / (2 * h) for h, g_p, g_m in sides])


def _casimir(idx: HarmonicIndex, angles: ComplexEulerAngles, step: float,
             levels: int) -> tuple[float, float]:
    """Residual of [X2 + l(l+1)] (undotted idx) or [Y2 + l(l+1)] (dotted idx).

    Each stencil value is a ``_weighted_z`` weight(phi, chi) times Z(theta),
    so Z is evaluated once per distinct theta: 2 * levels + 1 times.
    """
    phi0, chi0, theta0 = angles.phi, angles.chi, angles.theta
    if not (SINGULARITY_MARGIN < theta0 < math.pi - SINGULARITY_MARGIN):
        raise ValueError(
            f"evaluation point too close to a coordinate singularity: theta="
            f"{theta0!r} must satisfy {SINGULARITY_MARGIN} < theta < "
            f"pi - {SINGULARITY_MARGIN}")
    z, f = _weighted_z(idx, angles.epsilon, angles.tau, angles.vareps)
    theta_c = angles.theta_c_dot if idx.dotted else angles.theta_c
    sin_c, cos_c = cmath.sin(theta_c), cmath.cos(theta_c)
    z0 = z(theta0)
    f0 = f(z0, phi0, chi0)

    def estimate(h: float) -> complex:
        z_tp, z_tm = z(theta0 + h), z(theta0 - h)
        f_tp, f_tm = f(z_tp, phi0, chi0), f(z_tm, phi0, chi0)
        f_pp, f_pm = f(z0, phi0 + h, chi0), f(z0, phi0 - h, chi0)
        f_cp, f_cm = f(z0, phi0, chi0 + h), f(z0, phi0, chi0 - h)
        f_ppcp = f(z0, phi0 + h, chi0 + h)
        f_ppcm = f(z0, phi0 + h, chi0 - h)
        f_pmcp = f(z0, phi0 - h, chi0 + h)
        f_pmcm = f(z0, phi0 - h, chi0 - h)
        h2 = h * h
        d_theta = (f_tp - f_tm) / (2 * h)
        d2_theta = (f_tp - 2 * f0 + f_tm) / h2
        d2_phi = (f_pp - 2 * f0 + f_pm) / h2
        d2_chi = (f_cp - 2 * f0 + f_cm) / h2
        d_phi_chi = (f_ppcp - f_ppcm - f_pmcp + f_pmcm) / (4 * h2)
        return (d2_theta + (cos_c / sin_c) * d_theta
                + (d2_phi - 2 * cos_c * d_phi_chi + d2_chi) / (sin_c * sin_c))

    operator = _richardson([estimate(h) for h in _steps(step, levels)])
    eigenvalue = idx.eigenvalue
    return _finite_pair(abs(operator + eigenvalue * f0),
                        max(1.0, eigenvalue) * abs(f0))


def casimir_x2_residual(idx: HarmonicIndex,
                        angles: ComplexEulerAngles) -> tuple[float, float]:
    """(residual, scale) of [X2 + l(l+1)] on the undotted weighted element."""
    if idx.dotted:
        raise ValueError("casimir_x2_residual checks the undotted series; "
                         "use casimir_y2_residual for a dotted index")
    return _casimir(idx, angles, _STEP, _LEVELS)


def casimir_y2_residual(idx: HarmonicIndex,
                        angles: ComplexEulerAngles) -> tuple[float, float]:
    """(residual, scale) of [Y2 + l(l+1)] on the dotted (conjugate) element."""
    if not idx.dotted:
        raise ValueError("casimir_y2_residual checks the dotted series; "
                         "construct the index with dotted=True")
    return _casimir(idx, angles, _STEP, _LEVELS)


def legendre_residual(idx: HarmonicIndex, theta: float,
                      tau: float) -> tuple[float, float]:
    """(residual, scale) of the second-order equation in z = cos(theta_c).

    Checks (1-z^2) Z'' - 2z Z' - (m^2 + n^2 - 2mnz)/(1-z^2) Z + l(l+1) Z = 0,
    with derivatives taken along the real theta direction and converted by the
    chain rule dz/dtheta = -sin(theta_c).  The scale is the largest magnitude
    among the four terms, so the verdict measures how completely they cancel.
    Both differences share Z(theta +- h): Z is evaluated 2 * levels + 1 times.
    """
    theta, tau = _finite("theta", theta), _finite("tau", tau)
    g, m, n = _along_theta(idx, tau), idx.m, idx.n
    theta_c = complex(theta, tau) if idx.dotted else complex(theta, -tau)
    try:
        z, sin_c = cmath.cos(theta_c), cmath.sin(theta_c)
        sin_c3 = sin_c**3
    except OverflowError:
        raise ValueError(f"tau={tau!r} is out of range for the Legendre "
                         "check: sin^3(theta_c) overflows a float") from None
    one_minus_z2 = sin_c * sin_c
    if abs(one_minus_z2) <= LEGENDRE_MARGIN:
        raise ValueError(
            f"evaluation point too close to the equation's singular locus: "
            f"|1 - z^2| = {abs(one_minus_z2)!r} <= {LEGENDRE_MARGIN}")
    g0 = g(theta)
    sides = _sides(g, theta)
    d1 = _slope(sides)
    d2 = _richardson([(g_p - 2 * g0 + g_m) / (h * h) for h, g_p, g_m in sides])
    z_prime = -d1 / sin_c
    z_second = d2 / (sin_c * sin_c) - z * d1 / sin_c3
    terms = (
        one_minus_z2 * z_second,
        -2 * z * z_prime,
        -((m * m + n * n - 2 * m * n * z) / one_minus_z2) * g0,
        idx.eigenvalue * g0,
    )
    return _finite_pair(abs(sum(terms)), max(abs(term) for term in terms))


def holomorphy_residual(idx: HarmonicIndex, theta: float,
                        tau: float) -> tuple[float, float]:
    """(defect, scale) of the Cauchy-Riemann relation in the rotation angle.

    For the undotted series Z = F(theta - i tau), smoothness demands
    dZ/dtau + i dZ/dtheta = 0; the dotted series satisfies the conjugate
    relation dZ/dtau - i dZ/dtheta = 0.  The scale is |dZ/dtheta|.  The suites
    flag its record: it reports the measured defect but is excluded from hard
    pass/fail aggregation.
    """
    theta, tau = _finite("theta", theta), _finite("tau", tau)
    dt = _slope(_sides(_along_theta(idx, tau), theta))
    dtau = _slope(_sides(lambda ta: _along_theta(idx, ta)(theta), tau))
    defect = dtau - 1j * dt if idx.dotted else dtau + 1j * dt
    return _finite_pair(abs(defect), abs(dt))


def casimir_convergence_order(idx: HarmonicIndex,
                              angles: ComplexEulerAngles) -> float:
    """Measured order log2(residual(2h)/residual(h)) of the raw FD residual.

    Checks Y2 for a dotted idx and X2 otherwise, with single-level
    (unextrapolated) estimates at h = 1e-2 and 2h = 2e-2, where truncation
    error dominates rounding; a second-order stencil should measure close
    to 2.  An exactly zero residual (l = 0) has no order to measure.
    """
    coarse, _ = _casimir(idx, angles, 2e-2, 1)
    fine, _ = _casimir(idx, angles, 1e-2, 1)
    if not (coarse > 0 and fine > 0):
        raise ValueError(
            f"raw residuals coarse={coarse!r}, fine={fine!r} at l={idx.l:g}: "
            "an exactly zero residual has no convergence order to measure")
    return math.log2(coarse / fine)
