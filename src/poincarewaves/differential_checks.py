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
Central differences are second-order; Richardson extrapolation (one level per
halving of the step) sharpens them to the rounding floor.  The step 1e-3 and
two levels leave residuals around 1e-9 relative for weights l <= 4.

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
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .lorentz_harmonics import (
    HarmonicIndex,
    _weight_bound,
    _weighted,
    _z_value,
    generalized_m_values,
)
from .group_kinematics import ComplexEulerAngles, _finite

__all__ = [
    "ResidualRecord",
    "make_record",
    "json_entries",
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
#: Every raw "\0" in its text is a separator: JSON escapes control characters.
_NUL_JSON = json.JSONEncoder(sort_keys=True, separators=("\0", ": ")).encode


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


def _json_value(value):
    """Coerce one indices/point entry to a JSON-native scalar."""
    if type(value) in _JSON_NATIVE:
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return str(value)
    raise TypeError(f"record entry {value!r} is not JSON-representable")


def make_record(check_name: str, indices: Mapping[str, object],
                point: Mapping[str, object], residual: float, scale: float,
                tolerance: float, flagged: bool = False) -> ResidualRecord:
    """A ResidualRecord in the report's own form: float measurements and
    indices / point maps with str keys and JSON-native values."""
    indices = {str(key): _json_value(value) for key, value in indices.items()}
    point = {str(key): _json_value(value) for key, value in point.items()}
    try:
        residual, scale = float(residual), float(scale)
        tolerance = float(tolerance)
    except OverflowError:  # an int past the float range: the gate names it
        residual, scale = _finite("residual", residual), _finite("scale", scale)
        tolerance = _finite("tolerance", tolerance)
    return ResidualRecord(check_name, indices, point, residual, scale,
                          tolerance, bool(flagged))


def json_entries(maps: Sequence[Mapping[str, object]]) -> list[str]:
    r"""Each flat map's sort_keys JSON entries joined by "\0", from one encode.
    "}\0{" falls only between maps of scalars; a map's compact sort_keys JSON
    text is "{" + entries.replace("\0", ", ") + "}"."""
    text = _NUL_JSON(maps)
    return text[2:-2].split("}\0{") if text != "[]" else []


def _richardson(estimates: Sequence[complex]) -> complex:
    """Extrapolate a second-order estimator from its values at step / 2**i,
    one per level: one power of h^2 per level."""
    table = [[estimate] for estimate in estimates]
    for i in range(1, len(table)):
        for j in range(1, i + 1):
            factor = 4.0**j
            table[i].append((factor * table[i][j - 1] - table[i - 1][j - 1])
                            / (factor - 1.0))
    return table[-1][-1]


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


def _casimir(idx: HarmonicIndex, angles: ComplexEulerAngles, step: float,
             levels: int) -> tuple[float, float]:
    """Residual of [X2 + l(l+1)] (undotted idx) or [Y2 + l(l+1)] (dotted idx).

    Each stencil value is generalized_m_values' weight(phi, chi) times
    Z(theta), so Z is evaluated once per distinct theta: 2 * levels + 1 times.
    """
    phi0, chi0, theta0 = angles.phi, angles.chi, angles.theta
    if not (SINGULARITY_MARGIN < theta0 < math.pi - SINGULARITY_MARGIN):
        raise ValueError(
            f"evaluation point too close to a coordinate singularity: theta="
            f"{theta0!r} must satisfy {SINGULARITY_MARGIN} < theta < "
            f"pi - {SINGULARITY_MARGIN}")
    (L, M, N), m, n, dotted = idx.doubled, idx.m, idx.n, idx.dotted
    tau, decay = _weight_bound(L, M, N, m, n, angles.epsilon, angles.tau,
                               angles.vareps)

    def f(z: complex, phi: float, chi: float) -> complex:
        return _weighted(m * phi + n * chi, decay, z, dotted)

    theta_c = angles.theta_c_dot if dotted else angles.theta_c
    sin_c, cos_c = cmath.sin(theta_c), cmath.cos(theta_c)
    z0 = _z_value(L, M, N, theta0, tau)
    f0 = f(z0, phi0, chi0)

    def estimate(h: float) -> complex:
        z_tp = _z_value(L, M, N, theta0 + h, tau)
        z_tm = _z_value(L, M, N, theta0 - h, tau)
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


def _z(idx: HarmonicIndex, theta: float, tau: float) -> complex:
    """The (possibly dotted) Z of idx at (theta, tau)."""
    return generalized_m_values(idx.l, idx.m, idx.n, 0.0, 0.0, theta, tau,
                                0.0, 0.0, dotted=idx.dotted)


def _slope(g: Callable[[float], complex], x: float) -> complex:
    """dg/dx at x: Richardson-extrapolated central differences."""
    return _richardson([(g(x + h) - g(x - h)) / (2 * h)
                        for h in _steps(_STEP, _LEVELS)])


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
    (L, M, N), m, n, dotted = idx.doubled, idx.m, idx.n, idx.dotted
    tau, decay = _weight_bound(L, M, N, m, n, 0.0, tau, 0.0)
    theta_c = complex(theta, tau) if dotted else complex(theta, -tau)
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
    phase = m * 0.0 + n * 0.0  # generalized_m_values' at phi = chi = 0

    def g(x: float) -> complex:
        return _weighted(phase, decay, _z_value(L, M, N, x, tau), dotted)

    steps = _steps(_STEP, _LEVELS)
    g0 = g(theta)
    sides = [(g(theta + h), g(theta - h)) for h in steps]
    d1 = _richardson([(g_p - g_m) / (2 * h)
                      for h, (g_p, g_m) in zip(steps, sides)])
    d2 = _richardson([(g_p - 2 * g0 + g_m) / (h * h)
                      for h, (g_p, g_m) in zip(steps, sides)])
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
    dt = _slope(lambda th: _z(idx, th, tau), theta)
    dtau = _slope(lambda ta: _z(idx, theta, ta), tau)
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
