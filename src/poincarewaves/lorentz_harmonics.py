"""Matrix elements of finite-dimensional Lorentz-group representations.

The central object is the two-parameter family Z^l_mn(theta, tau): the matrix
element carrying a rotation angle theta and a boost rapidity tau, indexed by a
non-negative (half-)integer weight l and projections m, n with l - m and l - n
non-negative integers.  Two independent evaluation routes are provided:

``z_sum``
    The explicit double sum: for each internal index k, an exact-coefficient
    table is assembled once (integer factorials, perfect-square detection, exact
    rational division) and evaluated in the folded form
    sin^p(theta/2) cos^(2l-p)(theta/2) * sinh^q(tau/2) cosh^(2l-q)(tau/2); the
    exponents are provably non-negative inside the summation bounds, so the
    route is stable on the whole closed interval [0, pi] and reproduces
    Z(0, 0) = delta_mn exactly in IEEE arithmetic.

``z_2f1``
    The terminating-hypergeometric route: per internal index k, a Gauss series
    2F1(m - l, -l - k; m - k + 1; -tan^2(theta/2)) against the rotation angle
    and 2F1(n - l, -l - k; n - k + 1; tanh^2(tau/2)) against the rapidity, each
    multiplied by the square-root factorial prefactor required for agreement
    with the double sum.  When a lower parameter m - k + 1 (or n - k + 1) is a
    non-positive integer, the printed series is singular although the full term
    is finite; that term falls back to the corresponding inner sum.

``su2_factor_p`` / ``qu2_factor_jacobi`` are the rotation-angle and rapidity
halves of the summand, so that sum_k P^l_mk(cos theta) * Q^l_kn(cosh tau)
factorizes Z^l_mn; they deliberately evaluate the double sum's cached
coefficient tables in the unfolded tangent-power form, so the factorization
check compares genuinely different floating-point evaluations.

``z_sum_grid`` / ``z_2f1_grid`` evaluate the same two routes for a list of
indices over a whole theta x tau grid, as one complex128 array of shape
(len(indices), len(thetas), len(taus)).  Each side of the summand is one
array block per weight over the (m or n, k) the indices use and every angle,
summed from one zero-padded coefficient block per weight and side over power
tables filled by Python's own ``**`` (libm ``pow``, whose bits numpy's power
does not reproduce); the k sum is one numpy operation per weight and k,
ascending.  Long axes go a bounded chunk of angles at a time.  The
factorization check sums the halves through the same engine.  Each side
formula has one scalar and one block form, both taking a ``rotation`` flag
that picks (sin, cos), the range-checked tan and the alternating coefficient
table, or (sinh, cosh), tanh and the plain one.  Every grid value is
bit-identical to ``z_sum`` / ``z_2f1`` at that point under the same
interpreter (Python 3.14's mixed complex/float arithmetic, gh-69639, can
flip the scalar routes' signed zeros), and an out-of-range point raises the
error the scalar routes would raise first.

``generalized_m`` decorates Z with the exponential weights
e^(-m(epsilon + i phi)) and e^(-n(vareps + i chi)); the ``dotted`` flag selects
the conjugate series, whose value at a given six-tuple of real parameters is
the complex conjugate of the undotted value at the same parameters.
``associated_m`` (n = 0, with the e^(-m(epsilon + i phi)) sign convention) and
``zonal_z`` (m = n = 0) are the standard specializations.

All powers of i and all fractional powers use principal branches; all functions
are pure and deterministic.  A weight past l = 20, the measured accuracy
envelope, raises ValueError; so do the points where the growth e^(l |tau|),
the tangent powers tan^(2l)(theta/2) near theta = pi or the exponential
weights overflow a float.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .group_kinematics import ComplexEulerAngles, _finite

__all__ = [
    "HarmonicIndex",
    "terminating_2f1",
    "z_sum",
    "z_2f1",
    "z_sum_grid",
    "z_2f1_grid",
    "su2_factor_p",
    "qu2_factor_jacobi",
    "generalized_m",
    "generalized_m_values",
    "associated_m",
    "zonal_z",
]

#: i**n for n mod 4, exact; as an array for the grid engine.
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASES = np.array(_I_POW)

#: Log of the largest float, less a margin for rounding.
_MAX_LOG = 709.0

#: Bound on 2l |tau|: e^(l |tau|), and cosh(tau/2) itself, must stay floats.
_MAX_GROWTH = 2 * _MAX_LOG

#: Largest weight l accepted: the measured accuracy envelope.  Against a
#: 60-digit reference the Z routes hold 1e-10 relative at l = 20 and drift
#: past it from l = 22; every factorial coefficient up to l = 20 fits a float.
_MAX_WEIGHT = 20


def _doubled(name: str, value: float) -> int:
    """Map a half-integer to its exact doubled integer, validating on the way."""
    value = _finite(name, value)
    if abs(value) > _MAX_WEIGHT:
        bound = name if value > 0 else f"|{name}|"
        raise ValueError(f"{name}={value:g} is out of range: {bound} must not "
                         f"exceed {_MAX_WEIGHT}")
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-9:
        raise ValueError(f"{name} must be an integer or half-integer, got {value!r}")
    return int(doubled)


@lru_cache(maxsize=None)
def _validated_doubled(l: float, m: float, n: float,
                       names=("m", "n")) -> tuple[int, int, int]:
    """(2l, 2m, 2n) of a valid index; ValueError names the first broken rule,
    calling the projections m and n by ``names``.  Invalid triples raise and
    are not cached; it builds no HarmonicIndex, so a cache miss does not
    change how many indices an operation constructs."""
    L, M, N = _doubled("l", l), _doubled(names[0], m), _doubled(names[1], n)
    if L < 0:
        raise ValueError(f"l must be non-negative, got {l!r}")
    for name, value, D in ((names[0], m, M), (names[1], n, N)):
        if abs(D) > L:
            raise ValueError(f"|{name}| must not exceed l, got {name}="
                             f"{value!r} with l={l!r}")
        if (L - D) % 2:
            raise ValueError(f"l - {name} must be an integer, got l={l!r}, "
                             f"{name}={value!r}")
    return L, M, N


def _doubled_triple(l: float, m: float, n: float,
                    names=("m", "n")) -> tuple[int, int, int]:
    """Validation of every (l, m, n): cached, unless a number is no cache key
    (a 0-d array).  ``names`` renames m and n, as ("m", "k") for su2."""
    try:
        return _validated_doubled(l, m, n, names)
    except TypeError:  # unhashable
        return _validated_doubled.__wrapped__(l, m, n, names)


@dataclass(frozen=True)
class HarmonicIndex:
    """Weight l and projections m, n of a representation matrix element.

    l is a non-negative integer or half-integer; m and n belong to the same
    class (l - m and l - n are non-negative integers) with |m|, |n| <= l.
    ``dotted`` selects the conjugate series.
    """

    l: float
    m: float
    n: float
    dotted: bool = False

    def __post_init__(self) -> None:
        L, M, N = _doubled_triple(self.l, self.m, self.n)
        object.__setattr__(self, "l", L / 2)
        object.__setattr__(self, "m", M / 2)
        object.__setattr__(self, "n", N / 2)
        object.__setattr__(self, "dotted", bool(self.dotted))
        # Not a field: equality, hash and repr stay those of (l, m, n, dotted).
        object.__setattr__(self, "_doubled", (L, M, N))

    @property
    def doubled(self) -> tuple[int, int, int]:
        """(2l, 2m, 2n) as exact integers."""
        return self._doubled

    @property
    def eigenvalue(self) -> float:
        """l(l+1), the quadratic-invariant eigenvalue of the weight."""
        return self.l * (self.l + 1)


def terminating_2f1(a: float, b: float, c: float, x: complex) -> complex:
    """Gauss hypergeometric sum 2F1(a, b; c; x) for terminating parameters.

    Requires a or b to be a non-positive integer so the series is a finite
    polynomial, of order at most 2 * _MAX_WEIGHT = 40 (the largest order
    any route sums, at l = 20).  Raises ValueError if neither upper
    parameter terminates the series, if the series order exceeds 40, if c
    is a non-positive integer whose pole is reached before termination, if
    a, b, c or x is not finite, or if the sum overflows a float.
    """
    a, b, c = _finite("a", a), _finite("b", b), _finite("c", c)
    _finite("x", x, complex)  # x keeps its type: a real x sums a real series
    stops = [(-int(round(v)), name, v) for name, v in (("a", a), ("b", b))
             if v == round(v) and round(v) <= 0]
    if not stops:
        raise ValueError(
            f"series does not terminate: neither a={a!r} nor b={b!r} "
            "is a non-positive integer")
    order, name, value = min(stops)
    if order > 2 * _MAX_WEIGHT:
        raise ValueError(
            f"terminating parameter {name}={value!r} gives a series of order "
            f"above {2 * _MAX_WEIGHT}, the longest summed for weights "
            f"l <= {_MAX_WEIGHT}")
    if c == round(c) and round(c) <= 0 and -int(round(c)) < order:
        raise ValueError(
            f"lower parameter c={c!r} hits a pole before the series "
            f"terminates at order {order}")
    total = 1.0 + 0j if isinstance(x, complex) else 1.0
    term = total
    for j in range(order):
        term *= (a + j) * (b + j) / ((c + j) * (j + 1)) * x
        total += term
    if not cmath.isfinite(total):
        raise ValueError(f"the series overflows a float at a={a!r}, b={b!r}, "
                         f"c={c!r}, x={x!r}")
    return total


def _sqrt_ratio(L: int, A: int, K: int, denominator: int, sign: int) -> float:
    """sign * sqrt((l-a)! (l+a)! (l-k)! (l+k)!) / denominator at doubled indices.

    When the factorial product is a perfect square the result is an exact
    rational converted once to float (so ratios like sqrt((a! b!)^2)/(a! b!)
    come out as exactly 1.0); otherwise a single correctly-rounded sqrt is used.
    At l <= _MAX_WEIGHT the product is at most (40!)^2 ~ 6.6e95, a float.
    """
    product = (math.factorial((L - A) // 2) * math.factorial((L + A) // 2)
               * math.factorial((L - K) // 2) * math.factorial((L + K) // 2))
    root = math.isqrt(product)
    if root * root == product:
        return sign * float(Fraction(root, denominator))
    return sign * math.sqrt(product) / denominator


@lru_cache(maxsize=None)
def _angular_terms(L: int, A: int, K: int, alternating: bool
                   ) -> tuple[tuple[int, int, float], ...]:
    """Exact coefficient table for one half of the Z summand.

    Doubled indices: weight L = 2l, projection A = 2a (a = m on the rotation
    side, a = n on the rapidity side), internal index K = 2k.  Each entry is
    (odd_power, even_power, coefficient) for a term
    coefficient * odd(x/2)**odd_power * even(x/2)**even_power with
    (odd, even) = (sin, cos) or (sinh, cosh).  ``alternating`` applies the
    (-1)^j sign of the rotation side.
    """
    la, lpk, ak = (L - A) // 2, (L + K) // 2, (A - K) // 2
    terms = []
    for j in range(max(0, -ak), min(la, lpk) + 1):
        p = ak + 2 * j
        denominator = (math.factorial(j) * math.factorial(la - j)
                       * math.factorial(lpk - j) * math.factorial(ak + j))
        sign = -1 if (alternating and j % 2) else 1
        terms.append((p, L - p, _sqrt_ratio(L, A, K, denominator, sign)))
    return tuple(terms)


@lru_cache(maxsize=None)
def _z_table(L: int, M: int, N: int):
    """Per-k coefficient tables for Z^l_mn, keyed by doubled indices."""
    return tuple(
        (((M - K) // 2) % 4,
         _angular_terms(L, M, K, True),
         _angular_terms(L, N, K, False))
        for K in range(-L, L + 1, 2)
    )


def _z_value(L: int, M: int, N: int, theta: float, tau: float) -> complex:
    """Folded-form evaluation of the double sum at doubled indices."""
    sh, ch = math.sin(theta / 2), math.cos(theta / 2)
    sb, cb = math.sinh(tau / 2), math.cosh(tau / 2)
    total = 0j
    for ipow, theta_terms, tau_terms in _z_table(L, M, N):
        rotation = 0.0
        for p, cp, coeff in theta_terms:
            rotation += coeff * sh**p * ch**cp
        rapidity = 0.0
        for q, cq, coeff in tau_terms:
            rapidity += coeff * sb**q * cb**cq
        total += _I_POW[ipow] * (rotation * rapidity)
    return total


def _validate_theta(theta: float) -> float:
    theta = _finite("theta", theta)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    return theta


def _side_tangent(x: float, L: int, rotation: bool) -> float:
    """tan(theta/2) or tanh(tau/2) for the tangent forms, whose sums reach
    (2 tan(theta/2))^(2l) on the rotation side.

    A coefficient table sums to at most 2^(2l) in absolute value, so below the
    bound no term, partial sum or power of cos(theta/2) leaves the float range.
    """
    if not rotation:
        return math.tanh(x / 2)
    t = math.tan(x / 2)
    if t > 1.0 and L * math.log(2 * t) > _MAX_LOG:
        raise ValueError(f"theta={x!r} is out of range for l={L / 2:g}: "
                         "tan^(2l)(theta/2) overflows a float")
    return t


def _validate_tau(tau: float, L: int) -> float:
    try:
        tau = float(tau)
    except OverflowError:  # on the hot path the gate runs only on a refusal
        tau = _finite("tau", tau)
    if not abs(tau) * (L or 1) <= _MAX_GROWTH:  # also true for nan
        _finite("tau", tau)
        raise ValueError(f"tau={tau!r} is out of range for l={L / 2:g}: "
                         "e^(l |tau|) overflows a float")
    return tau


def z_sum(idx: HarmonicIndex, theta: float, tau: float) -> complex:
    """Z^l_mn(theta, tau) via the exact-coefficient double sum."""
    L, M, N = idx.doubled
    value = _z_value(L, M, N, _validate_theta(theta), _validate_tau(tau, L))
    return value.conjugate() if idx.dotted else value


def _unfolded(L: int, A: int, K: int, x: float, rotation: bool) -> complex:
    """One side in the unfolded form even^L(x/2) * sum coeff * tangent^p(x/2).

    Reads the side's ``_angular_terms`` table; the rotation side (a = m)
    carries the phase i^(a - k) and is complex, the rapidity side (a = n) is a
    real float.  Used by ``su2_factor_p`` and ``qu2_factor_jacobi``, and as
    ``_factor_2f1``'s fallback where the series' lower parameter is a
    non-positive integer.
    """
    t = _side_tangent(x, L, rotation)
    acc = 0.0
    for p, _, coeff in _angular_terms(L, A, K, rotation):
        acc += coeff * t ** p
    value = (math.cos if rotation else math.cosh)(x / 2) ** L * acc
    return _I_POW[((A - K) // 2) % 4] * value if rotation else value


def su2_factor_p(l: float, m: float, k: float, theta: float) -> complex:
    """Rotation-angle half P^l_mk(cos theta) of the Z summand.

    Includes the i^(m-k) phase; at theta = 0 reduces to the Kronecker delta.
    """
    L, M, K = _doubled_triple(l, m, k, ("m", "k"))
    return _unfolded(L, M, K, _validate_theta(theta), True)


def qu2_factor_jacobi(l: float, k: float, n: float, tau: float) -> float:
    """Rapidity half Q^l_kn(cosh tau) of the Z summand (real-valued).

    At tau = 0 reduces to the Kronecker delta.
    """
    L, K, N = _doubled_triple(l, k, n, ("k", "n"))
    return _unfolded(L, N, K, _validate_tau(tau, L), False)


def _factor_2f1(L: int, A: int, K: int, x: float, rotation: bool) -> complex:
    """One side via the terminating Gauss series, or ``_unfolded`` where a < k.

    The series is normalized to its leading term, so its square-root factorial
    prefactor is the j = 0 coefficient of the cached ``_angular_terms`` table.
    Only the rotation side carries the phase i^(a - k).
    """
    ak = (A - K) // 2
    if ak < 0:
        return _unfolded(L, A, K, x, rotation)
    prefactor = _angular_terms(L, A, K, rotation)[0][2]
    odd, even = (math.sin, math.cos) if rotation else (math.sinh, math.cosh)
    t = _side_tangent(x, L, rotation)
    series = terminating_2f1((A - L) / 2, -(L + K) / 2, ak + 1,
                             -t ** 2 if rotation else t ** 2)
    value = prefactor * odd(x / 2)**ak * even(x / 2)**(L - ak) * series
    return _I_POW[ak % 4] * value if rotation else value


def z_2f1(idx: HarmonicIndex, theta: float, tau: float) -> complex:
    """Z^l_mn(theta, tau) via terminating hypergeometric series per summand."""
    L, M, N = idx.doubled
    theta, tau = _validate_theta(theta), _validate_tau(tau, L)
    total = 0j
    for K in range(-L, L + 1, 2):
        total += _factor_2f1(L, M, K, theta, True) * _factor_2f1(L, N, K, tau, False)
    return total.conjugate() if idx.dotted else total


def _powers(values, L: int) -> np.ndarray:
    """values[i] ** p for p = 0..L, shaped (L + 1, len(values)), by Python's
    own ``**`` as the scalar routes: np.power rounds some powers differently."""
    return np.array([[v ** p for v in values] for p in range(L + 1)])


@lru_cache(maxsize=None)
def _side_block(L: int, alternating: bool) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, odd powers) of every ``_angular_terms`` table of weight L.

    Each is shaped (terms, L + 1 projections, L + 1 K), both ascending; shorter
    tables are padded at the end with coefficient 0 and power 0.
    """
    tables = [_angular_terms(L, A, K, alternating)
              for A in range(-L, L + 1, 2) for K in range(-L, L + 1, 2)]
    width = max(map(len, tables))
    block = np.array([terms + ((0, L, 0.0),) * (width - len(terms))
                      for terms in tables]).T.reshape(3, width, L + 1, L + 1)
    coefficients, powers = block[2], block[0].astype(int)
    coefficients.flags.writeable = powers.flags.writeable = False  # cached
    return coefficients, powers


@lru_cache(maxsize=None)
def _series_block(L: int) -> np.ndarray:
    """``terminating_2f1``'s term ratios for every (a, K) of weight L.

    Shaped (L, L + 1 projections, L + 1 K); 0 past each series' order and
    where a < k, whose lower parameter reaches a pole (the tangent fallback).
    """
    ratios = np.zeros((L, L + 1, L + 1))
    for a, A in enumerate(range(-L, L + 1, 2)):
        for k, K in enumerate(range(-L, L + 1, 2)):
            upper, lower, c = (A - L) / 2, -(L + K) / 2, (A - K) // 2 + 1
            for j in range(min((L - A) // 2, (L + K) // 2) if A >= K else 0):
                ratios[j, a, k] = (upper + j) * (lower + j) / ((c + j) * (j + 1))
    ratios.flags.writeable = False  # cached
    return ratios


# Each side form below returns a real block shaped (len(rows), L + 1 K,
# len(angles)) for the projection rows asked for (row a is projection
# 2a - L), adding the table entries to every point in the scalar order.

def _folded_block(L: int, rotation: bool, rows, angles) -> np.ndarray:
    """z_sum's side: sum coeff * odd^p * even^(L - p), from +0.0."""
    odd, even = (math.sin, math.cos) if rotation else (math.sinh, math.cosh)
    coefficients, powers = _side_block(L, rotation)
    odd_pow = _powers([odd(x / 2) for x in angles], L)
    even_pow = _powers([even(x / 2) for x in angles], L)
    total = np.zeros((len(rows), L + 1, len(angles)))
    for c, p in zip(coefficients[:, rows], powers[:, rows]):
        total += (c[..., None] * odd_pow[p]) * even_pow[L - p]
    return total


def _tangent_block(L: int, rotation: bool, rows, angles,
                   tangents=None) -> np.ndarray:
    """The unfolded side even^L * sum coeff * tangent^p: su2_factor_p (less
    its phase) and qu2_factor_jacobi.  ``tangents`` are ``_side_tangent``'s."""
    even = math.cos if rotation else math.cosh
    coefficients, powers = _side_block(L, rotation)
    if tangents is None:
        tangents = [_side_tangent(x, L, rotation) for x in angles]
    tangent_pow = _powers(tangents, L)
    total = np.zeros((len(rows), L + 1, len(angles)))
    for c, p in zip(coefficients[:, rows], powers[:, rows]):
        total += c[..., None] * tangent_pow[p]
    return np.array([even(x / 2) ** L for x in angles]) * total


def _hypergeometric_block(L: int, rotation: bool, rows, angles) -> np.ndarray:
    """z_2f1's side (less its phase): the leading term times the Gauss series,
    or the tangent form where a < k."""
    odd, even = (math.sin, math.cos) if rotation else (math.sinh, math.cosh)
    coefficients, powers = _side_block(L, rotation)
    tangents = [_side_tangent(x, L, rotation) for x in angles]
    sign = -1.0 if rotation else 1.0
    x = np.array([sign * t ** 2 for t in tangents])
    series = term = np.ones((len(rows), L + 1, len(angles)))
    for ratio in _series_block(L)[:, rows]:
        term = term * (ratio[..., None] * x)
        series = series + term
    c, p = coefficients[0, rows, :, None], powers[0, rows]
    odd_pow = _powers([odd(t / 2) for t in angles], L)
    even_pow = _powers([even(t / 2) for t in angles], L)
    return np.where(np.less.outer(rows, range(L + 1))[..., None],
                    _tangent_block(L, rotation, rows, angles, tangents),
                    (c * odd_pow[p]) * even_pow[L - p] * series)


#: Largest side block, in floats, that one grid chunk builds: grids with
#: longer axes are evaluated a chunk of angles at a time, so memory stays
#: bounded whatever the axis lengths.
_BLOCK_SIZE = 1 << 16


def _grid_values(indices, thetas, taus, side) -> np.ndarray:
    """sum_K (i^(m - k) * rotation) * rapidity over the theta x tau grid.

    Shaped (len(indices), len(thetas), len(taus)).  side(L, rotation, rows,
    angles) is one of the side forms above, run once per weight and side for
    the distinct rows of m (or n) that the indices use, over chunks of at
    most ``_BLOCK_SIZE`` block entries.  Per ascending K, one array operation
    adds that product to every point's sum, which starts from 0j: the order
    of z_2f1 and the factor halves, whose rotation side carries the phase.
    z_sum's i^(m - k) * (rotation * rapidity) has the same bits, since the
    phase multiplies exactly and the sum from +0j turns every signed zero
    into +0.0.  The rapidity factor is real, so numpy rounds each component
    as Python does.  Dotted indices are conjugated.
    """
    grids = np.empty((len(indices), len(thetas), len(taus)), complex)
    weights = {}
    for position, idx in enumerate(indices):
        weights.setdefault(idx.doubled[0], []).append(position)
    for L, positions in weights.items():
        members = [indices[i] for i in positions]
        M = [(idx.doubled[1] + L) // 2 for idx in members]
        N = [(idx.doubled[2] + L) // 2 for idx in members]
        # Distinct projection rows, and each member's place among them.
        ms, ns = sorted(set(M)), sorted(set(N))
        m_at = np.array([ms.index(a) for a in M])
        n_at = np.array([ns.index(a) for a in N])
        phases = _PHASES[np.subtract.outer(ms, range(L + 1)) % 4]
        dotted = np.array([idx.dotted for idx in members])
        step = max(1, _BLOCK_SIZE // ((L + 1) * max(len(ms), len(ns))))
        for i in range(0, len(thetas), step):
            rotation = phases[..., None] * side(L, True, ms, thetas[i:i + step])
            for j in range(0, len(taus), step):
                rapidity = side(L, False, ns, taus[j:j + step])
                total = np.zeros((len(members), rotation.shape[2],
                                  rapidity.shape[2]), complex)
                for k in range(L + 1):
                    total += rotation[m_at, k, :, None] * rapidity[n_at, k, None, :]
                total[dotted] = total[dotted].conj()
                grids[positions, i:i + step, j:j + step] = total
    return grids


def _on_grid(route, indices, thetas, taus, side) -> np.ndarray:
    """Validate the grid, then return its ``_grid_values``.

    On a domain error, raise the error that route(idx, theta, tau) meets
    first in a loop over indices, then thetas, then taus: the grid's first
    error is the scalar loop's.
    """
    indices, thetas, taus = list(indices), list(thetas), list(taus)
    L = max((idx.doubled[0] for idx in indices), default=0)
    try:
        return _grid_values(indices, [_validate_theta(t) for t in thetas],
                            [_validate_tau(t, L) for t in taus], side)
    except ValueError:
        for idx in indices:
            for theta in thetas:
                for tau in taus:
                    route(idx, theta, tau)
        raise


def z_sum_grid(indices, thetas, taus) -> np.ndarray:
    """z_sum(idx, theta, tau) for each index over the theta x tau grid.

    Returns a complex128 array shaped (len(indices), len(thetas), len(taus)),
    each value bit-identical to z_sum at its point.  Each side of the summand
    is one block per weight.
    """
    return _on_grid(z_sum, indices, thetas, taus, _folded_block)


def z_2f1_grid(indices, thetas, taus) -> np.ndarray:
    """z_2f1(idx, theta, tau) for each index over the theta x tau grid.

    Same array shape and contract as ``z_sum_grid``: bit-identical to z_2f1,
    with each hypergeometric side one block per weight.
    """
    return _on_grid(z_2f1, indices, thetas, taus, _hypergeometric_block)


def _weight_bound(L: int, M: int, N: int, m: float, n: float, epsilon: float,
                  tau: float, vareps: float) -> tuple[float, float]:
    """(tau, m epsilon + n vareps) of a weighted element, both validated.

    |Z| is at most e^(l |tau|), so the weighted value is refused when the
    weight times that bound leaves the float range.  epsilon and vareps are
    finite: the caller's entry has taken them through the gate.
    """
    tau = _validate_tau(tau, L)
    decay = m * epsilon + n * vareps
    if not -math.inf < L / 2 * abs(tau) - decay <= _MAX_LOG:  # also for nan
        bound = ("m epsilon + n vareps" if math.isinf(decay)
                 else "e^(-(m epsilon + n vareps) + l |tau|)")
        raise ValueError(
            f"epsilon={epsilon!r}, vareps={vareps!r} are out of range for "
            f"l={L / 2:g}, m={M / 2:g}, n={N / 2:g}, tau={tau!r}: "
            f"{bound} overflows a float")
    return tau, decay


def _weighted(phase: float, decay: float, z: complex, dotted: bool) -> complex:
    """e^(-(decay + i phase)) * z, conjugated for the dotted series."""
    value = cmath.exp(complex(-decay, -phase)) * z
    return value.conjugate() if dotted else value


def generalized_m_values(l: float, m: float, n: float, phi: float,
                         epsilon: float, theta: float, tau: float,
                         chi: float, vareps: float, *,
                         dotted: bool = False) -> complex:
    """Exponentially weighted matrix element at raw parameter values.

    This entry point does not range-validate the six parameters: the
    finite-difference verification stencils legitimately step slightly outside
    the canonical parameter ranges.  Use ``generalized_m`` for validated input.
    The dotted value at a six-tuple of reals is the complex conjugate of the
    undotted value at the same six-tuple.  |Z| is at most e^(l |tau|), so the
    value is refused when the weight times that bound leaves the float range;
    a parameter that is not finite is refused by name.
    """
    L, M, N = _doubled_triple(l, m, n)
    return _element(L, M, N, m, n, _finite("phi", phi),
                    _finite("epsilon", epsilon), _finite("theta", theta),
                    _finite("tau", tau), _finite("chi", chi),
                    _finite("vareps", vareps), dotted)


def _element(L: int, M: int, N: int, m: float, n: float, phi: float,
             epsilon: float, theta: float, tau: float, chi: float,
             vareps: float, dotted: bool) -> complex:
    """generalized_m_values at the doubled index (L, M, N) and six finite
    angles, which the caller has validated; m and n are the caller's
    projections, weighted as given."""
    tau, decay = _weight_bound(L, M, N, m, n, epsilon, tau, vareps)
    phase = m * phi + n * chi
    if not math.isfinite(phase):  # finite angles, but m phi + n chi overflows
        raise ValueError(f"the weighted element at phi={phi!r}, "
                         f"theta={theta!r}, chi={chi!r} is not finite")
    return _weighted(phase, decay, _z_value(L, M, N, theta, tau), dotted)


def generalized_m(idx: HarmonicIndex, angles: ComplexEulerAngles) -> complex:
    """e^(-m(epsilon + i phi)) * Z^l_mn(theta, tau) * e^(-n(vareps + i chi))."""
    return generalized_m_values(idx.l, idx.m, idx.n, angles.phi, angles.epsilon,
                                angles.theta, angles.tau, angles.chi,
                                angles.vareps, dotted=idx.dotted)


def associated_m(l: float, m: float, angles: ComplexEulerAngles) -> complex:
    """Associated function: the n = 0 specialization e^(-m(epsilon+i phi)) Z^l_m0."""
    return generalized_m_values(l, m, 0.0, angles.phi, angles.epsilon,
                                angles.theta, angles.tau, 0.0, 0.0)


def zonal_z(l: float, theta: float, tau: float) -> complex:
    """Zonal function Z^l_00(theta, tau)."""
    return z_sum(HarmonicIndex(l, 0.0, 0.0), theta, tau)
