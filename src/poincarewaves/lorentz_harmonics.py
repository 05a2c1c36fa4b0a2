"""Matrix elements of finite-dimensional Lorentz-group representations.

The central object is the two-parameter family Z^l_mn(theta, tau): the matrix
element carrying a rotation angle theta and a boost rapidity tau, indexed by a
non-negative (half-)integer weight l and projections m, n with l - m and l - n
non-negative integers.  Two independent evaluation routes are provided:

``z_sum``
    The explicit double sum: for each internal index k, an exact-coefficient
    table (integer factorials, perfect-square detection, exact rational
    division) evaluated in the folded form
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

``z_sum_grid`` evaluates ``z_sum`` for a list of indices over a whole theta
x tau grid, as one complex128 array of shape (len(indices), len(thetas),
len(taus)).  One engine serves it, ``table z`` and verify's Z grid suites,
which also sum ``z_2f1`` and the factor halves through it: it walks each
weight's grid a bounded chunk of angles at a time, taus outer and thetas
inner, and sums every (m, n) pair of the rows the chunk uses.  Each side of
the summand is one array block per chunk over those (m or n, k) rows and the
chunk's angles, summed from one zero-padded coefficient block per weight and
side over power tables filled by Python's own ``**`` (libm ``pow``, whose
bits numpy's power does not reproduce); the three routes' blocks of one side
share those tables.  The k sum is one numpy operation per chunk and k,
ascending.  Each side formula has one scalar and one block form, both taking
a ``rotation`` flag that picks (sin, cos), the range-checked tan and the
alternating coefficient table, or (sinh, cosh), tanh and the plain one.
Every grid value is bit-identical to its scalar route at that point under
the same interpreter (Python 3.14's mixed complex/float arithmetic,
gh-69639, can flip the scalar routes' signed zeros), and an out-of-range
point of ``z_sum_grid`` raises the error ``z_sum`` would raise first.

``generalized_m`` decorates Z with the exponential weights
e^(-m(epsilon + i phi)) and e^(-n(vareps + i chi)); the ``dotted`` flag selects
the conjugate series, whose value at a given six-tuple of real parameters is
the complex conjugate of the undotted value at the same parameters.
``associated_m`` (n = 0, with the e^(-m(epsilon + i phi)) sign convention) and
``zonal_z`` (m = n = 0) are the standard specializations.

The coefficient tables are built on first use, never at import, and kept for
the life of the process: all the tables of one side's projection a at weight
l, one per internal index k, in one pass over one list of factorials (a
single factorial product and square-root test per k); the rotation side's row
is the plain row with its odd terms negated.  A scalar evaluation builds only
the rows of its own m and n, and the grid engine pads each weight's rows into
one array block per side.

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
from functools import cached_property, lru_cache

import numpy as np

from .group_kinematics import ComplexEulerAngles, _finite

__all__ = [
    "HarmonicIndex",
    "terminating_2f1",
    "z_sum",
    "z_2f1",
    "z_sum_grid",
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
    ``dotted`` selects the conjugate series.  ``doubled`` holds (2l, 2m, 2n)
    as exact integers; it is not a field, so equality, hash and repr stay
    those of (l, m, n, dotted).
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
        object.__setattr__(self, "doubled", (L, M, N))

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


@lru_cache(maxsize=None)
def _angular_row(L: int, A: int, alternating: bool
                 ) -> tuple[tuple[tuple[int, int, float], ...], ...]:
    """Exact coefficient tables for one half of the Z summand, one per K.

    Doubled indices: weight L = 2l, projection A = 2a (a = m on the rotation
    side, a = n on the rapidity side); entry (K + L) / 2 is the table of the
    internal index K = 2k.  Each table entry is (odd_power, even_power,
    coefficient) for a term coefficient * odd(x/2)**odd_power *
    even(x/2)**even_power with (odd, even) = (sin, cos) or (sinh, cosh), and
    coefficient sqrt((l-a)! (l+a)! (l-k)! (l+k)!) / (j! (l-a-j)! (l+k-j)!
    (a-k+j)!).  When the factorial product is a perfect square the
    coefficient is the exact ratio root / denominator, correctly rounded by
    int division (so ratios like sqrt((a! b!)^2)/(a! b!) come out as exactly
    1.0); otherwise a single correctly-rounded sqrt is divided.  At l <=
    _MAX_WEIGHT the product is at most (40!)^2 ~ 6.6e95, a float.
    ``alternating`` applies the (-1)^j sign of the rotation side: the plain
    row with its odd-j entries negated.
    """
    if alternating:
        return tuple(
            tuple((p, q, -c if (p - (A - K) // 2) // 2 % 2 else c)
                  for p, q, c in table)
            for K, table in zip(range(-L, L + 1, 2), _angular_row(L, A, False)))
    factorial = [math.factorial(i) for i in range(L + 1)]
    la = (L - A) // 2
    outer = factorial[la] * factorial[(L + A) // 2]
    row = []
    for K in range(-L, L + 1, 2):
        lpk, ak = (L + K) // 2, (A - K) // 2
        product = outer * factorial[(L - K) // 2] * factorial[lpk]
        root = math.isqrt(product)
        numerator = root if root * root == product else math.sqrt(product)
        row.append(tuple(
            (ak + 2 * j, L - ak - 2 * j,
             numerator / (factorial[j] * factorial[la - j]
                          * factorial[lpk - j] * factorial[ak + j]))
            for j in range(max(0, -ak), min(la, lpk) + 1)))
    return tuple(row)


@lru_cache(maxsize=None)
def _z_table(L: int, M: int, N: int):
    """Per-k coefficient tables for Z^l_mn, keyed by doubled indices."""
    return tuple(zip([((M - K) // 2) % 4 for K in range(-L, L + 1, 2)],
                     _angular_row(L, M, True), _angular_row(L, N, False)))


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

    Reads the side's ``_angular_row`` table of K; the rotation side (a = m)
    carries the phase i^(a - k) and is complex, the rapidity side (a = n) is a
    real float.  Used by ``su2_factor_p`` and ``qu2_factor_jacobi``, and as
    ``_factor_2f1``'s fallback where the series' lower parameter is a
    non-positive integer.
    """
    t = _side_tangent(x, L, rotation)
    acc = 0.0
    for p, _, coeff in _angular_row(L, A, rotation)[(K + L) // 2]:
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
    prefactor is the j = 0 coefficient of the side's cached ``_angular_row``
    table of K.
    Only the rotation side carries the phase i^(a - k).
    """
    ak = (A - K) // 2
    if ak < 0:
        return _unfolded(L, A, K, x, rotation)
    prefactor = _angular_row(L, A, rotation)[(K + L) // 2][0][2]
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
    """(coefficients, odd powers) of every ``_angular_row`` table of weight L.

    Each is shaped (terms, L + 1 projections, L + 1 K), both ascending; shorter
    tables are padded at the end with coefficient 0 and power 0.
    """
    tables = [table for A in range(-L, L + 1, 2)
              for table in _angular_row(L, A, alternating)]
    lengths = np.array([len(table) for table in tables]).reshape(L + 1, L + 1)
    # Each table fills the start of its (projection, K) line, in order.
    filled = np.arange(lengths.max()) < lengths[..., None]
    coefficients, powers = np.zeros(filled.shape), np.zeros(filled.shape, int)
    coefficients[filled] = [c for table in tables for _, _, c in table]
    powers[filled] = [p for table in tables for p, _, _ in table]
    coefficients, powers = (coefficients.transpose(2, 0, 1),
                            powers.transpose(2, 0, 1))
    coefficients.flags.writeable = powers.flags.writeable = False  # cached
    return coefficients, powers


@lru_cache(maxsize=None)
def _series_block(L: int) -> np.ndarray:
    """``terminating_2f1``'s term ratios for every (a, K) of weight L.

    Shaped (L, L + 1 projections, L + 1 K); 0 past each series' order and
    where a < k, whose lower parameter reaches a pole (the tangent fallback).
    Each ratio is (upper + j) (lower + j) / ((c + j) (j + 1)) as the scalar
    series forms it: exact half-integer and integer operands, so one rounded
    product and one rounded division give the same bits.
    """
    j = np.arange(L)[:, None, None]
    A, K = np.arange(-L, L + 1, 2)[:, None], np.arange(-L, L + 1, 2)
    order = np.where(A >= K, np.minimum((L - A) // 2, (L + K) // 2), 0)
    ratios = np.divide((((A - L) / 2 + j) * (-(L + K) / 2 + j)),
                       ((A - K) // 2 + 1 + j) * (j + 1),
                       out=np.zeros((L, L + 1, L + 1)), where=j < order)
    ratios.flags.writeable = False  # cached
    return ratios


class _Side:
    """One side of the summand at weight L over a run of angles, for the
    projection rows asked for (row a is projection 2a - L).

    Each route's block form is built on first use, a real array shaped
    (len(rows), L + 1 K, angles) that adds the table entries to every point
    in the scalar order; the forms share one set of power tables and the
    tangent block.  ``plain`` picks the angles of the tangent and
    hypergeometric forms; the folded form spans them all.
    """

    def __init__(self, L: int, rotation: bool, rows, angles,
                 plain: slice = slice(None)):
        self.L, self.rotation, self.rows = L, rotation, rows
        self.angles, self.plain = angles, plain
        self.coefficients, self.powers = _side_block(L, rotation)

    @cached_property
    def _power_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """odd(x/2)**p and even(x/2)**p over every angle, p = 0..L."""
        odd, even = ((math.sin, math.cos) if self.rotation
                     else (math.sinh, math.cosh))
        return (_powers([odd(x / 2) for x in self.angles], self.L),
                _powers([even(x / 2) for x in self.angles], self.L))

    @cached_property
    def _tangents(self) -> list[float]:
        return [_side_tangent(x, self.L, self.rotation)
                for x in self.angles[self.plain]]

    @cached_property
    def folded(self) -> np.ndarray:
        """z_sum's side: sum coeff * odd^p * even^(L - p), from +0.0."""
        L, rows = self.L, self.rows
        odd_pow, even_pow = self._power_tables
        total = np.zeros((len(rows), L + 1, len(self.angles)))
        for c, p in zip(self.coefficients[:, rows], self.powers[:, rows]):
            total += (c[..., None] * odd_pow[p]) * even_pow[L - p]
        return total

    @cached_property
    def tangent(self) -> np.ndarray:
        """The unfolded side even^L * sum coeff * tangent^p: su2_factor_p
        (less its phase) and qu2_factor_jacobi."""
        L, rows = self.L, self.rows
        tangent_pow = _powers(self._tangents, L)
        total = np.zeros((len(rows), L + 1, len(self._tangents)))
        for c, p in zip(self.coefficients[:, rows], self.powers[:, rows]):
            total += c[..., None] * tangent_pow[p]
        # The power table's row L is even(x/2) ** L.
        return self._power_tables[1][L, self.plain] * total

    @cached_property
    def hypergeometric(self) -> np.ndarray:
        """z_2f1's side (less its phase): the leading term times the Gauss
        series, or the tangent form where a < k."""
        L, rows = self.L, self.rows
        sign = -1.0 if self.rotation else 1.0
        x = np.array([sign * t ** 2 for t in self._tangents])
        series = term = np.ones((len(rows), L + 1, len(x)))
        for ratio in _series_block(L)[:, rows]:
            term = term * (ratio[..., None] * x)
            series = series + term
        c, p = self.coefficients[0, rows, :, None], self.powers[0, rows]
        odd_pow, even_pow = (table[:, self.plain] for table in self._power_tables)
        return np.where(np.less.outer(rows, range(L + 1))[..., None],
                        self.tangent,
                        (c * odd_pow[p]) * even_pow[L - p] * series)


def _phased(L: int, rows, block: np.ndarray) -> np.ndarray:
    """A rotation-side block times its phases i^(a - k), exact."""
    return _PHASES[np.subtract.outer(rows, range(L + 1)) % 4][..., None] * block


def _k_sums(rotation: np.ndarray, rapidity: np.ndarray) -> np.ndarray:
    """sum_K rotation[m, K] * rapidity[n, K] for every (m, n) row pair.

    rotation is a phased block (m rows, K, thetas) and rapidity a real block
    (n rows, K, taus); the result is shaped (pairs, thetas, taus), the pairs
    in row-major order.  Per ascending K, one array operation adds the outer
    product of the (m, theta) and (n, tau) lines to every point's sum, which
    starts from 0j, so numpy's loops run along whole lines.
    """
    (m_rows, count, thetas), (n_rows, _, taus) = rotation.shape, rapidity.shape
    m_lines = rotation.transpose(1, 0, 2).reshape(count, -1)
    n_lines = rapidity.transpose(1, 0, 2).reshape(count, -1)
    total = np.zeros((m_rows * thetas, n_rows * taus), complex)
    for k in range(count):
        total += m_lines[k][:, None] * n_lines[k]
    return (total.reshape(m_rows, thetas, n_rows, taus).transpose(0, 2, 1, 3)
            .reshape(-1, thetas, taus))


#: Largest array, in entries, that one grid chunk builds: a side block or
#: the summed grid of its (m, n) pairs over the chunk's points, while one
#: angle of each axis fits.  Grids with longer axes are evaluated a chunk of
#: angles at a time, so memory stays bounded whatever the axis lengths.
#: Larger chunks outgrow the CPU caches: at 1 << 19, a 100000-angle table
#: at l = 20 took ~1.4x as long on a 2-core x86-64 VM.
_BLOCK_SIZE = 1 << 16


def _chunks(L: int, ms, ns, thetas, taus, lead: int = 0, trail: int = 0):
    """Weight L's grids over thetas x taus, a chunk of angles at a time.

    ms and ns are the ascending projection rows (row a is projection
    2a - L) of the rotation and rapidity sides.  The first ``lead`` thetas
    and the last ``trail`` taus are extra angles that only the folded form
    spans; they join the first theta chunk and the last tau chunk.  Chunks
    go tau outer, theta inner, each yielded as (i, j, summed): i and j are
    the chunk's first theta and tau past the extra angles, and summed(form)
    is ``_k_sums`` of the ``_Side`` form "folded" (z_sum), "tangent" (the
    factor halves) or "hypergeometric" (z_2f1) for every (m, n) pair over the
    chunk's points; call it before the next chunk.  One rapidity ``_Side``
    serves each run of taus and one rotation ``_Side`` each chunk, so the
    forms share their power tables and tangent block.  A chunk's side blocks
    and summed grids stay within ``_BLOCK_SIZE`` entries.
    """
    pairs = len(ms) * len(ns)
    tau_step = max(1, _BLOCK_SIZE // max(pairs, (L + 1) * len(ns)))
    theta_step = max(1, _BLOCK_SIZE // max(pairs * min(tau_step, len(taus)),
                                           (L + 1) * len(ms)))
    inner = len(taus) - trail
    for j in range(0, inner, tau_step):
        stop = j + tau_step if j + tau_step < inner else len(taus)
        rapidity = _Side(L, False, ns, taus[j:stop], slice(None, inner - j))
        for i in range(0, len(thetas) - lead, theta_step):
            rotation = _Side(L, True, ms,
                             thetas[lead + i if i else 0:lead + i + theta_step],
                             slice(0 if i else lead, None))

            def summed(form, rotation=rotation, rapidity=rapidity):
                return _k_sums(_phased(L, ms, getattr(rotation, form)),
                               getattr(rapidity, form))

            yield i, j, summed


def _grid_values(indices, thetas, taus) -> np.ndarray:
    """z_sum's sum_K (i^(m - k) * rotation) * rapidity over the theta x tau
    grid, from the folded ``_Side`` blocks.

    Shaped (len(indices), len(thetas), len(taus)).  Each weight's chunks
    (see ``_chunks``) sum every pair of the distinct rows of m and n that its
    indices use; each index takes its own pair.  z_sum's i^(m - k) *
    (rotation * rapidity) has the same bits, since the phase multiplies
    exactly and the sum from +0j turns every signed zero into +0.0.  The
    rapidity factor is real, so numpy rounds each component as Python does.
    Dotted indices are conjugated.
    """
    grids = np.empty((len(indices), len(thetas), len(taus)), complex)
    weights = {}
    for position, idx in enumerate(indices):
        L, M, N = idx.doubled
        weights.setdefault(L, []).append(
            (position, (M + L) // 2, (N + L) // 2, idx.dotted))
    for L, members in weights.items():
        ms = sorted({m for _, m, _, _ in members})
        ns = sorted({n for _, _, n, _ in members})
        slots = [(position, ms.index(m) * len(ns) + ns.index(n), dotted)
                 for position, m, n, dotted in members]
        for i, j, summed in _chunks(L, ms, ns, thetas, taus):
            total = summed("folded")
            _, rows, columns = total.shape
            for position, pair, dotted in slots:
                value = total[pair]
                grids[position, i:i + rows, j:j + columns] = (
                    value.conj() if dotted else value)
    return grids


def z_sum_grid(indices, thetas, taus) -> np.ndarray:
    """z_sum(idx, theta, tau) for each index over the theta x tau grid.

    Returns a complex128 array shaped (len(indices), len(thetas), len(taus)),
    each value bit-identical to z_sum at its point.  Each side of the summand
    is one block per weight.  On a domain error it raises the error that
    z_sum meets first in a loop over indices, then thetas, then taus.
    """
    indices, thetas, taus = list(indices), list(thetas), list(taus)
    L = max((idx.doubled[0] for idx in indices), default=0)
    try:
        # Validated in place, so each axis is held in one list beyond the
        # caller's.  An entry that passes gives z_sum the same value and
        # error as the caller's, and the entries from a refused one on are
        # still the caller's, so the replay below meets the same first error.
        for position, theta in enumerate(thetas):
            thetas[position] = _validate_theta(theta)
        for position, tau in enumerate(taus):
            taus[position] = _validate_tau(tau, L)
        return _grid_values(indices, thetas, taus)
    except ValueError:
        for idx in indices:
            for theta in thetas:
                for tau in taus:
                    z_sum(idx, theta, tau)
        raise


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

    This entry point does not range-validate the six parameters: any finite
    angles are weighted as given.  Use ``generalized_m`` for validated input.
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
    L, M, N = idx.doubled  # the index and the angles validated when built
    return _element(L, M, N, idx.m, idx.n, angles.phi, angles.epsilon,
                    angles.theta, angles.tau, angles.chi, angles.vareps,
                    idx.dotted)


def associated_m(l: float, m: float, angles: ComplexEulerAngles) -> complex:
    """Associated function: the n = 0 specialization e^(-m(epsilon+i phi)) Z^l_m0."""
    return generalized_m_values(l, m, 0.0, angles.phi, angles.epsilon,
                                angles.theta, angles.tau, 0.0, 0.0)


def zonal_z(l: float, theta: float, tau: float) -> complex:
    """Zonal function Z^l_00(theta, tau)."""
    return z_sum(HarmonicIndex(l, 0.0, 0.0), theta, tau)
