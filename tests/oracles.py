"""Independent reference implementations used only by the test suite.

Everything in here is deliberately written against different libraries and in a
different style from the package under test:

* ``z_reference`` evaluates the hyperspherical double sum directly with mpmath at
  40 significant digits, keeping the raw tangent/hyperbolic-tangent powers instead
  of the package's folded sine/cosine form and exact coefficient tables.
* ``wigner_d`` is the textbook factorial formula for the SU(2) small-d matrix.
* ``brute_2f1`` sums the terminating Gauss series with exact rational coefficients.
* ``angular_terms_reference`` builds one coefficient table of the Z summand a
  term at a time, each square-root factorial ratio from its own factorials and
  an exact ``Fraction`` where the product is a perfect square;
  ``side_block_reference`` pads those tables into one array block per weight
  and side, and ``series_block_reference`` rounds each Gauss-series term ratio
  once from an exact rational.  The package must reproduce all three bit for
  bit.
* ``angles_to_sl2c`` and ``sl2c_to_complex_rotation`` realize the 2-to-1
  covering map SL(2,C) -> complex rotations by conjugation on the Pauli-matrix
  expansion of a complex triple z: R_ij(g) = tr(sigma_i g sigma_j g^-1)/2,
  complex-orthogonal (R^T R = 1 over C) and preserving z.z.  They read only
  the complex angles of the angle object they are given, and they hold only
  at moderate boosts: cosh(tau / 2) overflows past |tau| ~ 1420, and the
  entries of R grow as e^|tau|, so R^T R - 1 has lost every digit by tau = 40.

None of these import the package.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

_I_POW = (1, 1j, -1, -1j)  # i**n for n mod 4


def _doubled(value: float) -> int:
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-12:
        raise ValueError(f"not a half-integer: {value!r}")
    return int(doubled)


def z_reference(l: float, m: float, n: float, theta: float, tau: float,
                dps: int = 40) -> complex:
    """High-precision direct evaluation of the hyperspherical function.

    Requires 0 <= theta < pi (the raw tangent form is singular at pi).
    """
    L, M, N = _doubled(l), _doubled(m), _doubled(n)
    with mp.workdps(dps):
        th = mp.mpf(theta) / 2
        ta = mp.mpf(tau) / 2
        t, c = mp.tan(th), mp.cos(th)
        u, b = mp.tanh(ta), mp.cosh(ta)
        total = mp.mpc(0)
        for K in range(-L, L + 1, 2):
            lm, lpm = (L - M) // 2, (L + M) // 2
            ln_, lpn = (L - N) // 2, (L + N) // 2
            lk, lpk = (L - K) // 2, (L + K) // 2
            mk, nk = (M - K) // 2, (N - K) // 2
            theta_sum = mp.mpf(0)
            for j in range(max(0, -mk), min(lm, lpk) + 1):
                num = (-1) ** j * mp.power(t, mk + 2 * j)
                den = (mp.factorial(j) * mp.factorial(lm - j)
                       * mp.factorial(lpk - j) * mp.factorial(mk + j))
                theta_sum += num / den
            theta_part = (mp.sqrt(mp.factorial(lm) * mp.factorial(lpm)
                                  * mp.factorial(lk) * mp.factorial(lpk))
                          * mp.power(c, L) * theta_sum)
            tau_sum = mp.mpf(0)
            for s in range(max(0, -nk), min(ln_, lpk) + 1):
                num = mp.power(u, nk + 2 * s)
                den = (mp.factorial(s) * mp.factorial(ln_ - s)
                       * mp.factorial(lpk - s) * mp.factorial(nk + s))
                tau_sum += num / den
            tau_part = (mp.sqrt(mp.factorial(ln_) * mp.factorial(lpn)
                                * mp.factorial(lk) * mp.factorial(lpk))
                        * mp.power(b, L) * tau_sum)
            total += _I_POW[mk % 4] * theta_part * tau_part
        return complex(total)


def wigner_d(l: float, mp_: float, m: float, beta: float) -> float:
    """Textbook SU(2) small-d matrix element d^l_{mp_, m}(beta)."""
    L, MP, M = _doubled(l), _doubled(mp_), _doubled(m)
    jm = (L + M) // 2       # l + m
    jmp = (L + MP) // 2     # l + m'
    jmm = (L - M) // 2      # l - m
    jmmp = (L - MP) // 2    # l - m'
    dmm = (MP - M) // 2     # m' - m
    prefactor = math.sqrt(math.factorial(jm) * math.factorial(jmm)
                          * math.factorial(jmp) * math.factorial(jmmp))
    total = 0.0
    half = beta / 2
    for s in range(max(0, -dmm), min(jm, jmmp) + 1):
        denom = (math.factorial(jm - s) * math.factorial(s)
                 * math.factorial(dmm + s) * math.factorial(jmmp - s))
        sign = -1.0 if (dmm + s) % 2 else 1.0
        cos_pow = jm + jmmp - 2 * s
        sin_pow = dmm + 2 * s
        total += (sign * math.cos(half) ** cos_pow * math.sin(half) ** sin_pow
                  / denom)
    return prefactor * total


def brute_2f1(a: int, b: int, c: float, x: float) -> float:
    """Terminating Gauss hypergeometric sum with exact rational coefficients."""
    stops = [-v for v in (a, b) if v == int(v) and v <= 0]
    if not stops:
        raise ValueError("series does not terminate")
    order = int(min(stops))
    total = 0.0
    for k in range(order + 1):
        coeff = Fraction(1)
        for i in range(k):
            coeff *= Fraction((a + i) * (b + i), 1)
            coeff /= Fraction((c + i) * (i + 1))
        total += float(coeff) * x ** k
    return total


def _sqrt_ratio(L: int, A: int, K: int, denominator: int, sign: int) -> float:
    """sign * sqrt((l-a)! (l+a)! (l-k)! (l+k)!) / denominator at doubled indices:
    an exact rational rounded once where the product is a perfect square,
    otherwise one correctly-rounded sqrt divided by the denominator."""
    product = (math.factorial((L - A) // 2) * math.factorial((L + A) // 2)
               * math.factorial((L - K) // 2) * math.factorial((L + K) // 2))
    root = math.isqrt(product)
    if root * root == product:
        return sign * float(Fraction(root, denominator))
    return sign * math.sqrt(product) / denominator


def angular_terms_reference(L: int, A: int, K: int, alternating: bool
                            ) -> tuple[tuple[int, int, float], ...]:
    """(odd_power, even_power, coefficient) of each term of one half of the Z
    summand at doubled weight L, projection A and internal index K, with the
    (-1)^j sign of the rotation side when ``alternating``."""
    la, lpk, ak = (L - A) // 2, (L + K) // 2, (A - K) // 2
    terms = []
    for j in range(max(0, -ak), min(la, lpk) + 1):
        p = ak + 2 * j
        denominator = (math.factorial(j) * math.factorial(la - j)
                       * math.factorial(lpk - j) * math.factorial(ak + j))
        sign = -1 if (alternating and j % 2) else 1
        terms.append((p, L - p, _sqrt_ratio(L, A, K, denominator, sign)))
    return tuple(terms)


def side_block_reference(L: int, tables) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, odd powers) of the tables of weight L, listed row-major
    in (A, K): each shaped (terms, L + 1 projections, L + 1 K) and padded with
    coefficient 0 and power 0, as one array of padded triples, transposed."""
    width = max(map(len, tables))
    block = np.array([terms + ((0, L, 0.0),) * (width - len(terms))
                      for terms in tables]).T.reshape(3, width, L + 1, L + 1)
    return block[2], block[0].astype(int)


def series_block_reference(L: int) -> np.ndarray:
    """The term ratios (a + j)(b + j) / ((c + j)(j + 1)) of the Gauss series
    2F1(a - l, -l - k; a - k + 1; x) for every projection a and internal
    index k of weight L, shaped (L, L + 1, L + 1): each an exact rational
    rounded once, 0 past the series' order and where a < k."""
    ratios = np.zeros((L, L + 1, L + 1))
    for a, A in enumerate(range(-L, L + 1, 2)):
        for k, K in enumerate(range(-L, L + 1, 2)):
            if A < K:
                continue
            for j in range(min(L - A, L + K) // 2):
                ratios[j, a, k] = float(Fraction(
                    (A - L + 2 * j) * (-(L + K) + 2 * j),
                    4 * ((A - K) // 2 + 1 + j) * (j + 1)))
    return ratios


#: Pauli matrices sigma_1, sigma_2, sigma_3.
_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def angles_to_sl2c(angles) -> np.ndarray:
    """Unimodular complex 2x2 matrix g in the z-x-z convention.

    g = exp(-i*phi_c*s3/2) exp(-i*theta_c*s1/2) exp(-i*chi_c*s3/2); the boost
    content sits in the imaginary parts of the complex angles phi_c, theta_c
    and chi_c of ``angles``.
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
    R_ij = tr(sigma_i g sigma_j g^-1) / 2.
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
