"""Translation-sector photon: first-order wave equations and plane-wave modes.

PHYSICS SCOPE
    A complex 3-vector field psi is governed by a pair of first-order equations

        (i/c) d/dt psi - i (alpha . grad) psi = 0        (ME1)
        (i/c) d/dt psi + i (alpha . grad) psi = 0        (ME2)

    built from the spin matrices alpha_1..alpha_3 defined below (hbar = 1
    throughout; c is configurable, default 1).  The 6-component combination
    Psi = (psi; psi~) couples them through the block matrices Gamma_mu:

        [(i/c) d/dt Gamma_0 - i Gamma_j d/dx_j] Psi = 0   (6x6 form, "ME6")

    whose upper three rows apply the ME2 operator to the lower block and whose
    lower rows apply the ME1 operator to the upper block; consequently a column
    (u; u*) solves the 6x6 system exactly when u solves ME1 (and then u*
    automatically solves ME2, since conj(alpha) = -alpha).

MEASURED SIGN CONVENTIONS (frozen by computation, asserted in tests)
    * The alpha matrices are minus the standard spin-1 generators:
      [alpha_i, alpha_j] = -i eps_ijk alpha_k (global commutator sign -1), and
      (alpha . grad) psi = -i curl psi.
    * The Hermitian "curl matrix" M(k) = -c (k . alpha) = i c [k x] has
      eigenvalues {+c|k|, -c|k|, 0}; the closed-form polarization vectors
      carry M eps_+ = +c|k| eps_+, M eps_- = -c|k| eps_-, M eps_0 = 0.
    * With omega = +c|k|, the mode eps_+ e^{i(k.x - wt)} therefore solves ME1
      and eps_- e^{i(k.x - wt)} solves ME2; conjugation swaps the two.
    * For w = E - iB the classical Maxwell system corresponds to ME2, so the
      field extraction E = Re(w), B = -Im(w) in ``PhotonPlaneWave.fields``
      uses each mode's ME2-solving member.

    Plane waves are represented exactly as lists of PlaneWaveTerm
    (amplitude, wavevector, frequency), and every operator acts on a term's
    amplitude alone: grad -> i k, d/dt -> -i omega, curl -> i k x, div -> i k.
    Each mode, a PhotonPlaneWave, builds its members: the 3-vector me1() and
    me2(), the column me6() = (u; u*) and the E and B term lists fields().
    Each residual takes every term's phase once, pairs the amplitudes with
    those phases and sums them in one accumulator, so all residuals are exact
    up to floating-point roundoff.
    The matrices are the read-only tuples ALPHA (alpha_1..alpha_3) and GAMMA
    (Gamma_0..Gamma_3).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ALPHA",
    "GAMMA",
    "WaveVector",
    "PolarizationTriple",
    "PhotonPlaneWave",
    "PlaneWaveTerm",
    "FieldPair",
    "commutator_sign",
    "curl_matrix",
    "eigenstructure",
    "polarization_vectors",
    "transversality_residual",
    "evaluate_terms",
    "dirac_form_residual",
    "dirac_form_scale",
    "maxwell_residuals",
    "maxwell_residuals_from_terms",
    "energy_density",
    "lagrangian_density_translation",
    "anti_equation_residual",
    "NORMALIZATION",
]

#: Plane-wave normalization {2 (2 pi)^3}^(-1/2).
NORMALIZATION = 1.0 / math.sqrt(2.0 * (2.0 * math.pi) ** 3)

#: Relative threshold at or below which the transverse polarization axis is
#: treated as degenerate (k1^2 + k2^2 <= DEGENERACY_THRESHOLD * |k|^2): only
#: where k1^2 + k2^2 is negligible at float precision, so the closed form is
#: used wherever it is accurate.
DEGENERACY_THRESHOLD = 1e-300

#: Smallest k1^2 + k2^2 + k3^2 taken as it is: from here up, the squares that
#: underflow are below the sum's rounding error.
_MIN_SQUARE = 2.0 ** -1000

#: Range of max |k_i| in which the polarization vectors are evaluated on k
#: itself: there |k|^4 and, on the closed-form branch, 2 |k|^2 (k1^2 + k2^2)
#: >= 2e-300 |k|^4 stay normal floats.  Outside it they are evaluated on
#: k / 2^e; not everywhere, for the reason given in ``WaveVector.magnitude``.
_DIRECT_MIN, _DIRECT_MAX = 2.0 ** -6, 2.0 ** 250

#: The spin matrices alpha_1..alpha_3 (read-only).
ALPHA = (
    np.array([[0, 0, 0], [0, 0, 1j], [0, -1j, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]], dtype=complex),
)

_ID3 = np.eye(3, dtype=complex)
#: The 6x6 block matrices Gamma_0..Gamma_3 built from them (read-only).
GAMMA = (
    np.block([[np.zeros((3, 3)), _ID3], [_ID3, np.zeros((3, 3))]]),
    *(np.block([[np.zeros((3, 3), dtype=complex), -alpha],
                [alpha, np.zeros((3, 3), dtype=complex)]])
      for alpha in ALPHA),
)

for _matrix in (*ALPHA, *GAMMA):
    _matrix.setflags(write=False)
_GAMMA_T = tuple(gamma.T for gamma in GAMMA)


def commutator_sign(generators=ALPHA, tolerance: float = 1e-14) -> int:
    """Global sign s in [g_i, g_j] = s i eps_ijk g_k, measured.

    The commutators must be proportional to the generators within tolerance
    and the three cyclic pairs must agree; otherwise AssertionError.  The
    measured value for the alpha matrices (the default) is -1: they are minus
    the standard spin-1 generators.
    """
    g = generators
    signs = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        commutator = g[i] @ g[j] - g[j] @ g[i]
        target = 1j * g[k]
        entry = np.argmax(np.abs(target))
        ratio = commutator.flat[entry] / target.flat[entry]
        if np.abs(commutator - ratio * target).max() > tolerance:
            raise AssertionError(
                "commutators are not proportional to the generators")
        signs.append(complex(ratio))
    if len({round(s.real) for s in signs}) != 1 or any(
            abs(s.imag) > tolerance for s in signs):
        raise AssertionError(f"inconsistent commutator signs: {signs}")
    return int(round(signs[0].real))


@dataclass(frozen=True)
class WaveVector:
    """Spatial wavevector (units: inverse length)."""

    k1: float
    k2: float
    k3: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def array(self) -> np.ndarray:
        return np.array([self.k1, self.k2, self.k3])

    @functools.cached_property
    def magnitude(self) -> float:
        """|k|, computed once; raises ValueError when it overflows a float."""
        try:
            square = self.k1**2 + self.k2**2 + self.k3**2
        except OverflowError:  # a component above ~1.3e154
            square = math.inf
        if _MIN_SQUARE <= square < math.inf:
            return math.sqrt(square)
        # Only here is k scaled: x**2 in libm does not commute bit for bit
        # with power-of-two scaling, so scaling everywhere would move |k|.
        k1, k2, k3, exponent = self._scaled_components()
        try:
            return math.ldexp(math.sqrt(k1**2 + k2**2 + k3**2), exponent)
        except OverflowError:
            raise ValueError(f"|k| of {self} overflows a float") from None

    @functools.cached_property
    def _polarizations(self) -> "PolarizationTriple":
        """polarization_vectors(self), computed once and read-only: every
        helicity of this wavevector shares the triple."""
        triple = polarization_vectors(self)
        for eps in (triple.eps_plus, triple.eps_minus, triple.eps_zero):
            eps.setflags(write=False)
        return triple

    def _scaled_components(self) -> tuple[float, float, float, int]:
        """(k1, k2, k3) / 2^e and e, with max |k_i| / 2^e in [0.5, 1).

        Dividing by a power of two is exact, and it keeps squares and fourth
        powers of the components inside the float range for every finite k.
        """
        exponent = math.frexp(max(abs(self.k1), abs(self.k2), abs(self.k3)))[1]
        return (math.ldexp(self.k1, -exponent), math.ldexp(self.k2, -exponent),
                math.ldexp(self.k3, -exponent), exponent)


def _as_wavevector(k) -> WaveVector:
    if isinstance(k, WaveVector):
        return k
    k1, k2, k3 = (float(component) for component in k)
    return WaveVector(k1, k2, k3)


def _check_helicity(lam: int) -> int:
    if lam not in (-1, 0, 1):
        raise ValueError(f"helicity label must be +1, 0, or -1, got {lam!r}")
    return int(lam)


def _check_c(c: float) -> float:
    c = float(c)
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be a positive finite constant, got {c!r}")
    if not math.isfinite(1.0 / c):  # c below ~5.56e-309
        raise ValueError(f"c must have a finite reciprocal 1/c, got {c!r}")
    return c


def _norm(x) -> np.float64:
    """np.linalg.norm of a vector, by the arithmetic numpy uses for it but
    without its per-call dispatch: sqrt(x . x), or sqrt(Re x . Re x +
    Im x . Im x) for complex x.  x may also be the empty sum, a Python 0j."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        real, imag = x.real, x.imag
        return np.sqrt(real.dot(real) + imag.dot(imag))
    return np.sqrt(x.dot(x))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross(a, b) of a real 3-vector a and a real or complex 3-vector b:
    the same products and differences, taken on numpy scalars.

    numpy scalars, not Python numbers: from CPython 3.14 a Python float times
    a Python complex no longer promotes the float to complex first, so its
    signed zeros could differ from np.cross's.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _check_frequency(kv: WaveVector, c: float) -> None:
    """ValueError where c |k|, the curl matrix's largest eigenvalue,
    overflows a float."""
    norm = kv.magnitude
    if math.isinf(c * norm):
        raise ValueError(f"c |k| overflows a float: c={c!r}, |k|={norm!r}")


def _curl_matrices(ks: np.ndarray, c: float) -> np.ndarray:
    """-c (k . alpha) for each row of an (n, 3) stack of checked wavevectors:
    per row the same elementwise products as for one k."""
    return -c * (ks[:, 0, None, None] * ALPHA[0] + ks[:, 1, None, None] * ALPHA[1]
                 + ks[:, 2, None, None] * ALPHA[2])


def curl_matrix(k, c: float = 1.0) -> np.ndarray:
    """The Hermitian matrix M(k) = -c (k . alpha) = i c [k x].

    Acting on an amplitude a, M a = i c k x a, so the plane-wave eigenproblem
    of the first-order equations is M eps = omega eps.  ValueError where
    c |k| overflows a float.
    """
    kv = _as_wavevector(k)
    c = _check_c(c)
    _check_frequency(kv, c)
    return _curl_matrices(kv.array[np.newaxis], c)[0]


def eigenstructure(k, c: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the curl matrix, eigenvalues ascending.

    The Hermitian solver's pair: eigenvalues [-c|k|, 0, +c|k|] and the
    matching eigenvectors as columns.  k may also be an (n, 3) stack of
    wavevectors or a list of WaveVectors: then the values are (n, 3) and the
    vectors (n, 3, 3), row i the pair of k[i], each checked as a single k is.
    """
    stacked = ((isinstance(k, list) and bool(k)
                and isinstance(k[0], WaveVector)) or np.ndim(k) == 2)
    kvs = [_as_wavevector(row) for row in (k if stacked else [k])]
    if any(kv.magnitude == 0.0 for kv in kvs):
        raise ValueError("wavevector must be non-zero for the eigenproblem")
    c = _check_c(c)
    for kv in kvs:
        _check_frequency(kv, c)
    matrices = _curl_matrices(np.array([kv.array for kv in kvs]).reshape(-1, 3), c)
    values, vectors = np.linalg.eigh(matrices if stacked else matrices[0])
    return values, vectors


@dataclass(frozen=True)
class PolarizationTriple:
    """Unit polarization vectors: transverse eps_+, eps_-, longitudinal eps_0."""

    eps_plus: np.ndarray
    eps_minus: np.ndarray
    eps_zero: np.ndarray

    def select(self, lam: int) -> np.ndarray:
        lam = _check_helicity(lam)
        return {1: self.eps_plus, 0: self.eps_zero, -1: self.eps_minus}[lam]


def polarization_vectors(k) -> PolarizationTriple:
    """Closed-form polarization vectors for wavevector k.

    eps_pm = (-k1 k3 +- i k2 |k|, -k2 k3 -+ i k1 |k|, k1^2 + k2^2)
             / sqrt(2 |k|^2 (k1^2 + k2^2)),   eps_0 = k / |k|.

    When k1^2 + k2^2 <= 1e-300 |k|^2 the transverse denominators degenerate and
    the continuous limit along k2 = 0, k1 -> 0+ is used instead:
    eps_pm = (-1, -+ i sign(k3), 0)/sqrt(2), eps_0 = (0, 0, sign(k3)).
    The vectors satisfy M eps_lam = lam c |k| eps_lam for the curl matrix M.
    """
    kv = _as_wavevector(k)
    k1, k2, k3 = kv.k1, kv.k2, kv.k3
    if not _DIRECT_MIN <= max(abs(k1), abs(k2), abs(k3)) <= _DIRECT_MAX:
        # The vectors are homogeneous of degree 0 in k: use k / 2^e instead.
        k1, k2, k3, _ = kv._scaled_components()
    norm = math.sqrt(k1**2 + k2**2 + k3**2)
    if norm == 0.0:
        raise ValueError("wavevector must be non-zero to define polarizations")
    perp_sq = k1 * k1 + k2 * k2
    if perp_sq <= DEGENERACY_THRESHOLD * norm * norm:
        sign3 = 1.0 if k3 > 0 else -1.0
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        eps_plus = np.array([-1.0, -1j * sign3, 0.0]) * inv_sqrt2
        eps_minus = np.array([-1.0, +1j * sign3, 0.0]) * inv_sqrt2
        eps_zero = np.array([0.0, 0.0, sign3], dtype=complex)
        return PolarizationTriple(eps_plus, eps_minus, eps_zero)
    denominator = math.sqrt(2.0 * norm * norm * perp_sq)
    eps_plus = np.array([
        complex(-k1 * k3, k2 * norm),
        complex(-k2 * k3, -k1 * norm),
        complex(perp_sq, 0.0),
    ]) / denominator
    eps_minus = np.array([
        complex(-k1 * k3, -k2 * norm),
        complex(-k2 * k3, k1 * norm),
        complex(perp_sq, 0.0),
    ]) / denominator
    eps_zero = np.array([k1, k2, k3], dtype=complex) / norm
    return PolarizationTriple(eps_plus, eps_minus, eps_zero)


def transversality_residual(k, lam: int) -> float:
    """|k . eps_lam|: zero for the transverse modes, |k| for the longitudinal."""
    kv = _as_wavevector(k)
    return float(abs(kv.array.dot(kv._polarizations.select(lam))))


@dataclass(frozen=True)
class PlaneWaveTerm:
    """One exact exponential term: amplitude * exp[i (k.x - omega t)].

    Derivatives act algebraically: grad -> i k, d/dt -> -i omega.
    """

    amplitude: np.ndarray
    kvec: np.ndarray
    omega: float

    def __post_init__(self) -> None:
        amplitude = np.asarray(self.amplitude, dtype=complex)
        kvec = np.asarray(self.kvec, dtype=float)
        if kvec.shape != (3,):
            raise ValueError("kvec must be a 3-vector")
        omega = float(self.omega)
        # Python's isfinite per element: on a few elements it is cheaper
        # than numpy's.
        if not all(map(cmath.isfinite, amplitude.ravel().tolist())):
            raise ValueError(f"amplitude must be finite, got {amplitude!r}")
        components = kvec.tolist()
        if not all(map(math.isfinite, components)):
            raise ValueError(f"kvec must be finite, got {kvec!r}")
        if not math.isfinite(omega):
            raise ValueError(f"omega must be finite, got {omega!r}")
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "kvec", kvec)
        object.__setattr__(self, "omega", omega)
        # Not a field: up to this |x_1| + |x_2| + |x_3|, every k_i x_i and
        # their sum stay finite, so phase takes k.x without an errstate.
        object.__setattr__(self, "_x_bound", sys.float_info.max / max(
            4.0 * max(map(abs, components)), 1.0))

    def phase(self, x, t: float) -> complex:
        """exp[i (k.x - omega t)]; ValueError where k.x - omega t is not finite."""
        point = np.asarray(x, dtype=float)
        x1, x2, x3 = point.tolist()
        shift = self.omega * float(t)  # Python floats: inf or nan, no warning
        if abs(x1) + abs(x2) + abs(x3) <= self._x_bound:
            angle = self.kvec.dot(point) - shift
        else:  # a huge or non-finite x, where k.x may overflow
            with np.errstate(over="ignore", invalid="ignore"):
                angle = self.kvec.dot(point) - shift
        if not math.isfinite(angle):
            raise ValueError(f"phase k.x - omega t is not finite at x={x!r}, t={t!r}")
        return cmath.exp(1j * float(angle))

    def conjugate(self) -> "PlaneWaveTerm":
        """Term representing the complex conjugate of this term's value."""
        return PlaneWaveTerm(self.amplitude.conjugate(), -self.kvec, -self.omega)


def _phases(terms: Sequence[PlaneWaveTerm], x, t: float) -> list[complex]:
    """Each term's phase at (x, t), taken once for every sum that reads it."""
    return [term.phase(x, t) for term in terms]


def _sum_at(amplitudes: Iterable[np.ndarray], phases: Sequence[complex]):
    """Sum of amplitude * phase over matching pairs, from 0j in order: every
    sum of plane waves in this module goes through here."""
    total = 0j
    for amplitude, phase in zip(amplitudes, phases):
        total = total + amplitude * phase
    return total


def _within_float(value: float, what: str, names: str) -> float:
    """value, or ValueError where it is not finite: PlaneWaveTerm holds only
    finite numbers, so the operator arithmetic on ``names`` overflowed."""
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows a float: the amplitudes, k or "
                         f"omega / c of {names} are too large")
    return value


def _checked(terms: Iterable[PlaneWaveTerm], size: int,
             label: str) -> list[PlaneWaveTerm]:
    terms = list(terms)
    if any(term.amplitude.shape != (size,) for term in terms):
        raise ValueError(f"{label} needs {size}-component terms")
    return terms


def evaluate_terms(terms: Iterable[PlaneWaveTerm], x, t: float):
    """Sum of amplitude * phase over the terms at (x, t); 0j for no terms."""
    terms = list(terms)
    return _sum_at([term.amplitude for term in terms], _phases(terms, x, t))


@dataclass(frozen=True)
class FieldPair:
    """Field strengths extracted from a 6-component value.

    The upper and lower 3-blocks of a 6-component value are read as E - iB and
    E + iB respectively, so E = (upper + lower)/2 and B = i (upper - lower)/2.
    For conjugate-paired columns (lower = conj(upper)) both are real; the
    arrays are kept complex so the extraction round-trips any value.
    """

    E: np.ndarray
    B: np.ndarray

    @classmethod
    def from_value(cls, psi6) -> "FieldPair":
        psi6 = np.asarray(psi6, dtype=complex)
        if psi6.shape != (6,):
            raise ValueError("expected a 6-component value")
        upper, lower = psi6[:3], psi6[3:]
        return cls((upper + lower) / 2, 1j * (upper - lower) / 2)


@dataclass(frozen=True)
class PhotonPlaneWave:
    """Displayed 6-component plane-wave column for helicity lam.

    value(x, t) = N (eps_lam; eps_lam) exp[i(k.x - omega t)] with
    N = {2 (2 pi)^3}^(-1/2), omega = c|k| for lam = +-1; the longitudinal
    mode carries no time dependence (omega = 0).  ``term`` holds that column,
    built once; its arrays are read-only because every caller shares them.
    """

    k: WaveVector
    lam: int
    c: float = 1.0
    term: PlaneWaveTerm = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = _as_wavevector(self.k)
        lam = _check_helicity(self.lam)
        c = _check_c(self.c)
        norm = k.magnitude
        if norm == 0.0:
            raise ValueError("wavevector must be non-zero")
        eps = k._polarizations.select(lam)
        amplitude, kvec = NORMALIZATION * np.concatenate([eps, eps]), k.array
        amplitude.setflags(write=False)
        kvec.setflags(write=False)
        if lam:  # the longitudinal mode is static: omega = 0
            _check_frequency(k, c)
        term = PlaneWaveTerm(amplitude, kvec, c * norm if lam else 0.0)
        for name, value in (("k", k), ("lam", lam), ("c", c), ("term", term)):
            object.__setattr__(self, name, value)

    @property
    def omega(self) -> float:
        return self.term.omega

    def value(self, x, t: float) -> np.ndarray:
        return self.term.amplitude * self.term.phase(x, t)

    @functools.cached_property
    def _me1(self) -> PlaneWaveTerm:
        """me1()'s term, built on first use and kept: me2(), me6() and
        fields() all start from it.  Its arrays are read-only, as term's."""
        term = self.term
        direct = PlaneWaveTerm(term.amplitude[:3], term.kvec, term.omega)
        if self.lam == -1:
            direct = direct.conjugate()
        direct.amplitude.setflags(write=False)
        direct.kvec.setflags(write=False)
        return direct

    def me1(self) -> list[PlaneWaveTerm]:
        """The 3-vector member that solves ME1: the upper block of ``term``,
        conjugated for lam = -1 (whose eps_- e^{i(k.x - wt)} solves ME2)."""
        return [self._me1]

    def me2(self) -> list[PlaneWaveTerm]:
        """The 3-vector member that solves ME2, the E - iB carrier: the ME1
        member conjugated (conj(alpha) = -alpha swaps the two equations)."""
        return [self._me1.conjugate()]

    def me6(self) -> list[PlaneWaveTerm]:
        """The column (u; u*) of the ME1 member u, which solves ME6: its upper
        rows (the ME2 operator) and lower rows (the ME1 operator) vanish."""
        u = self._me1
        conj = u.conjugate()
        return [PlaneWaveTerm(np.concatenate([u.amplitude, np.zeros(3)]),
                              u.kvec, u.omega),
                PlaneWaveTerm(np.concatenate([np.zeros(3), conj.amplitude]),
                              conj.kvec, conj.omega)]

    def fields(self) -> tuple[list[PlaneWaveTerm], list[PlaneWaveTerm]]:
        """Exact (E, B) term lists: E = Re(w) and B = -Im(w) of the ME2 member
        w, as conjugate-paired terms, so both fields are real-valued."""
        [w] = self.me2()
        carriers = (w, w.conjugate())
        e_terms = [PlaneWaveTerm(0.5 * term.amplitude, term.kvec, term.omega)
                   for term in carriers]
        b_terms = [PlaneWaveTerm(factor * term.amplitude, term.kvec, term.omega)
                   for factor, term in zip((0.5j, -0.5j), carriers)]
        return e_terms, b_terms


def _me3_operator(term: PlaneWaveTerm, spatial_sign: float, c: float) -> np.ndarray:
    """(i/c) d/dt + spatial_sign * i (alpha . grad) applied to one 3-vector term."""
    kdota = (term.kvec[0] * ALPHA[0] + term.kvec[1] * ALPHA[1]
             + term.kvec[2] * ALPHA[2])
    return (term.omega / c) * term.amplitude + spatial_sign * (
        -kdota.dot(term.amplitude))


def _me6_operator(amplitude: np.ndarray, term: PlaneWaveTerm, c: float,
                  gammas=GAMMA) -> np.ndarray:
    """[(i/c) d/dt Gamma_0 - i Gamma_j d/dx_j] applied to one 6-vector term,
    as (omega/c) gammas[0] a + k_j gammas[j] a on its amplitude a."""
    result = (term.omega / c) * gammas[0].dot(amplitude)
    for j in range(3):
        result = result + term.kvec[j] * gammas[j + 1].dot(amplitude)
    return result


def dirac_form_residual(terms: Sequence[PlaneWaveTerm], equation: str,
                        x=(0.0, 0.0, 0.0), t: float = 0.0,
                        c: float = 1.0) -> float:
    """Euclidean norm of the chosen first-order operator applied to the wave.

    equation: "ME1" ((i/c)d/dt - i alpha.grad on 3-vectors), "ME2" (the +alpha
    variant), or "ME6" (the 6x6 block form).  Derivatives are exact per term;
    the residual is evaluated at the given spacetime point.  ValueError
    where it overflows a float.
    """
    c = _check_c(c)
    equation = equation.upper()
    if equation not in ("ME1", "ME2", "ME6"):
        raise ValueError(f"equation must be ME1, ME2, or ME6, got {equation!r}")
    terms = _checked(terms, 6 if equation == "ME6" else 3,
                     f"{equation} residual")
    with np.errstate(over="ignore", invalid="ignore"):
        if equation == "ME6":
            amplitudes = [_me6_operator(term.amplitude, term, c)
                          for term in terms]
        else:
            sign = -1.0 if equation == "ME1" else 1.0
            amplitudes = [_me3_operator(term, sign, c) for term in terms]
        residual = float(_norm(_sum_at(amplitudes, _phases(terms, x, t))))
    return _within_float(residual, f"the {equation} residual", "terms")


def dirac_form_scale(terms: Sequence[PlaneWaveTerm], c: float = 1.0) -> float:
    """Natural magnitude of the operator terms: sum of |amp| (|w|/c + |k|).

    ValueError where it overflows a float.
    """
    c = _check_c(c)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(sum(
            _norm(term.amplitude) * (abs(term.omega) / c + _norm(term.kvec))
            for term in terms))
    return _within_float(scale, "the Dirac-form scale", "terms")


def _dt(term: PlaneWaveTerm) -> np.ndarray:
    return -1j * term.omega * term.amplitude


def maxwell_residuals_from_terms(e_terms: Sequence[PlaneWaveTerm],
                                 b_terms: Sequence[PlaneWaveTerm],
                                 x=(0.0, 0.0, 0.0), t: float = 0.0,
                                 c: float = 1.0) -> tuple[float, float, float, float]:
    """Residual magnitudes of the four classical field equations.

    Returns (faraday, ampere, div_e, div_b) for
    curl E + (1/c) dB/dt, curl B - (1/c) dE/dt, div E, div B,
    with all derivatives exact per term (curl -> i k x a, div -> i k . a),
    evaluated at (x, t).  ValueError where one overflows a float.
    """
    c = _check_c(c)
    e_terms = _checked(e_terms, 3, "Maxwell residual")
    b_terms = _checked(b_terms, 3, "Maxwell residual")

    def curl(terms):
        return [1j * _cross(term.kvec, term.amplitude) for term in terms]

    def div(terms):
        return [np.array([1j * term.kvec.dot(term.amplitude)]) for term in terms]

    with np.errstate(over="ignore", invalid="ignore"):
        e_phases, b_phases = _phases(e_terms, x, t), _phases(b_terms, x, t)
        faraday = [*curl(e_terms), *((1 / c) * _dt(term) for term in b_terms)]
        ampere = [*curl(b_terms), *((-1 / c) * _dt(term) for term in e_terms)]
        residuals = tuple(float(_norm(_sum_at(amplitudes, phases)))
                          for amplitudes, phases in (
            (faraday, e_phases + b_phases), (ampere, b_phases + e_phases),
            (div(e_terms), e_phases), (div(b_terms), b_phases)))
    for residual in residuals:
        _within_float(residual, "a Maxwell residual", "e_terms and b_terms")
    return residuals


def maxwell_residuals(k, lam: int, x=(0.0, 0.0, 0.0), t: float = 0.0,
                      c: float = 1.0) -> tuple[float, float, float, float]:
    """Residuals of the four classical field equations for mode lam.

    Transverse modes (lam = +-1) satisfy all four equations to roundoff; the
    longitudinal mode satisfies the two curl equations trivially but fails both
    divergence equations at scale |k| (the transversality exclusion).
    """
    return maxwell_residuals_from_terms(*PhotonPlaneWave(k, lam, c).fields(),
                                        x, t, c)


def _energy_identity(psi6) -> tuple[float, float]:
    """psi^dagger psi and its dual 2 (|E|^2 + |B|^2), E and B from FieldPair."""
    psi6 = np.asarray(psi6, dtype=complex)
    pair = FieldPair.from_value(psi6)  # refuses a value that is not 6-component
    direct = float(np.real(psi6.conjugate().dot(psi6)))
    dual = 2.0 * float(_norm(pair.E) ** 2 + _norm(pair.B) ** 2)
    return direct, dual


def energy_density(psi6) -> float:
    """psi-bar Gamma_0 psi = psi^dagger psi, cross-checked against the fields.

    Verifies the algebraic identity psi^dagger psi = 2 (|E|^2 + |B|^2) with
    E, B from FieldPair (Hermitian squared norms) before returning the value.
    ValueError where psi6 is not finite or either side overflows a float.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        direct, dual = _energy_identity(psi6)
    if not (math.isfinite(direct) and math.isfinite(dual)):
        raise ValueError("psi6 must be finite, with psi^dagger psi within "
                         f"the float range; got psi^dagger psi = {direct!r}")
    if abs(direct - dual) > 1e-12 * max(1.0, abs(direct)):
        raise ArithmeticError(
            f"energy dual-formula identity violated: {direct!r} vs {dual!r}")
    return direct


def lagrangian_density_translation(terms: Sequence[PlaneWaveTerm],
                                   x=(0.0, 0.0, 0.0), t: float = 0.0,
                                   c: float = 1.0) -> complex:
    """Antisymmetrized first-order Lagrangian density of a 6-component wave.

    L = -(1/2) [ (1/c) psi-bar Gamma_0 dpsi/dt - psi-bar Gamma_j dpsi/dx_j
                 - (1/c) dpsi-bar/dt Gamma_0 psi + dpsi-bar/dx_j Gamma_j psi ]

    with psi-bar = psi^dagger Gamma_0.  Vanishes identically on solutions of
    the 6x6 first-order system (both brackets vanish separately on-shell).
    No terms is the zero wave, whose density is 0j.  ValueError where the
    density overflows a float.
    """
    c = _check_c(c)
    terms = _checked(terms, 6, "Lagrangian density")
    if not terms:
        return 0j
    phases = _phases(terms, x, t)
    with np.errstate(over="ignore", invalid="ignore"):
        psi = _sum_at([term.amplitude for term in terms], phases)
        dpsi_t = _sum_at([_dt(term) for term in terms], phases)
        dpsi = [_sum_at([1j * term.kvec[j] * term.amplitude for term in terms],
                        phases) for j in range(3)]
        psi_bar = psi.conjugate().dot(GAMMA[0])
        psi_bar_t = dpsi_t.conjugate().dot(GAMMA[0])
        psi_bar_j = [d.conjugate().dot(GAMMA[0]) for d in dpsi]
        forward = psi_bar.dot(GAMMA[0]).dot(dpsi_t) / c
        backward = psi_bar_t.dot(GAMMA[0]).dot(psi) / c
        for j in range(3):
            forward = forward - psi_bar.dot(GAMMA[j + 1]).dot(dpsi[j])
            backward = backward - psi_bar_j[j].dot(GAMMA[j + 1]).dot(psi)
        density = complex(-(forward - backward) / 2)
    if not cmath.isfinite(density):
        raise ValueError(
            f"Lagrangian density overflows a float at x={x!r}, t={t!r}")
    return density


def anti_equation_residual(terms: Sequence[PlaneWaveTerm],
                           x=(0.0, 0.0, 0.0), t: float = 0.0,
                           c: float = 1.0) -> float:
    """Residual of the conjugate-field equation on psi-bar built from psi.

    Applies (1/c) Gamma_0^T d/dt - Gamma_j^T d/dx_j to psi-bar^T = Gamma_0
    conj(psi) with exact per-term derivatives.  Algebraically this equals
    Gamma_0 times the conjugate of the direct 6x6 residual, so it vanishes
    on-shell; it is computed directly here so the identity is testable.
    ValueError where it overflows a float.
    """
    c = _check_c(c)
    conjugates = [term.conjugate()
                  for term in _checked(terms, 6, "conjugate-field residual")]
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(_norm(_sum_at(
            [_me6_operator(GAMMA[0].dot(conj.amplitude), conj, c, _GAMMA_T)
             for conj in conjugates], _phases(conjugates, x, t))))
    return _within_float(residual, "the conjugate-field residual", "terms")
