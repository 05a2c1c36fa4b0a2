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
    Each residual is one numpy kernel over B rows of n terms, amplitudes (B, n,
    d), wavevectors (B, n, 3), frequencies (B, n) at points (B, 3) and (B,): a
    public residual reads row 0, and dirac_form_residual reads all four
    first-order forms (ME1, ME2, ME6 and the conjugate-field form ANTI) from
    one kernel.  All are exact up to floating-point roundoff.
    The matrices are the read-only tuples ALPHA (alpha_1..alpha_3) and GAMMA
    (Gamma_0..Gamma_3).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .group_kinematics import _finite

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
    "dirac_form_residual",
    "dirac_form_scale",
    "maxwell_residuals",
    "maxwell_residuals_from_terms",
    "energy_density",
    "lagrangian_density_translation",
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


def commutator_sign(generators=ALPHA, tolerance: float = 1e-14) -> int:
    """Global sign s in [g_i, g_j] = s i eps_ijk g_k, measured.

    The commutators must be proportional to the generators within tolerance
    and the three cyclic pairs must agree; otherwise AssertionError.  The
    measured value for the alpha matrices (the default) is -1: they are minus
    the standard spin-1 generators.
    """
    g = generators
    tolerance = _finite("tolerance", tolerance)
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
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
            object.__setattr__(self, name, _finite(name, getattr(self, name)))

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
    try:
        k1, k2, k3 = k
    except (TypeError, ValueError):  # not a sequence of three
        raise ValueError(f"k must have three components, got {k!r}") from None
    return WaveVector(k1, k2, k3)


def _check_helicity(lam: int) -> int:
    if lam not in (-1, 0, 1):
        raise ValueError(f"helicity lam must be +1, 0, or -1, got {lam!r}")
    return int(lam)


def _finite_array(name: str, values, kind) -> np.ndarray:
    """values as a new array of finite ``kind``, each entry through the gate,
    which names the first it refuses."""
    return np.array([_finite(name, value, kind)
                     for value in np.ravel(values).tolist()],
                    dtype=kind).reshape(np.shape(values))


def _check_c(c: float) -> float:
    c = _finite("c", c)
    if not c > 0:
        raise ValueError(f"c must be positive, got {c!r}")
    if not math.isfinite(1.0 / c):  # c below ~5.56e-309
        raise ValueError(f"c must have a finite reciprocal 1/c, got {c!r}")
    return c


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


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as they are:
    the package's builders, whose inputs are checked, skip __post_init__."""
    instance = object.__new__(cls)
    vars(instance).update(fields)
    return instance


@dataclass(frozen=True)
class PolarizationTriple:
    """Unit polarization vectors: transverse eps_+, eps_-, longitudinal eps_0,
    held as complex arrays; a caller's NaN or +-inf entry is a ValueError."""

    eps_plus: np.ndarray
    eps_minus: np.ndarray
    eps_zero: np.ndarray

    def __post_init__(self) -> None:
        for name in ("eps_plus", "eps_minus", "eps_zero"):
            object.__setattr__(self, name, _finite_array(
                name, getattr(self, name), complex))

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
        return _trusted(PolarizationTriple, eps_plus=eps_plus,
                        eps_minus=eps_minus, eps_zero=eps_zero)
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
    return _trusted(PolarizationTriple, eps_plus=eps_plus, eps_minus=eps_minus,
                    eps_zero=eps_zero)


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
        amplitude = _finite_array("amplitude", self.amplitude, complex)
        kvec = _finite_array("kvec", self.kvec, float)
        if kvec.shape != (3,):
            raise ValueError("kvec must be a 3-vector")
        vars(self).update(amplitude=amplitude, kvec=kvec,
                          omega=_finite("omega", self.omega))

    @functools.cached_property
    def _x_bound(self) -> float:
        """The |x_1| + |x_2| + |x_3| up to which phase's k.x stays finite."""
        return sys.float_info.max / max(4.0 * max(map(abs, self.kvec.tolist())), 1.0)

    def phase(self, x, t: float) -> complex:
        """exp[i (k.x - omega t)]; ValueError where k.x - omega t is not finite."""
        try:
            point = np.asarray(x, dtype=float)
            shift = self.omega * float(t)  # Python floats: inf or nan, no warning
        except OverflowError:  # an int past the float range: the gate names it
            point = _finite_array("x", x, float)
            shift = self.omega * _finite("t", t)
        x1, x2, x3 = point.tolist()
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
        return _trusted(PlaneWaveTerm, amplitude=self.amplitude.conjugate(),
                        kvec=-self.kvec, omega=-self.omega)

    def _carrying(self, amplitude: np.ndarray) -> "PlaneWaveTerm":
        """This term's k and omega with another finite amplitude, unchecked."""
        return _trusted(PlaneWaveTerm, amplitude=amplitude, kvec=self.kvec,
                        omega=self.omega)


@dataclass(frozen=True)
class FieldPair:
    """Field strengths extracted from a 6-component value.

    The upper and lower 3-blocks of a 6-component value are read as E - iB and
    E + iB respectively, so E = (upper + lower)/2 and B = i (upper - lower)/2.
    For conjugate-paired columns (lower = conj(upper)) both are real; the
    arrays are kept complex so the extraction round-trips any value; a
    caller's NaN or +-inf entry is a ValueError.
    """

    E: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        for name in ("E", "B"):
            object.__setattr__(self, name, _finite_array(
                name, getattr(self, name), complex))

    @classmethod
    def from_value(cls, psi6) -> "FieldPair":
        return _field_pair(_six(psi6))


def _six(psi6) -> np.ndarray:
    psi6 = _finite_array("psi6", psi6, complex)
    if psi6.shape != (6,):
        raise ValueError("expected a 6-component value")
    return psi6


def _field_pair(psi6: np.ndarray) -> FieldPair:
    """The FieldPair of finite (..., 6) values; halving first keeps it finite."""
    upper, lower = psi6[..., :3] / 2, psi6[..., 3:] / 2
    return _trusted(FieldPair, E=upper + lower, B=1j * (upper - lower))


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
        eps = k._polarizations.select(lam)  # refuses k = 0
        amplitude, kvec = NORMALIZATION * np.concatenate([eps, eps]), k.array
        amplitude.setflags(write=False)
        kvec.setflags(write=False)
        if lam:  # the longitudinal mode is static: omega = 0
            _check_frequency(k, c)
        term = _trusted(PlaneWaveTerm, amplitude=amplitude, kvec=kvec,
                        omega=c * norm if lam else 0.0)
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
        direct = term._carrying(term.amplitude[:3])
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
        return [u._carrying(np.concatenate([u.amplitude, np.zeros(3)])),
                conj._carrying(np.concatenate([np.zeros(3), conj.amplitude]))]

    def fields(self) -> tuple[list[PlaneWaveTerm], list[PlaneWaveTerm]]:
        """Exact (E, B) term lists: E = Re(w) and B = -Im(w) of the ME2 member
        w, as conjugate-paired terms, so both fields are real-valued."""
        [w] = self.me2()
        carriers = (w, w.conjugate())
        e_terms = [term._carrying(0.5 * term.amplitude) for term in carriers]
        b_terms = [term._carrying(factor * term.amplitude)
                   for factor, term in zip((0.5j, -0.5j), carriers)]
        return e_terms, b_terms


def _stack(term_lists, size: int, label: str):
    """The bundle of B lists of n terms of size components each."""
    rows = [list(terms) for terms in term_lists]
    if any(term.amplitude.shape != (size,) for terms in rows for term in terms):
        raise ValueError(f"{label} needs {size}-component terms")
    return tuple(
        np.array([[getattr(term, name) for term in terms] for terms in rows],
                 kind).reshape(len(rows), -1, *shape)
        for name, kind, shape in (("amplitude", complex, [size]),
                                  ("kvec", float, [3]), ("omega", float, [])))


def _point(x, t: float) -> tuple[np.ndarray, np.ndarray]:
    """A caller's (x, t) as the one-row points (1, 3) and times (1,)."""
    return _finite_array("x", x, float).reshape(1, 3), np.array([_finite("t", t)])


def _refuse_rows(values, what: str, points, times) -> None:
    """ValueError naming the point of the first row that is not finite."""
    if not np.isfinite(values).all():
        row = int(np.isfinite(values).reshape(len(values), -1).all(axis=1).argmin())
        raise ValueError(f"{what} at x={tuple(points[row].tolist())!r}, "
                         f"t={times[row].item()!r}")


def _superpose(values, kvecs, omegas, points, times) -> np.ndarray:
    """Sum over each row's terms of value * exp[i (k.x - omega t)]."""
    with np.errstate(over="ignore", invalid="ignore"):
        angles = ((kvecs * points[:, np.newaxis]).sum(axis=-1)
                  - omegas * times[:, np.newaxis])
        _refuse_rows(angles, "phase k.x - omega t is not finite", points, times)
        waves = np.exp(1j * angles).reshape(angles.shape + (1,) * (values.ndim - 2))
        return (values * waves).sum(axis=1)


def _squares(values) -> np.ndarray:
    """Squared Euclidean norm along the last axis, real or complex."""
    return (values * values.conj()).real.sum(axis=-1)


def _within_float(values, what: str, names: str = "terms") -> np.ndarray:
    """values, or ValueError where one overflowed: terms hold finite numbers."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} overflows a float: the amplitudes, k or "
                         f"omega / c of {names} are too large")
    return values


def _curl(kvecs, amplitudes) -> np.ndarray:
    """curl -> i k x a on every term's 3-component amplitude."""
    return 1j * (kvecs.take([1, 2, 0], -1) * amplitudes.take([2, 0, 1], -1)
                 - kvecs.take([2, 0, 1], -1) * amplitudes.take([1, 2, 0], -1))


def _dirac_residuals(bundle, points, times, c: float, equation: str) -> np.ndarray:
    """|operator on the wave| per row: ME1 / ME2 are (omega/c) a -+ i k x a,
    as -(k . alpha) a = i k x a; ME6 is ME2 on the lower block, ME1 on the
    upper; ANTI, the conjugate-field operator on psi-bar^T = Gamma_0 conj(psi),
    is ME6 on the conjugate terms, blocks swapped, as Gamma_mu^T = Gamma_mu."""
    amplitudes, kvecs, omegas = bundle
    if equation == "ANTI":
        amplitudes, kvecs, omegas = np.concatenate(  # Gamma_0 conj(a), -k, -w
            [amplitudes[..., 3:], amplitudes[..., :3]], -1).conj(), -kvecs, -omegas
    with np.errstate(over="ignore", invalid="ignore"):
        def operator(a, sign):
            return (omegas / c)[..., np.newaxis] * a + sign * _curl(kvecs, a)
        operated = (np.concatenate([operator(amplitudes[..., 3:], 1.0),
                                    operator(amplitudes[..., :3], -1.0)], axis=-1)
                    if equation in ("ME6", "ANTI") else
                    operator(amplitudes, -1.0 if equation == "ME1" else 1.0))
        squares = _squares(_superpose(operated, kvecs, omegas, points, times))
    return _within_float(np.sqrt(squares), "the conjugate-field residual"
                         if equation == "ANTI" else f"the {equation} residual")


def _dirac_scales(bundle, c: float) -> np.ndarray:
    """Sum of |amp| (|w|/c + |k|) over each row's terms."""
    amplitudes, kvecs, omegas = bundle
    with np.errstate(over="ignore", invalid="ignore"):
        scales = (np.sqrt(_squares(amplitudes))
                  * (np.abs(omegas) / c + np.sqrt(_squares(kvecs)))).sum(-1)
    return _within_float(scales, "the Dirac-form scale")


def _maxwell_residuals(e_bundle, b_bundle, points, times, c: float) -> list:
    """[faraday, ampere, div_e, div_b] per row, d/dt -> -i omega."""
    (e, e_k, e_omega), (b, b_k, b_omega) = e_bundle, b_bundle
    both = (np.concatenate([e_k, b_k], axis=1),
            np.concatenate([e_omega, b_omega], axis=1), points, times)
    with np.errstate(over="ignore", invalid="ignore"):
        e_dt, b_dt = (-1j * omega[..., np.newaxis] * a
                      for a, omega in ((e, e_omega), (b, b_omega)))
        parts = [
            _superpose(np.concatenate([_curl(e_k, e), b_dt / c], axis=1), *both),
            _superpose(np.concatenate([-e_dt / c, _curl(b_k, b)], axis=1), *both),
            *(_superpose(1j * (k * a).sum(axis=-1, keepdims=True), k, omega,
                         points, times)
              for a, k, omega in ((e, e_k, e_omega), (b, b_k, b_omega)))]
        parts = [np.sqrt(_squares(part)) for part in parts]
    return [_within_float(part, "a Maxwell residual", "e_terms and b_terms")
            for part in parts]


#: Gamma_0 Gamma_mu, as row blocks swapped (a matmul at import would start BLAS).
_GAMMA_BAR = np.array(GAMMA)[:, [3, 4, 5, 0, 1, 2]]


def _lagrangians(bundle, points, times, c: float) -> np.ndarray:
    """-[(F_0 / c - sum_j F_j) - (B_0 / c - sum_j B_j)] / 2 per row, with F_mu
    = psi-bar Gamma_mu d_mu psi, B_mu = d_mu psi-bar Gamma_mu psi, d -> -i w, i k."""
    amplitudes, kvecs, omegas = bundle
    factors = np.concatenate([-1j * omegas[..., np.newaxis], 1j * kvecs], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        psi, dpsi = (_superpose(values, kvecs, omegas, points, times) for values in (
            amplitudes, factors[..., np.newaxis] * amplitudes[..., np.newaxis, :]))
        forward, backward = (
            terms[:, 0] / c - terms[:, 1] - terms[:, 2] - terms[:, 3] for terms in (
                np.einsum("bp,mpq,bmq->bm", psi.conj(), _GAMMA_BAR, dpsi),
                np.einsum("bmp,mpq,bq->bm", dpsi.conj(), _GAMMA_BAR, psi)))
        densities = -(forward - backward) / 2
    _refuse_rows(densities, "Lagrangian density overflows a float", points, times)
    return densities


def _energy_identity(psi6) -> tuple[np.ndarray, np.ndarray]:
    """psi^dagger psi and 2 (|E|^2 + |B|^2) per row, E and B from FieldPair."""
    with np.errstate(over="ignore", invalid="ignore"):
        pair = _field_pair(psi6)
        return _squares(psi6), 2.0 * (_squares(pair.E) + _squares(pair.B))


def dirac_form_residual(terms: Sequence[PlaneWaveTerm], equation: str,
                        x=(0.0, 0.0, 0.0), t: float = 0.0,
                        c: float = 1.0) -> float:
    """Euclidean norm at (x, t) of the first-order operator on the wave:
    "ME1" ((i/c)d/dt - i alpha.grad on 3-vectors), "ME2" (+alpha), "ME6"
    (the 6x6 block form) or "ANTI", |(1/c) Gamma_0^T d/dt - Gamma_j^T d/dx_j|
    on psi-bar^T = Gamma_0 conj(psi), equal in size to ME6's as Gamma_mu^T =
    Gamma_mu.  ValueError where it overflows a float."""
    c = _check_c(c)
    equation = equation.upper()
    if equation not in ("ME1", "ME2", "ME6", "ANTI"):
        raise ValueError(
            f"equation must be ME1, ME2, ME6, or ANTI, got {equation!r}")
    bundle = _stack([terms], 3 if equation in ("ME1", "ME2") else 6,
                    "conjugate-field residual" if equation == "ANTI"
                    else f"{equation} residual")
    return float(_dirac_residuals(bundle, *_point(x, t), c, equation)[0])


def dirac_form_scale(terms: Sequence[PlaneWaveTerm], c: float = 1.0) -> float:
    """Sum of |amp| (|w|/c + |k|); ValueError where it overflows a float."""
    c, terms = _check_c(c), list(terms)
    size = terms[0].amplitude.size if terms else 3  # no terms: any fixed size
    return float(_dirac_scales(_stack([terms], size, "Dirac-form scale"), c)[0])


def maxwell_residuals_from_terms(e_terms: Sequence[PlaneWaveTerm],
                                 b_terms: Sequence[PlaneWaveTerm],
                                 x=(0.0, 0.0, 0.0), t: float = 0.0,
                                 c: float = 1.0) -> tuple[float, float, float, float]:
    """(faraday, ampere, div_e, div_b) at (x, t): the magnitudes of curl E +
    (1/c) dB/dt, curl B - (1/c) dE/dt, div E and div B, with curl -> i k x a
    and div -> i k . a.  ValueError where one overflows a float."""
    c = _check_c(c)
    bundles = [_stack([terms], 3, "Maxwell residual") for terms in (e_terms, b_terms)]
    return tuple(float(part[0])
                 for part in _maxwell_residuals(*bundles, *_point(x, t), c))


def maxwell_residuals(k, lam: int, x=(0.0, 0.0, 0.0), t: float = 0.0,
                      c: float = 1.0) -> tuple[float, float, float, float]:
    """The four Maxwell residuals of mode lam: roundoff for lam = +-1; the
    longitudinal mode fails both divergences at scale |k| (transversality)."""
    return maxwell_residuals_from_terms(*PhotonPlaneWave(k, lam, c).fields(),
                                        x, t, c)


def energy_density(psi6) -> float:
    """psi-bar Gamma_0 psi = psi^dagger psi, once it equals 2 (|E|^2 + |B|^2)
    of its FieldPair; ValueError where either side is not finite."""
    direct, dual = (float(side[0]) for side in _energy_identity(_six(psi6)[None]))
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

    with psi-bar = psi^dagger Gamma_0: 0 on solutions of the 6x6 system, and
    0j for no terms.  ValueError where it overflows a float.
    """
    c = _check_c(c)
    bundle = _stack([terms], 6, "Lagrangian density")
    return complex(_lagrangians(bundle, *_point(x, t), c)[0])
