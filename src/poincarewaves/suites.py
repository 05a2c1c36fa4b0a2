"""Verification suites: every residual family as sorted record lists.

Each suite builder takes a SuiteConfig and returns (suite_name, record) pairs
ready for the report renderers.  Determinism contract: all randomized sampling
derives from ``numpy.random.default_rng([config.seed, suite_offset])`` with a
fixed per-suite offset, so each suite's stream is reproducible in isolation
and the assembled report is byte-identical under a fixed seed regardless of
which suites run or in what order.  Records are sorted by
(suite, check name, indices, point), where indices and point compare as their
compact sort_keys JSON text; each record's JSON maps and their keys are built
once per report.

REPORT BYTES
    ``verify --format json`` writes ``_report_json(report)``, whose text is
    exactly ``json.dumps(report, sort_keys=True, indent=2)``: it writes one
    string per record of the fixed schema (floats by ``float.__repr__`` or
    NaN / Infinity / -Infinity, strings by ``encode_basestring_ascii``), so
    the pure-Python indent encoder runs only on the config and summary.
    ``tests/test_suites.py::TestReportJson`` pins the equality.

NEGATIVE CONTROLS
    Failure-expected checks are encoded in one of two ways so that the record
    invariant (passed == residual <= tolerance * max(1, scale)) always holds:

    * controls that must MISBEHAVE (a random amplitude must not solve the
      equations; the longitudinal mode must violate the divergence equations)
      are reported as deficit records: residual = max(0, threshold - observed
      failure magnitude), which is 0 exactly when the control fails as
      loudly as required;
    * documented discrepancies of the printed formulas (the variant="paper"
      radial solutions, the verbatim spin-block matrix, the holomorphy
      smoothness assumption) are reported as flagged records: their pass/fail
      state is visible in the report but never affects the exit status.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping

import numpy as np

from .differential_checks import (
    casimir_convergence_order,
    casimir_x2_residual,
    casimir_y2_residual,
    holomorphy_residual,
    legendre_residual,
    make_record,
    ResidualRecord,
)
from .group_kinematics import ComplexEulerAngles, make_angles
from .lorentz_harmonics import (
    HarmonicIndex,
    _grid_values,
    qu2_factor_jacobi,
    su2_factor_p,
    z_2f1_grid,
    z_sum,  # no suite calls it; perfbench's tracer wraps suites.z_sum
    z_sum_grid,
)
from .lorentz_sector import (
    VARIANTS,
    RadialSolution,
    _whole_number,
    build_matrices,
    radial_ladder,
    radial_residual,
)
from .photon_plane_waves import (
    NORMALIZATION,
    FieldPair,
    PhotonPlaneWave,
    PlaneWaveTerm,
    WaveVector,
    anti_equation_residual,
    commutator_sign,
    dirac_form_residual,
    dirac_form_scale,
    eigenstructure,
    energy_density,
    lagrangian_density_translation,
    maxwell_residuals,
    me1_member,
    me2_member,
    me6_column,
    polarization_vectors,
    spin_matrices,
    transversality_residual,
)
from .poincare_assembly import (
    TAG_LONGITUDINAL,
    TAG_NEGATIVE_ENERGY,
    TAG_OMITTED,
    PoincareWaveFunction,
    build_catalog,
)

__all__ = [
    "SuiteConfig",
    "DEFAULT_TOLERANCES",
    "SUITE_NAMES",
    "run_suite",
    "build_report",
    "report_exit_code",
]

#: Default tolerance per check name; overridable via SuiteConfig.tolerances.
DEFAULT_TOLERANCES: dict[str, float] = {
    "cross_formula": 1e-10,
    "identity": 0.0,
    "unitarity": 1e-10,
    "factorization": 1e-10,
    "casimir": 1e-6,
    "casimir_order": 0.3,
    "legendre": 1e-6,
    "holomorphy": 1e-10,
    "eigen_spectrum": 1e-10,
    "eigen_alignment": 1e-10,
    "eigen_continuity": 1e-5,
    "polarization": 1e-10,
    "dirac_form": 1e-12,
    "dirac_control": 1e-12,
    "pairing": 1e-12,
    "maxwell": 1e-12,
    "maxwell_control": 1e-12,
    "energy": 1e-12,
    "lagrangian": 1e-12,
    "lagrangian_control": 1e-12,
    "transversality": 1e-12,
    "radial": 1e-12,
    "radial_discrepancy": 1e-12,
    "radial_homogeneous": 1e-12,
    "radial_symmetry": 1e-12,
    "commutator": 1e-12,
    "lambda_casimir": 1e-12,
    "lambda_control": 1e-12,
    "lambda_structure": 1e-12,
    "assembly_factorization": 1e-12,
    "assembly_filter": 0.0,
    "assembly_conjugation": 1e-12,
    "assembly_dirac": 1e-12,
}

@dataclass(frozen=True)
class SuiteConfig:
    """Configuration shared by all verification suites."""

    lmax: int = 3
    grid_density: int = 5
    tolerances: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    c: float = 1.0
    variant: str = "corrected"
    corrected_lambda: bool = True

    def __post_init__(self) -> None:
        lmax = _whole_number(self.lmax)
        if lmax is None or not 0 <= lmax <= 6:
            raise ValueError(f"lmax must be an integer in [0, 6], got {self.lmax!r}")
        object.__setattr__(self, "lmax", lmax)
        grid_density = _whole_number(self.grid_density)
        if grid_density is None or grid_density < 2:
            raise ValueError(
                f"grid_density must be an integer >= 2, got {self.grid_density!r}")
        object.__setattr__(self, "grid_density", grid_density)
        seed = _whole_number(self.seed)
        if seed is None or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be a positive finite constant, got {self.c!r}")
        if self.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}")
        resolved = {}
        for name, value in dict(self.tolerances).items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(
                    f"unknown tolerance name {name!r}; "
                    f"valid names: {', '.join(sorted(DEFAULT_TOLERANCES))}")
            value = float(value)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {name} must be >= 0, got {value!r}")
            resolved[name] = value
        object.__setattr__(self, "tolerances", resolved)
        object.__setattr__(self, "corrected_lambda", bool(self.corrected_lambda))

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def record(self, check: str, indices: Mapping[str, object],
               point: Mapping[str, object], residual: float, scale: float,
               flagged: bool = False) -> ResidualRecord:
        """A record of check, judged by the tolerance of that check name."""
        return make_record(check, indices, point, residual, scale,
                           self.tolerance(check), flagged)

    def resolved_tolerances(self) -> dict[str, float]:
        return {name: self.tolerance(name) for name in sorted(DEFAULT_TOLERANCES)}

    def rng(self, offset: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, offset])


# ---------------------------------------------------------------------------
# Shared grids and helpers
# ---------------------------------------------------------------------------

#: Inset keeping grid endpoints off the coordinate singularities (radians).
GRID_INSET = 0.01

_K_SET = ((0.0, 0.0, 1.0), (3.0, 4.0, 0.0), (1.0, 1.0, 1.0),
          (1.0, 2.0, 3.0), (-0.7, 0.4, 2.1))

_RING_RADII = (0.1, 1.0, 10.0)
_RING_PHASES = tuple(math.pi * k / 8.0 for k in range(-7, 9, 2))


def _theta_grid(config: SuiteConfig) -> tuple[float, ...]:
    return tuple(float(t) for t in np.linspace(GRID_INSET, math.pi - GRID_INSET,
                                               config.grid_density))


def _tau_grid(config: SuiteConfig) -> tuple[float, ...]:
    return tuple(float(t) for t in np.linspace(-1.0, 1.0, config.grid_density))


def _l_values(lmax: int) -> list[float]:
    return [k / 2.0 for k in range(0, 2 * lmax + 1)]


def _projections(l: float) -> list[float]:
    count = int(round(2 * l)) + 1
    return [-l + j for j in range(count)]


def _harmonic_indices(l: float) -> list[HarmonicIndex]:
    """Every HarmonicIndex of weight l, row-major in (m, n), both ascending."""
    projections = _projections(l)
    return [HarmonicIndex(l, m, n) for m in projections for n in projections]


def _worst_grid_record(config: SuiteConfig, check: str, idx: HarmonicIndex,
                       thetas, taus, pairs) -> ResidualRecord:
    """Record at the theta x tau point with the largest residual / max(1, scale).

    pairs holds (residual, scale) at each point in row-major order (theta
    outer); ties keep the first point.
    """
    worst = (-1.0, thetas[0], taus[0], 0.0, 0.0)
    points = ((theta, tau) for theta in thetas for tau in taus)
    for (theta, tau), (residual, scale) in zip(points, pairs):
        ratio = residual / max(1.0, scale)
        if ratio > worst[0]:
            worst = (ratio, theta, tau, residual, scale)
    _, theta, tau, residual, scale = worst
    return config.record(check, {"l": idx.l, "m": idx.m, "n": idx.n},
                         {"theta": theta, "tau": tau}, residual, scale)


def _flat(grid) -> list:
    """Row-major values of one index's theta x tau grid."""
    return [value for row in grid for value in row]


def _ring_points() -> list[complex]:
    return [radius * cmath.exp(1j * phase)
            for radius in _RING_RADII for phase in _RING_PHASES]


def _random_angles(rng: np.random.Generator) -> ComplexEulerAngles:
    return make_angles(
        float(rng.uniform(0.0, 2 * math.pi - 1e-9)),
        float(rng.normal() * 0.5),
        float(rng.uniform(0.15, math.pi - 0.15)),
        float(rng.normal() * 0.5),
        float(rng.uniform(-2 * math.pi, 2 * math.pi - 1e-9)),
        float(rng.normal() * 0.5),
    )


def _k_label(k) -> str:
    return ",".join(repr(float(component)) for component in k)


def _deficit(threshold: float, observed: float) -> float:
    """Residual encoding for a control that must fail by at least threshold."""
    return max(0.0, threshold - observed)


# ---------------------------------------------------------------------------
# Suite builders
# ---------------------------------------------------------------------------

def _suite_hypergeom(config: SuiteConfig) -> list[ResidualRecord]:
    records = []
    thetas, taus = _theta_grid(config), _tau_grid(config)
    for l in _l_values(config.lmax):
        indices = _harmonic_indices(l)
        # One direct grid per weight: row 0 is theta = 0 and the last column
        # tau = 0, so it also holds Z(0, 0) and the rotations Z(theta, 0).
        direct = z_sum_grid(indices, (0.0, *thetas), (*taus, 0.0))
        for idx, direct_grid, series_grid in zip(
                indices, direct, z_2f1_grid(indices, thetas, taus)):
            inner = _flat(row[:-1] for row in direct_grid[1:])
            pairs = [(abs(value - series), abs(value)) for value, series
                     in zip(inner, _flat(series_grid))]
            records.append(_worst_grid_record(
                config, "cross_formula", idx, thetas, taus, pairs))
        identity_worst = max(
            abs(grid[0][-1] - (1.0 if idx.m == idx.n else 0.0))
            for idx, grid in zip(indices, direct))
        records.append(config.record(
            "identity", {"l": float(l)}, {"theta": 0.0, "tau": 0.0},
            identity_worst, 1.0))
        dimension = len(_projections(l))
        worst_unitary = (-1.0, thetas[0])
        for i, theta in enumerate(thetas, start=1):
            matrix = np.array([grid[i][-1] for grid in direct]
                              ).reshape(dimension, dimension)
            deviation = float(np.abs(matrix @ matrix.conj().T
                                     - np.eye(dimension)).max())
            if deviation > worst_unitary[0]:
                worst_unitary = (deviation, theta)
        records.append(config.record(
            "unitarity", {"l": float(l)}, {"theta": worst_unitary[1], "tau": 0.0},
            worst_unitary[0], 1.0))
    return records


def _suite_factorization(config: SuiteConfig) -> list[ResidualRecord]:
    records = []
    thetas, taus = _theta_grid(config), _tau_grid(config)

    # sum_k P^l_mk(cos theta) Q^l_kn(cosh tau), summed by the grid engine.
    def rotation(L, M, K):
        return [su2_factor_p(L / 2, M / 2, K / 2, theta) for theta in thetas]

    def rapidity(L, N, K):
        return [qu2_factor_jacobi(L / 2, K / 2, N / 2, tau) for tau in taus]

    for l in _l_values(config.lmax):
        indices = _harmonic_indices(l)
        for idx, direct_grid, factor_grid in zip(
                indices, z_sum_grid(indices, thetas, taus),
                _grid_values(indices, thetas, taus, rotation, rapidity,
                             phased=False)):
            pairs = [(abs(total - direct), abs(direct)) for total, direct
                     in zip(_flat(factor_grid), _flat(direct_grid))]
            records.append(_worst_grid_record(
                config, "factorization", idx, thetas, taus, pairs))
    return records


def _casimir_index_sample(config: SuiteConfig, rng: np.random.Generator,
                          per_l: int) -> list[HarmonicIndex]:
    indices = []
    for l in _l_values(min(config.lmax, 3)):
        projections = _projections(l)
        for _ in range(per_l):
            m = projections[int(rng.integers(0, len(projections)))]
            n = projections[int(rng.integers(0, len(projections)))]
            indices.append(HarmonicIndex(l, m, n))
    return indices


def _suite_casimir(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(2)
    records = []
    for position, idx in enumerate(_casimir_index_sample(config, rng, per_l=3)):
        angles = _random_angles(rng)
        record = casimir_x2_residual(idx, angles)
        records.append(config.record(
            "casimir", {**record.indices, "operator": "x2", "draw": position},
            record.point, record.residual, record.scale))
        dotted = HarmonicIndex(idx.l, idx.m, idx.n, dotted=True)
        record = casimir_y2_residual(dotted, angles)
        records.append(config.record(
            "casimir", {**record.indices, "operator": "y2", "draw": position},
            record.point, record.residual, record.scale))
    order_angles = make_angles(0.4, 0.25, 0.9, 0.35, 1.1, -0.2)
    for operator, dotted in (("x2", False), ("y2", True)):
        idx = HarmonicIndex(1, 1, -1, dotted=dotted)
        order = casimir_convergence_order(idx, order_angles)
        records.append(config.record(
            "casimir_order",
            {"l": 1.0, "m": 1.0, "n": -1.0, "operator": operator},
            {"coarse_step": 2e-2}, abs(order - 2.0), 1.0))
    return records


def _suite_legendre(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(3)
    records = []
    for l in _l_values(min(config.lmax, 3)):
        projections = _projections(l)
        for draw in range(2):
            m = projections[int(rng.integers(0, len(projections)))]
            n = projections[int(rng.integers(0, len(projections)))]
            theta = float(rng.uniform(0.25, math.pi - 0.25))
            tau = float(rng.normal() * 0.4)
            for dotted in (False, True):
                idx = HarmonicIndex(l, m, n, dotted=dotted)
                record = legendre_residual(idx, theta, tau)
                records.append(config.record(
                    "legendre", {**record.indices, "draw": draw},
                    record.point, record.residual, record.scale))
    return records


def _suite_holomorphy(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(4)
    records = []
    for l in _l_values(min(config.lmax, 3)):
        if l == 0:
            continue
        projections = _projections(l)
        m = projections[int(rng.integers(0, len(projections)))]
        n = projections[int(rng.integers(0, len(projections)))]
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        tau = float(rng.normal() * 0.4)
        for dotted in (False, True):
            idx = HarmonicIndex(l, m, n, dotted=dotted)
            record = holomorphy_residual(idx, theta, tau)
            records.append(config.record(
                "holomorphy", record.indices, record.point,
                record.residual, record.scale, flagged=True))
    return records


def _suite_eigen(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(5)
    records = []
    c = config.c
    fixed_cases = {"axis": (0.0, 0.0, 1.0), "pythagorean": (3.0, 4.0, 0.0)}
    for case, k in sorted(fixed_cases.items()):
        norm = math.hypot(*k)
        eig = eigenstructure(k, c)
        expected = np.array([-c * norm, 0.0, c * norm])
        records.append(config.record(
            "eigen_spectrum", {"case": case}, {"k": _k_label(k)},
            float(np.abs(eig.eigenvalues - expected).max()),
            max(1.0, c * norm)))
    draws = []
    while len(draws) < 100:
        k = rng.normal(size=3)
        if float(np.linalg.norm(k)) >= 1e-2:
            draws.append(k)
    for position, k in enumerate(draws):
        norm = float(np.linalg.norm(k))
        eig = eigenstructure(k, c)
        expected = np.array([-c * norm, 0.0, c * norm])
        records.append(config.record(
            "eigen_spectrum", {"draw": position}, {"k": _k_label(k)},
            float(np.abs(eig.eigenvalues - expected).max()),
            max(1.0, c * norm)))
        pol = polarization_vectors(k)
        alignment = max(
            abs(abs(np.vdot(eig.vector(2), pol.eps_plus)) - 1.0),
            abs(abs(np.vdot(eig.vector(0), pol.eps_minus)) - 1.0),
            abs(abs(np.vdot(eig.vector(1), pol.eps_zero)) - 1.0),
        )
        records.append(config.record(
            "eigen_alignment", {"draw": position}, {"k": _k_label(k)},
            float(alignment), 1.0))
        if position < 20:
            karr = np.asarray(k, dtype=float)
            worst = 0.0
            for eps in (pol.eps_plus, pol.eps_minus, pol.eps_zero):
                worst = max(worst, abs(float(np.linalg.norm(eps)) - 1.0))
            worst = max(worst,
                        abs(karr @ pol.eps_plus) / max(1.0, norm),
                        abs(karr @ pol.eps_minus) / max(1.0, norm),
                        abs(np.vdot(pol.eps_plus, pol.eps_minus)),
                        abs(np.vdot(pol.eps_plus, pol.eps_zero)),
                        abs(np.vdot(pol.eps_minus, pol.eps_zero)))
            records.append(config.record(
                "polarization", {"draw": position}, {"k": _k_label(k)},
                float(worst), 1.0))
    near = polarization_vectors((1e-6, 0.0, 1.0))
    axis = polarization_vectors((0.0, 0.0, 1.0))
    jump = max(float(np.abs(a - b).max()) for a, b in
               ((near.eps_plus, axis.eps_plus),
                (near.eps_minus, axis.eps_minus),
                (near.eps_zero, axis.eps_zero)))
    records.append(config.record(
        "eigen_continuity", {"offset": 1e-6}, {"k": _k_label((0, 0, 1))},
        jump, 1.0))
    return records


def _generic_point_for(k) -> tuple[tuple[float, float, float], float]:
    """A spacetime point with k.x = 0.7, so sin and cos factors are generic."""
    karr = np.asarray(k, dtype=float)
    x = 0.7 * karr / float(karr @ karr)
    return (float(x[0]), float(x[1]), float(x[2])), 0.3


def _suite_maxwell(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(6)
    c = config.c
    records = []
    for k in _K_SET:
        norm = math.hypot(*k)
        point, t = _generic_point_for(k)
        for lam in (1, -1):
            residuals = maxwell_residuals(k, lam, point, t, c)
            records.append(config.record(
                "maxwell", {"k": _k_label(k), "lam": lam},
                {"x": _k_label(point), "t": t},
                max(residuals), max(1.0, norm)))
        faraday, ampere, div_e, div_b = maxwell_residuals(k, 0, point, t, c)
        records.append(config.record(
            "maxwell", {"k": _k_label(k), "lam": 0, "part": "curl"},
            {"x": _k_label(point), "t": t},
            max(faraday, ampere), max(1.0, norm)))
        threshold = 0.1 * NORMALIZATION * norm
        records.append(config.record(
            "maxwell_control", {"k": _k_label(k), "lam": 0},
            {"x": _k_label(point), "t": t,
             "div_e": div_e, "div_b": div_b},
            _deficit(threshold, min(div_e, div_b)), 1.0))
        for lam in (1, 0, -1):
            column = me6_column(k, lam, c)
            for equation, terms in (("ME1", me1_member(k, lam, c)),
                                    ("ME2", me2_member(k, lam, c)),
                                    ("ME6", column)):
                scale = dirac_form_scale(terms, c)
                records.append(config.record(
                    "dirac_form", {"k": _k_label(k), "lam": lam,
                                   "equation": equation},
                    {"x": _k_label(point), "t": t},
                    dirac_form_residual(terms, equation, point, t, c),
                    scale))
            records.append(config.record(
                "dirac_form", {"k": _k_label(k), "lam": lam,
                               "equation": "ANTI"},
                {"x": _k_label(point), "t": t},
                anti_equation_residual(column, point, t, c),
                dirac_form_scale(column, c)))
            records.append(config.record(
                "lagrangian", {"k": _k_label(k), "lam": lam},
                {"x": _k_label(point), "t": t},
                abs(lagrangian_density_translation(column, point, t, c)), 1.0))
        omega = c * norm
        amplitude = rng.normal(size=3) + 1j * rng.normal(size=3)
        random_terms = [PlaneWaveTerm(amplitude, np.asarray(k, dtype=float),
                                      omega)]
        scale = dirac_form_scale(random_terms, c)
        for equation in ("ME1", "ME2"):
            observed = dirac_form_residual(random_terms, equation, point, t, c)
            records.append(config.record(
                "dirac_control", {"k": _k_label(k), "equation": equation},
                {"observed": observed, "threshold": 0.1 * scale},
                _deficit(0.1 * scale, observed), 1.0))
        pair_terms = [*me1_member(k, 1, c), *me1_member(k, -1, c)]
        conjugated = [term.conjugate() for term in pair_terms]
        records.append(config.record(
            "pairing", {"k": _k_label(k)}, {"x": _k_label(point), "t": t},
            dirac_form_residual(conjugated, "ME2", point, t, c),
            dirac_form_scale(pair_terms, c)))
        wave = PhotonPlaneWave(WaveVector(*k), 1, c)
        reference = energy_density(wave.value((0.0, 0.0, 0.0), 0.0))
        drift = max(abs(energy_density(wave.value(x, s)) - reference)
                    for x, s in ((point, t), ((1.7, -0.3, 0.4), -2.0)))
        records.append(config.record(
            "energy", {"k": _k_label(k), "kind": "constancy"},
            {"reference": reference}, drift, max(1.0, reference)))
        off_amplitude = rng.normal(size=6) + 1j * rng.normal(size=6)
        off_terms = [PlaneWaveTerm(off_amplitude, np.asarray(k, dtype=float),
                                   omega)]
        observed = abs(lagrangian_density_translation(off_terms, point, t, c))
        records.append(config.record(
            "lagrangian_control", {"k": _k_label(k)},
            {"observed": observed, "threshold": 1e-6},
            _deficit(1e-6, observed), 1.0))
    for draw in range(100):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        direct = float(np.real(psi.conjugate() @ psi))
        pair = FieldPair.from_value(psi)
        dual = 2.0 * float(np.linalg.norm(pair.E) ** 2
                           + np.linalg.norm(pair.B) ** 2)
        records.append(config.record(
            "energy", {"draw": draw, "kind": "dual"}, {},
            abs(direct - dual), max(1.0, direct)))
    return records


def _suite_transversality(config: SuiteConfig) -> list[ResidualRecord]:
    records = []
    for k in _K_SET:
        norm = math.hypot(*k)
        for lam in (1, -1):
            records.append(config.record(
                "transversality", {"k": _k_label(k), "lam": lam}, {},
                transversality_residual(k, lam), max(1.0, norm)))
        records.append(config.record(
            "transversality", {"k": _k_label(k), "lam": 0},
            {"expected": norm},
            abs(transversality_residual(k, 0) - norm), max(1.0, norm)))
    return records


class _HomogeneousTriple:
    """f = C sqrt(r) in the +-1 slots and 0 in the 0 slot, for the exact check."""

    def __init__(self, constant: complex):
        self.constant = complex(constant)

    def _f(self, r: complex) -> complex:
        return self.constant * cmath.sqrt(r)

    def _f_prime(self, r: complex) -> complex:
        return self.constant / (2.0 * cmath.sqrt(r))

    f_plus = f_minus = fdot_plus = fdot_minus = _f
    f_plus_prime = f_minus_prime = fdot_plus_prime = fdot_minus_prime = _f_prime

    @staticmethod
    def f_zero(r: complex) -> complex:
        return 0.0

    f_zero_prime = f_zero
    fdot_zero = f_zero
    fdot_zero_prime = f_zero


def _suite_radial(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(8)
    records = []
    paper = config.variant == "paper"
    for l in (1, 2, 3):
        radial = RadialSolution(l=l, C=1.3 - 0.4j, Cdot=0.25 + 2.0j,
                                variant=config.variant)
        rate = radial_ladder(l) - 2.0 * l * (l + 1)
        for position, r in enumerate(_ring_points()):
            residuals = radial_residual(l, radial, r)
            scale = max(1.0, abs(radial.f_plus(r)))
            point = {"r_re": r.real, "r_im": r.imag}
            if paper:
                point["formula"] = "(sqrt(2l(l+1)) - 2l(l+1)) * r"
            records.append(config.record(
                "radial", {"l": l, "variant": config.variant,
                           "ring": position},
                point, max(abs(value) for value in residuals), scale,
                flagged=paper))
            if paper:
                eq1, eq2, eq3, eq4 = residuals
                deviation = max(abs(eq1 - rate * r), abs(eq2 + rate * r),
                                abs(eq3 - rate * r.conjugate()),
                                abs(eq4 + rate * r.conjugate()))
                records.append(config.record(
                    "radial_discrepancy", {"l": l, "ring": position},
                    {"r_re": r.real, "r_im": r.imag,
                     "expected_rate": rate},
                    deviation, max(1.0, abs(rate * r))))
        homogeneous = _HomogeneousTriple(2.0 - 3.0j)
        worst = 0.0
        for r in _ring_points():
            scale = max(1.0, abs(homogeneous.f_plus(r)))
            worst = max(worst, max(abs(value) for value in
                                   radial_residual(l, homogeneous, r)) / scale)
        records.append(config.record(
            "radial_homogeneous", {"l": l}, {"constant": "2-3j"},
            worst, 1.0))
        symmetry = 0.0
        for _ in range(100):
            r = complex(rng.normal(), rng.normal())
            if abs(r) < 1e-3:
                continue
            symmetry = max(symmetry,
                           abs(radial.f_minus(r) - radial.f_plus(r)),
                           abs(radial.fdot_minus(r) - radial.fdot_plus(r)))
        records.append(config.record(
            "radial_symmetry", {"l": l}, {}, symmetry, 1.0))
    return records


def _suite_commutators(config: SuiteConfig) -> list[ResidualRecord]:
    records = []
    mats = spin_matrices()
    sign = commutator_sign()
    records.append(config.record(
        "commutator", {"family": "alpha", "kind": "sign"},
        {"measured": sign}, abs(sign - (-1)), 1.0))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        closure = np.abs(mats.alphas[i] @ mats.alphas[j]
                         - mats.alphas[j] @ mats.alphas[i]
                         - sign * 1j * mats.alphas[k]).max()
        records.append(config.record(
            "commutator", {"family": "alpha", "triple": f"{i+1}{j+1}-{k+1}"},
            {}, float(closure), 1.0))
    records.append(config.record(
        "commutator", {"family": "gamma", "kind": "involution"}, {},
        float(np.abs(mats.gamma0 @ mats.gamma0 - np.eye(6)).max()), 1.0))
    lambdas = build_matrices(1.0, corrected=config.corrected_lambda)
    flagged = not config.corrected_lambda
    if config.corrected_lambda:
        lam_sign = lambdas.commutator_sign()
        records.append(config.record(
            "commutator", {"family": "lambda", "kind": "sign"},
            {"measured": lam_sign}, abs(lam_sign - 1), 1.0))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        closure = np.abs(lambdas.lambdas[i] @ lambdas.lambdas[j]
                         - lambdas.lambdas[j] @ lambdas.lambdas[i]
                         - 1j * lambdas.lambdas[k]).max()
        records.append(config.record(
            "commutator", {"family": "lambda", "triple": f"{i+1}{j+1}-{k+1}",
                           "corrected": config.corrected_lambda},
            {}, float(closure), 1.0, flagged=flagged))
    records.append(config.record(
        "lambda_casimir", {"corrected": config.corrected_lambda},
        {"target": 2.0}, lambdas.casimir_defect(), 1.0, flagged=flagged))
    printed_defect = build_matrices(1.0, corrected=False).casimir_defect()
    records.append(config.record(
        "lambda_control", {"variant": "printed"},
        {"observed": printed_defect, "threshold": 0.1},
        _deficit(0.1, printed_defect), 1.0))
    structure = 0.0
    for position, upsilon in enumerate(lambdas.upsilons):
        lam = lambdas.lambdas[position % 3]
        factor = 1.0 if position < 3 else 1j
        structure = max(
            structure,
            float(np.abs(upsilon[:3, :3]).max()),
            float(np.abs(upsilon[3:, 3:]).max()),
            float(np.abs(upsilon[:3, 3:] - factor * lam.conj()).max()),
            float(np.abs(upsilon[3:, :3] - factor * lam).max()))
    records.append(config.record(
        "lambda_structure", {"count": len(lambdas.upsilons)}, {},
        structure, 1.0))
    return records


def _suite_assembly(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(9)
    records = []
    radial = RadialSolution(l=1, C=0.6 + 0.2j, Cdot=-0.4 + 1.0j,
                            variant=config.variant)
    for draw in range(100):
        k = rng.normal(size=3)
        while float(np.linalg.norm(k)) < 1e-2:
            k = rng.normal(size=3)
        lam = int(rng.choice([-1, 0, 1]))
        dotted = bool(rng.integers(0, 2))
        x = tuple(float(v) for v in rng.normal(size=3))
        t = float(rng.normal())
        r = complex(rng.normal(), rng.normal())
        while abs(r) < 1e-3 or (r.real < 0 and abs(r.imag) < 1e-3):
            r = complex(rng.normal(), rng.normal())
        angles = _random_angles(rng)
        wave = PoincareWaveFunction(WaveVector(*(float(v) for v in k)),
                                    lam, 1, radial, dotted, config.c)
        value = wave.value(x, t, r, angles)
        translation = wave.translation_value(x, t)
        factor = wave.lorentz_factor(r, angles)
        mask = np.abs(translation) > 1e-6
        residual = 0.0
        if mask.any():
            residual = float(np.abs(value[mask] / translation[mask]
                                    - factor).max())
        if abs(factor) > 1e-6:
            residual = max(residual,
                           float(np.abs(value / factor - translation).max())
                           / max(1.0, float(np.abs(translation).max())))
        records.append(config.record(
            "assembly_factorization", {"draw": draw, "lam": lam,
                                       "dotted": dotted},
            {"k": _k_label(k), "t": t}, residual, max(1.0, abs(factor))))
    catalog = build_catalog((1.0, 2.0, 3.0), 1, radial, config.c)
    violations = 0
    labels = [member.label for member in catalog.members]
    if labels != ["psi_+1", "psi_0", "psi_-1",
                  "psi_dot_+1", "psi_dot_0", "psi_dot_-1"]:
        violations += 1
    physical = [member.label for member in catalog.physical]
    if physical != ["psi_+1", "psi_-1"]:
        violations += 1
    for member in catalog.members:
        dotted_ok = (TAG_NEGATIVE_ENERGY in member.tags) == member.wave.dotted
        omitted_ok = (TAG_OMITTED in member.tags) == member.wave.dotted
        longitudinal_ok = ((TAG_LONGITUDINAL in member.tags)
                           == (member.wave.lam == 0))
        if not (dotted_ok and omitted_ok and longitudinal_ok):
            violations += 1
    records.append(config.record(
        "assembly_filter", {"k": _k_label((1, 2, 3))},
        {"members": len(catalog.members)}, float(violations), 1.0))
    norm = math.hypot(1.0, 2.0, 3.0)
    records.append(config.record(
        "transversality", {"k": _k_label((1, 2, 3)), "kind": "evidence"},
        {"expected": norm},
        abs(catalog.member("psi_0").transversality - norm), max(1.0, norm)))
    for member in catalog.members:
        terms = [member.wave.translation_term3()]
        equation = member.wave.translation_equation()
        point, t = _generic_point_for((1.0, 2.0, 3.0))
        records.append(config.record(
            "assembly_dirac", {"member": member.label, "equation": equation},
            {"x": _k_label(point), "t": t},
            dirac_form_residual(terms, equation, point, t, config.c),
            dirac_form_scale(terms, config.c)))
    real_radial = RadialSolution(l=1, C=0.8, Cdot=0.8, variant=config.variant)
    for draw in range(5):
        rotation_only = make_angles(
            float(rng.uniform(0.0, 2 * math.pi - 1e-9)), 0.0,
            float(rng.uniform(0.1, math.pi - 0.1)), 0.0,
            float(rng.uniform(-2 * math.pi, 2 * math.pi - 1e-9)), 0.0)
        x = tuple(float(v) for v in rng.normal(size=3))
        t = float(rng.normal())
        r = float(rng.uniform(0.2, 3.0))
        worst = 0.0
        for lam in (1, 0, -1):
            wave = PoincareWaveFunction(WaveVector(1.0, 2.0, 3.0), lam, 1,
                                        real_radial, False, config.c)
            undotted = wave.value(x, t, r, rotation_only)
            dotted = wave.dotted_twin().value(x, t, r, rotation_only)
            worst = max(worst,
                        float(np.abs(dotted - undotted.conjugate()).max()))
        records.append(config.record(
            "assembly_conjugation", {"draw": draw}, {"r": r, "t": t},
            worst, 1.0))
    return records


# ---------------------------------------------------------------------------
# Registry, runner, and report assembly
# ---------------------------------------------------------------------------

def _json_value(value):
    """Coerce one indices/point entry to a JSON-native scalar."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"record entry {value!r} is not JSON-representable")


def _json_map(mapping: Mapping[str, object]) -> dict:
    return {str(key): _json_value(value) for key, value in mapping.items()}


_SUITE_BUILDERS: dict[str, Callable[[SuiteConfig], list[ResidualRecord]]] = {
    "hypergeom": _suite_hypergeom,
    "factorization": _suite_factorization,
    "casimir": _suite_casimir,
    "legendre": _suite_legendre,
    "holomorphy": _suite_holomorphy,
    "eigen": _suite_eigen,
    "maxwell": _suite_maxwell,
    "transversality": _suite_transversality,
    "radial": _suite_radial,
    "commutators": _suite_commutators,
    "assembly": _suite_assembly,
}

SUITE_NAMES: tuple[str, ...] = tuple(sorted(_SUITE_BUILDERS))


def _sorted_entries(name: str, config: SuiteConfig) -> list[tuple]:
    """(suite, record, indices map, point map) of one suite (or 'all').

    Each record's JSON maps are built once; the entries are sorted on
    (suite, check name, indices, point), the maps compared as their compact
    sort_keys JSON text, which the sort builds once per entry.
    """
    if name == "all":
        names: Iterable[str] = SUITE_NAMES
    elif name in _SUITE_BUILDERS:
        names = (name,)
    else:
        raise ValueError(
            f"unknown suite {name!r}; valid: all, {', '.join(SUITE_NAMES)}")
    entries = [(suite_name, record, _json_map(record.indices),
                _json_map(record.point))
               for suite_name in names
               for record in _SUITE_BUILDERS[suite_name](config)]
    text = json.JSONEncoder(sort_keys=True).encode
    entries.sort(key=lambda entry: (entry[0], entry[1].check_name,
                                    text(entry[2]), text(entry[3])))
    return entries


def run_suite(name: str, config: SuiteConfig
              ) -> list[tuple[str, ResidualRecord]]:
    """Run one suite (or 'all') and return sorted (suite, record) pairs."""
    return [(suite, record)
            for suite, record, _, _ in _sorted_entries(name, config)]


def build_report(name: str, config: SuiteConfig) -> dict:
    """JSON-ready verification report for one suite (or 'all')."""
    records = [{
        "suite": suite,
        "name": record.check_name,
        "indices": indices,
        "point": point,
        "residual": float(record.residual),
        "scale": float(record.scale),
        "tolerance": float(record.tolerance),
        "passed": bool(record.passed),
        "flagged": bool(record.flagged),
    } for suite, record, indices, point in _sorted_entries(name, config)]
    summary = {
        "passed": sum(1 for r in records if r["passed"]),
        "failed": sum(1 for r in records if not r["passed"]),
        "flagged": sum(1 for r in records if r["flagged"]),
    }
    return {
        "suite": name,
        "config": {
            "lmax": config.lmax,
            "grid_density": config.grid_density,
            "seed": config.seed,
            "c": config.c,
            "variant": config.variant,
            "corrected_lambda": config.corrected_lambda,
            "tolerances": config.resolved_tolerances(),
        },
        "records": records,
        "summary": summary,
    }


_RECORD_JSON = (
    '    {{\n      "flagged": {},\n      "indices": {},\n      "name": {},\n'
    '      "passed": {},\n      "point": {},\n      "residual": {},\n'
    '      "scale": {},\n      "suite": {},\n      "tolerance": {}\n    }}')


_BOOL_JSON = {False: "false", True: "true"}


def _float_json(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


#: A record map's sort_keys JSON, one entry per line of the indented report.
_ENTRIES_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",\n        ", ": ")).encode


def _map_json(mapping: Mapping[str, object]) -> str:
    if not mapping:
        return "{}"
    return f"{{\n        {_ENTRIES_JSON(mapping)[1:-1]}\n      }}"


def _report_json(report: dict) -> str:
    """The text of json.dumps(report, sort_keys=True, indent=2), one string
    per record; the small config and summary sections go through json."""
    def section(value) -> str:
        # JSON escapes newlines in strings, so each newline is a line break.
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")

    records = ",\n".join(_RECORD_JSON.format(
        _BOOL_JSON[r["flagged"]], _map_json(r["indices"]),
        encode_basestring_ascii(r["name"]), _BOOL_JSON[r["passed"]],
        _map_json(r["point"]), _float_json(r["residual"]),
        _float_json(r["scale"]), encode_basestring_ascii(r["suite"]),
        _float_json(r["tolerance"])) for r in report["records"])
    records = f"[\n{records}\n  ]" if records else "[]"
    return (f'{{\n  "config": {section(report["config"])},\n'
            f'  "records": {records},\n'
            f'  "suite": {encode_basestring_ascii(report["suite"])},\n'
            f'  "summary": {section(report["summary"])}\n}}')


def report_exit_code(report: dict) -> int:
    """0 iff every non-flagged record passed (flagged checks never fail a run)."""
    for record in report["records"]:
        if not record["flagged"] and not record["passed"]:
            return 1
    return 0
