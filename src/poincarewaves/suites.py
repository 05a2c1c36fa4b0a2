"""Verification suites: every residual family as sorted record lists.

Each suite builder takes a SuiteConfig and returns its ResidualRecords, each
already in the report's form (see make_record); the two Z grid suites build
theirs weight by weight from one direct grid per weight, and their records
share one indices map per index and one point map per grid point, made
afresh for each report (see _grid_records).  A report encodes each distinct
map object once (see _sorted_run).  Determinism contract: all
randomized sampling derives from ``numpy.random.default_rng([config.seed,
suite_offset])`` with a fixed per-suite offset, so each suite's stream is
reproducible in isolation and the assembled report is byte-identical under a
fixed seed regardless of which suites run or in what order.  Records are
sorted by (suite, check name, indices, point), where indices and point
compare as their compact sort_keys JSON text.  This module builds data only;
the cli renders it.

NEGATIVE CONTROLS
    A record's verdict is derived from its measurement, so the invariant
    passed == (residual <= tolerance * max(1, scale)) holds by construction.
    Failure-expected checks are encoded in one of two ways to fit it:

    * controls that must MISBEHAVE (a random amplitude must not solve the
      equations; the longitudinal mode must violate the divergence equations)
      are reported as deficit records: residual = max(0, threshold - observed
      failure magnitude), which is 0 exactly when the control fails as
      loudly as required; an observation that is not finite (its values
      overflowed) raises ValueError rather than pass as a deficit of 0;
    * documented discrepancies of the printed formulas (the variant="paper"
      radial solutions, the verbatim spin-block matrix, the holomorphy
      smoothness assumption) are reported as flagged records: their pass/fail
      state is visible in the report but never affects the exit status.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

import numpy as np

from .differential_checks import (
    casimir_convergence_order,
    casimir_x2_residual,
    casimir_y2_residual,
    holomorphy_residual,
    json_entries,
    legendre_residual,
    make_record,
    ResidualRecord,
)
from .group_kinematics import ComplexEulerAngles, _finite, make_angles
from .lorentz_harmonics import (
    HarmonicIndex,
    _grid_values,
    _tangent_block,
    z_2f1_grid,
    z_sum,  # no suite calls it; perfbench's tracer wraps suites.z_sum
    z_sum_grid,
)
from .lorentz_sector import (
    RadialSolution,
    _check_variant,
    _whole_number,
    build_matrices,
    radial_ladder,
    radial_residual,
)
from .photon_plane_waves import (
    ALPHA,
    GAMMA,
    NORMALIZATION,
    PhotonPlaneWave,
    PlaneWaveTerm,
    _as_wavevector,
    _check_c,
    _energy_identity,
    _norm,
    anti_equation_residual,
    commutator_sign,
    dirac_form_residual,
    dirac_form_scale,
    eigenstructure,
    energy_density,
    lagrangian_density_translation,
    maxwell_residuals_from_terms,
    polarization_vectors,
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
        for name, low, high, wording in (
                ("lmax", 0, 6, "an integer in [0, 6]"),
                ("grid_density", 2, math.inf, "an integer >= 2"),
                ("seed", 0, math.inf, "a non-negative integer")):
            value = _whole_number(getattr(self, name))
            if value is None or not low <= value <= high:
                raise ValueError(
                    f"{name} must be {wording}, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "c", _check_c(self.c))
        _check_variant(self.variant)
        resolved = {}
        for name, value in dict(self.tolerances).items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(
                    f"unknown tolerance name {name!r}; "
                    f"valid names: {', '.join(sorted(DEFAULT_TOLERANCES))}")
            value = _finite(f"tolerance {name}", value)
            if not value >= 0:
                raise ValueError(
                    f"tolerance {name} must be >= 0, got {value!r}")
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


@functools.cache
def _harmonic_indices(l: float) -> tuple[HarmonicIndex, ...]:
    """Every HarmonicIndex of weight l, row-major in (m, n), both ascending
    (frozen, so one tuple per weight serves every report)."""
    projections = _projections(l)
    return tuple(HarmonicIndex(l, m, n)
                 for m in projections for n in projections)


def _modulus(values: np.ndarray) -> np.ndarray:
    """|values| by libm hypot, as Python's abs(complex): np.abs rounds many
    moduli differently in the last bit, and records must match a scalar rescan."""
    return np.hypot(values.real, values.imag)


class _PointMaps(dict):
    """Flat grid position -> its one {"theta", "tau"} record map, made on
    first use, so a fine grid holds maps only for its worst points."""

    def __init__(self, thetas: tuple[float, ...], taus: tuple[float, ...]):
        super().__init__()
        self.thetas, self.taus = thetas, taus

    def __missing__(self, position: int) -> dict[str, float]:
        row, column = divmod(position, len(self.taus))
        value = self[position] = {"theta": self.thetas[row],
                                  "tau": self.taus[column]}
        return value


def _worst_grid_records(config: SuiteConfig, check: str, index_maps: list,
                        point_maps: _PointMaps, residual: np.ndarray,
                        scale: np.ndarray) -> list[ResidualRecord]:
    """Per index, the record at the point of largest residual / max(1, scale).

    residual and scale are shaped (len(index_maps), len(thetas), len(taus)),
    and point_maps is keyed by the flat row-major position (theta outer);
    ties keep the first point.  The maps are already in make_record's form
    and the measurements become Python floats by .tolist(), so the records
    are built directly.
    """
    residual = residual.reshape(len(index_maps), -1)
    scale = scale.reshape(len(index_maps), -1)
    worst = (residual / np.maximum(1.0, scale)).argmax(axis=1)
    rows = np.arange(len(index_maps))
    tolerance = config.tolerance(check)
    return [ResidualRecord(check, index_map, point_maps[point], value, size,
                           tolerance)
            for index_map, point, value, size in zip(
                index_maps, worst.tolist(), residual[rows, worst].tolist(),
                scale[rows, worst].tolist())]


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
    """Residual encoding for a control that must fail by at least threshold.

    A non-finite observation raises ValueError: max(0, threshold - nan) is
    0, which would pass a control that measured nothing.
    """
    if not math.isfinite(observed):
        raise ValueError(
            f"negative control measured {observed!r}, which is not finite: "
            "its values overflow at this configuration")
    return max(0.0, threshold - observed)


def _draw_k(rng: np.random.Generator) -> np.ndarray:
    """A normal wavevector, redrawn until |k| >= 1e-2."""
    k = rng.normal(size=3)
    while float(_norm(k)) < 1e-2:
        k = rng.normal(size=3)
    return k


# ---------------------------------------------------------------------------
# Suite builders
# ---------------------------------------------------------------------------

def _hypergeom_records(config: SuiteConfig, l: float, indices, maps, grid,
                       thetas, taus) -> list[ResidualRecord]:
    inner = grid[:, 1:, :-1]
    records = _worst_grid_records(
        config, "cross_formula", *maps,
        _modulus(inner - z_2f1_grid(indices, thetas, taus)), _modulus(inner))
    # Z(theta, 0) as (m, n) matrices, theta = 0 first.
    dimension = len(_projections(l))
    identity, *rotations = (grid[:, i, -1].reshape(dimension, dimension)
                            for i in range(len(thetas) + 1))
    records.append(config.record(
        "identity", {"l": float(l)}, {"theta": 0.0, "tau": 0.0},
        _modulus(identity - np.eye(dimension)).max(), 1.0))
    deviations = [float(np.abs(u @ u.conj().T - np.eye(dimension)).max())
                  for u in rotations]
    worst = int(np.argmax(deviations))
    records.append(config.record(
        "unitarity", {"l": float(l)}, {"theta": thetas[worst], "tau": 0.0},
        deviations[worst], 1.0))
    return records


def _factorization_records(config: SuiteConfig, l: float, indices, maps,
                           grid, thetas, taus) -> list[ResidualRecord]:
    inner = grid[:, 1:, :-1]
    # sum_k P^l_mk(cos theta) Q^l_kn(cosh tau), from the unfolded halves.
    factored = _grid_values(indices, thetas, taus, _tangent_block)
    return _worst_grid_records(config, "factorization", *maps,
                               _modulus(factored - inner), _modulus(inner))


#: The Z grid suites: per weight l, records from its indices, their record
#: maps (one per index and one per grid point) and its direct grid.
_GRID_SUITES: dict[str, Callable[..., list[ResidualRecord]]] = {
    "hypergeom": _hypergeom_records,
    "factorization": _factorization_records,
}


def _grid_records(config: SuiteConfig, names: list[str]
                  ) -> list[tuple[str, ResidualRecord]]:
    """(suite, record) pairs of the named Z grid suites, weight by weight.

    Each weight's z_sum grid spans (0, *thetas) x (*taus, 0): row 0 is
    theta = 0 and the last column tau = 0, so it also holds Z(0, 0) and the
    rotations Z(theta, 0).  It is built once, read by every named suite and
    dropped before the next weight.  The records share one indices map per
    index and one point map per grid point (made when a record first names
    that point), all for this call alone: a caller may change the maps of
    the records it gets.
    """
    thetas, taus = _theta_grid(config), _tau_grid(config)
    point_maps = _PointMaps(thetas, taus)
    pairs = []
    for l in _l_values(config.lmax) if names else ():
        indices = _harmonic_indices(l)
        maps = ([{"l": idx.l, "m": idx.m, "n": idx.n} for idx in indices],
                point_maps)
        grid = z_sum_grid(indices, (0.0, *thetas), (*taus, 0.0))
        for name in names:
            records = _GRID_SUITES[name](config, l, indices, maps, grid,
                                         thetas, taus)
            pairs += [(name, record) for record in records]
        del grid
    return pairs


def _draw_mn(rng: np.random.Generator, l: float) -> tuple[float, float]:
    """Projections (m, n) of weight l, each drawn uniformly, m first."""
    projections = _projections(l)
    m = projections[int(rng.integers(0, len(projections)))]
    n = projections[int(rng.integers(0, len(projections)))]
    return m, n


def _suite_casimir(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(2)
    records = []
    sample = [HarmonicIndex(l, *_draw_mn(rng, l))
              for l in _l_values(min(config.lmax, 3)) for _ in range(3)]
    for position, idx in enumerate(sample):
        angles = _random_angles(rng)
        point = asdict(angles)
        dotted = HarmonicIndex(idx.l, idx.m, idx.n, dotted=True)
        for operator, checked, check in (("x2", idx, casimir_x2_residual),
                                         ("y2", dotted, casimir_y2_residual)):
            residual, scale = check(checked, angles)
            records.append(config.record(
                "casimir", {"l": idx.l, "m": idx.m, "n": idx.n,
                            "dotted": checked.dotted, "operator": operator,
                            "draw": position},
                point, residual, scale))
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
        for draw in range(2):
            m, n = _draw_mn(rng, l)
            theta = float(rng.uniform(0.25, math.pi - 0.25))
            tau = float(rng.normal() * 0.4)
            for dotted in (False, True):
                idx = HarmonicIndex(l, m, n, dotted=dotted)
                residual, scale = legendre_residual(idx, theta, tau)
                records.append(config.record(
                    "legendre", {"l": idx.l, "m": idx.m, "n": idx.n,
                                 "dotted": dotted, "draw": draw},
                    {"theta": theta, "tau": tau}, residual, scale))
    return records


def _suite_holomorphy(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(4)
    records = []
    for l in _l_values(min(config.lmax, 3)):
        if l == 0:
            continue
        m, n = _draw_mn(rng, l)
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        tau = float(rng.normal() * 0.4)
        for dotted in (False, True):
            idx = HarmonicIndex(l, m, n, dotted=dotted)
            residual, scale = holomorphy_residual(idx, theta, tau)
            records.append(config.record(
                "holomorphy", {"l": idx.l, "m": idx.m, "n": idx.n,
                               "dotted": dotted},
                {"theta": theta, "tau": tau}, residual, scale, flagged=True))
    return records


def _suite_eigen(config: SuiteConfig) -> list[ResidualRecord]:
    rng = config.rng(5)
    records = []
    c = config.c
    fixed = [({"case": "axis"}, (0.0, 0.0, 1.0)),
             ({"case": "pythagorean"}, (3.0, 4.0, 0.0))]
    draws = [({"draw": position}, _draw_k(rng)) for position in range(100)]
    cases = fixed + draws
    wavevectors = [_as_wavevector(k) for _, k in cases]
    pairs = zip(*eigenstructure(wavevectors, c))
    for (indices, k), kv, (values, vectors) in zip(cases, wavevectors, pairs):
        norm = float(_norm(k))
        label = {"k": _k_label(k)}
        expected = np.array([-c * norm, 0.0, c * norm])
        records.append(config.record(
            "eigen_spectrum", indices, label,
            float(np.abs(values - expected).max()), max(1.0, c * norm)))
        if "case" in indices:
            continue
        pol = polarization_vectors(kv)
        alignment = max(
            abs(abs(np.vdot(vectors[:, 2], pol.eps_plus)) - 1.0),
            abs(abs(np.vdot(vectors[:, 0], pol.eps_minus)) - 1.0),
            abs(abs(np.vdot(vectors[:, 1], pol.eps_zero)) - 1.0),
        )
        records.append(config.record(
            "eigen_alignment", indices, label, float(alignment), 1.0))
        if indices["draw"] < 20:
            units = (pol.eps_plus, pol.eps_minus, pol.eps_zero)
            worst = max(0.0, *(abs(float(_norm(eps)) - 1.0)
                               for eps in units),
                        abs(k @ pol.eps_plus) / max(1.0, norm),
                        abs(k @ pol.eps_minus) / max(1.0, norm),
                        abs(np.vdot(pol.eps_plus, pol.eps_minus)),
                        abs(np.vdot(pol.eps_plus, pol.eps_zero)),
                        abs(np.vdot(pol.eps_minus, pol.eps_zero)))
            records.append(config.record(
                "polarization", indices, label, float(worst), 1.0))
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
        label = _k_label(k)
        point, t = _generic_point_for(k)
        at = {"x": _k_label(point), "t": t}
        # Each mode is built once, and its members from it.
        waves = {lam: PhotonPlaneWave(k, lam, c) for lam in (1, 0, -1)}
        me1 = {lam: wave.me1() for lam, wave in waves.items()}
        me2 = {lam: wave.me2() for lam, wave in waves.items()}
        for lam in (1, -1):
            residuals = maxwell_residuals_from_terms(
                *waves[lam].fields(), point, t, c)
            records.append(config.record(
                "maxwell", {"k": label, "lam": lam}, at,
                max(residuals), max(1.0, norm)))
        faraday, ampere, div_e, div_b = maxwell_residuals_from_terms(
            *waves[0].fields(), point, t, c)
        records.append(config.record(
            "maxwell", {"k": label, "lam": 0, "part": "curl"}, at,
            max(faraday, ampere), max(1.0, norm)))
        threshold = 0.1 * NORMALIZATION * norm
        records.append(config.record(
            "maxwell_control", {"k": label, "lam": 0},
            {**at, "div_e": div_e, "div_b": div_b},
            _deficit(threshold, min(div_e, div_b)), 1.0))
        for lam in (1, 0, -1):
            column = waves[lam].me6()
            for equation, terms in (("ME1", me1[lam]), ("ME2", me2[lam]),
                                    ("ME6", column)):
                scale = dirac_form_scale(terms, c)
                records.append(config.record(
                    "dirac_form", {"k": label, "lam": lam,
                                   "equation": equation}, at,
                    dirac_form_residual(terms, equation, point, t, c),
                    scale))
            records.append(config.record(
                "dirac_form", {"k": label, "lam": lam,
                               "equation": "ANTI"}, at,
                anti_equation_residual(column, point, t, c),
                dirac_form_scale(column, c)))
            records.append(config.record(
                "lagrangian", {"k": label, "lam": lam}, at,
                abs(lagrangian_density_translation(column, point, t, c)), 1.0))
        omega = c * norm
        amplitude = rng.normal(size=3) + 1j * rng.normal(size=3)
        random_terms = [PlaneWaveTerm(amplitude, k, omega)]
        scale = dirac_form_scale(random_terms, c)
        for equation in ("ME1", "ME2"):
            observed = dirac_form_residual(random_terms, equation, point, t, c)
            records.append(config.record(
                "dirac_control", {"k": label, "equation": equation},
                {"observed": observed, "threshold": 0.1 * scale},
                _deficit(0.1 * scale, observed), 1.0))
        records.append(config.record(
            "pairing", {"k": label}, at,
            dirac_form_residual([*me2[1], *me2[-1]], "ME2", point, t, c),
            dirac_form_scale([*me1[1], *me1[-1]], c)))
        wave = waves[1]
        reference = energy_density(wave.value((0.0, 0.0, 0.0), 0.0))
        drift = max(abs(energy_density(wave.value(x, s)) - reference)
                    for x, s in ((point, t), ((1.7, -0.3, 0.4), -2.0)))
        records.append(config.record(
            "energy", {"k": label, "kind": "constancy"},
            {"reference": reference}, drift, max(1.0, reference)))
        off_amplitude = rng.normal(size=6) + 1j * rng.normal(size=6)
        off_terms = [PlaneWaveTerm(off_amplitude, k, omega)]
        observed = abs(lagrangian_density_translation(off_terms, point, t, c))
        records.append(config.record(
            "lagrangian_control", {"k": label},
            {"observed": observed, "threshold": 1e-6},
            _deficit(1e-6, observed), 1.0))
    for draw in range(100):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        direct, dual = _energy_identity(psi)
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


class _Homogeneous:
    """f = C sqrt(r) in the +-1 slots and 0 in the 0 slot, for the exact check."""

    def __init__(self, constant: complex):
        self.constant = complex(constant)

    def f(self, lam: int, r: complex, dotted: bool = False) -> complex:
        return self.constant * cmath.sqrt(r) if lam else 0.0

    def f_prime(self, lam: int, r: complex, dotted: bool = False) -> complex:
        return self.constant / (2.0 * cmath.sqrt(r)) if lam else 0.0


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
            scale = max(1.0, abs(radial.f(1, r)))
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
        homogeneous = _Homogeneous(2.0 - 3.0j)
        worst = 0.0
        for r in _ring_points():
            scale = max(1.0, abs(homogeneous.f(1, r)))
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
                           abs(radial.f(-1, r) - radial.f(1, r)),
                           abs(radial.f(-1, r, True) - radial.f(1, r, True)))
        records.append(config.record(
            "radial_symmetry", {"l": l}, {}, symmetry, 1.0))
    return records


def _suite_commutators(config: SuiteConfig) -> list[ResidualRecord]:
    records = []
    sign = commutator_sign()
    records.append(config.record(
        "commutator", {"family": "alpha", "kind": "sign"},
        {"measured": sign}, abs(sign - (-1)), 1.0))
    records.append(config.record(
        "commutator", {"family": "gamma", "kind": "involution"}, {},
        float(np.abs(GAMMA[0] @ GAMMA[0] - np.eye(6)).max()), 1.0))
    lambdas = build_matrices(corrected=config.corrected_lambda)
    flagged = not config.corrected_lambda
    if config.corrected_lambda:
        lam_sign = lambdas.commutator_sign()
        records.append(config.record(
            "commutator", {"family": "lambda", "kind": "sign"},
            {"measured": lam_sign}, abs(lam_sign - 1), 1.0))
    # [X_i, X_j] = sign * i X_k: alpha at its measured sign, lambda at 1.
    for family, matrices, closing, extra, flag in (
            ("alpha", ALPHA, sign, {}, False),
            ("lambda", lambdas.lambdas, 1,
             {"corrected": config.corrected_lambda}, flagged)):
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            closure = np.abs(matrices[i] @ matrices[j]
                             - matrices[j] @ matrices[i]
                             - closing * 1j * matrices[k]).max()
            records.append(config.record(
                "commutator",
                {"family": family, "triple": f"{i+1}{j+1}-{k+1}", **extra},
                {}, float(closure), 1.0, flagged=flag))
    records.append(config.record(
        "lambda_casimir", {"corrected": config.corrected_lambda},
        {"target": 2.0}, lambdas.casimir_defect(), 1.0, flagged=flagged))
    printed_defect = build_matrices(corrected=False).casimir_defect()
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
        k = _draw_k(rng)
        lam = (-1, 0, 1)[int(rng.integers(0, 3))]
        dotted = bool(rng.integers(0, 2))
        x = tuple(float(v) for v in rng.normal(size=3))
        t = float(rng.normal())
        r = complex(rng.normal(), rng.normal())
        while abs(r) < 1e-3 or (r.real < 0 and abs(r.imag) < 1e-3):
            r = complex(rng.normal(), rng.normal())
        angles = _random_angles(rng)
        wave = PoincareWaveFunction(k, lam, 1, radial, dotted, config.c)
        value = wave.value(x, t, r, angles)
        translation = wave.translation_value(x, t)
        factor = wave.lorentz_factor(r, angles)
        magnitude = np.abs(translation)
        mask = magnitude > 1e-6
        residual = 0.0
        if mask.any():
            residual = float(np.abs(value[mask] / translation[mask]
                                    - factor).max())
        if abs(factor) > 1e-6:
            residual = max(residual,
                           float(np.abs(value / factor - translation).max())
                           / max(1.0, float(magnitude.max())))
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
    twins = []
    for lam in (1, 0, -1):
        wave = PoincareWaveFunction((1.0, 2.0, 3.0), lam, 1, real_radial,
                                    False, config.c)
        twins.append((wave, wave.dotted_twin()))
    for draw in range(5):
        rotation_only = make_angles(
            float(rng.uniform(0.0, 2 * math.pi - 1e-9)), 0.0,
            float(rng.uniform(0.1, math.pi - 0.1)), 0.0,
            float(rng.uniform(-2 * math.pi, 2 * math.pi - 1e-9)), 0.0)
        x = tuple(float(v) for v in rng.normal(size=3))
        t = float(rng.normal())
        r = float(rng.uniform(0.2, 3.0))
        worst = 0.0
        for wave, twin in twins:
            undotted = wave.value(x, t, r, rotation_only)
            dotted = twin.value(x, t, r, rotation_only)
            worst = max(worst,
                        float(np.abs(dotted - undotted.conjugate()).max()))
        records.append(config.record(
            "assembly_conjugation", {"draw": draw}, {"r": r, "t": t},
            worst, 1.0))
    return records


# ---------------------------------------------------------------------------
# Registry, runner, and report assembly
# ---------------------------------------------------------------------------

#: Every other suite builds its records from the config alone.
_SUITE_BUILDERS: dict[str, Callable[[SuiteConfig], list[ResidualRecord]]] = {
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

SUITE_NAMES: tuple[str, ...] = tuple(sorted([*_GRID_SUITES, *_SUITE_BUILDERS]))


def _sorted_run(name: str, config: SuiteConfig
                ) -> tuple[list[tuple[str, ResidualRecord]], list[str]]:
    """run_suite's sorted pairs, and each record's indices and point
    json_entries in the same order (two per record, from one encode of the
    run's distinct map objects)."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(
            f"unknown suite {name!r}; valid: all, {', '.join(SUITE_NAMES)}")
    names = SUITE_NAMES if name == "all" else (name,)
    # The sort key starts with the suite, so the grid suites' pairs, built
    # weight by weight, sort exactly as if each suite had run alone.
    pairs = _grid_records(config, [n for n in names if n in _GRID_SUITES])
    pairs += [(suite_name, record) for suite_name in names
              if suite_name in _SUITE_BUILDERS
              for record in _SUITE_BUILDERS[suite_name](config)]
    # The grid records share their maps: each distinct object is encoded
    # once, found by identity while every record holds its maps alive.
    maps = [m for _, record in pairs for m in (record.indices, record.point)]
    distinct = {id(m): m for m in maps}
    slots = dict(zip(distinct, range(len(distinct))))
    entries = json_entries(list(distinct.values()))
    texts = ["{" + text.replace("\0", ", ") + "}" for text in entries]
    # Fanned back out: two per record, indices then point.
    positions = [slots[id(m)] for m in maps]
    entries = [entries[slot] for slot in positions]
    texts = [texts[slot] for slot in positions]
    keys = [(suite_name, record.check_name, *texts[2 * i:2 * i + 2])
            for i, (suite_name, record) in enumerate(pairs)]
    order = sorted(range(len(pairs)), key=keys.__getitem__)
    return ([pairs[i] for i in order],
            [entries[j] for i in order for j in (2 * i, 2 * i + 1)])


def run_suite(name: str, config: SuiteConfig
              ) -> list[tuple[str, ResidualRecord]]:
    """Run one suite (or 'all') and return sorted (suite, record) pairs.

    The pairs are sorted stably on (suite, check name, indices, point), the
    maps compared as their compact sort_keys JSON text
    (``json.JSONEncoder(sort_keys=True).encode``), which one json_entries
    call gives for every distinct map object of the run.
    """
    return _sorted_run(name, config)[0]


def build_report(name: str, config: SuiteConfig, *,
                 _entries: list[str] | None = None) -> dict:
    """JSON-ready verification report for one suite (or 'all').

    The records come from run_suite's one sort, whose single json_entries
    call encodes each distinct indices and point map object once per
    report.  A list given as ``_entries`` (the cli's JSON render) is filled
    with those entries in record order, two per record, so the text reuses
    the sort's encode.
    """
    pairs, entries = _sorted_run(name, config)
    if _entries is not None:
        _entries[:] = entries
    records = [{
        "suite": suite,
        "name": record.check_name,
        "indices": record.indices,
        "point": record.point,
        "residual": record.residual,
        "scale": record.scale,
        "tolerance": record.tolerance,
        "passed": record.passed,
        "flagged": record.flagged,
    } for suite, record in pairs]
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


def report_exit_code(report: dict) -> int:
    """0 iff every non-flagged record passed (flagged checks never fail a run)."""
    for record in report["records"]:
        if not record["flagged"] and not record["passed"]:
            return 1
    return 0
