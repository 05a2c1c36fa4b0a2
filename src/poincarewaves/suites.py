"""Verification suites: every residual family as sorted record lists.

Each suite builder takes a SuiteConfig and returns its ResidualRecords, each
already in the report's form (see make_record); the two Z grid suites build
theirs weight by weight in one pass over each weight's grid, a bounded chunk
of it at a time from the grid engine behind z_sum_grid and ``table z``, and
their records share one indices map per index and one point map per grid
point, made afresh for each report (see _grid_records).  A report encodes
each distinct map object once (see _sorted_run).  Determinism contract: all
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
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

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
from .group_kinematics import ComplexEulerAngles, _finite, make_angles
from .lorentz_harmonics import (
    _MAX_WEIGHT,
    HarmonicIndex,
    _chunks,
    z_sum,  # no suite calls it; perfbench's tracer wraps suites.z_sum
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
    _as_wavevector,
    _check_c,
    _dirac_residuals,
    _dirac_scales,
    _energy_identity,
    _lagrangians,
    _maxwell_residuals,
    _squares,
    _stack,
    _trusted,
    commutator_sign,
    dirac_form_residual,
    dirac_form_scale,
    eigenstructure,
    energy_density,
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

#: The one encoder of the report and table texts: every raw "\0" in its text
#: is a separator, as JSON escapes control characters (sort_keys changes
#: nothing for a list of scalars).
_NUL_JSON = json.JSONEncoder(sort_keys=True, separators=("\0", ": ")).encode


def _json_texts(values: list) -> list[str]:
    """The JSON text of each scalar item of values, from one encode."""
    return _NUL_JSON(values)[1:-1].split("\0")


def _json_entries(maps: Sequence[Mapping[str, object]]) -> list[str]:
    r"""Each flat map's sort_keys JSON entries joined by "\0", from one encode.
    "}\0{" falls only between maps of scalars; a map's compact sort_keys JSON
    text is "{" + entries.replace("\0", ", ") + "}"."""
    text = _NUL_JSON(maps)
    return text[2:-2].split("}\0{") if text != "[]" else []


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


def _unknown_check(name: str) -> ValueError:
    return ValueError(f"unknown tolerance name {name!r}; "
                      f"valid names: {', '.join(sorted(DEFAULT_TOLERANCES))}")


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
        # A density of at most 999 keeps each weight's (d + 1)^2 grid within
        # the 1 000 000 points of the CLI's largest table.
        for name, low, high, wording in (
                ("lmax", 0, _MAX_WEIGHT, f"an integer in [0, {_MAX_WEIGHT}]"),
                ("grid_density", 2, 999, "an integer in [2, 999]"),
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
                raise _unknown_check(name)
            value = _finite(f"tolerance {name}", value)
            if not value >= 0:
                raise ValueError(
                    f"tolerance {name} must be >= 0, got {value!r}")
            resolved[name] = value
        object.__setattr__(self, "tolerances", resolved)
        object.__setattr__(self, "corrected_lambda", bool(self.corrected_lambda))

    def tolerance(self, name: str) -> float:
        try:
            return self.tolerances.get(name, DEFAULT_TOLERANCES[name])
        except KeyError:
            raise _unknown_check(name) from None

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
    (frozen, so one tuple per weight serves every report).  The doubled
    triples are valid by construction, so they skip the constructor's
    validation: each index equals HarmonicIndex(l, m, n) field for field."""
    L = round(2 * l)
    doubled = range(-L, L + 1, 2)
    return tuple(_trusted(HarmonicIndex, l=L / 2, m=M / 2, n=N / 2,
                          dotted=False, doubled=(L, M, N))
                 for M in doubled for N in doubled)


def _modulus(values: np.ndarray) -> np.ndarray:
    """|values| by libm hypot, as Python's abs(complex): np.abs rounds many
    moduli differently in the last bit, and records must match a scalar rescan."""
    return np.hypot(values.real, values.imag)


class _Worst:
    """Per index, the point of largest residual / max(1, scale) over the
    chunks seen so far, as argmax over the whole grid finds it: a tie keeps
    the first point in row-major order (theta outer), whatever order the
    chunks come in."""

    def __init__(self):
        self.found = None  # per index: ratio, flat position, residual, scale

    def update(self, residual: np.ndarray, scale: np.ndarray,
               positions: np.ndarray) -> None:
        """Take in one chunk: residual and scale shaped (indices, rows,
        taus), positions (rows, taus) the flat grid position of each point,
        ascending in row-major order."""
        residual = residual.reshape(len(residual), -1)
        scale = scale.reshape(len(residual), -1)
        ratio = residual / np.maximum(1.0, scale)
        at = ratio.argmax(axis=1)
        rows = np.arange(len(ratio))
        found = (ratio[rows, at], positions.ravel()[at], residual[rows, at],
                 scale[rows, at])
        if self.found is not None:
            better = (found[0] > self.found[0]) | (
                (found[0] == self.found[0]) & (found[1] < self.found[1]))
            found = tuple(np.where(better, new, old)
                          for new, old in zip(found, self.found))
        self.found = found

    def records(self, config: SuiteConfig, check: str, index_maps: list,
                point_map: Callable[[int], dict]) -> list[ResidualRecord]:
        """One record per index, at its worst point, whose map is
        point_map(flat position).  The maps are already in make_record's
        form and the measurements become Python floats by .tolist(), so the
        records are built directly."""
        _, points, residuals, scales = (part.tolist() for part in self.found)
        tolerance = config.tolerance(check)
        return [ResidualRecord(check, index_map, point_map(point), value,
                               size, tolerance)
                for index_map, point, value, size in zip(
                    index_maps, points, residuals, scales)]


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
    while math.sqrt(k.dot(k)) < 1e-2:
        k = rng.normal(size=3)
    return k


# ---------------------------------------------------------------------------
# Suite builders
# ---------------------------------------------------------------------------

#: The Z grid suites, each with the check name of its per-index records.
_GRID_SUITES = {"hypergeom": "cross_formula", "factorization": "factorization"}

def _grid_records(config: SuiteConfig, names: list[str]
                  ) -> list[tuple[str, ResidualRecord]]:
    """(suite, record) pairs of the named Z grid suites, weight by weight.

    Each weight's z_sum grid spans (0, *thetas) x (*taus, 0): row 0 is
    theta = 0 and the last column tau = 0, so it also holds Z(0, 0) and the
    rotations Z(theta, 0).  ``lorentz_harmonics._chunks`` gives it a chunk
    of angles at a time, with the z_2f1 grid and the factor halves over the
    chunk's inner points; the direct grid's modulus is the scale of both
    suites.  Each index keeps its worst point across chunks (see _Worst);
    identity and unitarity come from the chunks that hold the tau = 0
    column, identity from the first.  The config's angles lie inside every
    weight's domain.  The records share one indices map per index and one
    point map per grid point (made when a record first names that point),
    all for this call alone: a caller may change the maps of the records it
    gets.
    """
    thetas, taus = _theta_grid(config), _tau_grid(config)
    point_maps = {}  # flat grid position -> its map, made on first use

    def point_map(position: int) -> dict[str, float]:
        if position not in point_maps:
            row, column = divmod(position, len(taus))
            point_maps[position] = {"theta": thetas[row], "tau": taus[column]}
        return point_maps[position]

    pairs = []
    for l in _l_values(config.lmax) if names else []:
        indices = _harmonic_indices(l)
        index_maps = [{"l": idx.l, "m": idx.m, "n": idx.n} for idx in indices]
        dimension = len(_projections(l))
        rows = range(dimension)
        worst = {name: _Worst() for name in names}
        unitarity = (-1.0, 0)  # worst deviation and its theta's position
        for i, j, summed in _chunks(dimension - 1, rows, rows, (0.0, *thetas),
                                    (*taus, 0.0), lead=1, trail=1):
            direct = summed("folded")
            # The first theta chunk also spans the theta = 0 row, the last
            # tau chunk the tau = 0 column.
            first = int(i == 0)
            inner = direct[:, first:, :len(taus) - j]
            scale = _modulus(inner)
            _, height, width = inner.shape
            positions = np.add.outer(np.arange(i, i + height) * len(taus),
                                     np.arange(j, j + width))
            if "factorization" in names:
                # sum_k P^l_mk(cos theta) Q^l_kn(cosh tau), from the halves.
                factored = summed("tangent")
                factored -= inner  # in place: one grid fewer at the chunk peak
                worst["factorization"].update(_modulus(factored), scale,
                                              positions)
                del factored
            if "hypergeom" in names:
                series = summed("hypergeometric")
                np.subtract(inner, series, out=series)
                worst["hypergeom"].update(_modulus(series), scale, positions)
                del series
            if "hypergeom" in names and width < direct.shape[2]:
                # Z(theta, 0) as (m, n) matrices, theta = 0 first.
                matrices = direct[:, :, -1].T.reshape(-1, dimension, dimension)
                if first:
                    identity = _modulus(matrices[0] - np.eye(dimension)).max()
                deviations = [
                    float(np.abs(u @ u.conj().T - np.eye(dimension)).max())
                    for u in matrices[first:]]
                at = int(np.argmax(deviations))
                if deviations[at] > unitarity[0]:
                    unitarity = (deviations[at], i + at)
                del matrices
            # Drop this chunk's grids and side blocks before the next one.
            del direct, inner, scale, summed
        for name in names:
            records = worst[name].records(config, _GRID_SUITES[name],
                                          index_maps, point_map)
            if name == "hypergeom":
                records.append(config.record(
                    "identity", {"l": float(l)}, {"theta": 0.0, "tau": 0.0},
                    identity, 1.0))
                deviation, at = unitarity
                records.append(config.record(
                    "unitarity", {"l": float(l)},
                    {"theta": thetas[at], "tau": 0.0}, deviation, 1.0))
            pairs += [(name, record) for record in records]
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
        point = {"phi": angles.phi, "epsilon": angles.epsilon,
                 "theta": angles.theta, "tau": angles.tau,
                 "chi": angles.chi, "vareps": angles.vareps}
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
    values, vectors = eigenstructure(wavevectors, c)
    ks = np.array([kv.array for kv in wavevectors])
    norms = np.sqrt(_squares(ks))
    spectrum = np.abs(values - c * norms[:, None] * [-1.0, 0.0, 1.0]).max(axis=1)
    labels = [{"k": _k_label(k)} for _, k in cases]
    for (indices, _), label, residual, scale in zip(
            cases, labels, spectrum.tolist(), np.maximum(1.0, c * norms).tolist()):
        records.append(config.record(
            "eigen_spectrum", indices, label, residual, scale))
    # The draws' triples stacked as (draw, eps_+ / eps_- / eps_0, component),
    # against the eigenvector columns of +c|k|, -c|k| and 0.
    triples = np.array([[triple.eps_plus, triple.eps_minus, triple.eps_zero]
                        for triple in map(polarization_vectors, wavevectors[2:])])
    columns = vectors[2:, :, [2, 0, 1]].transpose(0, 2, 1)
    overlaps = np.abs((columns.conj() * triples).sum(axis=-1))
    alignment = np.abs(overlaps - 1.0).max(axis=1)
    first = triples[:20]
    transverse = (np.abs((ks[2:22, None] * first[:, :2]).sum(axis=-1))
                  / np.maximum(1.0, norms[2:22, None]))
    gram = np.abs((first[:, [0, 0, 1]].conj() * first[:, [1, 2, 2]]).sum(axis=-1))
    worst = np.concatenate([np.abs(np.sqrt(_squares(first)) - 1.0), transverse, gram],
                           axis=1).max(axis=1)
    for (indices, _), label, aligned in zip(draws, labels[2:],
                                            alignment.tolist()):
        records.append(config.record(
            "eigen_alignment", indices, label, aligned, 1.0))
    for (indices, _), label, residual in zip(draws, labels[2:], worst.tolist()):
        records.append(config.record(
            "polarization", indices, label, residual, 1.0))
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
    """The 15 modes, k outer and helicity +1, 0, -1 inner, each built once,
    and the off-shell controls, each family evaluated by one kernel call."""
    rng = config.rng(6)
    c = config.c
    # The random amplitudes in the order the suite has always drawn them: per
    # k the Dirac-form control's 3-vector and the Lagrangian control's
    # 6-vector, then the energy-dual values.
    controls = [(rng.normal(size=3) + 1j * rng.normal(size=3),
                 rng.normal(size=6) + 1j * rng.normal(size=6)) for _ in _K_SET]
    duals = np.array([rng.normal(size=6) + 1j * rng.normal(size=6)
                      for _ in range(100)])
    labels = [_k_label(k) for k in _K_SET]
    norms = [math.hypot(*k) for k in _K_SET]
    located = [_generic_point_for(k) for k in _K_SET]
    ats = [{"x": _k_label(point), "t": t} for point, t in located]
    at = (np.array([point for point, _ in located]),
          np.array([t for _, t in located]))
    at_modes = tuple(np.repeat(values, 3, axis=0) for values in at)
    modes = [PhotonPlaneWave(kv, lam, c)
             for kv in map(_as_wavevector, _K_SET) for lam in (1, 0, -1)]
    faraday, ampere, div_e, div_b = (part.tolist() for part in _maxwell_residuals(
        *(_stack(side, 3, "Maxwell residual")
          for side in zip(*(mode.fields() for mode in modes))), *at_modes, c))
    members = {"ME1": _stack([mode.me1() for mode in modes], 3, "ME1 residual"),
               "ME2": _stack([mode.me2() for mode in modes], 3, "ME2 residual"),
               "ME6": _stack([mode.me6() for mode in modes], 6, "ME6 residual")}
    members["ANTI"] = members["ME6"]
    dirac = {equation: (_dirac_residuals(bundle, *at_modes, c, equation).tolist(),
                        _dirac_scales(bundle, c).tolist())
             for equation, bundle in members.items()}
    lagrangians = np.abs(_lagrangians(members["ME6"], *at_modes, c)).tolist()
    records = []
    for m, mode in enumerate(modes):
        i = m // 3
        indices = {"k": labels[i], "lam": mode.lam}
        scale = max(1.0, norms[i])
        if mode.lam:
            records.append(config.record(
                "maxwell", indices, ats[i],
                max(faraday[m], ampere[m], div_e[m], div_b[m]), scale))
        else:
            records.append(config.record(
                "maxwell", {**indices, "part": "curl"}, ats[i],
                max(faraday[m], ampere[m]), scale))
            records.append(config.record(
                "maxwell_control", indices,
                {**ats[i], "div_e": div_e[m], "div_b": div_b[m]},
                _deficit(0.1 * NORMALIZATION * norms[i], min(div_e[m], div_b[m])),
                1.0))
        for equation, (residuals, scales) in dirac.items():
            records.append(config.record(
                "dirac_form", {**indices, "equation": equation}, ats[i],
                residuals[m], scales[m]))
        records.append(config.record("lagrangian", indices, ats[i],
                                     lagrangians[m], 1.0))
    # Per k, one off-shell term of k and omega = c|k| for each control.
    kvecs, omegas = np.array(_K_SET)[:, None], c * np.array(norms)[:, None]
    random, off_shell = ((np.array(amplitudes)[:, None], kvecs, omegas)
                         for amplitudes in zip(*controls))
    observed = {equation: _dirac_residuals(random, *at, c, equation).tolist()
                for equation in ("ME1", "ME2")}
    thresholds = (0.1 * _dirac_scales(random, c)).tolist()
    off_observed = np.abs(_lagrangians(off_shell, *at, c)).tolist()
    # ME2 of the +1 and -1 modes together, scaled by their ME1 members: per
    # k, the +1 and -1 rows of each member stack joined on the term axis.
    me1, me2 = (tuple(np.concatenate([part[0::3], part[2::3]], axis=1)
                      for part in members[equation]) for equation in ("ME1", "ME2"))
    pairing = _dirac_residuals(me2, *at, c, "ME2").tolist()
    pairing_scales = _dirac_scales(me1, c).tolist()
    for i, label in enumerate(labels):
        for equation, values in observed.items():
            records.append(config.record(
                "dirac_control", {"k": label, "equation": equation},
                {"observed": values[i], "threshold": thresholds[i]},
                _deficit(thresholds[i], values[i]), 1.0))
        records.append(config.record(
            "lagrangian_control", {"k": label},
            {"observed": off_observed[i], "threshold": 1e-6},
            _deficit(1e-6, off_observed[i]), 1.0))
        records.append(config.record("pairing", {"k": label}, ats[i],
                                     pairing[i], pairing_scales[i]))
        wave = modes[3 * i]
        reference = energy_density(wave.value((0.0, 0.0, 0.0), 0.0))
        drift = max(abs(energy_density(wave.value(x, s)) - reference)
                    for x, s in (located[i], ((1.7, -0.3, 0.4), -2.0)))
        records.append(config.record(
            "energy", {"k": label, "kind": "constancy"},
            {"reference": reference}, drift, max(1.0, reference)))
    direct, dual = (values.tolist() for values in _energy_identity(duals))
    for draw, (value, twin) in enumerate(zip(direct, dual)):
        records.append(config.record(
            "energy", {"draw": draw, "kind": "dual"}, {},
            abs(value - twin), max(1.0, value)))
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
        translation = wave.translation_value(x, t)
        factor = wave.lorentz_factor(r, angles)
        value = translation * factor  # PoincareWaveFunction.value's product
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
    _json_entries in the same order (two per record, from one encode of the
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
    entries = _json_entries(list(distinct.values()))
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
    (``json.JSONEncoder(sort_keys=True).encode``), which one encode gives
    for every distinct map object of the run.
    """
    return _sorted_run(name, config)[0]


def build_report(name: str, config: SuiteConfig, *,
                 _entries: list[str] | None = None) -> dict:
    """JSON-ready verification report for one suite (or 'all').

    The records come from run_suite's one sort, whose single encode covers
    each distinct indices and point map object once per report.  A list
    given as ``_entries`` (the cli's JSON render) is filled with those
    entries in record order, two per record, so the text reuses the sort's
    encode.
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
