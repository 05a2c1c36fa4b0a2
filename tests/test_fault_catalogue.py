"""Planted-fault catalogue: which verify checks each wrong formula fails.

Each case plants one fault in-process with monkeypatch, patching every
module binding of the function it wraps.  The Z table faults wrap
``lorentz_harmonics._angular_row``: they change tables of the plain
(rapidity-side) rows, and the alternating (rotation-side) rows, which the
cached original builds from the plain row through the module's own name,
follow.  The other faults wrap the weighted element, the assembled member,
the radial solution or the plane-wave term where verify reads them.  The
run is ``verify all`` at lmax 6 and grid density 4, and each case names the
checks whose unflagged records then fail, so a new check that catches a
fault shows up here.  The faults at l = 5 pass the default config (lmax
3), whose checks stop at l = 3.

Negating one k's table in every row of a weight is no fault of Z: the two
sides' signs cancel in every product, so each Z case changes one row.  A
fault that no check fails yet is a strict xfail whose reason names the
check that would catch it.
"""

import functools

import pytest

from poincarewaves import (
    differential_checks,
    lorentz_harmonics,
    lorentz_sector,
    photon_plane_waves,
    poincare_assembly,
    suites,
)
from poincarewaves.group_kinematics import make_angles
from poincarewaves.suites import SuiteConfig, run_suite

ORIGINAL_ROW = lorentz_harmonics._angular_row


def clear_caches():
    """Clear every cache of the Z layer, found as CI's cache_info check
    finds them, and the suites' index sets: no faulted table outlives its
    case."""
    for value in [*vars(lorentz_harmonics).values(), suites._harmonic_indices]:
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def failed_checks(monkeypatch, plant):
    """The names of the unflagged checks that fail with plant's fault."""
    clear_caches()
    plant(monkeypatch)
    try:
        return {record.check_name for _, record in run_suite(
            "all", SuiteConfig(lmax=6, grid_density=4))
            if not (record.passed or record.flagged)}
    finally:
        monkeypatch.undo()
        clear_caches()


def rows(row):
    """The plant that makes row the module's cached ``_angular_row``."""
    def plant(monkeypatch):
        monkeypatch.setattr(lorentz_harmonics, "_angular_row",
                            functools.lru_cache(maxsize=None)(row))
    return plant


def plain_tables(change):
    """An ``_angular_row`` whose plain rows hold change(L, A, K, table) for
    each table; the alternating rows follow."""
    def row(L, A, alternating):
        tables = ORIGINAL_ROW(L, A, alternating)
        if alternating:
            return tables
        return tuple(change(L, A, K, table)
                     for K, table in zip(range(-L, L + 1, 2), tables))
    return row


def one_table(L0, A0, K0, factor):
    """Every coefficient of the table (L0, A0, K0), doubled, times factor."""
    return plain_tables(lambda L, A, K, table: tuple(
        (p, q, factor * c) for p, q, c in table)
        if (L, A, K) == (L0, A0, K0) else table)


def unsigned(L, A, alternating):
    """The rotation side at l = 2 without its (-1)^j signs."""
    return ORIGINAL_ROW(L, A, alternating and L != 4)


@pytest.mark.parametrize("row, caught", [
    # The wrapping alone fails nothing.
    pytest.param(ORIGINAL_ROW.__wrapped__, set(), id="no-fault"),
    pytest.param(plain_tables(lambda L, A, K, table: tuple(
        (p, q, c * (1 + 1e-6) if p - (A - K) // 2 == 2 else c)
        for p, q, c in table)),
        {"cross_formula", "casimir", "unitarity", "legendre"},
        id="j1-coefficient-scaled"),
    pytest.param(unsigned, {"cross_formula", "casimir", "unitarity", "legendre"},
                 id="l2-rotation-sign-dropped"),
    pytest.param(one_table(4, 0, 0, 1.001), {"identity", "unitarity", "casimir"},
                 id="l2-a0-k0-table-scaled"),
    pytest.param(one_table(4, 2, 0, -1.0), {"unitarity", "legendre"},
                 id="l2-a1-k0-table-negated"),
    pytest.param(one_table(10, 0, 0, 1.001), {"identity", "unitarity"},
                 id="l5-a0-k0-table-scaled"),
    pytest.param(one_table(10, 2, 0, -1.0), {"unitarity"},
                 id="l5-a1-k0-table-negated"),
])
def test_planted_table_faults_fail_these_checks(monkeypatch, row, caught):
    assert failed_checks(monkeypatch, rows(row)) == caught


def chi_sign_flipped(monkeypatch):
    """The phase sign of n chi: -chi in the weighted element, in both of its
    module bindings and in the stencils' reader."""
    element, reader = lorentz_harmonics._element, differential_checks._weighted_z

    def flipped(L, M, N, m, n, phi, epsilon, theta, tau, chi, vareps, dotted):
        return element(L, M, N, m, n, phi, epsilon, theta, tau, -chi, vareps,
                       dotted)

    def flipped_reader(idx, epsilon, tau, vareps):
        z, f = reader(idx, epsilon, tau, vareps)
        return z, lambda value, phi, chi: f(value, phi, -chi)

    for module in (lorentz_harmonics, poincare_assembly):
        monkeypatch.setattr(module, "_element", flipped)
    monkeypatch.setattr(differential_checks, "_weighted_z", flipped_reader)


def dotted_translation_unconjugated(monkeypatch):
    """translation_value without the dotted branch's conjugation."""
    monkeypatch.setattr(poincare_assembly.PoincareWaveFunction,
                        "translation_value",
                        lambda self, x, t: self.plane.value(x, t))


def radial_zero_slot_scaled(monkeypatch):
    """The radial lambda = 0 slot times 1 + 1e-9."""
    f = lorentz_sector.RadialSolution.f

    def scaled(self, lam, r, dotted=False):
        value = f(self, lam, r, dotted)
        return value * (1 + 1e-9) if lam == 0 else value

    monkeypatch.setattr(lorentz_sector.RadialSolution, "f", scaled)


def conjugate_keeps_omega(monkeypatch):
    """PlaneWaveTerm.conjugate with +omega: the conjugate wave's time
    dependence left unconjugated."""
    conjugate = photon_plane_waves.PlaneWaveTerm.conjugate

    def keeping(self):
        term = conjugate(self)
        vars(term)["omega"] = self.omega
        return term

    monkeypatch.setattr(photon_plane_waves.PlaneWaveTerm, "conjugate", keeping)


@pytest.mark.parametrize("plant, caught", [
    pytest.param(chi_sign_flipped, {"casimir", "casimir_order"},
                 id="chi-phase-sign"),
    pytest.param(dotted_translation_unconjugated, {"assembly_conjugation"},
                 id="dotted-translation-unconjugated"),
    pytest.param(radial_zero_slot_scaled, {"radial"},
                 id="radial-zero-slot-scaled"),
    pytest.param(conjugate_keeps_omega,
                 {"assembly_dirac", "dirac_form", "lagrangian", "maxwell",
                  "pairing"},
                 id="conjugate-keeps-omega"),
])
def test_planted_faults_fail_these_checks(monkeypatch, plant, caught):
    assert failed_checks(monkeypatch, plant) == caught


def vareps_decay_sign_flipped(monkeypatch):
    """The decay sign of n vareps: the weight bound's -vareps, in both of
    its module bindings."""
    bound = lorentz_harmonics._weight_bound

    def flipped(L, M, N, m, n, epsilon, tau, vareps):
        return bound(L, M, N, m, n, epsilon, tau, -vareps)

    for module in (lorentz_harmonics, differential_checks):
        monkeypatch.setattr(module, "_weight_bound", flipped)


def lorentz_factor_minus_m(monkeypatch):
    """-m in lorentz_factor's weighted element."""
    element = poincare_assembly._element

    def negated(L, M, N, m, *rest):
        return element(L, M, N, -m, *rest)

    monkeypatch.setattr(poincare_assembly, "_element", negated)


def dotted_radius_unconjugated(monkeypatch):
    """lorentz_factor's dotted branch handed r*, which it conjugates back:
    the radial function reads r instead of r*."""
    factor = poincare_assembly.PoincareWaveFunction.lorentz_factor

    def handed_conjugate(self, r, angles):
        return factor(self, complex(r).conjugate() if self.dotted else r,
                      angles)

    monkeypatch.setattr(poincare_assembly.PoincareWaveFunction,
                        "lorentz_factor", handed_conjugate)


#: The l = 2, k = 0 table negated in every plain row: both factor halves
#: change sign at that k, which cancels in every Z product.
FACTOR_HALF_SIGN = plain_tables(lambda L, A, K, table: tuple(
    (p, q, -c) for p, q, c in table) if (L, K) == (4, 0) else table)


def angles():
    """Fresh angles per probe, as member() builds a fresh member: a value
    taken before a plant is not read back after it."""
    return make_angles(0.3, 0.2, 1.0, 0.2, 0.4, 0.5)


def member(dotted):
    return poincare_assembly.PoincareWaveFunction(
        (1.0, 2.0, 3.0), 1, 1,
        lorentz_sector.RadialSolution(l=1, C=0.6 + 0.2j, Cdot=-0.4 + 1.0j),
        dotted)


#: (id, plant, probe, item): each fault that no check fails yet, a value
#: that it changes, and the check that would catch it.
ESCAPES = [
    ("vareps-decay-sign", vareps_decay_sign_flipped,
     lambda: lorentz_harmonics.generalized_m(
         lorentz_harmonics.HarmonicIndex(1, 0, 1), angles()),
     "a check that differentiates M along vareps, such as the contour "
     "engine on the varpi plane (ROADMAP item 11)"),
    ("lorentz-factor-minus-m", lorentz_factor_minus_m,
     lambda: member(False).lorentz_factor(0.9 + 0.4j, angles()),
     "the assembled member checked against its equations (ROADMAP item 3)"),
    ("dotted-radius-unconjugated", dotted_radius_unconjugated,
     lambda: member(True).lorentz_factor(0.9 + 0.4j, angles()),
     "the assembled member checked against its equations (ROADMAP item 3)"),
    ("factor-half-sign", rows(FACTOR_HALF_SIGN),
     lambda: lorentz_harmonics.su2_factor_p(2, 1, 0, 1.0),
     "one factor half checked against an independent reference (ROADMAP "
     "item 2)"),
]


@pytest.mark.parametrize("plant, probe", [case[1:3] for case in ESCAPES],
                         ids=[case[0] for case in ESCAPES])
def test_escaped_fault_changes_a_value(monkeypatch, plant, probe):
    # The escapes below are faults verify misses, not plants that miss.
    before = probe()
    clear_caches()
    plant(monkeypatch)
    try:
        assert probe() != before
    finally:
        monkeypatch.undo()
        clear_caches()


@pytest.mark.parametrize("plant", [
    pytest.param(plant, id=name, marks=pytest.mark.xfail(
        strict=True, reason=f"needs {item}"))
    for name, plant, _, item in ESCAPES])
def test_planted_fault_is_caught(monkeypatch, plant):
    assert failed_checks(monkeypatch, plant)
