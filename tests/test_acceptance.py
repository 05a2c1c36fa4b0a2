"""Acceptance gate: the eleven binding criteria, one test (and line) each.

Every criterion runs at its stated tolerance against independently computed
references; nothing here is weakened to pass.  Sampled points are drawn from
fixed-seed generators so failures reproduce exactly.
"""

import cmath
import json
import math
import time

import numpy as np
from click.testing import CliRunner

from oracles import wigner_d
from poincarewaves.cli import main
from poincarewaves.differential_checks import (
    casimir_convergence_order,
    casimir_x2_residual,
    casimir_y2_residual,
    legendre_residual,
)
from poincarewaves.group_kinematics import make_angles
from poincarewaves.lorentz_harmonics import (
    HarmonicIndex,
    generalized_m,
    qu2_factor_jacobi,
    su2_factor_p,
    z_2f1,
    z_sum,
)
from poincarewaves.lorentz_sector import (
    RadialSolution,
    radial_ladder,
    radial_residual,
)
from poincarewaves.photon_plane_waves import (
    NORMALIZATION,
    FieldPair,
    PhotonPlaneWave,
    WaveVector,
    dirac_form_residual,
    dirac_form_scale,
    eigenstructure,
    lagrangian_density_translation,
    maxwell_residuals,
    polarization_vectors,
)
from poincarewaves.poincare_assembly import (
    PoincareWaveFunction,
    build_catalog,
    physical_filter,
)
from poincarewaves.suites import SuiteConfig, build_report, report_exit_code

GRID_THETA = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi - 0.01)
GRID_TAU = (-1.0, -0.3, 0.0, 0.3, 1.0)
K_SET = ((0.0, 0.0, 1.0), (3.0, 4.0, 0.0), (1.0, 1.0, 1.0),
         (1.0, 2.0, 3.0), (-0.7, 0.4, 2.1))


def all_l(lmax):
    return [k / 2.0 for k in range(0, 2 * lmax + 1)]


def projections(l):
    return [-l + j for j in range(int(round(2 * l)) + 1)]


def report(criterion, message):
    print(f"criterion {criterion:02d} PASS: {message}")


def test_criterion_01_cross_formula_agreement():
    """Exact-coefficient sums match the terminating-series route to 1e-10."""
    start = time.perf_counter()
    comparisons = 0
    for l in all_l(4):
        for m in projections(l):
            for n in projections(l):
                idx = HarmonicIndex(l, m, n)
                for theta in GRID_THETA:
                    for tau in GRID_TAU:
                        direct = z_sum(idx, theta, tau)
                        series = z_2f1(idx, theta, tau)
                        assert abs(direct - series) <= 1e-10 * max(1.0, abs(direct)), (
                            l, m, n, theta, tau, direct, series)
                        comparisons += 1
    elapsed = time.perf_counter() - start
    assert comparisons >= 2000, comparisons
    assert elapsed < 10.0, elapsed
    report(1, f"{comparisons} comparisons within 1e-10 in {elapsed:.2f}s")


def test_criterion_02_factorization():
    """Z equals its compact-by-noncompact factor sum to 1e-10 on the grid."""
    for l in all_l(4):
        ms = projections(l)
        for m in ms:
            for n in ms:
                idx = HarmonicIndex(l, m, n)
                for theta in GRID_THETA:
                    for tau in GRID_TAU:
                        total = sum(
                            su2_factor_p(l, m, k, theta)
                            * qu2_factor_jacobi(l, k, n, tau) for k in ms)
                        direct = z_sum(idx, theta, tau)
                        assert abs(total - direct) <= 1e-10 * max(1.0, abs(direct)), (
                            l, m, n, theta, tau)
    report(2, "factor sums match the direct values within 1e-10 (l <= 4)")


def test_criterion_03_identity_unitarity_and_magnitude():
    """Kronecker start, tau=0 unitarity, and rotation-magnitude agreement."""
    for l in all_l(4):
        ms = projections(l)
        for m in ms:
            for n in ms:
                expected = 1.0 if m == n else 0.0
                assert z_sum(HarmonicIndex(l, m, n), 0.0, 0.0) == expected
        dim = len(ms)
        for theta in GRID_THETA:
            matrix = np.array([[z_sum(HarmonicIndex(l, m, n), theta, 0.0)
                                for n in ms] for m in ms])
            assert np.abs(matrix @ matrix.conj().T
                          - np.eye(dim)).max() <= 1e-10, (l, theta)
            for m in ms:
                for n in ms:
                    magnitude = abs(z_sum(HarmonicIndex(l, m, n), theta, 0.0))
                    assert abs(magnitude - abs(wigner_d(l, m, n, theta))
                               ) <= 1e-10, (l, m, n, theta)
    report(3, "identity at the origin, unitary at tau=0, magnitudes match "
              "the independent rotation oracle (1e-10)")


def test_criterion_04_casimir_residuals():
    """Both quadratic operators reproduce l(l+1) to 1e-6 after extrapolation."""
    rng = np.random.default_rng(20260819)
    checked = {"x2": 0, "y2": 0}
    for l in all_l(3):
        ms = projections(l)
        for _ in range(3):
            m = ms[int(rng.integers(0, len(ms)))]
            n = ms[int(rng.integers(0, len(ms)))]
            angles = make_angles(
                float(rng.uniform(0.0, 2 * math.pi - 1e-9)),
                float(rng.normal() * 0.5),
                float(rng.uniform(0.15, math.pi - 0.15)),
                float(rng.normal() * 0.5),
                float(rng.uniform(-2 * math.pi, 2 * math.pi - 1e-9)),
                float(rng.normal() * 0.5))
            residual, scale = casimir_x2_residual(HarmonicIndex(l, m, n),
                                                  angles)
            assert residual <= 1e-6 * max(1.0, scale), (l, m, n, residual)
            checked["x2"] += 1
            residual, scale = casimir_y2_residual(
                HarmonicIndex(l, m, n, dotted=True), angles)
            assert residual <= 1e-6 * max(1.0, scale), (l, m, n, residual)
            checked["y2"] += 1
    assert checked["x2"] >= 20 and checked["y2"] >= 20, checked
    angles = make_angles(0.4, 0.25, 0.9, 0.35, 1.1, -0.2)
    for dotted in (False, True):
        idx = HarmonicIndex(1, 1, -1, dotted=dotted)
        order = casimir_convergence_order(idx, angles)
        assert abs(order - 2.0) <= 0.3, order
    report(4, f"{checked['x2']}+{checked['y2']} generic points within 1e-6; "
              "stencil order 2 +- 0.3 for both operators")


def test_criterion_05_legendre_residuals():
    """The second-order equation in cos(theta_c) holds to 1e-6 off-singular."""
    rng = np.random.default_rng(20260820)
    count = 0
    for l in all_l(3):
        ms = projections(l)
        for _ in range(2):
            m = ms[int(rng.integers(0, len(ms)))]
            n = ms[int(rng.integers(0, len(ms)))]
            theta = float(rng.uniform(0.25, math.pi - 0.25))
            tau = float(rng.normal() * 0.4)
            for dotted in (False, True):
                residual, scale = legendre_residual(
                    HarmonicIndex(l, m, n, dotted=dotted), theta, tau)
                assert residual <= 1e-6 * max(1.0, scale), (
                    l, m, n, dotted, residual)
                count += 1
    report(5, f"{count} evaluations of the second-order equation within 1e-6")


def test_criterion_06_eigenstructure_thousand_wavevectors():
    """Spectrum, unit polarizations, phase alignment, degenerate continuity."""
    rng = np.random.default_rng(20260821)
    checked = 0
    while checked < 1000:
        k = rng.normal(size=3)
        norm = float(np.linalg.norm(k))
        if norm < 1e-2:
            continue
        values, vectors = eigenstructure(k)
        expected = np.array([-norm, 0.0, norm])
        assert np.abs(values - expected).max() <= 1e-10 * max(1.0, norm)
        pol = polarization_vectors(k)
        for eps in (pol.eps_plus, pol.eps_minus, pol.eps_zero):
            assert abs(np.linalg.norm(eps) - 1.0) <= 1e-10
        assert abs(k @ pol.eps_plus) <= 1e-10 * max(1.0, norm)
        assert abs(k @ pol.eps_minus) <= 1e-10 * max(1.0, norm)
        for vector, eps in ((vectors[:, 2], pol.eps_plus),
                            (vectors[:, 0], pol.eps_minus),
                            (vectors[:, 1], pol.eps_zero)):
            assert abs(abs(np.vdot(vector, eps)) - 1.0) <= 1e-10
        checked += 1
    near = polarization_vectors((1e-6, 0.0, 1.0))
    axis = polarization_vectors((0.0, 0.0, 1.0))
    for a, b in ((near.eps_plus, axis.eps_plus),
                 (near.eps_minus, axis.eps_minus),
                 (near.eps_zero, axis.eps_zero)):
        assert np.abs(a - b).max() <= 1e-5
    report(6, "1000 wavevectors: spectrum, norms, transversality, and phase "
              "alignment within 1e-10; axis limit continuous at 1e-6 offset")


def test_criterion_07_maxwell_and_pairing():
    """Transverse modes solve all four field equations; longitudinal fails
    both divergences; conjugation swaps the two first-order systems."""
    points = (((0.23, -0.41, 0.57), 0.31), ((1.0, 0.2, -0.73), -1.4))
    for k in K_SET:
        norm = math.hypot(*k)
        for lam in (1, -1):
            for x, t in points:
                assert max(maxwell_residuals(k, lam, x, t)) <= 1e-12, (k, lam)
        karr = np.asarray(k)
        x_adapted = tuple(0.7 * karr / (karr @ karr))
        faraday, ampere, div_e, div_b = maxwell_residuals(k, 0, x_adapted, 0.31)
        assert faraday <= 1e-12 and ampere <= 1e-12, k
        floor = 0.1 * NORMALIZATION * norm
        assert div_e > floor and div_b > floor, (k, div_e, div_b)
        for lam in (1, 0, -1):
            u1 = PhotonPlaneWave(k, lam).me1()
            u2 = PhotonPlaneWave(k, lam).me2()
            scale = dirac_form_scale(u1)
            for x, t in points:
                assert dirac_form_residual(u1, "ME1", x, t) <= 1e-12 * max(1.0, scale)
                assert dirac_form_residual(u2, "ME2", x, t) <= 1e-12 * max(1.0, scale)
                conj1 = [term.conjugate() for term in u1]
                conj2 = [term.conjugate() for term in u2]
                assert dirac_form_residual(conj1, "ME2", x, t) <= 1e-12 * max(1.0, scale)
                assert dirac_form_residual(conj2, "ME1", x, t) <= 1e-12 * max(1.0, scale)
        mixed = [*PhotonPlaneWave(k, 1).me1(), *PhotonPlaneWave(k, -1).me1()]
        conj_mixed = [term.conjugate() for term in mixed]
        scale = dirac_form_scale(mixed)
        for x, t in points:
            assert dirac_form_residual(conj_mixed, "ME2", x, t) <= 1e-12 * max(1.0, scale)
    report(7, "four field equations hold to 1e-12 for both transverse modes; "
              "the longitudinal control violates both divergences; "
              "conjugation pairing holds to 1e-12")


def test_criterion_08_energy_and_lagrangian():
    """psi-bar Gamma_0 psi equals 2(|E|^2+|B|^2) and L vanishes on-shell."""
    rng = np.random.default_rng(20260822)
    for _ in range(1000):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        direct = float(np.real(psi.conjugate() @ psi))
        pair = FieldPair.from_value(psi)
        dual = 2.0 * float(np.linalg.norm(pair.E) ** 2
                           + np.linalg.norm(pair.B) ** 2)
        assert abs(direct - dual) <= 1e-12 * max(1.0, direct)
    points = (((0.23, -0.41, 0.57), 0.31), ((0.5, -1.0, 0.25), 2.0))
    for k in K_SET:
        for lam in (1, 0, -1):
            column = PhotonPlaneWave(k, lam).me6()
            for x, t in points:
                assert abs(lagrangian_density_translation(column, x, t)
                           ) <= 1e-12, (k, lam)
    report(8, "energy dual formula within 1e-12 on 1000 random values; "
              "on-shell Lagrangian density below 1e-12")


def test_criterion_09_radial_solutions():
    """Corrected solutions solve the four equations on complex-radius rings;
    the original linear coefficient misses by exactly the predicted rate."""
    radii = (0.1, 1.0, 10.0)
    phases = tuple(math.pi * j / 8.0 for j in range(-7, 9, 2))
    rings = [radius * cmath.exp(1j * phase)
             for radius in radii for phase in phases]
    for l in (1, 2, 3):
        corrected = RadialSolution(l=l, C=1.3 - 0.4j, Cdot=0.25 + 2.0j,
                                   variant="corrected")
        for r in rings:
            assert max(abs(eq) for eq in radial_residual(l, corrected, r)
                       ) <= 1e-12, (l, r)
        paper = RadialSolution(l=l, C=1.3 - 0.4j, Cdot=0.25 + 2.0j,
                               variant="paper")
        rate = radial_ladder(l) - 2.0 * l * (l + 1)
        for r in rings:
            eq1, eq2, eq3, eq4 = radial_residual(l, paper, r)
            assert abs(eq1 - rate * r) <= 1e-12 * max(1.0, abs(rate * r))
            assert abs(eq2 + rate * r) <= 1e-12 * max(1.0, abs(rate * r))
            assert abs(eq3 - rate * r.conjugate()) <= 1e-12 * max(1.0, abs(rate * r))
            assert abs(eq4 + rate * r.conjugate()) <= 1e-12 * max(1.0, abs(rate * r))
    paper_report = build_report("radial", SuiteConfig(variant="paper"))
    failures = [r for r in paper_report["records"] if not r["passed"]]
    assert failures and all(r["flagged"] for r in failures)
    assert report_exit_code(paper_report) == 0
    report(9, "corrected variant solves all four equations to 1e-12 on the "
              "rings; original variant deviates by exactly "
              "(sqrt(2l(l+1)) - 2l(l+1)) r and reports as flagged")


def test_criterion_10_assembly_factorization():
    """Translation x (radial x angular) recomposition at 100 random points;
    the physical filter keeps exactly the two transverse solutions."""
    rng = np.random.default_rng(20260823)
    radial = RadialSolution(l=1, C=0.6 + 0.2j, Cdot=-0.4 + 1.0j)
    for _ in range(100):
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
        angles = make_angles(
            float(rng.uniform(0.0, 2 * math.pi - 1e-9)),
            float(rng.normal() * 0.5),
            float(rng.uniform(0.15, math.pi - 0.15)),
            float(rng.normal() * 0.5),
            float(rng.uniform(-2 * math.pi, 2 * math.pi - 1e-9)),
            float(rng.normal() * 0.5))
        wave = PoincareWaveFunction(WaveVector(*(float(v) for v in k)),
                                    lam, 1, radial, dotted)
        value = wave.value(x, t, r, angles)
        translation = PhotonPlaneWave(tuple(k), lam).value(x, t)
        radius = r
        if dotted:
            translation, radius = translation.conjugate(), r.conjugate()
        zeroed = make_angles(angles.phi, angles.epsilon, angles.theta,
                             angles.tau, 0.0, 0.0)
        angular = generalized_m(HarmonicIndex(1, lam, 0, dotted), zeroed)
        recomposed = translation * (radial.select(lam, dotted)(radius) * angular)
        magnitude = float(np.abs(recomposed).max())
        assert np.abs(value - recomposed).max() <= 1e-12 * max(1.0, magnitude)
    catalog = build_catalog((1.0, 2.0, 3.0), 1, radial)
    members = physical_filter(catalog)
    assert {member.label for member in members} == {"psi_+1", "psi_-1"}
    report(10, "100 random configuration points recompose within 1e-12; "
               "the physical filter keeps exactly the two transverse columns")


def test_criterion_11_verify_all_fast_and_deterministic():
    """The full verification command finishes under 60 s, exits 0, and is
    byte-identical under a fixed seed."""
    runner = CliRunner()
    start = time.perf_counter()
    first = runner.invoke(main, ["verify", "all", "--seed", "123"])
    first_elapsed = time.perf_counter() - start
    assert first.exit_code == 0, first.output[-2000:]
    assert first_elapsed < 60.0, first_elapsed
    second = runner.invoke(main, ["verify", "all", "--seed", "123"])
    assert second.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes
    payload = json.loads(first.output)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["passed"] > 0
    report(11, f"verify all ran in {first_elapsed:.2f}s, exit 0, "
               "byte-identical across runs")
