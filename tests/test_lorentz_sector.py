"""Tests for the boost-rotation sector: spin-block matrices, the radial
system and its closed-form solutions, and the boost-rotation factors
f^l_{1,lam}(r) M^lam_l of the assembled catalog members."""

import cmath
import math

import numpy as np
import pytest

from poincarewaves.group_kinematics import make_angles
from poincarewaves.lorentz_harmonics import (
    HarmonicIndex,
    generalized_m,
    zonal_z,
)
from poincarewaves.lorentz_sector import (
    RadialSolution,
    angular_order,
    build_matrices,
    radial_ladder,
    radial_residual,
)
from poincarewaves.poincare_assembly import build_catalog


class TestBuildMatrices:
    def test_lambda3_diagonal(self):
        mats = build_matrices(corrected=True)
        assert np.array_equal(mats.lambdas[2], np.diag([1.0, 0.0, -1.0]))

    def test_corrected_casimir_is_two_identity(self):
        mats = build_matrices(corrected=True)
        assert np.abs(mats.casimir() - 2.0 * np.eye(3)).max() < 1e-12
        assert mats.casimir_defect() < 1e-12

    def test_corrected_commutator_sign_plus_one(self):
        assert build_matrices(corrected=True).commutator_sign() == 1

    def test_corrected_commutators_close(self):
        mats = build_matrices(corrected=True)
        lams = mats.lambdas
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            lhs = lams[i] @ lams[j] - lams[j] @ lams[i]
            assert np.abs(lhs - 1j * lams[k]).max() < 1e-12

    def test_printed_lambda1_missing_entry(self):
        printed = build_matrices(corrected=False)
        corrected = build_matrices(corrected=True)
        assert printed.lambdas[0][1, 2] == 0.0
        assert abs(corrected.lambdas[0][1, 2] - 1 / math.sqrt(2)) < 1e-15
        # The other two matrices agree between the variants.
        assert np.array_equal(printed.lambdas[1], corrected.lambdas[1])
        assert np.array_equal(printed.lambdas[2], corrected.lambdas[2])

    def test_printed_variant_fails_casimir(self):
        printed = build_matrices(corrected=False)
        assert printed.casimir_defect() > 0.1
        assert abs(printed.casimir_defect() - 0.5) < 1e-12

    def test_printed_variant_breaks_algebra(self):
        printed = build_matrices(corrected=False)
        with pytest.raises(AssertionError):
            printed.commutator_sign()

    def test_upsilon_block_structure(self):
        mats = build_matrices()
        assert len(mats.upsilons) == 6
        for position, upsilon in enumerate(mats.upsilons):
            lam = mats.lambdas[position % 3]
            factor = 1.0 if position < 3 else 1j
            assert np.abs(upsilon[:3, :3]).max() == 0.0
            assert np.abs(upsilon[3:, 3:]).max() == 0.0
            assert np.abs(upsilon[:3, 3:] - factor * lam.conj()).max() == 0.0
            assert np.abs(upsilon[3:, :3] - factor * lam).max() == 0.0


RING_RADII = (0.1, 1.0, 10.0)
RING_PHASES = tuple(math.pi * k / 8.0 for k in range(-7, 9, 2))


def ring_points():
    return [radius * cmath.exp(1j * phase)
            for radius in RING_RADII for phase in RING_PHASES]


class TestRadialSolution:
    def test_paper_f_zero_at_unit_radius(self):
        radial = RadialSolution(l=1, C=0.0, variant="paper")
        assert radial.f(0, 1.0) == 2.0

    def test_paper_homogeneous_vanishes_at_origin(self):
        radial = RadialSolution(l=1, C=1.0, variant="paper")
        assert radial.f(1, 0.0) == 0.0

    def test_minus_equals_plus_everywhere(self):
        rng = np.random.default_rng(71)
        for variant in ("paper", "corrected"):
            radial = RadialSolution(l=2, C=0.4 - 1.1j, Cdot=-0.2 + 0.9j,
                                    variant=variant)
            for _ in range(100):
                r = complex(rng.normal(), rng.normal())
                if r.real < 0 and abs(r.imag) < 1e-3:
                    continue  # keep away from the branch cut
                assert radial.f(-1, r) == radial.f(1, r)
                assert radial.f(-1, r, True) == radial.f(1, r, True)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_corrected_residuals_vanish_on_rings(self, l):
        radial = RadialSolution(l=l, C=1.3 - 0.4j, Cdot=0.25 + 2.0j,
                                variant="corrected")
        for r in ring_points():
            scale = max(1.0, abs(radial.f(1, r)))
            for residual in radial_residual(l, radial, r):
                assert abs(residual) < 1e-12 * scale

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_paper_residual_closed_form(self, l):
        radial = RadialSolution(l=l, C=0.8 + 0.1j, Cdot=-0.6j, variant="paper")
        ladder = radial_ladder(l)
        expected_rate = ladder - 2.0 * l * (l + 1)
        for r in ring_points():
            eq1, eq2, eq3, eq4 = radial_residual(l, radial, r)
            scale = max(1.0, abs(r))
            assert abs(eq1 - expected_rate * r) < 1e-12 * scale
            assert abs(eq2 + expected_rate * r) < 1e-12 * scale
            assert abs(eq3 - expected_rate * r.conjugate()) < 1e-12 * scale
            assert abs(eq4 + expected_rate * r.conjugate()) < 1e-12 * scale

    def test_paper_unit_example_minus_two_r(self):
        radial = RadialSolution(l=1, C=0.0, variant="paper")
        eq1, _, _, _ = radial_residual(1, radial, 1.0)
        assert abs(eq1 - (-2.0)) < 1e-15

    def test_homogeneous_square_root_solves_exactly(self):
        class Homogeneous:
            def __init__(self, constant):
                self.constant = constant

            def f(self, lam, r, dotted=False):
                return self.constant * cmath.sqrt(r) if lam else 0.0

            def f_prime(self, lam, r, dotted=False):
                return self.constant / (2.0 * cmath.sqrt(r)) if lam else 0.0

        triple = Homogeneous(2.0 - 3.0j)
        for r in ring_points():
            scale = max(1.0, abs(triple.f(1, r)))
            for residual in radial_residual(1, triple, r):
                assert abs(residual) < 1e-12 * scale

    def test_zero_triple_gives_zero_residuals(self):
        class Zero:
            def f(self, lam, r, dotted=False):
                return 0.0

            f_prime = f

        assert radial_residual(1, Zero(), 0.5 + 0.5j) == (0, 0, 0, 0)

    def test_origin_is_singular(self):
        radial = RadialSolution(l=1)
        with pytest.raises(ValueError, match="singular"):
            radial_residual(1, radial, 0.0)

    @pytest.mark.parametrize("bad_l", [0, -1, 1.5])
    def test_invalid_order_rejected(self, bad_l):
        with pytest.raises(ValueError, match="l must be"):
            RadialSolution(l=bad_l)
        with pytest.raises(ValueError, match="l must be"):
            radial_residual(bad_l, RadialSolution(l=1), 1.0)

    @pytest.mark.parametrize("bad_l", [math.inf, -math.inf, math.nan,
                                       np.float64("nan")])
    def test_non_finite_order_names_the_field(self, bad_l):
        message = f"l must be an integer >= 1, got {bad_l!r}"
        for call in (lambda: angular_order(bad_l),
                     lambda: RadialSolution(l=bad_l),
                     lambda: radial_residual(bad_l, RadialSolution(l=1), 1.0)):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == message

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            RadialSolution(l=1, variant="verbatim")

    def test_nonfinite_constant_rejected(self):
        with pytest.raises(ValueError, match="C"):
            RadialSolution(l=1, C=complex("inf"))

    def test_select_maps_projections(self):
        radial = RadialSolution(l=1, C=1.0, Cdot=2.0)
        r = 0.3 + 0.6j
        for lam in (1, 0, -1):
            assert radial.select(lam)(r) == radial.f(lam, r)
            assert radial.select(lam, dotted=True)(r) == radial.f(lam, r, True)
        assert radial.select(1, dotted=True)(r) != radial.select(1)(r)
        assert radial.select(1, dotted=None)(r) == radial.f(1, r)
        for bad in (2, None, "1"):
            with pytest.raises(ValueError) as error:
                radial.select(bad)
            assert str(error.value) == (
                f"helicity lam must be +1, 0, or -1, got {bad!r}")

    @pytest.mark.parametrize("variant", ["paper", "corrected"])
    def test_every_slot_evaluator_and_derivative(self, variant):
        rng = np.random.default_rng(23)
        radial = RadialSolution(l=2, C=0.7 - 1.2j, Cdot=-0.4 + 0.3j,
                                variant=variant)
        h = 1e-6
        for _ in range(200):
            r = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
            for lam in (1, 0, -1):
                for dotted in (False, True):
                    value = radial.f(lam, r, dotted)
                    assert radial.select(lam, dotted)(r) == value
                    central = (radial.f(lam, r + h, dotted)
                               - radial.f(lam, r - h, dotted)) / (2 * h)
                    derivative = radial.f_prime(lam, r, dotted)
                    assert abs(central - derivative) <= 1e-6 * abs(derivative)

    @pytest.mark.parametrize("r", [math.inf, math.nan, 1e308])
    def test_non_finite_residual_raises(self, r):
        with pytest.raises(ValueError, match="finite"):
            radial_residual(1, RadialSolution(1, C=1), r)


GENERIC_ANGLES = make_angles(0.4, 0.25, 0.9, 0.35, 1.1, -0.2)


K = (1.0, 2.0, 3.0)


def lorentz_factors(l, radial, r, angles):
    """The (+1, 0, -1) factors of the undotted and of the dotted members."""
    factors = [member.wave.lorentz_factor(r, angles)
               for member in build_catalog(K, l, radial).members]
    return factors[:3], factors[3:]


class TestLorentzFactor:
    def test_identity_angles_kill_off_diagonal(self):
        radial = RadialSolution(l=1, C=0.5)
        identity = make_angles(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        r = 1.7 + 0.2j
        psi, psi_dot = lorentz_factors(1, radial, r, identity)
        assert psi[0] == 0.0
        assert psi[2] == 0.0
        assert abs(psi[1] - radial.f(0, r)) < 1e-15
        assert psi_dot[0] == 0.0
        assert psi_dot[2] == 0.0

    def test_factor_by_factor_composition(self):
        radial = RadialSolution(l=2, C=0.3 - 0.8j, Cdot=1.1 + 0.2j)
        r = 0.9 - 0.4j
        psi, psi_dot = lorentz_factors(2, radial, r, GENERIC_ANGLES)
        zeroed = make_angles(GENERIC_ANGLES.phi, GENERIC_ANGLES.epsilon,
                             GENERIC_ANGLES.theta, GENERIC_ANGLES.tau,
                             0.0, 0.0)
        for slot, m in ((0, 1), (2, -1)):
            factor = generalized_m(HarmonicIndex(2, m, 0), zeroed)
            expected = radial.select(m)(r) * factor
            assert abs(psi[slot] - expected) < 1e-13 * max(1, abs(expected))
            dotted_factor = generalized_m(HarmonicIndex(2, m, 0, dotted=True),
                                          zeroed)
            expected_dot = radial.select(m, dotted=True)(r.conjugate()) * dotted_factor
            assert abs(psi_dot[slot] - expected_dot) \
                < 1e-13 * max(1, abs(expected_dot))
        zonal = zonal_z(2, GENERIC_ANGLES.theta, GENERIC_ANGLES.tau)
        assert abs(psi[1] - radial.f(0, r) * zonal) < 1e-13
        assert abs(psi_dot[1]
                   - radial.f(0, r.conjugate(), True) * zonal.conjugate()) < 1e-13

    def test_ratio_is_radius_independent(self):
        radial = RadialSolution(l=1, C=0.7 + 0.4j)
        ratios = []
        for r in (0.8 + 0.3j, 2.4 - 1.9j):
            psi, _ = lorentz_factors(1, radial, r, GENERIC_ANGLES)
            ratios.append(psi[0] / psi[2])
        assert abs(ratios[0] - ratios[1]) < 1e-12 * max(1, abs(ratios[0]))
        weight = cmath.exp(-2.0 * complex(GENERIC_ANGLES.epsilon,
                                          GENERIC_ANGLES.phi))
        zeroed = make_angles(0.0, 0.0, GENERIC_ANGLES.theta,
                             GENERIC_ANGLES.tau, 0.0, 0.0)
        z_plus = generalized_m(HarmonicIndex(1, 1, 0), zeroed)
        z_minus = generalized_m(HarmonicIndex(1, -1, 0), zeroed)
        assert abs(ratios[0] - weight * z_plus / z_minus) \
            < 1e-12 * max(1, abs(ratios[0]))

    def test_dotted_triple_conjugates_real_rotations(self):
        # With tau = epsilon = 0, a real radius, and equal real constants the
        # dotted factors are the componentwise conjugates of the undotted ones.
        radial = RadialSolution(l=1, C=0.6, Cdot=0.6)
        rotation_only = make_angles(1.2, 0.0, 0.8, 0.0, 0.0, 0.0)
        psi, psi_dot = lorentz_factors(1, radial, 2.5, rotation_only)
        for undotted, dotted in zip(psi, psi_dot):
            assert abs(dotted - undotted.conjugate()) < 1e-13

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError, match="l must be"):
            build_catalog(K, 0, RadialSolution(l=1))
