"""Tests for complex Euler angles, with the SL(2,C) covering map of the test
oracles as the reference for the weighted elements at l = 1/2 and l = 1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import angles_to_sl2c, sl2c_to_complex_rotation
from poincarewaves.group_kinematics import make_angles
from poincarewaves.lorentz_harmonics import generalized_m_values


class TestMakeAngles:
    def test_identity_angles(self):
        angles = make_angles(0, 0, 0, 0, 0, 0)
        assert angles.phi_c == 0 and angles.theta_c == 0 and angles.chi_c == 0

    def test_complex_angle_convention(self):
        angles = make_angles(0, 0, math.pi / 2, 0.3, 0, 0)
        assert angles.theta_c == complex(math.pi / 2, -0.3)
        assert angles.theta_c_dot == complex(math.pi / 2, 0.3)

    @pytest.mark.parametrize(
        "kwargs, offender",
        [
            (dict(theta=4.0), "theta"),
            (dict(theta=-0.1), "theta"),
            (dict(phi=2 * math.pi), "phi"),
            (dict(phi=-0.5), "phi"),
            (dict(chi=2 * math.pi), "chi"),
            (dict(chi=-2 * math.pi - 1e-9), "chi"),
            (dict(epsilon=float("nan")), "epsilon"),
            (dict(tau=float("inf")), "tau"),
        ],
    )
    def test_rejects_out_of_range_naming_parameter(self, kwargs, offender):
        base = dict(phi=0.0, epsilon=0.0, theta=0.0, tau=0.0, chi=0.0, vareps=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError, match=offender):
            make_angles(**base)

    def test_boundary_values_accepted(self):
        make_angles(0, 5.0, math.pi, -3.0, -2 * math.pi, 100.0)

    @given(st.tuples(*[st.floats(allow_subnormal=False) for _ in range(6)]))
    def test_validation_is_total(self, params):
        # Every six-tuple either validates or raises ValueError; nothing else.
        try:
            angles = make_angles(*params)
        except ValueError:
            return
        assert angles.theta_c == complex(params[2], -params[3])


def _random_unimodular(rng: np.random.Generator) -> np.ndarray:
    # Draw three entries freely and solve for the fourth so that det = 1.
    while True:
        a, b, c = (complex(*rng.normal(size=2)) for _ in range(3))
        if abs(a) > 0.1:
            return np.array([[a, b], [c, (1 + b * c) / a]])


def _random_angles(rng: np.random.Generator):
    return make_angles(
        rng.uniform(0, 2 * math.pi - 1e-9),
        rng.normal(),
        rng.uniform(0, math.pi),
        rng.normal(),
        rng.uniform(-2 * math.pi, 2 * math.pi - 1e-9),
        rng.normal(),
    )


def _weighted_element(l, angles, dotted):
    # [M^l_mn] with m and n in ascending order.
    params = (angles.phi, angles.epsilon, angles.theta, angles.tau,
              angles.chi, angles.vareps)
    projections = [k - l for k in range(round(2 * l) + 1)]
    return np.array([[generalized_m_values(l, m, n, *params, dotted=dotted)
                      for n in projections] for m in projections])


class TestRotationAction:
    def test_identity(self):
        rotation = sl2c_to_complex_rotation(np.eye(2))
        assert np.allclose(rotation, np.eye(3), atol=1e-15)

    def test_diagonal_element_rotates_z1_z2_plane(self):
        phi = 0.7
        g = np.diag([np.exp(1j * phi / 2), np.exp(-1j * phi / 2)])
        rotation = sl2c_to_complex_rotation(g)
        assert abs(rotation[2, 2] - 1) < 1e-12
        assert abs(rotation[0, 2]) < 1e-12 and abs(rotation[2, 0]) < 1e-12
        assert abs(rotation[0, 0] - math.cos(phi)) < 1e-12
        assert abs(rotation[1, 1] - math.cos(phi)) < 1e-12
        assert abs(abs(rotation[0, 1]) - abs(math.sin(phi))) < 1e-12
        assert abs(rotation[0, 1] + rotation[1, 0]) < 1e-12

    def test_invariance_orthogonality_homomorphism(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            g1 = _random_unimodular(rng)
            g2 = _random_unimodular(rng)
            r1 = sl2c_to_complex_rotation(g1)
            r2 = sl2c_to_complex_rotation(g2)
            scale = max(1.0, float(np.abs(r1).max()) ** 2)
            # complex orthogonality (no conjugation)
            assert np.abs(r1.T @ r1 - np.eye(3)).max() < 1e-10 * scale
            # homomorphism
            r12 = sl2c_to_complex_rotation(g1 @ g2)
            assert np.abs(r12 - r1 @ r2).max() < 1e-10 * max(
                1.0, float(np.abs(r12).max())
            )
            # invariance of the complex square
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            rotated = r1 @ z
            assert abs(rotated @ rotated - z @ z) < 1e-10 * max(1.0, abs(z @ z))

    def test_euler_parametrization_lands_in_group(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = angles_to_sl2c(_random_angles(rng))
            assert abs(np.linalg.det(g) - 1) <= 1e-12
            rotation = sl2c_to_complex_rotation(g)
            assert np.abs(rotation.T @ rotation - np.eye(3)).max() < 1e-9 * max(
                1.0, float(np.abs(rotation).max()) ** 2
            )


class TestSpinHalfElement:
    def test_weighted_element_is_the_sl2c_matrix(self):
        # [M^(1/2)_mn], m and n ascending, is sigma3 g sigma3 with both axes
        # reversed; the dotted series gives its complex conjugate.
        rng = np.random.default_rng(20261017)
        sigma3 = np.diag([1.0, -1.0])
        for _ in range(500):
            angles = _random_angles(rng)
            want = (sigma3 @ angles_to_sl2c(angles) @ sigma3)[::-1, ::-1]
            bound = 1e-13 * float(np.abs(want).max())
            for dotted, expected in ((False, want), (True, want.conj())):
                got = _weighted_element(0.5, angles, dotted)
                assert np.abs(got - expected).max() <= bound


#: Spherical basis (-1, -i, 0)/sqrt2, (0, 0, 1), (1, -i, 0)/sqrt2 as rows.
SPHERICAL_BASIS = np.array([[-1, -1j, 0], [0, 0, math.sqrt(2)],
                            [1, -1j, 0]]) / math.sqrt(2)


class TestSpinOneElement:
    def test_weighted_element_is_the_complex_rotation(self):
        # The covering map makes R(g) an independent reference for the
        # weighted element at l = 1: [M^1_mn](g) U = U R(g), m and n
        # ascending.  The dotted series obeys M-bar conj(U) = conj(U R(g)),
        # checked here in its exactly conjugated form conj(M-bar) U = U R(g).
        rng = np.random.default_rng(20261018)
        for _ in range(500):
            angles = _random_angles(rng)
            rotation = sl2c_to_complex_rotation(angles_to_sl2c(angles))
            want = SPHERICAL_BASIS @ rotation
            for dotted in (False, True):
                element = _weighted_element(1, angles, dotted)
                if dotted:
                    element = element.conj()
                bound = 1e-13 * float(np.abs(element).max()
                                      * np.abs(rotation).max())
                assert np.abs(element @ SPHERICAL_BASIS - want).max() <= bound
