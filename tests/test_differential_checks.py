"""Tests for the finite-difference Casimir, Legendre, and holomorphy checks."""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from poincarewaves import differential_checks, lorentz_harmonics
from poincarewaves.differential_checks import (
    ResidualRecord,
    casimir_convergence_order,
    casimir_x2_residual,
    casimir_y2_residual,
    holomorphy_residual,
    legendre_residual,
    make_record,
)
from poincarewaves.group_kinematics import make_angles
from poincarewaves.lorentz_harmonics import HarmonicIndex, generalized_m_values

GENERIC_ANGLES = make_angles(0.4, 0.25, 0.9, 0.35, 1.1, -0.2)


class TestRecordInvariant:
    def test_passed_derived_from_invariant(self):
        record = make_record("demo", {}, {}, residual=2e-7, scale=0.5,
                             tolerance=1e-6)
        assert record.passed  # 2e-7 <= 1e-6 * max(1, 0.5)

    def test_failed_when_residual_exceeds(self):
        record = make_record("demo", {}, {}, residual=3e-6, scale=2.0,
                             tolerance=1e-6)
        assert not record.passed  # 3e-6 > 1e-6 * 2

    def test_verdict_is_derived_not_stored(self):
        record = ResidualRecord("demo", {}, {}, residual=1.0, scale=0.0,
                                tolerance=1e-6)
        assert not record.passed
        assert "passed" not in {f.name for f in dataclasses.fields(record)}

    def test_records_are_slotted(self):
        record = make_record("demo", {}, {}, residual=0.0, scale=1.0,
                             tolerance=1e-6)
        assert not hasattr(record, "__dict__")

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ResidualRecord("demo", {}, {}, residual=-1.0, scale=0.0,
                           tolerance=1e-6)

    def test_nan_residual_names_the_values(self):
        with pytest.raises(ValueError,
                           match=r"^residual must be finite, got nan$"):
            ResidualRecord("demo", {}, {}, residual=math.nan, scale=1.0,
                           tolerance=1e-6)


class TestMakeRecordJsonNative:
    """make_record stores the report's own form: JSON-native maps, floats."""

    def test_numpy_scalars_become_python_scalars(self):
        record = make_record(
            "demo", {"draw": np.int64(3), "dotted": np.bool_(True)},
            {"theta": np.float64(0.5), "label": "k", "case": np.str_("kx")},
            residual=np.float64(1e-9), scale=np.int64(2), tolerance=1e-6,
            flagged=np.bool_(False))
        assert record.indices == {"draw": 3, "dotted": True}
        assert record.point == {"theta": 0.5, "label": "k", "case": "kx"}
        assert [type(v) for v in record.indices.values()] == [int, bool]
        assert [type(v) for v in record.point.values()] == [float, str, str]
        assert type(record.residual) is float and type(record.scale) is float
        assert record.flagged is False

    def test_maps_are_copied(self):
        indices = {"l": 1.0}
        record = make_record("demo", indices, {}, 0.0, 1.0, 1e-6)
        indices["l"] = 2.0
        assert record.indices == {"l": 1.0}

    def test_list_entry_rejected(self):
        with pytest.raises(TypeError, match="not JSON-representable"):
            make_record("demo", {"k": [1.0, 2.0]}, {}, 0.0, 1.0, 1e-6)


@pytest.mark.parametrize("check, args", [
    (casimir_x2_residual, (HarmonicIndex(1, 1, 0), GENERIC_ANGLES)),
    (casimir_y2_residual, (HarmonicIndex(1, 1, 0, dotted=True), GENERIC_ANGLES)),
    (legendre_residual, (HarmonicIndex(1, 1, 0), 0.8, 0.2)),
    (holomorphy_residual, (HarmonicIndex(1, 1, 0), 0.9, 0.35)),
])
def test_checks_measure_residual_and_scale(check, args):
    # The checks only measure; SuiteConfig.record judges.
    measured = check(*args)
    assert type(measured) is tuple and len(measured) == 2
    residual, scale = measured
    assert type(residual) is float and type(scale) is float
    assert residual >= 0.0 and scale > 0.0


class TestCasimirX2:
    def test_constant_weight_zero_residual(self):
        residual, _ = casimir_x2_residual(HarmonicIndex(0, 0, 0),
                                          GENERIC_ANGLES)
        assert residual == 0.0

    def test_spec_point(self):
        angles = make_angles(0.0, 0.0, 0.7, 0.3, 0.0, 0.0)
        residual, scale = casimir_x2_residual(HarmonicIndex(1, 0, 0), angles)
        assert residual < 1e-6 * max(1.0, scale)

    def test_generic_weight_two(self):
        residual, scale = casimir_x2_residual(HarmonicIndex(2, 1, -1),
                                              GENERIC_ANGLES)
        assert residual < 1e-6 * max(1.0, scale)

    @pytest.mark.parametrize(
        "l, m, n",
        [(0.5, 0.5, -0.5), (1.5, 1.5, 0.5), (3, 2, -2), (2.5, 0.5, 2.5)],
    )
    def test_both_index_classes(self, l, m, n):
        residual, scale = casimir_x2_residual(HarmonicIndex(l, m, n),
                                              GENERIC_ANGLES)
        assert residual <= 1e-6 * max(1.0, scale), (l, m, n, residual, scale)

    @pytest.mark.parametrize("theta", [0.05, math.pi - 0.05, 0.0])
    def test_singular_points_rejected(self, theta):
        angles = make_angles(0.1, 0.0, theta, 0.2, 0.0, 0.0)
        with pytest.raises(ValueError, match="singular"):
            casimir_x2_residual(HarmonicIndex(1, 0, 0), angles)

    def test_dotted_index_rejected(self):
        with pytest.raises(ValueError, match="dotted"):
            casimir_x2_residual(HarmonicIndex(1, 0, 0, dotted=True),
                                GENERIC_ANGLES)

    def test_projection_swap_symmetry(self):
        # swapping m <-> n together with phi <-> chi and epsilon <-> vareps
        # leaves the residual invariant
        forward, _ = casimir_x2_residual(HarmonicIndex(2, 1, -1),
                                         GENERIC_ANGLES)
        swapped_angles = make_angles(
            GENERIC_ANGLES.chi, GENERIC_ANGLES.vareps, GENERIC_ANGLES.theta,
            GENERIC_ANGLES.tau, GENERIC_ANGLES.phi, GENERIC_ANGLES.epsilon)
        backward, _ = casimir_x2_residual(HarmonicIndex(2, -1, 1),
                                          swapped_angles)
        assert abs(forward - backward) < 1e-10

    def test_deterministic(self):
        a = casimir_x2_residual(HarmonicIndex(2, 1, 0), GENERIC_ANGLES)
        b = casimir_x2_residual(HarmonicIndex(2, 1, 0), GENERIC_ANGLES)
        assert a == b


class TestCasimirY2:
    def test_constant_weight_zero_residual(self):
        residual, _ = casimir_y2_residual(
            HarmonicIndex(0, 0, 0, dotted=True), GENERIC_ANGLES)
        assert residual == 0.0

    def test_weight_one_zonal(self):
        residual, scale = casimir_y2_residual(
            HarmonicIndex(1, 0, 0, dotted=True), GENERIC_ANGLES)
        assert residual < 1e-6 * max(1.0, scale)

    @pytest.mark.parametrize(
        "l, m, n",
        [(1, 1, 0), (2, 1, -1), (1.5, 0.5, -0.5), (3, 2, 2)],
    )
    def test_generic_indices(self, l, m, n):
        residual, scale = casimir_y2_residual(
            HarmonicIndex(l, m, n, dotted=True), GENERIC_ANGLES)
        assert residual <= 1e-6 * max(1.0, scale), (l, m, n, residual, scale)

    def test_undotted_index_rejected(self):
        with pytest.raises(ValueError, match="dotted"):
            casimir_y2_residual(HarmonicIndex(1, 0, 0), GENERIC_ANGLES)


class TestLegendre:
    def test_constant_weight(self):
        residual, _ = legendre_residual(HarmonicIndex(0, 0, 0), 0.9, 0.3)
        assert residual == 0.0

    def test_spec_point(self):
        residual, scale = legendre_residual(HarmonicIndex(1, 1, 0), 0.8, 0.2)
        assert residual < 1e-6 * max(1.0, scale)

    def test_high_weight_loose_bound(self):
        residual, scale = legendre_residual(HarmonicIndex(3, 2, -2), 1.1, 0.4)
        assert residual < 1e-5 * max(1.0, scale)

    def test_dotted_series(self):
        residual, scale = legendre_residual(
            HarmonicIndex(2, 1, 1, dotted=True), 1.2, -0.3)
        assert residual <= 1e-6 * max(1.0, scale)

    def test_singular_locus_rejected(self):
        # theta = pi/2, tau = 0 gives z = 0 which is fine; theta near 0 is not
        with pytest.raises(ValueError, match="singular"):
            legendre_residual(HarmonicIndex(1, 0, 0), 0.01, 0.0)

    def test_interior_of_rapidity_axis_allowed(self):
        residual, scale = legendre_residual(HarmonicIndex(1, 0, 0),
                                            math.pi / 2, 0.0)
        assert residual <= 1e-6 * max(1.0, scale)


class TestHolomorphy:
    def test_small(self):
        for idx in (HarmonicIndex(1, 1, 0), HarmonicIndex(2, 1, -1),
                    HarmonicIndex(1.5, 0.5, 0.5)):
            residual, scale = holomorphy_residual(idx, 0.9, 0.35)
            assert residual < 1e-6 * max(1.0, scale)

    def test_dotted_uses_conjugate_relation(self):
        residual, scale = holomorphy_residual(
            HarmonicIndex(2, 1, -1, dotted=True), 0.9, 0.35)
        assert residual < 1e-6 * max(1.0, scale)


class TestConvergenceOrder:
    def test_second_order_x2(self):
        order = casimir_convergence_order(HarmonicIndex(2, 1, -1),
                                          GENERIC_ANGLES)
        assert 1.7 <= order <= 2.3, order

    def test_second_order_y2(self):
        order = casimir_convergence_order(
            HarmonicIndex(1, 1, 0, dotted=True), GENERIC_ANGLES)
        assert 1.7 <= order <= 2.3, order


# Inside the accepted 2l|tau| <= 1418, yet the stencil's values overflow.
EDGE_ANGLES = make_angles(0.1, 0.0, 1.0, 35.44, 0.2, 0.0)


@pytest.mark.parametrize("check, args, message", [
    (casimir_x2_residual, (HarmonicIndex(20, 0, 0), EDGE_ANGLES), "not finite"),
    (casimir_y2_residual, (HarmonicIndex(20, 0, 0, dotted=True), EDGE_ANGLES),
     "not finite"),
    (legendre_residual, (HarmonicIndex(20, 0, 0), 1.0, 35.44), "not finite"),
    (holomorphy_residual, (HarmonicIndex(20, 0, 0), 1.0, 35.44), "not finite"),
    (casimir_convergence_order, (HarmonicIndex(20, 0, 0), EDGE_ANGLES),
     "not finite"),
    (casimir_convergence_order, (HarmonicIndex(0, 0, 0), GENERIC_ANGLES),
     "no convergence order to measure"),
])
def test_unmeasurable_point_raises_value_error(check, args, message):
    # Not a NaN or inf measurement, and not a ZeroDivisionError.
    with pytest.raises(ValueError, match=message):
        check(*args)


def test_legendre_refuses_tau_as_holomorphy_does():
    # tau is validated before cos(theta_c): no bare OverflowError.
    idx = HarmonicIndex(1, 1, 0)
    with pytest.raises(ValueError) as holomorphy:
        holomorphy_residual(idx, 1.0, 1e200)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(holomorphy.value))}$"):
        legendre_residual(idx, 1.0, 1e200)


@pytest.mark.parametrize("idx, tau", [
    (HarmonicIndex(0.5, 0.5, 0.5), 300.0),
    (HarmonicIndex(0.5, 0.5, 0.5), -1000.0),
    (HarmonicIndex(0, 0, 0), 1000.0),
    (HarmonicIndex(1, 1, 0, dotted=True), 300.0),
])
def test_legendre_overflowing_sine_power_is_a_value_error(idx, tau):
    # Accepted by the Z routes, but sin^3(theta_c) leaves the floats.
    with pytest.raises(ValueError, match="sin\\^3\\(theta_c\\) overflows"):
        legendre_residual(idx, 1.0, tau)


# ---------------------------------------------------------------------------
# The stencils evaluate Z once per distinct theta, with unchanged bits
# ---------------------------------------------------------------------------

def reference_richardson(estimate, step, levels):
    table = [[estimate(step / 2**i)] for i in range(levels)]
    for i in range(1, levels):
        for j in range(1, i + 1):
            factor = 4.0**j
            table[i].append((factor * table[i][j - 1] - table[i - 1][j - 1])
                            / (factor - 1.0))
    return table[levels - 1][levels - 1]


def reference_casimir(idx, angles, step, levels):
    """The X2 / Y2 stencil with every value a direct generalized_m_values."""
    phi0, chi0, theta0 = angles.phi, angles.chi, angles.theta

    def f(theta, phi, chi):
        return generalized_m_values(idx.l, idx.m, idx.n, phi, angles.epsilon,
                                    theta, angles.tau, chi, angles.vareps,
                                    dotted=idx.dotted)

    theta_c = angles.theta_c_dot if idx.dotted else angles.theta_c
    sin_c, cos_c = cmath.sin(theta_c), cmath.cos(theta_c)
    f0 = f(theta0, phi0, chi0)

    def estimate(h):
        h2 = h * h
        d_theta = (f(theta0 + h, phi0, chi0)
                   - f(theta0 - h, phi0, chi0)) / (2 * h)
        d2_theta = (f(theta0 + h, phi0, chi0) - 2 * f0
                    + f(theta0 - h, phi0, chi0)) / h2
        d2_phi = (f(theta0, phi0 + h, chi0) - 2 * f0
                  + f(theta0, phi0 - h, chi0)) / h2
        d2_chi = (f(theta0, phi0, chi0 + h) - 2 * f0
                  + f(theta0, phi0, chi0 - h)) / h2
        d_phi_chi = (f(theta0, phi0 + h, chi0 + h)
                     - f(theta0, phi0 + h, chi0 - h)
                     - f(theta0, phi0 - h, chi0 + h)
                     + f(theta0, phi0 - h, chi0 - h)) / (4 * h2)
        return (d2_theta + (cos_c / sin_c) * d_theta
                + (d2_phi - 2 * cos_c * d_phi_chi + d2_chi) / (sin_c * sin_c))

    operator = reference_richardson(estimate, step, levels)
    eigenvalue = idx.eigenvalue
    return (abs(operator + eigenvalue * f0), max(1.0, eigenvalue) * abs(f0))


def reference_legendre(idx, theta, tau):
    """The Legendre stencil with every value a direct generalized_m_values."""
    def g(x):
        return generalized_m_values(idx.l, idx.m, idx.n, 0.0, 0.0, x, tau,
                                    0.0, 0.0, dotted=idx.dotted)

    theta_c = complex(theta, tau) if idx.dotted else complex(theta, -tau)
    z, sin_c = cmath.cos(theta_c), cmath.sin(theta_c)
    g0 = g(theta)
    d1 = reference_richardson(
        lambda h: (g(theta + h) - g(theta - h)) / (2 * h), 1e-3, 2)
    d2 = reference_richardson(
        lambda h: (g(theta + h) - 2 * g0 + g(theta - h)) / (h * h), 1e-3, 2)
    z_prime = -d1 / sin_c
    z_second = d2 / (sin_c * sin_c) - z * d1 / sin_c**3
    m, n = idx.m, idx.n
    terms = (sin_c * sin_c * z_second, -2 * z * z_prime,
             -((m * m + n * n - 2 * m * n * z) / (sin_c * sin_c)) * g0,
             idx.eigenvalue * g0)
    return abs(sum(terms)), max(abs(term) for term in terms)


def seeded_indices(rng, count):
    """Indices over integer and half-integer l <= 3, half of them dotted."""
    indices = []
    for _ in range(count):
        l = int(rng.integers(0, 7)) / 2
        projections = [p / 2 for p in range(-int(2 * l), int(2 * l) + 1, 2)]
        m, n = (projections[int(rng.integers(0, len(projections)))]
                for _ in range(2))
        indices.append(HarmonicIndex(l, m, n, dotted=bool(rng.integers(0, 2))))
    return indices


class TestStencilsMatchDirectEvaluation:
    def test_casimir_at_both_richardson_depths(self):
        rng = np.random.default_rng(2026)
        indices = seeded_indices(rng, 24)
        assert {idx.dotted for idx in indices} == {False, True}
        assert any(idx.l % 1 for idx in indices)
        for idx in indices:
            angles = make_angles(
                float(rng.uniform(0.0, 6.28)), float(rng.normal() * 0.5),
                float(rng.uniform(0.15, math.pi - 0.15)),
                float(rng.normal() * 0.5), float(rng.uniform(-6.28, 6.28)),
                float(rng.normal() * 0.5))
            for step, levels in ((1e-3, 2), (2e-2, 1), (1e-2, 1)):
                got = differential_checks._casimir(idx, angles, step, levels)
                assert got == reference_casimir(idx, angles, step, levels)

    def test_legendre(self):
        rng = np.random.default_rng(2027)
        indices = seeded_indices(rng, 24)
        assert {idx.dotted for idx in indices} == {False, True}
        assert any(idx.l % 1 for idx in indices)
        for idx in indices:
            theta = float(rng.uniform(0.25, math.pi - 0.25))
            tau = float(rng.normal() * 0.4)
            assert legendre_residual(idx, theta, tau) == reference_legendre(
                idx, theta, tau)


@pytest.fixture
def z_evaluations(monkeypatch):
    """Each call of the private Z evaluator, whichever module calls it."""
    calls = []
    evaluate = lorentz_harmonics._z_value

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(lorentz_harmonics, "_z_value", counting)
    monkeypatch.setattr(differential_checks, "_z_value", counting,
                        raising=False)
    return calls


@pytest.mark.parametrize("check, args, most", [
    (casimir_x2_residual, (HarmonicIndex(2, 1, -1), GENERIC_ANGLES), 5),
    (casimir_y2_residual, (HarmonicIndex(1.5, 0.5, 1.5, dotted=True),
                           GENERIC_ANGLES), 5),
    (casimir_convergence_order, (HarmonicIndex(2, 1, -1), GENERIC_ANGLES), 6),
    (legendre_residual, (HarmonicIndex(2, 1, -1), 0.8, 0.2), 5),
    (legendre_residual, (HarmonicIndex(1.5, 0.5, 1.5, dotted=True), 0.8, 0.2),
     5),
])
def test_z_evaluated_once_per_distinct_theta(z_evaluations, check, args, most):
    check(*args)
    assert 0 < len(z_evaluations) <= most
