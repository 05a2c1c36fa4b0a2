"""Tests for the finite-difference Casimir, Legendre, and holomorphy checks."""

import dataclasses
import math

import numpy as np
import pytest

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
from poincarewaves.lorentz_harmonics import HarmonicIndex

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
                           match=r"got residual=nan, scale=1\.0$"):
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
