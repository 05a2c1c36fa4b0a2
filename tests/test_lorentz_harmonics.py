"""Tests for the representation matrix elements and their cross-formula oracles."""

import cmath
import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    angular_terms_reference,
    brute_2f1,
    series_block_reference,
    side_block_reference,
    wigner_d,
    z_reference,
)
from poincarewaves import lorentz_harmonics
from poincarewaves.group_kinematics import make_angles
from poincarewaves.lorentz_harmonics import (
    HarmonicIndex,
    associated_m,
    generalized_m,
    generalized_m_values,
    qu2_factor_jacobi,
    su2_factor_p,
    terminating_2f1,
    z_2f1,
    z_sum,
    z_sum_grid,
    zonal_z,
)
from poincarewaves.suites import SuiteConfig, _tau_grid, _theta_grid

# Values frozen from the 40-digit mpmath reference implementation in oracles.py.
FROZEN_REFERENCE = [
    (2.0, 1.0, -1.0, 0.9, 0.4, complex(-0.48793669203649553, 0.2715632783643743)),
    (1.5, 0.5, -0.5, 1.1, -0.7, complex(0.15053294232727324, 1.0603174440646819)),
    (1.0, 1.0, 1.0, 0.9, 0.4, complex(0.836002681378397, 0.16087667499671035)),
    (3.0, 2.0, -2.0, 1.3, 0.25, complex(0.3931219863001132, -0.1642908932333828)),
    (4.0, 0.0, 1.0, 2.0, -0.5, complex(0.3654771849562207, 1.6574505040480008)),
    (2.5, 1.5, 0.5, 0.35, 0.8, complex(1.3022778826734833, 1.4835426989407456)),
]


def all_projections(l):
    """All half-integer projections m with |m| <= l, same class as l."""
    doubled = int(round(2 * l))
    return [d / 2 for d in range(-doubled, doubled + 1, 2)]


def minus_i_power(k):
    """(-i)**k for integer k of either sign, exact."""
    return (1 + 0j, -1j, -1 + 0j, 1j)[int(k) % 4]


class TestHarmonicIndex:
    def test_half_integers_accepted(self):
        idx = HarmonicIndex(1.5, 0.5, -1.5)
        assert idx.doubled == (3, 1, -3)
        assert idx.eigenvalue == pytest.approx(1.5 * 2.5)

    @pytest.mark.parametrize(
        "l, m, n",
        [(1, 2, 0), (1, 0, -2), (-1, 0, 0), (1, 0.5, 0), (1.5, 1.5, 0), (0.7, 0, 0)],
    )
    def test_invalid_indices_rejected(self, l, m, n):
        with pytest.raises(ValueError):
            HarmonicIndex(l, m, n)

    @pytest.mark.parametrize(
        "l, m, n",
        [(1, 2, 0), (-1, 0, 0), (1, 0.5, 0), (0.7, 0, 0), (math.nan, 0, 0),
         (21, 0, 0), (2, 0, math.inf)],
    )
    def test_repeated_invalid_index_repeats_its_message(self, l, m, n):
        # The cached validation raises the uncached validator's message
        # every time, and caches nothing for the rejected triple.
        with pytest.raises(ValueError) as direct:
            lorentz_harmonics._validated_doubled.__wrapped__(l, m, n)
        message = f"^{re.escape(str(direct.value))}$"
        cache = lorentz_harmonics._validated_doubled
        cached = cache.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                HarmonicIndex(l, m, n)
        assert cache.cache_info().currsize == cached

    def test_unhashable_numbers_are_validated(self):
        idx = HarmonicIndex(np.array(1.5), np.array(0.5), -1.5)
        assert idx.doubled == (3, 1, -3) and type(idx.l) is float
        with pytest.raises(ValueError, match="^l must be non-negative"):
            HarmonicIndex(np.array(-1.0), 0, 0)

    @pytest.mark.parametrize("evaluate", [
        lambda l: su2_factor_p(l, 0, 0, 0.5),
        lambda l: qu2_factor_jacobi(l, 0, 0, 0.5),
        lambda l: generalized_m_values(l, 0, 0, 0.3, 0.1, 0.5, 0.2, 0.4, -0.2),
        lambda l: associated_m(l, 0, make_angles(0.3, 0.1, 0.5, 0.2, 0.0, 0.0)),
    ])
    def test_every_index_entry_takes_a_0d_weight(self, evaluate):
        # One validation path: a 0-d array is no cache key, and is validated
        # as HarmonicIndex validates it, not refused as unhashable.
        assert evaluate(np.array(1.0)) == evaluate(1.0)
        with pytest.raises(ValueError, match="^l must be non-negative"):
            evaluate(np.array(-1.0))

    def test_validation_is_cached(self):
        cache = lorentz_harmonics._validated_doubled
        first = HarmonicIndex(2.5, 0.5, -1.5)
        hits, misses = cache.cache_info()[:2]
        again = HarmonicIndex(2.5, 0.5, -1.5, dotted=True)
        assert cache.cache_info()[:2] == (hits + 1, misses)
        assert again.doubled == first.doubled == (5, 1, -3)


class TestTerminating2F1:
    def test_empty_series(self):
        assert terminating_2f1(0, 0.7, 2.3, 0.4) == 1.0

    def test_single_term(self):
        assert terminating_2f1(-1, 1, 1, 0.25) == pytest.approx(0.75)

    def test_two_terms_matches_brute_force(self):
        assert terminating_2f1(-2, -1, 2, 0.5) == pytest.approx(1.5)
        assert terminating_2f1(-2, -1, 2, 0.5) == pytest.approx(brute_2f1(-2, -1, 2, 0.5))

    def test_non_terminating_rejected(self):
        with pytest.raises(ValueError, match="terminate"):
            terminating_2f1(0.5, 0.3, 1.0, 0.1)

    def test_pole_before_termination_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            terminating_2f1(-3, -5, -2, 0.5)

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, name, value):
        # Neither an OverflowError nor "cannot convert float NaN to integer".
        params = {"a": -2.0, "b": -1.0, "c": 2.0, name: value}
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite, got {value!r}$"):
            terminating_2f1(params["a"], params["b"], params["c"], 0.5)

    def test_order_forty_accepted(self):
        # 40 = 2 * 20, the longest series any route sums (l = 20).
        got = terminating_2f1(-40, -45, 3, 0.25)
        want = brute_2f1(-40, -45, 3, 0.25)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("a, b, name, value", [
        (-41, -45, "a", "-41"), (1.5, -41, "b", "-41"),
        # Without the bound this one sums 1e300 terms and never returns.
        (1.5, -1e300, "b", "-1e+300"),
    ])
    def test_order_above_forty_refused(self, a, b, name, value):
        with pytest.raises(ValueError) as error:
            terminating_2f1(a, b, 1, 0.5)
        # The gate hands on a, b and c as floats: a=-41 reads a=-41.0.
        assert str(error.value) == (
            f"terminating parameter {name}={float(value)!r} gives a series "
            "of order above 40, the longest summed for weights l <= 20")

    def test_pole_beyond_termination_allowed(self):
        value = terminating_2f1(-2, -5, -2, 0.25)
        assert math.isfinite(value)
        assert value == pytest.approx(brute_2f1(-2, -5, -2, 0.25))

    @given(
        a=st.integers(min_value=-6, max_value=0),
        b=st.integers(min_value=-6, max_value=6),
        c=st.integers(min_value=1, max_value=8),
        x=st.floats(min_value=-2, max_value=2),
    )
    def test_matches_rational_brute_force(self, a, b, c, x):
        got = terminating_2f1(a, b, c, x)
        want = brute_2f1(a, b, c, x)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestZSumBasics:
    def test_identity_is_exact_kronecker_delta(self):
        for doubled_l in range(0, 9):
            l = doubled_l / 2
            for m in all_projections(l):
                for n in all_projections(l):
                    value = z_sum(HarmonicIndex(l, m, n), 0.0, 0.0)
                    assert value == (1.0 if m == n else 0.0)

    def test_trivial_representation(self):
        assert z_sum(HarmonicIndex(0, 0, 0), 1.234, -0.8) == 1.0

    @pytest.mark.parametrize("l, m, n, theta, tau, expected", FROZEN_REFERENCE)
    def test_frozen_reference_values(self, l, m, n, theta, tau, expected):
        value = z_sum(HarmonicIndex(l, m, n), theta, tau)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_live_high_precision_reference(self):
        for doubled_l in (2, 3, 4):
            l = doubled_l / 2
            for m in all_projections(l):
                for n in all_projections(l):
                    for theta, tau in [(0.0, 0.4), (0.9, -0.7), (math.pi - 0.01, 0.3)]:
                        got = z_sum(HarmonicIndex(l, m, n), theta, tau)
                        want = z_reference(l, m, n, theta, tau)
                        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_zonal_weight_one_closed_form(self):
        # Z^1_00(theta, tau) = cos(theta - i tau)
        for theta, tau in [(0.7, 0.4), (0.1, -1.2), (3.0, 0.0), (math.pi, 2.0)]:
            got = z_sum(HarmonicIndex(1, 0, 0), theta, tau)
            want = cmath.cos(complex(theta, -tau))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_dotted_is_conjugate(self):
        idx = HarmonicIndex(2, 1, -1)
        dotted = HarmonicIndex(2, 1, -1, dotted=True)
        value = z_sum(idx, 0.9, 0.4)
        assert z_sum(dotted, 0.9, 0.4) == value.conjugate()

    @pytest.mark.parametrize("theta", [-0.1, 3.2, float("nan")])
    def test_theta_out_of_range_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            z_sum(HarmonicIndex(1, 0, 0), theta, 0.0)

    @given(
        theta=st.floats(min_value=0.0, max_value=math.pi),
        tau=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_values_always_finite(self, theta, tau):
        for l, m, n in [(0.5, 0.5, -0.5), (2, 1, -1), (3, 3, 0)]:
            value = z_sum(HarmonicIndex(l, m, n), theta, tau)
            assert math.isfinite(value.real) and math.isfinite(value.imag)

    @given(
        theta=st.floats(min_value=0.0, max_value=math.pi),
        tau=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_conjugation_reflects_rapidity(self, theta, tau):
        # conj(Z^l_mn(theta, tau)) = (-1)^(m-n) Z^l_mn(theta, -tau)
        for l, m, n in [(1, 1, 0), (2, 1, -1), (1.5, 0.5, -0.5), (3, 2, 2)]:
            left = z_sum(HarmonicIndex(l, m, n), theta, tau).conjugate()
            right = z_sum(HarmonicIndex(l, m, n), theta, -tau)
            sign = -1.0 if int(round(m - n)) % 2 else 1.0
            assert abs(left - sign * right) <= 1e-12 * max(1.0, abs(right))


class TestCrossFormula:
    def test_spec_point(self):
        idx = HarmonicIndex(1, 1, 1)
        a, b = z_sum(idx, 0.9, 0.4), z_2f1(idx, 0.9, 0.4)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_trivial_weight(self):
        assert z_2f1(HarmonicIndex(0, 0, 0), 1.1, 0.6) == 1.0

    @pytest.mark.parametrize(
        "l, m, n, theta, tau",
        [(1, 0, 0, math.pi / 2, 0.0), (2, -1, 1, 0.3, -0.7)],
    )
    def test_spec_examples(self, l, m, n, theta, tau):
        idx = HarmonicIndex(l, m, n)
        a, b = z_sum(idx, theta, tau), z_2f1(idx, theta, tau)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_small_grid_both_classes(self):
        thetas = [0.0, math.pi / 4, 3 * math.pi / 4, math.pi - 0.01]
        taus = [-1.0, 0.0, 0.3]
        for doubled_l in range(0, 6):
            l = doubled_l / 2
            for m in all_projections(l):
                for n in all_projections(l):
                    idx = HarmonicIndex(l, m, n)
                    for theta in thetas:
                        for tau in taus:
                            a = z_sum(idx, theta, tau)
                            b = z_2f1(idx, theta, tau)
                            assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (
                                l, m, n, theta, tau)

    def test_dotted_route_agrees(self):
        idx = HarmonicIndex(2, 1, 0, dotted=True)
        a, b = z_sum(idx, 1.2, -0.5), z_2f1(idx, 1.2, -0.5)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestAccuracyEnvelope:
    """Both Z routes against the 60-digit reference, up to the weight l = 20
    where they still hold 1e-10; README gives the measured errors and where
    the envelope ends."""

    @pytest.mark.parametrize("l", [6, 12, 20])
    def test_routes_match_reference(self, l):
        theta, tau = 1.1, 0.7
        projections = [-l, -l / 2, 0, l / 2, l]
        worst = {z_sum: 0.0, z_2f1: 0.0}
        for m in projections:
            for n in projections:
                ref = z_reference(l, m, n, theta, tau, dps=60)
                for route in worst:
                    error = abs(route(HarmonicIndex(l, m, n), theta, tau) - ref)
                    worst[route] = max(worst[route], error / max(1.0, abs(ref)))
        assert max(worst.values()) <= 1e-10, (l, worst)


class TestSU2Reduction:
    def test_magnitude_matches_wigner_d(self):
        for doubled_l in range(0, 9):
            l = doubled_l / 2
            for m in all_projections(l):
                for n in all_projections(l):
                    for theta in (0.3, 1.2, 2.8):
                        got = abs(z_sum(HarmonicIndex(l, m, n), theta, 0.0))
                        want = abs(wigner_d(l, m, n, theta))
                        assert abs(got - want) <= 1e-10 * max(1.0, want)

    def test_phase_relation_to_wigner_d(self):
        # Z^l_mn(theta, 0) = (-i)^(m-n) d^l_mn(theta)
        for l in (0.5, 1, 1.5, 2, 3):
            for m in all_projections(l):
                for n in all_projections(l):
                    for theta in (0.4, 1.7):
                        got = z_sum(HarmonicIndex(l, m, n), theta, 0.0)
                        want = minus_i_power(round(m - n)) * wigner_d(l, m, n, theta)
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_unitarity_at_zero_rapidity(self):
        for l in (0.5, 1.0, 2.0, 3.0):
            projections = all_projections(l)
            for theta in (0.4, 1.0, 2.0):
                matrix = [
                    [z_sum(HarmonicIndex(l, m, n), theta, 0.0) for n in projections]
                    for m in projections
                ]
                size = len(projections)
                for i in range(size):
                    for j in range(size):
                        entry = sum(
                            matrix[i][k] * matrix[j][k].conjugate()
                            for k in range(size)
                        )
                        expected = 1.0 if i == j else 0.0
                        assert abs(entry - expected) < 1e-10


class TestFactorization:
    def test_rotation_factor_identity_is_delta(self):
        for l in (0.5, 1, 2.5, 3):
            for m in all_projections(l):
                for k in all_projections(l):
                    value = su2_factor_p(l, m, k, 0.0)
                    assert value == (1.0 if m == k else 0.0)

    def test_rapidity_factor_identity_is_delta(self):
        for l in (0.5, 1, 2.5, 3):
            for k in all_projections(l):
                for n in all_projections(l):
                    value = qu2_factor_jacobi(l, k, n, 0.0)
                    assert value == (1.0 if k == n else 0.0)

    def test_rapidity_factor_is_real(self):
        assert isinstance(qu2_factor_jacobi(2, 1, -1, 0.7), float)

    def test_spec_factorization_point(self):
        l, theta, tau = 1, 0.5, 0.2
        for m in all_projections(l):
            for n in all_projections(l):
                total = sum(
                    su2_factor_p(l, m, k, theta) * qu2_factor_jacobi(l, k, n, tau)
                    for k in all_projections(l)
                )
                want = z_sum(HarmonicIndex(l, m, n), theta, tau)
                assert abs(total - want) <= 1e-12 * max(1.0, abs(want))

    def test_factorization_grid(self):
        thetas = [0.0, math.pi / 4, 3 * math.pi / 4, math.pi - 0.01]
        taus = [-1.0, 0.0, 1.0]
        for doubled_l in (1, 2, 3, 4):
            l = doubled_l / 2
            projections = all_projections(l)
            for m in projections:
                for n in projections:
                    for theta in thetas:
                        for tau in taus:
                            total = sum(
                                su2_factor_p(l, m, k, theta)
                                * qu2_factor_jacobi(l, k, n, tau)
                                for k in projections
                            )
                            want = z_sum(HarmonicIndex(l, m, n), theta, tau)
                            assert abs(total - want) <= 1e-10 * max(1.0, abs(want))


def coefficient_caches():
    """The lru-cached coefficient and index tables of lorentz_harmonics."""
    return {name: value for name, value in vars(lorentz_harmonics).items()
            if hasattr(value, "cache_info")}


class TestSharedTables:
    @pytest.mark.parametrize("l, a, b, su2, qu2", [
        (1, 0.5, 0, "l - m must be an integer, got l=1, m=0.5",
         "l - k must be an integer, got l=1, k=0.5"),
        (1, 0, 2, "|k| must not exceed l, got k=2 with l=1",
         "|n| must not exceed l, got n=2 with l=1"),
        (-1, 0, 0, "l must be non-negative, got -1",
         "l must be non-negative, got -1"),
    ], ids=["1-0.5-0", "1-0-2", "-1-0-0"])
    def test_invalid_triples_raise_index_error(self, l, a, b, su2, qu2):
        # The index rules of HarmonicIndex, naming each function's own
        # arguments: su2_factor_p(l, m, k) and qu2_factor_jacobi(l, k, n).
        for _ in range(2):  # a rejected triple is not cached as valid
            with pytest.raises(ValueError, match=f"^{re.escape(su2)}$"):
                su2_factor_p(l, a, b, 0.5)
            with pytest.raises(ValueError, match=f"^{re.escape(qu2)}$"):
                qu2_factor_jacobi(l, a, b, 0.5)

    @pytest.mark.parametrize("l, m, n", [(1, 0.5, 0), (1, 0, 2), (-1, 0, 0)])
    def test_generalized_m_values_raises_index_error(self, l, m, n):
        with pytest.raises(ValueError) as expected:
            HarmonicIndex(l, m, n)
        message = re.escape(str(expected.value))
        for _ in range(2):  # a rejected triple is not cached as valid
            with pytest.raises(ValueError, match=f"^{message}$"):
                generalized_m_values(l, m, n, 0.3, 0.1, 0.5, 0.2, 0.0, 0.0)

    @pytest.mark.parametrize("l", [6, 6.5])
    def test_routes_agree_at_high_weight(self, l):
        # All (m, n) pairs, so m < k (the ak < 0 unfolded fallback) is covered.
        projections = all_projections(l)
        assert any(m < k for m in projections for k in projections)
        for theta, tau in [(0.7, 0.4), (2.3, -0.9)]:
            rotation = {(m, k): su2_factor_p(l, m, k, theta)
                        for m in projections for k in projections}
            rapidity = {(k, n): qu2_factor_jacobi(l, k, n, tau)
                        for k in projections for n in projections}
            for m in projections:
                for n in projections:
                    idx = HarmonicIndex(l, m, n)
                    want = z_sum(idx, theta, tau)
                    factored = sum(rotation[m, k] * rapidity[k, n]
                                   for k in projections)
                    bound = 1e-12 * max(1.0, abs(want))
                    assert abs(factored - want) <= bound
                    assert abs(z_2f1(idx, theta, tau) - want) <= bound

    def test_repeated_z_2f1_adds_no_cache_misses(self):
        def counts():
            return {name: cache.cache_info()[:2]
                    for name, cache in coefficient_caches().items()}

        idx = HarmonicIndex(5.5, 1.5, -2.5)
        z_2f1(idx, 1.2, 0.3)
        before = counts()
        z_2f1(idx, 0.4, -0.8)
        after = counts()
        assert {name: info[1] for name, info in after.items()} == {
            name: info[1] for name, info in before.items()}
        assert sum(info[0] for info in after.values()) > sum(
            info[0] for info in before.values())


@pytest.fixture
def cold_caches():
    """Empty coefficient and index caches, emptied again afterwards so the
    tables a test builds are not kept."""
    def clear():
        for cache in coefficient_caches().values():
            cache.cache_clear()

    clear()
    yield
    clear()


def same_array(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestCoefficientTables:
    @pytest.mark.usefixtures("cold_caches")
    def test_tables_and_blocks_match_the_per_term_formula(self):
        # Both sides of every table at each weight l <= 6 (the verify range)
        # and at l = 10, 19.5 and 20 (the largest accepted); the whole range
        # to l = 20 would cost ~3 s.
        for L in [*range(13), 20, 39, 40]:
            for alternating in (True, False):
                pairs = [(A, K) for A in range(-L, L + 1, 2)
                         for K in range(-L, L + 1, 2)]
                got = [lorentz_harmonics._angular_row(L, A, alternating)
                       [(K + L) // 2] for A, K in pairs]
                want = [angular_terms_reference(L, A, K, alternating)
                        for A, K in pairs]
                assert repr(got) == repr(want), (L, alternating)
                coefficients, powers = lorentz_harmonics._side_block(
                    L, alternating)
                want_coefficients, want_powers = side_block_reference(L, want)
                assert same_array(coefficients, want_coefficients)
                assert same_array(powers, want_powers)
            assert same_array(lorentz_harmonics._series_block(L),
                              series_block_reference(L))

    @pytest.mark.usefixtures("cold_caches")
    def test_one_z_sum_builds_only_its_own_rows(self, monkeypatch):
        built = []
        row = lorentz_harmonics._angular_row

        def recorded(L, A, alternating):
            built.append((L, A, alternating))
            return row(L, A, alternating)

        monkeypatch.setattr(lorentz_harmonics, "_angular_row", recorded)
        z_sum(HarmonicIndex(20, 1, -3), 1.0, 0.5)
        # The m = 1 rotation row, read from its plain row, and the n = -3
        # rapidity row: one build each.
        assert row.cache_info().currsize == 3
        assert set(built) == {(40, 2, True), (40, 2, False), (40, -6, False)}


class TestOutOfRange:
    @pytest.mark.parametrize("evaluate", [
        lambda: z_sum(HarmonicIndex(60, 0, 0), 1.0, 0.5),
        lambda: z_2f1(HarmonicIndex(60, 0, 0), 1.0, 0.5),
        lambda: su2_factor_p(60, 0, 59, 1.0),
        lambda: qu2_factor_jacobi(60, 59, 0, 0.5),
        lambda: generalized_m_values(60, 0, 0, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0),
    ])
    def test_factorial_overflow_names_l(self, evaluate):
        with pytest.raises(ValueError, match="^l=60 is out of range"):
            evaluate()

    @pytest.mark.parametrize("evaluate", [
        lambda: z_sum(HarmonicIndex(3, 0, 0), 1.0, 800.0),
        lambda: z_2f1(HarmonicIndex(3, 0, 0), 1.0, 800.0),
        lambda: qu2_factor_jacobi(3, 0, 0, 800.0),
        lambda: generalized_m_values(3, 0, 0, 0.0, 0.0, 1.0, 800.0, 0.0, 0.0),
    ])
    def test_rapidity_overflow_names_tau(self, evaluate):
        with pytest.raises(ValueError, match=r"^tau=800\.0 is out of range"):
            evaluate()

    def test_values_just_inside_the_rapidity_bound_are_finite(self):
        tau = 2 * 709.0 / 6
        for m in all_projections(3):
            value = z_sum(HarmonicIndex(3, m, 0), 1.0, tau)
            assert cmath.isfinite(value)

    @pytest.mark.parametrize("evaluate", [
        lambda: su2_factor_p(10, 0, 0, math.pi),
        lambda: z_2f1(HarmonicIndex(10, 0, 0), math.pi, 0.2),
        lambda: su2_factor_p(17, 0, 0, math.pi - 1e-9),
        lambda: z_2f1(HarmonicIndex(17, 0, 0), math.pi - 1e-9, 0.2),
    ])
    def test_tangent_overflow_names_theta(self, evaluate):
        with pytest.raises(ValueError, match=r"^theta=3\.14\d* is out of range "
                                             r"for l=1[07]"):
            evaluate()

    @pytest.mark.parametrize("evaluate", [
        lambda: su2_factor_p(20000, 0, 0, 1.0),
        lambda: z_sum(HarmonicIndex(1e6, 0, 0), 1.0, 0.0),
        lambda: HarmonicIndex(1e308, 0, 0),
        lambda: z_2f1(HarmonicIndex(21, 0, 0), 1.0, 0.5),
        lambda: qu2_factor_jacobi(21, 0, 0, 0.5),
        lambda: zonal_z(21, 1.0, 0.5),
        lambda: generalized_m_values(21, 0, 0, 0.0, 0.0, 1.0, 0.5, 0.0, 0.0),
        lambda: associated_m(21, 0, make_angles(0.0, 0.0, 1.0, 0.5, 0.0, 0.0)),
    ])
    def test_huge_weight_refused_before_any_factorial(self, evaluate):
        with pytest.raises(ValueError, match="is out of range: l must not "
                                             "exceed 20$"):
            evaluate()

    def test_largest_weight_still_evaluates(self):
        # P^l_ll(cos theta) = cos^(2l)(theta/2)
        assert su2_factor_p(20, 20, 20, 1.0) == 0.005389139158073683
        with pytest.raises(ValueError, match="^l=20.5 is out of range: l must "
                                             "not exceed 20$"):
            su2_factor_p(20.5, 20.5, 20.5, 1.0)

    def test_tangent_forms_at_pi_inside_the_bound(self):
        # l = 9 is the largest integer weight whose tangent sums fit at pi.
        l, tau = 9, 0.2
        projections = all_projections(l)
        for m in projections:
            for n in projections:
                want = z_sum(HarmonicIndex(l, m, n), math.pi, tau)
                factored = sum(su2_factor_p(l, m, k, math.pi)
                               * qu2_factor_jacobi(l, k, n, tau)
                               for k in projections)
                bound = 1e-12 * max(1.0, abs(want))
                assert abs(z_2f1(HarmonicIndex(l, m, n), math.pi, tau)
                           - want) <= bound
                assert abs(factored - want) <= bound

    @pytest.mark.parametrize("evaluate", [
        lambda: generalized_m_values(1, 1, 0, 0.0, -710.0, 1.0, 0.0, 0.0, 0.0),
        lambda: generalized_m_values(1, 0, -1, 0.0, 0.0, 1.0, 0.0, 0.0, 710.0),
        # the weight alone fits, but weight * e^(l |tau|) does not
        lambda: generalized_m_values(1, 1, 0, 0.0, -700.0, 1.0, 100.0, 0.0, 0.0),
        lambda: associated_m(1, 1, make_angles(0.0, -710.0, 1.0, 0.0, 0.0, 0.0)),
    ])
    def test_weight_overflow_names_epsilon_and_vareps(self, evaluate):
        with pytest.raises(ValueError, match=r"^epsilon=.*, vareps=.* are out "
                                             r"of range"):
            evaluate()

    @pytest.mark.parametrize("l, m, n", [(1, 1, -1), (1, 0, 0), (0, 0, 0),
                                         (1.5, 0.5, -1.5)])
    @pytest.mark.parametrize("name", ["phi", "epsilon", "theta", "chi",
                                      "vareps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_named(self, l, m, n, name, value):
        # Neither a NaN value, a silent 0 or 1, nor a bare "math domain error".
        angles = dict(phi=0.3, epsilon=0.1, theta=0.5, chi=0.4, vareps=-0.2)
        angles[name] = value
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite, got {value!r}$"):
            generalized_m_values(l, m, n, angles["phi"], angles["epsilon"],
                                 angles["theta"], 0.2, angles["chi"],
                                 angles["vareps"])

    def test_overflowing_finite_parameters_are_refused(self):
        with pytest.raises(ValueError, match="is not finite$"):
            generalized_m_values(1, 1, -1, 1e308, 0.0, 0.5, 0.2, -1e308, 0.0)
        with pytest.raises(ValueError,
                           match="m epsilon \\+ n vareps overflows"):
            generalized_m_values(1, 1, 1, 0.0, 1e308, 0.5, 0.2, 0.0, 1e308)

    def test_weights_just_inside_the_bound_are_finite(self):
        value = generalized_m_values(1, 1, 0, 0.0, -600.0, 1.0, 100.0, 0.0, 0.0)
        assert cmath.isfinite(value)


GRID_THETAS = [0.0, 0.05, math.pi / 2, 2.9, math.pi]
GRID_TAUS = [-1.0, -0.0, 0.0, 0.7]
GRID_ROUTES = [(z_sum_grid, z_sum)]
NAN, INF = float("nan"), float("inf")


def first_scalar_error(route, indices, thetas, taus):
    """The message of the first ValueError of the row-major scalar loop."""
    try:
        for idx in indices:
            for theta in thetas:
                for tau in taus:
                    route(idx, theta, tau)
    except ValueError as error:
        return str(error)
    return None


def chunked(form, name):
    """A grid over indices of the ``_Side`` block form summed through
    ``lorentz_harmonics._chunks``, as the Z grid suites sum it: one m row
    and one n row per index, conjugated for a dotted index."""
    def grid(indices, thetas, taus):
        grids = np.empty((len(indices), len(thetas), len(taus)), complex)
        for position, idx in enumerate(indices):
            L, M, N = idx.doubled
            for i, j, summed in lorentz_harmonics._chunks(
                    L, [(M + L) // 2], [(N + L) // 2], thetas, taus):
                [value] = summed(form)
                rows, columns = value.shape
                grids[position, i:i + rows, j:j + columns] = (
                    value.conj() if idx.dotted else value)
        return grids

    grid.__name__ = name
    return grid


#: z_2f1 over a grid, as the hypergeom suite sums it.
hypergeometric_grid = chunked("hypergeometric", "hypergeometric_grid")
#: sum_k P^l_mk Q^l_kn over a grid, as the factorization suite sums it.
factor_halves_grid = chunked("tangent", "factor_halves_grid")


# Each half is reused by every index and point that shares it.
cached_su2_factor_p = functools.lru_cache(maxsize=None)(su2_factor_p)
cached_qu2_factor_jacobi = functools.lru_cache(maxsize=None)(qu2_factor_jacobi)


def scalar_factor_halves(idx, theta, tau):
    """sum_k su2_factor_p * qu2_factor_jacobi in ascending k, from 0j,
    conjugated for a dotted index."""
    total = 0j
    for k in all_projections(idx.l):
        total += (cached_su2_factor_p(idx.l, idx.m, k, theta)
                  * cached_qu2_factor_jacobi(idx.l, k, idx.n, tau))
    return total.conjugate() if idx.dotted else total


ENGINE_ROUTES = GRID_ROUTES + [(hypergeometric_grid, z_2f1),
                               (factor_halves_grid, scalar_factor_halves)]


class TestGrids:
    @pytest.mark.parametrize("dotted", [False, True])
    @pytest.mark.parametrize("grid, route", ENGINE_ROUTES)
    def test_bit_identical_to_the_scalar_routes(self, grid, route, dotted):
        for doubled_l in range(13):
            projections = all_projections(doubled_l / 2)
            indices = [HarmonicIndex(doubled_l / 2, m, n, dotted=dotted)
                       for m in projections for n in projections]
            grids = grid(indices, GRID_THETAS, GRID_TAUS)
            assert grids.dtype == np.complex128
            assert grids.shape == (len(indices), len(GRID_THETAS),
                                   len(GRID_TAUS))
            for idx, rows in zip(indices, grids.tolist()):
                for theta, row in zip(GRID_THETAS, rows):
                    for tau, value in zip(GRID_TAUS, row):
                        # repr tells signed zeros apart, as table CSV does.
                        assert repr(value) == repr(route(idx, theta, tau)), (
                            idx, theta, tau)

    @pytest.mark.parametrize("grid, route", GRID_ROUTES)
    def test_mixed_weights_in_one_call(self, grid, route):
        # Interleaved weights: the grid sums one weight at a time and must
        # hand the rows back in this order.  Int dotted flags are stored as
        # bools, so the grid masks the dotted members rather than indexing.
        indices = [HarmonicIndex(2, 1, -2), HarmonicIndex(0.5, -0.5, 0.5, True),
                   HarmonicIndex(2, 1, -2), HarmonicIndex(6, 0, 3),
                   HarmonicIndex(0.5, 0.5, -0.5), HarmonicIndex(0, 0, 0),
                   HarmonicIndex(1, 1, 0, dotted=0),
                   HarmonicIndex(1, 0, 1, dotted=0),
                   HarmonicIndex(1, 1, 1, dotted=1)]
        assert indices[-1].dotted is True and indices[-2].dotted is False
        thetas, taus = [0.0, 0.3, 2.2], [-0.4, -0.0, 0.0, 0.9]
        grids = grid(indices, thetas, taus)
        assert grids.shape == (len(indices), len(thetas), len(taus))
        for idx, rows in zip(indices, grids.tolist()):
            assert [[repr(value) for value in row] for row in rows] == [
                [repr(route(idx, theta, tau)) for tau in taus] for theta in thetas]
        # Equal indices get entries of their own: writing one leaves the other.
        grids[0, 0, 0] = 12345.0
        assert grids[2, 0, 0] == route(indices[2], thetas[0], taus[0])

    @pytest.mark.parametrize("indices", [
        [HarmonicIndex(3, 1, n) for n in all_projections(3)],
        [HarmonicIndex(1.5, m, n, dotted=(m + n) % 2 == 0)
         for m in all_projections(1.5) for n in all_projections(1.5)],
        [HarmonicIndex(1.5, m, n) for m in all_projections(1.5)
         for n in all_projections(1.5)][::-1],
        [HarmonicIndex(1, 1, 0), HarmonicIndex(1, 1, 0, True),
         HarmonicIndex(1, 1, 0)],
        [HarmonicIndex(3, m, m, dotted=m > 0) for m in all_projections(3)],
        [HarmonicIndex(2, 1, -2), HarmonicIndex(2, -2, 1),
         HarmonicIndex(2, 1, -2, True)],
    ], ids=["one-m-row", "mixed-dotted", "reversed", "repeated", "diagonal",
            "repeated-sparse"])
    @pytest.mark.parametrize("grid, route", GRID_ROUTES)
    def test_sparse_lists(self, grid, route, indices):
        # Lists other than one weight's (m, n) pairs in row-major order: each
        # index sums its own pair, bit-identical to the scalar route.
        thetas, taus = [0.0, 0.3, 2.2], [-0.4, -0.0, 0.0, 0.9]
        grids = grid(indices, thetas, taus)
        for idx, rows in zip(indices, grids.tolist()):
            assert [[repr(value) for value in row] for row in rows] == [
                [repr(route(idx, theta, tau)) for tau in taus]
                for theta in thetas], idx

    @pytest.mark.parametrize("theta", [1.1, math.pi])
    @pytest.mark.parametrize("l, tau", [
        (10, 70.9), (10, -70.9), (0.5, 1417.0), (0.5, -1417.0)])
    @pytest.mark.parametrize("grid, route", GRID_ROUTES)
    def test_largest_accepted_tau_is_warning_free(self, grid, route, l, tau,
                                                 theta):
        projections = all_projections(l)
        indices = [HarmonicIndex(l, m, n) for m in projections for n in projections]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grids = grid(indices, [theta], [tau])
        for idx, rows in zip(indices, grids.tolist()):
            assert repr(rows[0][0]) == repr(route(idx, theta, tau)), idx

    @pytest.mark.parametrize("grid, route", GRID_ROUTES)
    def test_empty_grids(self, grid, route):
        idx = HarmonicIndex(1, 0, 1)
        for indices, thetas, taus, shape in [
                ([], [0.1], [0.2], (0, 1, 1)), ([idx], [], [0.2], (1, 0, 1)),
                ([idx], [0.1, 0.2], [], (1, 2, 0))]:
            grids = grid(indices, thetas, taus)
            assert grids.shape == shape and grids.dtype == np.complex128

    @pytest.mark.parametrize("thetas, taus", [
        ([4.0, 0.1], [0.2, NAN]),
        ([0.1, 4.0], [0.2, NAN]),
        ([0.1, 0.2, -1.0], [0.2, 800.0, 0.3]),
        ([0.1, -1.0], [0.2, 0.3, 800.0]),
        ([0.1, 0.2], [0.3, INF]),
        ([0.1, NAN], [0.3, 0.4]),
        ([0.1, 5.0], [100.0, 0.3]),
        ([math.pi, 0.1], [0.2, 800.0]),
        ([0.1, math.pi], [0.2, 800.0]),
    ])
    @pytest.mark.parametrize("grid, route", GRID_ROUTES)
    @pytest.mark.parametrize("l", [2, 10])
    def test_out_of_range_raises_the_scalar_loops_first_error(
            self, grid, route, l, thetas, taus):
        # At l = 10, tau = 100 is out of range; the scalar loop meets it
        # before tau = 800.
        indices = [HarmonicIndex(l, 1, -1), HarmonicIndex(1, 0, 1)]
        message = first_scalar_error(route, indices, thetas, taus)
        assert message is not None
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid(indices, thetas, taus)


class TestEngineOnVerifyGrids:
    """The grid engine against the scalar routes on the grids verify uses.

    Each weight is evaluated on the config grid and on (0, *thetas) x
    (*taus, 0), the shared direct grid of the Z grid suites.
    """

    @pytest.mark.parametrize("density", [3, 4, 10])
    @pytest.mark.parametrize("grid, route", ENGINE_ROUTES)
    def test_repr_identical_to_the_scalar_routes(self, grid, route, density):
        config = SuiteConfig(lmax=6, grid_density=density)
        thetas, taus = _theta_grid(config), _tau_grid(config)
        wide_thetas, wide_taus = (0.0, *thetas), (*taus, 0.0)
        # Wide-grid points (i, j); plain-grid point (i - 1, j) where it
        # exists.  At density 10 the two diagonals that meet every angle of
        # both grids keep the scalar loop short.
        points = [(i, j) for i in range(len(wide_thetas))
                  for j in range(len(wide_taus))
                  if density < 10 or i - j in (0, 1)]
        for doubled_l in range(13):
            projections = all_projections(doubled_l / 2)
            indices = [HarmonicIndex(doubled_l / 2, m, n)
                       for m in projections for n in projections]
            wide = grid(indices, wide_thetas, wide_taus).tolist()
            plain = grid(indices, thetas, taus).tolist()
            for idx, wide_rows, plain_rows in zip(indices, wide, plain):
                for i, j in points:
                    want = repr(route(idx, wide_thetas[i], wide_taus[j]))
                    assert repr(wide_rows[i][j]) == want, (idx, i, j)
                    if i > 0 and j < len(taus):
                        assert repr(plain_rows[i - 1][j]) == want, (idx, i, j)

    @pytest.mark.parametrize("grid, route", ENGINE_ROUTES)
    def test_repr_identical_at_the_largest_weight(self, grid, route):
        projections = all_projections(20)[::5]
        indices = [HarmonicIndex(20, m, n) for m in projections
                   for n in projections]
        thetas, taus = [0.0, 0.7, 2.9], [-1.0, 0.0, 0.35]
        for idx, rows in zip(indices, grid(indices, thetas, taus).tolist()):
            assert [[repr(value) for value in row] for row in rows] == [
                [repr(route(idx, theta, tau)) for tau in taus]
                for theta in thetas], idx


class TestGridChunks:
    """Long axes are summed a chunk of angles at a time."""

    @pytest.mark.parametrize("grid, route", ENGINE_ROUTES)
    def test_chunks_repr_identical_to_the_scalar_routes(self, grid, route,
                                                        monkeypatch):
        # Chunks of 2 to 4 angles at l = 2 and 3: chunk edges fall inside
        # both axes.
        monkeypatch.setattr(lorentz_harmonics, "_BLOCK_SIZE", 30)
        indices = [HarmonicIndex(2, 1, -2), HarmonicIndex(0.5, -0.5, 0.5, True),
                   HarmonicIndex(2, 0, 2, True), HarmonicIndex(3, -3, 1)]
        thetas = [0.0, 0.3, 0.9, 1.4, 2.2, 2.9, 3.0]
        taus = [-1.1, -0.0, 0.0, 0.4, 0.8, 1.7]
        for idx, rows in zip(indices, grid(indices, thetas, taus).tolist()):
            assert [[repr(value) for value in row] for row in rows] == [
                [repr(route(idx, theta, tau)) for tau in taus]
                for theta in thetas], idx

    @pytest.mark.parametrize("grid, route", ENGINE_ROUTES)
    def test_peak_memory_does_not_grow_with_an_axis(self, grid, route,
                                                    monkeypatch):
        # Chunks of 100 angles at l = 10.  Blocks over the whole axis would
        # add over 0.5 MB from 300 to 1500 angles; the grid itself adds 19 kB.
        monkeypatch.setattr(lorentz_harmonics, "_BLOCK_SIZE", 21 * 100)
        indices = [HarmonicIndex(10, 1, -3)]

        def peak(n):
            axis = np.linspace(0.0, 3.0, n).tolist()
            tracemalloc.start()
            try:
                grid(indices, axis, [0.0])
                grid(indices, [1.0], axis)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # fill the coefficient caches
        assert peak(1500) - peak(300) < 256 * 1024

    def test_grid_holds_one_list_per_axis(self, monkeypatch):
        # When the grid starts to fill, z_sum_grid holds one list of the
        # 200 000-point axis (8 bytes a point) beyond the caller's, not a
        # copy and a validated list.
        axis = np.linspace(0.0, 3.0, 200_000).tolist()
        sizes, values = [], lorentz_harmonics._grid_values

        def entered(*args):
            sizes.append(tracemalloc.get_traced_memory()[0])
            return values(*args)

        monkeypatch.setattr(lorentz_harmonics, "_grid_values", entered)
        z_sum_grid([HarmonicIndex(4, 1, -3)], [0.5], [0.7])  # fill the caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grid = z_sum_grid([HarmonicIndex(4, 1, -3)], axis, [0.7])
        finally:
            tracemalloc.stop()
        assert grid.shape == (1, len(axis), 1)
        assert sizes[-1] - start < 8 * len(axis) + 256 * 1024


class TestGeneralizedM:
    def test_zero_projections_reduce_to_z(self):
        angles = make_angles(0.3, 0.7, 1.1, -0.4, 2.0, 0.9)
        got = generalized_m(HarmonicIndex(2, 0, 0), angles)
        assert got == z_sum(HarmonicIndex(2, 0, 0), 1.1, -0.4)

    def test_identity_angles_give_delta(self):
        angles = make_angles(0, 0, 0, 0, 0, 0)
        for l, m, n in [(1, 1, 1), (1, 1, 0), (1.5, 0.5, 0.5), (2, -2, -2)]:
            got = generalized_m(HarmonicIndex(l, m, n), angles)
            assert got == (1.0 if m == n else 0.0)

    def test_factor_by_factor(self):
        angles = make_angles(0.2, 0.1, 0.5, 0.3, 0.0, 0.0)
        got = generalized_m(HarmonicIndex(1, 1, 0), angles)
        want = cmath.exp(-complex(0.1, 0.2)) * z_sum(HarmonicIndex(1, 1, 0), 0.5, 0.3)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_both_exponential_weights(self):
        angles = make_angles(0.2, 0.1, 0.5, 0.3, 1.3, -0.6)
        got = generalized_m(HarmonicIndex(2, 1, -1), angles)
        want = (cmath.exp(-complex(0.1, 0.2))
                * z_sum(HarmonicIndex(2, 1, -1), 0.5, 0.3)
                * cmath.exp(complex(-0.6, 1.3)))
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    @given(
        phi=st.floats(min_value=0, max_value=6.28),
        epsilon=st.floats(min_value=-2, max_value=2),
        theta=st.floats(min_value=0, max_value=math.pi),
        tau=st.floats(min_value=-2, max_value=2),
        chi=st.floats(min_value=-6.28, max_value=6.28),
        vareps=st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=50)
    def test_dotted_is_pointwise_conjugate(self, phi, epsilon, theta, tau, chi, vareps):
        for l, m, n in [(1, 1, 0), (1.5, 0.5, -0.5), (2, 2, 1)]:
            undotted = generalized_m_values(l, m, n, phi, epsilon, theta, tau,
                                            chi, vareps)
            dotted = generalized_m_values(l, m, n, phi, epsilon, theta, tau,
                                          chi, vareps, dotted=True)
            assert dotted == undotted.conjugate()

    def test_equals_the_raw_entry_without_calling_it(self, monkeypatch):
        # Its index and angles were validated when built: no second pass.
        rng = np.random.default_rng(35)
        cases = []
        for _ in range(60):
            l = int(rng.integers(0, 9)) / 2
            m, n = (float(rng.integers(0, int(2 * l) + 1)) - l for _ in range(2))
            angles = make_angles(float(rng.uniform(0, 6.28)), float(rng.normal()),
                                 float(rng.uniform(0, math.pi)), float(rng.normal()),
                                 float(rng.uniform(-6.28, 6.28)), float(rng.normal()))
            cases.append((HarmonicIndex(l, m, n, bool(rng.integers(0, 2))), angles))
        expected = [generalized_m_values(
            idx.l, idx.m, idx.n, a.phi, a.epsilon, a.theta, a.tau, a.chi,
            a.vareps, dotted=idx.dotted) for idx, a in cases]
        monkeypatch.setattr(lorentz_harmonics, "generalized_m_values", None)
        got = [generalized_m(idx, angles) for idx, angles in cases]
        assert [(v.real.hex(), v.imag.hex()) for v in got] == [
            (v.real.hex(), v.imag.hex()) for v in expected]


class TestAssociatedAndZonal:
    def test_zonal_weight_zero(self):
        assert zonal_z(0, 0.9, 1.7) == 1.0

    def test_associated_at_zero_projection_is_zonal(self):
        angles = make_angles(0.4, 1.0, 0.8, -0.3, 0.1, 0.2)
        assert associated_m(2, 0, angles) == zonal_z(2, 0.8, -0.3)

    def test_associated_sign_convention(self):
        # weight factor is e^(-m(epsilon + i phi)): decaying for m*epsilon > 0
        angles = make_angles(0.3, 0.2, 0.9, 0.5, 0.0, 0.0)
        got = associated_m(1, 1, angles)
        want = cmath.exp(-complex(0.2, 0.3)) * z_sum(HarmonicIndex(1, 1, 0), 0.9, 0.5)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_associated_ignores_third_angle(self):
        base = make_angles(0.3, 0.2, 0.9, 0.5, 0.0, 0.0)
        other = make_angles(0.3, 0.2, 0.9, 0.5, 2.2, -1.4)
        assert associated_m(2, -1, base) == associated_m(2, -1, other)

    def test_zonal_matches_explicit_formula(self):
        got = zonal_z(1, 0.4, 0.0)
        want = z_reference(1, 0, 0, 0.4, 0.0)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
