"""Tests for the verification-suite registry and report assembly."""

import json
import math

import numpy as np
import pytest

from poincarewaves import suites
from poincarewaves.lorentz_harmonics import (
    HarmonicIndex,
    qu2_factor_jacobi,
    su2_factor_p,
    z_2f1,
    z_sum,
)
from poincarewaves.lorentz_sector import VARIANTS
from poincarewaves.suites import (
    DEFAULT_TOLERANCES,
    SUITE_NAMES,
    SuiteConfig,
    _tau_grid,
    _theta_grid,
    build_report,
    report_exit_code,
    run_suite,
)

FAST = SuiteConfig(lmax=1, seed=11)


class TestSuiteConfig:
    def test_defaults(self):
        config = SuiteConfig()
        assert config.lmax == 3
        assert config.grid_density == 5
        assert config.seed == 0
        assert config.variant == "corrected"
        assert config.corrected_lambda is True

    @pytest.mark.parametrize("kwargs", [
        {"lmax": 7}, {"lmax": -1}, {"grid_density": 1}, {"seed": -2},
        {"c": 0.0}, {"c": -1.0}, {"variant": "folklore"},
        {"tolerances": {"nosuch": 1e-9}}, {"tolerances": {"casimir": -1.0}},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       np.float64("nan")])
    @pytest.mark.parametrize("field, message", [
        ("lmax", "lmax must be an integer in [0, 6]"),
        ("grid_density", "grid_density must be an integer >= 2"),
        ("seed", "seed must be a non-negative integer"),
    ])
    def test_non_finite_integer_field_names_the_field(self, field, message,
                                                      value):
        with pytest.raises(ValueError) as error:
            SuiteConfig(**{field: value})
        assert str(error.value) == f"{message}, got {value!r}"

    def test_tolerance_override(self):
        config = SuiteConfig(tolerances={"casimir": 1e-3})
        assert config.tolerance("casimir") == 1e-3
        assert config.tolerance("legendre") == DEFAULT_TOLERANCES["legendre"]
        resolved = config.resolved_tolerances()
        assert resolved["casimir"] == 1e-3
        assert set(resolved) == set(DEFAULT_TOLERANCES)


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nosuch", FAST)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_each_suite_green(self, name):
        for suite, record in run_suite(name, FAST):
            assert suite == name
            assert record.passed or record.flagged, (
                name, record.check_name, record.indices, record.residual)

    def test_all_is_sorted_union_of_suites(self):
        combined = run_suite("all", FAST)
        keys = [(suite, record.check_name,
                 json.dumps(record.indices, sort_keys=True),
                 json.dumps(record.point, sort_keys=True))
                for suite, record in combined]
        assert keys == sorted(keys)
        for name in SUITE_NAMES:
            standalone = build_report(name, FAST)["records"]
            emitted = [r for r in build_report("all", FAST)["records"]
                       if r["suite"] == name]
            assert standalone == emitted

    def test_deterministic_reports(self):
        first = json.dumps(build_report("all", SuiteConfig(lmax=1, seed=9)),
                           sort_keys=True)
        second = json.dumps(build_report("all", SuiteConfig(lmax=1, seed=9)),
                            sort_keys=True)
        assert first == second

    def test_seed_changes_sampled_points(self):
        one = build_report("casimir", SuiteConfig(lmax=1, seed=1))
        two = build_report("casimir", SuiteConfig(lmax=1, seed=2))
        assert one["records"] != two["records"]


class TestReportShape:
    def test_schema_fields(self):
        report = build_report("transversality", FAST)
        assert set(report) == {"suite", "config", "records", "summary"}
        assert report["suite"] == "transversality"
        assert set(report["config"]) == {
            "lmax", "grid_density", "seed", "c", "variant",
            "corrected_lambda", "tolerances"}
        for record in report["records"]:
            assert set(record) == {"suite", "name", "indices", "point",
                                   "residual", "scale", "tolerance",
                                   "passed", "flagged"}
            json.dumps(record)

    def test_summary_counts(self):
        report = build_report("all", FAST)
        records = report["records"]
        assert report["summary"] == {
            "passed": sum(1 for r in records if r["passed"]),
            "failed": sum(1 for r in records if not r["passed"]),
            "flagged": sum(1 for r in records if r["flagged"]),
        }

    def test_holomorphy_records_flagged(self):
        report = build_report("holomorphy", SuiteConfig(lmax=2, seed=3))
        assert report["records"]
        assert all(r["flagged"] for r in report["records"])
        assert report_exit_code(report) == 0


def _indented_json(report):
    return json.dumps(report, sort_keys=True, indent=2)


class TestReportJson:
    """The verify report's text is exactly json.dumps(sort_keys, indent=2)."""

    @pytest.mark.parametrize("name, kwargs, exit_code", [
        ("all", {}, 0),
        ("all", {"variant": "paper"}, 0),
        ("all", {"corrected_lambda": False}, 0),
        ("all", {"tolerances": {"cross_formula": 0.0, "casimir": 1e-12}}, 1),
        ("radial", {"seed": 5}, 0),
    ])
    def test_built_reports(self, name, kwargs, exit_code):
        report = build_report(name, SuiteConfig(**kwargs))
        assert report_exit_code(report) == exit_code
        assert suites._report_json(report) == _indented_json(report)

    def test_hand_built_report(self):
        escapes = 'q"uote \\ back, "slash"\n é中'
        record = {
            "suite": escapes, "name": "casimir",
            "indices": {"draw": 3, "l": -0.0, "dotted": True, escapes: "x"},
            "point": {}, "residual": math.nan, "scale": math.inf,
            "tolerance": 1e-12, "passed": False, "flagged": True,
        }
        other = dict(record, indices={}, point={"theta": 1.5e300, "k": escapes},
                     residual=0.0, scale=-math.inf, passed=True, flagged=False)
        report = {
            "suite": escapes,
            "config": {"lmax": 0, "c": math.nan, "tolerances": {"a": 0.0}},
            "records": [record, other],
            "summary": {"passed": 1, "failed": 1, "flagged": 1},
        }
        assert suites._report_json(report) == _indented_json(report)
        empty = dict(report, records=[])
        assert suites._report_json(empty) == _indented_json(empty)


class TestFlaggedVariants:
    def test_paper_radial_fails_flagged_exit_zero(self):
        report = build_report("radial", SuiteConfig(seed=5, variant="paper"))
        raw = [r for r in report["records"] if r["name"] == "radial"]
        assert raw and all(not r["passed"] and r["flagged"] for r in raw)
        identity = [r for r in report["records"]
                    if r["name"] == "radial_discrepancy"]
        assert identity and all(r["passed"] for r in identity)
        assert report["summary"]["failed"] == len(raw)
        assert report_exit_code(report) == 0

    def test_corrected_radial_passes_unflagged(self):
        report = build_report("radial", SuiteConfig(seed=5))
        assert report["summary"]["failed"] == 0
        assert report["summary"]["flagged"] == 0
        assert not any(r["name"] == "radial_discrepancy"
                       for r in report["records"])

    def test_printed_lambda_fails_flagged_exit_zero(self):
        report = build_report(
            "commutators", SuiteConfig(seed=5, corrected_lambda=False))
        failures = [r for r in report["records"] if not r["passed"]]
        assert failures and all(r["flagged"] for r in failures)
        assert report_exit_code(report) == 0

    def test_corrected_lambda_all_green(self):
        report = build_report("commutators", SuiteConfig(seed=5))
        assert report["summary"]["failed"] == 0


class TestControls:
    def test_deficit_controls_report_zero_residual(self):
        report = build_report("all", FAST)
        control_names = {"maxwell_control", "dirac_control",
                         "lagrangian_control", "lambda_control"}
        seen = set()
        for record in report["records"]:
            if record["name"] in control_names:
                seen.add(record["name"])
                assert record["residual"] == 0.0, record
                assert record["passed"]
        assert seen == control_names

    def test_tolerance_override_can_force_failure(self):
        report = build_report(
            "casimir", SuiteConfig(lmax=1, seed=11,
                                   tolerances={"casimir": 0.0}))
        assert report["summary"]["failed"] > 0
        assert report_exit_code(report) == 1


#: The smallest grid on which every check name still makes a record.
SMALL = {"lmax": 1, "grid_density": 2, "seed": 11}


class TestToleranceByName:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("corrected_lambda", [True, False])
    def test_records_carry_their_own_tolerance(self, variant,
                                               corrected_lambda):
        config = SuiteConfig(variant=variant, corrected_lambda=corrected_lambda)
        for record in build_report("all", config)["records"]:
            assert record["tolerance"] == config.tolerance(record["name"])

    def test_record_names_are_the_tolerance_names(self):
        names = {record["name"]
                 for variant in VARIANTS for corrected_lambda in (True, False)
                 for record in build_report("all", SuiteConfig(
                     variant=variant, corrected_lambda=corrected_lambda,
                     **SMALL))["records"]}
        assert names == set(DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("name", sorted(DEFAULT_TOLERANCES))
    def test_override_moves_only_its_own_records(self, name):
        # 0.125 is no default tolerance, so a record judged by the override
        # under another name shows up.
        variant = "paper" if name == "radial_discrepancy" else "corrected"
        config = SuiteConfig(variant=variant, tolerances={name: 0.125}, **SMALL)
        records = build_report("all", config)["records"]
        assert any(record["name"] == name for record in records)
        for record in records:
            expected = (0.125 if record["name"] == name
                        else DEFAULT_TOLERANCES[record["name"]])
            assert record["tolerance"] == expected, record


def _weights(config):
    return [d / 2 for d in range(2 * config.lmax + 1)]


def _projections(l):
    return [-l + j for j in range(int(round(2 * l)) + 1)]


def _worst_points(config, residual_and_scale):
    """Per index, (point, residual, scale) at its worst theta x tau point."""
    points = [(theta, tau) for theta in _theta_grid(config)
              for tau in _tau_grid(config)]
    expected = {}
    for l in _weights(config):
        for m in _projections(l):
            for n in _projections(l):
                idx = HarmonicIndex(l, m, n)
                scan = [(point, *residual_and_scale(idx, *point))
                        for point in points]
                worst = max(residual / max(1.0, scale)
                            for _, residual, scale in scan)
                expected[(l, m, n)] = next(
                    entry for entry in scan
                    if entry[1] / max(1.0, entry[2]) == worst)
    return expected


def scalar_cross_formula(config):
    def residual_and_scale(idx, theta, tau):
        direct = z_sum(idx, theta, tau)
        return abs(direct - z_2f1(idx, theta, tau)), abs(direct)
    return _worst_points(config, residual_and_scale)


def scalar_factorization(config):
    def residual_and_scale(idx, theta, tau):
        total = 0.0 + 0.0j
        for k in _projections(idx.l):
            total += (su2_factor_p(idx.l, idx.m, k, theta)
                      * qu2_factor_jacobi(idx.l, k, idx.n, tau))
        direct = z_sum(idx, theta, tau)
        return abs(total - direct), abs(direct)
    return _worst_points(config, residual_and_scale)


def _scalar_matrix(l, theta, tau):
    return np.array([[z_sum(HarmonicIndex(l, m, n), theta, tau)
                      for n in _projections(l)] for m in _projections(l)])


def scalar_identity(config):
    expected = {}
    for l in _weights(config):
        expected[(l,)] = ((0.0, 0.0), max(
            abs(z_sum(HarmonicIndex(l, m, n), 0.0, 0.0)
                - (1.0 if m == n else 0.0))
            for m in _projections(l) for n in _projections(l)), 1.0)
    return expected


def scalar_unitarity(config):
    expected = {}
    for l in _weights(config):
        worst = (-1.0, None)
        for theta in _theta_grid(config):
            matrix = _scalar_matrix(l, theta, 0.0)
            deviation = float(np.abs(matrix @ matrix.conj().T
                                     - np.eye(len(matrix))).max())
            if deviation > worst[0]:
                worst = (deviation, theta)
        expected[(l,)] = ((worst[1], 0.0), worst[0], 1.0)
    return expected


class TestGridRecords:
    @pytest.mark.parametrize("grid_density", [3, 4])  # 3 puts tau = 0 on the grid
    @pytest.mark.parametrize("suite, check, compare", [
        ("hypergeom", "cross_formula", scalar_cross_formula),
        ("hypergeom", "identity", scalar_identity),
        ("hypergeom", "unitarity", scalar_unitarity),
        ("factorization", "factorization", scalar_factorization),
    ])
    def test_records_match_a_scalar_rescan(self, grid_density, suite, check,
                                           compare):
        # Every record of the check, rebuilt from scalar z_sum loops: same
        # indices, and point, residual and scale with the same repr.
        config = SuiteConfig(lmax=2, grid_density=grid_density)
        assert (0.0 in _tau_grid(config)) == (grid_density % 2 == 1)
        records = [record for _, record in run_suite(suite, config)
                   if record.check_name == check]
        found = {tuple(record.indices.values()): (
            repr((record.point["theta"], record.point["tau"])),
            repr(record.residual), repr(record.scale)) for record in records}
        assert len(found) == len(records)
        assert found == {
            key: (repr(point), repr(residual), repr(scale))
            for key, (point, residual, scale) in compare(config).items()}

    def test_factor_halves_once_per_grid_angle(self, monkeypatch):
        calls = {"su2_factor_p": 0, "qu2_factor_jacobi": 0}
        for name in calls:
            route = getattr(suites, name)

            def counted(*args, name=name, route=route):
                calls[name] += 1
                return route(*args)

            monkeypatch.setattr(suites, name, counted)
        run_suite("factorization", SuiteConfig(lmax=2, grid_density=3))
        pairs = sum((d + 1) ** 2 for d in range(5))  # (m, k) or (k, n) pairs
        assert calls == {"su2_factor_p": 3 * pairs, "qu2_factor_jacobi": 3 * pairs}
