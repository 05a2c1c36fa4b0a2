"""Tests for the verification-suite registry and report assembly."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarewaves import suites
from poincarewaves.cli import _report_json
from poincarewaves.differential_checks import json_entries, make_record
from poincarewaves.lorentz_harmonics import (
    HarmonicIndex,
    qu2_factor_jacobi,
    su2_factor_p,
    z_2f1,
    z_sum,
)
from poincarewaves.lorentz_sector import VARIANTS
from poincarewaves.photon_plane_waves import eigenstructure, polarization_vectors
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

    @pytest.mark.parametrize("c", [1e-310, 5e-324])
    def test_c_with_an_infinite_reciprocal_refused(self, c):
        with pytest.raises(ValueError) as error:
            SuiteConfig(c=c)
        assert str(error.value) == (
            f"c must have a finite reciprocal 1/c, got {c!r}")

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_bad_tolerance_names_the_fault(self, value):
        with pytest.raises(ValueError) as error:
            SuiteConfig(tolerances={"casimir": value})
        assert str(error.value) == (
            f"tolerance casimir must be >= 0, got {value!r}"
            if math.isfinite(value) else
            f"tolerance casimir must be finite, got {value!r}")

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


def _reference_key(pair):
    suite, record = pair
    text = json.JSONEncoder(sort_keys=True).encode
    return suite, record.check_name, text(record.indices), text(record.point)


def _run_recording_builds(monkeypatch, name, config):
    """run_suite(name, config) and the (suite, record) pairs in build order."""
    built = []

    def recording(suite, builder):
        def build(*args):
            records = builder(*args)
            built.extend((suite, record) for record in records)
            return records
        return build

    for registry in (suites._GRID_SUITES, suites._SUITE_BUILDERS):
        for suite, builder in registry.items():
            monkeypatch.setitem(registry, suite, recording(suite, builder))
    return run_suite(name, config), built


class TestRecordOrder:
    """run_suite's order is a stable sort of the built records on (suite,
    check name, compact sort_keys JSON of indices, the same of point)."""

    @pytest.mark.parametrize("config", [
        FAST, SuiteConfig(), SuiteConfig(lmax=6, grid_density=4)],
        ids=["fast", "default", "lmax6-density4"])
    def test_stable_sort_on_the_compact_json_key(self, monkeypatch, config):
        ordered, built = _run_recording_builds(monkeypatch, "all", config)
        expected = sorted(built, key=_reference_key)
        assert len(ordered) == len(built) > 0
        assert [suite for suite, _ in ordered] == [suite for suite, _ in expected]
        assert all(got is want for (_, got), (_, want)
                   in zip(ordered, expected))

    def test_map_text_edge_cases(self, monkeypatch):
        maps = [{"a": 10}, {"a": 1}, {}, {"a": 1, "b": 2}, {"a": "x, y"},
                {"a": "x", "b": 1}, {"a": "x"}, {"a": 1.5}, {"a": "}\0{"},
                {"a": "\0"}, {"b": 0}, {}, {"a": 1}]
        records = [make_record(check, indices, {"p": draw}, 0.0, 1.0, 1e-6)
                   for check in ("b", "a")
                   for draw, indices in enumerate(maps)]
        # Equal keys keep their build order.
        records += [make_record("a", {"a": 1}, {"p": 0}, residual, 1.0, 1e-6)
                    for residual in (0.3, 0.1, 0.2)]
        monkeypatch.setitem(suites._SUITE_BUILDERS, "casimir",
                            lambda config: records)
        ordered = [record for _, record in run_suite("casimir", FAST)]
        expected = [record for _, record in sorted(
            (("casimir", record) for record in records), key=_reference_key)]
        assert len(ordered) == len(expected)
        assert all(got is want for got, want in zip(ordered, expected))
        # {"a": 10} before {"a": 1} (compact "10}" < "1}"), {"a": 1} before
        # {} ('"' < "}"), and a ", " inside a string sorts as text:
        # '"x", "b"' < '"x"}' < '"x, y"}'.
        first = [record.indices for record in ordered
                 if record.check_name == "b"]
        assert first.index({"a": 10}) < first.index({"a": 1}) < first.index({})
        assert (first.index({"a": "x", "b": 1}) < first.index({"a": "x"})
                < first.index({"a": "x, y"}))


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

    def test_finite_difference_map_key_order(self):
        # The CSV and text formats print indices and point in insertion order.
        expected = {
            "casimir": (["l", "m", "n", "dotted", "operator", "draw"],
                        ["phi", "epsilon", "theta", "tau", "chi", "vareps"]),
            "legendre": (["l", "m", "n", "dotted", "draw"], ["theta", "tau"]),
            "holomorphy": (["l", "m", "n", "dotted"], ["theta", "tau"]),
            # The two families' commutator closures share one loop.
            "commutator alpha": (["family", "triple"], []),
            "commutator lambda": (["family", "triple", "corrected"], []),
        }
        seen = set()
        for record in build_report("all", FAST)["records"]:
            name = record["name"]
            if name == "commutator" and "triple" in record["indices"]:
                name += " " + record["indices"]["family"]
            if name in expected:
                indices, point = expected[name]
                assert list(record["indices"]) == indices, record
                assert list(record["point"]) == point, record
                seen.add(name)
        assert seen == set(expected)


def _indented_json(report):
    return json.dumps(report, sort_keys=True, indent=2)


def _own_report_json(report):
    """_report_json of a hand-built report, fed json_entries of its maps."""
    return _report_json(report, json_entries(
        [r[key] for r in report["records"] for key in ("indices", "point")]))


_TEXTS = st.lists(st.one_of(
    st.sampled_from(["\0", "}\0{", "}", "{", ", ", '"', "\\", "\n", "é",
                     "中", "\0{", "}\0", "\u2028"]),
    st.text(max_size=4)), max_size=4).map("".join)
_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                     1e300]), st.floats())
_SCALARS = st.one_of(st.booleans(), st.integers(), _FLOATS, _TEXTS)
_MAPS = st.dictionaries(_TEXTS, _SCALARS, max_size=4)


def _report(maps):
    """A hand-built report whose records carry maps in order, two each."""
    maps = maps + [{}] * (len(maps) % 2)
    records = [{"suite": "s", "name": "n", "indices": indices,
                "point": point, "residual": 0.5, "scale": math.inf,
                "tolerance": 1e-9, "passed": True, "flagged": False}
               for indices, point in zip(maps[::2], maps[1::2])]
    return {"suite": "s", "config": {"lmax": 1}, "records": records,
            "summary": {"passed": len(records)}}


_RECORDS = st.fixed_dictionaries({
    "suite": _TEXTS, "name": _TEXTS, "indices": _MAPS, "point": _MAPS,
    "residual": _FLOATS, "scale": _FLOATS, "tolerance": _FLOATS,
    "passed": st.booleans(), "flagged": st.booleans()})
_REPORTS = st.fixed_dictionaries({
    "suite": _TEXTS, "config": _MAPS,
    "records": st.lists(_RECORDS, max_size=5), "summary": _MAPS})


class TestReportJson:
    """The verify report's text is exactly json.dumps(sort_keys, indent=2)."""

    @pytest.mark.parametrize("name, kwargs, exit_code", [
        ("all", {}, 0),
        ("all", {"variant": "paper"}, 0),
        ("all", {"corrected_lambda": False}, 0),
        ("all", {"tolerances": {"cross_formula": 0.0, "casimir": 1e-12}}, 1),
        ("all", {"lmax": 6, "grid_density": 4}, 0),
        ("radial", {"seed": 5}, 0),
        ("casimir", {}, 0),
    ])
    def test_built_reports(self, name, kwargs, exit_code):
        # The cli's own path: the entries of build_report's sort.
        entries = []
        report = build_report(name, SuiteConfig(**kwargs), _entries=entries)
        assert report_exit_code(report) == exit_code
        assert entries == json_entries([r[key] for r in report["records"]
                                        for key in ("indices", "point")])
        assert _report_json(report, entries) == _indented_json(report)

    def test_entries_of_edge_case_maps_follow_the_sort(self, monkeypatch):
        maps = [{"a": 10}, {"a": 1}, {}, {"a": "}\0{"}, {"a": "\0"},
                {"a": "x, y"}, {"a": "x", "b": 1}, {"é\n": -0.0}]
        records = [make_record("c", indices, point, 0.0, 1.0, 1e-6)
                   for indices in maps for point in maps[::-1]]
        monkeypatch.setitem(suites._SUITE_BUILDERS, "casimir",
                            lambda config: records)
        entries = ["stale"]
        report = build_report("casimir", FAST, _entries=entries)
        assert report == build_report("casimir", FAST)
        assert entries == json_entries([r[key] for r in report["records"]
                                        for key in ("indices", "point")])
        assert _report_json(report, entries) == _indented_json(report)

    def test_hand_built_report(self):
        escapes = 'q"uote \\ back, "slash"\n é中'
        record = {
            "suite": escapes, "name": "casimir",
            "indices": {"draw": 3, "l": -0.0, "dotted": True, escapes: "x",
                        "}\x00{": "}\x00{"},
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
        assert _own_report_json(report) == _indented_json(report)
        empty = dict(report, records=[])
        assert _own_report_json(empty) == _indented_json(empty)

    @settings(max_examples=150, deadline=None)
    @given(report=_REPORTS)
    @example(report=_report([]))
    @example(report=_report([{}, {"a": 1}, {"b": "}\0{"}]))
    @example(report=_report([{"a": "\0"}, {}, {"}\0{": math.nan}]))
    @example(report=_report([{"a": -0.0}, {"b": 1e300}, {}]))
    def test_generated_reports(self, report):
        assert _own_report_json(report) == _indented_json(report)


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

    @pytest.mark.parametrize("observed", [math.nan, math.inf, -math.inf])
    def test_deficit_refuses_a_non_finite_observation(self, observed):
        # max(0.0, threshold - nan) is 0.0: a passed control that measured
        # nothing.
        with pytest.raises(ValueError, match="not finite"):
            suites._deficit(1e-6, observed)

    def test_overflowing_control_is_refused(self, recwarn):
        # At c = 1e307 the Lagrangian overflows a float: a ValueError, with
        # no numpy warning before it.
        config = SuiteConfig(c=1e307)
        with pytest.raises(ValueError,
                           match="^Lagrangian density overflows a float at "):
            build_report("maxwell", config)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

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

    def test_each_block_once_per_weight_and_side(self, monkeypatch):
        # One report builds each weight's direct grid once, for both Z grid
        # suites, and the factorization halves once per weight and side.
        calls = {"z_sum_grid": [], "_tangent_block": []}
        for name in calls:
            route = getattr(suites, name)

            def counted(*args, name=name, route=route):
                calls[name].append(args[0] if name == "z_sum_grid"
                                   else args[:2])
                return route(*args)

            monkeypatch.setattr(suites, name, counted)
        run_suite("all", SuiteConfig(lmax=2, grid_density=3))
        assert [len(indices) for indices in calls["z_sum_grid"]] == [
            (d + 1) ** 2 for d in range(5)]
        assert sorted(calls["_tangent_block"]) == [
            (L, rotation) for L in range(5) for rotation in (False, True)]

    def test_record_maps_stay_per_report(self):
        # The grid records of one report share their maps; a change a caller
        # makes to them reaches no later report.
        config = SuiteConfig(lmax=2, grid_density=3)
        fresh = [(suite, repr(record))
                 for suite, record in run_suite("hypergeom", config)]
        first = run_suite("hypergeom", config)
        changed = next(record for _, record in first
                       if record.check_name == "cross_formula")
        changed.indices["l"] = -1.0
        changed.point["theta"] = -1.0
        second = run_suite("hypergeom", config)
        assert [(suite, repr(record)) for suite, record in second] == fresh
        earlier = {id(m) for _, record in first
                   for m in (record.indices, record.point)}
        assert not any(id(m) in earlier for _, record in second
                       for m in (record.indices, record.point))

    def test_grid_records_are_in_make_record_form(self):
        # Built without make_record, the grid records hold what it would
        # make of them: Python floats, not numpy scalars.  Both suites share
        # one indices map per index and one point map per grid point.
        records = [record for _, record in run_suite(
            "all", SuiteConfig(lmax=2, grid_density=3))
            if record.check_name in ("cross_formula", "factorization")]
        assert records
        for field in ("indices", "point"):
            objects = {}
            for record in records:
                value = getattr(record, field)
                objects.setdefault(tuple(value.values()), set()).add(id(value))
            assert all(len(ids) == 1 for ids in objects.values())
        for record in records:
            values = (record.residual, record.scale, record.tolerance,
                      *record.indices.values(), *record.point.values())
            assert all(type(value) is float for value in values)
            assert repr(record) == repr(make_record(
                record.check_name, record.indices, record.point,
                record.residual, record.scale, record.tolerance,
                record.flagged))

    @pytest.mark.parametrize("grid_density", [3, 4])
    def test_grid_suites_alone_match_all(self, grid_density):
        # In "all" both read each weight's one direct grid; either alone
        # builds that grid itself, to the same records.
        config = SuiteConfig(lmax=2, grid_density=grid_density)
        everything = [(suite, repr(record))
                      for suite, record in run_suite("all", config)]
        for name in ("factorization", "hypergeom"):
            alone = [(suite, repr(record))
                     for suite, record in run_suite(name, config)]
            assert alone and alone == [
                entry for entry in everything if entry[0] == name]


def per_k_eigen_records(config):
    """(check, indices, k) -> (residual, scale) reprs of the eigen_spectrum
    and eigen_alignment records, from one eigenstructure call per k."""
    rng, c = config.rng(5), config.c
    cases = [({"case": "axis"}, (0.0, 0.0, 1.0)),
             ({"case": "pythagorean"}, (3.0, 4.0, 0.0)),
             *(({"draw": draw}, suites._draw_k(rng)) for draw in range(100))]
    expected = {}
    for indices, k in cases:
        key = (tuple(indices.items()), ",".join(repr(float(v)) for v in k))
        norm = float(np.linalg.norm(k))
        values, vectors = eigenstructure(k, c)
        expected["eigen_spectrum", *key] = (
            float(np.abs(values - np.array([-c * norm, 0.0, c * norm])).max()),
            max(1.0, c * norm))
        if "draw" in indices:
            pol = polarization_vectors(k)
            expected["eigen_alignment", *key] = (float(max(
                abs(abs(np.vdot(vectors[:, 2], pol.eps_plus)) - 1.0),
                abs(abs(np.vdot(vectors[:, 0], pol.eps_minus)) - 1.0),
                abs(abs(np.vdot(vectors[:, 1], pol.eps_zero)) - 1.0))), 1.0)
    return {key: (repr(residual), repr(scale))
            for key, (residual, scale) in expected.items()}


class TestEigenRecords:
    @pytest.mark.parametrize("seed, c", [(0, 1.0), (7, 1.0), (2024, 2.5),
                                         (3, 3e-5)])
    def test_records_match_a_per_k_rescan(self, seed, c):
        # The suite's one stacked eigensolve gives the records that one
        # eigenstructure call per wavevector gives.
        config = SuiteConfig(seed=seed, c=c)
        found = {
            (record.check_name, tuple(record.indices.items()),
             record.point["k"]): (repr(record.residual), repr(record.scale))
            for _, record in run_suite("eigen", config)
            if record.check_name in ("eigen_spectrum", "eigen_alignment")}
        assert len(found) == 202
        assert found == per_k_eigen_records(config)
