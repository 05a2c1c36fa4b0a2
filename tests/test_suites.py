"""Tests for the verification-suite registry and report assembly."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarewaves import cli, lorentz_harmonics, suites
from poincarewaves.differential_checks import make_record
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
    _json_entries,
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
        {"lmax": 21}, {"lmax": -1}, {"grid_density": 1},
        {"grid_density": 1000}, {"seed": -2},
        {"c": 0.0}, {"c": -1.0}, {"variant": "folklore"},
        {"tolerances": {"nosuch": 1e-9}}, {"tolerances": {"casimir": -1.0}},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       np.float64("nan")])
    @pytest.mark.parametrize("field, message", [
        ("lmax", "lmax must be an integer in [0, 20]"),
        ("grid_density", "grid_density must be an integer in [2, 999]"),
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

    grid_records = suites._grid_records

    def recording_grids(*args):
        pairs = grid_records(*args)
        built.extend(pairs)
        return pairs

    monkeypatch.setattr(suites, "_grid_records", recording_grids)
    for suite, builder in suites._SUITE_BUILDERS.items():
        monkeypatch.setitem(suites._SUITE_BUILDERS, suite,
                            recording(suite, builder))
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
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _blocks_text(report, entries):
    """The verify JSON text the cli writes, its blocks joined."""
    return "".join(cli._report_blocks(report, entries))


def _own_report_json(report):
    """_blocks_text of a hand-built report, fed _json_entries of its maps."""
    return _blocks_text(report, _json_entries(
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


def _valued(*rows):
    """A hand-built report with one record per (residual, scale, tolerance,
    passed) row."""
    records = [{"suite": "s", "name": "n", "indices": {}, "point": {},
                "residual": residual, "scale": scale, "tolerance": tolerance,
                "passed": passed, "flagged": False}
               for residual, scale, tolerance, passed in rows]
    return {"suite": "s", "config": {}, "records": records, "summary": {}}


#: Values that compare equal but print apart, drawn often enough to repeat
#: across records and fields.
_ALIKE = st.sampled_from([0.0, -0.0, 1.0, 1, True, False, 0, math.nan,
                          math.inf])
_RECORDS = st.fixed_dictionaries({
    "suite": _TEXTS, "name": _TEXTS, "indices": _MAPS, "point": _MAPS,
    "residual": st.one_of(_FLOATS, _ALIKE),
    "scale": st.one_of(_FLOATS, _ALIKE),
    "tolerance": st.one_of(_FLOATS, _ALIKE),
    "passed": st.one_of(st.booleans(), _ALIKE), "flagged": st.booleans()})
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
        ("casimir", {"tolerances": {"casimir": -0.0}}, 1),
    ])
    def test_built_reports(self, name, kwargs, exit_code):
        # The cli's own path: the entries of build_report's sort.
        entries = []
        report = build_report(name, SuiteConfig(**kwargs), _entries=entries)
        assert report_exit_code(report) == exit_code
        assert entries == _json_entries([r[key] for r in report["records"]
                                         for key in ("indices", "point")])
        assert _blocks_text(report, entries) == _indented_json(report)

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
        assert entries == _json_entries([r[key] for r in report["records"]
                                         for key in ("indices", "point")])
        assert _blocks_text(report, entries) == _indented_json(report)

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
    # Equal numbers across records and fields.
    @example(report=_valued((0.5, 0.5, 1e-9, True), (1e-9, 0.5, 0.5, True)))
    # 0.0 and -0.0 in one field, and across fields.
    @example(report=_valued((0.0, 1.0, -0.0, True), (-0.0, -0.0, 0.0, False),
                            (0.0, 0.0, -0.0, True)))
    # One NaN object reused, and two distinct NaN objects.
    @example(report=_valued((math.nan, math.nan, 1.0, True),
                            (math.nan, float("nan"), float("nan"), False)))
    @example(report=_valued((math.inf, -math.inf, math.inf, True),
                            (-math.inf, math.inf, -math.inf, False)))
    # True, 1 and 1.0 compare equal, as do False, 0 and 0.0.
    @example(report=_valued((1.0, 1, True, True), (1, 1.0, 1.0, 1),
                            (0, 0.0, False, False), (-0.0, False, 0, 0.0)))
    @example(report=_valued((1.0, 1, 0, True), (0.0, 2, 2.0, False)))
    def test_generated_reports(self, report):
        # One record a block, and blocks of two: the block edges fall between
        # records of every kind, and the text stays the same.
        expected = _indented_json(report)
        for block in (1, 2, cli._REPORT_BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "_REPORT_BLOCK", block)
                assert _own_report_json(report) == expected, block


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


def test_harmonic_indices_equal_the_validated_indices():
    # The suites build their own index sets without the constructor's
    # validation; each index is the validated one in every respect.
    def types(idx):
        return {name: type(value) for name, value in vars(idx).items()}

    for L in range(2 * 20 + 1):
        l = L / 2
        got = suites._harmonic_indices(l)
        want = [HarmonicIndex(l, m, n)
                for m in _projections(l) for n in _projections(l)]
        assert list(got) == want
        assert [hash(idx) for idx in got] == [hash(idx) for idx in want]
        assert repr(got) == repr(tuple(want))
        assert [idx.doubled for idx in got] == [idx.doubled for idx in want]
        assert all(types(a) == types(b) == {
            "l": float, "m": float, "n": float, "dotted": bool,
            "doubled": tuple} for a, b in zip(got, want))
        assert {type(D) for idx in got for D in idx.doubled} == {int}


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
        # One report sums each weight's direct grid, z_2f1 grid and factor
        # halves once, for both Z grid suites, from one _Side per weight and
        # side: its folded and hypergeometric forms share one pair of power
        # tables, and its one tangent block serves z_2f1's fallback and the
        # halves.
        sides, sums, powers = [], [], []

        class Counted(lorentz_harmonics._Side):
            def __init__(self, *args):
                super().__init__(*args)
                sides.append(self)

        k_sums = lorentz_harmonics._k_sums
        power_table = lorentz_harmonics._powers
        monkeypatch.setattr(lorentz_harmonics, "_Side", Counted)
        monkeypatch.setattr(lorentz_harmonics, "_k_sums",
                            lambda *args: sums.append(args) or k_sums(*args))
        monkeypatch.setattr(lorentz_harmonics, "_powers", lambda values, L:
                            powers.append(L) or power_table(values, L))
        run_suite("all", SuiteConfig(lmax=2, grid_density=3))
        assert sorted((side.L, side.rotation) for side in sides) == [
            (L, rotation) for L in range(5) for rotation in (False, True)]
        assert all({"folded", "tangent", "hypergeometric"} <= set(vars(side))
                   for side in sides)
        assert len(sums) == 3 * 5
        # Per side: odd, even and tangent powers.
        assert sorted(powers) == [L for L in range(5) for _ in range(6)]

    @pytest.mark.parametrize("entries", [1, 150, 2 * 8 * 49, 3 * 8 * 49])
    @pytest.mark.parametrize("suite", ["hypergeom", "factorization"])
    def test_theta_chunks_give_the_records_of_one_chunk(self, monkeypatch,
                                                        suite, entries):
        # Density 7: 7 thetas and 7 taus, with the theta = 0 row and the
        # tau = 0 column.  At lmax 3 the 49 pairs of l = 3 take 1, 2 or 3
        # theta rows a chunk (lighter weights more), so chunk edges fall
        # between rows and a last chunk can be short.  At 1 and 150 entries
        # the taus split too: into single taus, or runs of 3 at l = 3.
        config = SuiteConfig(lmax=3, grid_density=7)
        whole = [(name, repr(record)) for name, record in run_suite(suite, config)]
        sides = []

        class Counted(lorentz_harmonics._Side):
            def __init__(self, *args):
                super().__init__(*args)
                sides.append((self.rotation, len(self.angles)))

        monkeypatch.setattr(lorentz_harmonics, "_BLOCK_SIZE", entries)
        monkeypatch.setattr(lorentz_harmonics, "_Side", Counted)
        assert [(name, repr(record))
                for name, record in run_suite(suite, config)] == whole
        # Rotation and rapidity sides: one per chunk and one per tau run.
        rotations, rapidities = {1: (343, 49), 150: (63, 11), 784: (16, 7),
                                 1176: (11, 7)}[entries]
        assert sum(rotation for rotation, _ in sides) == rotations
        assert len(sides) - rotations == rapidities
        if entries == 1:
            # Per weight, tau outer and theta inner: theta = 0 joins each
            # run's first theta chunk, and tau = 0 the last run.
            run = [(True, 2)] + [(True, 1)] * 6
            assert sides == (([(False, 1)] + run) * 6 + [(False, 2)] + run) * 7

    def test_worst_point_ties_keep_the_first_across_chunks(self):
        # Ratios residual / max(1, scale) tie across chunk edges: index 0
        # at positions 2 and 7 (1.0), index 1 at positions 5 and 6 (1.5),
        # each pair with different residuals.  Every chunking of rows and
        # columns, visited columns outer, keeps the first point in row-major
        # order, as argmax over the whole grid does, with that point's own
        # residual and scale; with single columns the later tie of each
        # index is seen first.
        residual = np.array([[[0.5, 0.0, 2.0], [0.9, 0.2, 0.0],
                              [0.3, 1.0, 0.1], [0.0, 0.0, 0.0]],
                             [[0.1, 0.0, 0.0], [0.2, 0.0, 1.5],
                              [3.0, 0.0, 1.0], [0.0, 0.0, 0.0]]])
        scale = np.array([[[1.0, 1.0, 2.0], [0.0, 0.0, 0.0],
                           [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
                          [[0.0, 0.0, 0.0], [0.0, 0.0, 0.3],
                           [2.0, 0.0, 1.0], [5.0, 0.0, 0.0]]])
        positions = np.arange(12).reshape(4, 3)
        ratio = (residual / np.maximum(1.0, scale)).reshape(2, -1)
        assert ratio[0].tolist().count(1.0) == ratio[1].tolist().count(1.5) == 2
        for rows in range(1, 5):
            for columns in range(1, 4):
                worst = suites._Worst()
                for j in range(0, 3, columns):
                    for i in range(0, 4, rows):
                        chunk = np.s_[i:i + rows, j:j + columns]
                        worst.update(residual[:, chunk[0], chunk[1]],
                                     scale[:, chunk[0], chunk[1]],
                                     positions[chunk])
                assert [part.tolist() for part in worst.found] == [
                    [1.0, 1.5], [2, 5], [2.0, 1.5], [2.0, 0.3]], (rows, columns)

    def test_peak_memory_does_not_grow_with_grid_density(self):
        # Each weight's grids are walked a chunk of angles at a time: density
        # 200 (16x the points of density 50) adds under 8 MB at peak, where
        # whole-weight grids added ~113 MB.
        def peak(density):
            tracemalloc.start()
            try:
                suites._grid_records(SuiteConfig(lmax=3, grid_density=density),
                                     ["factorization", "hypergeom"])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200) - peak(50) < 8 * 2 ** 20

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
        # The suite's one stacked eigensolve and its stacked alignment give
        # the records of one eigenstructure call per wavevector, up to the
        # rounding of the stacked sums (a few units in the last place of the
        # scale: numpy may round by array shape).
        config = SuiteConfig(seed=seed, c=c)
        found = {
            (record.check_name, tuple(record.indices.items()),
             record.point["k"]): (record.residual, record.scale)
            for _, record in run_suite("eigen", config)
            if record.check_name in ("eigen_spectrum", "eigen_alignment")}
        expected = per_k_eigen_records(config)
        assert len(found) == 202 and found.keys() == expected.keys()
        for key, (residual, scale) in found.items():
            want_residual, want_scale = map(float, expected[key])
            assert abs(scale - want_scale) <= 4 * math.ulp(want_scale), key
            assert abs(residual - want_residual) <= 4 * math.ulp(scale), key


#: (suite, check name) -> (records, flagged) of ``verify all`` at the
#: defaults: 1039 records, 12 flagged.
DEFAULT_COUNTS = {
    ("assembly", "assembly_conjugation"): (5, 0),
    ("assembly", "assembly_dirac"): (6, 0),
    ("assembly", "assembly_factorization"): (100, 0),
    ("assembly", "assembly_filter"): (1, 0),
    ("assembly", "transversality"): (1, 0),
    ("casimir", "casimir"): (42, 0),
    ("casimir", "casimir_order"): (2, 0),
    ("commutators", "commutator"): (9, 0),
    ("commutators", "lambda_casimir"): (1, 0),
    ("commutators", "lambda_control"): (1, 0),
    ("commutators", "lambda_structure"): (1, 0),
    ("eigen", "eigen_alignment"): (100, 0),
    ("eigen", "eigen_continuity"): (1, 0),
    ("eigen", "eigen_spectrum"): (102, 0),
    ("eigen", "polarization"): (20, 0),
    ("factorization", "factorization"): (140, 0),
    ("holomorphy", "holomorphy"): (12, 12),
    ("hypergeom", "cross_formula"): (140, 0),
    ("hypergeom", "identity"): (7, 0),
    ("hypergeom", "unitarity"): (7, 0),
    ("legendre", "legendre"): (28, 0),
    ("maxwell", "dirac_control"): (10, 0),
    ("maxwell", "dirac_form"): (60, 0),
    ("maxwell", "energy"): (105, 0),
    ("maxwell", "lagrangian"): (15, 0),
    ("maxwell", "lagrangian_control"): (5, 0),
    ("maxwell", "maxwell"): (15, 0),
    ("maxwell", "maxwell_control"): (5, 0),
    ("maxwell", "pairing"): (5, 0),
    ("radial", "radial"): (72, 0),
    ("radial", "radial_homogeneous"): (3, 0),
    ("radial", "radial_symmetry"): (3, 0),
    ("transversality", "transversality"): (15, 0),
}

#: The same at --lmax 6 --grid-density 4: 2409 records, 12 flagged.
LMAX6_COUNTS = {**DEFAULT_COUNTS,
                ("factorization", "factorization"): (819, 0),
                ("hypergeom", "cross_formula"): (819, 0),
                ("hypergeom", "identity"): (13, 0),
                ("hypergeom", "unitarity"): (13, 0)}


@pytest.mark.parametrize("config, counts, total", [
    (SuiteConfig(), DEFAULT_COUNTS, 1039),
    (SuiteConfig(lmax=6, grid_density=4), LMAX6_COUNTS, 2409),
], ids=["defaults", "lmax6-density4"])
def test_verify_all_record_and_flagged_counts(config, counts, total):
    # Each check name keeps its record and flagged counts, and no unflagged
    # record fails: the benchmark's verify workloads pin the totals.
    found = {}
    for suite, record in run_suite("all", config):
        records, flagged = found.get((suite, record.check_name), (0, 0))
        found[suite, record.check_name] = (records + 1,
                                           flagged + record.flagged)
        assert record.flagged or record.passed, (suite, record)
    assert found == counts
    assert sum(n for n, _ in found.values()) == total
    assert sum(f for _, f in found.values()) == 12
