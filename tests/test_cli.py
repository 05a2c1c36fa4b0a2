"""Tests for the command-line harness: eval, verify, table."""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from poincarewaves import cli, differential_checks
from poincarewaves.cli import format_complex, main
from poincarewaves.lorentz_harmonics import HarmonicIndex, generalized_m, z_sum
from poincarewaves.group_kinematics import make_angles
from poincarewaves.suites import SuiteConfig, build_report


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, expect=0):
    result = runner.invoke(main, args)
    assert result.exit_code == expect, (args, result.exit_code, result.output)
    return result


def parse_csv(result):
    return list(csv.reader(io.StringIO(result.stdout_bytes.decode())))


class TestFormatComplex:
    def test_seventeen_significant_digits(self):
        assert format_complex(1.0) == "1+0i"
        assert format_complex(complex(1 / 3, -2 / 3)) == (
            "0.33333333333333331-0.66666666666666663i")

    def test_negative_real(self):
        assert format_complex(complex(-2.5, 0.5)) == "-2.5+0.5i"


class TestEval:
    def test_z_identity_point(self, runner):
        result = invoke(runner, ["eval", "z", "--l", "1", "--m", "0",
                                 "--n", "0", "--theta", "0", "--tau", "0"])
        assert result.output.strip() == "z = 1+0i"

    def test_z_matches_library(self, runner):
        result = invoke(runner, ["eval", "z", "--l", "2", "--m", "1",
                                 "--n", "-1", "--theta", "0.7",
                                 "--tau", "0.3", "--format", "json"])
        payload = json.loads(result.output)
        expected = z_sum(HarmonicIndex(2, 1, -1), 0.7, 0.3)
        value = payload["values"]["z"]
        assert complex(value["re"], value["im"]) == expected

    def test_z_dotted_conjugates(self, runner):
        base = ["eval", "z", "--l", "1", "--m", "1", "--n", "0",
                "--theta", "0.7", "--tau", "0.3", "--format", "json"]
        plain = json.loads(invoke(runner, base).output)["values"]["z"]
        dotted = json.loads(invoke(runner, base + ["--dotted"]).output
                            )["values"]["z"]
        assert dotted["re"] == plain["re"]
        assert dotted["im"] == -plain["im"]

    def test_pi_tokens(self, runner):
        result = invoke(runner, ["eval", "z", "--l", "1", "--m", "0",
                                 "--n", "0", "--theta", "pi/2", "--tau", "0",
                                 "--format", "json"])
        payload = json.loads(result.output)
        expected = z_sum(HarmonicIndex(1, 0, 0), math.pi / 2, 0.0)
        assert payload["values"]["z"]["re"] == pytest.approx(expected.real)

    def test_generalized_m_function(self, runner):
        result = invoke(runner, [
            "eval", "m", "--l", "1", "--m", "1", "--n", "0", "--phi", "0.3",
            "--epsilon", "0.2", "--theta", "1.0", "--tau", "0.4",
            "--chi", "0.5", "--vareps", "0.1", "--format", "json"])
        payload = json.loads(result.output)["values"]["m"]
        expected = generalized_m(
            HarmonicIndex(1, 1, 0),
            make_angles(0.3, 0.2, 1.0, 0.4, 0.5, 0.1))
        assert complex(payload["re"], payload["im"]) == expected

    def test_polarization_axis(self, runner):
        result = invoke(runner, ["eval", "polarization", "--k", "0,0,1"])
        lines = result.output.strip().split("\n")
        assert lines[2] == "eps_zero = (0+0i, 0+0i, 1+0i)"

    @pytest.mark.parametrize("k", ["1e200,0,0", "1e150,0,0", "0,1e-200,3e-200"])
    def test_polarization_at_extreme_scales(self, runner, k):
        result = invoke(runner, ["eval", "polarization", "--k", k,
                                 "--format", "json"])
        for vector in json.loads(result.output)["values"].values():
            components = [complex(c["re"], c["im"]) for c in vector]
            assert all(math.isfinite(abs(c)) for c in components)
            assert math.sqrt(sum(abs(c) ** 2 for c in components)) == (
                pytest.approx(1.0, abs=1e-15))

    def test_radial_paper_example(self, runner):
        result = invoke(runner, ["eval", "radial", "--variant", "paper",
                                 "--l", "1", "--C", "0", "--r", "1"])
        assert "f_zero = 2+0i" in result.output

    def test_planewave_csv_splits_components(self, runner):
        result = invoke(runner, ["eval", "planewave", "--k", "1,2,3",
                                 "--lam", "1", "--x", "0,0,0", "--t", "0",
                                 "--format", "csv"])
        rows = parse_csv(result)
        assert rows[0][:2] == ["psi_1_re", "psi_1_im"]
        assert len(rows[0]) == 12 and len(rows) == 2

    def test_assemble_runs(self, runner):
        result = invoke(runner, [
            "eval", "assemble", "--k", "1,2,3", "--lam", "-1", "--l", "1",
            "--x", "0.1,0.2,0.3", "--t", "0.4", "--r", "1+0.5j",
            "--C", "0.5", "--angles", "0.3,0.2,1.0,0.4,0.5,0.1",
            "--format", "json"])
        payload = json.loads(result.output)
        assert len(payload["values"]["psi"]) == 6

    @pytest.mark.parametrize("args", [
        ["eval", "nosuch", "--l", "1"],
        ["eval", "z", "--l", "1", "--m", "0"],
        ["eval", "z", "--l", "1", "--m", "0", "--n", "0",
         "--theta", "bogus", "--tau", "0"],
        ["eval", "z", "--l", "1", "--m", "7", "--n", "0",
         "--theta", "0", "--tau", "0"],
        ["eval", "polarization", "--k", "0,0,0"],
        ["eval", "polarization", "--k", "1,2"],
        ["eval", "radial", "--l", "0.5", "--r", "1"],
        ["eval", "z", "--l", "1", "--m", "0", "--n", "0",
         "--theta", "-0.5", "--tau", "0"],
    ])
    def test_usage_errors_exit_two(self, runner, args):
        invoke(runner, args, expect=2)

    def test_theta_out_of_range_message_names_parameter(self, runner):
        result = runner.invoke(main, ["eval", "m", "--l", "1", "--m", "0",
                                      "--n", "0", "--phi", "0",
                                      "--epsilon", "0", "--theta", "4",
                                      "--tau", "0", "--chi", "0",
                                      "--vareps", "0"])
        assert result.exit_code == 2
        assert "theta" in result.output

    @pytest.mark.parametrize("args, parameter", [
        (["--l", "60", "--m", "0", "--n", "0", "--theta", "1",
          "--tau", "0.5"], "l=60"),
        (["--l", "3", "--m", "0", "--n", "0", "--theta", "1",
          "--tau", "800"], "tau=800.0"),
        (["--l", "500000", "--m", "0", "--n", "0", "--theta", "1",
          "--tau", "0"], "l=500000"),
        (["--l", "1e308", "--m", "0", "--n", "0", "--theta", "1",
          "--tau", "0"], "l=1e+308"),
        (["--l", "21", "--m", "0", "--n", "0", "--theta", "1",
          "--tau", "0"], "l=21"),
    ])
    def test_overflow_is_one_line_domain_error(self, runner, args, parameter):
        result = invoke(runner, ["eval", "z", *args], expect=2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"Error: {parameter} is out of range")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args", [
        ["m", "--l", "1", "--m", "1", "--n", "0", "--phi", "0",
         "--epsilon", "-710", "--theta", "1", "--tau", "0", "--chi", "0",
         "--vareps", "0"],
        ["m", "--l", "1", "--m", "1", "--n", "0", "--phi", "0",
         "--epsilon", "-700", "--theta", "1", "--tau", "100", "--chi", "0",
         "--vareps", "0"],
        ["associated", "--l", "1", "--m", "1", "--phi", "0",
         "--epsilon", "-710", "--theta", "1", "--tau", "0"],
        ["assemble", "--k", "1,2,3", "--lam", "1", "--l", "1",
         "--x", "0,0,0", "--t", "0", "--r", "1",
         "--angles", "0,-710,1,0,0,0"],
    ])
    def test_weight_overflow_is_one_line_domain_error(self, runner, args):
        result = invoke(runner, ["eval", *args], expect=2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: epsilon=")
        assert "vareps=" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args, option", [
        (["planewave", "--k", "1,2,3", "--lam", "1", "--x", "0,0,0",
          "--t", "nan"], "t"),
        (["planewave", "--k", "1,2,3", "--lam", "1", "--x", "inf,0,0",
          "--t", "0"], "x"),
        (["planewave", "--k", "0,0,0", "--lam", "1", "--x", "0,0,0",
          "--t", "nan"], "t"),
        (["radial", "--l", "1", "--r", "nan,0"], "r"),
        (["radial", "--l", "1", "--r", "inf"], "r"),
        (["radial", "--l", "1", "--r", "-inf"], "r"),
        (["assemble", "--k", "1,2,3", "--lam", "1", "--l", "1",
          "--x", "0,0,0", "--t", "inf", "--r", "1",
          "--angles", "0,0,1,0,0,0"], "t"),
    ])
    def test_non_finite_point_is_one_line_domain_error(self, runner, args,
                                                       option):
        result = invoke(runner, ["eval", *args], expect=2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"Error: --{option} must be finite")


    def test_phase_overflow_is_one_line_domain_error(self, runner, recwarn):
        result = invoke(runner, ["eval", "planewave", "--k", "1,2,3",
                                 "--lam", "1", "--x", "0,0,0",
                                 "--t", "1e308"], expect=2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: phase k.x - omega t is not finite")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("args, message", [
        (["planewave", "--k", "1,2,3", "--lam", "1",
          "--x", "1e308,1e308,1e308", "--t", "0"],
         "phase k.x - omega t is not finite"),
        (["radial", "--l", "1", "--r", "1e308"], "f_plus is not finite"),
        (["assemble", "--k", "1,2,3", "--lam", "1", "--l", "1",
          "--x", "0,0,0", "--t", "0", "--r", "1e308",
          "--angles", "0,0,1,0,0,0"],
         "the Lorentz factor at r=(1e+308+0j) overflows a float"),
    ])
    def test_overflowing_value_is_one_line_domain_error(self, runner, recwarn,
                                                         args, message):
        result = invoke(runner, ["eval", *args], expect=2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"Error: {message}")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("angles", ["0,nan,1,0,0,0", "0,0,4,0,0,0"])
    def test_invalid_angles_is_one_line_domain_error(self, runner, angles):
        result = invoke(runner, ["eval", "assemble", "--k", "1,2,3",
                                 "--lam", "1", "--l", "1", "--x", "0,0,0",
                                 "--t", "0", "--r", "1", "--angles", angles],
                        expect=2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: invalid --angles: ")

    @pytest.mark.parametrize("order", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("args", [
        ["radial", "--r", "1"],
        ["assemble", "--k", "1,2,3", "--lam", "1", "--x", "0,0,0", "--t", "0",
         "--r", "1", "--angles", "0,0,1,0,0,0"],
    ])
    def test_non_finite_order_is_one_line_domain_error(self, runner, args,
                                                       order):
        result = invoke(runner, ["eval", *args, "--l", order], expect=2)
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"Error: l must be an integer >= 1, got {float(order)!r}"]


class TestVerify:
    def test_default_json_schema(self, runner):
        result = invoke(runner, ["verify", "transversality"])
        report = json.loads(result.output)
        assert report["suite"] == "transversality"
        assert set(report["summary"]) == {"passed", "failed", "flagged"}
        assert report["records"]
        record = report["records"][0]
        assert set(record) == {"suite", "name", "indices", "point",
                               "residual", "scale", "tolerance", "passed",
                               "flagged"}

    def test_all_seeded_byte_identical(self, runner):
        first = invoke(runner, ["verify", "all", "--seed", "42"])
        second = invoke(runner, ["verify", "all", "--seed", "42"])
        assert first.stdout_bytes == second.stdout_bytes

    def test_json_report_encodes_each_map_once(self, runner, monkeypatch):
        # One json_entries call per report, over its distinct map objects:
        # the grid records share one indices map per index and one point map
        # per grid point.  Counted under every name a package module binds
        # json_entries to.
        original = differential_checks.json_entries
        calls = []

        def counting(maps):
            calls.append(len(maps))
            return original(maps)

        reports = []

        def keeping(*args, **kwargs):
            reports.append(build_report(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "build_report", keeping)

        bound = [(module, key) for name, module in list(sys.modules.items())
                 if name == "poincarewaves" or name.startswith("poincarewaves.")
                 for key, value in vars(module).items() if value is original]
        assert bound
        for module, key in bound:
            monkeypatch.setattr(module, key, counting)
        result = invoke(runner, ["verify", "all", "--lmax", "1",
                                 "--format", "json"])
        records = json.loads(result.output)["records"]
        [report] = reports
        distinct = {id(m) for record in report["records"]
                    for m in (record["indices"], record["point"])}
        assert calls == [len(distinct)]
        assert len(distinct) < 2 * len(records)

    def test_paper_variant_flagged_failures_exit_zero(self, runner):
        result = invoke(runner, ["verify", "radial", "--variant", "paper"])
        report = json.loads(result.output)
        failures = [r for r in report["records"] if not r["passed"]]
        assert failures
        assert all(r["flagged"] for r in failures)

    def test_printed_lambda_flagged_exit_zero(self, runner):
        result = invoke(runner, ["verify", "commutators",
                                 "--corrected-lambda", "false"])
        report = json.loads(result.output)
        assert report["summary"]["failed"] > 0

    def test_forced_failure_exits_one(self, runner):
        invoke(runner, ["verify", "casimir", "--tol", "casimir=1e-30"],
               expect=1)

    def test_tolerance_override_applies(self, runner):
        result = invoke(runner, ["verify", "legendre", "--tol",
                                 "legendre=0.5"])
        report = json.loads(result.output)
        assert all(r["tolerance"] == 0.5 for r in report["records"])

    @pytest.mark.parametrize("args", [
        ["verify", "nosuch"],
        ["verify", "casimir", "--tol", "nosuchname=1"],
        ["verify", "casimir", "--tol", "casimir"],
        ["verify", "casimir", "--tol", "casimir=inf"],
        ["verify", "casimir", "--lmax", "9"],
        ["verify", "casimir", "--grid-density", "1"],
        ["verify", "casimir", "--seed", "-1"],
    ])
    def test_usage_errors_exit_two(self, runner, args):
        invoke(runner, args, expect=2)

    @pytest.mark.parametrize("option, value", [
        ("lmax", 9), ("lmax", -1), ("grid_density", 1), ("seed", -1)])
    def test_range_errors_are_suite_config_messages(self, runner, option,
                                                    value):
        # SuiteConfig alone knows the ranges; the CLI prints its message.
        with pytest.raises(ValueError) as refused:
            SuiteConfig(**{option: value})
        result = invoke(runner, ["verify", "casimir",
                                 f"--{option.replace('_', '-')}", str(value)],
                        expect=2)
        assert result.stdout == ""
        errors = [line for line in result.stderr.splitlines()
                  if line.startswith("Error:")]
        assert errors == [f"Error: {refused.value}"]

    @pytest.mark.parametrize("tolerances", [
        ["casimir=1e-9", "casimir=1e-8"],
        ["casimir=1e-9", "legendre=0.5", "casimir=1e-9"],
    ])
    def test_repeated_tolerance_name_refused(self, runner, tolerances):
        args = ["verify", "casimir"]
        for entry in tolerances:
            args += ["--tol", entry]
        result = invoke(runner, args, expect=2)
        assert result.stdout == ""
        errors = [line for line in result.stderr.splitlines()
                  if line.startswith("Error:")]
        assert errors == ["Error: --tol casimir is given more than once"]

    def test_overflowing_control_is_one_line_domain_error(self, runner,
                                                          recwarn):
        # The Lagrangian overflows a float at c = 1e307: refused with one
        # Error: line and no numpy warning, not passed as a deficit of 0.
        result = invoke(runner, ["verify", "maxwell", "--c", "1e307"],
                        expect=2)
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "Error: Lagrangian density overflows a float at "
            "x=(0.08399999999999999, 0.11199999999999999, 0.0), t=0.3"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_run_time_domain_error_is_one_line(self, runner):
        # Raised while the suites run: one Error: line, no usage block.
        result = invoke(runner, ["verify", "all", "--c", "1e308"], expect=2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(
            "Error: c |k| overflows a float: c=1e+308")

    @pytest.mark.parametrize("suite, c", [
        ("maxwell", "1e-310"), ("eigen", "1e-320"), ("all", "5.5e-309")])
    def test_c_with_an_infinite_reciprocal_refused(self, runner, recwarn,
                                                   suite, c):
        result = invoke(runner, ["verify", suite, "--c", c], expect=2)
        assert result.stdout == ""
        errors = [line for line in result.stderr.splitlines()
                  if line.startswith("Error:")]
        assert errors == [
            f"Error: c must have a finite reciprocal 1/c, got {float(c)!r}"]
        assert not [w for w in recwarn
                    if issubclass(w.category, RuntimeWarning)]

    def test_smallest_c_with_a_finite_reciprocal_passes(self, runner):
        invoke(runner, ["verify", "all", "--c", "5.6e-309", "--lmax", "1",
                        "--grid-density", "2"])

    def test_csv_format_is_rfc4180(self, runner):
        result = invoke(runner, ["verify", "transversality",
                                 "--format", "csv"])
        raw = result.stdout_bytes.decode()
        assert "\r\n" in raw
        rows = parse_csv(result)
        assert rows[0] == ["suite", "name", "indices", "point", "residual",
                           "scale", "tolerance", "passed", "flagged"]
        assert len(rows) == 16
        assert all(row[8] in ("true", "false") for row in rows[1:])

    def test_text_format_summary(self, runner):
        result = invoke(runner, ["verify", "commutators",
                                 "--format", "text"])
        lines = result.output.strip().split("\n")
        assert lines[-1].startswith("summary: ")
        assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])

    def test_csv_and_text_bytes(self, runner):
        # A small run with flagged records, rendered here independently of
        # the cli's own helpers.
        options = ["--lmax", "1", "--variant", "paper",
                   "--corrected-lambda", "false", "--seed", "3"]
        report = build_report("all", SuiteConfig(
            lmax=1, variant="paper", corrected_lambda=False, seed=3))
        records = report["records"]
        assert any(r["flagged"] and not r["passed"] for r in records)

        def cell(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            return f"{value:.17g}" if isinstance(value, float) else str(value)

        def entries(mapping):
            return ";".join(f"{key}={cell(value)}"
                            for key, value in mapping.items())

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(["suite", "name", "indices", "point", "residual",
                         "scale", "tolerance", "passed", "flagged"])
        writer.writerows(
            [r["suite"], r["name"], entries(r["indices"]),
             entries(r["point"]), repr(r["residual"]), repr(r["scale"]),
             repr(r["tolerance"]), cell(r["passed"]), cell(r["flagged"])]
            for r in records)
        result = invoke(runner, ["verify", "all", "--format", "csv", *options])
        assert result.stdout_bytes == buffer.getvalue().encode()

        lines = [f"{'PASS' if r['passed'] else 'FAIL'} {r['suite']}:{r['name']}"
                 f" {entries(r['indices'])} {entries(r['point'])}"
                 f" residual={r['residual']:.3e} scale={r['scale']:.3g}"
                 f" tol={r['tolerance']:g}"
                 f"{' [flagged]' if r['flagged'] else ''}\n" for r in records]
        summary = report["summary"]
        lines.append(f"summary: {summary['passed']} passed, {summary['failed']}"
                     f" failed, {summary['flagged']} flagged\n")
        result = invoke(runner, ["verify", "all", "--format", "text",
                                 *options])
        assert result.stdout_bytes == "".join(lines).encode()

    def test_seed_changes_report(self, runner):
        one = invoke(runner, ["verify", "casimir", "--seed", "1"])
        two = invoke(runner, ["verify", "casimir", "--seed", "2"])
        assert one.stdout_bytes != two.stdout_bytes


class TestTable:
    def test_nine_rows_with_kronecker_first(self, runner):
        result = invoke(runner, ["table", "z", "--l", "1", "--m", "1",
                                 "--n", "0", "--theta", "0:pi:9",
                                 "--tau", "0"])
        rows = parse_csv(result)
        assert rows[0] == ["theta", "tau", "value_re", "value_im"]
        assert len(rows) == 10
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][2]) == 0.0 and float(rows[1][3]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(math.pi)

    def test_matches_eval_pointwise(self, runner):
        result = invoke(runner, ["table", "z", "--l", "1", "--m", "1",
                                 "--n", "0", "--theta", "0:pi:5",
                                 "--tau", "-0.4:0.4:3"])
        rows = parse_csv(result)
        assert len(rows) == 16
        idx = HarmonicIndex(1, 1, 0)
        for theta, tau, re_, im_ in rows[1:]:
            direct = z_sum(idx, float(theta), float(tau))
            assert complex(float(re_), float(im_)) == direct

    def test_row_major_theta_outer(self, runner):
        result = invoke(runner, ["table", "zonal", "--l", "1",
                                 "--theta", "0.5:2.5:2", "--tau", "0:1:2"])
        rows = parse_csv(result)
        grid = [(float(r[0]), float(r[1])) for r in rows[1:]]
        assert grid == [(0.5, 0.0), (0.5, 1.0), (2.5, 0.0), (2.5, 1.0)]

    def test_json_rows(self, runner):
        result = invoke(runner, ["table", "z", "--l", "0.5", "--m", "0.5",
                                 "--n", "0.5", "--theta", "0:pi:3",
                                 "--tau", "0.2", "--format", "json"])
        payload = json.loads(result.output)
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"theta", "tau", "value"}

    # (index options, HarmonicIndex, theta grid spec, its thetas, tau grid
    # spec, its taus) for the golden-bytes tests below.
    GOLDEN_GRIDS = {
        "dotted-half-integer": (
            ["--l", "2.5", "--m", "0.5", "--n", "-1.5", "--dotted"],
            HarmonicIndex(2.5, 0.5, -1.5, dotted=True),
            "0:pi:37", np.linspace(0.0, math.pi, 37), "-3:3:41",
            np.linspace(-3.0, 3.0, 41)),
        "zero-angles": (
            ["--l", "1", "--m", "1", "--n", "0", "--dotted"],
            HarmonicIndex(1, 1, 0, dotted=True),
            "0:1:3", np.linspace(0.0, 1.0, 3), "-1:1:3",
            np.linspace(-1.0, 1.0, 3)),
        "single-point": (
            ["--l", "2", "--m", "1", "--n", "-1"], HarmonicIndex(2, 1, -1),
            "0.7", [0.7], "0.3", [0.3]),
        "one-by-n": (
            ["--l", "1.5", "--m", "-0.5", "--n", "1.5"],
            HarmonicIndex(1.5, -0.5, 1.5),
            "1.1", [1.1], "-2:2:9", np.linspace(-2.0, 2.0, 9)),
    }

    def _golden_points(self, case):
        options, idx, theta, thetas, tau, taus = self.GOLDEN_GRIDS[case]
        args = ["table", "z", *options, "--theta", theta, "--tau", tau]
        points = [(float(th), float(ta), z_sum(idx, float(th), float(ta)))
                  for th in thetas for ta in taus]
        return args, points

    @pytest.mark.parametrize("case", sorted(GOLDEN_GRIDS))
    def test_csv_golden_bytes(self, runner, case):
        args, points = self._golden_points(case)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(["theta", "tau", "value_re", "value_im"])
        writer.writerows([repr(th), repr(ta), repr(v.real), repr(v.imag)]
                         for th, ta, v in points)
        expected = buffer.getvalue()
        if case == "zero-angles":
            assert ",0.0,0.0,-0.0\r\n" in expected
        assert invoke(runner, args).stdout_bytes == expected.encode()

    @pytest.mark.parametrize("case", sorted(GOLDEN_GRIDS))
    def test_text_golden_bytes(self, runner, case):
        args, points = self._golden_points(case)
        lines = [f"{'theta':>24s} {'tau':>24s} value"]
        lines += [f"{th:>24.17g} {ta:>24.17g} {format_complex(v)}"
                  for th, ta, v in points]
        expected = "".join(line + "\n" for line in lines)
        result = invoke(runner, args + ["--format", "text"])
        assert result.stdout_bytes == expected.encode()

    @pytest.mark.parametrize("args", [
        ["table", "z", "--l", "1", "--m", "1", "--n", "0",
         "--theta", "0:pi:0", "--tau", "0"],
        ["table", "z", "--l", "1", "--m", "1", "--n", "0",
         "--theta", "0:pi:-3", "--tau", "0"],
        ["table", "z", "--l", "1", "--m", "1", "--n", "0",
         "--theta", "0:pi", "--tau", "0"],
        ["table", "z", "--l", "1", "--theta", "0:pi:3", "--tau", "0"],
        ["table", "nosuch", "--l", "1", "--theta", "0", "--tau", "0"],
    ])
    def test_usage_errors_exit_two(self, runner, args):
        invoke(runner, args, expect=2)

    @pytest.mark.parametrize("theta, tau", [
        ("0:3:1001", "-1:1:1000"), ("0:3:10000000000", "0")])
    def test_oversized_grid_is_one_line_domain_error(self, runner, theta, tau):
        # Refused from the parsed counts, before either axis is allocated.
        result = invoke(runner, ["table", "z", "--l", "4", "--m", "1",
                                 "--n", "-3", "--theta", theta, "--tau", tau],
                        expect=2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: ")

    @pytest.mark.parametrize("option, spec, given", [
        ("theta", "0:inf:3", "inf"), ("theta", "nan:1:2", "nan"),
        ("theta", "-inf:1:2", "-inf"), ("tau", "0:-inf:2", "-inf")])
    def test_non_finite_endpoint_is_one_line_domain_error(
            self, runner, recwarn, option, spec, given):
        grids = {"theta": "1", "tau": "0", option: spec}
        result = invoke(runner, ["table", "z", "--l", "1", "--m", "0",
                                 "--n", "0", "--theta", grids["theta"],
                                 "--tau", grids["tau"]], expect=2)
        assert result.stdout == ""
        assert result.stderr == (f"Error: --{option} must be finite, "
                                 f"got {given}\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
