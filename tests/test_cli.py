"""Tests for the command-line harness: eval, verify, table."""

import csv
import hashlib
import io
import json
import math
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarewaves import cli, suites
from poincarewaves.cli import format_complex, main
from poincarewaves.lorentz_harmonics import (HarmonicIndex, generalized_m,
                                             generalized_m_values, z_sum)
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

    @pytest.mark.parametrize("args, m, phi, epsilon", [
        (["zonal", "--l", "2"], 0.0, 0.0, 0.0),
        (["associated", "--l", "2", "--m", "1", "--phi", "0.3",
          "--epsilon", "0.2"], 1.0, 0.3, 0.2)])
    def test_dotted_zonal_and_associated_are_the_dotted_series(
            self, runner, args, m, phi, epsilon):
        expected = generalized_m_values(2, m, 0, phi, epsilon, 0.7, 0.4,
                                        0.0, 0.0, dotted=True)
        assert expected.imag
        result = invoke(runner, ["eval", *args, "--theta", "0.7", "--tau",
                                 "0.4", "--dotted", "--format", "json"])
        value = json.loads(result.output)["values"][args[0]]
        assert complex(value["re"], value["im"]) == expected

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
        (["radial", "--l", "1", "--r", "1e308"],
         "f_{1,1}(r) is not finite at r=(1e+308+0j): it overflows a float"),
        (["assemble", "--k", "1,2,3", "--lam", "1", "--l", "1",
          "--x", "0,0,0", "--t", "0", "--r", "1e308",
          "--angles", "0,0,1,0,0,0"],
         "f_{1,1}(r) is not finite at r=(1e+308+0j): it overflows a float"),
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
        # One _json_entries call per report, over its distinct map objects:
        # the grid records share one indices map per index and one point map
        # per grid point.  Counted under every name a package module binds
        # _json_entries to.
        original = suites._json_entries
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
        ["verify", "casimir", "--lmax", "21"],
        ["verify", "casimir", "--grid-density", "1"],
        ["verify", "hypergeom", "--grid-density", "1000"],
        ["verify", "casimir", "--seed", "-1"],
    ])
    def test_usage_errors_exit_two(self, runner, args):
        invoke(runner, args, expect=2)

    @pytest.mark.parametrize("option, value", [
        ("lmax", 21), ("lmax", -1), ("grid_density", 1),
        ("grid_density", 1000), ("grid_density", 10 ** 12), ("seed", -1)])
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


def _record_writes(monkeypatch) -> list[str]:
    """The texts click.echo writes to stdout from now on, in order."""
    writes, echo = [], click.echo

    def recording(message=None, file=None, nl=True, err=False, color=None):
        if not err:
            writes.append((message or "") + ("\n" if nl else ""))
        return echo(message, file, nl, err, color)

    monkeypatch.setattr(click, "echo", recording)
    return writes


class TestVerifyBlocks:
    """The report is written a block of records at a time."""

    #: A small run with flagged failures and records of every suite.
    OPTIONS = ["--lmax", "1", "--variant", "paper", "--corrected-lambda",
               "false", "--seed", "3"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_block_size_keeps_bytes(self, runner, monkeypatch, fmt):
        # One record a block, block edges inside every suite, and one block
        # larger than the report all write the bytes of the unpatched report.
        args = ["verify", "all", *self.OPTIONS, "--format", fmt]
        expected = invoke(runner, args).stdout_bytes
        records = len(build_report("all", SuiteConfig(
            lmax=1, variant="paper", corrected_lambda=False,
            seed=3))["records"])
        for block in (1, 7, records + 1):
            monkeypatch.setattr(cli, "_REPORT_BLOCK", block)
            assert invoke(runner, args).stdout_bytes == expected, block

    def test_no_json_write_is_longer_than_one_block(self, runner,
                                                    monkeypatch):
        # Each write holds at most one block of records, and the head or the
        # tail: the text is never held whole.
        report = build_report("all", SuiteConfig(lmax=6, grid_density=4))
        records = report["records"]
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        rows = ["    " + json.dumps(record, sort_keys=True,
                                    indent=2).replace("\n", "\n    ")
                for record in records]
        opening = '  "records": [\n'
        head = text[:text.index(opening) + len(opening)]
        tail = text[text.rindex('\n  ],\n  "suite": '):]
        assert head + ",\n".join(rows) + tail == text
        block = cli._REPORT_BLOCK
        assert len(records) > 4 * block
        longest = max(sum(map(len, rows[start:start + block])) + 2 * block
                      for start in range(len(rows)))
        writes = _record_writes(monkeypatch)
        result = invoke(runner, ["verify", "all", "--lmax", "6",
                                 "--grid-density", "4", "--format", "json"])
        assert result.stdout == text == "".join(writes)
        assert max(map(len, writes)) <= longest + max(len(head), len(tail))
        assert len(writes) == -(-len(records) // block)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_one_block_report_is_one_write(self, runner, monkeypatch, fmt):
        writes = _record_writes(monkeypatch)
        result = invoke(runner, ["verify", "commutators", "--format", fmt])
        assert [write.encode() for write in writes] == [result.stdout_bytes]


#: (index, theta, tau): a weight's index, a theta in [0, pi] and a tau
#: within the weight's bound |tau| <= 709 / l.
_ONE_POINTS = st.sampled_from(
    [(0, 0, 0), (0.5, 0.5, -0.5), (2, 1, -1), (4, 1, -3), (20, 3, 0)]
).flatmap(lambda index: st.tuples(
    st.just(index), st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=-709.0 / (index[0] or 0.5),
              max_value=709.0 / (index[0] or 0.5))))


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

    @pytest.mark.parametrize("fmt", ["csv", "text", "json"])
    def test_dotted_zonal_is_dotted_z(self, runner, fmt):
        grid = ["--l", "2", "--theta", "0:pi:9", "--tau", "-1:1:5",
                "--format", fmt]
        dotted = invoke(runner, ["table", "zonal", *grid, "--dotted"])
        plain = invoke(runner, ["table", "zonal", *grid])
        z = invoke(runner, ["table", "z", *grid, "--m", "0", "--n", "0",
                            "--dotted"])
        # The JSON table names its function; every other byte is z's.
        assert dotted.stdout.replace('"zonal"', '"z"') == z.stdout
        assert dotted.stdout != plain.stdout

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

    @pytest.mark.parametrize("case", sorted(GOLDEN_GRIDS))
    def test_json_golden_bytes(self, runner, case):
        args, points = self._golden_points(case)
        expected = json.dumps(
            {"function": "z",
             "rows": [{"theta": th, "tau": ta,
                       "value": {"re": v.real, "im": v.imag}}
                      for th, ta, v in points]},
            sort_keys=True, indent=2) + "\n"
        result = invoke(runner, args + ["--format", "json"])
        assert result.stdout_bytes == expected.encode()

    @pytest.mark.parametrize("case", ["dotted-half-integer", "one-by-n"])
    @pytest.mark.parametrize("fmt", ["csv", "text", "json"])
    def test_block_boundaries_keep_bytes(self, runner, monkeypatch, case,
                                         fmt):
        # One point a block, a boundary in the middle of a row (the 37 x 41
        # grid's rows are 41 long, the 1 x 9 row is split), blocks of whole
        # tau axes and several rows, and one block larger than the grid all
        # write the bytes of the unpatched table.
        args, points = self._golden_points(case)
        args = args + ["--format", fmt]
        expected = invoke(runner, args).stdout_bytes
        for block in (1, 7, 100, len(points) + 1):
            monkeypatch.setattr(cli, "_TABLE_BLOCK", block)
            assert invoke(runner, args).stdout_bytes == expected, block

    #: The first line each format writes, and what it writes after the rows.
    HEADS = {"csv": ("theta,tau,value_re,value_im\r\n", ""),
             "text": (f"{'theta':>24s} {'tau':>24s} value\n", ""),
             "json": ('{\n  "function": "z",\n  "rows": [\n', "\n  ]\n}\n")}

    @pytest.mark.parametrize("fmt", ["csv", "text", "json"])
    def test_one_write_per_block(self, runner, monkeypatch, fmt):
        # The 37 x 41 grid in blocks of 100 points is 16 writes: the head
        # comes with the first, the tail with the last, and each write but
        # the last holds one whole block of rows.
        args, points = self._golden_points("dotted-half-integer")
        args = args + ["--format", fmt]
        expected = invoke(runner, args).stdout_bytes
        monkeypatch.setattr(cli, "_TABLE_BLOCK", 100)
        writes = _record_writes(monkeypatch)
        assert invoke(runner, args).stdout_bytes == expected
        assert len(writes) == 16 == -(-len(points) // 100)
        assert "".join(writes).encode() == expected
        head, tail = self.HEADS[fmt]
        assert writes[0].startswith(head) and writes[-1].endswith(tail)
        assert not any(write.startswith(head) for write in writes[1:])
        rows = [write.count('"theta": ') if fmt == "json"
                else write.count("\n") for write in writes]
        rows[0] -= fmt != "json"  # the header line
        assert rows == [100] * 15 + [len(points) - 1500]

    @pytest.mark.parametrize("fmt", ["csv", "text", "json"])
    @pytest.mark.parametrize("case", ["single-point", "one-by-n"])
    def test_one_block_table_is_one_write(self, runner, monkeypatch, fmt,
                                          case):
        args, _ = self._golden_points(case)
        writes = _record_writes(monkeypatch)
        result = invoke(runner, args + ["--format", fmt])
        assert [write.encode() for write in writes] == [result.stdout_bytes]

    @settings(max_examples=60, deadline=None)
    @given(point=_ONE_POINTS)
    @example(point=((4, 1, -3), 5e-324, -0.0))
    @example(point=((0.5, 0.5, -0.5), -0.0, 5e-324))
    @example(point=((20, 3, 0), math.pi, 709.0 / 20))
    def test_one_point_json_is_json_dumps(self, point):
        # Each number of the JSON table is written as its repr, which is its
        # json.dumps text at every finite float: the subnormal 5e-324, -0.0
        # and values at the weight's largest |tau| included.
        (l, m, n), theta, tau = point
        value = z_sum(HarmonicIndex(l, m, n), theta, tau)
        expected = json.dumps(
            {"function": "z",
             "rows": [{"theta": theta, "tau": tau,
                       "value": {"re": value.real, "im": value.imag}}]},
            sort_keys=True, indent=2) + "\n"
        result = invoke(CliRunner(), [
            "table", "z", "--l", repr(l), "--m", repr(m),
            "--n", repr(n), "--theta", repr(theta), "--tau", repr(tau),
            "--format", "json"])
        assert result.stdout == expected

    @pytest.mark.parametrize("fmt", ["csv", "text", "json"])
    def test_domain_error_prints_nothing(self, runner, fmt):
        # The outer taus are out of range at this weight: the grid is
        # evaluated whole before the first byte of the table is written.
        result = invoke(runner, ["table", "z", "--l", "10", "--m", "10",
                                 "--n", "-10", "--theta", "0:pi:50",
                                 "--tau", "-71:71:50", "--format", fmt],
                        expect=2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: ")

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

    @pytest.mark.parametrize("option, spec, message", [
        ("theta", "0:inf:3", "must be finite, got inf"),
        ("theta", "nan:1:2", "must be finite, got nan"),
        ("theta", "-inf:1:2", "must be finite, got -inf"),
        ("tau", "0:-inf:2", "must be finite, got -inf"),
        # Finite endpoints whose difference overflows: once numpy warnings
        # and a message about a nan the user never gave.
        *((option, "-1.7e308:1.7e308:3", "grid '-1.7e308:1.7e308:3' spans "
           "more than the float range: stop - start overflows")
          for option in ("theta", "tau"))])
    def test_non_finite_endpoint_is_one_line_domain_error(
            self, runner, recwarn, option, spec, message):
        grids = {"theta": "1", "tau": "0", option: spec}
        result = invoke(runner, ["table", "z", "--l", "1", "--m", "0",
                                 "--n", "0", "--theta", grids["theta"],
                                 "--tau", grids["tau"]], expect=2)
        assert result.stdout == ""
        assert result.stderr == f"Error: --{option} {message}\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


#: sha256 of the stdout bytes of eval polarization, planewave and assemble at
#: three fixed inputs each, taken before the photon residuals became batched
#: kernels: the eval routes are the per-point code, which keeps its bits.
EVAL_GOLDEN = [
    ("polarization --k 1,2,3",
     "6878fdeb70ba8c6ad4cb0cb74707502e8d711eba5c0c52ac7cf3568341d860d9"),
    ("polarization --k 0,0,-2 --format json",
     "f58567657a62828fa8d32fec402731dc460eeb58ba8af7f487ea9f5843161fe4"),
    ("polarization --k 1e-7,0,1 --format csv",
     "683380b5948c623a659e79553ed24ebb2caf81937e5563708cc823d0f72acb10"),
    ("planewave --k 1,2,3 --lam 1 --x 0.1,-0.2,0.3 --t 0.4",
     "cd05096fa6f3a21ba5090c83e919fb5d321b0fec3a4cb0c252b43adabd0783e9"),
    ("planewave --k -0.7,0.4,2.1 --lam 0 --x 1,2,3 --t -1.5 --format json",
     "602126eeccfcce0124cabe4e573286e1273fbfc122302b4e5314d3caef963587"),
    ("planewave --k 3,4,0 --lam -1 --x 0.5,0.5,0.5 --t 2 --c 2.5 --format csv",
     "a9ca71daa6cadcf7a0465e7dd92596fd3b3df8d1d67047b03f438abed2f8636d"),
    ("assemble --k 1,2,3 --lam 1 --l 1 --x 0.1,-0.2,0.3 --t 0.4 --r 0.9,-0.4 --angles 0.3,0.1,1.0,0.2,0.4,-0.2",
     "a223aee7a9dffabce4f5f1a79c705fe26f7b4c373fe10274b5878abb3e3ab4c0"),
    ("assemble --k -0.7,0.4,2.1 --lam -1 --l 1 --dotted --x 1,2,3 --t -1.5 --r 1.2,0.3 --angles 1.0,-0.3,2.0,0.5,-1.0,0.1 --format json",
     "c0b9be7a4668d03f045c7f709c09e9242990d2873e602f3c43b404e8289c604a"),
    ("assemble --k 3,4,0 --lam 0 --l 1 --x 0,0,0 --t 0 --r 2 --angles 0,0,0.5,0,0,0 --c 2.5 --format csv",
     "2b7182f40808e1dc332c761239bfc42d848771b0ad0f36ac3e955f65a29b0232"),
]


@pytest.mark.parametrize("args, digest", EVAL_GOLDEN,
                         ids=[args.split()[0] + f"-{i % 3}"
                              for i, (args, _) in enumerate(EVAL_GOLDEN)])
def test_eval_bytes_are_pinned(runner, args, digest):
    result = invoke(runner, ["eval", *args.split()])
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


#: sha256 of the stdout bytes of verify all --format json at the defaults and
#: at lmax 6: the JSON render lays its text out its own way, and these pin
#: that it writes the same bytes.
VERIFY_GOLDEN = [
    ("all --format json",
     "307eb78a69721c05ef9bf493cd1e5bf9de24c946580c163a18f60c9ba8b5a6a2"),
    ("all --lmax 6 --grid-density 4 --format json",
     "ef0fb0a972d93bf63f29372900461c730aee86c30b03332587016ecb19c6a66c"),
]


@pytest.mark.parametrize("args, digest", VERIFY_GOLDEN,
                         ids=["default", "lmax6"])
def test_verify_bytes_are_pinned(runner, args, digest):
    result = invoke(runner, ["verify", *args.split()])
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
