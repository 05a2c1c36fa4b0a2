"""Self-test and negative controls of the benchmark, at reduced size.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.make_workloads(small=True)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace=False, first_op_seconds=0.0):
    return harness.run(workload, seed=3, seconds=0.0, trace=trace,
                       setup_reps=1, first_op_seconds=first_op_seconds,
                       out_dir=None)


# ---------------------------------------------------------------------------
# Negative controls: each planted fault is counted as a failed op.
# ---------------------------------------------------------------------------

class Planted:
    """A workload whose ops after the first are altered by ``plant``."""

    def __init__(self, workload, plant):
        self._workload, self._plant, self._ops = workload, plant, 0

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def op(self, inputs):
        out = self._workload.op(inputs)
        self._ops += 1
        return out if self._ops == 1 else self._plant(out)


def _replace_record_list(out, edit):
    report = json.loads(out.stdout)
    report["records"] = edit(report["records"])
    return replace(out, stdout=json.dumps(report, sort_keys=True,
                                          indent=2).encode() + b"\n")


def _assert_only_planted_ops_fail(result):
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"] - 1
    assert result["correct"] is False


def test_changed_record_count_fails():
    plant = lambda out: _replace_record_list(out, lambda records: records[:-1])
    result = _run(Planted(SMALL["verify-default"], plant))
    _assert_only_planted_ops_fail(result)
    assert "records, expected" in json.dumps(result["notes"]["problems"])


def test_failing_unflagged_record_fails():
    def fail_one(records):
        target = next(r for r in records if not r["flagged"])
        target["passed"] = False
        return records

    plant = lambda out: _replace_record_list(out, fail_one)
    _assert_only_planted_ops_fail(_run(Planted(SMALL["verify-default"], plant)))


def test_nondeterministic_report_fails():
    # A report that still passes every record check but differs byte-wise.
    plant = lambda out: replace(out, stdout=out.stdout.replace(
        b'"seed"', b'"seed" ', 1))
    result = _run(Planted(SMALL["verify-default"], plant))
    _assert_only_planted_ops_fail(result)
    assert "differs from the first op" in json.dumps(result["notes"]["problems"])


def test_nonzero_exit_fails():
    plant = lambda out: replace(out, exit_code=1)
    _assert_only_planted_ops_fail(_run(Planted(SMALL["verify-lmax6"], plant)))


def test_planted_table_value_fails():
    def plant(out):
        lines = out.stdout.split(b"\r\n")
        theta, tau, re, im = lines[7].split(b",")
        # Ten times the bound on the scale exp(l |tau|) of the check.
        shifted = float(re) + 1e-9 * math.exp(4 * abs(float(tau)))
        lines[7] = b",".join([theta, tau, repr(shifted).encode(), im])
        return replace(out, stdout=b"\r\n".join(lines))

    result = _run(Planted(SMALL["table-z"], plant))
    _assert_only_planted_ops_fail(result)
    assert "off the reference" in json.dumps(result["notes"]["problems"])


def test_planted_field_value_fails():
    def plant(out):
        values = out.values.copy()
        values[1, 2, 0, 4] *= 1 + 1e-8
        return replace(out, values=values)

    _assert_only_planted_ops_fail(_run(Planted(SMALL["field-batch"], plant)))


def test_raising_op_fails():
    def plant(out):
        raise ValueError("planted")

    _assert_only_planted_ops_fail(_run(Planted(SMALL["field-batch"], plant)))


# ---------------------------------------------------------------------------
# Self-test: one small op per workload reports every named metric.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", run.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = _run(SMALL[name], first_op_seconds=0.5)
    assert result["failed"] == 0 and result["correct"] is True
    assert len(result["notes"]["first_op_samples"]["ref"]) >= 2
    expected = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_run_reports_every_layer_metric(name):
    result = _run(SMALL[name], trace=True)
    notes = result["notes"]
    assert result["failed"] == 0
    expected = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    assert [name for name, _, _ in harness.layer_spec()] == list(notes["layers"])
    assert all(result["metrics"][name]["value"] > 0
               for name in harness.TIMED_EVERYWHERE)
    assert notes["trace_problems"] == [] and notes["missing"] == []
    assert notes["calls_repeat"] is True
    values = {k: v["value"] for k, v in notes["layers"].items()}
    # Module self times plus the root's own time make up the traced op wall
    # (plus the root span's own bookkeeping), which is the untraced op wall
    # times the trace overhead (one op each).
    layered = (sum(values[f"{m}.self_s"] for m in tracing.MODULES)
               + values["cli.render_s"])
    traced_wall = values["trace_overhead"] * notes["untraced_p50"]
    assert layered == pytest.approx(traced_wall, rel=1e-2)
    shares = sum(values[f"{m}.share"] for m in tracing.MODULES) + values["cli.share"]
    assert shares == pytest.approx(1.0, rel=1e-9)
    assert all(v >= 0 for v in values.values())


def test_span_tree_is_well_formed_and_originals_restored():
    from poincarewaves import lorentz_harmonics, suites

    original = lorentz_harmonics.z_sum
    workload = SMALL["verify-default"]
    inputs = workload.inputs(5)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert suites.z_sum is not original
        for op in range(2):
            with tracer.op_span(op):
                workload.op(inputs)
    assert suites.z_sum is original and lorentz_harmonics.z_sum is original
    spans = tracer.spans()
    assert tracing.well_formed(spans) == []
    assert (tracing.self_times(spans) >= 0).all()
    stats = tracing.layer_stats(spans, tracer.names)
    assert stats["calls_repeat"] and stats["calls"]["suites.build_report"] == 1


def test_well_formed_detects_a_child_outside_its_parent():
    spans = {"name": np.array([0, 1]), "start": np.array([0.0, 0.5]),
             "end": np.array([1.0, 1.5]), "parent": np.array([-1, 0]),
             "op": np.array([0, 0])}
    assert any("outside" in p for p in tracing.well_formed(spans))


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert harness.tail([float(i) for i in range(30)]) == (19.0, 200 / 3, 10)
    assert harness.tail([float(i) for i in range(11)]) == (5.0, 50.0, 5)
    assert harness.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_reference_z_matches_the_package_route():
    from poincarewaves.lorentz_harmonics import HarmonicIndex, z_sum

    theta, tau = np.array([0.3, 2.9]), np.array([0.7, -1.9])
    for l, m, n in ((0.5, -0.5, 0.5), (1, 1, 0), (4, -2, 3), (6, 5, -6)):
        reference = workloads.reference_z(l, m, n, theta, tau)
        for point, value in enumerate(reference):
            direct = z_sum(HarmonicIndex(l, m, n), theta[point], tau[point])
            assert abs(direct - value) <= 1e-12 * np.exp(l * abs(tau[point]))


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == harness.per_layer_spec()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_without_the_package_source_the_run_fails_without_a_result():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "table-z",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout
