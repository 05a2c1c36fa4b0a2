"""Closed-loop runner: times ops, checks them, and assembles the metrics.

An untraced run (``trace=False``) measures:

* the first op of a fresh process (``first_op_s``), while the package's
  coefficient caches are still empty: the median over the run's own first op
  and first ops in fresh interpreters, up to ``FIRST_OP_COUNT`` of them or
  ``FIRST_OP_SECONDS`` (at the reference speed) in all;
* ops in a loop until their summed wall time reaches ``seconds``
  (``items_per_s``, ``op_s_p50``, ``op_s_tail``);
* the median over ``setup_reps`` fresh interpreters of the time from start to
  ``import poincarewaves.cli`` finishing (``setup_s``);
* the peak resident memory of the process up to the end of its first op
  (``peak_rss_mb``).

Each timing is taken under ``speed.SpeedProbe`` and reported in seconds at
the reference speed; the same timings in wall-clock seconds are printed and
stored beside them as ``wall.<name>``.

A traced run repeats the first op and half the loop untraced, then runs the
other half with the layers wrapped by ``tracing.Tracer`` and reports the
per-layer metrics in wall-clock seconds.  Every op's output is checked
outside the timed region; an op that raises, exits nonzero or fails its
check counts as failed.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path

import numpy as np

import speed
import tracing
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPS = 7
TAIL_BEYOND = 10

#: First ops are repeated in fresh interpreters until there are FIRST_OP_COUNT
#: of them or their summed reference-speed time reaches FIRST_OP_SECONDS
#: (reference time, so that the count does not depend on the machine's speed).
FIRST_OP_COUNT = 3
FIRST_OP_SECONDS = 5.0

#: (name, unit, better) of the end-to-end metrics of an untraced run; the
#: times are seconds at the reference speed.
END_TO_END = (
    ("items_per_s", "items/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("first_op_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: The same timings in wall-clock seconds, and the failed share of ops;
#: printed and stored, not in the result line.
WALL_CLOCK = (
    ("wall.items_per_s", "items/s"),
    ("wall.op_s_p50", "s"),
    ("wall.op_s_tail", "s"),
    ("wall.first_op_s", "s"),
    ("wall.setup_s", "s"),
    ("fail_ratio", "ratio"),
)

SUITES = ("assembly", "casimir", "commutators", "eigen", "factorization",
          "holomorphy", "hypergeom", "legendre", "maxwell", "radial",
          "transversality")

#: Functions whose inclusive microseconds per call are reported.
PER_CALL = ("lorentz_harmonics.z_sum", "lorentz_harmonics.z_2f1",
            "lorentz_harmonics.su2_factor_p",
            "lorentz_harmonics.generalized_m_values",
            "photon_plane_waves.polarization_vectors",
            "photon_plane_waves.dirac_form_residual",
            "poincare_assembly.PoincareWaveFunction.value")


#: Per-layer times that are above zero on every workload.  Every other time
#: (a function's self time, a module's, microseconds per call, a suite's)
#: reads exactly 0 on a workload that never reaches it, so it is printed and
#: stored but left out of the result line, where a time must vary.
TIMED_EVERYWHERE = ("cli.render_s", "lorentz_harmonics.self_s",
                    "lorentz_harmonics.HarmonicIndex.self_s")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of the per-layer metrics in a traced run's result
    line: counts, shares and ratios, and the times in TIMED_EVERYWHERE."""
    return [(name, unit, better) for name, unit, better in layer_spec()
            if unit != "s" and unit != "us" or name in TIMED_EVERYWHERE]


def layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run measures."""
    spec = []
    for name in tracing.WRAPPED:
        spec += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    for module in tracing.MODULES:
        spec += [(f"{module}.self_s", "s", "lower"),
                 (f"{module}.share", "ratio", "lower")]
    spec += [("cli.render_s", "s", "lower"), ("cli.share", "ratio", "lower")]
    spec += [(f"{name}.us_per_call", "us", "lower") for name in PER_CALL]
    spec += [(f"suites.{suite}.s", "s", "lower") for suite in SUITES]
    spec += [("lorentz_harmonics.table_cache_hit_ratio", "ratio", "higher"),
             ("trace_overhead", "ratio", "lower")]
    return spec


@dataclass
class OpLog:
    """Attempted and failed ops, with the run's first output as reference."""

    workload: Workload
    inputs: object
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first: object = None
    first_problems: list = field(default_factory=list)
    first_peak_mb: float = 0.0

    def run(self, context) -> float:
        """Run one op inside context, check it outside the timed region,
        and return its wall seconds."""
        error = None
        with context:
            begin = time.perf_counter()
            try:
                out = self.workload.op(self.inputs)
            except Exception as exc:  # an op that raises is a failed op
                out, error = None, f"op raised {exc!r}"
            seconds = time.perf_counter() - begin
        if self.attempted == 0:  # before the check adds its own allocations
            self.first_peak_mb = peak_rss_mb()
        self.attempted += 1
        problems = [error] if error else self._check(out)
        if problems:
            self.failed += 1
            self.problems.append({"op": self.attempted - 1, "problems": problems})
        return seconds

    def _check(self, out) -> list[str]:
        if self.first is None:
            self.first = out
            self.first_problems = self.workload.check(out, self.inputs)
            return self.first_problems
        if self.workload.same(out, self.first):
            return self.first_problems
        problems = self.workload.check(out, self.inputs)
        if self.workload.requires_identical:
            problems.append("output differs from the first op of the run")
        return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_op(log: OpLog, tracer=None) -> tuple[float, float]:
    """One op as (wall seconds, reference seconds); traced ops are not probed."""
    if tracer is not None:
        return log.run(tracer.op_span(log.attempted)), math.nan
    probe = speed.SpeedProbe()
    return probe.times(log.run(probe))


def loop(log: OpLog, seconds: float, tracer=None
         ) -> tuple[list[float], list[float]]:
    """Closed loop: ops back to back until their wall time reaches seconds.

    Returns the wall and the reference seconds of each op.
    """
    walls, refs = [], []
    while not walls or sum(walls) < seconds:
        wall, ref = timed_op(log, tracer)
        walls.append(wall)
        refs.append(ref)
    return walls, refs


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, but
    never below the median.

    Returns (value, percentile, samples beyond).  With 2 * TAIL_BEYOND
    samples or fewer no percentile above the median qualifies, and the
    median is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND
    if n > 2 * TAIL_BEYOND and ordered[index] > statistics.median(ordered):
        return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND
    median = statistics.median(ordered)
    return median, 50.0, sum(1 for x in ordered if x > median)


def setup_times(reps: int) -> tuple[list[float], list[float]]:
    """Wall and reference seconds from starting a fresh interpreter to the
    CLI module imported.

    time.monotonic reads the system-wide monotonic clock on Linux, so the
    child's reading after its import and the parent's before the spawn
    bracket the interpreter's start-up and the import.  The child probes its
    speed meanwhile and reports the probes' time, which is taken out.
    """
    code = ("import sys, time; sys.path[:0] = [{here!r}, 'src']; import speed\n"
            "with speed.SpeedProbe() as probe:\n"
            "    import poincarewaves.cli\n"
            "    end = time.monotonic()\n"
            "print(repr(end), repr(probe.before + probe.during), "
            "repr(probe.mean()))").format(here=str(Path(__file__).resolve().parent))
    walls, refs = [], []
    for _ in range(reps):
        begin = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        end, probing, mean = map(float, done.stdout.split())
        walls.append(end - begin - probing)
        refs.append(speed.reference_seconds(walls[-1], mean))
    return walls, refs


def first_op_child(name: str, seed: int, small: bool) -> dict:
    """The first op of a workload in this (fresh) interpreter, checked."""
    from workloads import make_workloads

    workload = make_workloads(small)[name]
    log = OpLog(workload, workload.inputs(seed))
    wall, ref = timed_op(log)
    return {"wall": wall, "ref": ref, "problems": log.problems}


def fresh_first_ops(log: OpLog, seed: int, walls: list[float],
                    refs: list[float], budget: float) -> None:
    """Add first ops from fresh interpreters until their reference-speed
    times reach budget."""
    code = ("import json, sys; sys.path[:0] = [{here!r}, 'src']; import harness; "
            "print(json.dumps(harness.first_op_child({name!r}, {seed!r}, {small!r})))"
            ).format(here=str(Path(__file__).resolve().parent),
                     name=log.workload.name, seed=seed, small=log.workload.small)
    while sum(refs) < budget and len(refs) < FIRST_OP_COUNT:
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=170,
                              check=True)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        walls.append(child["wall"])
        refs.append(child["ref"])
        log.attempted += 1
        if child["problems"]:
            log.failed += 1
            log.problems.append({"op": "fresh first op",
                                 "problems": child["problems"][0]["problems"]})


def cache_counts() -> tuple[int, int]:
    """Summed (hits, misses) of the lru caches in lorentz_harmonics."""
    module = importlib.import_module("poincarewaves.lorentz_harmonics")
    hits = misses = 0
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            stats = info()
            hits, misses = hits + stats.hits, misses + stats.misses
    return hits, misses


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(workload: Workload, inputs, seed: int, seconds: float,
               trace: bool) -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top.strip()).resolve() == ROOT
    sha = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain") if in_repo else None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "blas_threads": {key: value for key, value in os.environ.items()
                         if key.endswith("_NUM_THREADS")},
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": workload.params(inputs),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        setup_reps: int = SETUP_REPS, first_op_seconds: float = FIRST_OP_SECONDS,
        out_dir: Path | None = OUT_DIR) -> dict:
    """Run one workload and return its result with metrics and notes."""
    inputs = workload.inputs(seed)
    log = OpLog(workload, inputs)
    items = workload.items(inputs)
    hits, misses = cache_counts()
    first_op_s, first_op_ref_s = timed_op(log)
    hits, misses = (a - b for a, b in zip(cache_counts(), (hits, misses)))
    notes = {"provenance": provenance(workload, inputs, seed, seconds, trace)}
    if not trace:
        walls, refs = loop(log, seconds)
        first_walls, first_refs = [first_op_s], [first_op_ref_s]
        fresh_first_ops(log, seed, first_walls, first_refs, first_op_seconds)
        setup_walls, setup_refs = setup_times(setup_reps)
        values = {"items_per_s": items * len(refs) / sum(refs),
                  "op_s_p50": statistics.median(refs),
                  "op_s_tail": tail(refs)[0],
                  "first_op_s": statistics.median(first_refs),
                  "setup_s": statistics.median(setup_refs),
                  "peak_rss_mb": log.first_peak_mb,
                  "wall.items_per_s": items * len(walls) / sum(walls),
                  "wall.op_s_p50": statistics.median(walls),
                  "wall.op_s_tail": tail(walls)[0],
                  "wall.first_op_s": statistics.median(first_walls),
                  "wall.setup_s": statistics.median(setup_walls),
                  "fail_ratio": log.failed / log.attempted}
        _, percentile, beyond = tail(walls)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
        notes.update(
            wall_clock={name: {"value": values[name], "unit": unit}
                        for name, unit in WALL_CLOCK},
            samples=len(walls),
            tail={"percentile": percentile, "samples": len(walls),
                  "beyond": beyond},
            first_op_samples={"wall": first_walls, "ref": first_refs},
            setup_samples={"wall": setup_walls, "ref": setup_refs})
    else:
        untraced, _ = loop(log, seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, _ = loop(log, seconds / 2, tracer)
        suite_s = suite_times(workload, inputs)
        spans = tracer.spans()
        stats = tracing.layer_stats(spans, tracer.names)
        layers = layer_metrics(stats, untraced, traced, suite_s, hits, misses)
        metrics = {name: layers[name] for name, _, _ in per_layer_spec()}
        notes.update(layers=layers,
                     untraced_ops=len(untraced), traced_ops=len(traced),
                     untraced_p50=statistics.median(untraced),
                     traced_p50=statistics.median(traced),
                     spans=len(spans["name"]), missing=tracer.missing,
                     trace_problems=tracing.well_formed(spans),
                     calls_repeat=stats["calls_repeat"])
        if out_dir is not None:
            tracer.write(out_dir / f"spans-{workload.name}.npz")
    notes["problems"] = log.problems[:20]
    result = {"correct": log.failed == 0, "attempted": log.attempted,
              "failed": log.failed, "metrics": metrics}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps({**result, "notes": notes}, indent=2) + "\n")
    return {**result, "notes": notes}


def suite_times(workload: Workload, inputs) -> dict[str, float]:
    """Untraced wall seconds of run_suite(name, config) per suite (verify only)."""
    if not hasattr(workload, "lmax"):
        return {}
    from poincarewaves import suites

    config = suites.SuiteConfig(lmax=workload.lmax,
                                grid_density=workload.grid_density,
                                seed=inputs.seed)
    times = {}
    for name in SUITES:
        if name in suites.SUITE_NAMES:
            begin = time.perf_counter()
            suites.run_suite(name, config)
            times[name] = time.perf_counter() - begin
    return times


def layer_metrics(stats: dict, untraced: list[float], traced: list[float],
                  suite_s: dict[str, float], hits: int, misses: int) -> dict:
    wall = stats["inclusive_s"][tracing.ROOT]
    values = {}
    for name in tracing.WRAPPED:
        values[f"{name}.calls"] = stats["calls"].get(name, 0)
        values[f"{name}.self_s"] = stats["self_s"].get(name, 0.0)
    for module in tracing.MODULES:
        module_self = sum(values[f"{name}.self_s"] for name in tracing.WRAPPED
                          if name.split(".", 1)[0] == module)
        values[f"{module}.self_s"] = module_self
        values[f"{module}.share"] = module_self / wall
    values["cli.render_s"] = stats["self_s"][tracing.ROOT]
    values["cli.share"] = values["cli.render_s"] / wall
    for name in PER_CALL:
        calls = stats["calls"].get(name, 0)
        values[f"{name}.us_per_call"] = (
            1e6 * stats["inclusive_s"][name] / calls if calls else 0.0)
    for suite in SUITES:
        values[f"suites.{suite}.s"] = suite_s.get(suite, 0.0)
    values["lorentz_harmonics.table_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    values["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in layer_spec()}
