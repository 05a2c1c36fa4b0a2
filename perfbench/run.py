"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The package is imported from ``src/`` of the checkout; nothing is installed.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  ``--workload all`` runs each workload in a fresh process and
prefixes its metric names with the workload's.  Results with provenance and,
for traced runs, the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("verify-default", "verify-lmax6", "table-z", "field-batch")
DEFAULT_SECONDS = 12

#: One client on one thread: numpy's BLAS is pinned before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(title: str, metrics: dict, notes: dict) -> None:
    print(f"  {title}")
    for name, metric in metrics.items():
        extra = ""
        if name.endswith("_tail"):
            tail = notes["tail"]
            extra = (f"  (p{tail['percentile']:.0f} of {tail['samples']} "
                     f"samples, {tail['beyond']} beyond)")
        elif name.endswith("_p50") and "samples" in notes:
            extra = f"  ({notes['samples']} samples)"
        print(f"    {name:<58} {metric['value']:.6g} {metric['unit']}{extra}")


def _print_result(result: dict) -> None:
    notes = result["notes"]
    print(f"workload {notes['provenance']['workload']} seed "
          f"{notes['provenance']['seed']}: closed loop, 1 client, "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    if "wall_clock" in notes:
        _print_metrics("end to end, times in seconds at the reference speed:",
                       result["metrics"], notes)
        _print_metrics("wall clock:", notes["wall_clock"], notes)
    else:
        _print_metrics("per layer (traced run):", notes["layers"], notes)
    for key in ("trace_problems", "missing", "problems"):
        if notes.get(key):
            print(f"  {key}: {json.dumps(notes[key])}")
    print(f"  provenance: {json.dumps(notes['provenance'], sort_keys=True)}")


def _run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "poincarewaves" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {ROOT / 'src'}; "
                         "run from a full checkout\n")
        return 2
    if args.workload == "all":
        return _run_all(args)
    # Imports numpy and the package, so only after the BLAS pin below.
    import harness
    from workloads import make_workloads

    result = harness.run(make_workloads()[args.workload], args.seed,
                         args.seconds, bool(args.trace))
    _print_result(result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    sys.exit(main())
