"""Span tracing of the package's layers from outside the package.

``Tracer.installed()`` replaces each function in ``WRAPPED`` by a wrapper that
records a span, under every name a package module binds it to (so
``suites.z_sum`` and ``lorentz_harmonics.z_sum`` are both traced), and puts the
originals back on exit.  A method or a class's construction is wrapped on the
class.  Spans (name, start, end, parent, op id) are kept in compact arrays in
memory and written out once, at the end of the run.

A span's self time is its duration minus the durations of its child spans.
Spans nest on one thread, so children never overlap and the self times of an
op's spans add up to the duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "poincarewaves"

#: The layers, in the package's own dependency order.
MODULES = ("group_kinematics", "lorentz_harmonics", "differential_checks",
           "photon_plane_waves", "lorentz_sector", "poincare_assembly", "suites")

#: "module.function" or "module.Class.method"; a bare class wraps its construction.
WRAPPED = (
    "group_kinematics.make_angles",
    "lorentz_harmonics.HarmonicIndex",
    "lorentz_harmonics.z_sum",
    "lorentz_harmonics.z_2f1",
    "lorentz_harmonics.su2_factor_p",
    "lorentz_harmonics.qu2_factor_jacobi",
    "lorentz_harmonics.generalized_m_values",
    "lorentz_harmonics.zonal_z",
    "differential_checks.casimir_x2_residual",
    "differential_checks.casimir_y2_residual",
    "differential_checks.legendre_residual",
    "differential_checks.holomorphy_residual",
    "differential_checks.casimir_convergence_order",
    "differential_checks.make_record",
    "photon_plane_waves.polarization_vectors",
    "photon_plane_waves.eigenstructure",
    "photon_plane_waves.dirac_form_residual",
    "photon_plane_waves.maxwell_residuals",
    "photon_plane_waves.PhotonPlaneWave.value",
    "lorentz_sector.radial_residual",
    "lorentz_sector.RadialSolution.select",
    "poincare_assembly.PoincareWaveFunction.value",
    "poincare_assembly.build_catalog",
    "poincare_assembly.physical_filter",
    "suites.build_report",
)

#: Root span of every op; its self time is the op's own work outside the layers.
ROOT = "cli"


class Tracer:
    """Records nested spans into arrays; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1
        self.missing: list[str] = []

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def wrap(self, name: str, function):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        start, end, stack, open_span = self.start, self.end, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = open_span(name_id)
            begin = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = begin
                stack.pop()

        return traced

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """The root span of one op; every layer span of the op sits inside it."""
        self._op = op_id
        index = self._open(0)
        self.start[index] = time.perf_counter()
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        restore = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for name in WRAPPED:
                module_name, _, attribute = name.partition(".")
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner, _, method = attribute.partition(".")
                target = getattr(module, owner, None)
                if target is None or (method and method not in vars(target)):
                    self.missing.append(name)
                    continue
                if method or isinstance(target, type):
                    slot = method or "__init__"
                    original = vars(target)[slot]
                    setattr(target, slot, self.wrap(name, original))
                    restore.append((target, slot, original))
                    continue
                wrapper = self.wrap(name, target)
                for caller in modules:
                    for key, value in list(vars(caller).items()):
                        if value is target:
                            setattr(caller, key, wrapper)
                            restore.append((caller, key, target))
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.intc).copy(),
                "start": np.frombuffer(self.start, dtype=float).copy(),
                "end": np.frombuffer(self.end, dtype=float).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
                "op": np.frombuffer(self.op, dtype=np.intc).copy()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part its child spans cover."""
    duration = spans["end"] - spans["start"]
    child = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered


def well_formed(spans: dict[str, np.ndarray], rtol: float = 1e-9) -> list[str]:
    """Problems with the span tree: children outside parents, negative self
    times, or self times that do not add up to the root span of their op."""
    problems = []
    parent = spans["parent"]
    child = np.flatnonzero(parent >= 0)
    outside = ((spans["start"][child] < spans["start"][parent[child]])
               | (spans["end"][child] > spans["end"][parent[child]])
               | (spans["op"][child] != spans["op"][parent[child]]))
    if outside.any():
        problems.append(f"{int(outside.sum())} spans lie outside their parent")
    selfs = self_times(spans)
    duration = spans["end"] - spans["start"]
    if (selfs < -rtol * duration).any():
        problems.append(f"{int((selfs < -rtol * duration).sum())} negative self times")
    roots = np.flatnonzero(parent < 0)
    if (spans["name"][roots] != 0).any():
        problems.append("a span other than an op root has no parent")
    ops = spans["op"]
    total = np.bincount(ops, weights=selfs, minlength=ops.max() + 1)[ops[roots]]
    if not np.allclose(total, duration[roots], rtol=rtol, atol=0.0):
        problems.append("self times do not add up to the op wall time")
    return problems


def layer_stats(spans: dict[str, np.ndarray], names: list[str]) -> dict:
    """Per-name call counts per op, and self and inclusive seconds per op."""
    selfs = self_times(spans)
    duration = spans["end"] - spans["start"]
    ops = np.unique(spans["op"])
    count = len(names)
    calls = np.zeros((len(ops), count), dtype=np.int64)
    for row, op in enumerate(ops):
        calls[row] = np.bincount(spans["name"][spans["op"] == op], minlength=count)
    self_total = np.bincount(spans["name"], weights=selfs, minlength=count)
    inclusive = np.bincount(spans["name"], weights=duration, minlength=count)
    return {
        "ops": len(ops),
        "calls": dict(zip(names, calls[0].tolist())),
        "calls_repeat": bool((calls == calls[0]).all()),
        "self_s": dict(zip(names, (self_total / len(ops)).tolist())),
        "inclusive_s": dict(zip(names, (inclusive / len(ops)).tolist())),
    }
