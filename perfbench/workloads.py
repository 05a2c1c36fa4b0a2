"""Benchmark workloads: seeded inputs, one operation each, independent checks.

Every workload is a closed loop with one client: the harness calls ``op``
with the same inputs again and again, and the next call starts only when the
previous one has returned.  ``inputs`` derives everything the program sees
from the workload seed.  ``check`` inspects an operation's output without
calling the package: a verify report is parsed with ``json``, a CSV table
by splitting its text, and every numeric value is compared with a reference
built here from numpy (an ``eigh`` of the spin-l generator J_x for Z, the closed-form
polarization vectors and radial functions for the assembled waves).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import click
import numpy as np

# Modules, not names: a traced run rebinds the functions on these modules.
from poincarewaves import cli, group_kinematics, lorentz_sector, poincare_assembly

#: Relative bound on every value compared with a numpy reference.
VALUE_BOUND = 1e-10

#: Normalization {2 (2 pi)^3}^(-1/2) of the displayed plane-wave column.
_PLANE_WAVE_NORM = (2.0 * (2.0 * math.pi) ** 3) ** -0.5

#: Catalog order fixed by the assembly module's documentation: (label, lam, dotted).
CATALOG_ORDER = (("psi_+1", 1, False), ("psi_0", 0, False),
                 ("psi_-1", -1, False), ("psi_dot_+1", 1, True),
                 ("psi_dot_0", 0, True), ("psi_dot_-1", -1, True))
PHYSICAL_LABELS = frozenset({"psi_+1", "psi_-1"})


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def spin_x_generator(l: float) -> np.ndarray:
    """Real symmetric J_x of weight l in ascending-m order."""
    ms = np.arange(-l, l + 0.5)
    off = 0.5 * np.sqrt((l - ms[:-1]) * (l + ms[:-1] + 1))
    return np.diag(off, -1) + np.diag(off, 1)


def reference_z(l: float, m: float, n: float, theta, tau) -> np.ndarray:
    """Z^l_mn at each (theta, tau) from Z^l = V diag(exp(i(theta - i tau) w)) V^T."""
    w, v = np.linalg.eigh(spin_x_generator(l))
    row, col = int(round(m + l)), int(round(n + l))
    angle = np.asarray(theta, dtype=float) - 1j * np.asarray(tau, dtype=float)
    phases = np.exp(1j * angle[..., None] * w)
    return phases @ (v[row] * v[col])


def reference_polarizations(k: np.ndarray) -> dict[int, np.ndarray]:
    """Closed-form unit polarization vectors eps_lam for each row of k."""
    k1, k2, k3 = k[:, 0], k[:, 1], k[:, 2]
    norm = np.linalg.norm(k, axis=1)
    perp_sq = k1 * k1 + k2 * k2
    denominator = np.sqrt(2.0 * norm * norm * perp_sq)[:, None]
    plus = np.stack([-k1 * k3 + 1j * k2 * norm, -k2 * k3 - 1j * k1 * norm,
                     perp_sq + 0j], axis=1) / denominator
    minus = np.stack([-k1 * k3 - 1j * k2 * norm, -k2 * k3 + 1j * k1 * norm,
                      perp_sq + 0j], axis=1) / denominator
    return {1: plus, 0: k / norm[:, None] + 0j, -1: minus}


def reference_radial(lam: int, constant, r, l: int = 1):
    """Corrected radial function f_{1,lam}(r) with integration constant C."""
    if lam == 0:
        return math.sqrt(2.0 * l * (l + 1)) * r
    return constant * np.sqrt(r) + 2.0 * l * (l + 1) * r


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliOutput:
    """What one in-process CLI invocation left behind."""

    exit_code: int
    stdout: bytes
    exception: str | None


class Workload:
    """One benchmark workload; subclasses define the op and its checks."""

    name = ""
    #: Whether every op of one run must produce identical output.
    requires_identical = False
    #: Whether this is the reduced-size form used by the self-test.
    small = False

    def inputs(self, seed: int):
        raise NotImplementedError

    def params(self, inputs) -> dict:
        raise NotImplementedError

    def items(self, inputs) -> int:
        raise NotImplementedError

    def op(self, inputs):
        raise NotImplementedError

    def check(self, out, inputs) -> list[str]:
        raise NotImplementedError

    def same(self, out, other) -> bool:
        return out == other

    def _rng(self, seed: int, offset: int) -> np.random.Generator:
        return np.random.default_rng([int(seed), offset])


class CliWorkload(Workload):
    """A workload whose op is one CLI command, ``inputs.args``."""

    def __init__(self) -> None:
        # One capture stream for every op: click caches a wrapper per stdout
        # object and that cache keeps each object alive, so a fresh stream
        # per op would grow the process by one output per op.
        self._stdout = io.StringIO()

    def op(self, inputs) -> CliOutput:
        """Run the click entry point in-process with stdout captured.

        A usage error becomes its exit code; any other exception propagates.
        """
        self._stdout.seek(0)
        self._stdout.truncate()
        try:
            with contextlib.redirect_stdout(self._stdout):
                code = cli.main.main(list(inputs.args), prog_name="poincarewaves",
                                     standalone_mode=False)
        except click.ClickException as error:
            return CliOutput(error.exit_code, self._stdout.getvalue().encode(),
                             repr(error))
        return CliOutput(code or 0, self._stdout.getvalue().encode(), None)

    @staticmethod
    def _cli_problems(out: CliOutput) -> list[str]:
        problems = []
        if out.exception is not None:
            problems.append(f"exception: {out.exception}")
        if out.exit_code != 0:
            problems.append(f"exit code {out.exit_code}")
        return problems


@dataclass(frozen=True)
class VerifyInputs:
    args: tuple[str, ...]
    seed: int


class VerifyWorkload(CliWorkload):
    """``verify all`` with JSON output at one (lmax, grid density)."""

    requires_identical = True

    def __init__(self, name: str, lmax: int, grid_density: int,
                 records: int, flagged: int):
        super().__init__()
        self.name = name
        self.lmax, self.grid_density = lmax, grid_density
        self.records, self.flagged = records, flagged

    def inputs(self, seed: int) -> VerifyInputs:
        report_seed = int(self._rng(seed, 1).integers(0, 2**31 - 1))
        args = ("verify", "all", "--lmax", str(self.lmax),
                "--grid-density", str(self.grid_density),
                "--seed", str(report_seed), "--format", "json")
        return VerifyInputs(args, report_seed)

    def params(self, inputs: VerifyInputs) -> dict:
        return {"args": list(inputs.args), "records": self.records,
                "flagged": self.flagged}

    def items(self, inputs: VerifyInputs) -> int:
        return self.records

    def check(self, out: CliOutput, inputs: VerifyInputs) -> list[str]:
        problems = self._cli_problems(out)
        try:
            report = json.loads(out.stdout)
            records = report["records"]
            config = report["config"]
        except (ValueError, KeyError, TypeError) as error:
            return problems + [f"report does not parse: {error!r}"]
        if len(records) != self.records:
            problems.append(f"{len(records)} records, expected {self.records}")
        flagged = sum(1 for r in records if r.get("flagged") is True)
        if flagged != self.flagged:
            problems.append(f"{flagged} flagged records, expected {self.flagged}")
        failing = [r.get("name") for r in records
                   if r.get("flagged") is not True and r.get("passed") is not True]
        if failing:
            problems.append(f"{len(failing)} non-flagged records fail: "
                            f"{sorted(set(map(str, failing)))[:5]}")
        expected = {"lmax": self.lmax, "grid_density": self.grid_density,
                    "seed": inputs.seed}
        actual = {key: config.get(key) for key in expected}
        if actual != expected:
            problems.append(f"report config {actual}, expected {expected}")
        return problems


@dataclass(frozen=True)
class TableInputs:
    args: tuple[str, ...]
    l: float
    m: int
    n: int
    theta: tuple[float, float]
    tau: tuple[float, float]
    points: int


class TableWorkload(CliWorkload):
    """``table z`` with CSV output on a points x points (theta, tau) grid."""

    name = "table-z"

    def __init__(self, l: int = 4, points: int = 200):
        super().__init__()
        self.l, self.points = l, points

    def inputs(self, seed: int) -> TableInputs:
        rng = self._rng(seed, 2)
        # z_sum's cost grows with the coefficient terms of m and of n (9, 16,
        # 21, 24, 25 terms for |m| = 4 ... 0 at l = 4), so the seed picks signs
        # and order of {|m|, |n|} = {1, 3}: eight pairs of equal cost.
        m, n = rng.permutation([1, 3]) * rng.choice([-1, 1], size=2)
        m, n = int(m), int(n)
        theta = (float(rng.uniform(0.0, 0.3)),
                 float(rng.uniform(math.pi - 0.3, math.pi)))
        tau = (float(rng.uniform(-2.0, -0.5)), float(rng.uniform(0.5, 2.0)))
        count = self.points
        args = ("table", "z", "--l", str(self.l), "--m", str(m), "--n", str(n),
                "--theta", f"{theta[0]!r}:{theta[1]!r}:{count}",
                "--tau", f"{tau[0]!r}:{tau[1]!r}:{count}", "--format", "csv")
        return TableInputs(args, float(self.l), m, n, theta, tau, count)

    def params(self, inputs: TableInputs) -> dict:
        return {"args": list(inputs.args)}

    def items(self, inputs: TableInputs) -> int:
        return inputs.points ** 2

    def check(self, out: CliOutput, inputs: TableInputs) -> list[str]:
        problems = self._cli_problems(out)
        try:
            lines = out.stdout.decode("ascii").split("\r\n")
        except UnicodeDecodeError as error:
            return problems + [f"output is not ASCII: {error!r}"]
        if lines[-1] != "":
            problems.append("output does not end with CRLF")
        lines = lines[:-1]
        if not lines or lines[0] != "theta,tau,value_re,value_im":
            return problems + [f"header {lines[:1]!r}"]
        count = inputs.points ** 2
        if len(lines) - 1 != count:
            return problems + [f"{len(lines) - 1} rows, expected {count}"]
        try:
            table = np.array([row.split(",") for row in lines[1:]], dtype=float)
        except ValueError as error:
            return problems + [f"rows do not parse: {error!r}"]
        if table.shape != (count, 4):
            return problems + [f"table shape {table.shape}"]
        thetas = np.linspace(*inputs.theta, inputs.points)
        taus = np.linspace(*inputs.tau, inputs.points)
        grid = np.column_stack([np.repeat(thetas, inputs.points),
                                np.tile(taus, inputs.points)])
        if not np.allclose(table[:, :2], grid, rtol=0.0, atol=1e-12):
            problems.append("grid coordinates differ from the requested grid")
        theta, tau = table[:, 0], table[:, 1]
        reference = reference_z(inputs.l, inputs.m, inputs.n, theta, tau)
        values = table[:, 2] + 1j * table[:, 3]
        # ||Z^l(theta, tau)||_2 = exp(l |tau|) sets the scale of each element.
        error = np.abs(values - reference) / np.exp(inputs.l * np.abs(tau))
        worst = int(np.argmax(error))
        if not error[worst] <= VALUE_BOUND:
            problems.append(
                f"{int(np.sum(~(error <= VALUE_BOUND)))} values off the "
                f"reference; worst relative error {error[worst]:.3e} at "
                f"theta={theta[worst]!r}, tau={tau[worst]!r}")
        return problems


@dataclass(frozen=True)
class BatchInputs:
    kvectors: list            # [(k1, k2, k3)] per wavevector
    constants: list           # [(C, Cdot)] per wavevector
    points: list              # [[(x, t, r, angle6)] * points] per wavevector


@dataclass(frozen=True)
class BatchOutput:
    values: np.ndarray        # (kvectors, 6 members, points, 6 components)
    labels: tuple             # catalog labels per wavevector
    physical: tuple           # physical_filter labels per wavevector


class FieldBatchWorkload(Workload):
    """Assembled wavefunction values for a batch of seeded wavevectors."""

    name = "field-batch"

    def __init__(self, kvectors: int = 300, points: int = 10):
        self.kvectors, self.points = kvectors, points

    def inputs(self, seed: int) -> BatchInputs:
        rng = self._rng(seed, 3)
        K, P = self.kvectors, self.points
        direction = rng.normal(size=(K, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        k = direction * rng.uniform(0.5, 3.0, size=(K, 1))
        constants = rng.normal(size=(K, 4))
        x = rng.normal(size=(K, P, 3))
        t = rng.normal(size=(K, P))
        r = rng.uniform(0.1, 3.0, size=(K, P)) * np.exp(
            1j * rng.uniform(-0.9 * math.pi, 0.9 * math.pi, size=(K, P)))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=(K, P))
        epsilon = 0.5 * rng.normal(size=(K, P))
        theta = rng.uniform(0.0, math.pi, size=(K, P))
        tau = 0.5 * rng.normal(size=(K, P))
        return BatchInputs(
            kvectors=[tuple(map(float, row)) for row in k],
            constants=[(complex(a, b), complex(c, d)) for a, b, c, d in constants],
            points=[[(tuple(map(float, x[i, j])), float(t[i, j]), complex(r[i, j]),
                      (float(phi[i, j]), float(epsilon[i, j]),
                       float(theta[i, j]), float(tau[i, j]), 0.0, 0.0))
                     for j in range(P)] for i in range(K)])

    def params(self, inputs: BatchInputs) -> dict:
        return {"kvectors": self.kvectors, "points_per_kvector": self.points,
                "l": 1, "members": len(CATALOG_ORDER)}

    def items(self, inputs: BatchInputs) -> int:
        return self.kvectors * len(CATALOG_ORDER) * self.points

    def op(self, inputs: BatchInputs) -> BatchOutput:
        values = np.empty((self.kvectors, len(CATALOG_ORDER), self.points, 6),
                          dtype=complex)
        labels, physical = [], []
        for i, (k, (constant, constant_dot), points) in enumerate(
                zip(inputs.kvectors, inputs.constants, inputs.points)):
            radial = lorentz_sector.RadialSolution(1, C=constant, Cdot=constant_dot)
            catalog = poincare_assembly.build_catalog(k, 1, radial)
            physical.append(tuple(
                m.label for m in poincare_assembly.physical_filter(catalog)))
            labels.append(tuple(m.label for m in catalog.members))
            angles = [group_kinematics.make_angles(*angle6)
                      for _, _, _, angle6 in points]
            for a, member in enumerate(catalog.members):
                for j, (x, t, r, _) in enumerate(points):
                    values[i, a, j] = member.wave.value(x, t, r, angles[j])
        return BatchOutput(values, tuple(labels), tuple(physical))

    def same(self, out: BatchOutput, other: BatchOutput) -> bool:
        return (out.labels == other.labels and out.physical == other.physical
                and np.array_equal(out.values, other.values))

    def check(self, out: BatchOutput, inputs: BatchInputs) -> list[str]:
        problems = []
        order = tuple(label for label, _, _ in CATALOG_ORDER)
        if any(labels != order for labels in out.labels):
            problems.append("catalog members are not in the documented order")
        if any(len(p) != 2 or set(p) != PHYSICAL_LABELS for p in out.physical):
            problems.append("physical subset is not exactly {psi_+1, psi_-1}")
        k = np.array(inputs.kvectors)
        x = np.array([[p[0] for p in row] for row in inputs.points])
        t = np.array([[p[1] for p in row] for row in inputs.points])
        r = np.array([[p[2] for p in row] for row in inputs.points])
        angle6 = np.array([[p[3] for p in row] for row in inputs.points])
        phi, epsilon, theta, tau = (angle6[..., i] for i in range(4))
        constants = np.array(inputs.constants)
        polarizations = reference_polarizations(k)
        omega = np.linalg.norm(k, axis=1)[:, None]
        k_dot_x = np.einsum("kc,kpc->kp", k, x)
        worst_shape = worst_factor = 0.0
        for a, (label, lam, dotted) in enumerate(CATALOG_ORDER):
            value = out.values[:, a]
            eps = polarizations[lam]
            phase = np.exp(1j * (k_dot_x - (omega * t if lam else 0.0)))
            column = (_PLANE_WAVE_NORM * np.concatenate([eps, eps], axis=1)
                      [:, None, :] * phase[..., None])
            radius = r
            weight = np.exp(-lam * (epsilon + 1j * phi))
            angular = weight * reference_z(1, lam, 0, theta, tau)
            if dotted:
                column, radius, angular = column.conj(), r.conj(), angular.conj()
            radial = reference_radial(lam, constants[:, 1 if dotted else 0, None],
                                      radius)
            expected = radial * angular
            factor = (np.sum(column.conj() * value, axis=-1)
                      / np.sum(np.abs(column) ** 2, axis=-1))
            shape = (np.linalg.norm(value - factor[..., None] * column, axis=-1)
                     / np.maximum(np.linalg.norm(value, axis=-1), 1e-300))
            scale = np.maximum(1.0, np.abs(radial) * np.abs(weight)
                               * np.exp(np.abs(tau)))
            mismatch = np.abs(factor - expected) / scale
            worst_shape = max(worst_shape, float(np.nan_to_num(shape, nan=np.inf).max()))
            worst_factor = max(worst_factor,
                               float(np.nan_to_num(mismatch, nan=np.inf).max()))
        if not worst_shape <= VALUE_BOUND:
            problems.append(f"values are not a multiple of the translation column "
                            f"(worst relative residual {worst_shape:.3e})")
        if not worst_factor <= VALUE_BOUND:
            problems.append(f"boost-rotation factors differ from the reference "
                            f"(worst relative error {worst_factor:.3e})")
        return problems


def make_workloads(small: bool = False) -> dict[str, Workload]:
    """The four benchmark workloads, or reduced-size forms for the self-test."""
    if small:
        workloads = [VerifyWorkload("verify-default", 1, 2, 731, 4),
                     VerifyWorkload("verify-lmax6", 2, 2, 841, 8),
                     TableWorkload(points=20),
                     FieldBatchWorkload(kvectors=5, points=2)]
    else:
        workloads = [VerifyWorkload("verify-default", 3, 5, 1039, 12),
                     VerifyWorkload("verify-lmax6", 6, 4, 2409, 12),
                     TableWorkload(),
                     FieldBatchWorkload()]
    for workload in workloads:
        workload.small = small
    return {workload.name: workload for workload in workloads}
