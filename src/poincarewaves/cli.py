"""Command-line harness: point evaluation, verification suites, value tables.

Subcommands
    eval FUNCTION    evaluate one special function / wave at a point
    verify SUITE     run a verification suite and print its report
    table FUNCTION   tabulate a function over an angle grid

Output contract
    * reports and tables go to stdout; diagnostics go to stderr;
    * complex numbers print as ``re+imi`` with 17 significant digits in the
      text format and as ``{"re": ..., "im": ...}`` objects in JSON;
    * CSV output is RFC-4180 (CRLF line endings, header row mandatory) with
      complex quantities split into ``_re``/``_im`` columns;
    * a fixed --seed makes ``verify`` output byte-identical between runs on
      one platform (across platforms libm ``pow``, which is not correctly
      rounded everywhere, can move the last bits of the matrix elements);
    * exit status: 0 success, 1 verification failure (non-flagged), 2 usage
      or domain error (a one-line ``Error:`` message on stderr).
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import click
import numpy as np

from .group_kinematics import ComplexEulerAngles, make_angles
from .lorentz_harmonics import (
    HarmonicIndex,
    associated_m,
    generalized_m,
    z_sum,
    z_sum_grid,
    zonal_z,
)
from .lorentz_sector import VARIANTS, RadialSolution
from .photon_plane_waves import WaveVector, plane_wave, polarization_vectors
from .poincare_assembly import PoincareWaveFunction
from .suites import (SUITE_NAMES, SuiteConfig, _report_json, build_report,
                     report_exit_code)

_FORMATS = ("text", "json", "csv")
_EVAL_FUNCTIONS = ("z", "m", "associated", "zonal", "polarization",
                   "planewave", "radial", "assemble")
_TABLE_FUNCTIONS = ("z", "zonal")


class _DomainError(click.ClickException):
    """An input outside a function's domain: one-line message, exit status 2."""

    exit_code = 2


def format_complex(value: complex) -> str:
    """Fixed text rendering of a complex value: re+imi, 17 significant digits."""
    z = complex(value)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _complex_json(value: complex) -> dict:
    z = complex(value)
    return {"re": z.real, "im": z.imag}


def _parse_number(token: str, name: str) -> float:
    """Parse a real number, allowing pi expressions: pi, 2pi, pi/2, -3pi/4."""
    text = token.strip().lower().replace(" ", "")
    try:
        return float(text)
    except ValueError:
        pass
    sign = 1.0
    if text.startswith("+"):
        text = text[1:]
    if text.startswith("-"):
        sign, text = -1.0, text[1:]
    head, pi_token, tail = text.partition("pi")
    if not pi_token:
        raise click.UsageError(f"cannot parse --{name} value {token!r}")
    try:
        coefficient = float(head) if head else 1.0
        if not tail:
            divisor = 1.0
        elif tail.startswith("/"):
            divisor = float(tail[1:])
        else:
            raise ValueError(tail)
        if divisor == 0.0:
            raise ValueError(tail)
    except ValueError:
        raise click.UsageError(
            f"cannot parse --{name} value {token!r}") from None
    return sign * coefficient * math.pi / divisor


def _parse_complex(token: str, name: str) -> complex:
    """Parse a complex number: '2', '1+2j', '1+2i', or 're,im'."""
    text = token.strip()
    if "," in text:
        parts = text.split(",")
        if len(parts) != 2:
            raise click.UsageError(
                f"--{name} expects 're,im' or a complex literal, got {token!r}")
        try:
            return complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise click.UsageError(
                f"cannot parse --{name} value {token!r}") from None
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise click.UsageError(f"cannot parse --{name} value {token!r}") from None


def _parse_vector3(token: str, name: str) -> tuple[float, float, float]:
    parts = token.split(",")
    if len(parts) != 3:
        raise click.UsageError(
            f"--{name} expects three comma-separated components, got {token!r}")
    return tuple(_parse_number(part, name) for part in parts)


def _finite(name: str, value):
    """value itself when every component is finite; a domain error otherwise."""
    parts = value if isinstance(value, tuple) else (value,)
    if not all(cmath.isfinite(part) for part in parts):
        raise _DomainError(f"--{name} must be finite, got {value!r}")
    return value


def _parse_angles(token: str) -> ComplexEulerAngles:
    parts = token.split(",")
    if len(parts) != 6:
        raise click.UsageError(
            "--angles expects 'phi,epsilon,theta,tau,chi,vareps'"
            f" (six components), got {token!r}")
    values = [_parse_number(part, "angles") for part in parts]
    try:
        return make_angles(*values)
    except ValueError as error:
        raise _DomainError(f"invalid --angles: {error}") from None


def _parse_grid(spec: str, name: str) -> list[float]:
    """Parse a grid spec: a single value or start:stop:count (count >= 1)."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [_parse_number(parts[0], name)]
    if len(parts) != 3:
        raise click.UsageError(
            f"--{name} grid must be a value or start:stop:count, got {spec!r}")
    start = _parse_number(parts[0], name)
    stop = _parse_number(parts[1], name)
    try:
        count = int(parts[2])
    except ValueError:
        raise click.UsageError(
            f"--{name} grid count must be an integer, got {parts[2]!r}") from None
    if count < 1:
        raise click.UsageError(
            f"--{name} grid is empty: count must be >= 1, got {count}")
    if count == 1:
        return [start]
    return [float(v) for v in np.linspace(start, stop, count)]


def _require(function: str, **named):
    missing = [f"--{name.replace('_', '-')}"
               for name, value in named.items() if value is None]
    if missing:
        raise click.UsageError(
            f"{function} requires {', '.join(missing)}")


def _parse_tolerances(entries: tuple[str, ...]) -> dict[str, float]:
    overrides = {}
    for entry in entries:
        name, separator, text = entry.partition("=")
        if not separator or not name:
            raise click.UsageError(
                f"--tol expects NAME=VALUE, got {entry!r}")
        try:
            overrides[name] = float(text)
        except ValueError:
            raise click.UsageError(
                f"--tol {name} expects a number, got {text!r}") from None
    return overrides


def _echo_csv(rows: list[list]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerows(rows)
    click.echo(buffer.getvalue(), nl=False)


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _mapping_text(mapping: dict) -> str:
    return ";".join(f"{key}={_scalar_text(value)}"
                    for key, value in mapping.items())


@click.group()
def main() -> None:
    """Special functions, photon plane waves, and their verification suites."""


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _format_option(default: str):
    return click.option(
        "--format", "fmt", type=click.Choice(_FORMATS), default=default,
        show_default=True, help="Output rendering.")


@main.command("eval")
@click.argument("function", type=click.Choice(_EVAL_FUNCTIONS))
@click.option("--l", "l", type=float, help="Representation weight l.")
@click.option("--m", "m", type=float, help="Row projection m.")
@click.option("--n", "n", type=float, help="Column projection n.")
@click.option("--dotted", is_flag=True, help="Use the conjugate series.")
@click.option("--theta", help="Polar rotation angle (pi expressions allowed).")
@click.option("--tau", help="Rapidity-like boost angle.")
@click.option("--phi", help="Azimuthal rotation angle.")
@click.option("--epsilon", help="Boost partner of phi.")
@click.option("--chi", help="Second azimuthal rotation angle.")
@click.option("--vareps", help="Boost partner of chi.")
@click.option("--k", "kvec", help="Wavevector 'k1,k2,k3'.")
@click.option("--lam", type=click.IntRange(-1, 1), help="Helicity label.")
@click.option("--x", "xvec", help="Spatial point 'x1,x2,x3'.")
@click.option("--t", "t", type=float, help="Time coordinate.")
@click.option("--r", "rvalue", help="Complex radius 're,im' or literal.")
@click.option("--C", "cconst", help="Integration constant of the + slot.")
@click.option("--Cdot", "cdot", help="Integration constant of the dotted slot.")
@click.option("--variant", type=click.Choice(VARIANTS),
              default="corrected", show_default=True,
              help="Radial linear-coefficient variant.")
@click.option("--angles", help="'phi,epsilon,theta,tau,chi,vareps'.")
@click.option("--c", "light_speed", type=float, default=1.0,
              show_default=True, help="Propagation speed constant.")
@_format_option("text")
def cmd_eval(function, l, m, n, dotted, theta, tau, phi, epsilon, chi, vareps,
             kvec, lam, xvec, t, rvalue, cconst, cdot, variant, angles,
             light_speed, fmt):
    """Evaluate FUNCTION at one parameter point."""
    try:
        # Overflow surfaces as a non-finite value or a ValueError, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            values = _evaluate(function, l, m, n, dotted, theta, tau, phi,
                               epsilon, chi, vareps, kvec, lam, xvec, t,
                               rvalue, cconst, cdot, variant, angles,
                               light_speed)
    except ValueError as error:
        raise _DomainError(str(error)) from None
    for name, value in values.items():
        parts = value if isinstance(value, list) else [value]
        if not all(cmath.isfinite(v) for v in parts):
            raise _DomainError(f"{name} is not finite at this point: the "
                               "value leaves the float range")
    _render_eval(function, values, fmt)


def _evaluate(function, l, m, n, dotted, theta, tau, phi, epsilon, chi,
              vareps, kvec, lam, xvec, t, rvalue, cconst, cdot, variant,
              angles, light_speed) -> dict:
    if function == "z":
        _require(function, l=l, m=m, n=n, theta=theta, tau=tau)
        idx = HarmonicIndex(l, m, n, dotted=dotted)
        return {"z": z_sum(idx, _parse_number(theta, "theta"),
                           _parse_number(tau, "tau"))}
    if function == "m":
        _require(function, l=l, m=m, n=n, phi=phi, epsilon=epsilon,
                 theta=theta, tau=tau, chi=chi, vareps=vareps)
        euler = make_angles(
            _parse_number(phi, "phi"), _parse_number(epsilon, "epsilon"),
            _parse_number(theta, "theta"), _parse_number(tau, "tau"),
            _parse_number(chi, "chi"), _parse_number(vareps, "vareps"))
        idx = HarmonicIndex(l, m, n, dotted=dotted)
        return {"m": generalized_m(idx, euler)}
    if function == "associated":
        _require(function, l=l, m=m, phi=phi, epsilon=epsilon, theta=theta,
                 tau=tau)
        euler = make_angles(
            _parse_number(phi, "phi"), _parse_number(epsilon, "epsilon"),
            _parse_number(theta, "theta"), _parse_number(tau, "tau"),
            0.0, 0.0)
        return {"associated": associated_m(l, m, euler)}
    if function == "zonal":
        _require(function, l=l, theta=theta, tau=tau)
        return {"zonal": zonal_z(l, _parse_number(theta, "theta"),
                                 _parse_number(tau, "tau"))}
    if function == "polarization":
        _require(function, k=kvec)
        triple = polarization_vectors(_parse_vector3(kvec, "k"))
        return {"eps_plus": list(triple.eps_plus),
                "eps_minus": list(triple.eps_minus),
                "eps_zero": list(triple.eps_zero)}
    if function == "planewave":
        _require(function, k=kvec, lam=lam, x=xvec, t=t)
        value = plane_wave(_parse_vector3(kvec, "k"), lam,
                           _finite("x", _parse_vector3(xvec, "x")),
                           _finite("t", t), light_speed)
        return {"psi": list(value)}
    if function == "radial":
        _require(function, l=l, r=rvalue)
        radial = _radial_solution(l, cconst, cdot, variant)
        r = _finite("r", _parse_complex(rvalue, "r"))
        r_star = r.conjugate()
        return {"f_plus": radial.f_plus(r), "f_zero": radial.f_zero(r),
                "f_minus": radial.f_minus(r),
                "fdot_plus": radial.fdot_plus(r_star),
                "fdot_zero": radial.fdot_zero(r_star),
                "fdot_minus": radial.fdot_minus(r_star)}
    if function == "assemble":
        _require(function, k=kvec, lam=lam, l=l, x=xvec, t=t, r=rvalue,
                 angles=angles)
        radial = _radial_solution(l, cconst, cdot, variant)
        wave = PoincareWaveFunction(
            WaveVector(*_parse_vector3(kvec, "k")), lam, l, radial, dotted,
            light_speed)
        value = wave.value(_finite("x", _parse_vector3(xvec, "x")),
                           _finite("t", t),
                           _finite("r", _parse_complex(rvalue, "r")),
                           _parse_angles(angles))
        return {"psi": list(value)}
    raise click.UsageError(f"unknown function {function!r}")


def _radial_solution(l, cconst, cdot, variant) -> RadialSolution:
    constant = _parse_complex(cconst, "C") if cconst is not None else 0.0
    constant_dot = _parse_complex(cdot, "Cdot") if cdot is not None else 0.0
    return RadialSolution(l=l, C=constant, Cdot=constant_dot, variant=variant)


def _render_eval(function: str, values: dict, fmt: str) -> None:
    if fmt == "text":
        for name, value in values.items():
            if isinstance(value, list):
                joined = ", ".join(format_complex(v) for v in value)
                click.echo(f"{name} = ({joined})")
            else:
                click.echo(f"{name} = {format_complex(value)}")
        return
    if fmt == "json":
        rendered = {}
        for name, value in values.items():
            if isinstance(value, list):
                rendered[name] = [_complex_json(v) for v in value]
            else:
                rendered[name] = _complex_json(value)
        click.echo(json.dumps({"function": function, "values": rendered},
                              sort_keys=True, indent=2))
        return
    header, row = [], []
    for name, value in values.items():
        components = (list(enumerate(value, start=1))
                      if isinstance(value, list) else [(None, value)])
        for position, component in components:
            stem = name if position is None else f"{name}_{position}"
            z = complex(component)
            header.extend([f"{stem}_re", f"{stem}_im"])
            row.extend([repr(z.real), repr(z.imag)])
    _echo_csv([header, row])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@main.command("verify")
@click.argument("suite", type=click.Choice(("all",) + SUITE_NAMES))
@click.option("--lmax", type=click.IntRange(0, 6), default=3,
              show_default=True, help="Largest representation weight.")
@click.option("--grid-density", type=click.IntRange(min=2), default=5,
              show_default=True, help="Points per angle-grid axis.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True, help="Root seed for randomized sampling.")
@click.option("--tol", "tolerances", multiple=True, metavar="NAME=VALUE",
              help="Override one check tolerance (repeatable).")
@click.option("--c", "light_speed", type=float, default=1.0,
              show_default=True, help="Propagation speed constant.")
@click.option("--variant", type=click.Choice(VARIANTS),
              default="corrected", show_default=True,
              help="Radial linear-coefficient variant.")
@click.option("--corrected-lambda", type=click.Choice(("true", "false")),
              default="true", show_default=True,
              help="Use the repaired spin-block matrices.")
@_format_option("json")
@click.pass_context
def cmd_verify(ctx, suite, lmax, grid_density, seed, tolerances, light_speed,
               variant, corrected_lambda, fmt):
    """Run verification SUITE and print its report (exit 1 on hard failure)."""
    try:
        config = SuiteConfig(
            lmax=lmax, grid_density=grid_density,
            tolerances=_parse_tolerances(tolerances), seed=seed,
            c=light_speed, variant=variant,
            corrected_lambda=(corrected_lambda == "true"))
        report = build_report(suite, config)
    except ValueError as error:
        raise click.UsageError(str(error)) from None
    if fmt == "json":
        click.echo(_report_json(report))
    elif fmt == "csv":
        rows = [["suite", "name", "indices", "point", "residual", "scale",
                 "tolerance", "passed", "flagged"]]
        for record in report["records"]:
            rows.append([
                record["suite"], record["name"],
                _mapping_text(record["indices"]),
                _mapping_text(record["point"]),
                repr(record["residual"]), repr(record["scale"]),
                repr(record["tolerance"]),
                _scalar_text(record["passed"]),
                _scalar_text(record["flagged"]),
            ])
        _echo_csv(rows)
    else:
        for record in report["records"]:
            status = "PASS" if record["passed"] else "FAIL"
            flag = " [flagged]" if record["flagged"] else ""
            click.echo(
                f"{status} {record['suite']}:{record['name']}"
                f" {_mapping_text(record['indices'])}"
                f" {_mapping_text(record['point'])}"
                f" residual={record['residual']:.3e}"
                f" scale={record['scale']:.3g}"
                f" tol={record['tolerance']:g}{flag}")
        summary = report["summary"]
        click.echo(f"summary: {summary['passed']} passed,"
                   f" {summary['failed']} failed,"
                   f" {summary['flagged']} flagged")
    ctx.exit(report_exit_code(report))


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

@main.command("table")
@click.argument("function", type=click.Choice(_TABLE_FUNCTIONS))
@click.option("--l", "l", type=float, required=True,
              help="Representation weight l.")
@click.option("--m", "m", type=float, help="Row projection m.")
@click.option("--n", "n", type=float, help="Column projection n.")
@click.option("--dotted", is_flag=True, help="Use the conjugate series.")
@click.option("--theta", required=True,
              help="Grid spec: value or start:stop:count (pi allowed).")
@click.option("--tau", required=True,
              help="Grid spec: value or start:stop:count.")
@_format_option("csv")
def cmd_table(function, l, m, n, dotted, theta, tau, fmt):
    """Tabulate FUNCTION over the (theta, tau) grid, row-major in theta."""
    thetas = _parse_grid(theta, "theta")
    taus = _parse_grid(tau, "tau")
    try:
        if function == "z":
            _require(function, m=m, n=n)
            idx = HarmonicIndex(l, m, n, dotted=dotted)
        else:
            idx = HarmonicIndex(l, 0.0, 0.0)
        grid = z_sum_grid([idx], thetas, taus)[0]
    except ValueError as error:
        raise _DomainError(str(error)) from None
    # Text and CSV format each grid coordinate once and echo the table once.
    if fmt == "json":
        payload = {"function": function,
                   "rows": [{"theta": th, "tau": ta,
                             "value": _complex_json(v)}
                            for th, row in zip(thetas, grid)
                            for ta, v in zip(taus, row)]}
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    elif fmt == "text":
        tau_cells = [f"{ta:>24.17g}" for ta in taus]
        lines = [f"{'theta':>24s} {'tau':>24s} value\n"]
        for th, row in zip(thetas, grid):
            theta_cell = f"{th:>24.17g}"
            lines += [f"{theta_cell} {ta} {format_complex(v)}\n"
                      for ta, v in zip(tau_cells, row)]
        click.echo("".join(lines), nl=False)
    else:
        # Every cell is a float repr or a header name, so none needs RFC-4180
        # quoting and these lines are exactly what csv.writer would write.
        tau_cells = [repr(ta) for ta in taus]
        lines = ["theta,tau,value_re,value_im\r\n"]
        for th, row in zip(thetas, grid):
            theta_cell = repr(th)
            lines += [f"{theta_cell},{ta},{v.real!r},{v.imag!r}\r\n"
                      for ta, v in zip(tau_cells, row)]
        click.echo("".join(lines), nl=False)


if __name__ == "__main__":
    main()
