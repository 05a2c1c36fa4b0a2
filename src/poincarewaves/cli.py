r"""Command-line harness: point evaluation, verification suites, value tables.

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

REPORT BYTES
    ``verify`` renders the report that ``suites.build_report`` returns, whole
    before the first byte is written, so a domain error prints nothing.
    ``_report_blocks(report, entries, fmt)`` then writes it a block of
    ``_REPORT_BLOCK`` records at a time through ``_pieces``, the one writer
    of reports and tables: the head comes with the first block and the tail
    with the last, so an output of one block is written once, and the bytes
    do not depend on the block size.  CSV is exactly what
    ``csv.writer`` writes, and text is one line per record and a summary.
    ``--format json`` is exactly ``json.dumps(report, sort_keys=True,
    indent=2)``.  The Z grid records share one indices map per index and one
    point map per grid point, and the sort in ``build_report`` encodes each
    distinct map object once: ``entries`` are those ``suites._json_entries``,
    handed out in record order, and the text lays out each distinct entry
    once.  One more call of the same encoder (``_json_texts``) writes each
    distinct word (name, suite, passed, flagged) and each distinct number
    (residual, scale, tolerance) of the report once, the items split by a
    raw "\0" (JSON escapes it inside strings), and each record is one
    f-string over those texts.  The memo never merges values that compare
    equal but print apart (0.0 and -0.0, True and 1).  The indent encoder
    runs only on the config and summary.
    ``tests/test_suites.py::TestReportJson`` pins the equality.

TABLE BYTES
    ``table`` evaluates its whole grid as one ``z_sum_grid`` array first,
    so an out-of-range point prints nothing, then writes the table a block
    of ``_TABLE_BLOCK`` points at a time, flat in row-major order.  Each
    block formats the thetas it spans, and the taus it spans unless the
    tau axis fits in one block, which is then formatted once; each block
    is one comprehension and one write through ``_pieces``, and a table of
    one block is written once.  CSV is exactly what ``csv.writer`` writes,
    text is one formatted line per point, and JSON is exactly
    ``json.dumps({"function": ..., "rows": [...]}, sort_keys=True,
    indent=2)``: the axes and values are finite, so each number is written
    by its ``repr``, which is its JSON text, as in the CSV, and each row is
    one f-string; the table does not use the report's ``_json_texts``.  The
    bytes do not depend on the block size.
    ``tests/test_cli.py::TestTable`` pins them.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import click
import numpy as np

from .group_kinematics import ComplexEulerAngles, _finite, make_angles
from .lorentz_harmonics import (
    _MAX_WEIGHT,
    HarmonicIndex,
    associated_m,
    generalized_m,
    z_sum,
    z_sum_grid,
    zonal_z,
)
from .lorentz_sector import VARIANTS, RadialSolution
from .photon_plane_waves import PhotonPlaneWave, WaveVector, polarization_vectors
from .poincare_assembly import PoincareWaveFunction
from .suites import (SUITE_NAMES, SuiteConfig, _json_texts, build_report,
                     report_exit_code)

_FORMATS = ("text", "json", "csv")
_EVAL_FUNCTIONS = ("z", "m", "associated", "zonal", "polarization",
                   "planewave", "radial", "assemble")
_TABLE_FUNCTIONS = ("z", "zonal")

#: Most theta x tau points in a table: its grid of values (16 bytes a point)
#: is evaluated whole before the first byte is written.
_MAX_TABLE_POINTS = 1_000_000
#: Grid points per write of a table, about 0.3 MB of CSV.
_TABLE_BLOCK = 4096


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
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise click.UsageError(f"cannot parse --{name} value {token!r}") from None


def _parse_vector3(token: str, name: str) -> tuple[float, float, float]:
    parts = token.split(",")
    if len(parts) != 3:
        raise click.UsageError(
            f"--{name} expects three comma-separated components, got {token!r}")
    return tuple(_parse_number(part, name) for part in parts)


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


def _parse_grid(spec: str, name: str) -> tuple[float, float, int]:
    """Parse start:stop:count (count >= 1), or a value v as v:v:1."""
    parts = spec.split(":")
    if len(parts) == 1:
        parts = [spec, spec, "1"]
    if len(parts) != 3:
        raise click.UsageError(
            f"--{name} grid must be a value or start:stop:count, got {spec!r}")
    start = _finite(f"--{name}", _parse_number(parts[0], name))
    stop = _finite(f"--{name}", _parse_number(parts[1], name))
    try:
        count = int(parts[2])
    except ValueError:
        raise click.UsageError(
            f"--{name} grid count must be an integer, got {parts[2]!r}") from None
    if count < 1:
        raise click.UsageError(
            f"--{name} grid is empty: count must be >= 1, got {count}")
    if count > 1 and not math.isfinite(stop - start):
        raise _DomainError(f"--{name} grid {spec!r} spans more than the float "
                           "range: stop - start overflows")
    return start, stop, count


def _grid_axis(start: float, stop: float, count: int) -> list[float]:
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
        if name in overrides:
            raise click.UsageError(f"--tol {name} is given more than once")
        try:
            overrides[name] = float(text)
        except ValueError:
            raise click.UsageError(
                f"--tol {name} expects a number, got {text!r}") from None
    return overrides


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerows(rows)
    return buffer.getvalue()


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
def cmd_eval(function, fmt, **options):
    """Evaluate FUNCTION at one parameter point."""
    try:
        # Overflow surfaces as a non-finite value or a ValueError, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            values = _evaluate(function, **options)
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
        value = associated_m(l, m, euler)
        # The dotted series is the undotted value conjugated, bit for bit.
        return {"associated": value.conjugate() if dotted else value}
    if function == "zonal":
        _require(function, l=l, theta=theta, tau=tau)
        value = zonal_z(l, _parse_number(theta, "theta"),
                        _parse_number(tau, "tau"))
        return {"zonal": value.conjugate() if dotted else value}
    if function == "polarization":
        _require(function, k=kvec)
        triple = polarization_vectors(_parse_vector3(kvec, "k"))
        return {"eps_plus": list(triple.eps_plus),
                "eps_minus": list(triple.eps_minus),
                "eps_zero": list(triple.eps_zero)}
    if function == "planewave":
        _require(function, k=kvec, lam=lam, x=xvec, t=t)
        # k, x and t are checked before the wave is built, so their errors
        # come first.
        k = _parse_vector3(kvec, "k")
        x = tuple(_finite("--x", v) for v in _parse_vector3(xvec, "x"))
        t = _finite("--t", t)
        return {"psi": list(PhotonPlaneWave(k, lam, light_speed).value(x, t))}
    if function == "radial":
        _require(function, l=l, r=rvalue)
        radial = _radial_solution(l, cconst, cdot, variant)
        r = _finite("--r", _parse_complex(rvalue, "r"), complex)
        r_star = r.conjugate()
        return {"f_plus": radial.f(1, r), "f_zero": radial.f(0, r),
                "f_minus": radial.f(-1, r),
                "fdot_plus": radial.f(1, r_star, True),
                "fdot_zero": radial.f(0, r_star, True),
                "fdot_minus": radial.f(-1, r_star, True)}
    if function == "assemble":
        _require(function, k=kvec, lam=lam, l=l, x=xvec, t=t, r=rvalue,
                 angles=angles)
        radial = _radial_solution(l, cconst, cdot, variant)
        wave = PoincareWaveFunction(
            WaveVector(*_parse_vector3(kvec, "k")), lam, l, radial, dotted,
            light_speed)
        value = wave.value(
            tuple(_finite("--x", v) for v in _parse_vector3(xvec, "x")),
            _finite("--t", t),
            _finite("--r", _parse_complex(rvalue, "r"), complex),
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
    click.echo(_csv_text([header, row]), nl=False)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

#: Records per write of a verify report, about 0.2 MB of JSON at lmax 6.
_REPORT_BLOCK = 512
#: A record's words and numbers, which the report encodes by one memo each.
_RECORD_WORDS = ("flagged", "name", "passed", "suite")
_RECORD_NUMBERS = ("residual", "scale", "tolerance")
#: The types a memo may key by value: equal strings and bools print alike,
#: and so do equal floats but for the signed zeros.
_WORD_TYPES, _NUMBER_TYPES = frozenset((str, bool)), frozenset((float,))


def _json_rows(records: list, entries: list[str]):
    """rows(start, stop), the JSON text of records[start:stop] split by
    ",\n", each distinct map laid out and each distinct word and number
    encoded once per report."""
    # Records share maps, so each distinct text is laid out once (a memo by
    # text, never by value: 0.0 == -0.0, but their JSON differs).
    layouts = {text: "{\n        " + text.replace("\0", ",\n        ")
               + "\n      }" if text else "{}"
               for text in dict.fromkeys(entries)}
    words = [r[key] for r in records for key in _RECORD_WORDS]
    numbers = [r[key] for r in records for key in _RECORD_NUMBERS]
    # Records repeat their words and numbers, so each distinct one is encoded
    # once.  Values that compare equal but print apart (True and 1, 0.0 and
    # -0.0) must not share a key: strings and bools never do, and among
    # floats only the zeros do, so a zero is keyed with its sign.  A report
    # with any other type keys each value by its position.
    word_keys = (words if set(map(type, words)) <= _WORD_TYPES
                 else range(len(words)))
    number_keys = ([v if v else (v, math.copysign(1.0, v)) for v in numbers]
                   if set(map(type, numbers)) <= _NUMBER_TYPES
                   else range(len(numbers)))
    distinct_words = dict(zip(word_keys, words))
    distinct_numbers = dict(zip(number_keys, numbers))
    texts = _json_texts([*distinct_words.values(),
                         *distinct_numbers.values()])
    word_texts = dict(zip(distinct_words, texts))
    number_texts = dict(zip(distinct_numbers, texts[len(distinct_words):]))

    def rows(start: int, stop: int) -> str:
        words = list(map(word_texts.__getitem__, word_keys[4 * start:4 * stop]))
        numbers = list(map(number_texts.__getitem__,
                           number_keys[3 * start:3 * stop]))
        maps = [layouts[text] for text in entries[2 * start:2 * stop]]
        # One row per record, its keys in sorted order.
        return ",\n".join(
            f'    {{\n      "flagged": {flagged},\n      "indices": {indices},\n'
            f'      "name": {name},\n      "passed": {passed},\n'
            f'      "point": {point},\n      "residual": {residual},\n'
            f'      "scale": {scale},\n      "suite": {suite},\n'
            f'      "tolerance": {tolerance}\n    }}'
            for flagged, name, passed, suite, residual, scale, tolerance,
            indices, point in zip(words[0::4], words[1::4], words[2::4],
                                  words[3::4], numbers[0::3], numbers[1::3],
                                  numbers[2::3], maps[0::2], maps[1::2]))
    return rows


def _pieces(head: str, blocks, separator: str, tail: str):
    """head with the first block, separator and each later block, and tail
    with the last: an output of one block, or of none, is one piece."""
    blocks = iter(blocks)
    text = head + next(blocks, "")
    for block in blocks:
        yield text
        text = separator + block
    yield text + tail


def _report_blocks(report: dict, entries: list[str], fmt: str = "json"):
    """The report's text in fmt, one piece per block of _REPORT_BLOCK
    records: the head comes with the first block and the tail with the last,
    so a report of one block is one piece.

    The json text is exactly json.dumps(report, sort_keys=True, indent=2)
    and a newline.  entries are the _json_entries of every record's indices
    and point maps, in record order (two per record); the csv and text
    formats do not read them."""
    records = report["records"]
    if fmt == "json":
        def section(value) -> str:
            # JSON escapes newlines in strings, so each newline is a line break.
            return json.dumps(value, sort_keys=True,
                              indent=2).replace("\n", "\n  ")

        opening, closing = ("[\n", "\n  ]") if records else ("[", "]")
        head = (f'{{\n  "config": {section(report["config"])},\n'
                f'  "records": {opening}')
        rows, separator = _json_rows(records, entries), ",\n"
        tail = (f'{closing},\n  "suite": {json.dumps(report["suite"])},\n'
                f'  "summary": {section(report["summary"])}\n}}\n')
    elif fmt == "csv":
        head = _csv_text([["suite", "name", "indices", "point", "residual",
                           "scale", "tolerance", "passed", "flagged"]])
        separator, tail = "", ""

        def rows(start: int, stop: int) -> str:
            return _csv_text(
                [record["suite"], record["name"],
                 _mapping_text(record["indices"]),
                 _mapping_text(record["point"]),
                 repr(record["residual"]), repr(record["scale"]),
                 repr(record["tolerance"]), _scalar_text(record["passed"]),
                 _scalar_text(record["flagged"])]
                for record in records[start:stop])
    else:
        summary = report["summary"]
        head, separator = "", ""
        tail = (f"summary: {summary['passed']} passed,"
                f" {summary['failed']} failed,"
                f" {summary['flagged']} flagged\n")

        def rows(start: int, stop: int) -> str:
            return "".join(
                f"{'PASS' if record['passed'] else 'FAIL'}"
                f" {record['suite']}:{record['name']}"
                f" {_mapping_text(record['indices'])}"
                f" {_mapping_text(record['point'])}"
                f" residual={record['residual']:.3e}"
                f" scale={record['scale']:.3g}"
                f" tol={record['tolerance']:g}"
                f"{' [flagged]' if record['flagged'] else ''}\n"
                for record in records[start:stop])
    return _pieces(head, (rows(start, start + _REPORT_BLOCK)
                          for start in range(0, len(records), _REPORT_BLOCK)),
                   separator, tail)


@main.command("verify")
@click.argument("suite", type=click.Choice(("all",) + SUITE_NAMES))
@click.option("--lmax", type=int, default=3, show_default=True,
              help=f"Largest representation weight, in [0, {_MAX_WEIGHT}].")
@click.option("--grid-density", type=int, default=5,
              show_default=True, help="Points per angle-grid axis.")
@click.option("--seed", type=int, default=0,
              show_default=True, help="Root seed for randomized sampling.")
@click.option("--tol", "tolerances", multiple=True, metavar="NAME=VALUE",
              help="Override one check tolerance (each NAME at most once).")
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
    except ValueError as error:
        raise click.UsageError(str(error)) from None
    entries: list[str] = []
    try:
        report = build_report(suite, config, _entries=entries)
    except ValueError as error:
        raise _DomainError(str(error)) from None
    # The report is built whole before the first write, so a domain error
    # prints nothing.
    for piece in _report_blocks(report, entries, fmt):
        click.echo(piece, nl=False)
    ctx.exit(report_exit_code(report))


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _table_blocks(grid: np.ndarray, thetas: list, taus: list, cells):
    """Walk grid in blocks of _TABLE_BLOCK points, flat and row-major, so a
    long row is split too.  Each block is three lists with one entry per
    point: its theta cell, its tau cell and its complex value.
    cells(angles) formats a list of angles: each block formats the thetas it
    spans, and the taus it spans unless the tau axis fits in one block,
    which is then formatted once."""
    flat, width = grid.reshape(-1), len(taus)
    whole = cells(taus) if width <= _TABLE_BLOCK else None
    for start in range(0, flat.size, _TABLE_BLOCK):
        stop = min(start + _TABLE_BLOCK, flat.size)
        row, column = divmod(start, width)
        theta_cells, tau_cells = [], []
        for theta in cells(thetas[row:(stop - 1) // width + 1]):
            end = min(width, column + stop - start - len(tau_cells))
            part = (whole[column:end] if whole is not None
                    else cells(taus[column:end]))
            theta_cells += [theta] * len(part)
            tau_cells += part
            column = 0
        yield theta_cells, tau_cells, flat[start:stop].tolist()


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
    try:
        theta_spec = _parse_grid(theta, "theta")
        tau_spec = _parse_grid(tau, "tau")
        if (points := theta_spec[2] * tau_spec[2]) > _MAX_TABLE_POINTS:
            raise _DomainError(f"the theta x tau grid has {points} points; a"
                               f" table holds at most {_MAX_TABLE_POINTS}")
        thetas, taus = _grid_axis(*theta_spec), _grid_axis(*tau_spec)
        if function == "z":
            _require(function, m=m, n=n)
            idx = HarmonicIndex(l, m, n, dotted=dotted)
        else:
            idx = HarmonicIndex(l, 0.0, 0.0, dotted=dotted)
        grid = z_sum_grid([idx], thetas, taus)[0]
    except ValueError as error:
        raise _DomainError(str(error)) from None
    # Each block formats the coordinates it spans and is rendered by one
    # comprehension and written once.  Every number is finite, so its repr
    # is also its JSON text.
    cells = ((lambda angles: [f"{angle:>24.17g}" for angle in angles])
             if fmt == "text" else (lambda angles: list(map(repr, angles))))
    blocks = _table_blocks(grid, thetas, taus, cells)
    if fmt == "json":
        head = f'{{\n  "function": {json.dumps(function)},\n  "rows": [\n'
        separator, tail = ",\n", "\n  ]\n}\n"
        rendered = (",\n".join(
            f'    {{\n      "tau": {ta},\n      "theta": {th},\n'
            f'      "value": {{\n        "im": {v.imag!r},\n'
            f'        "re": {v.real!r}\n      }}\n    }}'
            for th, ta, v in zip(*block)) for block in blocks)
    elif fmt == "text":
        head, separator, tail = f"{'theta':>24s} {'tau':>24s} value\n", "", ""
        rendered = ("".join(f"{th} {ta} {format_complex(v)}\n"
                            for th, ta, v in zip(*block)) for block in blocks)
    else:
        # Every cell is a float repr or a header name, so none needs RFC-4180
        # quoting and these lines are exactly what csv.writer would write.
        head, separator, tail = "theta,tau,value_re,value_im\r\n", "", ""
        rendered = ("".join(f"{th},{ta},{v.real!r},{v.imag!r}\r\n"
                            for th, ta, v in zip(*block)) for block in blocks)
    for piece in _pieces(head, rendered, separator, tail):
        click.echo(piece, nl=False)


if __name__ == "__main__":
    main()
