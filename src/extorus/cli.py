"""Command-line front end.

One subcommand per operation family; numbers go out as JSON (default)
or CSV, complex values in the same ``a+bi`` form the parsers accept, so
every emitted value round-trips.  Exit codes: 0 success (for ``verify``,
all checks passed), 1 computation failure, 2 argument error,
3 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ._lazy import np
from .beltrami import (
    BeltramiField,
    FIELD_CATALOG,
    _require_grid_size,
    _require_unimodular,
    catalog_field,
    constant,
)
from .moduli import (
    MIN_IMAG,
    Modulus,
    _closed_forms_on_grid,
    _require_max_index,
    cylinder_modulus,
    extremal_length,
    format_complex,
    format_curve,
    hyperbolic_distance,
    kerckhoff_distance,
    levi_form,
    parse_complex,
    parse_curve,
)
from .variation import (
    _require_nonzero,
    _require_step,
    first_variation,
    identity_eq11_check,
    identity_eq15_evaluate,
    json_float,
    pair_sum_levi,
    second_variation_constant,
    solve_variation_field,
    teich_bound_check,
)
from .verify import format_table, run_suite

#: Largest ``--grid`` and ``--max-pq``.  Time and memory grow with the
#: square of ``--grid``; at its limit a run takes at most about 3.5 s and
#: 0.33 GB (``eq15``, two solves, one live at a time) on a 2-core x86-64
#: host.  ``distance`` costs the same at every ``--max-pq``.
MAX_GRID = 2048
MAX_PQ = 2000

#: Most points one ``sweep`` writes (``--re`` count times ``--im`` count).
#: As CSV, 1001 x 1001 points take about 3.4 s and 47 MB, and the cap
#: about 13 s and 96 MB, on a 2-core x86-64 host.
MAX_SWEEP_POINTS = 4_000_000

#: Points ``sweep`` evaluates, and then formats, at a time: the Python
#: floats of one block and its text, about 1 MB.  The two float64 result
#: grids (16 B per point) are the only state kept for the whole grid:
#: every value is computed and checked before the first byte is written.
_SWEEP_CHUNK = 1 << 12


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _arg_type(parse: Callable[[str], object]) -> Callable[[str], object]:
    """Turn the ``ValueError`` of ``parse`` into an argument error (exit 2)."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _number(kind: type, require: Callable, limit: int | None = None) -> Callable[[str], object]:
    """A number that passes the library's own ``require`` check and is at most ``limit``."""

    def parse(text: str):
        value = kind(text)
        require(value)
        if limit is not None and value > limit:
            raise ValueError(f"must be at most {limit}, got {value}")
        return value

    return _arg_type(parse)


_tau = _arg_type(lambda text: Modulus.from_complex(parse_complex(text)))
_curve = _arg_type(parse_curve)
_complex = _arg_type(parse_complex)
_grid = _number(int, _require_grid_size, MAX_GRID)
_max_pq = _number(int, _require_max_index, MAX_PQ)
_step = _number(float, _require_step)
_nonzero = _number(parse_complex, _require_nonzero)
_unimodular = _number(parse_complex, _require_unimodular)


def _require_non_negative(value: int) -> None:
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")


_seed = _number(int, _require_non_negative)


def _range_count(spec: tuple[float, float, float]) -> float:
    """Points in ``lo, lo + step, ...`` up to ``hi``: an integer, or ``inf`` past float range."""
    lo, hi, step = spec
    span = (hi - lo) / step + 1e-9
    return math.floor(span) + 1 if math.isfinite(span) else math.inf


def _range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step, got {text!r}")
    try:
        spec = lo, hi, step = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric lo:hi:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in spec):
        raise argparse.ArgumentTypeError(f"range needs finite lo, hi and step, got {text!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("range needs step > 0 and hi >= lo")
    count = _range_count(spec)
    if count > MAX_SWEEP_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has {count} points; a sweep writes at most {MAX_SWEEP_POINTS}"
        )
    return spec


def _im_range(text: str) -> tuple[float, float, float]:
    spec = _range(text)
    if spec[0] <= MIN_IMAG:
        raise argparse.ArgumentTypeError(
            f"imaginary range needs lo > {MIN_IMAG:g}: tau must lie in the upper half-plane"
        )
    return spec


def _range_values(spec: tuple[float, float, float]) -> np.ndarray:
    """The points of a range; ``lo + i*step`` rounds as the scalar expression does."""
    lo, _, step = spec
    return lo + np.arange(_range_count(spec)) * step


def _arg(*names: str, **kwargs) -> Callable[[argparse.ArgumentParser], None]:
    return lambda sub: sub.add_argument(*names, **kwargs)


def _field_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", type=_complex, help="constant deformation field, a+bi form")
    group.add_argument(
        "--mu-fn",
        choices=sorted(FIELD_CATALOG),
        help="named deformation field from the catalog",
    )
    sub.add_argument(
        "--grid",
        type=_grid,
        default=64,
        help=f"samples per side for grid fields, power of two in [4, {MAX_GRID}] (default 64)",
    )


_CURVE = _arg("--curve", type=_curve, required=True, help="curve class, p,q integers")
_POINT = (_arg("--tau", type=_tau, required=True, help="modulus, a+bi with b > 0"), _CURVE)
_FIELD = (*_POINT, _field_flags)
_MU = _arg("--mu", type=_complex, required=True, help="constant field, a+bi form")


def _field_from_args(args: argparse.Namespace) -> BeltramiField:
    if args.mu is not None:
        return constant(args.tau, args.mu)
    return catalog_field(args.tau, args.mu_fn, args.grid)


def _report_payload(report) -> dict:
    data = report.to_json()
    if report.rhs != 0.0:
        data["ratio"] = json_float(report.lhs / report.rhs)
    return data


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False)


def _csv_text(payload: dict) -> str:
    def cell(v) -> str:
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(payload))
    writer.writerow([cell(v) for v in payload.values()])
    return buf.getvalue()


def _emit(text: str | Iterable[str], out: str | None) -> int:
    """Write ``text`` (or its pieces in order) to ``out``, or to stdout ending in a newline."""
    pieces = [text] if isinstance(text, str) else text
    if out is None:
        last = ""
        for last in pieces:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
    except OSError as exc:
        print(f"extorus: cannot write {out}: {exc}", file=sys.stderr)
        return 3
    return 0


@dataclass(frozen=True)
class Command:
    """A subcommand: its help, its flags, the ``--format`` values it writes,
    and ``run``, which returns the one payload dict the subcommand writes
    (``sweep`` and ``verify`` write rows or a table and return an exit code).
    """

    help: str
    flags: tuple[Callable[[argparse.ArgumentParser], None], ...]
    formats: tuple[str, ...]
    run: Callable[[argparse.Namespace], dict | int]


COMMANDS: dict[str, Command] = {}


def _command(name: str, help_text: str, flags: tuple, formats: tuple[str, ...] = ("json", "csv")):
    """Add the decorated function to ``COMMANDS`` as subcommand ``name``.

    Its body names the library functions it calls, so each call goes
    through this module's global of that name at call time.
    """

    def register(run):
        COMMANDS[name] = Command(help_text, flags, formats, run)
        return run

    return register


def _point(a: argparse.Namespace, **values) -> dict:
    """The one payload head: ``tau`` and ``curve``, then ``values``."""
    return {"tau": format_complex(a.tau.value), "curve": format_curve(a.curve), **values}


@_command("ext", "extremal length and annulus modulus of a curve class", _POINT)
def _ext(a: argparse.Namespace) -> dict:
    return _point(
        a, ext=extremal_length(a.tau, a.curve), cylinder_modulus=cylinder_modulus(a.tau, a.curve)
    )


@_command("levi", "mixed second derivative of extremal length at tau", _POINT)
def _levi(a: argparse.Namespace) -> dict:
    return _point(a, levi=levi_form(a.tau, a.curve))


@_command("vary1", "first variation of extremal length along a field", _FIELD)
def _vary1(a: argparse.Namespace) -> dict:
    mu = format_complex(a.mu) if a.mu is not None else a.mu_fn
    return _point(a, mu=mu, first_variation=first_variation(a.tau, a.curve, _field_from_args(a)))


@_command("vary2", "second variation along a constant field", (*_POINT, _MU))
def _vary2(a: argparse.Namespace) -> dict:
    second = second_variation_constant(a.tau, a.curve, a.mu)
    return _point(a, mu=format_complex(a.mu), second_variation=second)


@_command("pair-sum", "second variations along mu and i*mu, summed", (
    *_POINT, _arg("--mu", type=_nonzero, required=True, help="nonzero constant field, a+bi form"),
))
def _pair_sum(a: argparse.Namespace) -> dict:
    ps = pair_sum_levi(a.tau, a.curve, a.mu)
    return _point(a, mu=format_complex(a.mu), pair_sum=ps, positive=ps > 0.0)


@_command("solve-field", "derivative of the harmonic map along a field", _FIELD)
def _solve_field(a: argparse.Namespace) -> dict:
    vf = solve_variation_field(a.tau, a.curve, _field_from_args(a), a.grid)
    return _point(
        a,
        n=vf.n,
        affine_b=format_complex(vf.affine_b),
        affine_c=format_complex(vf.affine_c),
        periodic_sup=float(np.abs(vf.periodic).max()),
        gradient_sup=float(np.abs(vf.gradient).max()),
        residual=vf.residual,
        source_sup=vf.source_sup,
    )


@_command("eq11", "integration-by-parts check on the solved derivative", _FIELD)
def _eq11(a: argparse.Namespace) -> dict:
    return _report_payload(identity_eq11_check(a.tau, a.curve, _field_from_args(a), a.grid))


@_command("eq15", "paired-direction gradient identity on the solved derivative", _FIELD)
def _eq15(a: argparse.Namespace) -> dict:
    return _report_payload(identity_eq15_evaluate(a.tau, a.curve, _field_from_args(a), a.grid))


@_command("distance", "stretch-factor distance between two moduli", (
    _arg("--tau", type=_tau, required=True, help="first modulus, a+bi"),
    _arg("--tau2", type=_tau, required=True, help="second modulus, a+bi"),
    _arg("--max-pq", type=_max_pq, default=50,
         help=f"curve search bound |p|,|q| <= N, N in [1, {MAX_PQ}] (default 50)"),
))
def _distance(a: argparse.Namespace) -> dict:
    kd = kerckhoff_distance(a.tau, a.tau2, a.max_pq)
    hyp = hyperbolic_distance(a.tau, a.tau2)
    return {
        "tau": format_complex(a.tau.value),
        "tau2": format_complex(a.tau2.value),
        "max_pq": a.max_pq,
        "kerckhoff": kd.value,
        "maximizer": format_curve(kd.maximizer),
        "hyperbolic": hyp,
        "half_hyperbolic": 0.5 * hyp,
    }


@_command("bound", "second difference of extremal length along a unit stretch line", (
    *_POINT,
    _arg("--mu", type=_unimodular, required=True, help="direction with |mu| = 1"),
    _arg("--step", type=_step, default=1e-3,
         help="second-difference step, in (0, 1e-2] (default 1e-3)"),
))
def _bound(a: argparse.Namespace) -> dict:
    report = teich_bound_check(a.tau, a.curve, a.mu, a.step)
    return {**_report_payload(report), "ext": extremal_length(a.tau, a.curve)}


_SWEEP_KEYS = ("re", "im", "ext", "levi")


def _sweep_rows(res: np.ndarray, ims: np.ndarray, ext: np.ndarray, levi: np.ndarray
                ) -> Iterator[list[float]]:
    """The im-major rows ``re, im, ext, levi``, flattened, ``_SWEEP_CHUNK`` rows at a time."""
    ext, levi = ext.ravel(), levi.ravel()
    for start in range(0, ext.size, _SWEEP_CHUNK):
        at = np.arange(start, min(start + _SWEEP_CHUNK, ext.size))
        yield np.column_stack((res[at % res.size], ims[at // res.size], ext[at], levi[at])
                              ).ravel().tolist()


#: One row as ``_json_text`` indents it inside the list.
_SWEEP_JSON_ROW = "  {\n" + ",\n".join(f'    "{k}": %r' for k in _SWEEP_KEYS) + "\n  }"


def _sweep_json(chunks: Iterable[list[float]]) -> Iterator[str]:
    """``_json_text`` of the list of row dicts, one ``%`` format per chunk.

    ``%r`` is ``float.__repr__``, which is what ``json`` writes for a finite
    float; every value is finite, as ``_closed_forms_on_grid`` raises otherwise.
    """
    yield "[\n"
    sep = ""
    for flat in chunks:
        yield sep + ",\n".join([_SWEEP_JSON_ROW] * (len(flat) // 4)) % tuple(flat)
        sep = ",\n"
    yield "\n]"


def _sweep_csv(chunks: Iterable[list[float]]) -> Iterator[str]:
    """The CSV text, one ``%`` format per chunk; ``%.17g`` writes what ``f"{v:.17g}"`` does."""
    yield ",".join(_SWEEP_KEYS) + "\n"
    for flat in chunks:
        yield "%.17g,%.17g,%.17g,%.17g\n" * (len(flat) // 4) % tuple(flat)


@_command("sweep", "extremal length and Levi form over a rectangle of moduli", (
    _CURVE,
    _arg("--re", type=_range, required=True, help="real range lo:hi:step"),
    _arg("--im", type=_im_range, required=True, help="imaginary range lo:hi:step, lo > 1e-12"),
))
def _sweep(args: argparse.Namespace) -> int:
    points = _range_count(args.re) * _range_count(args.im)
    if points > MAX_SWEEP_POINTS:
        print(f"extorus sweep: error: --re and --im give {points} points; "
              f"a sweep writes at most {MAX_SWEEP_POINTS}", file=sys.stderr)
        return 2
    res = _range_values(args.re)
    ims = _range_values(args.im)
    ext, levi = _closed_forms_on_grid(args.curve, res, ims, _SWEEP_CHUNK)
    chunks = _sweep_rows(res, ims, ext, levi)
    return _emit(_sweep_json(chunks) if args.format == "json" else _sweep_csv(chunks), args.out)


@_command("verify", "run the full cross-check suite", (
    _arg("--seed", type=_seed, default=42, help="sampling seed, integer >= 0 (default 42)"),
), formats=("json",))
def _verify(args: argparse.Namespace) -> int:
    result = run_suite(args.seed)
    if args.out is not None:
        code = _emit(result.to_json_text(), args.out)
        if code != 0:
            return code
        print(format_table(result))
    elif args.format == "json":
        print(result.to_json_text())
    else:
        print(format_table(result))
    return 0 if result.all_passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="extorus", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sub = subs.add_parser(name, help=cmd.help)
        sub.add_argument("--out", help="write the result to this path instead of stdout")
        sub.add_argument(
            "--format",
            choices=cmd.formats,
            default=None,
            help="output format (default json; sweep defaults to csv, verify to a table)",
        )
        for add in cmd.flags:
            add(sub)
    return parser


def _run(args: argparse.Namespace) -> int:
    run = COMMANDS[args.command].run
    if args.command in ("sweep", "verify"):
        return run(args)
    payload = run(args)
    if any(isinstance(v, float) and not math.isfinite(v) for v in payload.values()):
        raise OverflowError("a result is outside double range")
    text = _csv_text(payload) if args.format == "csv" else _json_text(payload)
    return _emit(text, args.out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except OverflowError:
        print("extorus: input is outside double range: a result overflowed", file=sys.stderr)
        return 1
    except FloatingPointError:
        print("extorus: input is outside double range: a result underflowed", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"extorus: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"extorus: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
