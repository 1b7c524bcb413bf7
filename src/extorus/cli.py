"""Command-line front end.

One subcommand per operation family, each with one output format: the
one-row commands write JSON, ``sweep`` CSV, and ``verify`` a table (JSON
with ``--format json`` or ``--out``).  Complex values take the same
``a+bi`` form the parsers accept, so every emitted value round-trips.
Exit codes: 0 success, 1 computation failure or a report that does not
pass (``eq11``, ``eq15``, ``bound``, ``verify``), 2 argument error,
3 output I/O error.
"""

from __future__ import annotations

import argparse
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
    first_variation,
    identity_eq11_check,
    identity_eq15_evaluate,
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
#: As CSV, 1001 x 1001 points take about 3.3 s and 46 MB, and the cap
#: about 12 s and 95 MB, on a 2-core x86-64 host.
MAX_SWEEP_POINTS = 4_000_000

#: Rows ``sweep`` formats at a time: one block's Python floats and text,
#: about 1 MB.  The float64 result grids (16 B per point) are the only
#: state kept for the whole grid: every value is computed and checked
#: before the first byte is written.
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


def _one_row(payload: dict, code: int = 0) -> tuple[str, int]:
    """``payload`` as JSON text, and exit code ``code``.  Every float in it
    must be finite: one outside double range raises ``OverflowError``."""
    if any(isinstance(v, float) and not math.isfinite(v) for v in payload.values()):
        raise OverflowError("a result is outside double range")
    return json.dumps(payload, indent=2, allow_nan=False), code


@dataclass(frozen=True)
class Command:
    """A subcommand: its help, its flags, and ``run``, which returns the
    text the subcommand writes (one string, or its pieces in order) and the
    exit code once that text is written.
    """

    help: str
    flags: tuple[Callable[[argparse.ArgumentParser], None], ...]
    run: Callable[[argparse.Namespace], tuple[str | Iterable[str], int]]


COMMANDS: dict[str, Command] = {}


def _command(name: str, help_text: str, flags: tuple):
    """Add the decorated function to ``COMMANDS`` as subcommand ``name``.

    Its body names the library functions it calls, so each call goes
    through this module's global of that name at call time.
    """

    def register(run):
        COMMANDS[name] = Command(help_text, flags, run)
        return run

    return register


def _report_row(report, **values) -> tuple[str, int]:
    """``_one_row`` of the report's JSON keys holding its own floats (``to_json``
    writes a non-finite one as a string), ``ratio`` where ``rhs`` is nonzero,
    then ``values``; exit code 1 where the report does not pass."""
    data = {**report.to_json(), "lhs": report.lhs, "rhs": report.rhs,
            "abs_err": report.abs_err, "rel_err": report.rel_err}
    if report.rhs != 0.0:
        data["ratio"] = report.lhs / report.rhs
    return _one_row({**data, **values}, 0 if report.passed else 1)


def _point(a: argparse.Namespace, **values) -> tuple[str, int]:
    """``_one_row`` of the one payload head, ``tau`` and ``curve``, then ``values``."""
    return _one_row({"tau": format_complex(a.tau.value), "curve": format_curve(a.curve),
                     **values})


@_command("ext", "extremal length and annulus modulus of a curve class", _POINT)
def _ext(a: argparse.Namespace) -> tuple[str, int]:
    return _point(
        a, ext=extremal_length(a.tau, a.curve), cylinder_modulus=cylinder_modulus(a.tau, a.curve)
    )


@_command("levi", "mixed second derivative of extremal length at tau", _POINT)
def _levi(a: argparse.Namespace) -> tuple[str, int]:
    return _point(a, levi=levi_form(a.tau, a.curve))


@_command("vary1", "first variation of extremal length along a constant field", (*_POINT, _MU))
def _vary1(a: argparse.Namespace) -> tuple[str, int]:
    first = first_variation(a.tau, a.curve, constant(a.tau, a.mu))
    return _point(a, mu=format_complex(a.mu), first_variation=first)


@_command("vary2", "second variation along a constant field", (*_POINT, _MU))
def _vary2(a: argparse.Namespace) -> tuple[str, int]:
    second = second_variation_constant(a.tau, a.curve, a.mu)
    return _point(a, mu=format_complex(a.mu), second_variation=second)


@_command("pair-sum", "second variations along mu and i*mu, summed", (
    *_POINT, _arg("--mu", type=_nonzero, required=True, help="nonzero constant field, a+bi form"),
))
def _pair_sum(a: argparse.Namespace) -> tuple[str, int]:
    return _point(a, mu=format_complex(a.mu), pair_sum=pair_sum_levi(a.tau, a.curve, a.mu))


@_command("solve-field", "derivative of the harmonic map along a field", _FIELD)
def _solve_field(a: argparse.Namespace) -> tuple[str, int]:
    vf = solve_variation_field(a.tau, a.curve, _field_from_args(a), a.grid)
    return _point(
        a,
        n=vf.n,
        periodic_sup=float(np.abs(vf.periodic).max()),
        gradient_sup=float(np.abs(vf.gradient).max()),
        residual=vf.residual,
        source_sup=vf.source_sup,
    )


@_command("eq11", "integration-by-parts check on the solved derivative", _FIELD)
def _eq11(a: argparse.Namespace) -> tuple[str, int]:
    return _report_row(identity_eq11_check(a.tau, a.curve, _field_from_args(a), a.grid))


@_command("eq15", "paired-direction gradient identity on the solved derivative", _FIELD)
def _eq15(a: argparse.Namespace) -> tuple[str, int]:
    return _report_row(identity_eq15_evaluate(a.tau, a.curve, _field_from_args(a), a.grid))


@_command("distance", "stretch-factor distance between two moduli", (
    _arg("--tau", type=_tau, required=True, help="first modulus, a+bi"),
    _arg("--tau2", type=_tau, required=True, help="second modulus, a+bi"),
    _arg("--max-pq", type=_max_pq, default=50,
         help=f"curve search bound |p|,|q| <= N, N in [1, {MAX_PQ}] (default 50)"),
))
def _distance(a: argparse.Namespace) -> tuple[str, int]:
    kd = kerckhoff_distance(a.tau, a.tau2, a.max_pq)
    hyp = hyperbolic_distance(a.tau, a.tau2)
    return _one_row({
        "tau": format_complex(a.tau.value),
        "tau2": format_complex(a.tau2.value),
        "max_pq": a.max_pq,
        "kerckhoff": kd.value,
        "maximizer": format_curve(kd.maximizer),
        "hyperbolic": hyp,
        "half_hyperbolic": 0.5 * hyp,
    })


@_command("bound", "second difference of extremal length along a unit stretch line", (
    *_POINT,
    _arg("--mu", type=_unimodular, required=True, help="direction with |mu| = 1"),
))
def _bound(a: argparse.Namespace) -> tuple[str, int]:
    report = teich_bound_check(a.tau, a.curve, a.mu)
    return _report_row(report, ext=extremal_length(a.tau, a.curve))


def _sweep_rows(res: np.ndarray, ims: np.ndarray, ext: np.ndarray, levi: np.ndarray
                ) -> Iterator[list[float]]:
    """The im-major rows ``re, im, ext, levi``, flattened, ``_SWEEP_CHUNK`` rows at a time."""
    ext, levi = ext.ravel(), levi.ravel()
    for start in range(0, ext.size, _SWEEP_CHUNK):
        at = np.arange(start, min(start + _SWEEP_CHUNK, ext.size))
        yield np.column_stack((res[at % res.size], ims[at // res.size], ext[at], levi[at])
                              ).ravel().tolist()


def _sweep_csv(chunks: Iterable[list[float]]) -> Iterator[str]:
    """The CSV text, one ``%`` format per chunk; ``%.17g`` writes what ``f"{v:.17g}"`` does."""
    yield "re,im,ext,levi\n"
    for flat in chunks:
        yield "%.17g,%.17g,%.17g,%.17g\n" * (len(flat) // 4) % tuple(flat)


@_command("sweep", "extremal length and Levi form over a rectangle of moduli", (
    _CURVE,
    _arg("--re", type=_range, required=True, help="real range lo:hi:step"),
    _arg("--im", type=_im_range, required=True, help="imaginary range lo:hi:step, lo > 1e-12"),
))
def _sweep(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    points = _range_count(args.re) * _range_count(args.im)
    if points > MAX_SWEEP_POINTS:
        print(f"extorus sweep: error: --re and --im give {points} points; "
              f"a sweep writes at most {MAX_SWEEP_POINTS}", file=sys.stderr)
        raise SystemExit(2)
    res = _range_values(args.re)
    ims = _range_values(args.im)
    ext, levi = _closed_forms_on_grid(args.curve, res, ims)
    return _sweep_csv(_sweep_rows(res, ims, ext, levi)), 0


@_command("verify", "run the full cross-check suite", (
    _arg("--seed", type=_seed, default=42, help="sampling seed, integer >= 0 (default 42)"),
    _arg("--format", choices=("json",), help="write JSON instead of the table"),
))
def _verify(args: argparse.Namespace) -> tuple[str, int]:
    """The table on stdout by default, JSON with ``--format json`` or in a file."""
    result = run_suite(args.seed)
    as_json = args.format == "json" or args.out is not None
    text = result.to_json_text() if as_json else format_table(result)
    return text, 0 if result.all_passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="extorus", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sub = subs.add_parser(name, help=cmd.help)
        sub.set_defaults(run=cmd.run)
        sub.add_argument("--out", help="write the result to this path instead of stdout")
        for add in cmd.flags:
            add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, run its subcommand and write the result; returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
        text, code = args.run(args)
        return _emit(text, args.out) or code
    except SystemExit as exc:
        return int(exc.code or 0)
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
