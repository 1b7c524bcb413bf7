"""Command-line front end.

One subcommand per operation family, each with one output format on
stdout: the one-row commands write JSON, ``sweep`` CSV, and ``verify`` a
table (JSON with ``--format json``).  Complex values take the same
``a+bi`` form the parsers accept, so every emitted value round-trips.
Exit codes: 0 success, 1 computation failure or a report that does not
pass (``eq11``, ``eq15``, ``bound``, ``verify``), 2 argument error,
3 stdout I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator

from ._lazy import np
from .beltrami import FIELD_CATALOG, _require_grid_size, _require_unimodular, catalog_field
from .moduli import (
    MIN_IMAG,
    CurveClass,
    Modulus,
    _ext_formula,
    _levi_formula,
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
)
from .verify import _require_seed, format_table, run_suite, teich_bound_check

#: Largest ``--grid`` and ``--max-pq``.  Time and memory grow with the
#: square of ``--grid``; at its limit a run takes at most about 3.5 s and
#: 0.33 GB (``eq15``, two solves, one live at a time) on a 2-core x86-64
#: host.  ``distance`` costs the same at every ``--max-pq``.
MAX_GRID = 2048
MAX_PQ = 2000

#: Most points one ``sweep`` writes (``--re`` count times ``--im`` count).
#: As CSV, 1001 x 1001 points take about 1.9 s and 33 MB, and 2000 x 2000
#: at the cap about 8 s and 79 MB, on a 2-core x86-64 host.
MAX_SWEEP_POINTS = 4_000_000

#: Points ``sweep`` computes, checks and formats at a time: one block's
#: Python floats and text, about 1 MB.  The two ``array('d')`` result
#: grids (16 B per point) and the two axes are the only state kept for
#: the whole rectangle: every value is computed and checked before the
#: first byte is written.
_SWEEP_CHUNK = 1 << 12


class _Parser(argparse.ArgumentParser):
    """An argument error exits 2.  A flag is known only by its full name
    (build it with ``allow_abbrev=False``): ``eq15 ... --mu cos2pis`` is an
    error, not ``--mu-fn``.  argparse reports a missing required flag
    before an unrecognized one, so the error names the unrecognized flags
    instead: ``vary1 ... --mu-fn coscos`` is told about ``--mu-fn``, not
    about the ``--mu`` it lacks."""

    _given: tuple[str, ...] = ()  # the arguments of the last parse

    def parse_known_args(self, args=None, namespace=None):
        self._given = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str) -> None:
        unknown = [arg for arg in self._given if arg.startswith("--")
                   and arg.partition("=")[0] not in self._option_string_actions]
        if unknown and "required" in message:
            message = f"unrecognized arguments: {' '.join(unknown)}"
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
_seed = _number(int, _require_seed)


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


def _range_values(spec: tuple[float, float, float]) -> array:
    """The points of a range, ``_SWEEP_CHUNK`` at a time; ``lo + i*step`` rounds
    as the scalar expression does."""
    lo, _, step = spec
    count = _range_count(spec)
    values = array("d")
    for start in range(0, count, _SWEEP_CHUNK):
        values.fromlist([lo + i * step for i in range(start, min(start + _SWEEP_CHUNK, count))])
    return values


def _arg(*names: str, **kwargs) -> Callable[[argparse.ArgumentParser], None]:
    return lambda sub: sub.add_argument(*names, **kwargs)


_CURVE = _arg("--curve", type=_curve, required=True, help="curve class, p,q integers")
_POINT = (_arg("--tau", type=_tau, required=True, help="modulus, a+bi with b > 0"), _CURVE)
_FIELD = (
    *_POINT,
    _arg("--mu-fn", choices=sorted(FIELD_CATALOG), required=True,
         help="named deformation field from the catalog"),
    _arg("--grid", type=_grid, default=64,
         help=f"samples per side, power of two in [4, {MAX_GRID}] (default 64)"),
)
_MU = _arg("--mu", type=_complex, required=True, help="constant field, a+bi form")


def _emit(text: str | Iterable[str]) -> None:
    """Write ``text`` (or its pieces in order) to stdout, ending in a newline, and flush."""
    last = ""
    for last in [text] if isinstance(text, str) else text:
        sys.stdout.write(last)
    if not last.endswith("\n"):
        sys.stdout.write("\n")
    sys.stdout.flush()


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
    first = first_variation(a.tau, a.curve, a.mu)
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
    field = catalog_field(a.tau, a.mu_fn, a.grid)
    vf = solve_variation_field(a.tau, a.curve, field, a.grid)
    return _point(
        a,
        n=a.grid,
        periodic_sup=float(np.abs(vf.periodic).max()),
        gradient_sup=float(np.abs(vf.gradient).max()),
        residual=vf.residual,
        source_sup=vf.source_sup,
    )


@_command("eq11", "integration-by-parts check on the solved derivative", _FIELD)
def _eq11(a: argparse.Namespace) -> tuple[str, int]:
    field = catalog_field(a.tau, a.mu_fn, a.grid)
    return _report_row(identity_eq11_check(a.tau, a.curve, field, a.grid))


@_command("eq15", "paired-direction gradient identity on the solved derivative", _FIELD)
def _eq15(a: argparse.Namespace) -> tuple[str, int]:
    field = catalog_field(a.tau, a.mu_fn, a.grid)
    return _report_row(identity_eq15_evaluate(a.tau, a.curve, field, a.grid))


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


@_command("bound", "even part of extremal length along a unit stretch line vs Ext", (
    *_POINT,
    _arg("--mu", type=_unimodular, required=True, help="direction with |mu| = 1"),
))
def _bound(a: argparse.Namespace) -> tuple[str, int]:
    report = teich_bound_check(a.tau, a.curve, a.mu)
    return _report_row(report, ext=extremal_length(a.tau, a.curve))


def _sweep_blocks(n_re: int, n_im: int) -> Iterator[tuple[int, int, int, int]]:
    """Rows ``i0:i1`` and columns ``j0:j1`` of each block of at most ``_SWEEP_CHUNK``
    points: whole rows where a row fits in one, else one row in pieces."""
    width = min(n_re, _SWEEP_CHUNK)
    height = _SWEEP_CHUNK // width
    for i0 in range(0, n_im, height):
        for j0 in range(0, n_re, width):
            yield i0, min(i0 + height, n_im), j0, min(j0 + width, n_re)


def _each(values: Iterable, count: int) -> Iterable:
    """Every item of ``values`` ``count`` times over, in order; ``values``
    itself where ``count`` is 1, so a one-column sweep builds no repeat
    per point."""
    return values if count == 1 else chain.from_iterable(map(repeat, values, repeat(count)))


def _sweep_grids(curve: CurveClass, res: array, ims: array) -> tuple[array, array]:
    """``extremal_length`` and ``levi_form`` at every ``res[j] + ims[i] i``, im-major.

    Bit-identical to the scalar functions, whose formulas it evaluates a
    block at a time; ``p`` and ``q`` enter as floats, which round as the
    ints do (``int * float`` converts the int first).  A block with a
    value outside double range raises ``OverflowError``.
    """
    p, q = float(curve.p), float(curve.q)
    ext, levi = array("d"), array("d")
    for i0, i1, j0, j1 in _sweep_blocks(len(res), len(ims)):
        block_ims, block_res = ims[i0:i1], res[j0:j1]
        block_ext = [_ext_formula(p, q, re, im) for im in block_ims for re in block_res]
        block_levi = [_levi_formula(e, im)
                      for e, im in zip(block_ext, _each(block_ims, len(block_res)))]
        if not (all(map(math.isfinite, block_ext)) and all(map(math.isfinite, block_levi))):
            raise OverflowError(f"extremal length of {curve} leaves double range on the sweep")
        ext.fromlist(block_ext)
        levi.fromlist(block_levi)
    return ext, levi


def _sweep_csv(res: array, ims: array, ext: array, levi: array) -> Iterator[str]:
    """The CSV text, one ``%`` format of ``ext`` and ``levi`` per block; ``%.17g``
    writes what ``f"{v:.17g}"`` does.

    Each ``re`` string is formatted once per block (once per run where a row
    fits in a block) into a row template, and each ``im`` string once per
    row, in place of the template's ``@``, which no number's text holds.
    """
    yield "re,im,ext,levi\n"
    n = len(res)
    cols = None
    for i0, i1, j0, j1 in _sweep_blocks(n, len(ims)):
        if cols != (j0, j1):
            cols, row = (j0, j1), "%.17g,@,%%.17g,%%.17g\n" * (j1 - j0) % tuple(res[j0:j1])
        text = "".join([row.replace("@", "%.17g" % im) for im in ims[i0:i1]])
        start, stop = i0 * n + j0, (i1 - 1) * n + j1
        yield text % tuple(chain.from_iterable(zip(ext[start:stop], levi[start:stop])))


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
    return _sweep_csv(res, ims, *_sweep_grids(args.curve, res, ims)), 0


@_command("verify", "run the full cross-check suite", (
    _arg("--seed", type=_seed, default=42, help="sampling seed, integer >= 0 (default 42)"),
    _arg("--format", choices=("json",), help="write JSON instead of the table"),
))
def _verify(args: argparse.Namespace) -> tuple[str, int]:
    result = run_suite(args.seed)
    text = result.to_json_text() if args.format == "json" else format_table(result)
    return text, 0 if result.all_passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="extorus", description=__doc__, allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sub = subs.add_parser(name, help=cmd.help, allow_abbrev=False)
        sub.set_defaults(run=cmd.run)
        for add in cmd.flags:
            add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, run its subcommand and write the result; returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
        text, code = args.run(args)
        _emit(text)
        return code
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
    code = main()
    if code == 3:  # stdout failed: its flush at exit goes to devnull, not fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
