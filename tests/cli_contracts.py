"""The command-line contracts: what each argv exits with and writes.

A row of ``CONTRACTS`` is ``(argv, code, out, err)``: the arguments after
``extorus``, split on spaces; the exit code; ``None`` for an empty stdout, else
a predicate on stdout read as strict JSON (a bare ``inf`` or ``nan`` fails); and
``None`` for an empty stderr, else the text its one line ends with.  A new
contract is one more row, in ``OTHERS`` unless it joins a family.

``tests/test_cli.py`` runs each row through ``cli.main``, with warnings as
errors: one test for each family, and ``test_contract`` for ``OTHERS``.
``python tests/cli_contracts.py`` runs each row as an ``extorus`` process of the
installed entry point, with a 10 s timeout.
"""

import json
import math
import subprocess
from inspect import signature

from extorus import verify

OVER = "input is outside double range: a result overflowed"
UNDER = "input is outside double range: a result underflowed"
T = "--tau 0.5+1.25i --curve 1,1"  # the point of the payload-key rows
VERIFY_KEYS = ["seed", "elapsed_seconds", "all_passed", "reports"]


def passes(data):
    return data["all_passed"] is True


def keys(*names):
    """The payload's keys, in order: the order keeps the output bytes stable."""
    return lambda d: list(d) == list(names)


def sides(lhs, rhs):
    """The one report passes with exactly these sides."""
    return lambda d: [(r["lhs"], r["rhs"], r["pass"]) for r in d["reports"]] == [(lhs, rhs, True)]


def fails(data):
    """The one report fails its tolerance, and the run says so."""
    return data["all_passed"] is False and [
        (r["pass"], r["rel_err"] > r["tolerance"]) for r in data["reports"]] == [(False, True)]


# The key order is what keeps the output bytes stable: one row for each payload.
KEY_ORDER = [
    (f"ext {T}", 0, keys("tau", "curve", "ext", "cylinder_modulus"), None),
    (f"levi {T}", 0, keys("tau", "curve", "levi"), None),
    (f"vary1 {T} --mu 0.3-0.2i", 0, keys("tau", "curve", "mu", "first_variation"), None),
    (f"vary2 {T} --mu 0.3-0.2i", 0, keys("tau", "curve", "mu", "second_variation"), None),
    (f"pair-sum {T} --mu 0.3-0.2i", 0, keys("tau", "curve", "mu", "pair_sum"), None),
    (f"solve-field {T} --mu-fn exp2pist --grid 16", 0,
     keys("tau", "curve", "n", "periodic_sup", "gradient_sup", "residual", "source_sup"), None),
    (f"verify --only eq11_catalog {T} --mu-fn coscos --grid 16 --format json", 0,
     keys(*VERIFY_KEYS), None),
    (f"verify --only eq15_catalog {T} --mu-fn cos2pis --grid 16 --format json", 0,
     keys(*VERIFY_KEYS), None),
    ("distance --tau 0+1i --tau2 0.5+2i --max-pq 5", 0,
     keys("tau", "tau2", "max_pq", "kerckhoff", "maximizer", "hyperbolic", "half_hyperbolic"),
     None),
    (f"verify --only teich_lower_bound {T} --format json", 0, keys(*VERIFY_KEYS), None),
]
KEY_ORDER_IDS = ["ext", "levi", "vary1", "vary2", "pair-sum", "solve-field", "eq11",
                 "eq15-grid", "distance", "bound"]

# A result outside double range is one line, with no numpy warning and no output.
OVERFLOW = [
    ("distance --tau 0+1i --tau2 0+1e300i --max-pq 5", 1, None, "is outside double range"),
    ("ext --tau 1e200+1i --curve 1,1", 1, None, OVER),
    ("sweep --curve 1,1 --re 1e200:1e200:1 --im 1:1:1", 1, None, OVER),
    ("sweep --curve 1,2 --re 1e308:1e308:1 --im 1:1:1", 1, None, OVER),
    ("vary2 --tau 1e308+1e308i --curve 5,7 --mu 1+0i", 1, None, OVER),
    ("ext --tau 1e308+1e308i --curve 5,7", 1, None, OVER),
    ("levi --tau 1e308+1e-6i --curve 5,7", 1, None, OVER),
    ("vary1 --tau 0+1i --curve 1,0 --mu 1e308+1e308i", 1, None, OVER),
    # |mu|^2 underflows: rounding, not a failure of positivity; or mu is subnormal
    ("pair-sum --tau 0+1i --curve 1,0 --mu 1e-200+0i", 1, None, UNDER),
    ("vary2 --tau 0+1i --curve 1,0 --mu 1e-170+0i", 1, None, UNDER),
    ("vary1 --tau 0.3+1.1i --curve 2,1 --mu=1e-320+1e-321i", 1, None, UNDER),
    ("verify --only first_variation_fd --tau=0.3+1.1i --curve=2,1 --mu=1e-320+1e-321i", 1, None,
     UNDER),
    # (1e200)^2 overflows: ext is inf and levi inf / inf = nan
    ("ext --tau 0+1e200i --curve 0,1", 1, None, OVER),
    ("levi --tau 0+1e200i --curve 0,1", 1, None, OVER),
    # an Ext or a |w_z|^2 that is inf, where a report or a positivity check reads it
    ("verify --only teich_lower_bound --tau 0+1.3403e154i --curve 0,1", 1, None, OVER),
    ("verify --only teich_lower_bound --tau 1e154+1i --curve 0,1", 1, None, OVER),
    ("pair-sum --tau 1e200+1i --curve 1,1 --mu 1e-200+0i", 1, None, OVER),
    # sides that are NaN, and a solve that overflows
    ("verify --only eq11_catalog --tau 0+1e155i --curve 1,1 --mu-fn cos2pit --grid 16", 1, None,
     OVER),
    ("verify --only eq15_catalog --tau 0+1e155i --curve 1,1 --mu-fn cos2pit --grid 16", 1, None,
     OVER),
    ("verify --only eq11_catalog --tau 1e200+1i --curve 1,1 --mu-fn coscos --grid 16", 1, None,
     OVER),
    ("verify --only eq15_catalog --tau 1e200+1i --curve 1,1 --mu-fn coscos --grid 16", 1, None,
     OVER),
    # a |w_z|^2 that underflows would make both sides 0 and pass vacuously
    ("verify --only eq11_catalog --tau 0+1e200i --curve 1,0 --mu-fn coscos --grid 16", 1, None,
     UNDER),
    ("verify --only eq15_catalog --tau 0+1e200i --curve 1,0 --mu-fn coscos --grid 16", 1, None,
     UNDER),
    # a field whose mean |mu|^2, the scale, is past double range
    ("verify --only eq15_constant --tau 0+1i --curve 1,0 --mu 1e300+0i", 1, None, OVER),
]

# Each check whose one input is a point says (1e200)^2 overflows, as ext and levi do.
POINT_CHECKS = [name for name, (_, _, row) in verify._SUITE.items()
                if list(signature(row).parameters) == ["tau", "curve"]]
POINT_OVERFLOW = [(f"verify --only {name} --tau=0+1e200i --curve=0,1 --format json", 1, None,
                   OVER) for name in POINT_CHECKS]

# The contracts of no family above.
OTHERS = [
    ("verify --format json", 0, passes, None),
    ("verify --only eq15_catalog --tau=0.5+1.25i --curve=1,1 --mu-fn=coscos --grid=256 "
     "--format json", 0, passes, None),
    # seed-42 reports of checks 7 and 9 from when they sampled finer grids replay to their bits
    ("verify --only eq11_catalog --tau=0+1i --curve=1,0 --mu-fn=icos2pis --grid=128 "
     "--format json", 0, sides(2.000000000000001, 2.0), None),
    ("verify --only eq11_catalog --tau=0+1i --curve=1,0 --mu-fn=exp2pist --grid=64 "
     "--format json", 0, sides(2.0000000000000018, 2.000000000000001), None),
    ("verify --only eq15_catalog --tau=0+1i --curve=1,0 --mu-fn=cos2pis --grid=64 "
     "--format json", 0, sides(0.5000000000000002, 0.49999999999999994), None),
    ("verify --only teich_lower_bound --tau=0.3+1.1i --curve=2,1 --format json", 0,
     lambda d: passes(d) and d["reports"][0]["rel_err"] <= 1e-13, None),
    # the path oracles and the change of marking, where |Re tau| / Im tau is large
    ("verify --only first_variation_fd --tau=1000000+1i --curve=0,1 --mu=0.3+0.1i "
     "--format json", 0, passes, None),
    ("verify --only second_variation_fd --tau=100000000+1i --curve=1,1 --mu=0.3+0.1i "
     "--format json", 0, passes, None),
    ("verify --only teich_lower_bound --tau=10000+1i --curve=0,1 --format json", 0, passes, None),
    ("verify --only teich_lower_bound --tau=100000000+1i --curve=0,1 --format json", 0, passes,
     None),
    ("verify --only marking_invariance --tau=-8686.7166429735717+1.4741560247625369i "
     "--curve=532952,735267 --mc=-3,2,-2,1 --format json", 0, passes, None),
    # equal moduli at the largest bound, and differences that square past double range or are 1e-9
    ("distance --tau 0.3+1.7i --tau2 0.3+1.7i --max-pq 2000", 0,
     lambda d: (d["maximizer"], d["kerckhoff"]) == ("1,0", 0.0), None),
    ("distance --tau 3e154+1e154i --tau2 0+1e154i --max-pq 5", 0,
     lambda d: math.isfinite(d["kerckhoff"]) and math.isfinite(d["hyperbolic"]), None),
    ("distance --tau 0+1i --tau2 1e-9+1i --max-pq 5", 0, lambda d: d["hyperbolic"] > 0, None),
    # eq15 misses its tolerance near the imaginary floor: the report is written, and exit is 1
    ("verify --only eq15_catalog --tau 0+1e-11i --curve 0,1 --mu-fn coscos --grid 16 "
     "--format json", 1, fails, None),
    # argument errors name the flag and the rule
    ("ext --tau 0-1i --curve 1,0", 2, None,
     "argument --tau: tau must lie in the upper half-plane with Im tau > 1e-12, got Im tau = -1.0"),
    ("ext --tau 0+1e-13i --curve 1,0", 2, None,
     "upper half-plane with Im tau > 1e-12, got Im tau = 1e-13"),
    ("ext --tau xyz --curve 1,0", 2, None,
     "argument --tau: expected complex number in a+bi form, got 'xyz'"),
    ("ext --tau 0+1i --curve 2,4", 2, None,
     "argument --curve: curve class (2, 4) is not primitive"),
    ("ext --tau 0+1i", 2, None, "the following arguments are required: --curve"),
    ("ext --tau 0+1i --curve 1,0 --bogus", 2, None, "unrecognized arguments: --bogus"),
    ("vary1 --tau 0+1i --curve 1,0", 2, None, "the following arguments are required: --mu"),
    ("solve-field --tau 0+1i --curve 1,0 --grid 16", 2, None,
     "the following arguments are required: --mu-fn"),
    ("nonsense", 2, None, "'pair-sum', 'solve-field', 'distance', 'sweep', 'verify')"),
    ("solve-field --tau 0+1i --curve 1,0 --mu-fn cos2pis --grid 3", 2, None,
     "argument --grid: grid size must be a power of two >= 4, got 3"),
    ("solve-field --tau 0+1i --curve 1,0 --mu-fn cos2pis --grid 48", 2, None,
     "argument --grid: grid size must be a power of two >= 4, got 48"),
    ("solve-field --tau 0+1i --curve 1,0 --mu-fn cos2pis --grid 4096", 2, None,
     "argument --grid: must be at most 2048, got 4096"),
    ("verify --only eq11_catalog --tau 0+1i --curve 1,0 --mu-fn cos2pis --grid x", 2, None,
     "argument --grid: invalid literal for int() with base 10: 'x'"),
    ("distance --tau 0+1i --tau2 0+2i --max-pq 0", 2, None,
     "argument --max-pq: max_index must be at least 1"),
    ("distance --tau 0+1i --tau2 0+2i --max-pq 2001", 2, None,
     "argument --max-pq: must be at most 2000, got 2001"),
    ("verify --format csv", 2, None,
     "argument --format: invalid choice: 'csv' (choose from 'json')"),
    ("verify --seed=-1", 2, None, "argument --seed: seed must be a non-negative integer, got -1"),
    ("sweep --curve 1,0 --re=nan:1:1 --im 1:1:1", 2, None,
     "argument --re: range needs finite lo, hi and step, got 'nan:1:1'"),
    ("sweep --curve 1,0 --re 0:inf:1 --im 1:1:1", 2, None,
     "argument --re: range needs finite lo, hi and step, got '0:inf:1'"),
    ("sweep --curve 1,0 --re 0:1:1 --im 1:2:nan", 2, None,
     "argument --im: range needs finite lo, hi and step, got '1:2:nan'"),
    ("sweep --curve 1,0 --re 0:1:1 --im 0:1:1", 2, None,
     "argument --im: imaginary range needs lo > 1e-12: tau must lie in the upper half-plane"),
    ("sweep --curve 1,0 --re 0:1:1 --im=-1:1:1", 2, None,
     "argument --im: imaginary range needs lo > 1e-12: tau must lie in the upper half-plane"),
    # a sweep over the point cap is refused before any allocation, also when each range is under it
    ("sweep --curve 1,0 --re 0:1e9:1e-9 --im 1:1:1", 2, None,
     "1000000000000000001 points; a sweep writes at most 4000000"),
    ("sweep --curve 1,0 --re 0:2:0.001 --im 1:3:0.001", 2, None,
     "4004001 points; a sweep writes at most 4000000"),
    ("pair-sum --tau 0+1i --curve 1,0 --mu 0+0i", 2, None,
     "argument --mu: direction must be nonzero"),
    # a part past double range parses to inf: the flag is at fault, not the computation
    ("vary1 --tau 0+1i --curve 1,0 --mu=1e400+0i", 2, None,
     "argument --mu: expected finite parts in a+bi form, got '1e400+0i'"),
    ("pair-sum --tau 0+1i --curve 1,0 --mu=1e400+0i", 2, None,
     "argument --mu: expected finite parts in a+bi form, got '1e400+0i'"),
    ("verify --only eq15_constant --tau 0+1i --curve 1,0 --mu=1e400+0i", 2, None,
     "argument --mu: expected finite parts in a+bi form, got '1e400+0i'"),
    # argparse reads a value starting with '-' as a flag; the error says how to write it
    ("ext --tau 0+1i --curve -7,3", 2, None,
     "expected one argument (a value starting with '-' is written --curve=-7,3)"),
    ("ext --tau -1+1i --curve 1,0", 2, None,
     "expected one argument (a value starting with '-' is written --tau=-1+1i)"),
    ("vary1 --tau 0+1i --curve 1,0 --mu -0.5+0i", 2, None,
     "expected one argument (a value starting with '-' is written --mu=-0.5+0i)"),
    # each command writes one format, only verify takes --format, and no command --out
    ("ext --tau 0+1i --curve 1,0 --format csv", 2, None, "unrecognized arguments: --format csv"),
    ("ext --tau 0+1i --curve 1,0 --format json", 2, None, "unrecognized arguments: --format json"),
    ("sweep --curve 1,0 --re 0:0:1 --im 1:1:1 --format json", 2, None,
     "unrecognized arguments: --format json"),
    ("sweep --curve 1,0 --re 0:0:1 --im 1:1:1 --format csv", 2, None,
     "unrecognized arguments: --format csv"),
    ("ext --tau 0+1i --curve 1,0 --out x", 2, None, "unrecognized arguments: --out x"),
    # argparse checks required flags first; the error names the unknown one
    ("sweep --curve 1,0 --format json", 2, None, "error: unrecognized arguments: --format"),
    ("vary1 --tau 0+1i --curve 1,0 --mu-fn coscos", 2, None,
     "error: unrecognized arguments: --mu-fn"),
    # vary1 reads only the field mean, which is 0 for every catalog field; on a
    # constant field d/dz vanishes, so the grid commands' outputs would all be 0
    ("vary1 --tau 0.3+1.2i --curve 2,1 --mu-fn cos2pis --grid 64", 2, None,
     "unrecognized arguments: --mu-fn --grid"),
    (f"solve-field {T} --mu 1+0i --grid 8", 2, None, "unrecognized arguments: --mu"),
    ("solve-field --tau 0+1i --curve 1,0 --mu 1+0i", 2, None, "unrecognized arguments: --mu"),
    (f"verify --only eq11_catalog {T} --mu 1+0i --grid 8", 2, None,
     "unrecognized arguments: --mu (--only eq11_catalog takes --tau --curve --mu-fn --grid)"),
    ("verify --only eq11_catalog --tau 0+1i --curve 1,0 --mu 1+0i", 2, None,
     "unrecognized arguments: --mu (--only eq11_catalog takes --tau --curve --mu-fn --grid)"),
    (f"verify --only eq15_catalog {T} --mu 1+0i --grid 8", 2, None,
     "unrecognized arguments: --mu (--only eq15_catalog takes --tau --curve --mu-fn --grid)"),
    ("verify --only eq15_catalog --tau 0+1i --curve 1,0 --mu 1+0i", 2, None,
     "unrecognized arguments: --mu (--only eq15_catalog takes --tau --curve --mu-fn --grid)"),
    # a flag is known only by its full name
    ("verify --only eq15_catalog --tau 0+1i --curve 1,0 --mu-f cos2pis --grid 16", 2, None,
     "unrecognized arguments: --mu-f cos2pis"),
    ("distance --tau 0+1i --tau2 0+2i --max 5", 2, None, "unrecognized arguments: --max 5"),
    ("verify --se 3", 2, None, "unrecognized arguments: --se 3"),
    # verify --only takes its check's input flags only: the stretch line's 16 directions and
    # its step are the check's own
    ("verify --tau=0+1i", 2, None, "unrecognized arguments: --tau (input flags need --only)"),
    ("verify --only eq11_catalog --tau=0+1i --curve=1,0 --mu-fn=coscos", 2, None,
     "missing --grid (--only eq11_catalog takes --tau --curve --mu-fn --grid)"),
    ("verify --only ext_reciprocal --tau=0+1i --curve=1,0 --mu=1+0i", 2, None,
     "unrecognized arguments: --mu (--only ext_reciprocal takes --tau --curve)"),
    ("verify --only marking_invariance --tau=0+1i --curve=1,0 --mc=1,1,1,1", 2, None,
     "argument --mc: mapping class matrix must have determinant 1"),
    ("verify --only levi_fd --tau=0+1i --curve=1,0 --seed 3", 2, None,
     "unrecognized arguments: --seed (--only levi_fd takes --tau --curve)"),
    ("verify --only teich_lower_bound --tau 0+1i --curve 1,0 --mu 0.5+0i", 2, None,
     "unrecognized arguments: --mu (--only teich_lower_bound takes --tau --curve)"),
    ("verify --only teich_lower_bound --tau 0+1i --curve 1,0 --mu 2+0i", 2, None,
     "unrecognized arguments: --mu (--only teich_lower_bound takes --tau --curve)"),
    ("verify --only teich_lower_bound --tau 0+1i --curve 1,0 --step 1e-3", 2, None,
     "unrecognized arguments: --step 1e-3"),
]
CONTRACTS = KEY_ORDER + OVERFLOW + POINT_OVERFLOW + OTHERS


def refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


def holds(row, code, out, err):
    """Assert that an exit code, a stdout and a stderr keep ``row``'s contract."""
    argv, want, out_rule, err_end = row
    lines = err.splitlines()
    assert code == want, (argv, code, err)
    assert out_rule(json.loads(out, parse_constant=refuse)) if out_rule else out == "", (argv, out)
    assert len(lines) == 1 and lines[0].endswith(err_end) if err_end else err == "", (argv, err)


if __name__ == "__main__":
    for row in CONTRACTS:
        proc = subprocess.run(["extorus", *row[0].split()], capture_output=True, text=True,
                              timeout=10)
        holds(row, proc.returncode, proc.stdout, proc.stderr)
    print(f"{len(CONTRACTS)} contracts hold")
