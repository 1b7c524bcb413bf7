"""Command-line front end: argument validation, payloads, output, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from extorus import cli, verify
from extorus.cli import main
from extorus.moduli import Modulus, extremal_length, levi_form, parse_complex, parse_curve
from extorus.variation import IdentityReport, solver_residual_bound
from extorus.verify import SuiteResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_ext_command(capsys):
    data = run_json(capsys, "ext", "--tau", "0+1i", "--curve", "1,0")
    assert data["ext"] == 1.0
    assert data["cylinder_modulus"] == 1.0
    assert data["tau"] == "0+1i"
    assert data["curve"] == "1,0"


def test_ext_skew_value(capsys):
    data = run_json(capsys, "ext", "--tau", "0.5+2i", "--curve", "0,1")
    assert data["ext"] == 2.125


def test_levi_command(capsys):
    data = run_json(capsys, "levi", "--tau", "0+1i", "--curve", "1,0")
    assert data["levi"] == 0.5


def test_vary1_constant_field(capsys):
    data = run_json(
        capsys, "vary1", "--tau", "0+1i", "--curve", "1,0", "--mu", "1+0i"
    )
    assert data["first_variation"] == 2.0
    assert data["mu"] == "1+0i"


def test_vary2_command(capsys):
    data = run_json(
        capsys, "vary2", "--tau", "0+1i", "--curve", "1,0", "--mu", "1+0i"
    )
    assert data["second_variation"] == pytest.approx(4.0, abs=1e-14)


def test_pair_sum_command(capsys):
    data = run_json(
        capsys, "pair-sum", "--tau", "0+1i", "--curve", "1,0", "--mu", "1+0i"
    )
    assert data["pair_sum"] == pytest.approx(8.0, abs=1e-13)


def test_solve_field_command(capsys):
    data = run_json(
        capsys,
        "solve-field",
        "--tau", "0+1i",
        "--curve", "1,0",
        "--mu-fn", "icos2pis",
        "--grid", "64",
    )
    assert data["n"] == 64
    assert data["residual"] <= solver_residual_bound(Modulus(0.0, 1.0), 64, data["periodic_sup"])
    assert data["gradient_sup"] == pytest.approx(1.0, abs=1e-12)
    assert data["periodic_sup"] == pytest.approx(1.0 / math.pi, abs=1e-10)


def test_eq11_command(capsys):
    data = run_json(
        capsys,
        "eq11",
        "--tau", "0+1i",
        "--curve", "1,0",
        "--mu-fn", "icos2pis",
        "--grid", "64",
    )
    assert data["pass"] is True
    assert data["lhs"] == pytest.approx(2.0, abs=1e-12)
    assert data["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_failing_report_exits_1_after_printing_it(capsys):
    # near the imaginary floor eq15 misses its fixed tolerance: the report is
    # still written, and the exit code says it failed
    code, out, err = run(capsys, "eq15", "--tau", "0+1e-11i", "--curve", "0,1",
                         "--mu-fn", "coscos", "--grid", "16")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["pass"] is False and data["rel_err"] > data["tolerance"]


def test_eq15_command(capsys):
    data = run_json(
        capsys,
        "eq15",
        "--tau", "0+1i",
        "--curve", "1,0",
        "--mu-fn", "cos2pis",
        "--grid", "64",
    )
    assert data["pass"] is True and data["asserted"] is True
    assert data["lhs"] == pytest.approx(0.5, abs=1e-15)
    assert data["rhs"] == pytest.approx(0.5, abs=1e-15)


def test_distance_command(capsys):
    data = run_json(capsys, "distance", "--tau", "0+1i", "--tau2", "0+2i")
    assert data["kerckhoff"] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert data["maximizer"] == "0,1"
    assert data["half_hyperbolic"] == pytest.approx(data["kerckhoff"], abs=1e-9)
    assert data["max_pq"] == 50


def test_bound_command(capsys):
    data = run_json(
        capsys, "bound", "--tau", "0+1i", "--curve", "1,0", "--mu", "1+0i"
    )
    assert data["pass"] is True and data["tolerance"] == 1e-13
    assert data["lhs"] == pytest.approx(1.0, abs=1e-15)
    assert data["rhs"] == data["ext"] == 1.0


def test_sweep_csv(capsys):
    code, out, err = run(
        capsys,
        "sweep",
        "--curve", "0,1",
        "--re=-0.5:0.5:0.5",
        "--im", "1:2:0.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,ext,levi"
    assert len(lines) == 1 + 3 * 3
    first = lines[1].split(",")
    assert float(first[0]) == -0.5 and float(first[1]) == 1.0
    # rows are im-major: the re coordinate cycles fastest
    second = lines[2].split(",")
    assert float(second[0]) == 0.0 and float(second[1]) == 1.0
    assert float(lines[1].split(",")[2]) == 1.25


def test_sweep_reproducible(capsys):
    args = ("sweep", "--curve", "2,1", "--re=-1:1:0.25", "--im", "0.5:2:0.25")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def _scalar_sweep(curve, re_spec, im_spec):
    """Sweep rows by the scalar closed forms at ``lo + i*step``, im-major."""

    def values(lo, hi, step):
        return [lo + i * step for i in range(int(math.floor((hi - lo) / step + 1e-9)) + 1)]

    rows = []
    for im in values(*im_spec):
        for re in values(*re_spec):
            tau = Modulus(re, im)
            rows.append((re, im, extremal_length(tau, curve), levi_form(tau, curve)))
    return rows


SWEEPS = [
    ("-3,2", (-1.0, 1.0, 0.1), (0.1, 3.0, 0.07)),  # negative p, re crossing 0
    ("1,0", (-0.3, 0.3, 0.01), (0.2, 1.2, 0.013)),  # q = 0
    ("5,7", (0.25, 0.25, 1.0), (1.5, 1.5, 0.1)),  # one point
    # Holds re = -0.0007176000000000001, where glibc's pow(1 + re, 2) is
    # one ulp off the product (1 + re) * (1 + re) that both paths compute.
    ("1,1", (-1e-3, -1e-3 + 3000 * 1e-7, 1e-7), (1.0, 1.0, 1.0)),
    # 3 rows of 4501: at the default block a row spans two blocks
    ("3,-2", (-2.0, 2.5, 0.001), (0.75, 1.25, 0.25)),
    # one column of 4991 rows: at the default block a block spans 4096 rows
    ("1,4", (0.125, 0.125, 1.0), (0.01, 5.0, 0.001)),
]


@pytest.mark.parametrize("curve,re_spec,im_spec", SWEEPS, ids=[
    "negative-p", "q-zero", "one-point", "pow-rounding", "wide-row", "one-column"])
# the default block, a block larger than any grid here, and a small one
@pytest.mark.parametrize("chunk", [1 << 16, cli._SWEEP_CHUNK, 7])
def test_sweep_bits_match_scalar_closed_forms(capsys, monkeypatch, curve, re_spec, im_spec,
                                              chunk):
    monkeypatch.setattr(cli, "_SWEEP_CHUNK", chunk)
    argv = ("sweep", f"--curve={curve}", "--re={!r}:{!r}:{!r}".format(*re_spec),
            "--im={!r}:{!r}:{!r}".format(*im_spec))
    rows = _scalar_sweep(parse_curve(curve), re_spec, im_spec)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    # compared line by line, so a failure reports its first wrong row quickly
    assert out.endswith("\n")
    assert out[:-1].split("\n") == ["re,im,ext,levi"] + [",".join(f"{v:.17g}" for v in row)
                                                         for row in rows]


def test_sweep_working_set_is_one_block(tmp_path, monkeypatch):
    # the benchmark's 316 x 316 shape: the float64 grids take 1.6 MB and one
    # block of Python floats and text about 1 MB, where formatting the whole
    # grid at once would take about 20 MB
    argv = ["sweep", "--curve", "1,1", "--re=-1:1.004:0.00635", "--im", "0.3:2.304:0.00635"]
    with open(tmp_path / "sweep", "w", encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdout", fh)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 8e6
    assert (tmp_path / "sweep").read_text(encoding="utf-8").count("\n") >= 316 * 316


@pytest.mark.parametrize("re_spec,im_spec", [
    ("0:2e154:1e154", "1:1:1"),  # 2e154 * 2e154 overflows to inf
    ("0:1e137:1e137", "2e-12:2e-12:1"),  # ext finite, levi past double range
], ids=["pow", "levi"])
def test_sweep_validates_every_block_before_writing(capsys, monkeypatch, re_spec, im_spec):
    # one point per block and only the last point overflows: nothing is
    # written, because every block is checked before the first byte
    monkeypatch.setattr(cli, "_SWEEP_CHUNK", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sweep", "--curve", "0,1", f"--re={re_spec}",
                             f"--im={im_spec}")
    assert (code, out) == (1, "")
    assert "double range" in err


def test_sweep_point_cap(capsys):
    assert 1001 * 1001 <= cli.MAX_SWEEP_POINTS
    cap = str(cli.MAX_SWEEP_POINTS)
    # one range over the cap: refused before any allocation
    code, out, err = run(capsys, "sweep", "--curve", "1,0", "--re", "0:1e9:1e-9", "--im", "1:1:1")
    assert (code, out) == (2, "")
    assert "1000000000000000001 points" in err and cap in err
    # each range under the cap, their product over it
    code, out, err = run(capsys, "sweep", "--curve", "1,0", "--re", "0:2:0.001",
                         "--im", "1:3:0.001")
    assert (code, out) == (2, "")
    assert "4004001 points" in err and cap in err


def test_seed_and_im_range_diagnostics(capsys):
    code, _, err = run(capsys, "verify", "--seed=-1")
    assert code == 2 and "non-negative integer" in err
    code, _, err = run(capsys, "sweep", "--curve", "1,0", "--re", "0:1:1", "--im=-1:1:1")
    assert code == 2 and "upper half-plane" in err


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert "all checks passed" in out
    for name in ("ext_reciprocal", "kerckhoff_vs_half_hyperbolic"):
        assert name in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert data["seed"] == 42


def test_verify_fails_with_degenerate_tolerance(capsys, monkeypatch):
    # tolerances are fixed, so a failing run needs a wrong answer
    first_variation = verify.first_variation
    monkeypatch.setattr(verify, "first_variation",
                        lambda *args: first_variation(*args) * (1 + 1e-4))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAILURES PRESENT" in out


REPORT_KEYS = ["name", "lhs", "rhs", "abs_err", "rel_err", "tolerance", "pass", "asserted"]
TAU_CURVE = ("--tau", "0.5+1.25i", "--curve", "1,1")

# Key order is what keeps the output bytes stable: pin it for every subcommand.
KEY_ORDER = [
    (("ext", *TAU_CURVE), ["tau", "curve", "ext", "cylinder_modulus"]),
    (("levi", *TAU_CURVE), ["tau", "curve", "levi"]),
    (("vary1", *TAU_CURVE, "--mu", "0.3-0.2i"), ["tau", "curve", "mu", "first_variation"]),
    (("vary2", *TAU_CURVE, "--mu", "0.3-0.2i"), ["tau", "curve", "mu", "second_variation"]),
    (("pair-sum", *TAU_CURVE, "--mu", "0.3-0.2i"), ["tau", "curve", "mu", "pair_sum"]),
    (
        ("solve-field", *TAU_CURVE, "--mu-fn", "exp2pist", "--grid", "16"),
        ["tau", "curve", "n", "periodic_sup", "gradient_sup", "residual", "source_sup"],
    ),
    (("eq11", *TAU_CURVE, "--mu-fn", "coscos", "--grid", "16"), REPORT_KEYS + ["ratio"]),
    (("eq15", *TAU_CURVE, "--mu-fn", "cos2pis", "--grid", "16"), REPORT_KEYS + ["ratio"]),
    (
        ("distance", "--tau", "0+1i", "--tau2", "0.5+2i", "--max-pq", "5"),
        ["tau", "tau2", "max_pq", "kerckhoff", "maximizer", "hyperbolic", "half_hyperbolic"],
    ),
    (("bound", *TAU_CURVE, "--mu", "0.6+0.8i"), REPORT_KEYS + ["ratio", "ext"]),
]


@pytest.mark.parametrize("argv,keys", KEY_ORDER, ids=[
    "ext", "levi", "vary1", "vary2", "pair-sum", "solve-field", "eq11", "eq15-grid",
    "distance", "bound",
])
def test_payload_key_order(capsys, argv, keys):
    assert list(run_json(capsys, *argv)) == keys


def test_sweep_key_order(capsys):
    argv = ("sweep", "--curve", "1,1", "--re", "0:0.5:0.5", "--im", "1:1:1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "re,im,ext,levi"


def test_verify_key_order(capsys):
    data = run_json(capsys, "verify", "--format", "json")
    assert list(data) == ["seed", "elapsed_seconds", "all_passed", "reports"]
    assert all(list(report) == REPORT_KEYS for report in data["reports"])


def test_argument_errors_exit_2(capsys):
    cases = [
        ("ext", "--tau", "0-1i", "--curve", "1,0"),
        ("ext", "--tau", "xyz", "--curve", "1,0"),
        ("ext", "--tau", "0+1i", "--curve", "2,4"),
        ("ext", "--tau", "0+1i"),
        ("ext", "--tau", "0+1i", "--curve", "1,0", "--bogus"),
        ("vary1", "--tau", "0+1i", "--curve", "1,0"),
        ("solve-field", "--tau", "0+1i", "--curve", "1,0", "--grid", "16"),
        ("nonsense",),
        ("solve-field", "--tau", "0+1i", "--curve", "1,0", "--mu-fn", "cos2pis", "--grid", "3"),
        ("solve-field", "--tau", "0+1i", "--curve", "1,0", "--mu-fn", "cos2pis", "--grid", "48"),
        ("solve-field", "--tau", "0+1i", "--curve", "1,0", "--mu-fn", "cos2pis", "--grid", "4096"),
        ("eq11", "--tau", "0+1i", "--curve", "1,0", "--mu-fn", "cos2pis", "--grid", "x"),
        ("distance", "--tau", "0+1i", "--tau2", "0+2i", "--max-pq", "0"),
        ("distance", "--tau", "0+1i", "--tau2", "0+2i", "--max-pq", "2001"),
        # the step is fixed, so no flag sets it
        ("bound", "--tau", "0+1i", "--curve", "1,0", "--mu", "1+0i", "--step", "1e-3"),
        ("verify", "--format", "csv"),
        ("sweep", "--curve", "1,0", "--re=nan:1:1", "--im", "1:1:1"),
        ("sweep", "--curve", "1,0", "--re", "0:inf:1", "--im", "1:1:1"),
        ("sweep", "--curve", "1,0", "--re", "0:1:1", "--im", "1:2:nan"),
        ("sweep", "--curve", "1,0", "--re", "0:1:1", "--im", "0:1:1"),
        ("bound", "--tau", "0+1i", "--curve", "1,0", "--mu", "0.5+0i"),
        ("bound", "--tau", "0+1i", "--curve", "1,0", "--mu", "2+0i"),
        ("pair-sum", "--tau", "0+1i", "--curve", "1,0", "--mu", "0+0i"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.strip(), argv
    # the library's own checks name the rule
    assert "unimodular" in run(capsys, *cases[-3])[2]
    assert "nonzero" in run(capsys, *cases[-1])[2]


def test_upper_half_plane_diagnostic(capsys):
    code, _, err = run(capsys, "ext", "--tau", "0-1i", "--curve", "1,0")
    assert code == 2
    assert "upper half-plane" in err
    code, out, err = run(capsys, "ext", "--tau", "0+1e-13i", "--curve", "1,0")
    assert (code, out) == (2, "")
    assert "upper half-plane" in err and "1e-12" in err and "1e-13" in err


def test_computation_errors_exit_1(capsys, monkeypatch):
    # a paired sum that is really not positive is reported as such
    monkeypatch.setattr("extorus.variation.second_variation_constant",
                        lambda tau, curve, m: -1.0)
    code, out, err = run(
        capsys, "pair-sum", "--tau", "0+1i", "--curve", "1,0", "--mu", "1+0i"
    )
    assert (code, out) == (1, "")
    assert "positive" in err and "double range" not in err


@pytest.mark.parametrize("argv", [
    ("distance", "--tau", "0+1i", "--tau2", "0+1e300i", "--max-pq", "5"),
    ("ext", "--tau", "1e200+1i", "--curve", "1,1"),
    ("sweep", "--curve", "1,1", "--re", "1e200:1e200:1", "--im", "1:1:1"),
    ("sweep", "--curve", "1,2", "--re", "1e308:1e308:1", "--im", "1:1:1"),
    # one-row payloads with a closed form outside double range
    ("vary2", "--tau", "1e308+1e308i", "--curve", "5,7", "--mu", "1+0i"),
    ("ext", "--tau", "1e308+1e308i", "--curve", "5,7"),
    ("levi", "--tau", "1e308+1e-6i", "--curve", "5,7"),
    ("vary1", "--tau", "0+1i", "--curve", "1,0", "--mu", "1e308+1e308i"),
    # a valid nonzero direction whose |mu|^2 underflows: rounding, not a
    # failure of positivity
    ("pair-sum", "--tau", "0+1i", "--curve", "1,0", "--mu", "1e-200+0i"),
    ("vary2", "--tau", "0+1i", "--curve", "1,0", "--mu", "1e-170+0i"),
    # (1e200)^2 overflows: ext is inf and levi inf / inf = nan
    ("ext", "--tau", "0+1e200i", "--curve", "0,1"),
    ("levi", "--tau", "0+1e200i", "--curve", "0,1"),
    # an extremal length or a |w_z|^2 that is inf, where a report or a
    # positivity check would read it
    ("bound", "--tau", "0+1.3403e154i", "--curve", "0,1", "--mu", "1+0i"),
    ("bound", "--tau", "1e154+1i", "--curve", "0,1", "--mu", "1+0i"),
    ("pair-sum", "--tau", "1e200+1i", "--curve", "1,1", "--mu", "1e-200+0i"),
    # a report whose sides are NaN, and a solve that overflows, exit 1
    # with no numpy warning
    ("eq11", "--tau", "0+1e155i", "--curve", "1,1", "--mu-fn", "cos2pit", "--grid", "16"),
    ("eq15", "--tau", "0+1e155i", "--curve", "1,1", "--mu-fn", "cos2pit", "--grid", "16"),
    ("eq11", "--tau", "1e200+1i", "--curve", "1,1", "--mu-fn", "coscos", "--grid", "16"),
    ("eq15", "--tau", "1e200+1i", "--curve", "1,1", "--mu-fn", "coscos", "--grid", "16"),
    # a |w_z|^2 that underflows would make both sides 0 and pass vacuously
    ("eq11", "--tau", "0+1e200i", "--curve", "1,0", "--mu-fn", "coscos", "--grid", "16"),
    ("eq15", "--tau", "0+1e200i", "--curve", "1,0", "--mu-fn", "coscos", "--grid", "16"),
])
def test_overflow_exits_1_with_one_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "double range" in err


def test_verify_json_is_strict_when_a_check_fails(capsys, monkeypatch):
    failed = IdentityReport("pair_sum_scaling_positivity", 4.0, math.inf, 1e-12)
    monkeypatch.setattr(cli, "run_suite", lambda seed: SuiteResult((failed,), seed, 0.1))
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 1

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    data = json.loads(out, parse_constant=reject)
    assert data["reports"][0]["abs_err"] == "inf"


#: Arguments each subcommand runs on.
VALID_ARGV = {
    "ext": TAU_CURVE,
    "levi": TAU_CURVE,
    "vary1": (*TAU_CURVE, "--mu", "0.3-0.2i"),
    "vary2": (*TAU_CURVE, "--mu", "0.3-0.2i"),
    "pair-sum": (*TAU_CURVE, "--mu", "0.3-0.2i"),
    "solve-field": (*TAU_CURVE, "--mu-fn", "exp2pist", "--grid", "8"),
    "eq11": (*TAU_CURVE, "--mu-fn", "coscos", "--grid", "8"),
    "eq15": (*TAU_CURVE, "--mu-fn", "cos2pis", "--grid", "8"),
    "distance": ("--tau", "0+1i", "--tau2", "0.5+2i", "--max-pq", "5"),
    "bound": (*TAU_CURVE, "--mu", "0.6+0.8i"),
    "sweep": ("--curve", "2,1", "--re", "0:0.5:0.5", "--im", "1:2:1"),
    "verify": ("--seed", "3", "--format", "json"),
}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_out_is_refused(tmp_path, capsys, name):
    # every command writes to stdout; a file is a shell redirection
    target = tmp_path / "out"
    code, out, err = run(capsys, name, *VALID_ARGV[name], "--out", str(target))
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --out" in err
    assert not target.exists()


class _FailingStdout:
    """A stdout whose ``write`` (or only its ``flush``, as a full buffered
    stream's) raises ``OSError``."""

    def __init__(self, method):
        self.method = method

    def write(self, text):
        if self.method == "write":
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("name", ["ext", "sweep"])  # one text, and one in pieces
def test_stdout_error_exits_3_with_one_line(capsys, monkeypatch, name, method):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(method))
    code = main([name, *VALID_ARGV[name]])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and "No space left on device" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_3_from_the_entry_point():
    # block-buffered, a short payload reaches the device only at the flush,
    # and the interpreter's flush at exit must not fail a second time
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "extorus.cli", "ext", "--tau", "0+1i", "--curve", "1,0"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and "No space left on device" in proc.stderr


def test_infinite_ratio_exits_1(capsys, monkeypatch):
    # every float of a one-row payload must be finite, the ratio of its sides too
    monkeypatch.setattr(cli, "teich_bound_check",
                        lambda *args: IdentityReport("teich_bound", 1e300, 1e-300, 1e-6))
    code, out, err = run(capsys, "bound", "--tau", "0+1i", "--curve", "1,0", "--mu", "1+0i")
    assert (code, out) == (1, "")
    assert "double range" in err


@pytest.mark.parametrize("argv", [
    # each command writes one format: only verify takes --format
    ("ext", "--tau", "0+1i", "--curve", "1,0", "--format", "csv"),
    ("ext", "--tau", "0+1i", "--curve", "1,0", "--format", "json"),
    ("sweep", "--curve", "1,0", "--re", "0:0:1", "--im", "1:1:1", "--format", "json"),
    ("sweep", "--curve", "1,0", "--re", "0:0:1", "--im", "1:1:1", "--format", "csv"),
    # vary1 reads only the field mean, which is 0 for every catalog field
    ("vary1", "--tau", "0.3+1.2i", "--curve", "2,1", "--mu-fn", "cos2pis", "--grid", "64"),
    # on a constant field d/dz vanishes: the grid commands' outputs would all be 0
    ("solve-field", *TAU_CURVE, "--mu", "1+0i", "--grid", "8"),
    ("eq11", *TAU_CURVE, "--mu", "1+0i", "--grid", "8"),
    ("eq15", *TAU_CURVE, "--mu", "1+0i", "--grid", "8"),
], ids=["ext-csv", "ext-json", "sweep-json", "sweep-csv", "vary1-mu-fn", "solve-field-mu",
        "eq11-mu", "eq15-mu"])
def test_removed_options_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.strip()


@pytest.mark.parametrize("argv,flag", [
    (("vary1", "--tau", "0+1i", "--curve", "1,0", "--mu-fn", "coscos"), "--mu-fn"),
    (("sweep", "--curve", "1,0", "--format", "json"), "--format"),
], ids=["vary1-mu-fn", "sweep-format"])
def test_unrecognized_flag_is_named_before_a_missing_one(capsys, argv, flag):
    # argparse checks required flags first; the error names the unknown one
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err and "required" not in err


@pytest.mark.parametrize("argv,flag", [
    (("eq15", "--tau", "0+1i", "--curve", "1,0", "--mu", "cos2pis", "--grid", "16"), "--mu"),
    (("eq15", "--tau", "0+1i", "--curve", "1,0", "--mu", "1+0i"), "--mu"),
    (("distance", "--tau", "0+1i", "--tau2", "0+2i", "--max", "5"), "--max"),
    (("verify", "--se", "3"), "--se"),
], ids=["eq15-mu-field", "eq15-mu-constant", "distance-max", "verify-se"])
def test_abbreviated_flags_exit_2(capsys, argv, flag):
    # a flag is known only by its full name: no prefix stands for --mu-fn, --max-pq or --seed
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


def test_complex_values_round_trip_through_output(capsys):
    data = run_json(capsys, "ext", "--tau", "0.333333333333333314+1.25i", "--curve", "1,0")
    z = parse_complex(data["tau"])
    assert z == complex(0.333333333333333314, 1.25)


def test_help_lists_flags(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for name in ("ext", "levi", "sweep", "verify", "distance"):
        assert name in out
    code, out, _ = run(capsys, "ext", "--help")
    assert code == 0
    for flag in ("--tau", "--curve"):
        assert flag in out
    assert "--format" not in out and "--out" not in out
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0 and "--format {json}" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "extorus.cli", "ext", "--tau", "0+1i", "--curve", "1,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ext"] == 1.0


#: Runs ``main`` on its arguments in a fresh interpreter; prints the exit
#: code and whether numpy's core was loaded.
_PROBE = """
import contextlib, io, sys
from extorus.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy._core" in sys.modules)
"""

_SCALAR = ("--tau", "0.3+1.1i", "--curve", "2,1")


def _fresh(code: str, *argv: str) -> str:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("argv,loads_numpy", [
    (("ext", *_SCALAR), False),
    (("levi", *_SCALAR), False),
    (("vary1", *_SCALAR, "--mu", "0.3-0.2i"), False),
    (("vary2", *_SCALAR, "--mu", "0.3-0.2i"), False),
    (("pair-sum", *_SCALAR, "--mu", "0.3-0.2i"), False),
    (("bound", *_SCALAR, "--mu", "0.6+0.8i"), False),
    (("distance", "--tau", "0+1i", "--tau2", "0.3+2i", "--max-pq", "1000"), False),
    (("sweep", "--curve", "1,1", "--re", "0:1:0.5", "--im", "1:2:0.5"), False),
    (("solve-field", *_SCALAR, "--mu-fn", "coscos", "--grid", "8"), True),
], ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
def test_only_array_commands_load_numpy(argv, loads_numpy):
    assert _fresh(_PROBE, *argv) == f"0 {loads_numpy}"


def test_importing_the_cli_imports_every_module_but_not_numpy():
    # the benchmark's tracer wraps functions in the modules loaded with the CLI
    out = _fresh('import sys, extorus.cli; print("numpy._core" in sys.modules, *sys.modules)')
    numpy_loaded, *modules = out.split()
    assert numpy_loaded == "False"
    for name in ("moduli", "harmonic", "beltrami", "variation", "oracles", "verify"):
        assert f"extorus.{name}" in modules


def test_import_without_numpy_fails_at_once():
    # a None entry in sys.modules makes numpy unfindable
    out = _fresh("import sys\nsys.modules['numpy'] = None\n"
                 "try:\n    import extorus\nexcept ImportError as exc:\n    print(exc)")
    assert out == "extorus needs numpy"
