"""Exact oracles and the cross-check suite."""

import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import pathlib
import random
import shlex
import subprocess
import sys

import numpy as np
import pytest

import extorus
from extorus.cli import main
from extorus.moduli import (
    CurveClass,
    MappingClass,
    Modulus,
    extremal_length,
    parse_complex,
    parse_curve,
)
from extorus.oracles import (
    _path_levi_form,
    _path_second_variation,
    _stretch_even_part,
    _stretch_odd_part,
)
from extorus.verify import (
    _SUITE,
    IdentityReport,
    SuiteResult,
    format_table,
    run_checks,
    run_suite,
    sample_curves,
    sample_directions,
    sample_mapping_class,
    sample_moduli,
)

I = Modulus(0.0, 1.0)
HORIZ = CurveClass(1, 0)

SUITE_CHECKS = [
    "ext_reciprocal",
    "energy_equals_ext",
    "hopf_direction",
    "marking_invariance",
    "first_variation_fd",
    "second_variation_fd",
    "eq11_catalog",
    "eq15_constant",
    "eq15_catalog",
    "pair_sum_scaling_positivity",
    "levi_fd",
    "pair_sum_levi_ratio",
    "teich_lower_bound",
    "kerckhoff_vs_half_hyperbolic",
]


def test_stretch_odd_part_anchors():
    assert _stretch_odd_part(I, HORIZ, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert _stretch_odd_part(I, HORIZ, 1j) == 0.0
    assert _stretch_odd_part(I, CurveClass(0, 1), 1.0) == pytest.approx(-2.0, abs=1e-15)


def test_path_second_variation_anchors():
    assert _path_second_variation(I, HORIZ, 1.0) == pytest.approx(4.0, abs=1e-14)
    assert _path_second_variation(I, HORIZ, 1j) == pytest.approx(4.0, abs=1e-14)


def test_path_levi_form_anchors():
    assert _path_levi_form(I, HORIZ) == pytest.approx(0.5, abs=1e-15)
    assert _path_levi_form(Modulus(0.0, 2.0), HORIZ) == pytest.approx(0.0625, abs=1e-16)
    assert _path_levi_form(I, CurveClass(1, 1)) == pytest.approx(1.0, abs=1e-15)


def test_oracles_answer_where_a_difference_step_did_not():
    # a step of 1e-4 needed |m| < 5000 and Im tau > 2e-4; the exact oracles
    # scale their step to the direction and need neither
    assert _path_second_variation(I, HORIZ, 6000.0) == pytest.approx(4.0 * 6000.0**2, rel=1e-14)
    assert _stretch_odd_part(I, HORIZ, 6000.0) == pytest.approx(12000.0, rel=1e-14)
    near = Modulus(0.0, 1.5e-4)  # levi_form is Ext / (2 (Im tau)^2) = 1 / (2 Im tau^3)
    assert _path_levi_form(near, HORIZ) == pytest.approx(0.5 / 1.5e-4**3, rel=1e-14)
    assert _stretch_even_part(near, HORIZ, 1j) == pytest.approx(1.0 / 1.5e-4, rel=1e-14)


SAMPLERS = (sample_moduli, sample_curves, sample_directions)


@pytest.mark.parametrize("count", [0, 1, 7, 1000])
def test_samplers_draw_exactly_count(count):
    rng = random.Random(30)
    for sample in SAMPLERS:
        assert len(sample(rng, count)) == count


def test_samplers_stay_in_range():
    rng = random.Random(31)
    moduli = sample_moduli(rng, 20_000)
    assert all(-1.0 <= tau.re < 1.0 and 0.3 <= tau.im < 3.0 for tau in moduli)
    directions = sample_directions(rng, 20_000)
    assert all(0.05 <= abs(m) < 0.5 for m in directions)
    curves = sample_curves(rng, 20_000)
    assert all(math.gcd(c.p, c.q) == 1 and max(abs(c.p), abs(c.q)) <= 5 for c in curves)
    # every sign-canonical primitive class in the box turns up
    box = {CurveClass(p, q) for p in range(-5, 6) for q in range(-5, 6)
           if math.gcd(p, q) == 1}
    assert len(box) == 40
    assert set(curves) == box
    for _ in range(200):
        mc = sample_mapping_class(rng)
        assert mc.a * mc.d - mc.b * mc.c == 1


def test_samplers_repeat_for_a_seed():
    def draw():
        rng = random.Random(32)
        return [sample(rng, 500) for sample in SAMPLERS]

    assert draw() == draw()


def test_samplers_draw_a_pinned_stream():
    # every draw is built from random(), whose sequence for a seed Python
    # keeps across versions, so these hold on every Python and numpy
    assert sample_moduli(random.Random(0), 2) == [
        Modulus(0.6888437030500962, 2.3464768879388167),
        Modulus(-0.15885683833831, 0.9990752257910012),
    ]
    assert sample_curves(random.Random(0), 4) == [
        CurveClass(4, 3), CurveClass(1, 3), CurveClass(0, 1), CurveClass(-3, 2)]
    assert sample_directions(random.Random(0), 2) == [
        0.02148151086108811 - 0.42945290933312197j, -0.013397516083672614 + 0.2388818112732599j]
    assert sample_mapping_class(random.Random(0)) == MappingClass(1, 1, 1, 2)
    assert sample_mapping_class(random.Random(1)) == MappingClass(0, 1, -1, 0)


@pytest.mark.parametrize("seed", [-5, -1, 5.0, 0.5, "5"])
def test_suite_refuses_a_negative_or_non_integer_seed(seed):
    # random.Random would replay abs(seed) for a negative seed and hash the rest
    with pytest.raises(ValueError, match="non-negative integer"):
        run_suite(seed)


def test_suite_does_not_load_numpy_random():
    # a fresh interpreter: the tests themselves load numpy.random
    code = ("import sys\nfrom extorus.verify import run_suite\n"
            "assert run_suite(0).all_passed\nprint(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    src = str(pathlib.Path(extorus.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_rows_builds_the_report_worst_of_picks(monkeypatch):
    # a check whose input k gives row k of the case: the report names the
    # input of the row it picks
    verify = importlib.import_module("extorus.verify")
    tol = 1e-9
    tie = [(1.0, 1.0 + 2.0**-40, 0.0), (2.0, 2.0 + 2.0**-39, 0.0)]  # equal rel_err
    floored = (1e-8, 0.0, 1e6)  # passes only through its scale
    worst = (3.0, 3.0 + 1e-11, 0.0)
    fail_a, fail_b = (1.0, 2.0, 0.0), (5.0, -5.0, 0.0)
    nan_row = (math.nan, 1.0, 0.0)
    cases = [
        [*tie, floored],
        [*tie, worst, floored],
        [floored, fail_a, worst, fail_b, nan_row],  # the NaN row is never reached
        [(0.0, 0.0, 0.0)],
    ]

    def _rows(rows, tol):
        monkeypatch.setitem(verify._SUITE, "demo", (tol, None, lambda k: [rows[k]]))
        [report] = run_checks([("demo", [(k,) for k in range(len(rows))])]).reports
        return report

    for rows in cases:
        reports = [IdentityReport("demo", lhs, rhs, tol, scale,
                                  f"extorus verify --only demo --k={k}")
                   for k, (lhs, rhs, scale) in enumerate(rows)]
        failing = [r for r in reports if not r.passed]
        expected = failing[0] if failing else max(reports, key=lambda r: r.rel_err)
        assert repr(_rows(rows, tol)) == repr(expected), rows
    assert _rows(cases[0], tol).lhs == 1.0  # a tie goes to the first row
    assert _rows(cases[0] + [(1e-8, 0.0, 0.0)], tol).lhs == 1e-8  # no floor, no pass
    assert _rows(cases[1], tol).lhs == 3.0
    assert _rows(cases[2], tol).lhs == 1.0 and not _rows(cases[2], tol).passed
    # a row reached with a side that is not finite is outside double range:
    # it raises, and no report is made
    for bad in (nan_row, (1.0, -math.inf, 0.0)):
        with pytest.raises(OverflowError, match="double range"):
            _rows([worst, bad, fail_a], tol)
    # a report with a NaN side fails
    assert not IdentityReport("", 1.0, math.nan, tol).passed


def test_small_sides_pass_only_if_their_ratio_does(capsys):
    # 2.8e-24 against 1.5e-33: abs_err is far below the tolerance, the ratio 1.8e9
    code = main(["verify", "--only", "eq11_catalog", "--tau=0+1e-11i", "--curve=0,1",
                 "--mu-fn=coscos", "--grid=16", "--format", "json"])
    [report] = json.loads(capsys.readouterr().out)["reports"]
    assert code == 1 and report["pass"] is False
    assert report["abs_err"] < report["tolerance"] < report["rel_err"]


def test_stretch_floor_reads_ext_once_per_draw(monkeypatch):
    # one Ext per draw serves all 16 directions of check 13
    verify = importlib.import_module("extorus.verify")
    calls = []

    def counted(tau, curve):
        calls.append((tau, curve))
        return extremal_length(tau, curve)

    monkeypatch.setattr(verify, "extremal_length", counted)
    _, sample, _ = verify._SUITE["teich_lower_bound"]
    run_checks([("teich_lower_bound", sample(random.Random(0)))])
    assert len(calls) == 50


def test_suite_passes_with_defaults():
    result = run_suite()
    assert isinstance(result, SuiteResult)
    assert result.all_passed
    assert result.seed == 42
    assert [r.name for r in result.reports] == SUITE_CHECKS
    assert result.elapsed_seconds < 60.0
    for r in result.reports:
        assert r.passed, r


def test_suite_is_deterministic_for_a_seed():
    a = run_suite(seed=42)
    b = run_suite(seed=42)
    assert a.reports == b.reports
    ja = json.loads(a.to_json_text())
    jb = json.loads(b.to_json_text())
    assert ja["reports"] == jb["reports"]


def test_suite_verdict_stable_across_seeds():
    for seed in (0, 7, 123):
        assert run_suite(seed=seed).all_passed


#: Each drawing check re-run on further seeds of its own sampler.  A new
#: seeded guarantee is one more row.
SEEDED = [
    ("ext_reciprocal", 3), ("ext_reciprocal", 101),
    ("energy_equals_ext", 12), ("energy_equals_ext", 102),
    ("hopf_direction", 13),
    ("marking_invariance", 5),
    ("first_variation_fd", 21), ("first_variation_fd", 103),
    ("second_variation_fd", 23), ("second_variation_fd", 24), ("second_variation_fd", 104),
    ("pair_sum_scaling_positivity", 25), ("pair_sum_scaling_positivity", 106),
    ("pair_sum_levi_ratio", 26), ("pair_sum_levi_ratio", 106),
    ("teich_lower_bound", 27), ("teich_lower_bound", 108),
    ("kerckhoff_vs_half_hyperbolic", 6), ("kerckhoff_vs_half_hyperbolic", 109),
]


@pytest.mark.parametrize("check,seed", SEEDED, ids=[f"{c}-{s}" for c, s in SEEDED])
def test_check_passes_on_a_further_seed(check, seed):
    _, sample, _ = _SUITE[check]
    result = run_checks([(check, sample(random.Random(seed)))])
    assert result.all_passed, result.reports
    assert result.elapsed_seconds < 1.0


def test_stretch_floor_holds_down_to_im_tau_1e_2():
    # far wider than the suite's draws: below Im tau = 1e-2 the float tau
    # itself limits the distance row
    rng = random.Random(28)
    draws = []
    while len(draws) < 600:
        p, q = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        if math.gcd(p, q) == 1:
            x, y = rng.uniform(-1e4, 1e4), math.exp(rng.uniform(math.log(1e-2), math.log(1e4)))
            draws.append((Modulus(x, y), CurveClass(p, q)))
    [report] = run_checks([("teich_lower_bound", draws)]).reports
    assert report.passed, report


def test_format_table_layout():
    result = run_suite()
    table = format_table(result)
    lines = table.splitlines()
    assert len(lines) == len(SUITE_CHECKS) + 2
    assert "status" in lines[0]
    assert "all checks passed" in lines[-1]
    assert all(line.endswith(" PASS") for line in lines[1:-1])


def test_suite_json_schema():
    data = run_suite().to_json()
    assert set(data) == {"seed", "elapsed_seconds", "all_passed", "reports"}
    assert len(data["reports"]) == len(SUITE_CHECKS)
    for entry in data["reports"]:
        assert set(entry) == {
            "name",
            "lhs",
            "rhs",
            "abs_err",
            "rel_err",
            "tolerance",
            "pass",
            "asserted",
            "replay",
        }
        assert entry["replay"].startswith(f"extorus verify --only {entry['name']} --tau=")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_suite_json_is_strict_for_failing_reports():
    # an infinite side gives abs_err = inf and rel_err = inf / inf = nan
    failed = IdentityReport("kerckhoff_vs_half_hyperbolic", 1.0, -math.inf, 1e-9)
    text = SuiteResult((failed,), 42, 0.5).to_json_text()
    entry = json.loads(text, parse_constant=_reject_constant)["reports"][0]
    assert (entry["rhs"], entry["abs_err"], entry["rel_err"]) == ("-inf", "inf", "nan")
    assert float(entry["rhs"]) == -math.inf and float(entry["abs_err"]) == math.inf
    assert math.isnan(float(entry["rel_err"]))
    assert entry["lhs"] == 1.0


def _scaled(factor):
    return lambda f: lambda *args: f(*args) * factor


def _field_changed(attr, change):
    """Wrap ``f`` so that field ``attr`` of its dataclass result goes through ``change``."""

    def wrong(f):
        def call(*args):
            out = f(*args)
            return dataclasses.replace(out, **{attr: change(getattr(out, attr))})

        return call

    return wrong


# (check, module.attribute or module.Class.method to patch, original -> wrong
# replacement): one small error in what each asserted check compares.
WRONG_ANSWERS = [
    ("ext_reciprocal", "verify.cylinder_modulus", _scaled(1 + 1e-4)),
    ("energy_equals_ext", "verify.energy", _scaled(1 + 1e-4)),
    ("hopf_direction", "verify.hopf", _scaled(1j)),
    ("marking_invariance", "verify.apply_mapping_class",
     lambda f: lambda tau, curve, mc: (f(tau, curve, mc)[0], curve)),
    ("first_variation_fd", "verify.first_variation", _scaled(1 + 1e-4)),
    ("second_variation_fd", "verify.second_variation_constant", _scaled(1 + 1e-4)),
    ("eq11_catalog", "variation.solve_variation_field",
     _field_changed("gradient", lambda g: g * (1 + 1e-4))),
    ("eq15_constant", "variation.solve_variation_field",
     _field_changed("gradient", lambda g: g + 1e-4)),
    # the right side subtracts the field's mean: without it, a field with a
    # mean reads |mu|^2 where |mu - mean mu|^2 belongs
    ("eq15_constant", "beltrami.BeltramiField.mean", lambda f: lambda self: 0j),
    ("eq15_catalog", "variation.solve_variation_field",
     _field_changed("gradient", lambda g: g + 1e-4)),
    ("pair_sum_scaling_positivity", "verify.pair_sum_levi",
     lambda f: lambda tau, curve, m: f(tau, curve, m) * (1 + 1e-4 * abs(m))),
    # the two exact pair-sum checks hold to rounding: a relative error
    # of 1e-11 or 1e-9 must fail them
    ("pair_sum_scaling_positivity", "verify.pair_sum_levi", _scaled(1 + 1e-11)),
    ("levi_fd", "verify.levi_form",
     lambda f: lambda tau, curve: f(tau, curve) * (1 + 1e-4 * tau.im)),
    ("pair_sum_levi_ratio", "verify.pair_sum_levi",
     lambda f: lambda tau, curve, m: f(tau, curve, m) * (1 + 1e-4 * tau.im)),
    ("pair_sum_levi_ratio", "verify.pair_sum_levi", _scaled(1 + 1e-9)),
    # pair_sum_levi sums two of these: it comes out 1 + 1e-4 times too large
    ("pair_sum_levi_ratio", "variation.second_variation_constant", _scaled(1 + 1e-4)),
    ("teich_lower_bound", "verify.teich_geodesic_constant",
     lambda f: lambda tau, m, t: f(tau, m, t * (1 + 1e-4))),
    ("kerckhoff_vs_half_hyperbolic", "verify.kerckhoff_distance",
     _field_changed("value", lambda v: v * (1 + 1e-4))),
    ("kerckhoff_vs_half_hyperbolic", "verify.kerckhoff_distance",
     _field_changed("maximizer", lambda m: CurveClass(1, 0))),
]


#: Targets replaced under every name a module binds them to: ``verify`` and
#: the oracles both walk the stretch line, and the solve and ``grid_dz`` both
#: build the ``d/dz`` symbol.
EVERY_BINDING = {"verify.teich_geodesic_constant", "beltrami.dz_multiplier"}


def _rebind(monkeypatch, module_name, attr, wrong):
    """Replace ``extorus.<module_name>.<attr>`` by ``wrong(original)`` under
    every name an ``extorus`` module binds it to."""
    original = getattr(importlib.import_module(f"extorus.{module_name}"), attr)
    replacement = wrong(original)
    for name, module in list(sys.modules.items()):
        if name == "extorus" or name.startswith("extorus."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


@pytest.mark.parametrize("check,target,wrong", WRONG_ANSWERS,
                         ids=[f"{c}-{t}" for c, t, _ in WRONG_ANSWERS])
def test_each_asserted_check_fails_on_a_wrong_answer(monkeypatch, capsys, check, target, wrong):
    module_name, *owners, attr = target.split(".")
    if target in EVERY_BINDING:
        _rebind(monkeypatch, module_name, attr, wrong)
    else:
        owner = importlib.import_module(f"extorus.{module_name}")
        for name in owners:
            owner = getattr(owner, name)
        monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    assert main(["verify", "--format", "json", "--seed", "42"]) == 1
    result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert result["all_passed"] is False
    failed = {r["name"]: r for r in result["reports"]}[check]
    assert failed["pass"] is False
    # one command, run under the same wrong answer, fails with the same sides
    argv = shlex.split(failed["replay"])
    assert argv[:2] == ["extorus", "verify"]
    assert main([*argv[1:], "--format", "json"]) == 1
    [again] = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["reports"]
    assert (again["lhs"], again["rhs"], again["pass"]) == (failed["lhs"], failed["rhs"], False)


def test_a_wrong_stretch_line_reaches_the_oracle(monkeypatch):
    # the first failing row of teich_lower_bound is an even part (rhs Ext), not a distance
    _rebind(monkeypatch, "beltrami", "teich_geodesic_constant",
            lambda f: lambda tau, m, t: f(tau, m, t * (1 + 1e-4)))
    report = {r.name: r for r in run_suite(seed=42).reports}["teich_lower_bound"]
    assert (report.lhs, report.rhs) == pytest.approx((32.548909, 32.546430), abs=1e-6)
    # the replay names the draw whose Ext is the right side
    flags = dict(arg.removeprefix("--").split("=", 1) for arg in shlex.split(report.replay)[4:])
    assert set(flags) == {"tau", "curve"}
    tau = Modulus.from_complex(parse_complex(flags["tau"]))
    assert report.rhs == extremal_length(tau, parse_curve(flags["curve"]))


def test_asserted_checks_all_have_a_wrong_answer():
    assert {check for check, _, _ in WRONG_ANSWERS} == set(SUITE_CHECKS)


def test_non_positive_pair_sum_stops_the_suite(monkeypatch):
    # positivity is enforced by pair_sum_levi raising, not by a report row
    monkeypatch.setattr("extorus.variation.second_variation_constant",
                        lambda tau, curve, m: -1.0)
    with pytest.raises(ArithmeticError, match="positive"):
        run_suite(seed=42)


# Each check backed by an exact oracle, and each row such a check gained,
# fails on an error of 1e-11, ten to a hundred times its tolerance.
OFF_BY_1E_11 = [
    ("eq11_catalog", "variation.solve_variation_field",
     _field_changed("gradient", lambda g: g * (1 + 1e-11))),
    ("hopf_direction", "verify.hopf", _scaled(1 + 1e-11)),
    ("first_variation_fd", "verify.first_variation", _scaled(1 + 1e-11)),
    ("second_variation_fd", "verify.second_variation_constant", _scaled(1 + 1e-11)),
    ("levi_fd", "verify.levi_form", _scaled(1 + 1e-11)),
    ("teich_lower_bound", "verify.teich_geodesic_constant",
     lambda f: lambda tau, m, t: f(tau, m, t * (1 + 1e-11))),
    ("teich_lower_bound", "verify.hyperbolic_distance", _scaled(1 + 1e-11)),
]


@pytest.mark.parametrize("check,target,wrong", OFF_BY_1E_11,
                         ids=[f"{c}-{t}" for c, t, _ in OFF_BY_1E_11])
def test_each_exact_check_fails_on_a_1e_11_error(monkeypatch, capsys, check, target, wrong):
    test_each_asserted_check_fails_on_a_wrong_answer(monkeypatch, capsys, check, target, wrong)


@pytest.mark.parametrize("module_name,attr", [
    ("variation", "first_variation"),
    ("harmonic", "hopf"),
    ("variation", "second_variation_constant"),
    ("moduli", "levi_form"),
])
def test_a_1e_12_error_turns_the_suite_red(monkeypatch, module_name, attr):
    _rebind(monkeypatch, module_name, attr, _scaled(1 + 1e-12))
    assert not run_suite(seed=42).all_passed


def _conjugated(f):
    return lambda *args: np.conj(f(*args))


def _scaled_in_place(factor):
    """Scale the array an in-place transform writes, where its callers read it."""
    return lambda f: lambda a: np.multiply(f(a), factor, out=a)


def _solve_changed(attr, change):
    return "variation.solve_variation_field", _field_changed(attr, change)


#: Errors of 1e-10, or a conjugation, in each step of the solve, every one
#: rebound under each name a module binds it to.
SOLVER_MUTATIONS = {
    "grid_dz-scaled": ("beltrami.grid_dz", _scaled(1 + 1e-10)),
    "grid_dz-conjugated": ("beltrami.grid_dz", _conjugated),
    "gradient-scaled": _solve_changed("gradient", lambda g: g * (1 + 1e-10)),
    "gradient-conjugated": _solve_changed("gradient", np.conj),
    "mu_samples-scaled": _solve_changed("mu_samples", lambda mu: mu * (1 + 1e-10)),
    "ifft2-scaled": ("beltrami._ifft2_in_place", _scaled_in_place(1 + 1e-10)),
    "dz_multiplier-scaled": ("beltrami.dz_multiplier", _scaled(1 + 1e-10)),
    "dz_multiplier-conjugated": ("beltrami.dz_multiplier", _conjugated),
    "periodic-scaled": _solve_changed("periodic", lambda p: p * (1 + 1e-10)),
}


def _catalog_inputs():
    """Check 7's inputs, and the n = 64 and 128 ones it made before: each field and torus once."""
    _, sample, _ = _SUITE["eq11_catalog"]
    inputs = sample(random.Random(0))
    points = dict.fromkeys(given[:3] for given in inputs)
    return inputs, [(*point, grid) for point in points for grid in (64, 128)]


#: Check 9's input before it moved to the suite's one grid.
DROPPED_EQ15 = (I, HORIZ, "cos2pis", 64)


def test_dropped_catalog_inputs_pass():
    inputs, dropped = _catalog_inputs()
    assert (len(inputs), len(dropped)) == (20, 40)
    assert {grid for *_, grid in inputs} == {32}
    [report] = run_checks([("eq11_catalog", dropped)]).reports
    assert report.passed and report.tolerance == 1e-12
    [report] = run_checks([("eq15_catalog", [DROPPED_EQ15])]).reports
    assert report.passed and report.tolerance == 1e-12


@pytest.mark.parametrize("target,wrong", SOLVER_MUTATIONS.values(), ids=list(SOLVER_MUTATIONS))
def test_n128_catches_no_solver_mutation_that_32_and_64_miss(monkeypatch, target, wrong):
    # check 7 ran every field at n = 64 and 128 too, and check 9 its one at 64:
    # under each mutation no field and torus fails at 64 or 128 while 32 passes
    # it, so check 7 gives the same verdict without those solves, and check 9
    # the same verdict at 32 as at 64
    _rebind(monkeypatch, *target.split("."), wrong)
    inputs, dropped = _catalog_inputs()
    fails = {given: not run_checks([("eq11_catalog", [given])]).reports[0].passed
             for given in inputs + dropped}
    assert any(fails[given] for given in inputs) == any(fails[given] for given in dropped)
    for *point, grid in dropped:
        assert fails[(*point, 32)] or not fails[(*point, grid)], (point, grid)
    point = DROPPED_EQ15[:3]
    assert len({run_checks([("eq15_catalog", [(*point, grid)])]).reports[0].passed
                for grid in (32, 64)}) == 1


#: Solver mutations that turn no check red yet.  Each fails its test, and
#: passes it (a strict XPASS failure) once a per-mode oracle of the solve lands.
SOLVER_GAPS = [
    pytest.param("eq11_catalog", *SOLVER_MUTATIONS[name], id=name,
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason="ROADMAP item 1"))
    for name in ("dz_multiplier-scaled", "dz_multiplier-conjugated", "periodic-scaled")
]


@pytest.mark.parametrize("check,target,wrong", SOLVER_GAPS)
def test_each_solver_gap_turns_verify_red(monkeypatch, capsys, check, target, wrong):
    test_each_asserted_check_fails_on_a_wrong_answer(monkeypatch, capsys, check, target, wrong)


#: All that ``oracles`` may import: ``math``, the torus types, and extremal
#: length with the two paths it is read along.
ORACLE_REACH = {"math", "extorus.moduli.Modulus", "extorus.moduli.CurveClass",
                "extorus.moduli.extremal_length", "extorus.beltrami.modulus_path_constant",
                "extorus.beltrami.teich_geodesic_constant"}

ORACLE_CALLS = [
    (_stretch_odd_part, (Modulus(0.3, 1.1), CurveClass(2, 1), 0.3 - 0.4j)),
    (_stretch_even_part, (Modulus(0.3, 1.1), CurveClass(2, 1), 0.6 + 0.8j)),
    (_path_second_variation, (Modulus(-0.7, 0.4), CurveClass(1, -3), 0.2j)),
    (_path_levi_form, (Modulus(0.9, 2.5), CurveClass(3, 2))),
]


def _raises(f):
    def call(*args, **kwargs):
        raise AssertionError(f"an oracle reached {f.__module__}.{f.__name__}")

    return call


def test_oracles_are_independent(monkeypatch):
    expected = [oracle(*args) for oracle, args in ORACLE_CALLS]
    reach = {name.rpartition(".")[2] for name in ORACLE_REACH}
    for module_name in ("moduli", "beltrami", "harmonic", "variation", "verify"):
        module = importlib.import_module(f"extorus.{module_name}")
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_") and attr not in reach):
                _rebind(monkeypatch, module_name, attr, _raises)
    with pytest.raises(AssertionError, match="reached"):  # the replacements took
        importlib.import_module("extorus.variation").first_variation(I, HORIZ, 1.0)
    assert [oracle(*args) for oracle, args in ORACLE_CALLS] == expected


PACKAGE = pathlib.Path(extorus.__file__).parent


def _imported(path):
    """Every name an import statement of ``path`` reads, in function bodies too,
    as an absolute dotted name: ``from .moduli import Modulus`` reads
    ``extorus.moduli.Modulus``, and ``from . import verify`` ``extorus.verify``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, "the package is flat"
            base = ".".join(filter(None, ("extorus" if node.level else None, node.module)))
            names |= {f"{base}.{alias.name}" for alias in node.names}
    return names


def test_oracles_import_only_their_reach():
    imported = _imported(PACKAGE / "oracles.py")
    assert imported and imported <= ORACLE_REACH, imported - ORACLE_REACH


def test_no_library_module_imports_verify():
    def reads_verify(path):
        return any(name == "extorus.verify" or name.startswith("extorus.verify.")
                   for name in _imported(path))

    assert reads_verify(PACKAGE / "cli.py")  # the scan sees an import of verify
    importers = {path.name for path in PACKAGE.glob("*.py") if reads_verify(path)}
    assert importers <= {"cli.py", "__init__.py"}, importers
