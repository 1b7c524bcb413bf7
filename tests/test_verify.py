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
import subprocess
import sys

import pytest

import extorus
from extorus.moduli import CurveClass, MappingClass, Modulus, extremal_length
from extorus.variation import IdentityReport
from extorus.oracles import (
    _path_levi_form,
    _path_second_variation,
    _stretch_even_part,
    _stretch_odd_part,
)
from extorus.verify import (
    SuiteResult,
    _rows,
    format_table,
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


def test_rows_builds_the_report_worst_of_picks():
    tol = 1e-9
    tie = [(1.0, 1.0 + 2.0**-40, 0.0), (2.0, 2.0 + 2.0**-39, 0.0)]  # equal rel_err
    floored = (1e-8, 0.0, 1e6)  # passes only through its scale
    worst = (3.0, 3.0 + 1e-11, 0.0)
    fail_a, fail_b = (1.0, 2.0, 0.0), (5.0, -5.0, 0.0)
    nan_row = (math.nan, 1.0, 0.0)
    cases = [
        [*tie, floored],
        [*tie, worst, floored],
        [floored, fail_a, worst, fail_b, nan_row],
        [worst, nan_row, fail_a],
        [(0.0, 0.0, 0.0)],
    ]
    for rows in cases:
        reports = [IdentityReport("", lhs, rhs, tol, scale) for lhs, rhs, scale in rows]
        failing = [r for r in reports if not r.passed]
        expected = failing[0] if failing else max(reports, key=lambda r: r.rel_err)
        assert repr(_rows(rows, tol)) == repr(expected), rows
    assert _rows(cases[0], tol).lhs == 1.0  # a tie goes to the first row
    assert _rows(cases[0] + [(1e-8, 0.0, 0.0)], tol).lhs == 1e-8  # no floor, no pass
    assert _rows(cases[1], tol).lhs == 3.0
    assert _rows(cases[2], tol).lhs == 1.0 and not _rows(cases[2], tol).passed
    # a NaN on either side fails
    assert math.isnan(_rows(cases[3], tol).lhs)
    assert not IdentityReport("", 1.0, math.nan, tol).passed


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
        }


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


# (check, module.attribute to patch, original -> wrong replacement): one
# small error in what each asserted check compares.
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
#: the oracles both walk the stretch line.
EVERY_BINDING = {"verify.teich_geodesic_constant"}


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
def test_each_asserted_check_fails_on_a_wrong_answer(monkeypatch, check, target, wrong):
    module_name, attr = target.split(".")
    if target in EVERY_BINDING:
        _rebind(monkeypatch, module_name, attr, wrong)
    else:
        module = importlib.import_module(f"extorus.{module_name}")
        monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    result = run_suite(seed=42)
    assert not {r.name: r for r in result.reports}[check].passed
    assert not result.all_passed


def test_a_wrong_stretch_line_reaches_the_oracle(monkeypatch):
    # the first failing row of teich_lower_bound is an even part (rhs Ext), not a distance
    _rebind(monkeypatch, "beltrami", "teich_geodesic_constant",
            lambda f: lambda tau, m, t: f(tau, m, t * (1 + 1e-4)))
    verify = importlib.import_module("extorus.verify")
    original, draws = verify._draws, []  # the last call of _draws is teich_lower_bound's

    def recorded(rng, count):
        draws.append(original(rng, count))
        return draws[-1]

    monkeypatch.setattr(verify, "_draws", recorded)
    report = {r.name: r for r in run_suite(seed=42).reports}["teich_lower_bound"]
    assert (report.lhs, report.rhs) == pytest.approx((32.548909, 32.546430), abs=1e-6)
    assert report.rhs in {extremal_length(tau, curve) for tau, curve in draws[-1]}


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
def test_each_exact_check_fails_on_a_1e_11_error(monkeypatch, check, target, wrong):
    test_each_asserted_check_fails_on_a_wrong_answer(monkeypatch, check, target, wrong)


@pytest.mark.parametrize("module_name,attr", [
    ("variation", "first_variation"),
    ("harmonic", "hopf"),
    ("beltrami", "pair_hopf"),
    ("variation", "second_variation_constant"),
    ("moduli", "levi_form"),
])
def test_a_1e_12_error_turns_the_suite_red(monkeypatch, module_name, attr):
    _rebind(monkeypatch, module_name, attr, _scaled(1 + 1e-12))
    assert not run_suite(seed=42).all_passed


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
        importlib.import_module("extorus.variation").first_variation(I, HORIZ, None)
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
