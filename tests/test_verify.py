"""Finite-difference oracles and the cross-check suite."""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from extorus.moduli import CurveClass, Modulus
from extorus.variation import IdentityReport
from extorus.verify import (
    SuiteResult,
    _rows,
    _worst_of,
    fd_first_variation,
    fd_levi_form,
    fd_second_variation,
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


def test_fd_first_variation_anchors():
    assert fd_first_variation(I, HORIZ, 1.0) == pytest.approx(2.0, abs=1e-7)
    assert fd_first_variation(I, HORIZ, 1j) == pytest.approx(0.0, abs=1e-7)
    assert fd_first_variation(I, CurveClass(0, 1), 1.0) == pytest.approx(
        -2.0, abs=1e-7
    )


def test_fd_second_variation_anchors():
    assert fd_second_variation(I, HORIZ, 1.0) == pytest.approx(4.0, abs=1e-5)
    assert fd_second_variation(I, HORIZ, 1j) == pytest.approx(4.0, abs=1e-5)


def test_fd_levi_form_anchors():
    assert fd_levi_form(I, HORIZ) == pytest.approx(0.5, abs=1e-6)
    assert fd_levi_form(Modulus(0.0, 2.0), HORIZ) == pytest.approx(
        0.0625, abs=1e-6
    )
    assert fd_levi_form(I, CurveClass(1, 1)) == pytest.approx(1.0, abs=1e-6)


def test_fd_preconditions():
    with pytest.raises(ValueError, match="h < 0.5"):
        fd_first_variation(I, HORIZ, 6000.0)
    with pytest.raises(ValueError, match="boundary"):
        fd_levi_form(Modulus(0.0, 1.5e-4), HORIZ)


SAMPLERS = (sample_moduli, sample_curves, sample_directions)


@pytest.mark.parametrize("count", [0, 1, 7, 1000])
def test_samplers_draw_exactly_count(count):
    rng = np.random.default_rng(30)
    for sample in SAMPLERS:
        assert len(sample(rng, count)) == count


def test_samplers_stay_in_range():
    rng = np.random.default_rng(31)
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
        rng = np.random.default_rng(32)
        return [sample(rng, 500) for sample in SAMPLERS]

    assert draw() == draw()


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
        assert repr(_rows(rows, tol)) == repr(expected) == repr(_worst_of(reports)), rows
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
    # far below any finite-difference tolerance must fail them
    ("pair_sum_scaling_positivity", "verify.pair_sum_levi", _scaled(1 + 1e-11)),
    ("levi_fd", "verify.levi_form",
     lambda f: lambda tau, curve: f(tau, curve) * (1 + 1e-4 * tau.im)),
    ("pair_sum_levi_ratio", "verify.pair_sum_levi",
     lambda f: lambda tau, curve, m: f(tau, curve, m) * (1 + 1e-4 * tau.im)),
    ("pair_sum_levi_ratio", "verify.pair_sum_levi", _scaled(1 + 1e-9)),
    # pair_sum_levi sums two of these: it comes out 1 + 1e-4 times too large
    ("pair_sum_levi_ratio", "variation.second_variation_constant", _scaled(1 + 1e-4)),
    ("teich_lower_bound", "variation.teich_geodesic_constant",
     lambda f: lambda tau, m, t: f(tau, m, t * (1 + 1e-4))),
    ("kerckhoff_vs_half_hyperbolic", "verify.kerckhoff_distance",
     _field_changed("value", lambda v: v * (1 + 1e-4))),
    ("kerckhoff_vs_half_hyperbolic", "verify.kerckhoff_distance",
     _field_changed("maximizer", lambda m: CurveClass(1, 0))),
]


@pytest.mark.parametrize("check,target,wrong", WRONG_ANSWERS,
                         ids=[f"{c}-{t}" for c, t, _ in WRONG_ANSWERS])
def test_each_asserted_check_fails_on_a_wrong_answer(monkeypatch, check, target, wrong):
    module_name, attr = target.split(".")
    module = importlib.import_module(f"extorus.{module_name}")
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    result = run_suite(seed=42)
    assert not {r.name: r for r in result.reports}[check].passed
    assert not result.all_passed


def test_asserted_checks_all_have_a_wrong_answer():
    assert {check for check, _, _ in WRONG_ANSWERS} == set(SUITE_CHECKS)


def test_non_positive_pair_sum_stops_the_suite(monkeypatch):
    # positivity is enforced by pair_sum_levi raising, not by a report row
    monkeypatch.setattr("extorus.variation.second_variation_constant",
                        lambda tau, curve, m: -1.0)
    with pytest.raises(ArithmeticError, match="positive"):
        run_suite(seed=42)
