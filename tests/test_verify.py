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
    fd_first_variation,
    fd_levi_form,
    fd_second_variation,
    format_table,
    run_suite,
    sample_curve,
    sample_direction,
    sample_mapping_class,
    sample_modulus,
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
    assert fd_first_variation(I, HORIZ, 1.0, 1e-4) == pytest.approx(2.0, abs=1e-7)
    assert fd_first_variation(I, HORIZ, 1j, 1e-4) == pytest.approx(0.0, abs=1e-7)
    assert fd_first_variation(I, CurveClass(0, 1), 1.0, 1e-4) == pytest.approx(
        -2.0, abs=1e-7
    )


def test_fd_second_variation_anchors():
    assert fd_second_variation(I, HORIZ, 1.0, 1e-3) == pytest.approx(4.0, abs=1e-5)
    assert fd_second_variation(I, HORIZ, 1j, 1e-3) == pytest.approx(4.0, abs=1e-5)


def test_fd_levi_form_anchors():
    assert fd_levi_form(I, HORIZ, 1e-4) == pytest.approx(0.5, abs=1e-6)
    assert fd_levi_form(Modulus(0.0, 2.0), HORIZ, 1e-4) == pytest.approx(
        0.0625, abs=1e-6
    )
    assert fd_levi_form(I, CurveClass(1, 1), 1e-4) == pytest.approx(1.0, abs=1e-6)


def test_fd_preconditions():
    with pytest.raises(ValueError, match="h > 0"):
        fd_first_variation(I, HORIZ, 1.0, 0.0)
    with pytest.raises(ValueError, match="h < 0.5"):
        fd_first_variation(I, HORIZ, 600.0, 1e-3)
    with pytest.raises(ValueError, match="h > 0"):
        fd_second_variation(I, HORIZ, 1.0, -1e-3)
    with pytest.raises(ValueError, match="step"):
        fd_levi_form(I, HORIZ, 1e-2)
    with pytest.raises(ValueError, match="boundary"):
        fd_levi_form(Modulus(0.0, 1.5e-3), HORIZ, 1e-3)


def test_samplers_stay_in_range():
    rng = np.random.default_rng(31)
    for _ in range(200):
        tau = sample_modulus(rng)
        assert -1.0 <= tau.re <= 1.0 and 0.3 <= tau.im <= 3.0
        curve = sample_curve(rng)
        assert math.gcd(abs(curve.p), abs(curve.q)) == 1
        m = sample_direction(rng)
        assert 0.05 <= abs(m) <= 0.5
        mc = sample_mapping_class(rng)
        assert mc.a * mc.d - mc.b * mc.c == 1


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
    # a failed positivity or maximizer check carries abs_err = inf
    failed = IdentityReport("kerckhoff_vs_half_hyperbolic", 1.0, -math.inf, math.inf,
                            math.nan, False, 1e-9)
    text = SuiteResult((failed,), 42, 0.5, False).to_json_text()
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
