"""Acceptance gate: one test per shipped guarantee, pinned tolerances.

Each test prints one ``[AC..] PASS/FAIL`` line (visible with ``pytest -s``;
under plain ``pytest -v`` the per-test PASSED/FAILED line carries the same
verdict) and enforces the stated runtime budget.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from extorus.beltrami import (
    BeltramiField,
    catalog_field,
    lattice_grid,
    FIELD_CATALOG,
)
from extorus.harmonic import energy
from extorus.moduli import (
    CurveClass,
    Modulus,
    cylinder_modulus,
    extremal_length,
    hyperbolic_distance,
    kerckhoff_distance,
    levi_form,
)
from extorus.variation import (
    identity_eq11_check,
    identity_eq15_evaluate,
    first_variation,
    pair_sum_levi,
    second_variation_constant,
    solve_variation_field,
    solver_residual_bound,
)
from extorus.oracles import (
    _path_levi_form,
    _path_second_variation,
    _stretch_even_part,
    _stretch_odd_part,
)
from extorus.verify import (
    compare,
    run_suite,
    sample_curves,
    sample_directions,
    sample_moduli,
)

I = Modulus(0.0, 1.0)
HORIZ = CurveClass(1, 0)


@contextmanager
def criterion(label: str, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"[{label}] FAIL {description} (took {elapsed:.2f} s, budget {budget_seconds:g} s)")
        raise AssertionError(
            f"{label} exceeded its runtime budget: {elapsed:.2f} s >= {budget_seconds:g} s"
        )
    print(f"[{label}] PASS {description} ({elapsed:.3f} s)")


def test_ac01_extremal_length_reciprocal_to_cylinder_modulus():
    with criterion(
        "AC01", "ext * cylinder_modulus = 1, rel <= 1e-14, 1000 samples", 1.0
    ):
        rng = random.Random(101)
        worst = 0.0
        for tau, curve in zip(sample_moduli(rng, 1000), sample_curves(rng, 1000)):
            prod = extremal_length(tau, curve) * cylinder_modulus(tau, curve)
            worst = max(worst, abs(prod - 1.0))
        assert worst <= 1e-14, worst


def test_ac02_energy_realizes_extremal_length():
    with criterion(
        "AC02", "harmonic map energy = ext, rel <= 1e-13, 1000 samples", 1.0
    ):
        rng = random.Random(102)
        worst = 0.0
        for tau, curve in zip(sample_moduli(rng, 1000), sample_curves(rng, 1000)):
            ext = extremal_length(tau, curve)
            e = energy(tau, curve)
            worst = max(worst, abs(e - ext) / ext)
        assert worst <= 1e-13, worst


def test_ac03_first_variation_matches_finite_differences():
    with criterion(
        "AC03",
        "closed-form d/dt ext vs the stretch line's odd part at s=0.3, rel <= 1e-13, "
        "200 samples",
        1.0,
    ):
        rng = random.Random(103)
        worst = 0.0
        draws = zip(sample_moduli(rng, 200), sample_curves(rng, 200), sample_directions(rng, 200))
        for tau, curve, m in draws:
            assert abs(m) <= 0.5
            closed = first_variation(tau, curve, m)
            odd = _stretch_odd_part(tau, curve, m)
            scale = max(abs(closed), abs(odd), abs(m) * extremal_length(tau, curve))
            worst = max(worst, abs(closed - odd) / scale)
        assert worst <= 1e-13, worst


def test_ac04_second_variation_matches_finite_differences():
    with criterion(
        "AC04",
        "closed-form d2/dt2 ext vs the constant path's even part at |t m|=0.5, "
        "rel <= 1e-13, 200 samples plus exact anchors",
        2.0,
    ):
        rng = random.Random(104)
        worst = 0.0
        draws = zip(sample_moduli(rng, 200), sample_curves(rng, 200), sample_directions(rng, 200))
        for tau, curve, m in draws:
            closed = second_variation_constant(tau, curve, m)
            oracle = _path_second_variation(tau, curve, m)
            scale = max(abs(closed), abs(oracle), abs(m) ** 2 * extremal_length(tau, curve))
            worst = max(worst, abs(closed - oracle) / scale)
        assert worst <= 1e-13, worst
        # the stretch and shear profiles through tau = i both curve at 4
        assert second_variation_constant(I, HORIZ, 1.0) == pytest.approx(
            4.0, abs=1e-12
        )
        assert second_variation_constant(I, HORIZ, 1j) == pytest.approx(
            4.0, abs=1e-12
        )


def test_ac05_spectral_solver_and_gradient_identity():
    with criterion(
        "AC05",
        "solver residual within its rounding certificate and two-sided gradient identity <= 1e-10 "
        "over the field catalog at N in {32,64,128}, plus the exact cosine solve",
        5.0,
    ):
        bases = [(I, HORIZ), (Modulus(0.5, 1.25), CurveClass(1, 1))]
        for tau, curve in bases:
            for name in sorted(FIELD_CATALOG):
                for n in (32, 64, 128):
                    field = catalog_field(tau, name, n)
                    vf = solve_variation_field(tau, curve, field, n)
                    periodic_sup = float(np.abs(vf.periodic).max())
                    assert vf.residual <= solver_residual_bound(tau, n, periodic_sup), (
                        name,
                        n,
                        vf.residual,
                    )
                    lhs, rhs, scale = identity_eq11_check(tau, curve, field)
                    _, rel_err, passed = compare(lhs, rhs, 1e-10, scale)
                    assert passed and rel_err <= 1e-10, (name, n, lhs, rhs, scale)
        # mu = i cos(2 pi s) at tau = i: wdot is the sine profile of height
        # 1/pi (its sign follows the period convention Re(coeff) = q,
        # Re(coeff tau) = -p, under which the map coefficient at (i,(1,0))
        # is +i)
        vf = solve_variation_field(I, HORIZ, catalog_field(I, "icos2pis", 64), 64)
        s, _ = lattice_grid(64)
        exact = -np.sin(2.0 * np.pi * s) / np.pi
        assert np.max(np.abs(vf.periodic - exact)) <= 1e-12
        assert np.max(np.abs(vf.periodic)) == pytest.approx(1.0 / np.pi, abs=1e-12)


def test_ac06_levi_form_positivity_and_pair_sum():
    with criterion(
        "AC06",
        "pair sum positive on 1000 samples, |m|^2 scaling <= 1e-10, anchor 8.0, "
        "levi vs the paths' second variations <= 1e-13 on a 10x10 grid, "
        "pair-sum/levi ratio constant",
        5.0,
    ):
        rng = random.Random(106)
        count = 1000
        draws = zip(sample_moduli(rng, count), sample_curves(rng, count),
                    sample_directions(rng, count))
        for tau, curve, m in draws:
            ps = pair_sum_levi(tau, curve, m)
            assert ps > 0.0
            ratio = pair_sum_levi(tau, curve, 2.0 * m) / (4.0 * ps)
            assert abs(ratio - 1.0) <= 1e-10
        assert pair_sum_levi(I, HORIZ, 1.0) == pytest.approx(8.0, abs=1e-9)

        worst = 0.0
        for curve in (HORIZ, CurveClass(0, 1), CurveClass(1, 1)):
            for re in np.linspace(-1.0, 1.0, 10):
                for im in np.linspace(0.3, 3.0, 10):
                    tau = Modulus(float(re), float(im))
                    closed = levi_form(tau, curve)
                    oracle = _path_levi_form(tau, curve)
                    worst = max(worst, abs(closed - oracle) / max(closed, oracle))
        assert worst <= 1e-13, worst

        # the unit stretch moves tau at chart speed 2 Im(tau); dividing the
        # pair sum by levi * (2 Im tau)^2 leaves the same constant everywhere
        ratios = []
        for tau, curve in zip(sample_moduli(rng, 100), sample_curves(rng, 100)):
            velocity_sq = 4.0 * tau.im**2
            ratios.append(
                pair_sum_levi(tau, curve, 1.0) / (levi_form(tau, curve) * velocity_sq)
            )
        spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
        assert spread <= 1e-6, spread


def test_ac07_paired_gradient_identity_evaluator():
    with criterion(
        "AC07",
        "paired identity: constants pass with a left side of exactly 0; cosine case "
        "asserts 0.5 = 0.5 within 1e-15",
        2.0,
    ):
        for tau, curve in [(I, HORIZ), (Modulus(0.0, 2.0), CurveClass(2, 1))]:
            for m in (1.0, 0.5j, 0.3 - 0.2j):
                field = BeltramiField(tau, 8, samples=np.full((8, 8), m))
                lhs, rhs, scale = identity_eq15_evaluate(tau, curve, field)
                assert compare(lhs, rhs, 1e-12, scale)[2]
                assert lhs == 0.0
        lhs, rhs, scale = identity_eq15_evaluate(I, HORIZ, catalog_field(I, "cos2pis", 64))
        assert compare(lhs, rhs, 1e-12, scale)[2]
        assert lhs == pytest.approx(0.5, abs=1e-15)
        assert rhs == pytest.approx(0.5, abs=1e-15)


def test_ac08_convexity_floor_along_stretch_lines():
    with criterion(
        "AC08",
        "second difference along stretch lines >= -4 ext - 1e-6 and even part = ext, "
        "16 directions x 50 samples, anchors at ext = 1",
        2.0,
    ):
        rng = random.Random(108)
        h = 1e-3
        for tau, curve in zip(sample_moduli(rng, 50), sample_curves(rng, 50)):
            ext0 = extremal_length(tau, curve)
            for k in range(16):
                m = complex(math.cos(math.pi * k / 8.0), math.sin(math.pi * k / 8.0))
                plus = extremal_length(
                    Modulus.from_complex(
                        (tau.value + math.tanh(h) * m * tau.value.conjugate())
                        / (1 + math.tanh(h) * m)
                    ),
                    curve,
                )
                minus = extremal_length(
                    Modulus.from_complex(
                        (tau.value - math.tanh(h) * m * tau.value.conjugate())
                        / (1 - math.tanh(h) * m)
                    ),
                    curve,
                )
                second_diff = (plus - 2.0 * ext0 + minus) / h**2
                assert second_diff >= -4.0 * ext0 - 1e-6, (tau, curve, m)
                assert compare(_stretch_even_part(tau, curve, m), ext0, 1e-13)[2]
        for m in (1.0, 1j):
            assert _stretch_even_part(I, HORIZ, m) == pytest.approx(1.0, abs=1e-15)


def test_ac09_kerckhoff_distance_matches_half_hyperbolic():
    with criterion(
        "AC09",
        "kerckhoff(i, 2i, 50) = ln(2)/2 with maximizer (0,1); agreement with "
        "half the hyperbolic distance to 1e-9 on 50 pairs",
        5.0,
    ):
        kd = kerckhoff_distance(I, Modulus(0.0, 2.0), 50)
        assert abs(kd.value - 0.5 * math.log(2.0)) <= 1e-9
        assert kd.maximizer == CurveClass(0, 1)
        rng = np.random.default_rng(109)
        for _ in range(50):
            x = float(rng.integers(-8, 9)) / 8.0
            y1 = float(math.exp(rng.uniform(math.log(0.3), math.log(3.0))))
            delta = float(rng.uniform(0.01, 2.0))
            if rng.uniform() < 0.5:
                delta = -delta
            t1, t2 = Modulus(x, y1), Modulus(x, y1 * math.exp(delta))
            assert hyperbolic_distance(t1, t2) <= 2.0 + 1e-12
            got = kerckhoff_distance(t1, t2, 50).value
            want = 0.5 * hyperbolic_distance(t1, t2)
            assert abs(got - want) <= 1e-9, (t1, t2)


def test_ac10_verification_suite_deterministic_and_green():
    with criterion(
        "AC10",
        "full suite deterministic, every check passes, under 60 s",
        60.0,
    ):
        first = run_suite()
        second = run_suite()
        assert first.reports == second.reports
        assert first.all_passed
        assert first.elapsed_seconds < 60.0
        for r in first.reports:
            assert r.passed, r
