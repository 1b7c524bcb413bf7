"""First and second variations of extremal length, the spectral solve for
the map derivative, and the identity checks built on it."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from extorus.beltrami import (
    FIELD_CATALOG,
    BeltramiField,
    catalog_field,
    grid_dz,
    lattice_grid,
)
from extorus.moduli import CurveClass, Modulus, extremal_length
from extorus.variation import (
    first_variation,
    identity_eq11_check,
    identity_eq15_evaluate,
    pair_sum_levi,
    second_variation_constant,
    solve_variation_field,
    solver_residual_bound,
)
from extorus.oracles import _path_second_variation, _stretch_even_part
from extorus.verify import IdentityReport, compare, run_checks, sample_curves, sample_moduli

I = Modulus(0.0, 1.0)
SKEW = Modulus(0.5, 1.25)
HORIZ = CurveClass(1, 0)
TWO_PI = 2.0 * math.pi


def test_identity_report_pass_and_fail():
    r = IdentityReport("x", 1.0, 1.0, 1e-12)
    assert r.passed and r.abs_err == 0.0 and r.rel_err == 0.0
    r = IdentityReport("x", 1.0, 1.0 + 1e-6, 1e-12)
    assert not r.passed
    r = IdentityReport("x", 0.0, 0.0, 1e-12)
    assert r.passed and r.rel_err == 0.0


def test_identity_report_scale_floor():
    # a 1e-3 discrepancy is fine when the quantity's natural size is 100
    with_scale = IdentityReport("x", 1e-3, 0.0, 1e-4, scale=100.0)
    assert with_scale.passed and with_scale.rel_err == pytest.approx(1e-5)
    without = IdentityReport("x", 1e-3, 0.0, 1e-4)
    assert not without.passed


def test_identity_report_json():
    r = IdentityReport("demo", 2.0, 2.0, 1e-10)
    data = r.to_json()
    assert data["name"] == "demo"
    assert data["pass"] is True
    assert data["asserted"] is True
    assert IdentityReport("demo", 2.0, 3.0, 1e-10).to_json()["asserted"] is True
    assert set(data) == {
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


def test_first_variation_values():
    assert first_variation(I, HORIZ, 1.0) == 2.0
    assert first_variation(I, HORIZ, 1j) == 0.0
    assert first_variation(I, CurveClass(0, 1), 1.0) == -2.0
    assert first_variation(Modulus(0.0, 2.0), HORIZ, 1.0) == 1.0
    # a field moves the length through its mean: mean-zero fields not at all
    assert abs(first_variation(I, HORIZ, catalog_field(I, "cos2pis", 32).mean())) <= 1e-15


def test_constant_field_variation_vanishes():
    # for a constant field the affine part cancels and nothing is left
    for tau, curve, m in [
        (I, HORIZ, 1.0),
        (I, HORIZ, 1j),
        (SKEW, CurveClass(2, 1), 0.3 - 0.2j),
    ]:
        field = BeltramiField(tau, 16, samples=np.full((16, 16), m))
        vf = solve_variation_field(tau, curve, field, 16)
        assert np.max(np.abs(vf.periodic)) == 0.0
        assert np.max(np.abs(vf.gradient)) == 0.0
        assert vf.residual == 0.0
        lhs, rhs, scale = identity_eq11_check(tau, curve, field)
        assert lhs == rhs == 0.0 and compare(lhs, rhs, 1e-10, scale)[2]


def test_affine_part_cancels_for_fields_with_a_mean():
    # the period conditions pin b = -conj(c), so Re(b z + c zbar) = 0: the
    # mean of a field leaves its solve as it is, up to rounding
    rng = random.Random(23)
    names = sorted(FIELD_CATALOG)
    for tau, curve in zip(sample_moduli(rng, 200), sample_curves(rng, 200)):
        m = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        mode = 0.1 * catalog_field(tau, names[rng.randrange(len(names))], 8).samples
        with_mean = solve_variation_field(tau, curve, BeltramiField(tau, 8, samples=m + mode), 8)
        without = solve_variation_field(tau, curve, BeltramiField(tau, 8, samples=mode), 8)
        for attr in ("periodic", "gradient"):
            got, want = getattr(with_mean, attr), getattr(without, attr)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (tau, curve, attr)


def test_solve_real_cosine_mode_is_silent():
    # mu = cos(2 pi s) at tau = i drives a purely imaginary source term,
    # so the real equation has the zero solution
    vf = solve_variation_field(I, HORIZ, catalog_field(I, "cos2pis", 64), 64)
    assert vf.source_sup <= 1e-13
    assert np.max(np.abs(vf.periodic)) <= 1e-13
    assert np.max(np.abs(vf.gradient)) <= 1e-13


def test_solve_imaginary_cosine_mode():
    vf = solve_variation_field(I, HORIZ, catalog_field(I, "icos2pis", 64), 64)
    s, _ = lattice_grid(64)
    expected = -np.sin(TWO_PI * s) / np.pi
    assert np.max(np.abs(vf.periodic - expected)) <= 1e-12
    assert np.max(np.abs(vf.gradient - (-np.cos(TWO_PI * s)))) <= 1e-12
    assert vf.source_sup == pytest.approx(np.pi, rel=1e-12)
    assert vf.residual <= solver_residual_bound(I, 64, float(np.abs(vf.periodic).max()))


def test_solver_residual_across_catalog():
    # 0.99+0.3i puts the sources' modes low in the symbol, where the residual
    # is largest relative to the source sup
    for tau, curve in [(I, HORIZ), (SKEW, CurveClass(1, 1)), (Modulus(0.99, 0.3), HORIZ)]:
        for name in FIELD_CATALOG:
            for n in (32, 64, 128):
                vf = solve_variation_field(tau, curve, catalog_field(tau, name, n), n)
                bound = solver_residual_bound(tau, n, float(np.abs(vf.periodic).max()))
                assert vf.residual <= bound, (tau, name, n)
                assert abs(np.mean(vf.periodic)) <= 1e-14, (tau, name, n)


def test_solver_residual_certificate_grows_with_the_grid():
    # rounding amplified by the n^2 symbol: at n = 1024 the exact solve's
    # residual is 1.46e-10 of the source sup, past a fixed 1e-10, and the
    # periodic part still matches the n = 64 solve to rounding
    curve = CurveClass(1, 1)
    field = catalog_field(SKEW, "exp2pist", 16)
    vf = solve_variation_field(SKEW, curve, field, 1024)
    periodic_sup = float(np.abs(vf.periodic).max())
    assert vf.residual > 1e-10 * vf.source_sup
    assert vf.residual <= solver_residual_bound(SKEW, 1024, periodic_sup)
    coarse = solve_variation_field(SKEW, curve, field, 64)
    assert np.max(np.abs(vf.periodic[::16, ::16] - coarse.periodic)) <= 1e-13 * periodic_sup


def test_solver_upsamples_coarse_fields():
    field = catalog_field(I, "icos2pis", 8)
    vf = solve_variation_field(I, HORIZ, field, 32)
    s, _ = lattice_grid(32)
    assert np.max(np.abs(vf.periodic - (-np.sin(TWO_PI * s) / np.pi))) <= 1e-12


def test_solver_peak_memory_and_owned_outputs():
    # every transform runs in a buffer the solve owns: it peaks near 3.5
    # complex grids, its outputs included
    n = 256
    field = catalog_field(SKEW, "coscos", 64)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        vf = solve_variation_field(SKEW, CurveClass(1, 1), field, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 4 * n * n * 16
    for arr in (vf.periodic, vf.gradient, vf.mu_samples):
        assert arr.flags.c_contiguous and arr.base is None


def test_eq15_peak_memory_is_one_solve():
    # the first solve is reduced to two means before the second runs
    n = 256
    field = catalog_field(SKEW, "coscos", n)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lhs, rhs, scale = identity_eq15_evaluate(SKEW, CurveClass(1, 1), field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert compare(lhs, rhs, 1e-12, scale)[2]
    assert peak - start < 4 * n * n * 16


def test_solver_in_place_work_stays_inside():
    # at n == field.n the solve reads the field's own samples
    samples = catalog_field(SKEW, "sinsin", 32).samples * (0.3 - 0.1j)
    field = BeltramiField(SKEW, 32, samples=samples)
    before = field.samples.copy()
    vf = solve_variation_field(SKEW, CurveClass(2, 1), field, 32)
    assert np.array_equal(field.samples, before)
    assert not field.samples.flags.writeable
    arrays = (vf.periodic, vf.gradient, vf.mu_samples)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_solver_rejects_mismatches():
    field = catalog_field(I, "cos2pis", 32)
    with pytest.raises(ValueError, match="different torus"):
        solve_variation_field(SKEW, HORIZ, field, 32)
    with pytest.raises(ValueError, match="below the native resolution"):
        solve_variation_field(I, HORIZ, field, 16)


def test_gradient_is_gauge_independent():
    # the spectral derivative does not see the mean-zero gauge choice
    rng = np.random.default_rng(22)
    p = rng.standard_normal((16, 16))
    shifted = p + 3.7
    diff = grid_dz(p + 0j, I) - grid_dz(shifted + 0j, I)
    assert np.max(np.abs(diff)) <= 1e-13


def test_eq11_imaginary_cosine_value():
    row = identity_eq11_check(I, HORIZ, catalog_field(I, "icos2pis", 64))
    lhs, rhs, _ = row
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)
    # the input is judged as the suite's check 7 judges it
    [checked] = run_checks([("eq11_catalog", [(I, HORIZ, "icos2pis", 64)])]).reports
    assert (checked.name, checked.tolerance, checked.passed) == ("eq11_catalog", 1e-12, True)
    assert (checked.lhs, checked.rhs) == row[:2]


def test_second_variation_values():
    assert second_variation_constant(I, HORIZ, 1.0) == pytest.approx(4.0, abs=1e-14)
    assert second_variation_constant(I, HORIZ, 1j) == pytest.approx(4.0, abs=1e-14)
    assert second_variation_constant(Modulus(0.0, 2.0), HORIZ, 1.0) == pytest.approx(
        2.0, abs=1e-14
    )


def test_second_variation_keeps_its_digits_at_tiny_extremal_length():
    # 4 |m|^2 |w_z|^2 is subnormal here although the result is normal
    tau, curve = Modulus(0.0, 1e150), HORIZ
    for m in (1e-10, 1e-8, 1e-10j, 3e-11 - 4e-11j):
        expected = 4.0 * abs(m) ** 2 * extremal_length(tau, curve)
        assert abs(second_variation_constant(tau, curve, m) - expected) <= 1e-15 * expected


def test_pair_sum_values_and_scaling():
    assert pair_sum_levi(I, HORIZ, 1.0) == pytest.approx(8.0, abs=1e-13)
    assert pair_sum_levi(Modulus(0.0, 2.0), HORIZ, 1.0) == pytest.approx(
        4.0, abs=1e-13
    )
    # doubling the direction quadruples the sum
    for tau, curve, m in [(I, HORIZ, 1.0), (SKEW, CurveClass(2, 1), 0.3 - 0.2j),
                          (Modulus(-0.7, 0.4), CurveClass(1, -3), 0.2j)]:
        ps = pair_sum_levi(tau, curve, m)
        assert abs(pair_sum_levi(tau, curve, 2 * m) - 4.0 * ps) <= 1e-12 * ps
    with pytest.raises(ValueError, match="nonzero"):
        pair_sum_levi(I, HORIZ, 0.0)


def test_underflow_is_not_a_second_variation(monkeypatch):
    # |m|^2 rounds to 0 or a subnormal: that is underflow, not a value
    for m in (1e-170, 1e-155j):
        with pytest.raises(FloatingPointError, match="underflow"):
            second_variation_constant(I, HORIZ, m)
    with pytest.raises(FloatingPointError, match="underflow"):
        pair_sum_levi(I, HORIZ, 1e-200)
    # and a first variation along a subnormal m would keep only a few digits
    with pytest.raises(FloatingPointError, match="underflow"):
        first_variation(I, HORIZ, 1e-320 + 1e-321j)
    assert second_variation_constant(I, HORIZ, 0.0) == 0.0
    assert pair_sum_levi(I, HORIZ, 1e-150) == pytest.approx(8e-300, rel=1e-14)
    # a sum that is really not positive is named as such
    monkeypatch.setattr("extorus.variation.second_variation_constant",
                        lambda tau, curve, m: 0.0)
    with pytest.raises(ArithmeticError, match="positive"):
        pair_sum_levi(I, HORIZ, 1.0)


def test_squares_past_double_range_raise():
    # |w_z|^2 = 1e400, or an extremal length past double range, raises
    # rather than reaching a report or a positivity check as inf or nan
    far, diag = Modulus(1e200, 1.0), CurveClass(1, 1)
    with warnings.catch_warnings():  # the solve overflows first, silently
        warnings.simplefilter("error")
        for field in (BeltramiField(far, 16, samples=np.ones((16, 16))),
                      catalog_field(far, "coscos", 16)):
            with pytest.raises(OverflowError, match="double range"):
                identity_eq11_check(far, diag, field)
            with pytest.raises(OverflowError, match="double range"):
                identity_eq15_evaluate(far, diag, field)
    for m in (1e-200, 1e200):
        with pytest.raises(OverflowError, match="overflowed"):
            second_variation_constant(far, diag, m)
    with pytest.raises(OverflowError, match="overflowed"):
        pair_sum_levi(far, diag, 1e-200)
    # Ext itself is inf at the first; at the second Ext = 1e308 and 2 Ext is inf
    for tau in (Modulus(0.0, 1.3403e154), Modulus(1e154, 1.0)):
        with pytest.raises(OverflowError, match="double range"):
            run_checks([("teich_lower_bound", [(tau, CurveClass(0, 1))])])


def test_pair_sum_matches_paired_finite_differences():
    tau, curve, m = Modulus(0.0, 2.0), HORIZ, 1.0
    paired = _path_second_variation(tau, curve, m) + _path_second_variation(tau, curve, m * 1j)
    assert pair_sum_levi(tau, curve, m) == pytest.approx(paired, abs=1e-14)


def test_eq15_constant_fields_vanish():
    # dz kills the (0, 0) mode, so the left side is exactly 0; the right
    # side reads the rounding of mu - mean mu
    for tau, curve in [(I, HORIZ), (Modulus(0.0, 2.0), CurveClass(2, 1))]:
        for m in (1.0, 0.5j, 0.3 - 0.2j):
            field = BeltramiField(tau, 8, samples=np.full((8, 8), m))
            lhs, rhs, scale = identity_eq15_evaluate(tau, curve, field)
            assert compare(lhs, rhs, 1e-12, scale)[2]
            assert lhs == 0.0


def test_eq15_ignores_a_constant_added_to_the_field():
    # the solve reads mu - mean mu, and the right side mean |mu - mean mu|^2
    wave = catalog_field(I, "cos2pis", 8).samples
    for tau, curve in [(I, HORIZ), (Modulus(0.0, 2.0), CurveClass(2, 1))]:
        bare = identity_eq15_evaluate(tau, curve, BeltramiField(tau, 8, samples=wave))
        for m in (1.0, 0.5j, 0.3 - 0.2j):
            moved = identity_eq15_evaluate(tau, curve, BeltramiField(tau, 8, samples=wave + m))
            lhs, rhs, scale = moved
            assert (lhs, rhs) == bare[:2]
            assert compare(lhs, rhs, 1e-12, scale)[2] and lhs > 0.0


def test_eq15_cosine_reports_both_sides():
    # 4 |w_z|^2 mean |cos 2 pi s|^2 with |w_z|^2 = 1/4 at (i, (1,0))
    field = catalog_field(I, "cos2pis", 64)
    lhs, rhs, scale = identity_eq15_evaluate(I, HORIZ, field)
    _, rel_err, passed = compare(lhs, rhs, 1e-12, scale)
    assert passed
    assert lhs == pytest.approx(0.5, abs=1e-15)
    assert rhs == pytest.approx(0.5, abs=1e-15)
    assert rel_err <= 1e-15


def test_teich_bound_anchor_values():
    # Ext = 1 at (i, (1,0)), and the even part of the stretch profile is Ext
    for m in (1.0, 1j):
        assert abs(_stretch_even_part(I, HORIZ, m) - 1.0) <= 1e-15
    [checked] = run_checks([("teich_lower_bound", [(I, HORIZ)])]).reports
    assert checked.name == "teich_lower_bound"
    assert checked.passed and checked.tolerance == 1e-13
    assert checked.rhs == 1.0
    assert checked.abs_err <= 1e-15


def test_teich_bound_preconditions():
    with pytest.raises(ValueError, match="unimodular"):
        _stretch_even_part(I, HORIZ, 0.5)
