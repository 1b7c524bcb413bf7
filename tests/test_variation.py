"""First and second variations of extremal length, the spectral solve for
the map derivative, and the identity checks built on it."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from extorus.beltrami import (
    FIELD_CATALOG,
    BeltramiField,
    catalog_field,
    constant,
    grid_dz,
    lattice_grid,
)
from extorus.moduli import CurveClass, Modulus, extremal_length, levi_form
from extorus.variation import (
    IdentityReport,
    first_variation,
    identity_eq11_check,
    identity_eq15_evaluate,
    pair_sum_levi,
    second_variation_constant,
    solve_variation_field,
    solver_residual_bound,
    teich_bound_check,
)
from extorus.verify import (
    fd_first_variation,
    fd_second_variation,
    sample_curves,
    sample_directions,
    sample_moduli,
)

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
    }


def test_first_variation_values():
    assert first_variation(I, HORIZ, constant(I, 1.0)) == 2.0
    assert first_variation(I, HORIZ, constant(I, 1j)) == 0.0
    assert first_variation(I, CurveClass(0, 1), constant(I, 1.0)) == -2.0
    # mean-zero fields do not move the length to first order
    assert abs(first_variation(I, HORIZ, catalog_field(I, "cos2pis", 32))) <= 1e-15


def test_first_variation_matches_finite_differences():
    rng = np.random.default_rng(21)
    draws = zip(sample_moduli(rng, 100), sample_curves(rng, 100), sample_directions(rng, 100))
    for tau, curve, m in draws:
        closed = first_variation(tau, curve, constant(tau, m))
        fd = fd_first_variation(tau, curve, m)
        scale = abs(m) * extremal_length(tau, curve)
        assert abs(closed - fd) <= 1e-6 * max(abs(closed), abs(fd), scale)


def test_constant_field_variation_vanishes():
    # for a constant field the affine part cancels and nothing is left
    for tau, curve, m in [
        (I, HORIZ, 1.0),
        (I, HORIZ, 1j),
        (SKEW, CurveClass(2, 1), 0.3 - 0.2j),
    ]:
        vf = solve_variation_field(tau, curve, constant(tau, m), 16)
        assert np.max(np.abs(vf.periodic)) == 0.0
        assert np.max(np.abs(vf.gradient)) == 0.0
        assert vf.residual == 0.0


def test_affine_part_cancels_for_fields_with_a_mean():
    # the period conditions pin b = -conj(c), so Re(b z + c zbar) = 0: the
    # mean of a field leaves its solve as it is, up to rounding
    rng = np.random.default_rng(23)
    names = sorted(FIELD_CATALOG)
    for tau, curve in zip(sample_moduli(rng, 200), sample_curves(rng, 200)):
        m = complex(*rng.uniform(-0.5, 0.5, 2))
        mode = 0.1 * catalog_field(tau, names[rng.integers(len(names))], 8).samples
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
        for name in ("sin2pit", "coscos", "exp2pist"):
            vf = solve_variation_field(tau, curve, catalog_field(tau, name, 32), 32)
            assert vf.residual <= solver_residual_bound(tau, 32, float(np.abs(vf.periodic).max()))
            assert abs(np.mean(vf.periodic)) <= 1e-14


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
    field = catalog_field(SKEW, "coscos", 64)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = identity_eq15_evaluate(SKEW, CurveClass(1, 1), field, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak - start < 4 * n * n * 16


def test_solver_in_place_work_stays_inside():
    # at n == field.n the solve reads the field's own samples
    field = catalog_field(SKEW, "sinsin", 32).scaled(0.3 - 0.1j)
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
    with pytest.raises(ValueError, match="at least the field resolution"):
        solve_variation_field(I, HORIZ, field, 16)


def test_gradient_is_gauge_independent():
    # the spectral derivative does not see the mean-zero gauge choice
    rng = np.random.default_rng(22)
    p = rng.standard_normal((16, 16))
    shifted = p + 3.7
    diff = grid_dz(p + 0j, I) - grid_dz(shifted + 0j, I)
    assert np.max(np.abs(diff)) <= 1e-13


def test_eq11_across_catalog():
    for tau, curve in [(I, HORIZ), (SKEW, CurveClass(1, 1))]:
        for name in ("cos2pis", "icos2pis", "exp2pit", "sinsin"):
            for n in (32, 64):
                report = identity_eq11_check(tau, curve, catalog_field(tau, name, n), n)
                assert report.passed, report
                assert report.rel_err <= 1e-12


def test_eq11_imaginary_cosine_value():
    report = identity_eq11_check(I, HORIZ, catalog_field(I, "icos2pis", 64), 64)
    assert report.lhs == pytest.approx(2.0, abs=1e-12)
    assert report.rhs == pytest.approx(2.0, abs=1e-12)
    assert report.name == "eq11[grid64,n=64]"


def test_second_variation_values():
    assert second_variation_constant(I, HORIZ, 1.0) == pytest.approx(4.0, abs=1e-14)
    assert second_variation_constant(I, HORIZ, 1j) == pytest.approx(4.0, abs=1e-14)
    assert second_variation_constant(Modulus(0.0, 2.0), HORIZ, 1.0) == pytest.approx(
        2.0, abs=1e-14
    )
    # the closed form collapses to 4 |m|^2 Ext
    rng = np.random.default_rng(23)
    draws = zip(sample_moduli(rng, 100), sample_curves(rng, 100), sample_directions(rng, 100))
    for tau, curve, m in draws:
        sv = second_variation_constant(tau, curve, m)
        expected = 4.0 * abs(m) ** 2 * extremal_length(tau, curve)
        assert abs(sv - expected) <= 1e-12 * expected


def test_second_variation_keeps_its_digits_at_tiny_extremal_length():
    # 4 |m|^2 |w_z|^2 is subnormal here although the result is normal
    tau, curve = Modulus(0.0, 1e150), HORIZ
    for m in (1e-10, 1e-8, 1e-10j, 3e-11 - 4e-11j):
        expected = 4.0 * abs(m) ** 2 * extremal_length(tau, curve)
        assert abs(second_variation_constant(tau, curve, m) - expected) <= 1e-15 * expected


def test_second_variation_matches_finite_differences():
    rng = np.random.default_rng(24)
    draws = zip(sample_moduli(rng, 100), sample_curves(rng, 100), sample_directions(rng, 100))
    for tau, curve, m in draws:
        closed = second_variation_constant(tau, curve, m)
        fd = fd_second_variation(tau, curve, m)
        scale = abs(m) ** 2 * extremal_length(tau, curve)
        assert abs(closed - fd) <= 1e-5 * max(abs(closed), abs(fd), scale)


def test_pair_sum_values_and_scaling():
    assert pair_sum_levi(I, HORIZ, 1.0) == pytest.approx(8.0, abs=1e-13)
    assert pair_sum_levi(Modulus(0.0, 2.0), HORIZ, 1.0) == pytest.approx(
        4.0, abs=1e-13
    )
    rng = np.random.default_rng(25)
    draws = zip(sample_moduli(rng, 100), sample_curves(rng, 100), sample_directions(rng, 100))
    for tau, curve, m in draws:
        ps = pair_sum_levi(tau, curve, m)
        assert ps > 0.0
        assert abs(pair_sum_levi(tau, curve, 2 * m) - 4.0 * ps) <= 1e-12 * ps
        expected = 8.0 * abs(m) ** 2 * extremal_length(tau, curve)
        assert abs(ps - expected) <= 1e-12 * expected
    with pytest.raises(ValueError, match="nonzero"):
        pair_sum_levi(I, HORIZ, 0.0)


def test_underflow_is_not_a_second_variation(monkeypatch):
    # |m|^2 rounds to 0 or a subnormal: that is underflow, not a value
    for m in (1e-170, 1e-155j):
        with pytest.raises(FloatingPointError, match="underflow"):
            second_variation_constant(I, HORIZ, m)
    with pytest.raises(FloatingPointError, match="underflow"):
        pair_sum_levi(I, HORIZ, 1e-200)
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
        for field in (constant(far, 1.0), catalog_field(far, "coscos", 16)):
            with pytest.raises(OverflowError, match="double range"):
                identity_eq11_check(far, diag, field, 16)
            with pytest.raises(OverflowError, match="double range"):
                identity_eq15_evaluate(far, diag, field, 16)
    for m in (1e-200, 1e200):
        with pytest.raises(OverflowError, match="overflowed"):
            second_variation_constant(far, diag, m)
    with pytest.raises(OverflowError, match="overflowed"):
        pair_sum_levi(far, diag, 1e-200)
    # Ext itself is inf at the first; at the second Ext = 1e308 and 2 Ext is inf
    for tau in (Modulus(0.0, 1.3403e154), Modulus(1e154, 1.0)):
        with pytest.raises(OverflowError, match="double range"):
            teich_bound_check(tau, CurveClass(0, 1), 1.0)


def test_pair_sum_matches_paired_finite_differences():
    tau, curve, m = Modulus(0.0, 2.0), HORIZ, 1.0
    fd = fd_second_variation(tau, curve, m) + fd_second_variation(tau, curve, m * 1j)
    assert pair_sum_levi(tau, curve, m) == pytest.approx(fd, abs=1e-5)


def test_pair_sum_to_levi_ratio_is_constant():
    # dividing out the squared chart velocity 4 y^2 of the unit stretch
    # leaves the same constant at every point and class
    rng = np.random.default_rng(26)
    ratios = []
    for tau, curve in zip(sample_moduli(rng, 50), sample_curves(rng, 50)):
        velocity_sq = 4.0 * tau.im**2
        ratios.append(
            pair_sum_levi(tau, curve, 1.0) / (levi_form(tau, curve) * velocity_sq)
        )
    assert max(ratios) - min(ratios) <= 1e-12
    assert ratios[0] == pytest.approx(4.0, abs=1e-12)


def test_eq15_constant_fields_vanish():
    for tau, curve in [(I, HORIZ), (Modulus(0.0, 2.0), CurveClass(2, 1))]:
        for m in (1.0, 0.5j, 0.3 - 0.2j):
            report = identity_eq15_evaluate(tau, curve, constant(tau, m), 8)
            assert report.passed
            assert abs(report.lhs) <= 1e-12 and report.rhs == 0.0


def test_eq15_cosine_reports_both_sides():
    # 4 |w_z|^2 mean |cos 2 pi s|^2 with |w_z|^2 = 1/4 at (i, (1,0))
    field = catalog_field(I, "cos2pis", 64)
    report = identity_eq15_evaluate(I, HORIZ, field, 64)
    assert report.passed
    assert report.lhs == pytest.approx(0.5, abs=1e-15)
    assert report.rhs == pytest.approx(0.5, abs=1e-15)
    assert report.rel_err <= 1e-15


def test_teich_bound_anchor_values():
    for m in (1.0, 1j):
        report = teich_bound_check(I, HORIZ, m)
        assert report.name == "teich_bound"
        assert report.passed
        # Ext = 1 at (i, (1,0)); the exact second difference is 4 (sinh h / h)^2
        assert report.rhs == 4.0 * (math.sinh(1e-3) / 1e-3) ** 2
        assert report.rhs == pytest.approx(4.0 + 4e-6 / 3.0, abs=1e-12)
        assert report.abs_err <= 1e-9


def test_teich_bound_holds_at_random_points():
    rng = np.random.default_rng(27)
    for tau, curve in zip(sample_moduli(rng, 25), sample_curves(rng, 25)):
        for k in range(8):
            m = complex(math.cos(math.pi * k / 4), math.sin(math.pi * k / 4))
            report = teich_bound_check(tau, curve, m)
            assert report.passed, (tau, curve, m, report)


def test_teich_bound_preconditions():
    with pytest.raises(ValueError, match="unimodular"):
        teich_bound_check(I, HORIZ, 0.5)
