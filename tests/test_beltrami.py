"""Deformation fields on the lattice grid, spectral derivatives, and the
modulus paths they generate."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from extorus.beltrami import (
    FIELD_CATALOG,
    BeltramiField,
    _ifft2_in_place,
    catalog_field,
    dz_multiplier,
    grid_dz,
    lattice_grid,
    modulus_path_constant,
    teich_geodesic_constant,
)
from extorus.moduli import CurveClass, Modulus, extremal_length

I = Modulus(0.0, 1.0)
SKEW = Modulus(0.5, 1.25)
TWO_PI = 2.0 * math.pi


def test_lattice_grid_layout():
    s, t = lattice_grid(8)
    assert s.shape == t.shape == (8, 8)
    assert s[3, 0] == 3 / 8
    assert s[3, 5] == 3 / 8
    assert t[0, 5] == 5 / 8
    assert t[3, 5] == 5 / 8
    with pytest.raises(ValueError, match="power of two"):
        lattice_grid(12)
    with pytest.raises(ValueError, match="power of two"):
        lattice_grid(2)


def test_derivative_of_single_modes():
    # z = s + t*tau, so a pure mode in s or t has an exact symbol
    for tau in (I, SKEW):
        y = tau.im
        s, t = lattice_grid(16)
        mode_s = np.exp(2j * np.pi * s)
        mode_t = np.exp(2j * np.pi * t)
        assert np.allclose(
            grid_dz(mode_s, tau),
            (-np.pi * tau.value.conjugate() / y) * mode_s,
            atol=1e-12,
        )
        assert np.allclose(grid_dz(mode_t, tau), (np.pi / y) * mode_t, atol=1e-12)


def test_derivative_of_cosine_row():
    s, _ = lattice_grid(32)
    samples = np.cos(TWO_PI * s) + 0j
    expected = -np.pi * np.sin(TWO_PI * s)
    assert np.max(np.abs(grid_dz(samples, I) - expected)) <= 1e-13


def test_derivative_kills_constants():
    samples = np.full((8, 8), 2.5 - 1.5j)
    assert np.max(np.abs(grid_dz(samples, SKEW))) <= 1e-14


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256])
def test_in_place_transforms_match_numpy_bitwise(n):
    # the solver's outputs are byte-identical to numpy's allocating
    # transforms only while these two facts hold
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    expected = np.fft.ifft2(z)
    got = _ifft2_in_place(z)
    assert got is z
    assert got.tobytes() == expected.tobytes()

    x = rng.standard_normal((n, n))
    buf = np.zeros((n, n), dtype=complex)
    buf.real = x
    np.fft.fft2(buf, out=buf)
    assert buf.tobytes() == np.fft.fft2(x).tobytes()


def test_grid_dz_leaves_its_input_alone():
    rng = np.random.default_rng(7)
    for samples in (rng.standard_normal((16, 16)),
                    rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))):
        samples.flags.writeable = False
        before = samples.copy()
        out = grid_dz(samples, SKEW)
        assert np.array_equal(samples, before)
        assert out.dtype == complex and out.flags.writeable
        assert not np.shares_memory(out, samples)


def test_multipliers_zero_nyquist_row():
    mult = dz_multiplier(I, 8)
    assert np.all(mult[4, :] == 0.0)
    assert np.all(mult[:, 4] == 0.0)


@pytest.mark.parametrize("tau", [I, SKEW, Modulus(0.3, 1e-11), Modulus(-2.5, 1e150),
                                 Modulus(2.9, 0.0013), Modulus(-1.1, 731.0)])
def test_dz_multiplier_keeps_the_bits_of_the_complex_division(tau):
    # the symbol as it was built with np.divide(mult, Im tau): a complex
    # division by (Im tau, 0), which numpy computes as (re + im 0) (1 / Im tau)
    for n in (8, 32, 128):
        j = np.fft.fftfreq(n, d=1.0 / n)[:, None]
        k = np.fft.fftfreq(n, d=1.0 / n)[None, :]
        divided = np.subtract(k, tau.value.conjugate() * j)
        np.multiply(np.pi, divided, out=divided)
        np.divide(divided, tau.im, out=divided)
        divided[n // 2, :] = divided[:, n // 2] = 0.0
        assert np.array_equal(dz_multiplier(tau, n).view(np.uint64), divided.view(np.uint64))


def test_constant_field_basics():
    # a constant field is a grid like any other; 16 equal samples sum exactly
    field = BeltramiField(I, 4, samples=np.full((4, 4), 0.3 - 0.4j))
    assert field.mean() == 0.3 - 0.4j
    assert np.mean(np.abs(field.samples) ** 2) == pytest.approx(0.25, rel=1e-15)
    assert np.allclose(field.grid_samples(16), 0.3 - 0.4j, rtol=0.0, atol=1e-15)


def test_field_construction_validation():
    with pytest.raises(ValueError, match="power of two"):
        BeltramiField(I, 3, samples=np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValueError, match="must be 4 x 4"):
        BeltramiField(I, 4, samples=np.zeros((4, 8), dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        BeltramiField(I, 4, samples=np.full((4, 4), np.nan + 0j))


def test_field_samples_are_read_only():
    field = catalog_field(I, "cos2pis", 8)
    with pytest.raises(ValueError):
        field.samples[0, 0] = 1.0


def test_field_leaves_the_callers_array_writable():
    a = np.zeros((8, 8), dtype=complex)
    field = BeltramiField(I, 8, samples=a)
    assert not field.samples.flags.writeable
    assert a.flags.writeable
    assert not np.shares_memory(field.samples, a)  # a read-only copy, not a view


def test_a_write_to_the_callers_array_does_not_reach_the_field():
    # the finiteness check holds for the field's whole life
    a = np.zeros((8, 8), dtype=complex)
    field = BeltramiField(I, 8, samples=a)
    a[3, 5] = np.nan
    assert np.all(np.isfinite(field.samples))
    assert field.mean() == 0j and not np.any(field.samples)


def test_roots_of_unity_column():
    field = catalog_field(I, "exp2pis", 4)
    col = field.samples[:, 0]
    assert np.allclose(col, [1, 1j, -1, -1j], atol=1e-15)
    # constant along t
    assert np.allclose(field.samples, col[:, None], atol=1e-15)


def test_grid_field_statistics():
    field = catalog_field(I, "cos2pis", 64)
    assert abs(field.mean()) <= 1e-15
    assert np.abs(field.samples).max() == pytest.approx(1.0, rel=1e-15)
    assert np.mean(np.abs(field.samples) ** 2) == pytest.approx(0.5, rel=1e-14)


def test_catalog_names_and_unknown():
    assert set(FIELD_CATALOG) == {
        "cos2pis",
        "sin2pis",
        "exp2pis",
        "icos2pis",
        "cos2pit",
        "sin2pit",
        "exp2pit",
        "coscos",
        "sinsin",
        "exp2pist",
    }
    for name in FIELD_CATALOG:
        field = catalog_field(SKEW, name, 32)
        assert abs(field.mean()) <= 1e-14
    with pytest.raises(ValueError, match="unknown field"):
        catalog_field(I, "nope", 32)


def test_grid_samples_resampling():
    coarse = catalog_field(I, "coscos", 8)
    fine = coarse.grid_samples(32)
    direct = catalog_field(I, "coscos", 32).samples
    assert np.max(np.abs(fine - direct)) <= 1e-13
    assert coarse.grid_samples(8) is coarse.samples
    with pytest.raises(ValueError, match="below the native resolution"):
        coarse.grid_samples(4)


def test_modulus_path_values():
    assert modulus_path_constant(I, 1.0, 0.5).value == pytest.approx(
        1j / 3, abs=1e-15
    )
    assert modulus_path_constant(I, 1j, 0.5).value == pytest.approx(
        0.8 + 0.6j, abs=1e-15
    )
    for t in (-0.7, 0.0, 0.3):
        assert modulus_path_constant(SKEW, 0.0, t) == SKEW
    with pytest.raises(ValueError, match=r"\|t m\| < 1"):
        modulus_path_constant(I, 2.0, 0.5)
    with pytest.raises(ValueError, match=r"\|t m\| < 1"):
        modulus_path_constant(I, 1.0, -1.0)


def test_modulus_path_velocity():
    # d(Im tau)/dt at t = 0 is -2 Im(tau) Re(m)
    h = 1e-6
    for tau, m in [(I, 0.4 + 0j), (SKEW, 0.3 - 0.2j), (Modulus(-0.7, 2.2), -0.5j)]:
        plus = modulus_path_constant(tau, m, h).im
        minus = modulus_path_constant(tau, m, -h).im
        fd = (plus - minus) / (2 * h)
        assert fd == pytest.approx(-2.0 * tau.im * m.real, abs=1e-8)


def test_path_imaginary_part_is_within_8_ulp():
    # against the exact Im tau (1 - |tm|^2) / |1 + tm|^2 of the float inputs, for
    # |tm| <= 0.5 as on the oracles' paths: read off the quotient, it lost up to
    # 8.4e11 ulp where |Re tau| / Im tau is large
    rng = random.Random(1)
    for _ in range(500):
        tau = Modulus(rng.uniform(-1e8, 1e8), math.exp(rng.uniform(math.log(1e-4), math.log(1e4))))
        m, t = cmath.exp(1j * rng.uniform(0.0, TWO_PI)), rng.uniform(-0.5, 0.5)
        a, b = Fraction(t) * Fraction(m.real), Fraction(t) * Fraction(m.imag)
        exact = Fraction(tau.im) * (1 - a * a - b * b) / ((1 + a) ** 2 + b * b)
        got = Fraction(modulus_path_constant(tau, m, t).im)
        assert abs(got - exact) <= 8 * Fraction(math.ulp(float(exact))), (tau, m, t)


def test_extremal_length_along_paths():
    # horizontal class at tau = i: the four classic profiles
    curve = CurveClass(1, 0)
    for t in (0.1, 0.35):
        stretched = modulus_path_constant(I, 1.0, t)
        assert extremal_length(stretched, curve) == pytest.approx(
            (1 + t) / (1 - t), rel=1e-13
        )
        sheared = modulus_path_constant(I, 1j, t)
        assert extremal_length(sheared, curve) == pytest.approx(
            (1 + t**2) / (1 - t**2), rel=1e-13
        )
        assert extremal_length(teich_geodesic_constant(I, 1.0, t), curve) == (
            pytest.approx(math.exp(2 * t), rel=1e-13)
        )
        assert extremal_length(teich_geodesic_constant(I, 1j, t), curve) == (
            pytest.approx(math.cosh(2 * t), rel=1e-13)
        )


def test_teich_geodesic_points():
    for t in (0.0, 0.4, 1.1):
        assert teich_geodesic_constant(I, 1.0, t).value == pytest.approx(
            1j * math.exp(-2 * t), rel=1e-14
        )
    with pytest.raises(ValueError, match=r"\|m\| = 1"):
        teich_geodesic_constant(I, 0.5, 0.3)


def test_teich_geodesic_composes_on_axis():
    # for m = 1 the stretch line is the imaginary axis and arc length adds
    t1, t2 = 0.3, 0.5
    mid = teich_geodesic_constant(I, 1.0, t1)
    end = teich_geodesic_constant(mid, 1.0, t2)
    direct = teich_geodesic_constant(I, 1.0, t1 + t2)
    assert abs(end.value - direct.value) <= 1e-12


def test_teich_geodesic_composes_with_transported_direction():
    # restarting the line from an interior point requires transporting the
    # direction through the chart change of the first stretch
    m = 1j
    t1, t2 = 0.45, 0.6
    s1 = math.tanh(t1)
    mid = teich_geodesic_constant(I, m, t1)
    m2 = m * (1 + s1 * m).conjugate() / (1 + s1 * m)
    assert abs(abs(m2) - 1.0) <= 1e-15
    end = teich_geodesic_constant(mid, m2, t2)
    direct = teich_geodesic_constant(I, m, t1 + t2)
    assert abs(end.value - direct.value) <= 1e-12
