"""Closed forms on the torus: extremal length, Levi form, marking action,
distances, and the text round trips."""

import math

import numpy as np
import pytest

from extorus.moduli import (
    CurveClass,
    MappingClass,
    Modulus,
    apply_mapping_class,
    cylinder_modulus,
    extremal_length,
    format_complex,
    format_curve,
    hyperbolic_distance,
    kerckhoff_distance,
    levi_form,
    parse_complex,
    parse_curve,
)
from extorus.verify import sample_curve, sample_mapping_class, sample_modulus

I = Modulus(0.0, 1.0)
HORIZ = CurveClass(1, 0)
VERT = CurveClass(0, 1)


def test_modulus_validation():
    assert Modulus(0.5, 2.0).value == 0.5 + 2.0j
    assert Modulus.from_complex(1.5 - 0.25j + 1j).value == 1.5 + 0.75j
    with pytest.raises(ValueError, match="upper half-plane"):
        Modulus(0.0, -1.0)
    with pytest.raises(ValueError, match="upper half-plane"):
        Modulus(0.0, 0.0)
    with pytest.raises(ValueError, match="upper half-plane"):
        Modulus(0.0, 1e-12)
    with pytest.raises(ValueError):
        Modulus(math.nan, 1.0)
    with pytest.raises(ValueError):
        Modulus(0.0, math.inf)


def test_curve_class_canonical_sign():
    assert (CurveClass(1, -2).p, CurveClass(1, -2).q) == (-1, 2)
    assert (CurveClass(-1, 0).p, CurveClass(-1, 0).q) == (1, 0)
    assert (CurveClass(0, -1).p, CurveClass(0, -1).q) == (0, 1)
    assert CurveClass(3, -5) == CurveClass(-3, 5)
    assert CurveClass(2, 1) != CurveClass(1, 2)


def test_curve_class_rejects_non_primitive():
    with pytest.raises(ValueError, match="not essential"):
        CurveClass(0, 0)
    for p, q in [(2, 4), (2, 2), (0, 2), (-3, 0), (6, -9)]:
        with pytest.raises(ValueError, match="not primitive"):
            CurveClass(p, q)


def test_holonomy():
    tau = Modulus(0.5, 1.25)
    assert CurveClass(1, 0).holonomy(tau) == 1.0
    assert CurveClass(2, 3).holonomy(tau) == 2 + 3 * (0.5 + 1.25j)


def test_mapping_class_determinant():
    MappingClass(1, 1, 0, 1)
    MappingClass(0, -1, 1, 0)
    with pytest.raises(ValueError, match="determinant"):
        MappingClass(1, 0, 0, 2)
    with pytest.raises(ValueError, match="determinant"):
        MappingClass(1, 1, 1, 1)


def test_extremal_length_values():
    assert extremal_length(I, HORIZ) == 1.0
    assert extremal_length(I, VERT) == 1.0
    assert extremal_length(I, CurveClass(1, 1)) == 2.0
    assert extremal_length(Modulus(0.0, 2.0), HORIZ) == 0.5
    assert extremal_length(Modulus(0.0, 2.0), VERT) == 2.0
    assert extremal_length(Modulus(0.5, 2.0), VERT) == 2.125


def test_cylinder_modulus_is_reciprocal():
    assert cylinder_modulus(I, HORIZ) == 1.0
    assert cylinder_modulus(Modulus(0.0, 2.0), HORIZ) == 2.0
    rng = np.random.default_rng(3)
    for _ in range(300):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        prod = extremal_length(tau, curve) * cylinder_modulus(tau, curve)
        assert abs(prod - 1.0) <= 1e-14


def test_levi_form_values():
    assert levi_form(I, HORIZ) == 0.5
    assert levi_form(I, CurveClass(1, 1)) == 1.0
    assert levi_form(Modulus(0.0, 2.0), HORIZ) == 0.0625
    rng = np.random.default_rng(4)
    for _ in range(100):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        assert levi_form(tau, curve) > 0.0


def test_apply_mapping_class_twist():
    twist = MappingClass(1, 1, 0, 1)
    new_tau, new_curve = apply_mapping_class(I, HORIZ, twist)
    assert new_tau.value == 1.0 + 1.0j
    assert new_curve == HORIZ
    assert extremal_length(new_tau, new_curve) == extremal_length(I, HORIZ)


def test_apply_mapping_class_flip():
    flip = MappingClass(0, -1, 1, 0)
    new_tau, new_curve = apply_mapping_class(I, HORIZ, flip)
    assert new_tau.value == pytest.approx(1.0j, abs=1e-15)
    assert new_curve == VERT
    assert extremal_length(new_tau, new_curve) == pytest.approx(
        extremal_length(I, HORIZ), rel=1e-15
    )


def test_apply_mapping_class_carries_holonomy():
    tau = Modulus(0.4, 1.7)
    curve = CurveClass(3, 2)
    mc = MappingClass(2, 1, 1, 1)
    new_tau, new_curve = apply_mapping_class(tau, curve, mc)
    expected = curve.holonomy(tau) / (mc.c * tau.value + mc.d)
    got = new_curve.holonomy(new_tau)
    # the curve is stored sign-canonically, so compare up to sign
    assert min(abs(got - expected), abs(got + expected)) <= 1e-13


def test_marking_invariance_random_words():
    rng = np.random.default_rng(5)
    for _ in range(200):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        mc = sample_mapping_class(rng)
        new_tau, new_curve = apply_mapping_class(tau, curve, mc)
        before = extremal_length(tau, curve)
        after = extremal_length(new_tau, new_curve)
        assert abs(after - before) <= 1e-11 * before


def test_hyperbolic_distance():
    assert hyperbolic_distance(I, I) == 0.0
    assert hyperbolic_distance(I, Modulus(0.0, 2.0)) == pytest.approx(
        math.log(2.0), rel=1e-15
    )
    assert hyperbolic_distance(I, Modulus(1.0, 2.0)) == pytest.approx(
        math.acosh(1.5), rel=1e-15
    )
    t1, t2 = Modulus(-0.3, 0.8), Modulus(0.9, 2.4)
    assert hyperbolic_distance(t1, t2) == hyperbolic_distance(t2, t1)


def test_kerckhoff_distance_anchor():
    kd = kerckhoff_distance(I, Modulus(0.0, 2.0), 50)
    assert kd.value == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert kd.maximizer == VERT
    rev = kerckhoff_distance(Modulus(0.0, 2.0), I, 50)
    assert rev.value == pytest.approx(kd.value, abs=1e-12)
    assert rev.maximizer == HORIZ


def test_kerckhoff_distance_monotone_in_search_bound():
    t1, t2 = Modulus(0.125, 0.9), Modulus(0.125, 2.1)
    values = [kerckhoff_distance(t1, t2, n).value for n in (1, 2, 5, 10, 50)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-15


def test_kerckhoff_matches_half_hyperbolic_on_vertical_pairs():
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = float(rng.integers(-8, 9)) / 8.0
        y1 = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        y2 = y1 * float(np.exp(rng.uniform(0.05, 1.5)))
        t1, t2 = Modulus(x, y1), Modulus(x, y2)
        kd = kerckhoff_distance(t1, t2, 50).value
        assert abs(kd - 0.5 * hyperbolic_distance(t1, t2)) <= 1e-9


def test_kerckhoff_rejects_bad_bound():
    with pytest.raises(ValueError, match="max_index"):
        kerckhoff_distance(I, Modulus(0.0, 2.0), 0)


def test_parse_complex():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("3-4i") == 3 - 4j
    assert parse_complex("-1.5+2e-3i") == complex(-1.5, 2e-3)
    assert parse_complex("  .5+.25i ") == 0.5 + 0.25j
    for bad in ["abc", "1", "1+i", "1+2j", "i", "1 + 2i", "1+2i3"]:
        with pytest.raises(ValueError, match="a\\+bi"):
            parse_complex(bad)


def test_format_complex_round_trips_exactly():
    values = [
        complex(math.pi, -math.e),
        complex(1.0 / 3.0, 2.0 / 7.0),
        complex(-1e-17, 5e16),
        0j,
        1j,
    ]
    for z in values:
        assert parse_complex(format_complex(z)) == z
    assert format_complex(1j) == "0+1i"
    assert format_complex(3 - 4j) == "3-4i"
    with pytest.raises(ValueError, match="non-finite"):
        format_complex(complex(math.nan, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        format_complex(complex(0.0, math.inf))


def test_parse_and_format_curve():
    assert parse_curve("2,1") == CurveClass(2, 1)
    assert parse_curve("1,-2") == CurveClass(-1, 2)
    assert format_curve(CurveClass(-1, 2)) == "-1,2"
    assert parse_curve(format_curve(CurveClass(5, 3))) == CurveClass(5, 3)
    for bad in ["1", "1,2,3", "x,1", "1.5,2"]:
        with pytest.raises(ValueError):
            parse_curve(bad)
    with pytest.raises(ValueError, match="not primitive"):
        parse_curve("2,4")
