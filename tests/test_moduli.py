"""Closed forms on the torus: extremal length, Levi form, marking action,
distances, and the text round trips."""

import bisect
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from extorus import moduli
from extorus.harmonic import energy
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
from extorus.verify import sample_curves, sample_mapping_class, sample_moduli

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
    # a point of the half-plane under the floor: the message names the floor
    # and the value received
    with pytest.raises(ValueError, match=r"Im tau > 1e-12, got Im tau = 1e-13"):
        Modulus(0.0, 1e-13)
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
    rng = random.Random(3)
    for tau, curve in zip(sample_moduli(rng, 300), sample_curves(rng, 300)):
        prod = extremal_length(tau, curve) * cylinder_modulus(tau, curve)
        assert abs(prod - 1.0) <= 1e-14


def test_squares_past_double_range():
    # |p + q tau|^2 = 1e400 overflows though Ext = 1e200 is finite: the closed
    # forms return inf or nan (inf / inf) for their callers' finiteness checks,
    # and the annulus modulus raises instead of reading 1e200 / inf = 0.0
    tau = Modulus(0.0, 1e200)
    assert extremal_length(tau, VERT) == math.inf
    assert math.isnan(levi_form(tau, VERT))
    with pytest.raises(OverflowError, match="double range"):
        cylinder_modulus(tau, VERT)
    # |a|^2 = 1e400 overflows in the energy
    assert energy(Modulus(1e200, 1.0), VERT) == math.inf


def test_levi_form_values():
    assert levi_form(I, HORIZ) == 0.5
    assert levi_form(I, CurveClass(1, 1)) == 1.0
    assert levi_form(Modulus(0.0, 2.0), HORIZ) == 0.0625
    rng = random.Random(4)
    for tau, curve in zip(sample_moduli(rng, 100), sample_curves(rng, 100)):
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
    rng = random.Random(5)
    for tau, curve in zip(sample_moduli(rng, 200), sample_curves(rng, 200)):
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


def test_hyperbolic_distance_of_close_moduli():
    # d = 2 asinh(delta / (2 y)) = r (1 - r^2 / 24) to double precision, r = delta / y
    for delta in (1e-9, 1e-7):
        for y in (0.5, 1.0, 2.0):
            r = delta / y
            d = hyperbolic_distance(Modulus(0.0, y), Modulus(delta, y))
            assert d == pytest.approx(r * (1.0 - r * r / 24.0), rel=1e-15, abs=0.0)
    # vertical pairs: d = |log(y2 / y1)|, from log1p so the reference keeps
    # its digits when y2 is close to y1
    rng = random.Random(9)
    for _ in range(2000):
        y1 = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        y2 = y1 * (1.0 + 10.0 ** rng.uniform(-12.0, 1.0))
        want = math.log1p((y2 - y1) / y1)
        for a, b in ((y1, y2), (y2, y1)):
            d = hyperbolic_distance(Modulus(0.0, a), Modulus(0.0, b))
            assert d == pytest.approx(want, rel=1e-15, abs=0.0)


def test_hyperbolic_distance_past_the_square_range():
    # |tau1 - tau2| = 3e154 squares past double range, yet cosh d = 5.5
    t1, t2 = Modulus(3e154, 1e154), Modulus(0.0, 1e154)
    assert hyperbolic_distance(t1, t2) == pytest.approx(math.acosh(5.5), rel=1e-15)
    # 2 Im tau1 Im tau2 overflows while the distance is 2 asinh(5e-11)
    d = hyperbolic_distance(Modulus(0.0, 1e160), Modulus(1e150, 1e160))
    assert d == pytest.approx(2.0 * math.asinh(5e-11), rel=1e-15)
    # sinh(d / 2) itself overflows: same real part, d = log(Im tau2 / Im tau1)
    d = hyperbolic_distance(Modulus(0.0, 1e-11), Modulus(0.0, 1e300))
    assert d == pytest.approx(math.log(1e300) - math.log(1e-11), rel=1e-15)
    # the coordinate difference overflows: sinh(d / 2) = 1.5e308
    d = hyperbolic_distance(Modulus(-1.5e308, 1.0), Modulus(1.5e308, 1.0))
    assert d == pytest.approx(2.0 * (math.log(3.0) + math.log(1e308)), rel=1e-15)
    # scaling both moduli by a power of two leaves the distance unchanged
    rng = random.Random(8)
    for _ in range(200):
        t1 = Modulus(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
        t2 = Modulus(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
        d = hyperbolic_distance(t1, t2)
        for k in (520, 600, 1000):
            big1 = Modulus(math.ldexp(t1.re, k), math.ldexp(t1.im, k))
            big2 = Modulus(math.ldexp(t2.re, k), math.ldexp(t2.im, k))
            assert hyperbolic_distance(big1, big2) == pytest.approx(d, rel=1e-14, abs=1e-15)


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


def test_extremal_length_bits_match_complex_holonomy():
    # The real form must round exactly as the complex holonomy p + q*tau does,
    # every square a multiply.
    rng = random.Random(11)
    for _ in range(20000):
        tau = Modulus(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6, 3),
                      10.0 ** rng.uniform(-6, 3))
        p, q = rng.randint(-50, 50), rng.randint(0, 50)
        if math.gcd(p, q) != 1:
            continue
        curve = CurveClass(p, q)
        w = curve.p + curve.q * tau.value
        ext = (w.real * w.real + w.imag * w.imag) / tau.im
        assert extremal_length(tau, curve) == ext, (tau, curve)
        assert levi_form(tau, curve) == ext / (2.0 * tau.im * tau.im), (tau, curve)


def _reference_pairs(max_index):
    """Every primitive pair of the box by ``np.gcd``, in blocks of 64 values of ``q``.

    The order is the one ``kerckhoff_distance`` breaks ties by: ``(1, 0)``,
    then ``q`` ascending and ``p`` ascending within each ``q``.
    """
    yield np.ones(1), np.zeros(1)
    p = np.arange(-max_index, max_index + 1)
    for start in range(1, max_index + 1, 64):
        q = np.arange(start, min(start + 64, max_index + 1))
        qi, pi = np.nonzero(np.gcd(p, q[:, None]) == 1)
        yield p[pi].astype(float), q[qi].astype(float)


def _reference_ratio(tau1, tau2, p, q):
    def ext(tau):
        return ((p + q * tau.re) ** 2 + (q * tau.im) ** 2) / tau.im

    return ext(tau2) / ext(tau1)


def _reference_kerckhoff(tau1, tau2, max_index, blocks=None):
    """Value, maximizer and largest ratio over the whole box; the first maximum wins.

    ``blocks`` is ``list(_reference_pairs(max_index))``, to enumerate once for many pairs.
    """
    best, maximizer = -math.inf, None
    for p, q in blocks or _reference_pairs(max_index):
        ratio = _reference_ratio(tau1, tau2, p, q)
        i = int(np.argmax(ratio))
        if ratio[i] > best:
            best, maximizer = float(ratio[i]), CurveClass(int(p[i]), int(q[i]))
    return 0.5 * math.log(best), maximizer, best


def _assert_matches_reference(tau1, tau2, max_index, blocks=None):
    value, maximizer, _ = _reference_kerckhoff(tau1, tau2, max_index, blocks)
    kd = kerckhoff_distance(tau1, tau2, max_index)
    assert (kd.value, kd.maximizer) == (value, maximizer), (str(tau1), str(tau2), max_index)


# Pairs whose largest ratio is attained by two classes: the first in the
# enumeration order must win.
TIES = [
    ((0.0, 0.5), (0.5, 0.5), 7),
    ((0.0, 2.0), (1.0, 1.0), 7),
    ((0.5, 0.5), (-0.5, 1.0), 7),
    ((-0.5, 2.0), (0.25, 2.0), 7),
    ((0.25, 2.0), (0.0, 0.75), 7),
    ((0.25, 2.0), (-0.5, 1.0), 7),
]


@pytest.mark.parametrize("a,b,n", TIES)
def test_kerckhoff_breaks_ties_by_enumeration_order(a, b, n):
    tau1, tau2 = Modulus(*a), Modulus(*b)
    ratio = np.concatenate([_reference_ratio(tau1, tau2, p, q) for p, q in _reference_pairs(n)])
    assert np.count_nonzero(ratio == ratio.max()) >= 2
    _assert_matches_reference(tau1, tau2, n)


def test_kerckhoff_equal_moduli_pick_first_class():
    for n in (1, 7, 50, 2000):
        kd = kerckhoff_distance(Modulus(0.3, 1.7), Modulus(0.3, 1.7), n)
        assert kd.value == 0.0
        assert kd.maximizer == HORIZ


def _seeded_modulus(rng):
    return Modulus(rng.uniform(-1, 1), rng.uniform(0.2, 3))


def test_kerckhoff_matches_reference_on_seeded_pairs():
    rng = random.Random(8)
    for n in range(1, 201):
        blocks = list(_reference_pairs(n))
        for _ in range(12):
            _assert_matches_reference(_seeded_modulus(rng), _seeded_modulus(rng), n, blocks)


def test_kerckhoff_matches_reference_on_a_shared_dyadic_real_part():
    # The top slope -x is then a box class once 8 <= N, or lies between two.
    rng = random.Random(9)
    for n in (1, 2, 3, 7, 8, 9, 16, 50):
        for _ in range(12):
            x = rng.randint(-16, 16) / 8.0
            y1, y2 = rng.uniform(0.2, 3), rng.uniform(0.2, 3)
            _assert_matches_reference(Modulus(x, y1), Modulus(x, y2), n)


def test_kerckhoff_matches_reference_on_large_bounds():
    rng = random.Random(10)
    for n in (1000, 2000):
        for _ in range(3):
            _assert_matches_reference(_seeded_modulus(rng), _seeded_modulus(rng), n)


def _assert_within_rounding_of_reference(tau1, tau2, n, blocks):
    _, _, best = _reference_kerckhoff(tau1, tau2, n, blocks)
    kd = kerckhoff_distance(tau1, tau2, n)
    p, q = np.array([float(kd.maximizer.p)]), np.array([float(kd.maximizer.q)])
    ratio = float(_reference_ratio(tau1, tau2, p, q)[0])
    assert abs(ratio - best) <= 8 * math.ulp(best), (str(tau1), str(tau2), n)
    assert kd.value == 0.5 * math.log(ratio)


def test_kerckhoff_near_equal_moduli_within_rounding_of_reference():
    """Near the top slope the ratio falls by about ``2 d delta^2``, with ``d``
    the hyperbolic distance and ``delta`` a class's offset from the top
    slope, and box slopes can be ``1 / N^2`` apart.  So the ratio can be
    flat to rounding over the classes next to the top, and the enumeration's
    first maximum rounding noise, up to a distance that grows like ``N^4``
    (the largest seen for ``Im tau`` in [0.2, 3]: 1e-14 at N = 50, 7e-7 at
    N = 200, 2e-3 at N = 1000).  The maximizer may differ there; its ratio
    must lie within 8 ulps of the enumeration's largest (6 is the most seen
    for ``Im tau`` in [0.2, 3]; the enumeration's noise grows as ``Im tau``
    shrinks), and the value must be exactly half the log of its own ratio."""
    rng = random.Random(12)
    for n, top, count in ((1, -6, 8), (2, -6, 8), (5, -6, 8), (7, -6, 8), (20, -6, 8),
                          (50, -6, 8), (200, -6, 8), (1000, -2, 24), (2000, -2, 24)):
        blocks = list(_reference_pairs(n))
        for _ in range(count):
            tau1 = _seeded_modulus(rng)
            e = 10.0 ** rng.uniform(-16, top)
            tau2 = Modulus(tau1.re + rng.uniform(-e, e), tau1.im * (1 + rng.uniform(-e, e)))
            _assert_within_rounding_of_reference(tau1, tau2, n, blocks)


def test_kerckhoff_cost_is_flat_in_the_bound():
    tau1, tau2 = Modulus(0.0, 1.0), Modulus(0.3, 2.0)
    kerckhoff_distance(tau1, tau2, 2000)
    tracemalloc.start()
    try:
        kd = kerckhoff_distance(tau1, tau2, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    value, maximizer, _ = _reference_kerckhoff(tau1, tau2, 2000)
    assert (kd.value, kd.maximizer) == (value, maximizer)


def test_kerckhoff_candidates_match_a_scan():
    for n in (1, 2, 3, 5, 8, 13):
        box = sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(-n, n + 1)})
        for lo, hi in zip(box, box[1:]):
            for slope in (float(lo), float((lo + hi) / 2), float(hi)):
                x = Fraction(slope)  # the float's exact value
                if abs(x) >= n:
                    continue
                i = bisect.bisect_left(box, x)
                want = [x] if box[i] == x else [box[i - 1], box[i]]
                got = moduli._candidates(slope, n)
                assert got[0] == (1, 0) and got == sorted(got, key=lambda pq: (pq[1], pq[0]))
                assert sorted(Fraction(p, q) for p, q in got[1:]) == want, (slope, n)


def test_kerckhoff_value_is_the_scalar_ratio_of_its_maximizer():
    # the candidates are scored with extremal_length's own rounding
    for n in (20, 1000):
        rng = random.Random(3)
        for _ in range(300):
            tau1, tau2 = _seeded_modulus(rng), _seeded_modulus(rng)
            kd = kerckhoff_distance(tau1, tau2, n)
            m = kd.maximizer
            want = 0.5 * math.log(extremal_length(tau2, m) / extremal_length(tau1, m))
            assert kd.value == want, (str(tau1), str(tau2), n)


# With tau1 = 0+1e-11i, a = (Re tau2 - Re tau1) / Im tau1 overflows, and so
# does b = Im tau2 / Im tau1 or b^2; the top slope must still be finite.
OVERFLOWING = [
    (I, Modulus(0.0, 1e300)),
    (I, Modulus(1e200, 1.0)),
    (Modulus(0.0, 1e-11), Modulus(1e298, 1e298)),
    (Modulus(0.0, 1e-11), Modulus(1e298, 1e160)),
]


@pytest.mark.parametrize("tau1,tau2", OVERFLOWING, ids=str)
def test_kerckhoff_outside_double_range_is_a_value_error(tau1, tau2):
    # The squares overflow to inf here, and inf / inf ratios are nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 5, 2000):
            with pytest.raises(ValueError, match=re.escape(f"between {tau1} and {tau2}")):
                kerckhoff_distance(tau1, tau2, n)


def test_kerckhoff_valid_extreme():
    kd = kerckhoff_distance(Modulus(1e150, 1e150), I, 5)
    assert kd.value == 172.69388197455342
    assert kd.maximizer == HORIZ
    # a and b^2 overflow, the ratio of every class with q > 0 rounds to 0.
    tau1, tau2 = Modulus(-1e300, 1e-11), Modulus(0.5, 1e150)
    for n in (1, 5, 50):
        kd = kerckhoff_distance(tau1, tau2, n)
        with np.errstate(over="ignore"):
            value, maximizer, _ = _reference_kerckhoff(tau1, tau2, n)
        assert (kd.value, kd.maximizer) == (value, maximizer) == (-185.35809998602068, HORIZ)


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
