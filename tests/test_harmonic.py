"""Linear harmonic maps: period conditions, energy, Hopf differential."""

import random

from extorus.harmonic import build_harmonic_map, energy, hopf
from extorus.moduli import CurveClass, Modulus
from extorus.verify import sample_curves, sample_moduli

I = Modulus(0.0, 1.0)


def test_coefficient_values():
    assert build_harmonic_map(I, CurveClass(1, 0)) == 1j
    assert build_harmonic_map(I, CurveClass(0, 1)) == 1.0 + 0j
    assert build_harmonic_map(Modulus(0.0, 2.0), CurveClass(1, 0)) == 0.5j
    assert build_harmonic_map(I, CurveClass(1, 1)) == 1 + 1j


def test_period_conditions_hold():
    rng = random.Random(11)
    for tau, curve in zip(sample_moduli(rng, 300), sample_curves(rng, 300)):
        a = build_harmonic_map(tau, curve)
        assert a.real == curve.q
        assert abs((a * tau.value).real + curve.p) <= 1e-13 * max(1.0, abs(curve.p))


def test_energy_equals_extremal_length():
    assert energy(I, CurveClass(1, 0)) == 1.0
    assert energy(Modulus(0.0, 2.0), CurveClass(1, 0)) == 0.5


def test_hopf_values():
    assert hopf(I, CurveClass(1, 0)) == -0.25
    assert hopf(I, CurveClass(0, 1)) == 0.25
    assert hopf(I, CurveClass(1, 1)) == 0.5j
