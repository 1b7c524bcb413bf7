"""Exact oracles for the derivative formulas, independent of them by import.

Each oracle reads extremal length at finite points of an explicit path,
where it is an exact function of the step, so it has no truncation
error; each writes its step once, as a literal in its body.  This module
imports only ``math``, the torus types, ``extremal_length`` and the two
path functions: never a formula it checks, and never numpy, which every
CLI process would then load.  A test reads these imports.
"""

import math

from .beltrami import modulus_path_constant, teich_geodesic_constant
from .moduli import CurveClass, Modulus, extremal_length


def _stretch_ends(tau: Modulus, curve: CurveClass, u: complex, s: float) -> tuple[float, float]:
    """Extremal length at arc lengths ``s`` and ``-s`` of the unit stretch line
    through ``tau`` in the unimodular direction ``u``: exactly
    ``Ext cosh 2s + B sinh 2s``, with ``2 B`` the first variation along ``u``."""
    return (extremal_length(teich_geodesic_constant(tau, u, s), curve),
            extremal_length(teich_geodesic_constant(tau, u, -s), curve))


def _stretch_odd_part(tau: Modulus, curve: CurveClass, m: complex) -> float:
    """``|m| (E(s) - E(-s)) / sinh 2s`` at ``s = 0.3``: the first variation along ``m``."""
    s, r = 0.3, abs(m)
    plus, minus = _stretch_ends(tau, curve, m / r, s)
    return r * (plus - minus) / math.sinh(2.0 * s)


def _stretch_even_part(tau: Modulus, curve: CurveClass, u: complex) -> float:
    """``(E(s) + E(-s)) / (2 cosh 2s)`` at ``s = 0.5``: exactly ``Ext``."""
    s = 0.5
    plus, minus = _stretch_ends(tau, curve, u, s)
    return (plus + minus) / (2.0 * math.cosh(2.0 * s))


def _path_second_variation(tau: Modulus, curve: CurveClass, m: complex) -> float:
    """``4 Ext (G - Ext) / (t^2 (G + Ext))`` at ``|t m| = 0.5``, ``G`` the even part
    of extremal length along the constant-field path ``m``: ``Ext(t) (1 - t^2 |m|^2)``
    is exactly ``Ext + a t + |m|^2 Ext t^2``, so this is ``4 |m|^2 Ext``."""
    t = 0.5 / abs(m)
    ext = extremal_length(tau, curve)
    even = 0.5 * (extremal_length(modulus_path_constant(tau, m, t), curve)
                  + extremal_length(modulus_path_constant(tau, m, -t), curve))
    return 4.0 * ext * (even - ext) / (t * t * (even + ext))


def _path_levi_form(tau: Modulus, curve: CurveClass) -> float:
    """``(d2(1) + d2(i)) / (16 (Im tau)^2)``, ``d2`` the path second variation:
    the fields 1 and ``i`` move ``tau`` at chart speed ``2 Im tau`` in orthogonal
    directions with opposite accelerations, so the sum is ``4 (Im tau)^2``
    times the Laplacian ``4 levi_form``."""
    y = tau.im
    return (_path_second_variation(tau, curve, 1.0)
            + _path_second_variation(tau, curve, 1j)) / (16.0 * y * y)
