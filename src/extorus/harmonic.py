"""Harmonic maps from a flat torus to the real line of a curve class.

Collapsing the torus ``C / (Z + tau Z)`` along the foliation parallel to
a curve class ``(p, q)`` gives a circle; lifting to universal covers, the
harmonic representative of the collapse is a real-linear map
``w(z) = Re(a z)``, so the map is its complex coefficient ``a``.  The
coefficient is pinned down by the two translation periods: going around
the ``1`` cycle must shift ``w`` by ``q`` and going around the ``tau``
cycle by ``-p`` (the signed intersection numbers with ``(p, q)``).

The energy of this map equals the extremal length of the class, and its
quadratic Hopf differential ``(dw)^2``-part points along the class, which
is what makes the map useful: every first- and second-derivative formula
for extremal length in this package is phrased through ``a``.  Like
``extremal_length``, each function here takes ``(tau, curve)``.
"""

from __future__ import annotations

from .moduli import CurveClass, Modulus

__all__ = [
    "build_harmonic_map",
    "energy",
    "hopf",
]


def build_harmonic_map(tau: Modulus, curve: CurveClass) -> complex:
    """The coefficient ``a`` of ``w(z) = Re(a z)``, solving the period
    conditions ``Re(a) = q``, ``Re(a tau) = -p``.

    Writing ``a = q + i b``: the second condition gives
    ``b = (q Re tau + p) / Im tau``.  The 2x2 real system has determinant
    ``Im tau > 0``, so the solution is unique.
    """
    b = (curve.q * tau.re + curve.p) / tau.im
    return complex(curve.q, b)


def energy(tau: Modulus, curve: CurveClass) -> float:
    """Dirichlet energy of the map over one fundamental domain.

    For ``w = Re(a z)`` the gradient is constant with
    ``|w_z|^2 + |w_zbar|^2 = |a|^2 / 2``, and with the area measure
    normalized so the torus has mass ``2 Im tau`` this integrates to
    ``|a|^2 Im tau``, which equals the extremal length of the class.
    """
    a = build_harmonic_map(tau, curve)
    return abs(a) * abs(a) * tau.im


def hopf(tau: Modulus, curve: CurveClass) -> complex:
    """Coefficient of ``dz^2`` in the Hopf differential ``(w_z)^2 dz^2``: ``a^2 / 4``.

    Its value against the squared holonomy, ``a^2 (p + q tau)^2 / 4``,
    is real and nonpositive: the differential points along the foliation
    being collapsed.
    """
    a = build_harmonic_map(tau, curve)
    return a * a / 4.0
