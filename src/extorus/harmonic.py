"""Harmonic maps from a flat torus to the real line of a curve class.

Collapsing the torus ``C / (Z + tau Z)`` along the foliation parallel to
a curve class ``(p, q)`` gives a circle; lifting to universal covers, the
harmonic representative of the collapse is a real-linear map
``w(z) = Re(coeff * z)``.  The coefficient is pinned down by the two
translation periods: going around the ``1`` cycle must shift ``w`` by
``q`` and going around the ``tau`` cycle by ``-p`` (the signed
intersection numbers with ``(p, q)``).

The energy of this map equals the extremal length of the class, and its
quadratic Hopf differential ``(dw)^2``-part points along the class, which
is what makes the map useful: every first- and second-derivative formula
for extremal length in this package is phrased through ``coeff``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .moduli import CurveClass, Modulus

__all__ = [
    "HarmonicMapTorus",
    "build_harmonic_map",
    "energy",
    "hopf",
]


@dataclass(frozen=True)
class HarmonicMapTorus:
    """The map ``w(z) = Re(coeff * z)`` with prescribed translation periods.

    The shifts of ``w`` along the ``1`` and ``tau`` cycles are ``q`` and
    ``-p``.
    """

    tau: Modulus
    curve: CurveClass
    coeff: complex


def build_harmonic_map(tau: Modulus, curve: CurveClass) -> HarmonicMapTorus:
    """Solve the period conditions ``Re(coeff) = q``, ``Re(coeff tau) = -p``.

    Writing ``coeff = q + i b``: the second condition gives
    ``b = (q Re tau + p) / Im tau``.  The 2x2 real system has determinant
    ``Im tau > 0``, so the solution is unique.
    """
    b = (curve.q * tau.re + curve.p) / tau.im
    return HarmonicMapTorus(tau, curve, complex(curve.q, b))


def energy(hmap: HarmonicMapTorus) -> float:
    """Dirichlet energy of the map over one fundamental domain.

    For ``w = Re(coeff z)`` the gradient is constant with
    ``|w_z|^2 + |w_zbar|^2 = |coeff|^2 / 2``, and with the area measure
    normalized so the torus has mass ``2 Im tau`` this integrates to
    ``|coeff|^2 Im tau``, which equals the extremal length of the class.
    """
    return abs(hmap.coeff) * abs(hmap.coeff) * hmap.tau.im


def hopf(hmap: HarmonicMapTorus) -> complex:
    """Coefficient of ``dz^2`` in the Hopf differential ``(w_z)^2 dz^2``: ``coeff^2 / 4``.

    Its value against the squared holonomy, ``coeff^2 (p + q tau)^2 / 4``,
    is real and nonpositive: the differential points along the foliation
    being collapsed.
    """
    return hmap.coeff * hmap.coeff / 4.0

