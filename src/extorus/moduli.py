"""Closed-form geometry on the moduli space of marked flat tori.

A modulus ``tau`` in the upper half-plane determines the torus
``C / (Z + tau Z)``.  Isotopy classes of essential simple closed curves
are primitive integer pairs ``(p, q)``; the class ``(p, q)`` is
represented by the straight segment from ``0`` to ``p + q tau``.

Everything in this module is closed-form: extremal length, the modulus
of the maximal embedded annulus, the Levi form of extremal length, the
change-of-marking action of integer unimodular matrices, and two
distances on the half-plane (hyperbolic and a stretch-factor distance
computed as a maximum of extremal-length ratios).
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Modulus",
    "CurveClass",
    "MappingClass",
    "KerckhoffDistance",
    "extremal_length",
    "cylinder_modulus",
    "levi_form",
    "apply_mapping_class",
    "hyperbolic_distance",
    "kerckhoff_distance",
    "parse_complex",
    "format_complex",
    "parse_curve",
    "format_curve",
]

#: Moduli closer to the real axis than this are rejected as degenerate.
MIN_IMAG = 1e-12


@dataclass(frozen=True)
class Modulus:
    """A marked flat torus, i.e. a point ``re + im*i`` of the upper half-plane."""

    re: float
    im: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("tau must be finite")
        if self.im <= MIN_IMAG:
            raise ValueError("tau must lie in the upper half-plane")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @classmethod
    def from_complex(cls, z: complex) -> "Modulus":
        return cls(float(z.real), float(z.imag))

    def __str__(self) -> str:
        return format_complex(self.value)


@dataclass(frozen=True)
class CurveClass:
    """Primitive integer pair ``(p, q)``, an unoriented essential curve class.

    The pair is stored sign-canonically (``q > 0``, or ``q == 0`` and
    ``p > 0``) so that a class and its reversal compare equal.
    Non-primitive input such as ``(2, 4)`` is rejected rather than
    silently divided down: a multiple of a primitive class is a
    different foliation, not a different name for the same curve.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p == 0 and self.q == 0:
            raise ValueError("curve class (0, 0) is not essential")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"curve class ({self.p}, {self.q}) is not primitive")
        if self.q < 0 or (self.q == 0 and self.p < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)

    def holonomy(self, tau: Modulus) -> complex:
        """Period ``p + q tau`` of the geodesic representative."""
        return self.p + self.q * tau.value

    def __str__(self) -> str:
        return format_curve(self)


@dataclass(frozen=True)
class MappingClass:
    """Change of marking: an integer matrix ``[[a, b], [c, d]]`` with ``ad - bc = 1``."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("mapping class matrix must have determinant 1")


def extremal_length(tau: Modulus, curve: CurveClass) -> float:
    """Extremal length of ``curve`` on the torus of modulus ``tau``.

    The extremal metric is the flat metric itself, so the value is the
    squared flat length of the geodesic over the torus area:
    ``|p + q tau|^2 / Im tau``.
    """
    w = curve.holonomy(tau)
    return (w.real**2 + w.imag**2) / tau.im


def cylinder_modulus(tau: Modulus, curve: CurveClass) -> float:
    """Modulus of the maximal embedded annulus with core ``curve``.

    The whole torus fibers over the curve, so this is the reciprocal of
    the extremal length.
    """
    w = curve.holonomy(tau)
    return tau.im / (w.real**2 + w.imag**2)


def levi_form(tau: Modulus, curve: CurveClass) -> float:
    """Mixed second derivative ``d^2 Ext / (d tau d tau-bar)`` at ``tau``.

    Extremal length of a fixed class is ``|p + q tau|^2 / Im tau``;
    differentiating gives ``Ext / (2 (Im tau)^2)``, manifestly positive.
    """
    return extremal_length(tau, curve) / (2.0 * tau.im**2)


def apply_mapping_class(
    tau: Modulus, curve: CurveClass, mc: MappingClass
) -> tuple[Modulus, CurveClass]:
    """Change the marking of the torus by ``mc``; extremal length is invariant.

    The modulus moves by the fractional-linear action
    ``tau' = (a tau + b) / (c tau + d)`` and the curve coordinates move
    contragradiently, ``(p', q') = (p a - q b, -p c + q d)``, so that
    the holonomy is carried along: ``p' + q' tau' = (p + q tau) / (c tau + d)``.
    The squared holonomy length and the area pick up the same factor
    ``|c tau + d|^2``, which is what makes extremal length invariant.
    """
    a, b, c, d = mc.a, mc.b, mc.c, mc.d
    t = tau.value
    new_tau = (a * t + b) / (c * t + d)
    new_curve = CurveClass(curve.p * a - curve.q * b, -curve.p * c + curve.q * d)
    return Modulus.from_complex(new_tau), new_curve


def hyperbolic_distance(tau1: Modulus, tau2: Modulus) -> float:
    """Distance in the curvature ``-1`` metric ``|d tau|^2 / (Im tau)^2``."""
    sq = (tau1.re - tau2.re) ** 2 + (tau1.im - tau2.im) ** 2
    return math.acosh(1.0 + sq / (2.0 * tau1.im * tau2.im))


@dataclass(frozen=True)
class KerckhoffDistance:
    """Stretch-factor distance value plus the curve class attaining it."""

    value: float
    maximizer: CurveClass


def _require_max_index(max_index: int) -> None:
    """Reject a curve search box ``|p|, |q| <= max_index`` that holds no class."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")


@lru_cache(maxsize=None)
def _primitive_pairs(max_index: int) -> tuple[np.ndarray, np.ndarray]:
    """All sign-canonical primitive ``(p, q)`` with ``|p|, |q| <= max_index``."""
    ps = [1]
    qs = [0]
    for q in range(1, max_index + 1):
        for p in range(-max_index, max_index + 1):
            if math.gcd(abs(p), q) == 1:
                ps.append(p)
                qs.append(q)
    parr = np.array(ps, dtype=float)
    qarr = np.array(qs, dtype=float)
    parr.flags.writeable = False
    qarr.flags.writeable = False
    return parr, qarr


def kerckhoff_distance(
    tau1: Modulus, tau2: Modulus, max_index: int
) -> KerckhoffDistance:
    """Half the log of the largest extremal-length ratio over curve classes.

    The supremum over all classes equals half the hyperbolic distance;
    this routine maximizes over the finite box ``|p|, |q| <= max_index``
    and reports which class won, so callers can see whether the box was
    large enough for their pair.  The value is monotone nondecreasing in
    ``max_index``.
    """
    _require_max_index(max_index)
    parr, qarr = _primitive_pairs(max_index)

    def ext_all(tau: Modulus) -> np.ndarray:
        return ((parr + qarr * tau.re) ** 2 + (qarr * tau.im) ** 2) / tau.im

    with np.errstate(over="ignore", invalid="ignore"):
        ratio = ext_all(tau2) / ext_all(tau1)
    best = int(np.argmax(ratio))  # the first NaN, if there is one
    if not math.isfinite(ratio[best]):
        raise ValueError(
            f"extremal-length ratio between {tau1} and {tau2} is outside double range"
        )
    return KerckhoffDistance(
        0.5 * math.log(float(ratio[best])),
        CurveClass(int(parr[best]), int(qarr[best])),
    )


_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^\s*([+-]?{_FLOAT})([+-]{_FLOAT})i\s*$")


def parse_complex(text: str) -> complex:
    """Parse the ``a+bi`` form used everywhere in this package."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(f"expected complex number in a+bi form, got {text!r}")
    return complex(float(m.group(1)), float(m.group(2)))


def format_complex(z: complex) -> str:
    """Render ``a+bi`` with 17 significant digits, enough to round-trip exactly."""
    z = complex(z)
    if not (cmath.isfinite(z)):
        raise ValueError("cannot format non-finite complex value")
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def parse_curve(text: str) -> CurveClass:
    """Parse ``p,q`` into a curve class."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected curve class in p,q form, got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected integer curve coordinates, got {text!r}") from None
    return CurveClass(p, q)


def format_curve(curve: CurveClass) -> str:
    return f"{curve.p},{curve.q}"
