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

Where a square leaves double range, ``extremal_length``, ``levi_form``
and ``harmonic.energy`` return ``inf`` or ``nan``, which every caller in
the package checks: the CLI, the sweep, ``teich_bound_check`` and Kerckhoff
raise, and a ``verify`` row fails.  ``cylinder_modulus``, whose reciprocal
would be a finite wrong answer, raises ``OverflowError``.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

from ._lazy import np

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
            raise ValueError(f"tau must lie in the upper half-plane with Im tau > {MIN_IMAG:g}, "
                             f"got Im tau = {self.im!r}")

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
    return _ext_formula(curve.p, curve.q, tau.re, tau.im)


def _ext_formula(p, q, re, im):
    """``|p + q tau|^2 / Im tau`` at ``tau = re + im i``, the one copy of the formula.

    Plain operators only, so it takes Python numbers (scalar callers
    never pay for numpy) or float64 arrays, which broadcast and round
    alike.  It rounds exactly as the complex holonomy ``p + q tau`` does,
    because ``q (re + im i)`` rounds to ``q re + (q im) i``.
    """
    x = p + q * re
    y = q * im
    return (x * x + y * y) / im


def _levi_formula(ext, im):
    """Levi form ``Ext / (2 (Im tau)^2)`` from the extremal length ``ext`` at ``Im tau = im``."""
    return ext / (2.0 * im * im)


def _closed_forms_on_grid(curve: CurveClass, res: np.ndarray, ims: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """``extremal_length`` and ``levi_form`` at every ``res[j] + ims[i] i``, shape ``(ims, res)``.

    Bit-identical to the scalar functions; a value outside double range
    raises ``OverflowError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ext = _ext_formula(curve.p, curve.q, res, ims[:, None])
        levi = _levi_formula(ext, ims[:, None])
    if not (np.isfinite(ext).all() and np.isfinite(levi).all()):
        raise OverflowError(f"extremal length of {curve} leaves double range on the sweep")
    return ext, levi


def cylinder_modulus(tau: Modulus, curve: CurveClass) -> float:
    """Modulus of the maximal embedded annulus with core ``curve``.

    The whole torus fibers over the curve, so this is the reciprocal of
    the extremal length.  Raises ``OverflowError`` past double range.
    """
    w = curve.holonomy(tau)
    length_sq = w.real * w.real + w.imag * w.imag
    if length_sq == math.inf:
        raise OverflowError(f"|p + q tau|^2 of {curve} at {tau} leaves double range")
    return tau.im / length_sq


def levi_form(tau: Modulus, curve: CurveClass) -> float:
    """Mixed second derivative ``d^2 Ext / (d tau d tau-bar)`` at ``tau``.

    Extremal length of a fixed class is ``|p + q tau|^2 / Im tau``;
    differentiating gives ``Ext / (2 (Im tau)^2)``, manifestly positive.
    """
    return _levi_formula(_ext_formula(curve.p, curve.q, tau.re, tau.im), tau.im)


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
    """Distance in the curvature ``-1`` metric ``|d tau|^2 / (Im tau)^2``.

    ``sinh(d / 2) = |tau1 - tau2| / (2 sqrt(Im tau1 Im tau2))``, accurate
    for close moduli (where ``acosh(1 + x)`` loses ``x`` below machine
    epsilon) and finite for every pair of finite moduli: the difference
    is taken in quarters, and past a ratio of ``2^27`` the ``asinh`` goes
    through logarithms.
    """
    # a quarter of |tau1 - tau2|, finite for every pair of finite moduli
    quarter = math.hypot(tau1.re / 4 - tau2.re / 4, tau1.im / 4 - tau2.im / 4)
    root = math.sqrt(tau1.im) * math.sqrt(tau2.im)
    ratio = quarter / root  # sinh(d / 2) / 2
    if ratio < 2.0**26:
        return 2.0 * math.asinh(2.0 * ratio)
    # asinh(y) = log(2 y) to double precision for y > 2^27
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(quarter) - math.log(root)
    return 2.0 * (math.log(4.0) + log_ratio)


@dataclass(frozen=True)
class KerckhoffDistance:
    """Stretch-factor distance value plus the curve class attaining it."""

    value: float
    maximizer: CurveClass


def _require_max_index(max_index: int) -> None:
    """Reject a curve search box ``|p|, |q| <= max_index`` that holds no class."""
    if max_index < 1:
        raise ValueError("max_index must be at least 1")


def _candidates(slope: float, max_index: int) -> list[tuple[int, int]]:
    """``(1, 0)`` and the box classes next to ``slope`` on each side, in enumeration order.

    A walk down the continued fraction of ``|slope|`` (``max_index`` past the
    box) ends on it if it is a box fraction, else on adjacent bounds whose
    mediant, and so every fraction between them, leaves the box.
    """
    num, den = min(max_index, abs(slope)).as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den and max(p0 + num // den * p1, q0 + num // den * q1) <= max_index:
        k = num // den
        p0, q0, p1, q1, num, den = p1, q1, p0 + k * p1, q0 + k * q1, den, num - k * den
    k = min((max_index - p0) // p1 if p1 else max_index, (max_index - q0) // q1)
    sign = 1 if slope >= 0.0 else -1
    pairs = {(1, 0), (sign * p1, q1), (sign * (p0 + k * p1), q0 + k * q1) if den else (1, 0)}
    return sorted(pairs, key=lambda pq: (pq[1], pq[0]))


def kerckhoff_distance(tau1: Modulus, tau2: Modulus, max_index: int) -> KerckhoffDistance:
    """Half the log of the largest extremal-length ratio over curve classes.

    The supremum over all classes is half the hyperbolic distance; this
    maximizes over the box ``|p|, |q| <= max_index``.  The ratio rises to its
    top direction and falls after it around the circle of slopes, so only
    the ``_candidates`` next to it are scored, in O(log max_index), by
    ``_ext_formula``, ties going to the first in box order, so the value is
    ``0.5 * log(extremal_length(tau2, m) / extremal_length(tau1, m))`` for
    the maximizer ``m``, bit for bit.  Where rounding flattens the ratio
    near the top (at distances up to about 1e-3 at max_index 2000, shrinking
    like max_index^-4), an enumeration can find a class a few ulps higher,
    and a larger box can score a few ulps lower.
    """
    _require_max_index(max_index)
    # Ext(tau, (p, q)) is q^2 |tau - s|^2 / Im tau at s = -p/q, so the ratio
    # peaks where s ends the geodesic from tau2 through tau1: with tau1 = i,
    # tau2 = a + b i and c = sign(a) times its centre, at -sign(a) (r - c).
    a = (tau2.re - tau1.re) / tau1.im
    b = tau2.im / tau1.im
    c = 0.5 * (abs(a) + (b - 1.0) * (b + 1.0) / abs(a)) if a else math.copysign(math.inf, b - 1.0)
    c = math.inf if math.isinf(a) else c  # not inf / inf: c >= |a| / 2 - 1 / (2 |a|)
    r = math.hypot(c, 1.0)
    end = math.copysign(1.0 / (c + r) if c >= 0.0 else r - c, -a)
    pairs = _candidates(-(tau1.re + tau1.im * end), max_index)
    ratios = [_ext_formula(p, q, tau2.re, tau2.im) / _ext_formula(p, q, tau1.re, tau1.im)
              for p, q in pairs]
    # an infinite ratio would be the largest, and a NaN one (inf / inf) has no order
    if not all(map(math.isfinite, ratios)):
        raise ValueError(
            f"extremal-length ratio between {tau1} and {tau2} is outside double range"
        )
    best = ratios.index(max(ratios))
    return KerckhoffDistance(0.5 * math.log(ratios[best]), CurveClass(*pairs[best]))


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
