"""Independent cross-checks for every closed-form formula in the package.

Each derivative formula is compared against an oracle of ``oracles``,
which knows nothing about the formula: it reads extremal length at
finite points of the explicit paths, where it is an exact function of
the step.  The spectral solver is checked through integral identities
its output must satisfy.  ``run_suite`` executes a fixed sequence of
checks on one seeded random stream and reports one line per check.  Each
check returns the ``(lhs, rhs, scale)`` rows it measured, and one that
samples draws all its rows before it computes any.  Only this module
judges: ``report`` gives the verdict at the check's tolerance, written
once in ``_SUITE``, for the suite and the ``eq11``/``eq15``/``bound`` commands.

Relative errors are floored at the natural scale of the quantity being
compared (for a first variation along ``m`` that scale is ``|m| Ext``):
a direction can be accidentally orthogonal to the gradient, making the
raw relative error of a near-zero value meaningless, while the scaled
error is seed-stable.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, replace

from ._lazy import np
from .beltrami import FIELD_CATALOG, BeltramiField, catalog_field, teich_geodesic_constant
from .harmonic import energy, hopf
from .moduli import (
    CurveClass,
    MappingClass,
    Modulus,
    apply_mapping_class,
    cylinder_modulus,
    extremal_length,
    hyperbolic_distance,
    kerckhoff_distance,
    levi_form,
)
from .oracles import _path_levi_form, _path_second_variation, _stretch_even_part, _stretch_odd_part
from .variation import (
    first_variation,
    identity_eq11_check,
    identity_eq15_evaluate,
    pair_sum_levi,
    second_variation_constant,
)

__all__ = [
    "IdentityReport",
    "SuiteResult",
    "sample_moduli",
    "sample_curves",
    "sample_directions",
    "sample_mapping_class",
    "run_suite",
    "format_table",
    "report",
    "stretch_rows",
]


@dataclass(frozen=True)
class IdentityReport:
    """One numerical check: ``lhs`` against ``rhs``, with the errors and the
    verdict derived by ``compare``; a report that does not pass is a failure.

    ``scale`` floors the relative error where the true value is an accidental
    near-zero of a quantity whose natural size is ``scale``.
    """

    name: str
    lhs: float
    rhs: float
    tolerance: float
    scale: float = 0.0

    @property
    def abs_err(self) -> float:
        return compare(self.lhs, self.rhs, self.tolerance, self.scale)[0]

    @property
    def rel_err(self) -> float:
        return compare(self.lhs, self.rhs, self.tolerance, self.scale)[1]

    @property
    def passed(self) -> bool:
        return compare(self.lhs, self.rhs, self.tolerance, self.scale)[2]

    def to_json(self) -> dict:
        """Plain-JSON form; a non-finite float becomes ``"inf"``, ``"-inf"`` or ``"nan"``.

        The ``"asserted"`` key is always true; readers of the format count
        failures by it.
        """
        abs_err, rel_err, passed = compare(self.lhs, self.rhs, self.tolerance, self.scale)
        return {
            "name": self.name,
            "lhs": json_float(self.lhs),
            "rhs": json_float(self.rhs),
            "abs_err": json_float(abs_err),
            "rel_err": json_float(rel_err),
            "tolerance": json_float(self.tolerance),
            "pass": passed,
            "asserted": True,
        }


def json_float(x: float) -> float | str:
    """``x`` itself if finite, else its ``str``, which ``float()`` reads back.

    Standard JSON has no token for infinity or NaN.
    """
    return x if math.isfinite(x) else str(x)


def compare(lhs: float, rhs: float, tolerance: float, scale: float = 0.0
            ) -> tuple[float, float, bool]:
    """``abs_err``, ``rel_err`` and the verdict ``abs_err <= tolerance or
    rel_err <= tolerance``.  Where no size is positive both sides are 0, and
    the relative error is the absolute one; a NaN side fails."""
    abs_err = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs), scale)
    rel_err = abs_err / denom if denom > 0 else abs_err
    return abs_err, rel_err, abs_err <= tolerance or rel_err <= tolerance


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[IdentityReport, ...]
    seed: int
    elapsed_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "all_passed": self.all_passed,
            "reports": [r.to_json() for r in self.reports],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, allow_nan=False)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    """A float in ``[lo, hi)``, up to rounding at ``hi``."""
    return lo + (hi - lo) * rng.random()


def _below(rng: random.Random, k: int) -> int:
    """An integer in ``[0, k)``: ``int(k u) < k`` for every ``u < 1``, and
    each value's probability is within ``2**-49`` of ``1 / k``."""
    return int(k * rng.random())


def sample_moduli(rng: random.Random, count: int) -> list[Modulus]:
    """Draw ``count`` moduli with ``Re in [-1, 1)`` and ``Im in [0.3, 3)``."""
    return [Modulus(_uniform(rng, -1.0, 1.0), _uniform(rng, 0.3, 3.0)) for _ in range(count)]


def sample_curves(rng: random.Random, count: int) -> list[CurveClass]:
    """Draw ``count`` primitive classes with ``|p|, |q| <= 5``.

    Pairs are drawn until ``count`` primitive ones are kept, so every kept
    pair is uniform over the primitive pairs.
    """
    curves = []
    while len(curves) < count:
        p, q = _below(rng, 11) - 5, _below(rng, 11) - 5
        if math.gcd(p, q) == 1:
            curves.append(CurveClass(p, q))
    return curves


def sample_directions(rng: random.Random, count: int) -> list[complex]:
    """Draw ``count`` deformation directions with modulus in ``[0.05, 0.5)``.

    The exact oracles need no lower cutoff, since each scales its step to
    ``|m|``; the range stays because the checks after the first one that
    draws directions read the same stream, so a new range would move their
    rows.
    """
    directions = []
    for _ in range(count):
        r, theta = _uniform(rng, 0.05, 0.5), _uniform(rng, 0.0, 2.0 * math.pi)
        directions.append(r * complex(math.cos(theta), math.sin(theta)))
    return directions


#: The twist, its inverse, the flip and its inverse, each as ``a, b, c, d``.
_GENERATORS = ((1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0), (0, 1, -1, 0))


def sample_mapping_class(rng: random.Random) -> MappingClass:
    """Random word of 1 to 6 letters in the twist and flip generators."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(1 + _below(rng, 6)):
        e, f, g, h = _GENERATORS[_below(rng, 4)]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return MappingClass(a, b, c, d)


def _draws(rng: random.Random, count: int) -> list[tuple[Modulus, CurveClass]]:
    """``count`` pairs ``tau, curve``: all the moduli are drawn first, then all the curves."""
    return list(zip(sample_moduli(rng, count), sample_curves(rng, count)))


def _rows(rows: list[tuple[float, float, float]], tolerance: float) -> IdentityReport:
    """The report of the first failing ``(lhs, rhs, scale)`` comparison, else
    of the one with the largest relative error (the first, on a tie)."""
    worst, worst_rel = None, -1.0
    for lhs, rhs, scale in rows:
        _, rel_err, passed = compare(lhs, rhs, tolerance, scale)
        if not passed:
            return IdentityReport("", lhs, rhs, tolerance, scale)
        if rel_err > worst_rel:
            worst, worst_rel = (lhs, rhs, scale), rel_err
    lhs, rhs, scale = worst
    return IdentityReport("", lhs, rhs, tolerance, scale)


_ANCHOR = Modulus(0.0, 1.0)
_HORIZ = CurveClass(1, 0)


def _reciprocity(rng: random.Random) -> list[tuple[float, float, float]]:
    return [(extremal_length(tau, curve) * cylinder_modulus(tau, curve), 1.0, 0.0)
            for tau, curve in _draws(rng, 1000)]


def _harmonic_energy(rng: random.Random) -> list[tuple[float, float, float]]:
    return [(energy(tau, curve), extremal_length(tau, curve), 0.0)
            for tau, curve in _draws(rng, 1000)]


def _hopf_axis(rng: random.Random) -> list[tuple[float, float, float]]:
    """The Hopf differential times the squared holonomy is real and non-positive,
    and its norm ``4 Im tau |hopf|`` is the extremal length (Hubbard–Masur)."""
    rows = []
    for tau, curve in _draws(rng, 1000):
        w = curve.holonomy(tau)
        phi = hopf(tau, curve)
        v = phi * (w * w)
        rows.append((max(abs(v.imag), max(0.0, v.real)), 0.0, max(1.0, abs(v))))
        rows.append((4.0 * tau.im * abs(phi), extremal_length(tau, curve), 0.0))
    return rows


def _remarking(rng: random.Random) -> list[tuple[float, float, float]]:
    draws = _draws(rng, 100)
    marks = [sample_mapping_class(rng) for _ in draws]
    rows = []
    for (tau, curve), mc in zip(draws, marks):
        new_tau, new_curve = apply_mapping_class(tau, curve, mc)
        rows.append((extremal_length(new_tau, new_curve), extremal_length(tau, curve), 0.0))
    return rows


def _first_vs_fd(rng: random.Random) -> list[tuple[float, float, float]]:
    """The first variation along ``m`` is the stretch line's odd part, and
    ``hypot`` of those along ``m`` and ``i m`` is ``2 |m| Ext``."""
    rows = []
    for (tau, curve), m in zip(_draws(rng, 200), sample_directions(rng, 200)):
        closed = first_variation(tau, curve, m)
        turned = first_variation(tau, curve, 1j * m)
        size = abs(m) * extremal_length(tau, curve)
        rows.append((closed, _stretch_odd_part(tau, curve, m), size))
        rows.append((math.hypot(closed, turned), 2.0 * size, 0.0))
    return rows


def _second_vs_fd(rng: random.Random) -> list[tuple[float, float, float]]:
    rows = []
    for (tau, curve), m in zip(_draws(rng, 200), sample_directions(rng, 200)):
        closed = second_variation_constant(tau, curve, m)
        oracle = _path_second_variation(tau, curve, m)
        rows.append((closed, oracle, abs(m) * abs(m) * extremal_length(tau, curve)))
    rows += [(second_variation_constant(_ANCHOR, _HORIZ, m), 4.0, 0.0) for m in (1.0, 1j)]
    return rows


def _eq11_fields(rng: random.Random) -> list[tuple[float, float, float]]:
    """Both tori share each catalog grid, whose samples depend on the name and
    ``n`` alone: a field is sampled once, at 128, and its 64 and 32 grids are
    every second and fourth point, bit for bit.  One field's grids are live at
    a time, and the rows keep torus-major order."""
    bases = [(_ANCHOR, _HORIZ), (Modulus(0.5, 1.25), CurveClass(1, 1))]
    by_grid = []
    for nm in sorted(FIELD_CATALOG):
        finest = catalog_field(_ANCHOR, nm, 128).samples
        for n in (32, 64, 128):
            grid = finest[::128 // n, ::128 // n]
            by_grid.append([identity_eq11_check(tau, curve, BeltramiField(tau, n, samples=grid), n)
                            for tau, curve in bases])
    return [row for per_torus in zip(*by_grid) for row in per_torus]


def _pairing_on_constants(rng: random.Random) -> list[tuple[float, float, float]]:
    """The paired identity on fields with a mean: the wave ``cos 2 pi s``
    plus each constant, on two tori, at ``n = 8``.  Its right side holds
    only if it subtracts the field's mean."""
    wave = catalog_field(_ANCHOR, "cos2pis", 8).samples
    return [identity_eq15_evaluate(tau, curve, BeltramiField(tau, 8, samples=wave + m), 8)
            for tau, curve in [(_ANCHOR, _HORIZ), (Modulus(0.0, 2.0), CurveClass(2, 1))]
            for m in (1.0, 0.5j, 0.3 - 0.2j)]


def _pairing_on_grid_field(rng: random.Random) -> list[tuple[float, float, float]]:
    field = catalog_field(_ANCHOR, "cos2pis", 64)
    return [identity_eq15_evaluate(_ANCHOR, _HORIZ, field, 64)]


def _pair_sum_scaling(rng: random.Random) -> list[tuple[float, float, float]]:
    """The paired sum along ``m`` is ``8 |m|^2 Ext``.

    Positivity needs no row of its own: ``pair_sum_levi`` raises
    ``ArithmeticError`` unless the sum is positive.
    """
    rows = []
    for (tau, curve), m in zip(_draws(rng, 1000), sample_directions(rng, 1000)):
        exact = 8.0 * (abs(m) * abs(m)) * extremal_length(tau, curve)
        rows.append((pair_sum_levi(tau, curve, m), exact, 0.0))
    return rows


def _levi_vs_fd(rng: random.Random) -> list[tuple[float, float, float]]:
    rows = []
    for curve in (_HORIZ, CurveClass(0, 1), CurveClass(1, 1)):
        for re in np.linspace(-1.0, 1.0, 10):
            for im in np.linspace(0.3, 3.0, 10):
                tau = Modulus(float(re), float(im))
                rows.append((levi_form(tau, curve), _path_levi_form(tau, curve), 0.0))
    return rows


def _pair_sum_over_levi(rng: random.Random) -> list[tuple[float, float, float]]:
    """The paired sum along 1 is ``4 levi_form`` times the squared chart
    speed ``4 (Im tau)^2`` of the unit stretch."""
    return [(pair_sum_levi(tau, curve, 1.0) / (4.0 * tau.im * tau.im * levi_form(tau, curve)),
             4.0, 0.0) for tau, curve in _draws(rng, 100)]


def stretch_rows(tau: Modulus, curve: CurveClass, units: list[complex]
                 ) -> list[tuple[float, float, float]]:
    """One row per unimodular direction ``m`` of ``units``: the even part of
    extremal length along the unit stretch line in the direction ``m``, which
    is exactly ``Ext`` (the oracle ``_stretch_even_part``), against ``Ext``,
    read once.  A side outside double range raises ``OverflowError``."""
    ext0 = extremal_length(tau, curve)
    rows = [(_stretch_even_part(tau, curve, m), ext0, 0.0) for m in units]
    if not (math.isfinite(ext0) and all(math.isfinite(even) for even, _, _ in rows)):
        raise OverflowError("extremal length along the stretch line leaves double range")
    return rows


def _stretch_floor(rng: random.Random) -> list[tuple[float, float, float]]:
    """``stretch_rows`` along each unit stretch line, and the line runs at unit
    Teichmüller speed, hyperbolic speed 2."""
    units = [complex(math.cos(math.pi * k / 8.0), math.sin(math.pi * k / 8.0)) for k in range(16)]
    rows = []
    for tau, curve in _draws(rng, 50):
        for row, u in zip(stretch_rows(tau, curve, units), units):
            rows.append(row)
            rows.append((hyperbolic_distance(tau, teich_geodesic_constant(tau, u, 0.5)), 1.0, 0.0))
    return rows


def _kerckhoff_vs_hyperbolic(rng: random.Random) -> list[tuple[float, float, float]]:
    """On vertical segments the stretch-factor distance is half the hyperbolic
    distance; at ``i, 2i`` the maximizing curve must be ``0,1``, which the
    last two rows compare."""
    anchor_kd = kerckhoff_distance(_ANCHOR, Modulus(0.0, 2.0), 50)
    rows = [(anchor_kd.value, 0.5 * hyperbolic_distance(_ANCHOR, Modulus(0.0, 2.0)), 0.0)]
    eighths = [_below(rng, 17) - 8 for _ in range(50)]
    segments = [(_uniform(rng, math.log(0.3), math.log(3.0)), _uniform(rng, 0.01, 2.0), rng.random())
                for _ in range(50)]
    for k, (log_y1, length, coin) in zip(eighths, segments):
        y1 = math.exp(log_y1)
        delta = length * (1.0 if coin < 0.5 else -1.0)
        t1, t2 = Modulus(k / 8.0, y1), Modulus(k / 8.0, y1 * math.exp(delta))
        rows.append((kerckhoff_distance(t1, t2, 50).value, 0.5 * hyperbolic_distance(t1, t2), 0.0))
    p, q = anchor_kd.maximizer.p, anchor_kd.maximizer.q
    return rows + [(float(p), 0.0, 0.0), (float(q), 1.0, 0.0)]


#: The checks in run order: the name each reports under, its tolerance, its rows.
_SUITE = (
    ("ext_reciprocal", 1e-14, _reciprocity),
    ("energy_equals_ext", 1e-13, _harmonic_energy),
    ("hopf_direction", 1e-13, _hopf_axis),
    ("marking_invariance", 1e-12, _remarking),
    ("first_variation_fd", 1e-13, _first_vs_fd),
    ("second_variation_fd", 1e-13, _second_vs_fd),
    ("eq11_catalog", 1e-12, _eq11_fields),
    ("eq15_constant", 1e-12, _pairing_on_constants),
    ("eq15_catalog", 1e-12, _pairing_on_grid_field),
    ("pair_sum_scaling_positivity", 1e-12, _pair_sum_scaling),
    ("levi_fd", 1e-13, _levi_vs_fd),
    ("pair_sum_levi_ratio", 1e-12, _pair_sum_over_levi),
    ("teich_lower_bound", 1e-13, _stretch_floor),
    ("kerckhoff_vs_half_hyperbolic", 1e-12, _kerckhoff_vs_hyperbolic),
)


def report(name: str, rows: list[tuple[float, float, float]]) -> IdentityReport:
    """Check ``name``'s report on ``rows``: ``_rows`` at its ``_SUITE`` tolerance."""
    tolerance = {check: tol for check, tol, _ in _SUITE}[name]
    return replace(_rows(rows, tolerance), name=name)


def _require_seed(seed: int) -> None:
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def run_suite(seed: int = 42) -> SuiteResult:
    """Run the checks of ``_SUITE`` in order on one ``random.Random(seed)`` stream.

    Every draw is built from ``random()``, whose sequence for a seed Python
    keeps from one version to the next, so a seed replays the same report.
    ``random.Random`` seeds from ``abs(seed)`` and takes floats, so a
    negative or non-integer seed raises ``ValueError``.
    """
    _require_seed(seed)
    rng = random.Random(seed)
    start = time.perf_counter()
    reports = tuple(report(name, check(rng)) for name, _, check in _SUITE)
    return SuiteResult(reports, seed, time.perf_counter() - start)


def format_table(result: SuiteResult) -> str:
    """Human-readable table, one line per check."""
    lines = [
        f"{'check':32s} {'lhs':>14s} {'rhs':>14s} {'abs_err':>10s} {'rel_err':>10s} {'tol':>8s} status",
    ]
    for r in result.reports:
        lines.append(
            f"{r.name:32s} {r.lhs:14.6g} {r.rhs:14.6g} {r.abs_err:10.2e} "
            f"{r.rel_err:10.2e} {r.tolerance:8.0e} {'PASS' if r.passed else 'FAIL'}"
        )
    verdict = "all checks passed" if result.all_passed else "FAILURES PRESENT"
    lines.append(
        f"seed {result.seed}, {result.elapsed_seconds:.2f} s, {verdict}"
    )
    return "\n".join(lines)
