"""Independent cross-checks for every closed-form formula in the package.

Each derivative formula is compared against an oracle of ``oracles``,
which knows nothing about the formula: it reads extremal length at
finite points of the explicit paths, where it is an exact function of
the step.  The spectral solver is checked through integral identities
its output must satisfy.  A check of ``_SUITE`` is a tolerance, a sampler
that draws all its inputs at once, and a row function that returns the
``(lhs, rhs, scale)`` rows of one input, whose parameters are named after
the ``extorus verify --only`` flags.  ``run_checks`` alone judges, and names
the input of the row it reports; ``run_suite`` draws every check's inputs
from one seeded stream.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from functools import partial
from inspect import signature
from typing import Iterable

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
    format_complex,
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
    "run_checks",
    "run_suite",
    "format_table",
]


@dataclass(frozen=True)
class IdentityReport:
    """One numerical check: ``lhs`` against ``rhs``, with the errors and the
    verdict derived by ``compare``; a report that does not pass is a failure.

    ``scale`` floors the relative error where the true value is an accidental
    near-zero of a quantity whose natural size is ``scale`` (``|m| Ext`` for a
    first variation along ``m``, whose direction can be nearly orthogonal to
    the gradient).  ``replay`` is the command that recomputes the row.
    """

    name: str
    lhs: float
    rhs: float
    tolerance: float
    scale: float = 0.0
    replay: str = ""

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
        return {
            "name": self.name,
            "lhs": json_float(self.lhs),
            "rhs": json_float(self.rhs),
            "abs_err": json_float(self.abs_err),
            "rel_err": json_float(self.rel_err),
            "tolerance": json_float(self.tolerance),
            "pass": self.passed,
            "asserted": True,
            "replay": self.replay,
        }


def json_float(x: float) -> float | str:
    """``x`` itself if finite, else its ``str``, which ``float()`` reads back.

    Standard JSON has no token for infinity or NaN.
    """
    return x if math.isfinite(x) else str(x)


def compare(lhs: float, rhs: float, tolerance: float, scale: float = 0.0
            ) -> tuple[float, float, bool]:
    """``abs_err``, ``rel_err`` and the verdict ``rel_err <= tolerance``, so
    small sides pass only if their ratio does.  Where no size is positive
    both sides are 0, and so is the relative error; a NaN side fails."""
    abs_err = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs), scale)
    rel_err = abs_err / denom if denom > 0 else abs_err
    return abs_err, rel_err, rel_err <= tolerance


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[IdentityReport, ...]
    seed: int | None
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


def _draws(rng: random.Random, count: int) -> list[tuple]:
    """``count`` inputs ``tau, curve``: all the moduli are drawn first, then all the curves."""
    return list(zip(sample_moduli(rng, count), sample_curves(rng, count)))


def _directed(rng: random.Random, count: int) -> list[tuple]:
    """``count`` inputs ``tau, curve, mu``: ``_draws``, then the directions."""
    return [(*draw, m) for draw, m in zip(_draws(rng, count), sample_directions(rng, count))]


_ANCHOR = Modulus(0.0, 1.0)
_HORIZ = CurveClass(1, 0)
Rows = Iterable[tuple[float, float, float]]


def _reciprocity(tau: Modulus, curve: CurveClass) -> Rows:
    return [(extremal_length(tau, curve) * cylinder_modulus(tau, curve), 1.0, 0.0)]


def _harmonic_energy(tau: Modulus, curve: CurveClass) -> Rows:
    return [(energy(tau, curve), extremal_length(tau, curve), 0.0)]


def _hopf_axis(tau: Modulus, curve: CurveClass) -> Rows:
    """The Hopf differential times the squared holonomy is real and non-positive,
    and its norm ``4 Im tau |hopf|`` is the extremal length (Hubbard–Masur)."""
    w = curve.holonomy(tau)
    phi = hopf(tau, curve)
    v = phi * (w * w)
    return [(max(abs(v.imag), max(0.0, v.real)), 0.0, max(1.0, abs(v))),
            (4.0 * tau.im * abs(phi), extremal_length(tau, curve), 0.0)]


def _marked(rng: random.Random) -> list[tuple]:
    """100 inputs ``tau, curve``, then a change of marking ``mc`` for each."""
    return [(*draw, sample_mapping_class(rng)) for draw in _draws(rng, 100)]


def _remarking(tau: Modulus, curve: CurveClass, mc: MappingClass) -> Rows:
    new_tau, new_curve = apply_mapping_class(tau, curve, mc)
    return [(extremal_length(new_tau, new_curve), extremal_length(tau, curve), 0.0)]


def _first_vs_fd(tau: Modulus, curve: CurveClass, mu: complex) -> Rows:
    """The first variation along ``mu`` is the stretch line's odd part, and
    ``hypot`` of those along ``mu`` and ``i mu`` is ``2 |mu| Ext``."""
    closed = first_variation(tau, curve, mu)
    turned = first_variation(tau, curve, 1j * mu)
    size = abs(mu) * extremal_length(tau, curve)
    return [(closed, _stretch_odd_part(tau, curve, mu), size),
            (math.hypot(closed, turned), 2.0 * size, 0.0)]


def _anchored(rng: random.Random) -> list[tuple]:
    """200 directed draws, then the anchors ``1`` and ``i`` at ``i, (1, 0)``,
    where the second variation and its oracle are both exactly 4."""
    return _directed(rng, 200) + [(_ANCHOR, _HORIZ, 1 + 0j), (_ANCHOR, _HORIZ, 1j)]


def _second_vs_fd(tau: Modulus, curve: CurveClass, mu: complex) -> Rows:
    closed = second_variation_constant(tau, curve, mu)
    oracle = _path_second_variation(tau, curve, mu)
    return [(closed, oracle, abs(mu) * abs(mu) * extremal_length(tau, curve))]


#: The one grid the suite samples a catalog field on (checks 7 and 9).  Check 7
#: ran each field at n = 64 and 128 too, and check 9 at 64: under no solver
#: mutation the tests apply did those solves fail an input that n = 32 passed.
_SUITE_GRID = 32

#: Check 7's inputs: every catalog field on two tori, field by field.
_CATALOG = [(tau, curve, mu_fn, _SUITE_GRID) for mu_fn in sorted(FIELD_CATALOG)
            for tau, curve in ((_ANCHOR, _HORIZ), (Modulus(0.5, 1.25), CurveClass(1, 1)))]


def _eq11_field(tau: Modulus, curve: CurveClass, mu_fn: str, grid: int) -> Rows:
    return [identity_eq11_check(tau, curve, catalog_field(tau, mu_fn, grid))]


#: Check 8's inputs: three constants on each of two tori, each added to the wave
#: ``cos 2 pi s`` at ``n = 8``.  The right side holds only if it subtracts the mean.
_CONSTANTS = [(tau, curve, m)
              for tau, curve in ((_ANCHOR, _HORIZ), (Modulus(0.0, 2.0), CurveClass(2, 1)))
              for m in (1 + 0j, 0.5j, 0.3 - 0.2j)]


def _pairing_on_constant(tau: Modulus, curve: CurveClass, mu: complex) -> Rows:
    wave = catalog_field(tau, "cos2pis", 8).samples
    return [identity_eq15_evaluate(tau, curve, BeltramiField(tau, 8, samples=wave + mu))]


def _pairing_on_grid_field(tau: Modulus, curve: CurveClass, mu_fn: str, grid: int) -> Rows:
    return [identity_eq15_evaluate(tau, curve, catalog_field(tau, mu_fn, grid))]


def _pair_sum_scaling(tau: Modulus, curve: CurveClass, mu: complex) -> Rows:
    """The paired sum along ``mu`` is ``8 |mu|^2 Ext``.  Positivity needs no row:
    ``pair_sum_levi`` raises ``ArithmeticError`` unless the sum is positive."""
    exact = 8.0 * (abs(mu) * abs(mu)) * extremal_length(tau, curve)
    return [(pair_sum_levi(tau, curve, mu), exact, 0.0)]


def _levi_grid(rng: random.Random) -> list[tuple]:
    """A 10 x 10 grid of moduli for each of three classes; draws nothing."""
    return [(Modulus(float(re), float(im)), curve)
            for curve in (_HORIZ, CurveClass(0, 1), CurveClass(1, 1))
            for re in np.linspace(-1.0, 1.0, 10) for im in np.linspace(0.3, 3.0, 10)]


def _levi_vs_fd(tau: Modulus, curve: CurveClass) -> Rows:
    return [(levi_form(tau, curve), _path_levi_form(tau, curve), 0.0)]


def _pair_sum_over_levi(tau: Modulus, curve: CurveClass) -> Rows:
    """The paired sum along 1 is ``4 levi_form`` times the squared chart
    speed ``4 (Im tau)^2`` of the unit stretch."""
    return [(pair_sum_levi(tau, curve, 1.0) / (4.0 * tau.im * tau.im * levi_form(tau, curve)),
             4.0, 0.0)]


_UNITS = [complex(math.cos(math.pi * k / 8.0), math.sin(math.pi * k / 8.0)) for k in range(16)]


def _stretch_floor(tau: Modulus, curve: CurveClass) -> Rows:
    """Along the unit stretch line in 16 directions, the even part of extremal length
    is exactly ``Ext``, read once, and the point at arc length 0.5 lies at hyperbolic
    distance 1.  The rows are yielded one at a time, so ``run_checks`` stops an
    ``Ext`` outside double range before the line is walked.  The distance is read
    at ``tau`` twisted by ``round(Re tau)``: the line and the distance commute
    with the twist, and a large ``Re tau`` would cancel in the difference.  The
    distance row holds the check's 1e-13 for ``Im tau >= 1e-2``; below that the
    float ``tau`` itself is the limit."""
    ext0 = extremal_length(tau, curve)
    near = Modulus(tau.re - round(tau.re), tau.im)
    for u in _UNITS:
        yield _stretch_even_part(tau, curve, u), ext0, 0.0
        yield hyperbolic_distance(near, teich_geodesic_constant(near, u, 0.5)), 1.0, 0.0


def _segments(rng: random.Random) -> list[tuple]:
    """``i, 2i``, then 50 vertical segments at a random eighth."""
    eighths = [_below(rng, 17) - 8 for _ in range(50)]
    segments = [(_uniform(rng, math.log(0.3), math.log(3.0)), _uniform(rng, 0.01, 2.0), rng.random())
                for _ in range(50)]
    inputs = [(_ANCHOR, Modulus(0.0, 2.0))]
    for k, (log_y1, length, coin) in zip(eighths, segments):
        y1 = math.exp(log_y1)
        delta = length * (1.0 if coin < 0.5 else -1.0)
        inputs.append((Modulus(k / 8.0, y1), Modulus(k / 8.0, y1 * math.exp(delta))))
    return inputs


def _kerckhoff_vs_hyperbolic(tau: Modulus, tau2: Modulus) -> Rows:
    """On vertical segments the stretch-factor distance is half the hyperbolic
    distance, and it is half the log of its maximizer's extremal-length ratio."""
    kd = kerckhoff_distance(tau, tau2, 50)
    ratio = extremal_length(tau2, kd.maximizer) / extremal_length(tau, kd.maximizer)
    return [(kd.value, 0.5 * hyperbolic_distance(tau, tau2), 0.0),
            (kd.value, 0.5 * math.log(ratio), 0.0)]


#: The checks in run order, by the name each reports under: its tolerance,
#: the sampler of its inputs and its row function.
_SUITE = {
    "ext_reciprocal": (1e-14, partial(_draws, count=1000), _reciprocity),
    "energy_equals_ext": (1e-13, partial(_draws, count=1000), _harmonic_energy),
    "hopf_direction": (1e-13, partial(_draws, count=1000), _hopf_axis),
    "marking_invariance": (1e-12, _marked, _remarking),
    "first_variation_fd": (1e-13, partial(_directed, count=200), _first_vs_fd),
    "second_variation_fd": (1e-13, _anchored, _second_vs_fd),
    "eq11_catalog": (1e-12, lambda rng: _CATALOG, _eq11_field),
    "eq15_constant": (1e-12, lambda rng: _CONSTANTS, _pairing_on_constant),
    "eq15_catalog": (1e-12, lambda rng: [(_ANCHOR, _HORIZ, "cos2pis", _SUITE_GRID)],
                     _pairing_on_grid_field),
    "pair_sum_scaling_positivity": (1e-12, partial(_directed, count=1000), _pair_sum_scaling),
    "levi_fd": (1e-13, _levi_grid, _levi_vs_fd),
    "pair_sum_levi_ratio": (1e-12, partial(_draws, count=100), _pair_sum_over_levi),
    "teich_lower_bound": (1e-13, partial(_draws, count=50), _stretch_floor),
    "kerckhoff_vs_half_hyperbolic": (1e-12, _segments, _kerckhoff_vs_hyperbolic),
}


def _require_seed(seed: int) -> None:
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def run_checks(checks: Iterable[tuple[str, Iterable[tuple]]],
               seed: int | None = None) -> SuiteResult:
    """One report per ``(name, inputs)`` of ``checks``, in order: check ``name``'s
    first failing row over ``inputs``, else the one with the largest relative
    error (the first, on a tie), at the check's tolerance, with the command
    that replays the input that gave it.  ``seed`` is what drew the inputs.
    A row with a side that is not finite raises ``OverflowError``: its input
    is outside double range, and no report is made of it."""
    start = time.perf_counter()
    reports = []
    for name, inputs in checks:
        tolerance, _, row = _SUITE[name]
        worst, worst_rel, passed = None, -1.0, True
        for given in inputs:
            for lhs, rhs, scale in row(*given):
                _, rel_err, passed = compare(lhs, rhs, tolerance, scale)
                # a side that is not finite always fails, so only a failure is looked at
                if not passed and not (math.isfinite(lhs) and math.isfinite(rhs)):
                    raise OverflowError(f"a side of {name} is outside double range")
                if not passed or rel_err > worst_rel:
                    worst, worst_rel = (lhs, rhs, scale, given), rel_err
                if not passed:
                    break
            if not passed:
                break
        lhs, rhs, scale, given = worst
        flags = [f"--{key.replace('_', '-')}={format_complex(v) if isinstance(v, complex) else v}"
                 for key, v in zip(signature(row).parameters, given)]
        replay = " ".join(["extorus verify --only", name, *flags])
        reports.append(IdentityReport(name, lhs, rhs, tolerance, scale, replay))
    return SuiteResult(tuple(reports), seed, time.perf_counter() - start)


def run_suite(seed: int = 42) -> SuiteResult:
    """Run the checks of ``_SUITE`` in order on one ``random.Random(seed)`` stream.

    Every draw is built from ``random()``, whose sequence for a seed Python
    keeps from one version to the next, so a seed replays the same report.
    ``random.Random`` seeds from ``abs(seed)`` and takes floats, so a
    negative or non-integer seed raises ``ValueError``.
    """
    _require_seed(seed)
    rng = random.Random(seed)
    return run_checks(((name, sample(rng)) for name, (_, sample, _) in _SUITE.items()), seed)


def format_table(result: SuiteResult) -> str:
    """Human-readable table, one line per check, and under a failing one the
    command that replays it."""
    lines = [
        f"{'check':32s} {'lhs':>14s} {'rhs':>14s} {'abs_err':>10s} {'rel_err':>10s} {'tol':>8s} status",
    ]
    for r in result.reports:
        lines.append(
            f"{r.name:32s} {r.lhs:14.6g} {r.rhs:14.6g} {r.abs_err:10.2e} "
            f"{r.rel_err:10.2e} {r.tolerance:8.0e} {'PASS' if r.passed else 'FAIL'}"
        )
        if not r.passed:
            lines.append(f"  replay: {r.replay}")
    verdict = "all checks passed" if result.all_passed else "FAILURES PRESENT"
    seed = "" if result.seed is None else f"seed {result.seed}, "
    lines.append(f"{seed}{result.elapsed_seconds:.2f} s, {verdict}")
    return "\n".join(lines)
