"""Independent cross-checks for every closed-form formula in the package.

Each derivative formula is compared against a finite-difference oracle
that knows nothing about the formula: first and second variations are
differenced along the explicit constant-field modulus paths, and the
complex Hessian of extremal length is differenced directly in the
half-plane.  The spectral solver is checked through integral identities
its output must satisfy.  ``run_suite`` executes a fixed sequence of
checks on one seeded random stream and reports one line per check.  A
check that samples draws all its rows before it computes any, each
distribution in one vectorized draw, and builds a report only for the
row it reports.  Each oracle writes its difference step once, as a
literal in its body, and each check writes its tolerance once, at the
check; the tolerance is reported in its row.

Relative errors are floored at the natural scale of the quantity being
differentiated (for a first variation along ``m`` that scale is
``|m| Ext``): a direction can be accidentally orthogonal to the
gradient, making the raw relative error of a near-zero value
meaningless, while the scaled error is seed-stable.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

from ._lazy import np
from .beltrami import constant, catalog_field, modulus_path_constant, FIELD_CATALOG
from .harmonic import build_harmonic_map, energy, hopf
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
from .variation import (
    IdentityReport,
    compare,
    first_variation,
    identity_eq11_check,
    identity_eq15_evaluate,
    pair_sum_levi,
    second_variation_constant,
    teich_bound_check,
)

__all__ = [
    "SuiteResult",
    "fd_first_variation",
    "fd_second_variation",
    "fd_levi_form",
    "sample_moduli",
    "sample_curves",
    "sample_directions",
    "sample_mapping_class",
    "run_suite",
    "format_table",
]


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


def fd_first_variation(tau: Modulus, curve: CurveClass, m: complex) -> float:
    """Centered difference of extremal length along the constant-field path."""
    h = 1e-4
    if not abs(m) * h < 0.5:
        raise ValueError(f"need |m| h < 0.5 with h = {h:g}")
    plus = extremal_length(modulus_path_constant(tau, m, h), curve)
    minus = extremal_length(modulus_path_constant(tau, m, -h), curve)
    return (plus - minus) / (2.0 * h)


def fd_second_variation(tau: Modulus, curve: CurveClass, m: complex) -> float:
    """Second centered difference along the constant-field path."""
    h = 1e-3
    if not abs(m) * h < 0.5:
        raise ValueError(f"need |m| h < 0.5 with h = {h:g}")
    plus = extremal_length(modulus_path_constant(tau, m, h), curve)
    mid = extremal_length(tau, curve)
    minus = extremal_length(modulus_path_constant(tau, m, -h), curve)
    return (plus - 2.0 * mid + minus) / (h * h)


def fd_levi_form(tau: Modulus, curve: CurveClass) -> float:
    """Quarter of the five-point Laplacian of extremal length in ``tau``.

    The Laplacian of a function of ``tau`` is four times its mixed
    ``tau, tau-bar`` derivative, so this is a formula-free oracle for
    ``levi_form``.
    """
    h = 1e-4
    if tau.im <= 2.0 * h:
        raise ValueError("tau too close to the boundary for this step")
    x, y = tau.re, tau.im

    def e(re: float, im: float) -> float:
        return extremal_length(Modulus(re, im), curve)

    lap = (
        e(x + h, y) + e(x - h, y) + e(x, y + h) + e(x, y - h) - 4.0 * e(x, y)
    ) / (h * h)
    return 0.25 * lap


def sample_moduli(rng: np.random.Generator, count: int) -> list[Modulus]:
    """Draw ``count`` moduli with ``Re in [-1, 1)`` and ``Im in [0.3, 3)``."""
    points = rng.uniform((-1.0, 0.3), (1.0, 3.0), (count, 2)).tolist()
    return [Modulus(re, im) for re, im in points]


def sample_curves(rng: np.random.Generator, count: int) -> list[CurveClass]:
    """Draw ``count`` primitive classes with ``|p|, |q| <= 5``.

    Each round draws the pairs still missing and keeps the primitive
    ones, so every kept pair is uniform over the primitive pairs.
    """
    kept = np.empty((0, 2), dtype=np.int64)
    while len(kept) < count:
        pairs = rng.integers(-5, 6, (count - len(kept), 2))
        kept = np.concatenate((kept, pairs[np.gcd(pairs[:, 0], pairs[:, 1]) == 1]))
    return [CurveClass(p, q) for p, q in kept.tolist()]


def sample_directions(rng: np.random.Generator, count: int) -> list[complex]:
    """Draw ``count`` deformation directions with modulus in ``[0.05, 0.5)``.

    The lower cutoff keeps finite-difference comparisons above the
    rounding floor: second differences of size ``|m|^2`` drown in the
    ``eps / h^2`` noise when ``|m|`` is tiny.  The angle goes through
    ``math.cos`` and ``math.sin`` row by row: numpy's SIMD loops for them
    may round differently from one CPU to another.
    """
    polar = rng.uniform((0.05, 0.0), (0.5, 2.0 * math.pi), (count, 2)).tolist()
    return [r * complex(math.cos(theta), math.sin(theta)) for r, theta in polar]


#: The twist, its inverse, the flip and its inverse.
_GENERATORS = ([[1, 1], [0, 1]], [[1, -1], [0, 1]], [[0, -1], [1, 0]], [[0, 1], [-1, 0]])


def sample_mapping_class(rng: np.random.Generator) -> MappingClass:
    """Random word of 1 to 6 letters in the twist and flip generators."""
    mat = np.eye(2, dtype=int)
    for _ in range(int(rng.integers(1, 7))):
        mat = mat @ _GENERATORS[int(rng.integers(0, 4))]
    return MappingClass(int(mat[0, 0]), int(mat[0, 1]), int(mat[1, 0]), int(mat[1, 1]))


def _draws(rng: np.random.Generator, count: int) -> list[tuple[Modulus, CurveClass]]:
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


def _worst_of(reports: list[IdentityReport]) -> IdentityReport:
    """``_rows`` over reports that share a tolerance."""
    return _rows([(r.lhs, r.rhs, r.scale) for r in reports], reports[0].tolerance)


_ANCHOR = Modulus(0.0, 1.0)
_HORIZ = CurveClass(1, 0)


def _reciprocity(rng: np.random.Generator) -> IdentityReport:
    return _rows([(extremal_length(tau, curve) * cylinder_modulus(tau, curve), 1.0, 0.0)
                  for tau, curve in _draws(rng, 1000)], 1e-14)


def _harmonic_energy(rng: np.random.Generator) -> IdentityReport:
    return _rows([(energy(build_harmonic_map(tau, curve)), extremal_length(tau, curve), 0.0)
                  for tau, curve in _draws(rng, 1000)], 1e-13)


def _hopf_axis(rng: np.random.Generator) -> IdentityReport:
    """The Hopf differential times the squared holonomy is real and non-positive."""
    rows = []
    for tau, curve in _draws(rng, 1000):
        w = curve.holonomy(tau)
        v = hopf(build_harmonic_map(tau, curve)) * (w * w)
        rows.append((max(abs(v.imag), max(0.0, v.real)), 0.0, max(1.0, abs(v))))
    return _rows(rows, 1e-13)


def _remarking(rng: np.random.Generator) -> IdentityReport:
    draws = _draws(rng, 100)
    marks = [sample_mapping_class(rng) for _ in draws]
    rows = []
    for (tau, curve), mc in zip(draws, marks):
        new_tau, new_curve = apply_mapping_class(tau, curve, mc)
        rows.append((extremal_length(new_tau, new_curve), extremal_length(tau, curve), 0.0))
    return _rows(rows, 1e-12)


def _first_vs_fd(rng: np.random.Generator) -> IdentityReport:
    rows = []
    for (tau, curve), m in zip(_draws(rng, 200), sample_directions(rng, 200)):
        closed = first_variation(tau, curve, constant(tau, m))
        fd = fd_first_variation(tau, curve, m)
        rows.append((closed, fd, abs(m) * extremal_length(tau, curve)))
    return _rows(rows, 1e-6)


def _second_vs_fd(rng: np.random.Generator) -> IdentityReport:
    rows = []
    for (tau, curve), m in zip(_draws(rng, 200), sample_directions(rng, 200)):
        closed = second_variation_constant(tau, curve, m)
        fd = fd_second_variation(tau, curve, m)
        rows.append((closed, fd, abs(m) * abs(m) * extremal_length(tau, curve)))
    rows += [(second_variation_constant(_ANCHOR, _HORIZ, m), 4.0, 0.0) for m in (1.0, 1j)]
    return _rows(rows, 1e-5)


def _eq11_fields(rng: np.random.Generator) -> IdentityReport:
    return _worst_of([
        identity_eq11_check(tau, curve, catalog_field(tau, nm, n), n)
        for tau, curve in [(_ANCHOR, _HORIZ), (Modulus(0.5, 1.25), CurveClass(1, 1))]
        for nm in sorted(FIELD_CATALOG)
        for n in (32, 64, 128)
    ])


def _pairing_on_constants(rng: np.random.Generator) -> IdentityReport:
    return _worst_of([
        identity_eq15_evaluate(tau, curve, constant(tau, m), 8)
        for tau, curve in [(_ANCHOR, _HORIZ), (Modulus(0.0, 2.0), CurveClass(2, 1))]
        for m in (1.0, 0.5j, 0.3 - 0.2j)
    ])


def _pairing_on_grid_field(rng: np.random.Generator) -> IdentityReport:
    field = catalog_field(_ANCHOR, "cos2pis", 64)
    return identity_eq15_evaluate(_ANCHOR, _HORIZ, field, 64)


def _pair_sum_scaling(rng: np.random.Generator) -> IdentityReport:
    """The paired sum along ``m`` is ``8 |m|^2 Ext``.

    Positivity needs no row of its own: ``pair_sum_levi`` raises
    ``ArithmeticError`` unless the sum is positive.
    """
    rows = []
    for (tau, curve), m in zip(_draws(rng, 1000), sample_directions(rng, 1000)):
        exact = 8.0 * (abs(m) * abs(m)) * extremal_length(tau, curve)
        rows.append((pair_sum_levi(tau, curve, m), exact, 0.0))
    return _rows(rows, 1e-12)


def _levi_vs_fd(rng: np.random.Generator) -> IdentityReport:
    rows = []
    for curve in (_HORIZ, CurveClass(0, 1), CurveClass(1, 1)):
        for re in np.linspace(-1.0, 1.0, 10):
            for im in np.linspace(0.3, 3.0, 10):
                tau = Modulus(float(re), float(im))
                rows.append((levi_form(tau, curve), fd_levi_form(tau, curve), 0.0))
    return _rows(rows, 1e-6)


def _pair_sum_over_levi(rng: np.random.Generator) -> IdentityReport:
    """The paired sum along 1 is ``4 levi_form`` times the squared chart
    speed ``4 (Im tau)^2`` of the unit stretch."""
    return _rows([(pair_sum_levi(tau, curve, 1.0)
                   / (4.0 * tau.im * tau.im * levi_form(tau, curve)), 4.0, 0.0)
                  for tau, curve in _draws(rng, 100)], 1e-12)


def _stretch_floor(rng: np.random.Generator) -> IdentityReport:
    units = [complex(math.cos(math.pi * k / 8.0), math.sin(math.pi * k / 8.0)) for k in range(16)]
    return _worst_of([
        teich_bound_check(tau, curve, m)
        for tau, curve in _draws(rng, 50)
        for m in units
    ])


def _kerckhoff_vs_hyperbolic(rng: np.random.Generator) -> IdentityReport:
    """On vertical segments the stretch-factor distance is half the hyperbolic
    distance; at ``i, 2i`` the maximizing curve must be ``0,1``, which the
    last two rows compare."""
    anchor_kd = kerckhoff_distance(_ANCHOR, Modulus(0.0, 2.0), 50)
    rows = [(anchor_kd.value, 0.5 * hyperbolic_distance(_ANCHOR, Modulus(0.0, 2.0)), 0.0)]
    eighths = rng.integers(-8, 9, 50).tolist()
    segments = rng.uniform((math.log(0.3), 0.01, 0.0), (math.log(3.0), 2.0, 1.0), (50, 3)).tolist()
    for k, (log_y1, length, coin) in zip(eighths, segments):
        y1 = math.exp(log_y1)
        delta = length * (1.0 if coin < 0.5 else -1.0)
        t1, t2 = Modulus(k / 8.0, y1), Modulus(k / 8.0, y1 * math.exp(delta))
        rows.append((kerckhoff_distance(t1, t2, 50).value, 0.5 * hyperbolic_distance(t1, t2), 0.0))
    p, q = anchor_kd.maximizer.p, anchor_kd.maximizer.q
    return _rows(rows + [(float(p), 0.0, 0.0), (float(q), 1.0, 0.0)], 1e-12)


#: The checks in run order, each with the name it reports under.
_SUITE = (
    ("ext_reciprocal", _reciprocity),
    ("energy_equals_ext", _harmonic_energy),
    ("hopf_direction", _hopf_axis),
    ("marking_invariance", _remarking),
    ("first_variation_fd", _first_vs_fd),
    ("second_variation_fd", _second_vs_fd),
    ("eq11_catalog", _eq11_fields),
    ("eq15_constant", _pairing_on_constants),
    ("eq15_catalog", _pairing_on_grid_field),
    ("pair_sum_scaling_positivity", _pair_sum_scaling),
    ("levi_fd", _levi_vs_fd),
    ("pair_sum_levi_ratio", _pair_sum_over_levi),
    ("teich_lower_bound", _stretch_floor),
    ("kerckhoff_vs_half_hyperbolic", _kerckhoff_vs_hyperbolic),
)


def run_suite(seed: int = 42) -> SuiteResult:
    """Run the checks of ``_SUITE`` in order on one ``default_rng(seed)`` stream."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    reports = tuple(replace(check(rng), name=name) for name, check in _SUITE)
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
