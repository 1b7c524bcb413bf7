"""Independent cross-checks for every closed-form formula in the package.

Each derivative formula is compared against a finite-difference oracle
that knows nothing about the formula: first and second variations are
differenced along the explicit constant-field modulus paths, and the
complex Hessian of extremal length is differenced directly in the
half-plane.  The spectral solver is checked through integral identities
its output must satisfy.  ``run_suite`` executes a fixed sequence of
checks with seeded sampling and reports one line per check.

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
from dataclasses import dataclass, fields, replace

import numpy as np

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
    first_variation,
    identity_eq11_check,
    identity_eq15_evaluate,
    make_report,
    pair_sum_levi,
    second_variation_constant,
    teich_bound_check,
)

__all__ = [
    "ToleranceProfile",
    "SuiteResult",
    "fd_first_variation",
    "fd_second_variation",
    "fd_levi_form",
    "sample_modulus",
    "sample_curve",
    "sample_direction",
    "sample_mapping_class",
    "run_suite",
    "format_table",
]


@dataclass(frozen=True)
class ToleranceProfile:
    """Steps and tolerances for the verification suite."""

    fd_step_first: float = 1e-4
    fd_step_second: float = 1e-3
    rel_tol_first: float = 1e-6
    rel_tol_second: float = 1e-5
    spectral_tol: float = 1e-10
    exact_tol: float = 1e-12

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{f.name} must be positive and finite")
        if self.fd_step_first > 1e-2 or self.fd_step_second > 1e-2:
            raise ValueError("finite-difference steps above 1e-2 are not meaningful here")

    def merged(self, overrides: dict) -> "ToleranceProfile":
        known = [f.name for f in fields(self)]
        for key in overrides:
            if key not in known:
                raise ValueError(f"unknown tolerance key {key!r}; known: {', '.join(known)}")
        return replace(self, **overrides)


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple[IdentityReport, ...]
    seed: int
    elapsed_seconds: float
    all_passed: bool

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "all_passed": self.all_passed,
            "reports": [r.to_json() for r in self.reports],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, allow_nan=False)


def fd_first_variation(tau: Modulus, curve: CurveClass, m: complex, h: float) -> float:
    """Centered difference of extremal length along the constant-field path."""
    if not (h > 0 and abs(m) * h < 0.5):
        raise ValueError("need h > 0 with |m| h < 0.5")
    plus = extremal_length(modulus_path_constant(tau, m, h), curve)
    minus = extremal_length(modulus_path_constant(tau, m, -h), curve)
    return (plus - minus) / (2.0 * h)


def fd_second_variation(tau: Modulus, curve: CurveClass, m: complex, h: float) -> float:
    """Second centered difference along the constant-field path."""
    if not (h > 0 and abs(m) * h < 0.5):
        raise ValueError("need h > 0 with |m| h < 0.5")
    plus = extremal_length(modulus_path_constant(tau, m, h), curve)
    mid = extremal_length(tau, curve)
    minus = extremal_length(modulus_path_constant(tau, m, -h), curve)
    return (plus - 2.0 * mid + minus) / h**2


def fd_levi_form(tau: Modulus, curve: CurveClass, h: float) -> float:
    """Quarter of the five-point Laplacian of extremal length in ``tau``.

    The Laplacian of a function of ``tau`` is four times its mixed
    ``tau, tau-bar`` derivative, so this is a formula-free oracle for
    ``levi_form``.
    """
    if not 0.0 < h <= 1e-3:
        raise ValueError("step must lie in (0, 1e-3]")
    if tau.im <= 2.0 * h:
        raise ValueError("tau too close to the boundary for this step")
    x, y = tau.re, tau.im

    def e(re: float, im: float) -> float:
        return extremal_length(Modulus(re, im), curve)

    lap = (
        e(x + h, y) + e(x - h, y) + e(x, y + h) + e(x, y - h) - 4.0 * e(x, y)
    ) / h**2
    return 0.25 * lap


def sample_modulus(rng: np.random.Generator) -> Modulus:
    """Draw ``tau`` with ``Re in [-1, 1]`` and ``Im in [0.3, 3]``."""
    return Modulus(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.3, 3.0)))


def sample_curve(rng: np.random.Generator) -> CurveClass:
    """Draw a primitive class with ``|p|, |q| <= 5``."""
    while True:
        p = int(rng.integers(-5, 6))
        q = int(rng.integers(-5, 6))
        if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
            return CurveClass(p, q)


def sample_direction(rng: np.random.Generator) -> complex:
    """Draw a deformation direction with modulus in ``[0.05, 0.5]``.

    The lower cutoff keeps finite-difference comparisons above the
    rounding floor: second differences of size ``|m|^2`` drown in the
    ``eps / h^2`` noise when ``|m|`` is tiny.
    """
    r = float(rng.uniform(0.05, 0.5))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    return r * complex(math.cos(theta), math.sin(theta))


#: The twist, its inverse, the flip and its inverse.
_GENERATORS = tuple(np.array(g) for g in (
    [[1, 1], [0, 1]], [[1, -1], [0, 1]], [[0, -1], [1, 0]], [[0, 1], [-1, 0]]))


def sample_mapping_class(rng: np.random.Generator) -> MappingClass:
    """Random word of 1 to 6 letters in the twist and flip generators."""
    mat = np.eye(2, dtype=int)
    for _ in range(int(rng.integers(1, 7))):
        mat = mat @ _GENERATORS[int(rng.integers(0, 4))]
    return MappingClass(int(mat[0, 0]), int(mat[0, 1]), int(mat[1, 0]), int(mat[1, 1]))


def _draws(rng: np.random.Generator, count: int):
    """``count`` lazy draws of ``tau, curve``; a loop body's own draws fall in between."""
    for _ in range(count):
        yield sample_modulus(rng), sample_curve(rng)


def _worst_of(reports: list[IdentityReport]) -> IdentityReport:
    """The first failing report, else the one with the largest relative error."""
    for r in reports:
        if not r.passed:
            return r
    return max(reports, key=lambda r: r.rel_err)


def _rows(rows: list[tuple[float, float, float]], tolerance: float) -> IdentityReport:
    """``_worst_of`` over ``(lhs, rhs, scale)`` comparisons."""
    return _worst_of([make_report("", lhs, rhs, tolerance, scale) for lhs, rhs, scale in rows])


def _failed_unless(ok: bool, report: IdentityReport) -> IdentityReport:
    """``report``, or a failure with infinite error when ``ok`` is false."""
    return report if ok else replace(report, passed=False, abs_err=math.inf, rel_err=math.inf)


_ANCHOR = Modulus(0.0, 1.0)
_HORIZ = CurveClass(1, 0)


def _reciprocity(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    return _rows([(extremal_length(tau, curve) * cylinder_modulus(tau, curve), 1.0, 0.0)
                  for tau, curve in _draws(rng, 1000)], 1e-14)


def _harmonic_energy(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    return _rows([(energy(build_harmonic_map(tau, curve)), extremal_length(tau, curve), 0.0)
                  for tau, curve in _draws(rng, 1000)], 1e-13)


def _hopf_axis(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    """The Hopf differential times the squared holonomy is real and non-positive."""
    rows = []
    for tau, curve in _draws(rng, 1000):
        v = hopf(build_harmonic_map(tau, curve)) * curve.holonomy(tau) ** 2
        rows.append((max(abs(v.imag), max(0.0, v.real)), 0.0, max(1.0, abs(v))))
    return _rows(rows, 1e-13)


def _remarking(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    rows = []
    for tau, curve in _draws(rng, 100):
        new_tau, new_curve = apply_mapping_class(tau, curve, sample_mapping_class(rng))
        rows.append((extremal_length(new_tau, new_curve), extremal_length(tau, curve), 0.0))
    return _rows(rows, 1e-12)


def _first_vs_fd(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    rows = []
    for tau, curve in _draws(rng, 200):
        m = sample_direction(rng)
        closed = first_variation(tau, curve, constant(tau, m))
        fd = fd_first_variation(tau, curve, m, profile.fd_step_first)
        rows.append((closed, fd, abs(m) * extremal_length(tau, curve)))
    return _rows(rows, profile.rel_tol_first)


def _second_vs_fd(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    rows = []
    for tau, curve in _draws(rng, 200):
        m = sample_direction(rng)
        closed = second_variation_constant(tau, curve, m)
        fd = fd_second_variation(tau, curve, m, profile.fd_step_second)
        rows.append((closed, fd, abs(m) ** 2 * extremal_length(tau, curve)))
    rows += [(second_variation_constant(_ANCHOR, _HORIZ, m), 4.0, 0.0) for m in (1.0, 1j)]
    return _rows(rows, profile.rel_tol_second)


def _eq11_fields(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    return _worst_of([
        identity_eq11_check(tau, curve, catalog_field(tau, nm, n), n, profile.spectral_tol)
        for tau, curve in [(_ANCHOR, _HORIZ), (Modulus(0.5, 1.25), CurveClass(1, 1))]
        for nm in sorted(FIELD_CATALOG)
        for n in (32, 64, 128)
    ])


def _pairing_on_constants(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    return _worst_of([
        identity_eq15_evaluate(tau, curve, constant(tau, m), 8, profile.exact_tol)
        for tau, curve in [(_ANCHOR, _HORIZ), (Modulus(0.0, 2.0), CurveClass(2, 1))]
        for m in (1.0, 0.5j, 0.3 - 0.2j)
    ])


def _pairing_on_grid_field(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    """Reported only: ``identity_eq15_evaluate`` asserts constant fields alone."""
    field = catalog_field(_ANCHOR, "cos2pis", 64)
    return identity_eq15_evaluate(_ANCHOR, _HORIZ, field, 64, profile.spectral_tol)


def _pair_sum_scaling(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    """Doubling the direction quadruples the paired sum.

    Positivity needs no row of its own: ``pair_sum_levi`` raises
    ``ArithmeticError`` unless the sum is positive.
    """
    rows = []
    for tau, curve in _draws(rng, 1000):
        m = sample_direction(rng)
        ps = pair_sum_levi(tau, curve, m)
        rows.append((pair_sum_levi(tau, curve, 2.0 * m), 4.0 * ps, 0.0))
    return _rows(rows, 1e-10)


def _levi_vs_fd(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    rows = []
    for curve in (_HORIZ, CurveClass(0, 1), CurveClass(1, 1)):
        for re in np.linspace(-1.0, 1.0, 10):
            for im in np.linspace(0.3, 3.0, 10):
                tau = Modulus(float(re), float(im))
                rows.append((levi_form(tau, curve), fd_levi_form(tau, curve, 1e-4), 0.0))
    return _rows(rows, profile.rel_tol_first)


def _pair_sum_over_levi(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    """The paired sum along 1 over ``levi_form * 4 (Im tau)^2`` is one constant:
    ``lhs``, ``rhs`` are the largest and smallest ratio, ``rel_err`` their spread."""
    ratios = [pair_sum_levi(tau, curve, 1.0) / (levi_form(tau, curve) * (4.0 * tau.im**2))
              for tau, curve in _draws(rng, 100)]
    lo, hi, mean = min(ratios), max(ratios), sum(ratios) / len(ratios)
    spread = (hi - lo) / mean
    tol = profile.rel_tol_first
    return IdentityReport("", hi, lo, hi - lo, spread, spread <= tol, tol)


def _stretch_floor(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    units = [complex(math.cos(math.pi * k / 8.0), math.sin(math.pi * k / 8.0)) for k in range(16)]
    return _worst_of([
        teich_bound_check(tau, curve, m, profile.fd_step_second, profile.rel_tol_first)
        for tau, curve in _draws(rng, 50)
        for m in units
    ])


def _kerckhoff_vs_hyperbolic(rng: np.random.Generator, profile: ToleranceProfile) -> IdentityReport:
    """On vertical segments the stretch-factor distance is half the hyperbolic
    distance; at ``i, 2i`` the maximizing curve must be ``0,1``."""
    anchor_kd = kerckhoff_distance(_ANCHOR, Modulus(0.0, 2.0), 50)
    rows = [(anchor_kd.value, 0.5 * hyperbolic_distance(_ANCHOR, Modulus(0.0, 2.0)), 0.0)]
    for _ in range(50):
        x = float(rng.integers(-8, 9)) / 8.0
        y1 = float(math.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        delta = float(rng.uniform(0.01, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        t1, t2 = Modulus(x, y1), Modulus(x, y1 * math.exp(delta))
        rows.append((kerckhoff_distance(t1, t2, 50).value, 0.5 * hyperbolic_distance(t1, t2), 0.0))
    return _failed_unless(anchor_kd.maximizer == CurveClass(0, 1), _rows(rows, 1e-9))


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


def run_suite(profile: ToleranceProfile | None = None, seed: int = 42) -> SuiteResult:
    """Run the checks of ``_SUITE`` in order on one ``default_rng(seed)`` stream."""
    profile = profile or ToleranceProfile()
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    reports = tuple(replace(check(rng, profile), name=name) for name, check in _SUITE)
    elapsed = time.perf_counter() - start
    all_passed = all(r.passed for r in reports if r.asserted)
    return SuiteResult(reports, seed, elapsed, all_passed)


def format_table(result: SuiteResult) -> str:
    """Human-readable table, one line per check."""
    lines = [
        f"{'check':32s} {'lhs':>14s} {'rhs':>14s} {'abs_err':>10s} {'rel_err':>10s} {'tol':>8s} status",
    ]
    for r in result.reports:
        status = ("PASS" if r.passed else "FAIL") if r.asserted else "REPORT"
        lines.append(
            f"{r.name:32s} {r.lhs:14.6g} {r.rhs:14.6g} {r.abs_err:10.2e} "
            f"{r.rel_err:10.2e} {r.tolerance:8.0e} {status}"
        )
    verdict = "all asserted checks passed" if result.all_passed else "FAILURES PRESENT"
    lines.append(
        f"seed {result.seed}, {result.elapsed_seconds:.2f} s, {verdict}"
    )
    return "\n".join(lines)
