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
        known = {f.name for f in fields(self)}
        for key in overrides:
            if key not in known:
                raise ValueError(f"unknown tolerance key {key!r}")
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


def sample_curve(rng: np.random.Generator, bound: int = 5) -> CurveClass:
    """Draw a primitive class with ``|p|, |q| <= bound``."""
    while True:
        p = int(rng.integers(-bound, bound + 1))
        q = int(rng.integers(-bound, bound + 1))
        if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
            return CurveClass(p, q)


def sample_direction(
    rng: np.random.Generator, rmin: float = 0.05, rmax: float = 0.5
) -> complex:
    """Draw a deformation direction with modulus in ``[rmin, rmax]``.

    The lower cutoff keeps finite-difference comparisons above the
    rounding floor: second differences of size ``|m|^2`` drown in the
    ``eps / h^2`` noise when ``|m|`` is tiny.
    """
    r = float(rng.uniform(rmin, rmax))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    return r * complex(math.cos(theta), math.sin(theta))


_TWIST = np.array([[1, 1], [0, 1]])
_TWIST_INV = np.array([[1, -1], [0, 1]])
_FLIP = np.array([[0, -1], [1, 0]])
_FLIP_INV = np.array([[0, 1], [-1, 0]])


def sample_mapping_class(rng: np.random.Generator, max_word: int = 6) -> MappingClass:
    """Random short word in the twist and flip generators."""
    gens = (_TWIST, _TWIST_INV, _FLIP, _FLIP_INV)
    mat = np.eye(2, dtype=int)
    for _ in range(int(rng.integers(1, max_word + 1))):
        mat = mat @ gens[int(rng.integers(0, 4))]
    return MappingClass(int(mat[0, 0]), int(mat[0, 1]), int(mat[1, 0]), int(mat[1, 1]))


def _worst_of(name: str, reports: list[IdentityReport]) -> IdentityReport:
    """Fold per-sample reports into one, renamed to ``name``.

    The representative sample is the first failing one, or the one with
    the largest relative error when all pass.
    """
    for r in reports:
        if not r.passed:
            return replace(r, name=name)
    return replace(max(reports, key=lambda r: r.rel_err), name=name)


def _aggregate(
    name: str, rows: list[tuple[float, float, float]], tolerance: float
) -> IdentityReport:
    """``_worst_of`` over ``(lhs, rhs, scale)`` comparisons."""
    reports = [make_report(name, lhs, rhs, tolerance, scale) for lhs, rhs, scale in rows]
    return _worst_of(name, reports)


def run_suite(profile: ToleranceProfile | None = None, seed: int = 42) -> SuiteResult:
    """Run the fixed sequence of cross-checks with seeded sampling.

    The checks, in order: reciprocity of extremal length and annulus
    modulus; energy against extremal length; the direction of the Hopf
    differential; invariance under change of marking; first and second
    variations against finite differences; the integration-by-parts
    identity over the field catalog at three grid sizes; the
    paired-direction identity (asserted for constants, reported for the
    catalog); pair-sum positivity and quadratic scaling; the Levi form
    against the five-point oracle; constancy of the pair-sum/Levi-form
    ratio; the convexity floor along stretch lines; and the
    stretch-factor distance against half the hyperbolic distance.
    """
    profile = profile or ToleranceProfile()
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    reports: list[IdentityReport] = []

    rows = []
    for _ in range(1000):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        rows.append((extremal_length(tau, curve) * cylinder_modulus(tau, curve), 1.0, 0.0))
    reports.append(_aggregate("ext_reciprocal", rows, 1e-14))

    rows = []
    for _ in range(1000):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        rows.append((energy(build_harmonic_map(tau, curve)), extremal_length(tau, curve), 0.0))
    reports.append(_aggregate("energy_equals_ext", rows, 1e-13))

    rows = []
    for _ in range(1000):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        v = hopf(build_harmonic_map(tau, curve)) * curve.holonomy(tau) ** 2
        metric = max(abs(v.imag), max(0.0, v.real))
        rows.append((metric, 0.0, max(1.0, abs(v))))
    reports.append(_aggregate("hopf_direction", rows, 1e-13))

    rows = []
    for _ in range(100):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        new_tau, new_curve = apply_mapping_class(tau, curve, sample_mapping_class(rng))
        rows.append((extremal_length(new_tau, new_curve), extremal_length(tau, curve), 0.0))
    reports.append(_aggregate("marking_invariance", rows, 1e-12))

    rows = []
    for _ in range(200):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        m = sample_direction(rng)
        closed = first_variation(tau, curve, constant(tau, m))
        fd = fd_first_variation(tau, curve, m, profile.fd_step_first)
        rows.append((closed, fd, abs(m) * extremal_length(tau, curve)))
    reports.append(_aggregate("first_variation_fd", rows, profile.rel_tol_first))

    rows = []
    for _ in range(200):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        m = sample_direction(rng)
        closed = second_variation_constant(tau, curve, m)
        fd = fd_second_variation(tau, curve, m, profile.fd_step_second)
        rows.append((closed, fd, abs(m) ** 2 * extremal_length(tau, curve)))
    anchor = Modulus(0.0, 1.0)
    horiz = CurveClass(1, 0)
    rows.append((second_variation_constant(anchor, horiz, 1.0), 4.0, 0.0))
    rows.append((second_variation_constant(anchor, horiz, 1j), 4.0, 0.0))
    reports.append(_aggregate("second_variation_fd", rows, profile.rel_tol_second))

    bases = [(anchor, horiz), (Modulus(0.5, 1.25), CurveClass(1, 1))]
    eq11 = []
    for tau, curve in bases:
        for nm in sorted(FIELD_CATALOG):
            for n in (32, 64, 128):
                eq11.append(
                    identity_eq11_check(
                        tau, curve, catalog_field(tau, nm, n), n, profile.spectral_tol
                    )
                )
    reports.append(_worst_of("eq11_catalog", eq11))

    eq15c = []
    for tau, curve in [(anchor, horiz), (Modulus(0.0, 2.0), CurveClass(2, 1))]:
        for m in (1.0, 0.5j, 0.3 - 0.2j):
            eq15c.append(
                identity_eq15_evaluate(tau, curve, constant(tau, m), 8, profile.exact_tol)
            )
    reports.append(_worst_of("eq15_constant", eq15c))

    eq15r = identity_eq15_evaluate(
        anchor, horiz, catalog_field(anchor, "cos2pis", 64), 64, profile.spectral_tol
    )
    reports.append(replace(eq15r, name="eq15_catalog", asserted=False))

    rows = []
    positive = True
    for _ in range(1000):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        m = sample_direction(rng)
        ps = pair_sum_levi(tau, curve, m)
        positive = positive and ps > 0.0
        rows.append((pair_sum_levi(tau, curve, 2.0 * m), 4.0 * ps, 0.0))
    agg = _aggregate("pair_sum_scaling_positivity", rows, 1e-10)
    if not positive:
        agg = replace(agg, passed=False, abs_err=math.inf, rel_err=math.inf)
    reports.append(agg)

    rows = []
    for curve in (horiz, CurveClass(0, 1), CurveClass(1, 1)):
        for re in np.linspace(-1.0, 1.0, 10):
            for im in np.linspace(0.3, 3.0, 10):
                tau = Modulus(float(re), float(im))
                rows.append((levi_form(tau, curve), fd_levi_form(tau, curve, 1e-4), 0.0))
    reports.append(_aggregate("levi_fd", rows, profile.rel_tol_first))

    ratios = []
    for _ in range(100):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        velocity_sq = 4.0 * tau.im**2
        ratios.append(pair_sum_levi(tau, curve, 1.0) / (levi_form(tau, curve) * velocity_sq))
    lo, hi, mean = min(ratios), max(ratios), sum(ratios) / len(ratios)
    spread = (hi - lo) / mean
    reports.append(
        IdentityReport(
            "pair_sum_levi_ratio",
            hi,
            lo,
            hi - lo,
            spread,
            spread <= profile.rel_tol_first,
            profile.rel_tol_first,
        )
    )

    bound_reports = []
    for _ in range(50):
        tau, curve = sample_modulus(rng), sample_curve(rng)
        for k in range(16):
            m = complex(math.cos(math.pi * k / 8.0), math.sin(math.pi * k / 8.0))
            bound_reports.append(
                teich_bound_check(tau, curve, m, profile.fd_step_second, profile.rel_tol_first)
            )
    reports.append(_worst_of("teich_lower_bound", bound_reports))

    rows = []
    anchor_kd = kerckhoff_distance(anchor, Modulus(0.0, 2.0), 50)
    rows.append(
        (anchor_kd.value, 0.5 * hyperbolic_distance(anchor, Modulus(0.0, 2.0)), 0.0)
    )
    maximizer_ok = anchor_kd.maximizer == CurveClass(0, 1)
    for _ in range(50):
        x = float(rng.integers(-8, 9)) / 8.0
        y1 = float(math.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        delta = float(rng.uniform(0.01, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        t1, t2 = Modulus(x, y1), Modulus(x, y1 * math.exp(delta))
        rows.append((kerckhoff_distance(t1, t2, 50).value, 0.5 * hyperbolic_distance(t1, t2), 0.0))
    agg = _aggregate("kerckhoff_vs_half_hyperbolic", rows, 1e-9)
    if not maximizer_ok:
        agg = replace(agg, passed=False, abs_err=math.inf, rel_err=math.inf)
    reports.append(agg)

    elapsed = time.perf_counter() - start
    all_passed = all(r.passed for r in reports if r.asserted)
    return SuiteResult(tuple(reports), seed, elapsed, all_passed)


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
