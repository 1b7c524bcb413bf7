"""First and second variation of extremal length along Beltrami paths.

Deforming the torus by a Beltrami field ``mu`` drags the harmonic map
``w = Re(a z)`` of a curve class along with it.  The derivative field
``wdot`` is periodic: differentiating the period conditions gives an
affine part ``Re(b z + c zbar)`` with ``c = a mean(mu)`` and
``b = -conj(c)``, and that part is identically zero.  So ``wdot`` is
the periodic solution ``P`` of the torus Poisson problem

    P_{z zbar} = d/dz ( mu_tilde w_z ) + d/dzbar ( conj(mu_tilde) w_zbar )

where ``mu_tilde`` is the mean-zero part of ``mu``.  Both sides are real
and mean-zero, so the spectral solve is exact up to rounding for
band-limited fields; ``P`` is gauged to grid mean zero (adding a
constant to ``P`` never changes a derivative).

From these pieces:

* first variation of extremal length: ``-2 Re <mu, Hopf>``;
* second variation along a constant field: closed form in ``(a, m)``;
* the paired sum of second variations along ``m`` and ``i m``, the
  quantity whose positivity expresses plurisubharmonicity of extremal
  length over the moduli space;
* grid checks of two integral identities the solver's output must
  satisfy for every field: an integration-by-parts identity, and a
  paired-direction identity whose right side depends on the field alone;
* a second-difference check of extremal length along unit stretch
  lines against its exact value.

Measure convention: ``<< f >> = 4 Im tau * (grid mean of f)``, the
normalization under which the energy of the harmonic map equals the
extremal length exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._lazy import np
from .beltrami import (
    BeltramiField,
    _ifft2_in_place,
    dz_multiplier,
    grid_dz,
    pair_hopf,
    teich_geodesic_constant,
)
from .harmonic import HarmonicMapTorus, build_harmonic_map, hopf
from .moduli import CurveClass, Modulus, extremal_length, format_complex

__all__ = [
    "IdentityReport",
    "VariationField",
    "first_variation",
    "solve_variation_field",
    "identity_eq11_check",
    "second_variation_constant",
    "pair_sum_levi",
    "identity_eq15_evaluate",
    "teich_bound_check",
]

#: Residual certified by the spectral solve when the source is zero.
SOLVER_RESIDUAL_ABS = 1e-14


def solver_residual_bound(tau: Modulus, n: int, periodic_sup: float) -> float:
    """Residual the spectral solve certifies on an ``n x n`` grid, for a
    solution ``periodic`` of sup norm ``periodic_sup``: ``8 eps L periodic_sup``.

    The solve is exact up to rounding, about ``eps periodic_sup`` in
    ``periodic``, and the residual applies the Laplacian symbol to that
    rounding.  The symbol's largest value ``L``, at the corner of the
    frequency box, grows as ``n^2``.  Over the field catalog, moduli with
    ``Im tau`` from 0.05 to 20 and ``n`` from 16 to 512 (a subset of them
    at 1024 and 2048), the residual stayed below ``2.4 eps L
    periodic_sup``, a margin of three; the ratio grows slowly with ``n``
    (2.0 at n = 256, 2.4 at n = 2048).  A bound
    on ``residual / source_sup`` alone does not hold across moduli: its
    worst ratio to ``eps n^2`` was 0.63 at ``0.5+1.25i`` but about 11 at
    ``0.99+0.3i``, where the source's modes sit low in the symbol.
    """
    m = n // 2 - 1  # the highest frequency the symbols keep
    largest = (math.pi * m / tau.im) ** 2 * ((1.0 + abs(tau.re)) ** 2 + tau.im**2)
    return 8.0 * np.finfo(float).eps * largest * periodic_sup


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one numerical check.

    ``passed`` is true iff ``abs_err <= tolerance`` or
    ``rel_err <= tolerance``.  A report that does not pass is a failure.
    """

    name: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    passed: bool
    tolerance: float

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
        }


def json_float(x: float) -> float | str:
    """``x`` itself if finite, else its ``str``, which ``float()`` reads back.

    Standard JSON has no token for infinity or NaN.
    """
    return x if math.isfinite(x) else str(x)


def make_report(
    name: str,
    lhs: float,
    rhs: float,
    tolerance: float,
    scale: float = 0.0,
) -> IdentityReport:
    """Compare ``lhs`` to ``rhs``; ``scale`` sets a floor for the relative error.

    The floor keeps comparisons meaningful when the true value is an
    accidental near-zero of a quantity whose natural size is ``scale``.
    """
    return IdentityReport(name, lhs, rhs, *compare(lhs, rhs, tolerance, scale), tolerance)


def compare(lhs: float, rhs: float, tolerance: float, scale: float = 0.0
            ) -> tuple[float, float, bool]:
    """``abs_err``, ``rel_err`` and the verdict of ``make_report``, without the report.

    Where no size is positive both sides are 0, and the relative error is
    the absolute one; a NaN side makes both errors NaN, which fails.
    """
    abs_err = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs), scale)
    rel_err = abs_err / denom if denom > 0 else abs_err
    return abs_err, rel_err, abs_err <= tolerance or rel_err <= tolerance


@dataclass(frozen=True, eq=False)
class VariationField:
    """Derivative ``wdot`` of the harmonic map along a Beltrami field.

    ``wdot`` is ``periodic``, real and of grid mean zero on the ``n x n``
    lattice grid.  The affine coefficients from the period conditions are
    kept for the record; ``affine_b == -conj(affine_c)``, so the affine
    part ``Re(affine_b z + affine_c zbar)`` is zero.  ``mu_samples`` is
    the driving field materialized on the same grid, ``gradient`` is
    ``d wdot / dz`` there, and ``residual`` is the sup norm of the defect
    of the discrete Poisson equation against a source of sup norm
    ``source_sup``.
    """

    base: HarmonicMapTorus
    n: int
    affine_b: complex
    affine_c: complex
    periodic: np.ndarray
    mu_samples: np.ndarray
    gradient: np.ndarray
    residual: float
    source_sup: float


def first_variation(tau: Modulus, curve: CurveClass, field: BeltramiField) -> float:
    """``d/dt Ext`` at ``t = 0`` along the path generated by ``field``.

    Equals ``-2 Re <mu, Hopf>``; only the field mean enters, because the
    Hopf differential of the linear map is constant.
    """
    phi = hopf(build_harmonic_map(tau, curve))
    return -2.0 * pair_hopf(field, phi, tau).real


def solve_variation_field(
    tau: Modulus, curve: CurveClass, field: BeltramiField, n: int
) -> VariationField:
    """Compute ``wdot`` on an ``n x n`` grid (``n`` a power of two >= the
    field resolution).

    The period conditions give ``c = a mean(mu)`` and ``b = -conj(c)``,
    so the affine part is zero and ``wdot`` is the exact spectral solve
    of the Poisson problem, gauged to mean zero.  Raises if the discrete
    source has a nonzero mean (the solvability obstruction) beyond
    rounding.
    """
    if field.tau != tau:
        raise ValueError("field lives on a different torus")
    if n < field.n:
        raise ValueError("solver grid must be at least the field resolution")
    hmap = build_harmonic_map(tau, curve)
    mu = field.grid_samples(n)
    m0 = complex(mu.mean())
    c = hmap.coeff * m0

    # Every transform but the gradient's runs in place in ``work``, the one
    # complex buffer the solve owns, so about 3.5 complex grids are live at
    # the peak, the outputs included; ``grid_dz`` would copy ``mu - m0``
    # into a fourth.  The in-place products keep the symbol or scalar
    # first: numpy's complex multiply is not bitwise commutative.
    #
    # The Laplacian symbol dz * dzbar = -(pi / Im tau)^2 |k - tau j|^2 is
    # real, with dzbar = -conj(dz) bitwise; the complex product's imaginary
    # part is rounding noise.
    dz = dz_multiplier(tau, n)
    work = np.conj(dz)
    np.negative(work, out=work)
    np.multiply(dz, work, out=work)
    symbol = work.real.copy()

    w_z = hmap.coeff / 2.0
    np.subtract(mu, m0, out=work)
    np.fft.fft2(work, out=work)
    np.multiply(dz, work, out=work)
    del dz
    _ifft2_in_place(work)
    np.multiply(w_z, work, out=work)
    source = 2.0 * work.real
    source_sup = float(np.abs(source).max())

    # A real array written into a complex buffer (imaginary part zero)
    # transforms to the same bits as the real array itself.
    work[...] = source
    np.fft.fft2(work, out=work)
    if abs(work[0, 0]) / n**2 > 1e-12 * max(1.0, source_sup):
        raise ArithmeticError("source term has nonzero mean; problem is not solvable")
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(work, symbol, out=work)
    work[symbol == 0] = 0.0
    _ifft2_in_place(work)
    periodic = work.real - work.real.mean()

    work[...] = periodic
    np.fft.fft2(work, out=work)
    np.multiply(symbol, work, out=work)
    del symbol
    _ifft2_in_place(work)
    defect = np.subtract(work.real, source, out=source)
    del work, source
    residual = float(np.abs(defect, out=defect).max())
    del defect
    gradient = grid_dz(periodic, tau)
    return VariationField(
        hmap, n, -c.conjugate(), c, periodic, mu, gradient, residual, source_sup
    )


def identity_eq11_check(
    tau: Modulus, curve: CurveClass, field: BeltramiField, n: int
) -> IdentityReport:
    """Integration-by-parts identity for the variation gradient.

    With the mass-``4 Im tau`` measure, ``<< |wdot_z|^2 >>`` must equal
    ``<< Re(2 mu w_z wdot_z) >>``; this holds for every deformation
    field, so the residual is a direct accuracy check on the solver.
    """
    vf = solve_variation_field(tau, curve, field, n)
    w_z = vf.base.coeff / 2.0
    measure = 4.0 * tau.im
    lhs = measure * float(np.mean(np.abs(vf.gradient) ** 2))
    rhs = measure * float(np.mean(2.0 * np.real(vf.mu_samples * w_z * vf.gradient)))
    scale = measure * field.l2_mean_square() * abs(w_z) ** 2
    return make_report(f"eq11[{_field_label(field)},n={n}]", lhs, rhs, 1e-10, scale)


def second_variation_constant(tau: Modulus, curve: CurveClass, m: complex) -> float:
    """``d^2/dt^2 Ext`` at ``t = 0`` along the constant field ``m``.

    The second variation is ``<< 4 |m|^2 |w_z|^2 >> - 2 << |wdot_z|^2 >>``.
    For a constant field ``wdot`` is zero (its periodic part has no
    source and its affine part cancels), so the second term vanishes and
    the value is ``4 Im tau * 4 |m|^2 |w_z|^2``.  That is positive for
    every nonzero ``m``, so a 0 or subnormal result for one is underflow
    and raises ``FloatingPointError`` (for ``|m|`` below about 1e-154 at
    ``i``); a zero ``m`` gives 0.  The energy ``4 Im tau |w_z|^2`` is
    formed first: ``|m|^2 |w_z|^2`` can go subnormal, and lose digits,
    where the result is normal.
    """
    w_z_sq = abs(build_harmonic_map(tau, curve).coeff / 2.0) ** 2
    second = 4.0 * tau.im * w_z_sq * (4.0 * abs(m) ** 2)
    if m != 0 and second < sys.float_info.min:
        raise FloatingPointError("the second variation underflowed")
    return second


def _require_nonzero(m: complex) -> None:
    if m == 0:
        raise ValueError("direction must be nonzero")


def pair_sum_levi(tau: Modulus, curve: CurveClass, m: complex) -> float:
    """Sum of second variations along ``m`` and ``i m``; strictly positive.

    This is the complex-Hessian pairing of extremal length: averaging
    the stretch directions ``m`` and ``i m`` cancels the pure part of
    the Hessian and leaves the mixed part, which is positive definite.
    Scales as ``|m|^2``, so a tiny ``m`` underflows: that raises
    ``FloatingPointError``, and a sum that is not positive
    ``ArithmeticError``.
    """
    _require_nonzero(m)
    total = second_variation_constant(tau, curve, m) + second_variation_constant(
        tau, curve, m * 1j
    )
    if not total > 0.0:
        raise ArithmeticError("paired second variation must be positive")
    return total


def identity_eq15_evaluate(
    tau: Modulus, curve: CurveClass, field: BeltramiField, n: int
) -> IdentityReport:
    """Paired-direction gradient identity, for every field.

    Both sides are plain grid means: the left side is
    ``mean |wdot_z(mu)|^2 + mean |wdot_z(i mu)|^2``, the right side
    ``4 |w_z|^2 mean |mu - mean mu|^2``.  With ``mu~`` the mean-zero part
    of ``mu``, ``wdot_z = w_z B[mu~] + conj(w_z) conj(mu~)`` (``wdot``
    has no affine part) for a Fourier symbol ``B`` of modulus
    one off the Nyquist row and column, so the cross terms of ``mu`` and
    ``i mu`` cancel.  For constant fields both sides vanish.  The first
    solve is reduced to its two means before the second one runs, so only
    one solve's grids are live at a time.
    """
    vf = solve_variation_field(tau, curve, field, n)
    first = np.mean(np.abs(vf.gradient) ** 2)
    w_z_sq = abs(vf.base.coeff / 2.0) ** 2
    mu = vf.mu_samples
    del vf
    rhs = 4.0 * w_z_sq * float(np.mean(np.abs(mu - field.mean()) ** 2))
    del mu
    vf = solve_variation_field(tau, curve, field.scaled(1j), n)
    lhs = float(first + np.mean(np.abs(vf.gradient) ** 2))
    return make_report(f"eq15[{_field_label(field)},n={n}]", lhs, rhs, 1e-12)


def _require_step(h: float) -> None:
    if not 0.0 < h <= 1e-2:
        raise ValueError("step must lie in (0, 1e-2]")


def teich_bound_check(tau: Modulus, curve: CurveClass, m: complex, h: float) -> IdentityReport:
    """Second difference of extremal length along the unit stretch line in
    the unimodular direction ``m``, against its exact value.

    At arc-length parameter ``s`` along the line the even part of
    extremal length is ``cosh(2s) Ext``, so the second difference with
    step ``h`` is exactly ``4 (sinh h / h)^2 Ext``: the second derivative
    ``4 Ext`` plus the ``O(h^2)`` error of the difference.
    """
    _require_step(h)
    ext0 = extremal_length(tau, curve)
    plus = extremal_length(teich_geodesic_constant(tau, m, h), curve)
    minus = extremal_length(teich_geodesic_constant(tau, m, -h), curve)
    second_diff = (plus - 2.0 * ext0 + minus) / h**2
    exact = 4.0 * (math.sinh(h) / h) ** 2 * ext0
    return make_report("teich_bound", second_diff, exact, 1e-6)


def _field_label(field: BeltramiField) -> str:
    if field.is_constant:
        return format_complex(field.value)
    return f"grid{field.n}"
