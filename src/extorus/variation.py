"""First and second variation of extremal length along Beltrami paths.

Deforming the torus by a Beltrami field ``mu`` drags the harmonic map
``w = Re(a z)`` of a curve class, ``a = build_harmonic_map(tau, curve)``,
along with it.  The derivative field ``wdot`` is periodic:
differentiating the period conditions gives an affine part
``Re(b z + c zbar)`` with ``c = a mean(mu)`` and ``b = -conj(c)``, and
that part is identically zero.  So ``wdot`` is the periodic solution
``P`` of the torus Poisson problem

    P_{z zbar} = d/dz ( mu_tilde w_z ) + d/dzbar ( conj(mu_tilde) w_zbar )

where ``mu_tilde`` is the mean-zero part of ``mu``.  Both sides are real
and mean-zero, so the spectral solve is exact up to rounding for
band-limited fields; ``P`` is gauged to grid mean zero (adding a
constant to ``P`` never changes a derivative).

From these pieces:

* first variation of extremal length along a constant field ``m``:
  ``-2 Re <m, Hopf>``;
* second variation along a constant field: closed form in ``(a, m)``;
* the paired sum of second variations along ``m`` and ``i m``, the
  quantity whose positivity expresses plurisubharmonicity of extremal
  length over the moduli space;
* grid checks of two integral identities the solver's output must
  satisfy for every field: an integration-by-parts identity, and a
  paired-direction identity whose right side depends on the field alone.

Measure convention: ``<< f >> = 4 Im tau * (grid mean of f)``, the
normalization under which the energy of the harmonic map equals the
extremal length exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._lazy import np
from .beltrami import BeltramiField, _ifft2_in_place, dz_multiplier, grid_dz
from .harmonic import build_harmonic_map, hopf
from .moduli import CurveClass, Modulus

__all__ = [
    "IdentityReport",
    "VariationField",
    "first_variation",
    "solve_variation_field",
    "identity_eq11_check",
    "second_variation_constant",
    "pair_sum_levi",
    "identity_eq15_evaluate",
]


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
    k = math.pi * m / tau.im
    largest = k * k * ((1.0 + abs(tau.re)) * (1.0 + abs(tau.re)) + tau.im * tau.im)
    return 8.0 * np.finfo(float).eps * largest * periodic_sup


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


@dataclass(frozen=True, eq=False)
class VariationField:
    """Derivative ``wdot`` of the harmonic map along a Beltrami field.

    ``wdot`` is ``periodic``, real and of grid mean zero on the ``n x n``
    lattice grid: the period conditions leave it no affine part.
    ``mu_samples`` is the driving field materialized on the same grid,
    ``gradient`` is ``d wdot / dz`` there, and ``residual`` is the sup norm
    of the defect of the discrete Poisson equation against a source of sup
    norm ``source_sup``; ``n`` is each array's side.
    """

    periodic: np.ndarray
    mu_samples: np.ndarray
    gradient: np.ndarray
    residual: float
    source_sup: float


def first_variation(tau: Modulus, curve: CurveClass, m: complex) -> float:
    """``d/dt Ext`` at ``t = 0`` along the constant field ``m``.

    Equals ``-2 Re <m, Hopf>``, the pairing taken with the measure of mass
    ``4 Im tau``.  A grid field moves the length through its mean alone,
    because the Hopf differential of the linear map is constant.
    """
    phi = hopf(tau, curve)
    return -2.0 * (4.0 * tau.im * complex(m) * phi).real


def solve_variation_field(
    tau: Modulus, curve: CurveClass, field: BeltramiField, n: int
) -> VariationField:
    """Compute ``wdot`` on an ``n x n`` grid (``n`` a power of two >= the
    field resolution).

    The period conditions give ``c = a mean(mu)`` and ``b = -conj(c)``,
    so the affine part is zero and ``wdot`` is the exact spectral solve
    of the Poisson problem, gauged to mean zero.  Raises if the discrete
    source has a nonzero mean (the solvability obstruction) beyond
    rounding.  Outside double range the outputs hold inf or NaN, silently.
    """
    if field.tau != tau:
        raise ValueError("field lives on a different torus")
    if n < field.n:
        raise ValueError("solver grid must be at least the field resolution")
    with np.errstate(all="ignore"):
        mu = field.grid_samples(n)
        m0 = complex(mu.mean())

        # Every transform but the gradient's runs in place in ``work``, the
        # one complex buffer the solve owns, so about 3.5 complex grids are
        # live at the peak, the outputs included; ``grid_dz`` would copy
        # ``mu - m0`` into a fourth.  The in-place products keep the symbol
        # or scalar first: numpy's complex multiply is not bitwise commutative.
        #
        # The Laplacian symbol dz * dzbar = -(pi / Im tau)^2 |k - tau j|^2 is
        # real, with dzbar = -conj(dz) bitwise; the complex product's
        # imaginary part is rounding noise.
        dz = dz_multiplier(tau, n)
        work = np.conj(dz)
        np.negative(work, out=work)
        np.multiply(dz, work, out=work)
        symbol = work.real.copy()

        w_z = build_harmonic_map(tau, curve) / 2.0
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
        return VariationField(periodic, mu, gradient, residual, source_sup)


def identity_eq11_check(
    tau: Modulus, curve: CurveClass, field: BeltramiField, n: int
) -> IdentityReport:
    """Integration-by-parts identity for the variation gradient.

    With the mass-``4 Im tau`` measure, ``<< |wdot_z|^2 >>`` must equal
    ``<< Re(2 mu w_z wdot_z) >>``; this holds for every deformation
    field, so the residual is a direct accuracy check on the solver.
    A scale ``|mu|^2 |w_z|^2`` outside double range raises ``OverflowError``,
    and a ``|w_z|^2`` that underflows ``FloatingPointError``.
    """
    vf = solve_variation_field(tau, curve, field, n)
    w_z = build_harmonic_map(tau, curve) / 2.0
    measure = 4.0 * tau.im
    lhs = measure * float(np.mean(np.square(np.abs(vf.gradient))))
    rhs = measure * float(np.mean(2.0 * np.real(vf.mu_samples * w_z * vf.gradient)))
    scale = measure * field.l2_mean_square() * _w_z_abs_square(w_z)
    if not math.isfinite(scale):
        raise OverflowError("|mu|^2 |w_z|^2 leaves double range")
    return IdentityReport(f"eq11[grid{field.n},n={n}]", lhs, rhs, 1e-10, scale)


def _w_z_abs_square(w_z: complex) -> float:
    """``|w_z|^2``.  Both sides of an identity scale with it, so an underflow
    would make them read 0; it raises ``FloatingPointError``."""
    square = abs(w_z) * abs(w_z)
    if square < sys.float_info.min:
        raise FloatingPointError("|w_z|^2 underflowed")
    return square


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
    where the result is normal.  Past double range it raises ``OverflowError``.
    """
    w_z_abs = abs(build_harmonic_map(tau, curve) / 2.0)
    second = 4.0 * tau.im * (w_z_abs * w_z_abs) * (4.0 * (abs(m) * abs(m)))
    if not math.isfinite(second):
        raise OverflowError("the second variation overflowed")
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
    ``i mu`` cancel.  A constant added to ``mu`` moves neither side.  The
    first solve is reduced to its two means before the second one runs, so
    only one solve's grids are live at a time.  A right side outside double
    range raises ``OverflowError``, and a ``|w_z|^2`` that underflows
    ``FloatingPointError``.
    """
    vf = solve_variation_field(tau, curve, field, n)
    first = float(np.mean(np.square(np.abs(vf.gradient))))
    w_z_square = _w_z_abs_square(build_harmonic_map(tau, curve) / 2.0)
    mu = vf.mu_samples
    del vf
    rhs = 4.0 * w_z_square * float(np.mean(np.square(np.abs(mu - field.mean()))))
    del mu
    if not math.isfinite(rhs):
        raise OverflowError("4 |w_z|^2 mean |mu - mean mu|^2 leaves double range")
    vf = solve_variation_field(tau, curve, field.scaled(1j), n)
    lhs = first + float(np.mean(np.square(np.abs(vf.gradient))))
    return IdentityReport(f"eq15[grid{field.n},n={n}]", lhs, rhs, 1e-12)
