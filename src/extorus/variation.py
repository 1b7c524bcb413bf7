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
* the measured row ``(lhs, rhs, scale)``, for ``verify`` to judge, of two
  identities the solve satisfies for every field: integration by parts,
  and a paired-direction identity whose right side is the field's alone.

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


@dataclass(frozen=True, eq=False)
class VariationField:
    """Derivative ``wdot`` of the harmonic map along a Beltrami field.

    ``wdot`` is ``periodic``, real and of grid mean zero on the ``n x n``
    lattice grid: the period conditions leave it no affine part.
    ``mu_samples`` is the driving field materialized on the same grid,
    ``gradient`` is ``d wdot / dz`` there, and ``residual`` is the sup norm
    of the defect of the discrete Poisson equation against a source of sup
    norm ``source_sup``.  Each array is ``n x n``, the solve's grid.
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
    because the Hopf differential of the linear map is constant.  A
    nonzero ``m`` whose pairing is 0 or subnormal has underflowed, and lost
    its digits: that raises ``FloatingPointError``, as in
    ``second_variation_constant``.
    """
    pairing = 4.0 * tau.im * complex(m) * hopf(tau, curve)
    if m != 0 and abs(pairing) < sys.float_info.min:
        raise FloatingPointError("the first variation underflowed")
    return -2.0 * pairing.real


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


def _mean_square(a: np.ndarray) -> float:
    """Grid mean of ``|a|^2``."""
    return float(np.mean(np.square(np.abs(a))))


def identity_eq11_check(
    tau: Modulus, curve: CurveClass, field: BeltramiField
) -> tuple[float, float, float]:
    """Integration-by-parts identity for the variation gradient.

    With the mass-``4 Im tau`` measure, ``<< |wdot_z|^2 >>`` must equal
    ``<< Re(2 mu w_z wdot_z) >>``; this holds for every deformation
    field, so the residual is a direct accuracy check on the solver, run
    on the field's own grid.  Returns ``(lhs, rhs, scale)``,
    ``scale = << |mu|^2 >> |w_z|^2`` the sides' natural size.  A side or
    scale outside double range raises ``OverflowError``, and a ``|w_z|^2``
    that underflows ``FloatingPointError``.
    """
    vf = solve_variation_field(tau, curve, field, field.n)
    w_z = build_harmonic_map(tau, curve) / 2.0
    measure = 4.0 * tau.im
    lhs = measure * _mean_square(vf.gradient)
    rhs = measure * float(np.mean(2.0 * np.real(vf.mu_samples * w_z * vf.gradient)))
    scale = measure * _mean_square(field.samples) * _w_z_abs_square(w_z)
    if not all(map(math.isfinite, (lhs, rhs, scale))):
        raise OverflowError("a side of the identity or |mu|^2 |w_z|^2 leaves double range")
    return lhs, rhs, scale


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
    tau: Modulus, curve: CurveClass, field: BeltramiField
) -> tuple[float, float, float]:
    """Paired-direction gradient identity, for every field, on its own grid.

    Both sides are plain grid means: the left side is
    ``mean |wdot_z(mu)|^2 + mean |wdot_z(i mu)|^2``, the right side
    ``4 |w_z|^2 mean |mu - mean mu|^2``.  With ``mu~`` the mean-zero part
    of ``mu``, ``wdot_z = w_z B[mu~] + conj(w_z) conj(mu~)`` (``wdot``
    has no affine part) for a Fourier symbol ``B`` of modulus
    one off the Nyquist row and column, so the cross terms of ``mu`` and
    ``i mu`` cancel.  A constant added to ``mu`` moves neither side.  The
    first solve is reduced to its two means before the second one runs, so
    only one solve's grids are live at a time.  Returns ``(lhs, rhs, scale)``,
    ``scale = 4 |w_z|^2 mean |mu|^2`` the natural size, which a field with a
    mean keeps where both sides vanish.  A side or scale outside double
    range raises ``OverflowError``, and a ``|w_z|^2`` that underflows
    ``FloatingPointError``.
    """
    n = field.n
    vf = solve_variation_field(tau, curve, field, n)
    first = _mean_square(vf.gradient)
    w_z_square = _w_z_abs_square(build_harmonic_map(tau, curve) / 2.0)
    mu = vf.mu_samples
    del vf
    with np.errstate(over="ignore"):  # a square past double range is checked below
        rhs = 4.0 * w_z_square * _mean_square(mu - field.mean())
        scale = 4.0 * w_z_square * _mean_square(field.samples)
    del mu
    vf = solve_variation_field(tau, curve, BeltramiField(tau, n, samples=field.samples * 1j), n)
    lhs = first + _mean_square(vf.gradient)
    if not all(map(math.isfinite, (lhs, rhs, scale))):
        raise OverflowError("a side of the identity or 4 |w_z|^2 mean |mu|^2 leaves double range")
    return lhs, rhs, scale
