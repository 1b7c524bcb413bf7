"""Beltrami fields on a flat torus and the modulus paths they generate.

Fields live on the lattice-coordinate grid: the point ``(s, t)`` in
``[0,1)^2`` is ``z = s + t tau``, and an ``N x N`` field samples
``mu(s, t)`` at ``(j/N, k/N)``.  Derivatives in ``z`` and ``zbar`` are
spectral: in lattice coordinates the mode ``exp(2 pi i (j s + k t))`` is
an eigenfunction of both, with eigenvalues

    d/dz    ->  pi (k - conj(tau) j) / Im tau
    d/dzbar ->  pi (tau j - k) / Im tau  =  -conj(d/dz symbol)

so differentiation is exact for band-limited fields.  Only the ``d/dz``
symbol is built here; ``d/dzbar`` is its negated conjugate, bitwise.
The Nyquist row and column carry no usable phase information on a real
grid and are dropped by the symbol.

A constant field is a complex number ``m``: the closed forms take it
as one.  It deforms the torus through an explicit family of affine
stretches: ``z -> z + t m zbar`` sends the lattice ``Z + tau Z``
to a lattice of modulus ``(tau + t m conj(tau)) / (1 + t m)``.  Running
that path at speed ``tanh`` traces the unit-speed extremal stretch line
when ``|m| = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._lazy import np
from .moduli import Modulus

__all__ = [
    "BeltramiField",
    "from_function",
    "catalog_field",
    "FIELD_CATALOG",
    "lattice_grid",
    "dz_multiplier",
    "grid_dz",
    "modulus_path_constant",
    "teich_geodesic_constant",
]


def _require_grid_size(n: int) -> None:
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 4, got {n}")


def lattice_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate arrays ``S[j, k] = j/n`` and ``T[j, k] = k/n``."""
    _require_grid_size(n)
    coords = np.arange(n) / n
    return np.meshgrid(coords, coords, indexing="ij")


def _frequencies(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n)


def _zero_nyquist(mult: np.ndarray) -> np.ndarray:
    half = mult.shape[0] // 2
    mult[half, :] = mult[:, half] = 0.0
    return mult


def dz_multiplier(tau: Modulus, n: int) -> np.ndarray:
    """Fourier symbol of ``d/dz`` on the ``n x n`` lattice grid.

    The value is ``pi (k - conj(tau) j) / Im tau``, built in one buffer.
    ``n`` is a power of two >= 4, so row and column ``n // 2`` are Nyquist.
    """
    f = _frequencies(n)
    j, k = f[:, None], f[None, :]
    mult = np.subtract(k, tau.value.conjugate() * j)
    np.multiply(np.pi, mult, out=mult)
    # the bits of dividing by Im tau: numpy divides by (im, 0) as (re + im * 0) * (1 / im)
    np.multiply(mult, 1.0 / tau.im, out=mult)
    return _zero_nyquist(mult)


def _ifft2_in_place(a: np.ndarray) -> np.ndarray:
    """``np.fft.ifft2(a)``, bit for bit, in the memory of the complex array ``a``.

    ``np.fft.ifft2`` ignores ``out``.  The inverse transform is the
    conjugate of the forward transform of the conjugate, and
    ``norm="forward"`` applies the inverse's ``1/n`` per axis.
    """
    np.conjugate(a, out=a)
    np.fft.fft2(a, norm="forward", out=a)
    return np.conjugate(a, out=a)


def grid_dz(samples: np.ndarray, tau: Modulus) -> np.ndarray:
    """``d/dz`` of grid samples, computed in one new complex buffer.

    Real samples are copied in as real parts; the transform of that
    buffer equals ``np.fft.fft2`` of the real array, without numpy's
    cast copy.
    """
    # The symbol is built before the spectrum's buffer exists: building it
    # takes scratch space of its own.
    mult = dz_multiplier(tau, samples.shape[0])
    spec = np.array(samples, dtype=complex)
    np.fft.fft2(spec, out=spec)
    # symbol first: numpy's complex multiply is not bitwise commutative
    np.multiply(mult, spec, out=spec)
    return _ifft2_in_place(spec)


@dataclass(frozen=True, eq=False)
class BeltramiField:
    """A complex field on the torus of modulus ``tau``: an ``n x n`` grid
    of samples in lattice coordinates.

    The field keeps a read-only copy of ``samples``, so no write to the
    caller's array reaches it past the finiteness check.
    """

    tau: Modulus
    n: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        _require_grid_size(self.n)
        arr = np.array(self.samples, dtype=complex)
        if arr.shape != (self.n, self.n):
            raise ValueError(f"samples must be {self.n} x {self.n}")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("field samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def mean(self) -> complex:
        return complex(self.samples.mean())

    def l2_mean_square(self) -> float:
        """Grid mean of ``|mu|^2``."""
        return float(np.mean(np.square(np.abs(self.samples))))

    def scaled(self, factor: complex) -> "BeltramiField":
        return BeltramiField(self.tau, self.n, samples=self.samples * factor)

    def grid_samples(self, n: int) -> np.ndarray:
        """Materialize the field on an ``n x n`` grid, ``n >= self.n``.

        Trigonometric interpolation reproduces band-limited fields exactly.
        """
        _require_grid_size(n)
        if n == self.n:
            return self.samples
        if n < self.n:
            raise ValueError("cannot resample below the native resolution")
        spec = np.fft.fft2(self.samples) / self.n**2
        idx = _frequencies(self.n).astype(int) % n
        out = np.zeros((n, n), dtype=complex)
        out[np.ix_(idx, idx)] = spec
        _ifft2_in_place(out)
        return np.multiply(out, n**2, out=out)


def from_function(
    tau: Modulus, n: int, f: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> BeltramiField:
    """Sample ``f(s, t)`` on the ``n x n`` lattice grid; ``f`` must broadcast."""
    s, t = lattice_grid(n)
    return BeltramiField(tau, n, samples=np.asarray(f(s, t), dtype=complex))


_TWO_PI = 2.0 * math.pi

#: Named test fields, all mean-zero and band-limited with modes well
#: below the Nyquist frequency of every supported grid.
FIELD_CATALOG: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "cos2pis": lambda s, t: np.cos(_TWO_PI * s) + 0j,
    "sin2pis": lambda s, t: np.sin(_TWO_PI * s) + 0j,
    "exp2pis": lambda s, t: np.exp(2j * np.pi * s),
    "icos2pis": lambda s, t: 1j * np.cos(_TWO_PI * s),
    "cos2pit": lambda s, t: np.cos(_TWO_PI * t) + 0j,
    "sin2pit": lambda s, t: np.sin(_TWO_PI * t) + 0j,
    "exp2pit": lambda s, t: np.exp(2j * np.pi * t),
    "coscos": lambda s, t: np.cos(_TWO_PI * s) * np.cos(_TWO_PI * t) + 0j,
    "sinsin": lambda s, t: np.sin(_TWO_PI * s) * np.sin(_TWO_PI * t) + 0j,
    "exp2pist": lambda s, t: np.exp(2j * np.pi * (s + t)),
}


def catalog_field(tau: Modulus, name: str, n: int) -> BeltramiField:
    try:
        f = FIELD_CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown field {name!r}; available: {', '.join(sorted(FIELD_CATALOG))}"
        ) from None
    return from_function(tau, n, f)


def modulus_path_constant(tau: Modulus, m: complex, t: float) -> Modulus:
    """Modulus of the image of ``Z + tau Z`` under ``z -> z + t m zbar``.

    Requires ``|t m| < 1`` so the stretch is a homeomorphism.  The image
    lattice is spanned by ``1 + t m`` and ``tau + t m conj(tau)``; after
    renormalizing the first vector to ``1`` the modulus is their ratio.
    With ``m = 0`` the path is constant at ``tau`` for every ``t``.
    """
    if abs(t * m) >= 1.0:
        raise ValueError("path parameter must satisfy |t m| < 1")
    w = (tau.value + t * m * tau.value.conjugate()) / (1.0 + t * m)
    if w.imag <= 0.0:
        raise ValueError("path left the upper half-plane")
    return Modulus.from_complex(w)


def _require_unimodular(m: complex) -> None:
    if abs(abs(m) - 1.0) > 1e-12:
        raise ValueError(f"direction must be unimodular, |m| = 1, got |m| = {abs(m):g}")


def teich_geodesic_constant(tau: Modulus, m: complex, t: float) -> Modulus:
    """Point at arc-length parameter ``t`` on the stretch line through ``tau``.

    ``m`` must be unimodular; the line is the constant-field path
    reparametrized by ``tanh`` so that ``t`` is the flat distance of the
    quasiconformal stretch, with dilatation ``exp(2|t|)``.
    """
    _require_unimodular(m)
    return modulus_path_constant(tau, m, math.tanh(t))
