"""Independent checks of the package's outputs.

Nothing here calls ``extorus``: every expected value is recomputed in
numpy from the inputs the benchmark generated, from the closed forms in
the package docstrings or by plain enumeration.  Each ``check_*``
function returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

EPS = float(np.finfo(float).eps)

#: Relative error allowed where the package evaluates the same closed
#: form in the same floating-point operations ("a few ulps").
ULPS = 4

#: The suite's checks, in the order the README lists them.
SUITE_CHECKS = (
    "ext_reciprocal",
    "energy_equals_ext",
    "hopf_direction",
    "marking_invariance",
    "first_variation_fd",
    "second_variation_fd",
    "eq11_catalog",
    "eq15_constant",
    "eq15_catalog",
    "pair_sum_scaling_positivity",
    "levi_fd",
    "pair_sum_levi_ratio",
    "teich_lower_bound",
    "kerckhoff_vs_half_hyperbolic",
)

#: Spectral outputs must match the closed form to this share of their sup.
SPECTRAL_REL = 1e-12
#: The integration-by-parts identity (eq11), relative to its natural scale.
EQ11_REL = 1e-10
#: Distance values are O(1); they must match enumeration to this.
DISTANCE_ABS = 1e-12


def ext_ref(re, im, p: int, q: int):
    """``|p + q tau|^2 / Im tau``."""
    return ((p + q * re) ** 2 + (q * im) ** 2) / im


def _ulp_bad(got, want, ulps: int = ULPS) -> int:
    """Number of entries of ``got`` more than ``ulps`` ulps from ``want``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return int(np.count_nonzero(~(np.abs(got - want) <= ulps * EPS * np.abs(want))))


# --- suite ---------------------------------------------------------------


def check_suite_report(report: dict) -> list[str]:
    """A green report whose checks are the 14 documented ones, in order."""
    problems = []
    names = tuple(r.get("name") for r in report.get("reports", ()))
    if names != SUITE_CHECKS:
        problems.append(f"suite checks {names} differ from the documented {SUITE_CHECKS}")
    if report.get("all_passed") is not True:
        problems.append("suite all_passed is not true")
    failed = [r.get("name") for r in report.get("reports", ())
              if r.get("asserted") and not r.get("pass")]
    if failed:
        problems.append(f"asserted suite checks failed: {failed}")
    return problems


def checks_failed(report: dict) -> int:
    """Asserted checks of a suite report that failed."""
    return sum(1 for r in report.get("reports", ()) if r.get("asserted") and not r.get("pass"))


def _drop_timing(value):
    if isinstance(value, dict):
        return {k: _drop_timing(v) for k, v in value.items() if k != "elapsed_seconds"}
    if isinstance(value, list):
        return [_drop_timing(v) for v in value]
    return value


def check_suite_repeat(first: dict, second: dict) -> list[str]:
    """Two runs of one seed agree apart from their timing fields."""
    if _drop_timing(first) != _drop_timing(second):
        return ["two suite runs with the same seed differ outside the timing fields"]
    return []


# --- spectral ------------------------------------------------------------


def _waves(freqs, n: int) -> np.ndarray:
    """``exp(2 pi i f x / n)`` for ``x`` down the rows and ``f`` across."""
    phase = np.outer(np.arange(n), np.asarray(freqs, dtype=np.int64)) % n
    return np.exp(2j * np.pi * phase / n)


def spectral_reference(tau: complex, p: int, q: int, modes, n: int):
    """Closed-form ``(mu, periodic, gradient)`` for ``mu = sum a e_(j,k)``.

    ``modes`` holds ``(j, k, a)`` with ``(j, k) != (0, 0)`` below the
    Nyquist frequency; ``e_(j,k) = exp(2 pi i (j s + k t))`` with ``s``
    along axis 0.  With ``w_z = (q + i (q Re tau + p) / Im tau) / 2`` and
    the eigenvalues ``lz = pi (k - conj(tau) j) / Im tau``,
    ``lzb = pi (tau j - k) / Im tau`` of ``d/dz`` and ``d/dzbar``, each
    mode contributes ``c e + conj(c e)`` to the periodic part, with
    ``c = w_z a lz / (lz lzb)``, and ``lz (c e - conj(c e))`` to its
    ``z`` derivative.  The sums over modes are products of the
    ``n x modes`` wave tables.
    """
    j, k, a = (np.array(v) for v in zip(*modes))
    w_z = complex(q, (q * tau.real + p) / tau.imag) / 2.0
    lz = np.pi * (k - tau.conjugate() * j) / tau.imag
    lzb = np.pi * (tau * j - k) / tau.imag
    c = w_z * a * lz / (lz * lzb).real
    ej, ek = _waves(j, n), _waves(k, n)
    mu = (ej * a) @ ek.T
    periodic = 2.0 * ((ej * c) @ ek.T).real
    gradient = (ej * (lz * c)) @ ek.T - (ej.conj() * (lz * c.conj())) @ ek.conj().T
    return mu, periodic, gradient


def eq11_error(tau: complex, p: int, q: int, gradient, mu) -> float:
    """Relative defect of ``mean |g|^2 = mean Re(2 mu w_z g)`` (eq11)."""
    w_z = complex(q, (q * tau.real + p) / tau.imag) / 2.0
    lhs = float(np.mean(np.abs(gradient) ** 2))
    rhs = float(np.mean(2.0 * np.real(mu * w_z * gradient)))
    scale = float(np.mean(np.abs(mu) ** 2)) * abs(w_z) ** 2
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), scale)


def check_spectral(tau: complex, p: int, q: int, modes, periodic, gradient, mu_samples) -> list[str]:
    """Solver output against the closed form, mode by mode, and eq11."""
    n = np.shape(periodic)[0]
    mu_ref, per_ref, grad_ref = spectral_reference(tau, p, q, modes, n)
    problems = []
    for name, got, want in (("mu_samples", mu_samples, mu_ref),
                            ("periodic", periodic, per_ref),
                            ("gradient", gradient, grad_ref)):
        if np.shape(got) != want.shape:
            problems.append(f"{name} has shape {np.shape(got)}, expected {want.shape}")
            continue
        err = float(np.abs(got - want).max())
        sup = float(np.abs(want).max())
        if not err <= SPECTRAL_REL * sup:
            problems.append(f"{name} differs from the closed form by {err:.3g} (sup {sup:.3g})")
    if not problems:
        rel = eq11_error(tau, p, q, gradient, mu_samples)
        if not rel <= EQ11_REL:
            problems.append(f"eq11 defect {rel:.3g} above {EQ11_REL:g}")
    return problems


# --- command line --------------------------------------------------------


def check_ext(payload: dict, tau: complex, p: int, q: int) -> list[str]:
    """``ext`` output against ``|p + q tau|^2 / Im tau`` and its reciprocal."""
    problems = []
    want = ext_ref(tau.real, tau.imag, p, q)
    if _ulp_bad(payload.get("ext", math.nan), want):
        problems.append(f"ext {payload.get('ext')!r} != {want!r}")
    if _ulp_bad(payload.get("cylinder_modulus", math.nan), 1.0 / want):
        problems.append(f"cylinder_modulus {payload.get('cylinder_modulus')!r} != {1.0 / want!r}")
    return problems


def range_values(lo: float, step: float, count: int) -> np.ndarray:
    return lo + np.arange(count) * step


def check_sweep(text: str, p: int, q: int, re_range, im_range) -> list[str]:
    """Rows im-major over the requested ranges, each matching the closed forms.

    ``re_range`` and ``im_range`` are ``(lo, step, count)``.
    """
    header, _, body = text.partition("\n")
    if header != "re,im,ext,levi":
        return [f"sweep header is {header!r}"]
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        return [f"sweep rows do not parse: {exc}"]
    n_re, n_im = re_range[2], im_range[2]
    if rows.shape != (n_re * n_im, 4):
        return [f"sweep has shape {rows.shape}, expected {(n_re * n_im, 4)}"]
    re, im, ext, levi = rows.T
    problems = []
    for name, got, want in (
        ("re", re, np.tile(range_values(*re_range), n_im)),
        ("im", im, np.repeat(range_values(*im_range), n_re)),
    ):
        tol = ULPS * EPS * float(np.abs(want).max())
        bad = np.count_nonzero(~(np.abs(got - want) <= tol))
        if bad:
            problems.append(f"{bad} sweep rows are out of im-major order in {name}")
    want_ext = ext_ref(re, im, p, q)
    bad = _ulp_bad(ext, want_ext)
    if bad:
        problems.append(f"{bad} sweep ext values differ from |p+q tau|^2/Im tau")
    bad = _ulp_bad(levi, want_ext / (2.0 * im**2))
    if bad:
        problems.append(f"{bad} sweep levi values differ from Ext/(2 Im^2 tau)")
    if not np.all(levi > 0):
        problems.append("a sweep levi value is not positive")
    return problems


def kerckhoff_ratios(tau1: complex, tau2: complex, p, q):
    return ext_ref(tau2.real, tau2.imag, p, q) / ext_ref(tau1.real, tau1.imag, p, q)


def kerckhoff_reference(tau1: complex, tau2: complex, max_index: int) -> float:
    """``max 0.5 log(Ext_2 / Ext_1)`` over primitive ``|p|, |q| <= N``, by ``np.gcd``."""
    ps = np.arange(-max_index, max_index + 1)[:, None]
    qs = np.arange(0, max_index + 1)[None, :]
    p, q = np.broadcast_arrays(ps, qs)
    keep = (np.gcd(p, q) == 1) & ((q > 0) | (p > 0))
    ratios = kerckhoff_ratios(tau1, tau2, p[keep].astype(float), q[keep].astype(float))
    return 0.5 * math.log(float(ratios.max()))


def half_hyperbolic(tau1: complex, tau2: complex) -> float:
    return 0.5 * math.acosh(1.0 + abs(tau1 - tau2) ** 2 / (2.0 * tau1.imag * tau2.imag))


def check_distance(payload: dict, tau1: complex, tau2: complex, max_index: int) -> list[str]:
    """Distance against enumeration, its maximizer, and the hyperbolic ceiling."""
    problems = []
    want = kerckhoff_reference(tau1, tau2, max_index)
    value = payload.get("kerckhoff", math.nan)
    if not abs(value - want) <= DISTANCE_ABS:
        problems.append(f"distance {value!r} != enumerated {want!r}")
    try:
        p, q = (int(v) for v in payload["maximizer"].split(","))
    except (KeyError, ValueError, AttributeError):
        problems.append(f"maximizer {payload.get('maximizer')!r} is not p,q")
    else:
        ok = math.gcd(p, q) == 1 and max(abs(p), abs(q)) <= max_index
        if not ok or not abs(0.5 * math.log(kerckhoff_ratios(tau1, tau2, p, q)) - want) <= DISTANCE_ABS:
            problems.append(f"maximizer {p},{q} does not attain the enumerated maximum")
    if not value <= half_hyperbolic(tau1, tau2) + DISTANCE_ABS:
        problems.append(f"distance {value!r} exceeds half the hyperbolic distance")
    return problems


def check_verify(text: str) -> list[str]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"verify output is not JSON: {exc}"]
    return check_suite_report(report)
