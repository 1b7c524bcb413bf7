"""The benchmark's output checks accept right answers and reject wrong ones.

Each test produces a correct output with the package at a small size,
shows that the check passes it, then feeds the check a deliberately
wrong variant and shows that it is rejected.
"""

import json
import math

import numpy as np

import checks
from extorus.beltrami import BeltramiField
from extorus.cli import main
from extorus.moduli import CurveClass, Modulus
from extorus.variation import solve_variation_field
from extorus.verify import run_suite
from tracer import Tracer


def cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_ext_check(capsys):
    tau, p, q = complex(0.3, 1.7), -2, 3
    payload = json.loads(cli(capsys, "ext", "--tau", "0.3+1.7i", "--curve=-2,3"))
    assert checks.check_ext(payload, tau, p, q) == []
    bad = dict(payload, ext=payload["ext"] * (1 + 1e-14))
    assert checks.check_ext(bad, tau, p, q)
    bad = dict(payload, cylinder_modulus=payload["cylinder_modulus"] * (1 - 1e-14))
    assert checks.check_ext(bad, tau, p, q)


def test_sweep_check(capsys):
    re_range, im_range = (-0.5, 0.25, 5), (0.4, 0.3, 4)

    def arg(lo, step, count):
        return f"{lo!r}:{lo + (count - 0.5) * step!r}:{step!r}"

    text = cli(capsys, "sweep", "--curve", "1,2", f"--re={arg(*re_range)}", f"--im={arg(*im_range)}")
    assert checks.check_sweep(text, 1, 2, re_range, im_range) == []

    lines = text.splitlines()
    cells = lines[7].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-13))
    perturbed = lines[:7] + [",".join(cells)] + lines[8:]
    assert checks.check_sweep("\n".join(perturbed) + "\n", 1, 2, re_range, im_range)

    assert checks.check_sweep("\n".join(lines[:-1]) + "\n", 1, 2, re_range, im_range)

    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    assert checks.check_sweep("\n".join(swapped) + "\n", 1, 2, re_range, im_range)

    cells = lines[3].split(",")
    cells[3] = "-" + cells[3]
    negative = lines[:3] + [",".join(cells)] + lines[4:]
    problems = checks.check_sweep("\n".join(negative) + "\n", 1, 2, re_range, im_range)
    assert any("not positive" in p for p in problems)


def test_distance_check(capsys):
    tau1, tau2, n = complex(0.0, 1.0), complex(0.3, 2.0), 20
    payload = json.loads(cli(capsys, "distance", "--tau", "0+1i", "--tau2", "0.3+2i",
                             "--max-pq", str(n)))
    assert checks.check_distance(payload, tau1, tau2, n) == []

    assert payload["maximizer"] != "1,0"
    problems = checks.check_distance(dict(payload, maximizer="1,0"), tau1, tau2, n)
    assert any("maximizer" in p for p in problems)

    assert checks.check_distance(dict(payload, kerckhoff=payload["kerckhoff"] + 1e-9),
                                 tau1, tau2, n)

    above = checks.half_hyperbolic(tau1, tau2) + 1e-6
    problems = checks.check_distance(dict(payload, kerckhoff=above), tau1, tau2, n)
    assert any("hyperbolic" in p for p in problems)


def test_verify_check(capsys):
    text = cli(capsys, "verify", "--format", "json", "--seed", "3")
    assert checks.check_verify(text) == []
    report = json.loads(text)

    assert checks.check_verify(json.dumps(dict(report, all_passed=False)))
    assert checks.check_verify(json.dumps(dict(report, reports=report["reports"][1:])))
    assert checks.check_verify(text[:-10])

    failing = [dict(r) for r in report["reports"]]
    failing[4]["pass"] = False
    assert checks.check_verify(json.dumps(dict(report, reports=failing)))
    assert checks.checks_failed(dict(report, reports=failing)) == 1


def test_suite_repeat_check():
    first = run_suite(seed=5).to_json()
    second = run_suite(seed=5).to_json()
    second["elapsed_seconds"] += 1.0
    assert checks.check_suite_repeat(first, second) == []
    second["reports"][0]["lhs"] *= 1 + 1e-12
    assert checks.check_suite_repeat(first, second)


def spectral_case():
    tau, p, q = complex(0.5, 1.25), 1, 1
    modes = [(1, 2, 0.05 + 0.02j), (-3, 1, 0.03j), (2, -5, -0.04 + 0j)]
    mod = Modulus(tau.real, tau.imag)
    samples = checks.spectral_reference(tau, p, q, modes, 16)[0]
    vf = solve_variation_field(mod, CurveClass(p, q), BeltramiField(mod, 16, samples=samples), 64)
    return tau, p, q, modes, vf


def test_spectral_check():
    tau, p, q, modes, vf = spectral_case()
    assert checks.check_spectral(tau, p, q, modes, vf.periodic, vf.gradient, vf.mu_samples) == []

    wave = checks.spectral_reference(tau, p, q, [(4, 3, 1.0)], 64)[0]
    extra = 1e-9 * np.abs(vf.periodic).max() * wave.real
    problems = checks.check_spectral(tau, p, q, modes, vf.periodic + extra, vf.gradient,
                                     vf.mu_samples)
    assert any("periodic" in p for p in problems)

    problems = checks.check_spectral(tau, p, q, modes, vf.periodic, vf.gradient * (1 + 1e-9),
                                     vf.mu_samples)
    assert any("gradient" in p for p in problems)

    problems = checks.check_spectral(tau, p, q, modes, vf.periodic, vf.gradient,
                                     vf.mu_samples[::-1])
    assert any("mu_samples" in p for p in problems)


def test_eq11_check():
    tau, p, q, modes, vf = spectral_case()
    assert checks.eq11_error(tau, p, q, vf.gradient, vf.mu_samples) <= checks.EQ11_REL
    assert checks.eq11_error(tau, p, q, vf.gradient * (1 + 1e-8), vf.mu_samples) > checks.EQ11_REL


def test_tracer_counts_package_calls_and_restores():
    import extorus.beltrami
    import extorus.variation

    original = extorus.variation.grid_dz
    tau, curve = Modulus(0.0, 1.0), CurveClass(1, 0)
    field = extorus.beltrami.catalog_field(tau, "coscos", 16)
    tracer = Tracer()
    tracer.install()
    try:
        assert extorus.variation.grid_dz is not original
        np.fft.fft2(np.ones((8, 8)))  # outside a package call: not counted
        extorus.variation.solve_variation_field(tau, curve, field, 32)
    finally:
        tracer.uninstall()
    assert extorus.variation.grid_dz is original
    layers = tracer.summary()
    assert layers["variation.solve"]["calls"] == 1
    # resampling 16 -> 32 (2), the source and the defect (4), two z-derivatives (4)
    assert layers["fft"]["calls"] == 10
    assert layers["fft"]["points"] == 16 * 16 + 9 * 32 * 32
    assert layers["beltrami.resample"]["calls"] == 1
    solve_span = next(s for s in tracer.spans if s[2] == "solve_variation_field")
    parents = {s[0]: s[1] for s in tracer.spans}
    for span_id, parent, *_ in tracer.spans:
        if span_id != solve_span[0]:
            assert solve_span[0] in (parent, parents[parent])
    assert math.isclose(
        layers["variation.solve"]["total_s"],
        sum(layers[k]["self_s"] for k in layers),
        rel_tol=1e-9,
    )
