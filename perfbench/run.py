"""Benchmark for extorus: three closed-loop workloads with independent output checks.

Usage:
    python3 perfbench/run.py --workload {suite,spectral,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source tree (the package is used from ``src``).
One process drives each workload with one computing thread and runs a
fixed count of like operations, ``round(S / NOMINAL_OP_S)``, one at a
time.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run of the same operations.  Every output
is checked against values the benchmark computes itself (``checks.py``).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Seconds one operation took when the benchmark was written (2-core
#: x86-64, Python 3.11, numpy 2.4).  A run does ``round(seconds / nominal)``
#: operations, so it lasts about ``--seconds`` there, and ``wall_s``
#: moves when the code gets faster or slower.
NOMINAL_OP_S = {"suite": 0.35, "spectral": 0.45, "cli": 2.5}

# ``checks`` (and with it numpy) is imported inside the methods that use
# it, after the package, so that the package's import of numpy is timed
# as part of it.

#: Solver grid of the spectral workload and the native grid of its fields.
SPECTRAL_N = 1024
SPECTRAL_NATIVE_N = 64

#: The sweep rectangle is SWEEP_SIDE x SWEEP_SIDE points (about 1e5).
SWEEP_SIDE = 316
DISTANCE_MAX_PQ = 1000
CHILD_TIMEOUT_S = 120


class OpFailed(Exception):
    """An operation that did not complete (exception or nonzero exit)."""


def draw_tau(rng: random.Random, re=(-1.0, 1.0), im=(0.3, 3.0)) -> complex:
    return complex(rng.uniform(*re), rng.uniform(*im))


def draw_curve(rng: random.Random, bound: int) -> tuple[int, int]:
    """A sign-canonical primitive class with ``|p|, |q| <= bound``."""
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(0, bound)
        if math.gcd(p, q) == 1 and (q > 0 or p > 0):
            return p, q


def cli_complex(z: complex) -> str:
    return f"{z.real:.17g}{'-' if z.imag < 0 else '+'}{abs(z.imag):.17g}i"


class Workload:
    """What the workloads share; ``main`` shows the order of the calls."""

    def __init__(self, rng: random.Random, trace: bool) -> None:
        self.rng = rng
        self.trace = trace

    def prepare(self, inp):
        """Build an operation's arguments from its inputs, untimed."""
        return inp

    def record(self, out) -> int:
        """Keep what the per-layer metrics need; return failed suite checks."""
        return 0

    def finish(self) -> list[str]:
        """Checks that need the whole run; problems found."""
        return []

    def cpu_seconds(self) -> float:
        """CPU time so far of this process and the processes it waited for."""
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class Suite(Workload):
    """One operation: an in-process ``run_suite`` with a fresh seed."""

    def __init__(self, rng: random.Random, trace: bool) -> None:
        super().__init__(rng, trace)
        self.first = None

    def draw(self):
        return self.rng.randrange(2**31)

    def op(self, seed):
        import extorus.verify

        return extorus.verify.run_suite(seed=seed).to_json()

    def check(self, seed, report) -> list[str]:
        import checks

        return checks.check_suite_report(report)

    def record(self, report) -> int:
        import checks

        if self.first is None:
            self.first = report
        return checks.checks_failed(report)

    def finish(self) -> list[str]:
        """Run the first timed seed again: the report must repeat."""
        import checks
        import extorus.verify

        again = extorus.verify.run_suite(seed=self.first["seed"]).to_json()
        return checks.check_suite_repeat(self.first, again)


class Spectral(Workload):
    """One operation: an in-process ``solve_variation_field`` at ``SPECTRAL_N``.

    The field is a mean-zero sum of three Fourier modes with
    ``|j|, |k| <= 6`` sampled at ``SPECTRAL_NATIVE_N``, so the solve also
    resamples it; modulus and curve change with every operation.
    """

    def draw(self):
        rng = self.rng
        tau = draw_tau(rng, (-0.5, 0.5), (0.8, 1.6))
        p, q = draw_curve(rng, 3)
        modes = []
        while len(modes) < 3:
            j, k = rng.randint(-6, 6), rng.randint(-6, 6)
            if (j, k) != (0, 0) and all((j, k) != m[:2] for m in modes):
                r, phase = rng.uniform(0.02, 0.1), rng.uniform(0.0, 2.0 * math.pi)
                modes.append((j, k, r * complex(math.cos(phase), math.sin(phase))))
        return tau, p, q, modes

    def prepare(self, inp):
        import checks
        from extorus.beltrami import BeltramiField
        from extorus.moduli import CurveClass, Modulus

        tau, p, q, modes = inp
        samples = checks.spectral_reference(tau, p, q, modes, SPECTRAL_NATIVE_N)[0]
        mod = Modulus(tau.real, tau.imag)
        return mod, CurveClass(p, q), BeltramiField(mod, SPECTRAL_NATIVE_N, samples=samples)

    def op(self, args):
        import extorus.variation

        return extorus.variation.solve_variation_field(*args, SPECTRAL_N)

    def check(self, inp, vf) -> list[str]:
        import checks

        tau, p, q, modes = inp
        return checks.check_spectral(tau, p, q, modes, vf.periodic, vf.gradient, vf.mu_samples)


class Cli(Workload):
    """One operation: a round of four ``extorus.cli`` processes, one at a time.

    The processes are started by ``spawn.py``, itself started before this
    process grows, and their output goes to files under ``OUT``.  Traced
    rounds start each process through ``launch.py`` and keep what it
    records.
    """

    COMMANDS = ("ext", "sweep", "distance", "verify")

    def __init__(self, rng: random.Random, trace: bool) -> None:
        super().__init__(rng, trace)
        self.process_s: dict[str, list[float]] = {name: [] for name in self.COMMANDS}
        self.output_bytes: list[int] = []
        self.traces: list[dict] = []
        self.child_cpu_s = 0.0
        self.child_rss_kb = 0
        OUT.mkdir(exist_ok=True)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def draw(self):
        rng = self.rng
        return {
            "ext": (draw_tau(rng), draw_curve(rng, 5)),
            "sweep": (draw_curve(rng, 5),
                      (round(rng.uniform(-1.0, 0.0), 3), 0.005, SWEEP_SIDE),
                      (round(rng.uniform(0.3, 1.0), 3), 0.008, SWEEP_SIDE)),
            "distance": (draw_tau(rng), draw_tau(rng)),
            "verify": rng.randrange(2**31),
        }

    def prepare(self, inp) -> dict:
        tau, (p, q) = inp["ext"]
        (sp, sq), re_range, im_range = inp["sweep"]
        tau1, tau2 = inp["distance"]

        def span(lo, step, count):
            # hi sits half a step past the last point, so the count is unambiguous
            return f"{lo!r}:{lo + (count - 0.5) * step!r}:{step!r}"

        return {
            "ext": ["ext", f"--tau={cli_complex(tau)}", f"--curve={p},{q}"],
            "sweep": ["sweep", f"--curve={sp},{sq}", f"--re={span(*re_range)}",
                      f"--im={span(*im_range)}"],
            "distance": ["distance", f"--tau={cli_complex(tau1)}", f"--tau2={cli_complex(tau2)}",
                         "--max-pq", str(DISTANCE_MAX_PQ)],
            "verify": ["verify", "--format", "json", "--seed", str(inp["verify"])],
        }

    def _path(self, name: str, suffix: str) -> Path:
        return OUT / f"cli-{os.getpid()}-{name}.{suffix}"

    def op(self, argvs: dict) -> dict:
        """Run the round; per command: (stdout, seconds, trace record or None)."""
        outputs = {}
        for name in self.COMMANDS:
            cmd = [sys.executable, "-m", "extorus.cli"]
            if self.trace:
                cmd = [sys.executable, str(HERE / "launch.py"), str(self._path(name, "json"))]
            request = [cmd + argvs[name], str(ROOT), str(self._path(name, "out")),
                       str(self._path(name, "err")), CHILD_TIMEOUT_S]
            self.spawner.stdin.write(json.dumps(request) + "\n")
            self.spawner.stdin.flush()
            code, seconds, cpu, rss_kb = json.loads(self.spawner.stdout.readline())
            self.child_cpu_s += cpu
            self.child_rss_kb = max(self.child_rss_kb, rss_kb)
            record = None
            if self.trace and self._path(name, "json").is_file():
                record = json.loads(self._path(name, "json").read_text(encoding="utf-8"))
                record["command"] = name
                self._path(name, "json").unlink()
            if code != 0:
                stderr = self._path(name, "err").read_text(encoding="utf-8", errors="replace")
                raise OpFailed(f"{name} exited {code}: {stderr[-500:]}")
            outputs[name] = (self._path(name, "out").read_text(encoding="utf-8"), seconds, record)
        return outputs

    def check(self, inp, outputs: dict) -> list[str]:
        import checks

        tau, (p, q) = inp["ext"]
        (sp, sq), re_range, im_range = inp["sweep"]
        tau1, tau2 = inp["distance"]
        problems = checks.check_ext(json.loads(outputs["ext"][0]), tau, p, q)
        problems += checks.check_sweep(outputs["sweep"][0], sp, sq, re_range, im_range)
        problems += checks.check_distance(json.loads(outputs["distance"][0]), tau1, tau2,
                                          DISTANCE_MAX_PQ)
        problems += checks.check_verify(outputs["verify"][0])
        return problems

    def record(self, outputs: dict) -> int:
        import checks

        self.output_bytes.append(sum(len(o[0].encode()) for o in outputs.values()))
        for name, (_, seconds, trace) in outputs.items():
            self.process_s[name].append(seconds)
            if trace is not None:
                self.traces.append(trace)
        return checks.checks_failed(json.loads(outputs["verify"][0]))

    def cpu_seconds(self) -> float:
        return super().cpu_seconds() + self.child_cpu_s

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest process the workload started."""
        return self.child_rss_kb / 1024.0

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=CHILD_TIMEOUT_S)
        for name in self.COMMANDS:
            for suffix in ("out", "err", "json"):
                self._path(name, suffix).unlink(missing_ok=True)


def merge_layers(summaries) -> dict:
    """Sum per-layer records of several traced processes."""
    merged: dict[str, dict] = {}
    for layers in summaries:
        for name, s in layers.items():
            m = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                         "durations": [], "points": 0})
            for key in ("calls", "self_s", "total_s", "points"):
                m[key] += s[key]
            m["durations"] += s["durations"]
    return merged


def per_layer_metrics(layers: dict, checks_failed: int, import_s: float, cli: "Cli | None",
                      trace_wall_s: float) -> dict:
    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def median(values):
        return statistics.median(values) if values else 0.0

    cold, warm = "moduli.kerckhoff.cold", "moduli.kerckhoff.warm"
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in ("moduli.closed_form", "harmonic"):
        put(f"{layer}.calls", get(layer, "calls"), "count")
        put(f"{layer}.self_s", get(layer, "self_s"), "s")
    put("moduli.kerckhoff.calls", get(cold, "calls") + get(warm, "calls"), "count")
    put("moduli.kerckhoff.cold_s", get(cold, "total_s"), "s")
    put("moduli.kerckhoff.warm_s", get(warm, "total_s"), "s")
    put("beltrami.field.self_s", get("beltrami.field", "self_s"), "s")
    put("beltrami.resample.self_s", get("beltrami.resample", "self_s"), "s")
    for layer in ("beltrami.multiplier", "beltrami.derivative"):
        put(f"{layer}.calls", get(layer, "calls"), "count")
        put(f"{layer}.self_s", get(layer, "self_s"), "s")
    put("fft.calls", get("fft", "calls"), "count")
    put("fft.points", get("fft", "points"), "count")
    put("fft.self_s", get("fft", "self_s"), "s")
    put("variation.solve.calls", get("variation.solve", "calls"), "count")
    put("variation.solve.self_s", get("variation.solve", "self_s"), "s")
    put("variation.solve.p50_s", median(layers.get("variation.solve", {}).get("durations", [])), "s")
    for layer in ("variation.identity", "variation.closed_form"):
        put(f"{layer}.calls", get(layer, "calls"), "count")
        put(f"{layer}.self_s", get(layer, "self_s"), "s")
    put("verify.run_suite.self_s", get("verify.run_suite", "self_s"), "s")
    put("verify.oracle.calls", get("verify.oracle", "calls"), "count")
    put("verify.oracle.self_s", get("verify.oracle", "self_s"), "s")
    put("verify.checks_failed", checks_failed, "count")
    put("cli.import_s", import_s, "s")
    for name in Cli.COMMANDS:
        put(f"cli.{name}.process_s", median(cli.process_s[name]) if cli else 0.0, "s")
    put("cli.self_s", get("cli", "self_s"), "s")
    put("cli.output_bytes", median(cli.output_bytes) if cli else 0, "B")
    put("trace.wall_s", trace_wall_s, "s")
    return m


def attempt(work, op_args):
    """Run one operation; ``None`` if it failed (reported on stderr)."""
    try:
        return work.op(op_args)
    except (OpFailed, ArithmeticError, ValueError) as exc:
        print(f"operation failed: {exc}", file=sys.stderr)
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(NOMINAL_OP_S), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "extorus" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'extorus'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    if trace:
        OUT.mkdir(exist_ok=True)
    workload = {"suite": Suite, "spectral": Spectral, "cli": Cli}[args.workload]
    work = workload(random.Random(args.seed), trace)
    try:
        result = measure(work, args)
    finally:
        work.close()
    print(json.dumps(result))
    return 0


def measure(work: Workload, args) -> dict:
    """Set up, run the timed operations, check them; the result object."""
    trace = bool(args.trace)
    count = max(2, round(args.seconds / NOMINAL_OP_S[args.workload]))

    # Set-up: import the package (the cli workload's processes do their
    # own) and run one warm-up operation, untimed.
    tracer = None
    import_s = 0.0
    if not isinstance(work, Cli):
        start = time.perf_counter()
        import extorus.cli  # noqa: F401  (pulls in numpy and every module)

        import_s = time.perf_counter() - start
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
    warm_inp = work.draw()
    warm_out = attempt(work, work.prepare(warm_inp))
    setup_s = time.perf_counter() - _T0
    problems = [] if warm_out is None else work.check(warm_inp, warm_out)
    del warm_out
    if tracer is not None:
        tracer.reset()

    attempted = failed = n_checks_failed = 0
    op_wall, op_cpu = [], []
    for _ in range(count):
        inp = work.draw()
        op_args = work.prepare(inp)
        gc.collect()
        attempted += 1
        cpu0 = work.cpu_seconds()
        start = time.perf_counter()
        out = attempt(work, op_args)
        wall = time.perf_counter() - start
        cpu = work.cpu_seconds() - cpu0
        if out is None:
            failed += 1
            continue
        op_wall.append(wall)
        op_cpu.append(cpu)
        n_checks_failed += work.record(out)
        problems += work.check(inp, out)
        del out, op_args

    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", {"import_s": import_s})
    elif trace:
        layers = merge_layers(d["layers"] for d in work.traces)
        import_s = statistics.median(d["import_s"] for d in work.traces) if work.traces else 0.0
        with open(OUT / f"trace-cli-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"processes": work.traces}, fh)
    if op_wall:
        problems += work.finish()

    if trace:
        metrics = per_layer_metrics(layers, n_checks_failed, import_s,
                                    work if isinstance(work, Cli) else None, sum(op_wall))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(op_wall), "unit": "s"},
            "op_mean_s": {"value": statistics.fmean(op_wall) if op_wall else 0.0, "unit": "s"},
            "cpu_s": {"value": sum(op_cpu), "unit": "s"},
            "peak_rss_mb": {"value": work.peak_rss_mb(), "unit": "MB"},
        }

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {attempted}, failed {failed}, correct {not problems}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
