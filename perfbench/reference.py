"""Reference figures for single layers and commands, each at one size.

Usage: python3 perfbench/reference.py

Prints one line per figure: the suite at seed 42, solves at n = 1024 and
2048 (time and peak memory of a fresh process), Kerckhoff distance at
N = 1000 cold and warm, ``sweep`` over 1001 x 1001 points with the share
of its time spent in ``%.17g`` formatting, and the ``ext`` process.
Timings are medians of REPEATS.  Run from the root of a source tree.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEATS = 3
SWEEP = ["sweep", "--curve", "1,1", "--re=-1:1:0.002", "--im", "0.5:2.5:0.002"]


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def child(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=600).stdout


def solve_in_process(n: int) -> None:
    """Child mode: time REPEATS solves at ``n`` and print ``seconds peak_mb``."""
    from extorus import CurveClass, Modulus, catalog_field, solve_variation_field

    tau = Modulus(0.5, 1.25)
    field = catalog_field(tau, "exp2pist", 64)
    times = [timed(lambda: solve_variation_field(tau, CurveClass(1, 1), field, n))
             for _ in range(REPEATS)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(statistics.median(times), peak)


def kerckhoff_in_process() -> None:
    """Child mode: print the cold then the warm time of one N = 1000 call."""
    from extorus import Modulus, kerckhoff_distance

    call = lambda: kerckhoff_distance(Modulus(0.0, 1.0), Modulus(0.3, 2.0), 1000)  # noqa: E731
    print(timed(call), statistics.median(timed(call) for _ in range(REPEATS)))


def main() -> None:
    sys.path.insert(0, str(SRC))
    from extorus import Modulus, CurveClass, extremal_length, levi_form, run_suite

    run_suite()
    suite = statistics.median(timed(run_suite) for _ in range(REPEATS))
    print(f"suite (seed 42)                 {suite:.3f} s")

    for n in (1024, 2048):
        seconds, peak = (float(v) for v in child(__file__, "solve", str(n)).split())
        print(f"solve_variation_field n={n:<5d}  {seconds:.3f} s, process peak {peak:.0f} MB")

    cold, warm = (float(v) for v in child(__file__, "kerckhoff").split())
    print(f"kerckhoff_distance N=1000       {cold * 1e3:.0f} ms cold, {warm * 1e3:.1f} ms warm")

    sweep = statistics.median(timed(lambda: child("-m", "extorus.cli", *SWEEP))
                              for _ in range(REPEATS))
    curve = CurveClass(1, 1)
    rows = []
    for i in range(1001):
        for k in range(1001):
            re, im = -1 + k * 0.002, 0.5 + i * 0.002
            tau = Modulus(re, im)
            rows.append((re, im, extremal_length(tau, curve), levi_form(tau, curve)))
    fmt = timed(lambda: [",".join(f"{v:.17g}" for v in row) for row in rows])
    print(f"sweep 1001x1001 process         {sweep:.2f} s, %.17g formatting {fmt:.2f} s "
          f"({fmt / sweep:.0%})")

    ext = statistics.median(
        timed(lambda: child("-m", "extorus.cli", "ext", "--tau", "0+1i", "--curve", "1,0"))
        for _ in range(5))
    print(f"ext process                     {ext:.3f} s")


if __name__ == "__main__":
    if sys.argv[1:2] == ["solve"]:
        sys.path.insert(0, str(SRC))
        solve_in_process(int(sys.argv[2]))
    elif sys.argv[1:2] == ["kerckhoff"]:
        sys.path.insert(0, str(SRC))
        kerckhoff_in_process()
    else:
        main()
