"""Run ``extorus.cli.main`` with the benchmark's wrappers installed.

Usage: python3 perfbench/launch.py TRACE_JSON ARG...

Behaves like ``python -m extorus.cli ARG...`` (same stdout, stderr and
exit code) and, when ``main`` returns, writes the per-layer counts, the
spans and the time taken to import ``extorus.cli`` to TRACE_JSON.
"""

import sys
import time

_T0 = time.perf_counter()
import extorus.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

from tracer import Tracer  # noqa: E402


def launch(trace_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = extorus.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
    tracer.dump(trace_path, {"import_s": IMPORT_S})
    return code


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1], sys.argv[2:]))
