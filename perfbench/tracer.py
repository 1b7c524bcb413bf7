"""Call tracing for the benchmark's traced runs.

``Tracer.install`` wraps the package's public functions under every name
the ``extorus`` modules import them by (so ``extorus.variation.grid_dz``
and ``extorus.beltrami.grid_dz`` both go through the wrapper), plus
``numpy.fft.fft2`` / ``ifft2``.  Each wrapped call is a frame on a stack;
a layer's self time is its frames' durations minus the time their child
frames cover.  Functions called once per sample point (closed forms,
oracles) only add to their layer's count and times; the rest also
record a span ``(id, parent, name, start, end)`` kept in memory and
written out by ``dump``.  FFT calls count only inside a package call.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

#: (module, attribute, layer, hot).  Hot functions run once per sample
#: point and keep no spans.  ``Class.method`` names patch the class.  A
#: target the package no longer defines is skipped, so its layer reads 0.
TARGETS = (
    ("extorus.moduli", "extremal_length", "moduli.closed_form", True),
    ("extorus.moduli", "cylinder_modulus", "moduli.closed_form", True),
    ("extorus.moduli", "levi_form", "moduli.closed_form", True),
    ("extorus.moduli", "kerckhoff_distance", "moduli.kerckhoff", False),
    ("extorus.harmonic", "build_harmonic_map", "harmonic", True),
    ("extorus.harmonic", "energy", "harmonic", True),
    ("extorus.harmonic", "hopf", "harmonic", True),
    ("extorus.beltrami", "catalog_field", "beltrami.field", False),
    ("extorus.beltrami", "from_function", "beltrami.field", False),
    ("extorus.beltrami", "constant", "beltrami.field", True),
    ("extorus.beltrami", "BeltramiField.grid_samples", "beltrami.resample", False),
    ("extorus.beltrami", "dz_multiplier", "beltrami.multiplier", False),
    ("extorus.beltrami", "dzbar_multiplier", "beltrami.multiplier", False),
    ("extorus.beltrami", "grid_dz", "beltrami.derivative", False),
    ("extorus.beltrami", "grid_dzbar", "beltrami.derivative", False),
    ("extorus.variation", "solve_variation_field", "variation.solve", False),
    ("extorus.variation", "identity_eq11_check", "variation.identity", False),
    ("extorus.variation", "identity_eq15_evaluate", "variation.identity", False),
    ("extorus.variation", "teich_bound_check", "variation.identity", True),
    ("extorus.variation", "first_variation", "variation.closed_form", True),
    ("extorus.variation", "second_variation_constant", "variation.closed_form", True),
    ("extorus.variation", "pair_sum_levi", "variation.closed_form", True),
    ("extorus.verify", "run_suite", "verify.run_suite", False),
    ("extorus.verify", "fd_first_variation", "verify.oracle", True),
    ("extorus.verify", "fd_second_variation", "verify.oracle", True),
    ("extorus.verify", "fd_levi_form", "verify.oracle", True),
    ("extorus.cli", "main", "cli", False),
)

FFT_NAMES = ("fft2", "ifft2")


class LayerStats:
    __slots__ = ("calls", "self_s", "total_s", "durations", "points")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations: list[float] = []
        self.points = 0


class Tracer:
    """Wraps package functions in place; ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.kerckhoff_seen: set[int] = set()
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def stats(self, layer: str) -> LayerStats:
        s = self.layers.get(layer)
        if s is None:
            s = self.layers[layer] = LayerStats()
        return s

    def reset(self) -> None:
        """Forget counts and spans; which Kerckhoff boxes are warm is kept."""
        self.layers.clear()
        self.spans.clear()

    def _call(self, fn, args, kwargs, layer: str, name: str, hot: bool):
        frame = [0, 0.0]  # span id (0 for hot calls), seconds covered by children
        if not hot:
            frame[0] = self._next_id
            self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            stats = self.stats(layer)
            stats.calls += 1
            stats.self_s += dur - frame[1]
            stats.total_s += dur
            if self._stack:
                self._stack[-1][1] += dur
            if not hot:
                stats.durations.append(dur)
                parent = next((f[0] for f in reversed(self._stack) if f[0]), 0)
                self.spans.append((frame[0], parent, name, start, end))

    def wrap(self, fn, layer: str, name: str, hot: bool):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(fn, args, kwargs, layer, name, hot)

        return wrapper

    def _wrap_kerckhoff(self, fn):
        """A call is cold when its ``max_index`` is new in this process."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            max_index = args[2] if len(args) > 2 else kwargs["max_index"]
            temp = "warm" if max_index in self.kerckhoff_seen else "cold"
            self.kerckhoff_seen.add(max_index)
            return self._call(fn, args, kwargs, f"moduli.kerckhoff.{temp}",
                              f"kerckhoff_distance[{temp}]", False)

        return wrapper

    def _wrap_fft(self, fn, name: str):
        @wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not self._stack:
                return fn(a, *args, **kwargs)
            self.stats("fft").points += int(getattr(a, "size", 1))
            return self._call(fn, (a,) + args, kwargs, "fft", name, False)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target under each name an ``extorus`` module binds it to."""
        import numpy.fft

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "extorus" or k.startswith("extorus."))]
        for modname, attr, layer, hot in TARGETS:
            home = sys.modules.get(modname)
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self.wrap(getattr(cls, meth), layer, attr, hot))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            if attr == "kerckhoff_distance":
                new = self._wrap_kerckhoff(orig)
            else:
                new = self.wrap(orig, layer, attr, hot)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, new)
        for name in FFT_NAMES:
            self._patch(numpy.fft, name, self._wrap_fft(getattr(numpy.fft, name), name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def summary(self) -> dict:
        return {
            name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s,
                   "durations": s.durations, "points": s.points}
            for name, s in self.layers.items()
        }

    def dump(self, path, extra: dict | None = None) -> None:
        data = {"layers": self.summary(), "spans": self.spans}
        data.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
