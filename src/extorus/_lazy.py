"""numpy, loaded on its first attribute access.

The package's modules take ``np`` from here, so a command that computes
only Python floats (``ext``, ``distance``, ``sweep``, ...) never loads
numpy.  They do not write ``import numpy as np``: on a module in
``sys.modules`` that statement reads ``__spec__``, which loads it.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ImportError("extorus needs numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
