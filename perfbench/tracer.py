"""In-memory spans around the program's public layer functions.

`Tracer.install` replaces each listed function with a wrapper in every
trilevel module namespace that holds it, so calls made between modules
(`observables` calling the `mat_exp` it imported from `linalg`) are traced
too.  Spans are recorded only while an item is open, so the benchmark's own
checks never show up.  Each span is (name, start, end, parent, item).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, function) pairs, named as in the per-layer metrics
LAYERS = (
    ("systems", "build_model"),
    ("equivalence", "map_system"),
    ("equivalence", "verify_equivalence"),
    ("dynamics", "liouvillian"),
    ("dynamics", "propagate_series"),
    ("dynamics", "steady_state"),
    ("linalg", "mat_exp"),
    ("linalg", "null_space"),
    ("observables", "g2"),
    ("observables", "waiting_time"),
    ("observables", "emission_spectrum"),
    ("observables", "populations"),
    ("observables", "mc_trajectories"),
    ("cli", "parse_scenario"),
    ("cli", "run"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.item)
        return traced

    def install(self):
        for mod_name, _ in LAYERS:
            importlib.import_module(f"trilevel.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trilevel"
                                         or n.startswith("trilevel."))]
        for mod_name, fn_name in LAYERS:
            orig = getattr(sys.modules[f"trilevel.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def self_times(self) -> dict:
        """{item: {layer: [calls, self seconds]}} from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for k, (name, start, end, parent, item) in enumerate(self.spans):
            acc = out[item][name]
            acc[0] += 1
            acc[1] += end - start - child[k]
        return out
