"""Spans around the calls into jcs_music's layers, recorded from outside
the package.

`Tracer.install` wraps every public function of the layer modules and
rebinds the wrapper at every name in the package that refers to the
original function, so calls through a module (`channel.synthesize_echo`)
and calls through a by-name import (`music` calling `decompose`) are both
seen.  `Tracer.remove` puts every original back.  Spans stay in memory;
`layer_table` turns them into calls, total and self time per function.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "jcs_music"
LAYER_MODULES = ("harness", "scenario", "channel", "qam", "subspace",
                 "steering", "music", "fft_baseline", "csi", "theory")


def _observe_decompose(dec, counts):
    counts["source_count"] += getattr(dec, "source_count", 0)
    counts["fallback"] += bool(getattr(dec, "fallback", False))


def _observe_newton(est, counts):
    counts["iterations"] += getattr(est, "iterations", 0)
    counts["converged"] += bool(getattr(est, "converged", False))


def _observe_estimates(result, counts):
    counts["estimates"] += len(result[0])


def _observe_echo(echo, counts):
    arrays = getattr(echo, "__dict__", {}).values()
    counts["bytes_out"] += sum(a.nbytes for a in arrays
                               if isinstance(a, np.ndarray))


# counts taken from what a layer returns, keyed by "<module>.<function>"
OBSERVERS = {
    "subspace.decompose": _observe_decompose,
    "music.newton_refine_1d": _observe_newton,
    "music.music_aoa": _observe_estimates,
    "music.music_range": _observe_estimates,
    "music.music_doppler": _observe_estimates,
    "channel.synthesize_echo": _observe_echo,
}


class Tracer:
    """In-memory spans (name, start, end, parent index) of wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        # functions whose return value the observer could not read; their
        # counts are incomplete
        self.unobserved: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        unobserved = self.unobserved
        observe = OBSERVERS.get(name)
        counts = self.counts[name]

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                try:
                    observe(result, counts)
                except Exception:   # the layer's return type changed
                    unobserved.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per function: calls, total seconds, and self seconds (total minus
    the time covered by its direct child spans)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return dict(table)
