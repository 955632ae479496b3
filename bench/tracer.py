"""Outside-in span tracing: wrappers bound onto the program's module attributes.

A :class:`Tracer` replaces every public module-level function of the traced
modules with a wrapper that records one span per call: name, start, end,
parent span and whether the call raised.  Functions that another traced
module imported by name (``from .prefs import as_price``) are rebound there
too, so every call site is seen.  Spans live in flat in-memory arrays and are
written out with :meth:`Tracer.save` when the run ends; :func:`layer_stats`
derives counts, inclusive and self times from them.

Only public functions are wrapped.  The 2x2 fast path of the engine calls
nothing public per step, so its kernel cost shows up as the self time of
``engine.run_monte_carlo`` (terminal-only runs) or ``engine.run_trajectory``
(recorded runs).
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

NO_PARENT = -1


class Tracer:
    """Records spans around the public functions of the given modules."""

    def __init__(self, modules: dict[str, object], clock=time.perf_counter):
        self._modules = modules
        self._clock = clock
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.raised = array("b")
        self._stack = [NO_PARENT]
        self._saved: list[tuple[object, str, object]] = []

    def _public_functions(self):
        """(span name, function) for every public function a module defines."""
        for short, mod in self._modules.items():
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    yield f"{short}.{attr}", fn

    def _wrap(self, fn, name_id: int):
        name_ids, parents = self.name_ids, self.parents
        starts, ends, raised = self.starts, self.ends, self.raised
        stack, clock = self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            raised.append(1)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised[idx] = 0
                return out
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        wrappers = {}
        for name, fn in self._public_functions():
            self.names.append(name)
            wrappers[id(fn)] = (fn, self._wrap(fn, len(self.names) - 1))
        for mod in self._modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path: Path) -> None:
        """Write the spans as an ``.npz`` with a ``names`` table."""
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child_sum


def layer_stats(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, raised calls, inclusive seconds and self seconds."""
    name_id, parent = spans["name_id"], spans["parent"]
    start, end = spans["start"], spans["end"]
    own = self_times(parent, start, end)
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    raised = np.bincount(name_id, weights=spans["raised"], minlength=k)
    inclusive = np.bincount(name_id, weights=end - start, minlength=k)
    self_s = np.bincount(name_id, weights=own, minlength=k)
    return {
        name: {
            "calls": int(calls[i]),
            "raised": int(raised[i]),
            "s": float(inclusive[i]),
            "self_s": float(self_s[i]),
        }
        for i, name in enumerate(names)
    }
