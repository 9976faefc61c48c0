"""Span tracing around the public functions of the ``signchange`` modules.

The tracer rebinds every public module-level function of a ``signchange``
module, in every loaded ``signchange.*`` namespace that holds it, to a
wrapper that records one span per call: name, start, end, parent span and
operation id.  Spans are kept in flat arrays in memory and written out once
at the end of a run.  Calls, total time and self time (a span's duration
minus the time its child spans cover) are accumulated as the spans close,
so the per-layer figures need no second pass over the spans.

Nothing in ``src/`` is edited: ``remove()`` restores every original binding.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "signchange"
# Per-element helpers: sign() runs once per vector component, so a span per
# call would multiply the traced run's time and memory by the vector length.
# Its time stays in the self time of its caller, sign_vector.
NOT_TRACED = frozenset({"counting.sign"})


def public_functions(module) -> dict[str, object]:
    """Module-level functions defined in ``module`` whose names lack a leading underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def package_modules() -> list:
    """The package and its loaded submodules, in a fixed order."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Install with ``install()``, run the workload, then ``remove()``.

    ``observers`` maps a traced name such as ``"polysys.finite_direction_feasibility"``
    to a callable that receives each value the function returns and the call's
    duration in seconds.
    """

    def __init__(self, observers: dict | None = None) -> None:
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.op = -1
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_op = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        # open spans: [span index, time covered by finished children]
        self._stack: list[list] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        observe = self.observers.get(qualname)
        stack = self._stack
        clock = time.perf_counter
        spans = (
            self._span_name, self._span_parent, self._span_op, self._span_start, self._span_end
        )
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans[0])
            spans[0].append(name_id)
            spans[1].append(stack[-1][0] if stack else -1)
            spans[2].append(tracer.op)
            spans[3].append(0.0)
            spans[4].append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[3][index] = start
                spans[4][index] = end
                duration = end - start
                calls[qualname] += 1
                total_s[qualname] += duration
                self_s[qualname] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(result, duration)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2] if module.__name__ != PACKAGE else PACKAGE
            for name, fn in public_functions(module).items():
                if f"{short}.{name}" not in NOT_TRACED:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._bindings.append((module, name, obj))
                    setattr(module, name, wrapper)

    def remove(self) -> None:
        for module, name, original in reversed(self._bindings):
            setattr(module, name, original)
        self._bindings.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    @property
    def span_count(self) -> int:
        return len(self._span_name)

    def write(self, path) -> None:
        """Write every span as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            op=np.frombuffer(self._span_op, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
        )
