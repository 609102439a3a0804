"""In-memory spans, layer timers and Laurent-polynomial call counters for the
traced run.

All of them live only in the traced run (``passes.py`` in ``trace`` mode);
the timed passes carry none.  Spans are recorded from the benchmark's own
code, around the public calls a workload makes, and written out when the run
ends.  The layer timers and the counters replace functions and methods of
the package by timed wrappers and put the originals back afterwards.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager

NO_PARENT = -1
_MISSING = object()


class Spans:
    """Spans ``(name, start, end, parent, run_id)`` kept in memory.

    ``parent`` is the index of the enclosing span, or ``NO_PARENT``; all
    spans of one traced run share ``run_id``.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._open: list[int] = []

    def _parent(self) -> int:
        return self._open[-1] if self._open else NO_PARENT

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the innermost open one."""
        self.spans.append((name, start, end, self._parent(), self.run_id))

    @contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one span; spans opened inside are its children."""
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._parent(), self.run_id))
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, self.spans[idx][3], self.run_id)

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class LayerTimer:
    """Times the calls a program makes into other layers, by layer.

    ``wrap`` replaces a function of a module (or a method of a class) by a
    wrapper that counts and times its calls; ``restore`` puts every original
    back.  Only the outermost wrapped call is timed and counted, so a layer
    that calls another is not timed twice and the layer times add up to less
    than the calling span: the rest is the caller's own time.
    """

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.items: defaultdict[str, int] = defaultdict(int)
        self._depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, new) -> None:
        """Set ``owner.name`` to ``new`` until ``restore``."""
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, new)

    def timed(self, layer: str, fn, *args, count=None):
        """``fn(*args)``, timed under ``layer`` unless a wrapped call is running.

        ``count``, if given, maps the arguments and the result to a number
        added to ``items[layer]``.
        """
        if self._depth:
            return fn(*args)
        self._depth = 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self.seconds[layer] += time.perf_counter() - start
            self._depth = 0
        self.calls[layer] += 1
        if count is not None:
            self.items[layer] += count(args, result)
        return result

    def wrap(self, owner, name: str, layer: str, count=None) -> None:
        """Time the calls made through ``owner.name`` under ``layer``."""
        original = getattr(owner, name)
        self.replace(owner, name, lambda *args: self.timed(layer, original, *args, count=count))

    def call_cost(self) -> float:
        """Seconds one timed call costs its caller outside the timed region.

        The least, over a few batches, of the time a wrapped no-op takes
        beyond what the timer records for it and what the same call takes
        unwrapped.
        """
        probe = LayerTimer()
        holder = types.SimpleNamespace(noop=lambda *args: None)
        bare = holder.noop
        probe.wrap(holder, "noop", "noop", count=lambda args, result: 0)
        calls, best = 20000, float("inf")
        for _ in range(5):
            probe.seconds.clear()
            start = time.perf_counter()
            for _ in range(calls):
                holder.noop()
            middle = time.perf_counter()
            for _ in range(calls):
                bare()
            end = time.perf_counter()
            best = min(best, ((middle - start) - probe.seconds["noop"] - (end - middle)) / calls)
        return max(best, 0.0)

    def wrap_open(self, module, layer: str) -> None:
        """Time the file writes ``module`` makes with ``open`` under ``layer``."""
        self.replace(module, "open", lambda *args, **kw: _TimedFile(self, layer, open(*args, **kw)))

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved.clear()


class _TimedFile:
    """A file whose ``write`` and ``close`` are timed by a ``LayerTimer``."""

    def __init__(self, timer: LayerTimer, layer: str, fh) -> None:
        self._timer, self._layer, self._fh = timer, layer, fh

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def write(self, text):
        return self._timer.timed(self._layer, self._fh.write, text)

    def close(self) -> None:
        self._timer.timed(self._layer, self._fh.close)

    def __getattr__(self, name):
        return getattr(self._fh, name)


# Operator methods of LaurentPoly, by the counter each one feeds.
_KINDS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "addsub",
    "__radd__": "addsub",
    "__sub__": "addsub",
    "__rsub__": "addsub",
    "__neg__": "addsub",
    "bar": "bar",
    "shift": "shift",
}


class LaurentCounter:
    """Counts and times calls to the operator methods of a polynomial class.

    ``self_s`` is taken at the outermost operator call only, so an operator
    that calls another is not timed twice.  The operands of a nested call
    are kept and their terms counted after the run, outside the timed
    region, and ``snapshot`` takes off the cost the timer itself adds to
    each outermost call, measured on a no-op.  ``mean_operand_terms``
    averages the term count of the polynomial and integer operands of
    ``mul`` and ``addsub`` calls.
    """

    def __init__(self, cls) -> None:
        self.cls = cls
        self.calls = dict.fromkeys(_KINDS.values(), 0)
        self.outermost = 0
        self.terms = 0
        self.operands = 0
        self.self_s = 0.0
        self._depth = 0
        self._nested_operands: list[tuple] = []
        self._saved: dict[str, object] = {}

    def _count_terms(self, x) -> None:
        if isinstance(x, int):
            self.terms += 1 if x else 0
        elif isinstance(x, self.cls):
            coeffs = getattr(x, "c", None)
            if isinstance(coeffs, dict):
                self.terms += len(coeffs)
            elif x:
                # another representation: count through the public interface
                self.terms += sum(1 for k in range(x.min_exp(), x.max_exp() + 1) if x.coefficient(k))
        else:
            return  # an operand of another type, such as a Hecke algebra element
        self.operands += 1

    def _wrap(self, fn, kind: str):
        calls = self.calls
        binary = kind in ("mul", "addsub")
        nested = self._nested_operands
        perf_counter = time.perf_counter

        def wrapper(*args):
            calls[kind] += 1
            if self._depth:
                if binary:
                    nested.append(args)
                return fn(*args)
            if binary:
                for x in args:
                    self._count_terms(x)
            self.outermost += 1
            self._depth = 1
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                self.self_s += perf_counter() - start
                self._depth = 0

        return wrapper

    def install(self) -> None:
        for name, kind in _KINDS.items():
            if name in self.cls.__dict__:
                original = self.cls.__dict__[name]
                self._saved[name] = original
                setattr(self.cls, name, self._wrap(original, kind))

    def restore(self) -> None:
        for name, original in self._saved.items():
            setattr(self.cls, name, original)
        self._saved.clear()

    def timer_floor(self) -> float:
        """Seconds the timer adds to one outermost call: the least mean
        ``self_s`` of a wrapped no-op over a few batches of calls."""
        probe = LaurentCounter(self.cls)
        noop = probe._wrap(lambda *args: None, "bar")
        calls, best = 20000, float("inf")
        for _ in range(5):
            probe.self_s = 0.0
            for _ in range(calls):
                noop()
            best = min(best, probe.self_s / calls)
        return best

    def snapshot(self) -> dict[str, float]:
        for args in self._nested_operands:
            for x in args:
                self._count_terms(x)
        self._nested_operands.clear()
        self_s = max(self.self_s - self.outermost * self.timer_floor(), 0.0)
        return {
            "laurent.mul_calls": self.calls["mul"],
            "laurent.addsub_calls": self.calls["addsub"],
            "laurent.bar_calls": self.calls["bar"],
            "laurent.shift_calls": self.calls["shift"],
            "laurent.mean_operand_terms": self.terms / self.operands if self.operands else 0.0,
            "laurent.self_s": self_s,
        }
