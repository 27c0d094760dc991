"""In-memory span tracer that wraps the program's layer entry points.

A span is ``(name, start, end, parent)``: ``name`` is ``layer.entry``,
``parent`` is the index of the enclosing span (``-1`` for a root).
Spans are recorded from outside the program: :func:`install` replaces
each entry point with a timing wrapper in every place a caller can
reach it -- the class attribute for methods, and for module-level
functions every ``repro.*`` module global that is bound to the same
function object (so ``from x import f`` bindings are patched too).

Very hot leaf entries (``PoolAllocator.alloc`` / ``.free``) are not
stored one span per call: each ``(name, parent)`` pair keeps a call
count and a duration total, which enter the parent's child time
exactly as individual spans would.  A wrapped call made *inside* such
a leaf would break the self-time arithmetic, so it is counted as an
error instead.

Self time of a span = its duration minus the duration of its direct
children; summed per layer it partitions the traced wall time, the
root spans' self time being the part no layer claims.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

ROOT = "bench"          # layer name of the root spans (unattributed time)


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []          # [name, start, end, parent]
        self.leaves: Dict[Tuple[str, int], List[float]] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        self.errors: List[str] = []
        self._stack: List[int] = []
        self._in_leaf = False

    # -- recording ------------------------------------------------------
    def enter(self, name: str) -> int:
        if self._in_leaf:
            self.errors.append(f"{name} called inside a leaf span")
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.counts[name] += 1
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            self.errors.append(
                f"span stack out of order: closed {index}, top {popped}")

    def span(self, name: str, fn: Callable, *args, **kwargs):
        index = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(index)

    def leaf(self, name: str, fn: Callable, *args, **kwargs):
        """A hot leaf call: aggregated into (count, total) per parent."""
        parent = self._stack[-1] if self._stack else -1
        self._in_leaf = True
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self._in_leaf = False
            cell = self.leaves.get((name, parent))
            if cell is None:
                self.leaves[(name, parent)] = [1, elapsed]
            else:
                cell[0] += 1
                cell[1] += elapsed
            self.counts[name] += 1

    def dump(self, path: str) -> None:
        """Write every span and leaf aggregate as JSON."""
        with open(path, "w") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent"],
                "spans": self.spans,
                "leaves": [[name, parent, count, total]
                           for (name, parent), (count, total)
                           in sorted(self.leaves.items())],
                "errors": self.errors,
            }, handle)


def self_times(spans: List[list],
               leaves: Dict[Tuple[str, int], List[float]]) -> Dict[str, float]:
    """Self time per name: duration minus direct children's durations."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for (_name, parent), (_count, total) in leaves.items():
        if parent >= 0:
            child[parent] += total
    out: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - child[index]
    for (name, _parent), (_count, total) in leaves.items():
        out[name] += total
    return dict(out)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------
class Installation:
    """Every patch made, so it can be undone exactly."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self.bindings: Dict[str, int] = {}

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _repro_modules() -> Iterable[object]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def patch_function(inst: Installation, module: object, attr: str,
                   make: Callable[[Callable], Callable]) -> None:
    """Replace ``module.attr`` and every repro global bound to it."""
    original = getattr(module, attr)
    wrapper = functools.wraps(original)(make(original))
    count = 0
    for mod in _repro_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                inst.set(mod, name, wrapper)
                count += 1
    inst.bindings[f"{module.__name__}.{attr}"] = count


def patch_method(inst: Installation, cls: type, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
    """Replace a method on the class that defines it."""
    original = cls.__dict__[attr]
    inst.set(cls, attr, functools.wraps(original)(make(original)))
    inst.bindings[f"{cls.__name__}.{attr}"] = 1


def spanning(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return tracer.span(name, original, *args, **kwargs)
        return wrapper
    return make


def leafing(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return tracer.leaf(name, original, *args, **kwargs)
        return wrapper
    return make


def observing(after: Callable[[object], None]
              ) -> Callable[[Callable], Callable]:
    """A wrapper that records no span, only inspects the return value."""
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(result)
            return result
        return wrapper
    return make

