"""Span tracer that wraps the package's public functions from the outside.

Installing a :class:`Tracer` replaces every public function and every public
method of a public class defined in the traced modules with a wrapper that
records a span (name, layer, start, end, parent).  The replacement is made in
every module of the package that holds the original object, so calls between
modules are caught as well as calls from the benchmark.  Nothing under the
package's source tree is edited; :meth:`Tracer.uninstall` puts the originals
back.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str  # "<layer>.<qualified function name>"
    layer: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # identifier shared by the spans of one benchmark operation
    index: int  # position in Tracer.spans
    child_ns: int = 0  # summed duration of the direct children

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    def __init__(self, package, layers):
        self.package = package
        self.layers = tuple(layers)
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(layer, owner, attribute, function) for every public callable."""
        for layer in self.layers:
            module = getattr(self.package, layer)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    yield layer, module, name, obj
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            yield layer, obj, attr, member

    def install(self) -> None:
        if self._patches:
            return
        modules = [self.package] + [
            getattr(self.package, n) for n in dir(self.package)
            if inspect.ismodule(getattr(self.package, n))
        ]
        for layer, owner, attr, fn in self._targets():
            wrapper = self._wrap(layer, fn)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__qualname__}"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = Span(name, layer, clock(), 0, parent, self.op, index)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_ns += span.ns

        return traced

    # -- queries ----------------------------------------------------------

    def children(self, span: Span, name: str | None = None) -> list[Span]:
        """Direct children of ``span``, optionally only those called ``name``."""
        out = []
        for s in itertools.islice(self.spans, span.index + 1, None):
            if s.start > span.end:
                break
            if s.parent == span.index and (name is None or s.name == name):
                out.append(s)
        return out

    def descendants(self, span: Span) -> list[Span]:
        """Every span nested under ``span``; spans are stored in start order."""
        out, inside = [], {span.index}
        for s in itertools.islice(self.spans, span.index + 1, None):
            if s.start > span.end:
                break
            if s.parent in inside:
                inside.add(s.index)
                out.append(s)
        return out

    def under(self, span: Span, ancestor: str) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == ancestor:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_self_ms(self) -> dict[str, float]:
        totals = {layer: 0 for layer in self.layers}
        for s in self.spans:
            totals[s.layer] += s.self_ns
        return {layer: ns / 1e6 for layer, ns in totals.items()}
