"""Span recorder for the traced benchmark run.

`Tracer.install` wraps, from the outside, every public function and every
public method of a class defined in the given modules. Each call records a
span (name, start, end, parent) in memory; optional counters compute work
counts from argument and return shapes. `uninstall` restores the originals,
so untraced runs execute the program unchanged.

Names that the benchmark expects but the program no longer defines are
reported by `absent()` and yield zero-valued metrics; they never fail a run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter, counters=None):
        self.clock = clock
        self.counters = dict(counters or {})
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = defaultdict(float)  # (prefix, stat) -> value
        self.counter_errors = defaultdict(int)
        self._stack = []
        self._patched = []  # (owner, attribute, original descriptor)
        self.wrapped = set()

    # -- recording ------------------------------------------------------

    def _wrap(self, name, fn):
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = self.clock()
                self._stack.pop()
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except Exception:  # a count that no longer fits the API is lost, not fatal
                    self.counter_errors[name] += 1
            return result

        return traced

    def install(self, modules):
        """Wrap public functions and class methods of each module."""
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    self._patch(module, attr, f"{short}.{attr}", value)
                elif inspect.isclass(value):
                    for meth, desc in list(vars(value).items()):
                        if not meth.startswith("_"):
                            self._patch(value, meth, f"{short}.{attr}.{meth}", desc)
        return self

    def _patch(self, owner, attr, name, desc):
        if isinstance(desc, (classmethod, staticmethod)):
            wrapped = type(desc)(self._wrap(name, desc.__func__))
        elif inspect.isfunction(desc):
            wrapped = self._wrap(name, desc)
        else:
            return  # properties, constants, nested classes
        self._patched.append((owner, attr, desc))
        setattr(owner, attr, wrapped)
        self.wrapped.add(name)

    def uninstall(self):
        for owner, attr, desc in reversed(self._patched):
            setattr(owner, attr, desc)
        self._patched.clear()

    def absent(self, expected):
        return sorted(set(expected) - self.wrapped)

    # -- aggregation ----------------------------------------------------

    def summary(self):
        """name -> {calls, s, self_s}.

        `s` sums the spans of a name that have no enclosing span of the same
        name (recursion is not counted twice); `self_s` is each span's
        duration minus the union of its direct children's intervals.
        """
        n = len(self.names)
        children = defaultdict(list)
        for i in range(n):
            if self.parents[i] >= 0:
                children[self.parents[i]].append(i)
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(n):
            name = self.names[i]
            duration = self.ends[i] - self.starts[i]
            stats = out[name]
            stats["calls"] += 1
            if not self.has_ancestor(i, lambda other: other == name):
                stats["s"] += duration
            stats["self_s"] += duration - self._covered(i, children.get(i, ()))
        return dict(out)

    def _covered(self, i, kids):
        """Length of the union of the children's intervals, clipped to span i."""
        lo, hi = self.starts[i], self.ends[i]
        total, reach = 0.0, lo
        for k in sorted(kids, key=lambda k: self.starts[k]):
            start, end = max(self.starts[k], reach), min(self.ends[k], hi)
            if end > start:
                total += end - start
                reach = end
        return total

    def has_ancestor(self, i, predicate):
        p = self.parents[i]
        while p >= 0:
            if predicate(self.names[p]):
                return True
            p = self.parents[p]
        return False

    def top_level_time(self, members, within=None):
        """Inclusive time of spans named in `members` that are not nested in
        a span named in `within` (default: `members`)."""
        within = members if within is None else within
        total = 0.0
        for i, name in enumerate(self.names):
            if name in members and not self.has_ancestor(i, within.__contains__):
                total += self.ends[i] - self.starts[i]
        return total

    def dump(self):
        index = {name: k for k, name in enumerate(sorted(set(self.names)))}
        return {
            "span_names": sorted(index, key=index.get),
            "spans": {
                "name": [index[name] for name in self.names],
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
            },
            "counts": {f"{prefix}.{stat}": value for (prefix, stat), value in self.counts.items()},
            "counter_errors": dict(self.counter_errors),
        }
