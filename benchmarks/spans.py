"""In-memory span recorder and the wrappers that feed it.

A span is one call into a layer: its name, start, end, parent span and
run id.  Every span without a parent starts a new run; its descendants
share that run id.  Spans are held in flat lists while a pass runs and are
written out once it has finished.

Wrappers are installed from outside the program: ``install`` rebinds every
attribute of a package's modules that holds a traced function, so callers
that look the name up at call time (``thresholds`` calling ``simulate``,
``stefan.simulate`` calling ``step``, ``cli`` calling ``spreading_speed``)
reach the wrapper.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    """Flat span store; ``clock`` is injectable so tests can fix times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []       # interned span names
        self._ids = {}
        self.name = []        # per span: index into self.names
        self.start = []
        self.end = []
        self.parent = []      # per span: parent span index, -1 for a root
        self.run = []         # per span: index of its root span
        self.attrs = {}       # span index -> dict recorded by an observer
        self.counts = defaultdict(float)
        self._stack = []
        self._installed = []
        self._by_name = ({}, -1)   # (name -> span indices, span count when built)

    def __len__(self):
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.run.append(self.run[parent] if parent >= 0 else idx)
        self.start.append(self.clock())
        self.end.append(0.0)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, idx, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str, layers, observers=None) -> None:
        """Wrap each ``(module, function)`` of ``package`` as span
        "<module>.<function>" and rebind it wherever the package binds it.

        ``observers`` maps a span name to ``f(tracer, idx, args, kwargs,
        result)``, called after the span closes to record counts.
        """
        observers = observers or {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name in layers:
            module = importlib.import_module(f"{package}.{mod_name}")
            original = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self.wrap(name, original, observers.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- analysis ----------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        """Span duration minus the durations of its direct children.

        Children of one span never overlap (calls are nested on one
        thread), so the sum of child durations is the covered part.
        """
        dur = self.durations()
        own = list(dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def indices(self, name: str):
        """Indices of the spans called ``name``, in start order."""
        table, built = self._by_name
        if built != len(self.start):
            table = {}
            for i, nid in enumerate(self.name):
                table.setdefault(self.names[nid], []).append(i)
            self._by_name = (table, len(self.start))
        return table.get(name, [])

    def has_ancestor(self, idx: int, names) -> bool:
        wanted = {self._ids[n] for n in names if n in self._ids}
        parent = self.parent[idx]
        while parent >= 0:
            if self.name[parent] in wanted:
                return True
            parent = self.parent[parent]
        return False

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,start,end,parent,run\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.run[i]}\n")
