"""In-memory span tracer installed from outside the program.

A :class:`Tracer` replaces functions of the traced modules by wrappers
that record one span per call (name, start, end, parent span) and keep
counters fed by per-function hooks.  Spans live in flat arrays and are
written out once, by :meth:`Tracer.dump`, when the traced process ends.

Module-level functions are bound by name in every module that imports
them (``from .projmat import mat_inv``), so :meth:`Tracer.install`
rebinds each wrapper in every loaded module that holds the original
object.  Methods are replaced once, in the class that defines them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import defaultdict


class Tracer:
    """Spans and counters of one process; single-threaded use only."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def wrap(self, name: str, fn, on_return=None, span: bool = True):
        """A wrapper of ``fn`` that records a span named ``name`` (unless
        ``span`` is false) and then calls ``on_return(counts, args,
        result)`` when the call returns normally."""
        counts = self.counts
        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_return(counts, args, result)
                return result

            return counted

        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, args, result)
            return result

        return traced

    def install(self, modules, extra=(), hooks=None):
        """Wrap the public functions and public methods of public classes
        defined in ``modules``, plus the private ``(module, name)``
        functions listed in ``extra``.  ``hooks`` maps a span name to an
        ``on_return`` callback, or to ``(callback, False)`` for a
        counter-only wrapper that records no span."""
        hooks = dict(hooks or {})
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[obj] = self._wrap_hooked(f"{short}.{attr}", obj, hooks)
                elif isinstance(obj, type):
                    self._install_class(f"{short}.{attr}", obj, hooks)
        for mod, attr in extra:
            short = mod.__name__.rsplit(".", 1)[-1]
            obj = getattr(mod, attr)
            replaced[obj] = self._wrap_hooked(f"{short}.{attr.lstrip('_')}", obj, hooks)
        # rebind every reference a loaded module holds by name
        prefix = modules[0].__name__.split(".", 1)[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == prefix or name.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = replaced.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap_hooked(self, name, fn, hooks):
        hook = hooks.get(name)
        if isinstance(hook, tuple):
            return self.wrap(name, fn, hook[0], span=hook[1])
        return self.wrap(name, fn, hook)

    def _install_class(self, prefix, cls, hooks):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap_hooked(name, obj, hooks))
            elif isinstance(obj, (classmethod, staticmethod)):
                inner = self._wrap_hooked(name, obj.__func__, hooks)
                setattr(cls, attr, type(obj)(inner))

    def dump(self, path: str) -> None:
        """Write names, spans (seconds since the tracer was created) and
        counters as one JSON object."""
        origin = self._origin
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": [t - origin for t in self.span_start],
                    "end": [t - origin for t in self.span_end],
                    "counts": dict(self.counts),
                },
                handle,
            )


def span_stats(trace: dict) -> dict:
    """Per span name: ``calls``, ``busy`` (time covered by at least one
    span of that name, so recursion is not counted twice) and ``self``
    (span time minus the time covered by its child spans)."""
    names, parent = trace["names"], trace["parent"]
    name, start, end = trace["name"], trace["start"], trace["end"]
    n = len(name)
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    stats = {nm: {"calls": 0, "busy": 0.0, "self": 0.0} for nm in names}
    for i in range(n):
        entry = stats[names[name[i]]]
        dur = end[i] - start[i]
        entry["calls"] += 1
        entry["self"] += dur - child_time[i]
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            entry["busy"] += dur
    return stats
