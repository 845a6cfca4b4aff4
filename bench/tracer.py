"""Spans around the calls into lambda_expand's public functions.

The tracer replaces each traced function in every lambda_expand module
namespace that holds it, so calls between modules go through the wrapper as
well as calls from the benchmark. A call a function makes to itself while
it is already the innermost open span belongs to that span and opens no new
one, so recursion counts once. Generators (``typelang.ctx_match``) open one
span per resumption; their self time is summed over resumptions, and the
yields are counted.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out by ``write``. ``calls``, ``total`` and ``self_time`` hold the
calls, the summed duration and the summed self time per name. Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # one entry per span, in order of closing
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")  # span id of the parent, -1 at the top
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.yields: dict[str, int] = {}
        # open spans: [name id, start, child time, span id]
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording

    def _name_id(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total[name] = 0.0
            self.self_time[name] = 0.0
        return i

    def _open(self, name_id: int) -> None:
        self._stack.append([name_id, _clock(), 0.0, self._next_id])
        self._next_id += 1

    def _close(self) -> None:
        end = _clock()
        name_id, start, child, span_id = self._stack.pop()
        dur = end - start
        name = self.names[name_id]
        self.total[name] += dur
        self.self_time[name] += dur - child
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        self.span_id.append(span_id)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)

    def wrap(self, fn, name: str):
        """A traced stand-in for fn, recording spans called ``name``."""
        tracer = self
        i = tracer._name_id(name)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._resume(i, fn(*args, **kwargs))

            return traced_gen

        def traced(*args, **kwargs):
            if tracer._stack and tracer._stack[-1][0] == i:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            tracer._open(i)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def _resume(self, name_id: int, gen):
        name = self.names[name_id]
        try:
            while True:
                self._open(name_id)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close()
                self.yields[name] = self.yields.get(name, 0) + 1
                yield value
        finally:
            gen.close()

    # -- installing

    def patch(self, module_prefix: str, module, attr: str, name: str) -> None:
        """Trace ``module.attr`` under ``name`` in every loaded module whose
        name starts with ``module_prefix`` and that holds the same object."""
        original = getattr(module, attr)
        stand_in = self.wrap(original, name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(module_prefix):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, stand_in)
                    self._patched.append((mod, key, original))

    def patch_dict(self, table: dict, key, name: str) -> None:
        original = table[key]
        table[key] = self.wrap(original, name)
        self._patched.append((table, key, original))

    def unpatch(self) -> None:
        for holder, key, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched.clear()

    # -- output

    def write(self, path) -> None:
        """Spans as JSON columns in the order they closed: span id (the
        order in which spans opened), name index into ``names``, start and
        end (seconds on perf_counter), parent span id (-1 at the top)."""
        doc = {
            "names": self.names,
            "id": list(self.span_id),
            "name": list(self.span_name),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "parent": list(self.span_parent),
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
