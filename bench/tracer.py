"""Span tracing for the traced benchmark run.

The tracer wraps public functions of consensuslab's modules from the
outside: every module attribute (and class attribute, for methods) that
refers to a traced function is replaced by a wrapper for the traced round
only, and restored afterwards.  Each call becomes a span with a name, a
start, an end and the span that caused it.  Self time is a span's duration
minus the time its child spans cover.

Every span enters the per-name aggregates (calls, total time, self time,
parent-to-child call counts).  Only the first ``keep`` spans are also kept
whole, in memory, and written out at the end: a full fuzz campaign makes
millions of spans.
"""

from __future__ import annotations

import itertools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.total_ns: list = []
        self.self_ns: list = []
        self.extra: list = []  # per-name sum of an optional size measure
        self.edges: Counter = Counter()  # (parent name id, child name id) -> calls
        self.spans = array("q")  # span id, parent span id, name id, start, end
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self.extra.append(0)
        return self._ids[name]

    def _wrapper(self, name: str, fn, measure=None):
        nid = self._name_id(name)
        calls, total_ns, self_ns, extra = self.calls, self.total_ns, self.self_ns, self.extra
        edges, spans, keep = self.edges, self.spans, self.keep
        # Each frame is [name id, span id, time covered by children].
        stack = self._stack
        next_id = self._next_id

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [nid, next(next_id), 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                parent[2] += took
                calls[nid] += 1
                total_ns[nid] += took
                self_ns[nid] += took - frame[2]
                edges[parent[0], nid] += 1
                if measure is not None:
                    extra[nid] += measure(args)
                if len(spans) < 5 * keep:
                    spans.extend((frame[1], parent[1], nid, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self, functions: list, methods: list) -> None:
        """Wrap module functions and class methods.

        ``functions`` holds ``(span name, module, attribute, measure)``; every
        consensuslab module attribute bound to that function is replaced, so
        callers that imported it by name are traced too.  ``methods`` holds
        ``(span name, class, attribute, measure)``.
        """
        self._stack = [[-1, -1, 0]]
        self._next_id = itertools.count()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "consensuslab" or name.startswith("consensuslab."))]
        for name, module, attr, measure in functions:
            original = getattr(module, attr)
            wrapped = self._wrapper(name, original, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, original))
        for name, cls, attr, measure in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrapper(name, original, measure))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def totals(self, name: str) -> tuple:
        """(calls, total ns, self ns, summed measure) for one span name."""
        i = self._ids.get(name)
        if i is None:
            return 0, 0, 0, 0
        return self.calls[i], self.total_ns[i], self.self_ns[i], self.extra[i]

    def edge_calls(self, parent: str, child: str) -> int:
        p, c = self._ids.get(parent), self._ids.get(child)
        if p is None or c is None:
            return 0
        return self.edges[p, c]

    def dump(self, spans_path, table_path) -> None:
        """Write the kept spans and the per-name aggregates.

        The span file starts with one line holding the list of span names;
        each further line is ``[span id, parent span id, name index, start ns,
        end ns]``, with parent -1 for a span no traced span caused.
        """
        with open(spans_path, "w") as out:
            out.write(json.dumps(self.names) + "\n")
            s = self.spans
            for k in range(0, len(s), 5):
                out.write(json.dumps(s[k:k + 5].tolist()) + "\n")
        table = {
            "kept_spans": len(self.spans) // 5,
            "names": {
                name: {"calls": self.calls[i], "total_ns": self.total_ns[i],
                       "self_ns": self.self_ns[i], "measure": self.extra[i]}
                for i, name in enumerate(self.names)
            },
            "edges": [
                {"parent": self.names[p] if p >= 0 else None, "child": self.names[c], "calls": n}
                for (p, c), n in sorted(self.edges.items())
            ],
        }
        with open(table_path, "w") as out:
            json.dump(table, out, indent=1, sort_keys=True)
