"""In-memory span tracer that wraps exindex functions where their callers bound them.

The benchmark never edits the package.  A traced run replaces a module
attribute (``harness.sweep``, ``biascorrect.corrected_estimate``, ...) with a
wrapper that records one span per call: name, start, end and the index of the
enclosing span.  Callers look these names up at call time, so every call made
through that binding is recorded, and ``Tracer.restore`` puts the originals
back.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def span(self, name, fn, on_result=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``on_result(tracer, name, result)`` runs after a successful call and may
        add counts derived from the returned value.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if on_result is not None:
                on_result(self, name, result)
            return result

        return traced

    def wrap(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` by its traced version until ``restore``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, on_result))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self, first=0):
        """Per span name: calls, busy seconds and self seconds of ``spans[first:]``.

        Busy time sums the span durations (no wrapped function calls another
        of the same name, so none is counted twice); self time is a span's
        duration minus the time its direct child spans cover (children of one
        span never overlap, because calls nest).  Pass the span count taken
        before a top-level call to summarize that call alone.
        """
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        for idx in range(first, len(self.spans)):
            name, start, end, parent = self.spans[idx]
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += (end - start) - child_time[idx]
        return out

    def dump(self, path, meta=None):
        """Write spans as JSON: a name table plus [name index, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "meta": meta or {},
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], round(a, 9), round(b, 9), p] for n, a, b, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
