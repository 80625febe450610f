"""In-memory spans and counters around calls into itirel's modules.

A span wraps a public function where the calling module looks it up (for
example ``itirel.serialize.extract_nary``, which ``build_document`` calls),
so the program itself is not changed.  Spans nest through a stack; a span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span named
        ``name`` and then calls ``count(counts, args, result)``."""
        fn = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        self._patch(module, attr, wrapper)

    def count_calls(self, module, attr: str, key: str) -> None:
        """Replace ``module.attr`` by a wrapper that only counts calls."""
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def _patch(self, module, attr, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def summary(self, op, start: int = 0
                ) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name, over the spans of ``op``
        recorded from index ``start`` on."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, int] = defaultdict(int)
        mine = [(i, s) for i, s in enumerate(self.spans[start:], start)
                if s[4] == op]
        for _, (_, t0, t1, parent, _) in mine:
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in mine:
            total[name] += (t1 - t0) / 1e9
            own[name] += (t1 - t0 - child[i]) / 1e9
        return dict(total), dict(own)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")
