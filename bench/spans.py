"""In-memory span recording around whisksim's layer boundaries.

A span is one call of a wrapped function: its name, start and end on the
perf_counter clock, the index of the span open when it started (its parent)
and optional work counts computed from the call's arguments and result.
Spans stay in memory until the process writes them out; this module never
imports whisksim, so the harness can aggregate spans without loading numpy.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Collects nested spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None):
        """`fn` wrapped so each call records a span; `counts(result, *args,
        **kwargs)` returns a dict of work counts for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter()}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, counts=None):
        """Replace `owner.attr` (the name a caller looks up) by a traced wrapper."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))


def aggregate(spans: list[dict]) -> dict:
    """Per span name: calls, busy_s (summed durations), self_s (durations
    minus the time covered by direct children) and summed work counts."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict] = {}
    for i, span in enumerate(spans):
        entry = totals.setdefault(span["name"], {"calls": 0, "busy_s": 0.0,
                                                 "self_s": 0.0, "counts": {}})
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_s[i]
        for key, value in span.get("counts", {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals
