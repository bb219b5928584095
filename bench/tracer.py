"""Outside-in span tracer for the benchmark.

Spans are recorded by *wrapping* public entry points of the program --
methods on instances and classes, functions bound in a module's
namespace -- from the benchmark's own files; nothing under ``src/`` is
edited.  A span is ``(name, layer, start, end, parent, window)``; spans
live in memory and are written out once, when the run ends, as JSONL
and as a Chrome trace (``chrome://tracing`` / Perfetto).

Everything runs in one thread, so spans nest strictly: a span's *self
time* is its duration minus the durations of its direct children, and
the self times of all spans under a root add up to the root's duration
exactly.  That identity is what lets the per-layer table be reconciled
against the end-to-end step time.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed call: who ran, for which layer, under which parent."""

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    window: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds between entry and exit."""
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables and restores them after.

    ``wrap`` replaces ``owner.attr`` by a recording wrapper and
    remembers how to undo it; ``unwrap_all`` puts every original back
    (an attribute that only existed on the class is *deleted* from the
    instance again, so untraced objects are left exactly as found).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.window = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- wrapping --------------------------------------------------------
    def begin(self, name: str, layer: str) -> Span:
        """Open a span under the innermost open one."""
        span = Span(name, layer, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else -1,
                    window=self.window)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close the innermost open span."""
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, layer: str,
             after=None, proxy=None, static: bool = False) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``owner`` is an instance, a class or a module.  ``after(result,
        span, args, kwargs)`` runs once the call returned, to pull
        counts out of results (Krylov iterations, backend stats);
        ``proxy(result)`` substitutes the returned object (used to time
        the products of a returned CSR matrix).  ``static`` keeps a
        class-level callable unbound (classmethods).
        """
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(result, span, args, kwargs)
            return result if proxy is None else proxy(result)

        self._install(owner, attr, staticmethod(wrapper) if static
                      else wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` under ``key`` (no span)."""
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        self._install(owner, attr, wrapper)

    def _install(self, owner, attr: str, replacement) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Undo every ``wrap``/``count``, newest first."""
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap_all()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def totals(self, window: int | None = None) -> dict[str, dict]:
        """``name -> {calls, total_s, self_s, layer}`` over one window
        (all windows when ``None``)."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, selfs):
            if window is not None and s.window != window:
                continue
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "layer": s.layer})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += own
        return out

    def layer_self(self, window: int | None = None) -> dict[str, float]:
        """``layer -> self seconds`` over one window."""
        out: dict[str, float] = defaultdict(float)
        for row in self.totals(window).values():
            out[row["layer"]] += row["self_s"]
        return dict(out)

    # -- export ----------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "window": s.window, "args": s.args}) + "\n")

    def write_chrome(self, path, process: str = "bench") -> None:
        """Chrome-trace ``X`` events (microseconds from first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": process}}]
        for s in self.spans:
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": 1, "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"window": s.window, **s.args}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
