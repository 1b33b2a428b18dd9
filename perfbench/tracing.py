"""In-memory span recorder for the benchmark's traced run.

A span is opened around each call the benchmark makes into a public
pairpois function (and around the benchmark's own passes and jobs, which
become the parents of those calls).  Spans stay in memory until the run
ends; :meth:`Tracer.export` then adds each span's self time, which is its
duration minus the part of it covered by its direct children.

With tracing off, :meth:`Tracer.span` hands back one shared no-op context
manager, so untraced passes pay only a method call per span site.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    id: int
    name: str
    layer: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans: name, layer, job id, parent, start and end."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, layer: str, job: str = ""):
        if not self.enabled:
            return _NULL
        return self._record(name, layer, job)

    @contextlib.contextmanager
    def _record(self, name: str, layer: str, job: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            layer=layer,
            job=job or (parent.job if parent else ""),
            parent=parent.id if parent else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; the layer is the
        name's first dotted component (the pairpois module)."""
        with self.span(name, name.split(".", 1)[0]):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        """Durations of every finished span with this name, in order."""
        return [s.duration for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        return span.duration - sum(c.duration for c in span.children)

    def self_by_layer(self, job_prefix: str = "") -> dict[str, float]:
        """Total self time per layer over spans whose job id starts with
        ``job_prefix``."""
        totals: dict[str, float] = {}
        for s in self.spans:
            if s.job.startswith(job_prefix):
                totals[s.layer] = totals.get(s.layer, 0.0) + self.self_time(s)
        return totals

    def export(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "id": s.id,
                "name": s.name,
                "layer": s.layer,
                "job": s.job,
                "parent": s.parent,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "duration_s": s.duration,
                "self_s": self.self_time(s),
            }
            for s in self.spans
        ]
