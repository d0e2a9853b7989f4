"""In-memory spans recorded around the benchmark's calls into each layer."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans of one traced run; `workload` ties them to their run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(sid, name, time.perf_counter(), 0.0, parent, self.workload)
        self.spans.append(span)
        self._open.append(sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name, summed duration minus the part child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration - covered[s.id]
        return out

    def child_time(self, span: Span) -> float:
        """Part of the span covered by its direct children."""
        return sum(s.duration for s in self.spans if s.parent == span.id)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(asdict(s)) + "\n" for s in self.spans))


def span_cost(samples: int = 2000) -> float:
    """Seconds one empty span costs to record, measured in this process."""
    tracer = Tracer("calibration")
    started = time.perf_counter()
    for _ in range(samples):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - started) / samples
