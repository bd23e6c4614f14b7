"""In-memory span recorder for the benchmark's traced run.

A span is one timed call into a layer: its name, start, end and the
span that was open when it began. Spans live in memory and are written
out once, when the benchmark ends. Every span of one workload run
carries that run's id.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Records nested spans of one workload run (single-threaded)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record: Dict[str, object] = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Summed wall time of every span called *name*."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def span(tracer: Optional[Tracer], name: str):
    """A span on *tracer*, or nothing when tracing is off."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def self_times(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Per span name: duration minus the part covered by child spans.

    Children of one parent never overlap (spans are recorded from one
    thread), so the covered part is the sum of the children's durations.
    """
    covered: Dict[Tuple[str, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            covered[key] = covered.get(key, 0.0) + s["end"] - s["start"]
    totals: Dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get((s["run"], s["id"]), 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals
