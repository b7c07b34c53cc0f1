"""Span recording: timed regions that become Chrome trace events.

A span is a ``with``-block timed via :mod:`repro.obs.clock` and
buffered as a dict already shaped like a Chrome trace-event complete
event (``ph="X"``, microsecond ``ts``/``dur``) minus the ``pid``,
which the campaign runner assigns at merge time (one pid per worker
process).

The buffer is bounded: past :data:`MAX_EVENTS` the recorder counts
drops instead of growing without limit, so tracing a pathological run
degrades into a truncated (but loadable) timeline rather than an OOM.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import clock

#: Per-cell span cap; beyond this, events are dropped (and counted).
MAX_EVENTS = 200_000


class TraceBuffer:
    """Bounded in-process buffer of trace-event dicts."""

    def __init__(self, max_events: int = MAX_EVENTS):
        self.max_events = max_events
        self.events: List[Dict] = []
        self.dropped = 0

    def record(self, event: Dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def drain(self) -> List[Dict]:
        events, self.events = self.events, []
        dropped, self.dropped = self.dropped, 0
        if dropped:
            events.append(
                {
                    "name": "obs.dropped_spans",
                    "cat": "obs",
                    "ph": "C",
                    "ts": events[-1]["ts"] if events else 0.0,
                    "tid": 0,
                    "args": {"dropped": dropped},
                }
            )
        return events

    def reset(self) -> None:
        self.events.clear()
        self.dropped = 0


def complete_event(
    name: str,
    start_ns: int,
    end_ns: int,
    args: Optional[Dict] = None,
    tid: int = 0,
) -> Dict:
    """Build a Chrome ``ph="X"`` complete event from clock-ns stamps."""
    event = {
        "name": name,
        "cat": name.split(".", 1)[0],
        "ph": "X",
        "ts": start_ns / 1e3,
        "dur": max(end_ns - start_ns, 0) / 1e3,
        "tid": tid,
    }
    if args:
        event["args"] = args
    return event


class Span:
    """A live span; created by :func:`repro.obs.span` when tracing."""

    __slots__ = ("name", "args", "buffer", "_start_ns")

    def __init__(self, name: str, buffer: TraceBuffer, args: Optional[Dict] = None):
        self.name = name
        self.args = args
        self.buffer = buffer
        self._start_ns = 0

    def __enter__(self) -> "Span":
        self._start_ns = clock.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.buffer.record(
            complete_event(
                self.name, self._start_ns, clock.perf_counter_ns(), self.args
            )
        )
        return False


class NoopSpan:
    """The disabled-path span: a shared, do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = NoopSpan()

__all__ = [
    "MAX_EVENTS",
    "NOOP_SPAN",
    "NoopSpan",
    "Span",
    "TraceBuffer",
    "complete_event",
]
