"""Span recording: timed regions, aggregated as they close.

A span is a ``with``-block timed via :mod:`repro.obs.clock`.  When it
closes it does two things:

* folds its duration into a per-name table (``count`` / ``total_us``
  / ``self_us`` / ``max_us``).  The buffer keeps a stack of open
  spans, so a closing span charges its duration to its direct parent's
  child time, and ``self_us`` is its duration minus its direct
  children's;
* buffers a dict already shaped like a Chrome trace-event complete
  event (``ph="X"``, microsecond ``ts``/``dur``) minus the ``pid``,
  which the campaign runner assigns at merge time (one pid per worker
  process).

The event buffer is bounded: past :data:`MAX_EVENTS` the recorder
counts drops instead of growing without limit, so tracing a
pathological run degrades into a truncated (but loadable) timeline
rather than an OOM.  The per-name table is not bounded by it: it
counts every span, dropped or not.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import clock

#: Per-cell span cap; beyond this, events are dropped (and counted).
MAX_EVENTS = 200_000


class TraceBuffer:
    """Bounded in-process buffer of trace-event dicts, plus the
    per-name aggregate of every span closed since the last reset."""

    def __init__(self, max_events: int = MAX_EVENTS):
        self.max_events = max_events
        self.events: List[Dict] = []
        self.dropped = 0
        #: Open spans, innermost last.
        self.stack: List["Span"] = []
        #: name -> [count, total_ns, self_ns, max_ns]
        self.table: Dict[str, List[int]] = {}

    def record(self, event: Dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def close(self, span: "Span", end_ns: int) -> None:
        """Pop ``span``, charge it to its parent, fold it into the table."""
        stack = self.stack
        if stack and stack[-1] is span:
            stack.pop()
        dur_ns = max(end_ns - span.start_ns, 0)
        if stack:
            stack[-1].child_ns += dur_ns
        self_ns = max(dur_ns - span.child_ns, 0)
        entry = self.table.get(span.name)
        if entry is None:
            self.table[span.name] = [1, dur_ns, self_ns, dur_ns]
        else:
            entry[0] += 1
            entry[1] += dur_ns
            entry[2] += self_ns
            if dur_ns > entry[3]:
                entry[3] = dur_ns
        self.record(complete_event(span.name, span.start_ns, end_ns, span.args))

    def span_table(self) -> Optional[Dict[str, Dict]]:
        """JSON-ready per-name aggregate, sorted by name; ``None`` when
        no span closed."""
        if not self.table:
            return None
        return {
            name: {
                "count": count,
                "total_us": total_ns / 1e3,
                "self_us": self_ns / 1e3,
                "max_us": max_ns / 1e3,
            }
            for name, (count, total_ns, self_ns, max_ns) in sorted(self.table.items())
        }

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
        self.stack.clear()
        self.table.clear()


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

    __slots__ = ("name", "args", "buffer", "start_ns", "child_ns")

    def __init__(self, name: str, buffer: TraceBuffer, args: Optional[Dict] = None):
        self.name = name
        self.args = args
        self.buffer = buffer
        self.start_ns = 0
        self.child_ns = 0

    def __enter__(self) -> "Span":
        self.buffer.stack.append(self)
        self.start_ns = clock.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.buffer.close(self, clock.perf_counter_ns())
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
