"""Chrome trace-event JSON export (Perfetto / chrome://tracing).

The export format is the JSON *object* flavor of the trace-event
spec: ``{"traceEvents": [...], "displayTimeUnit": "ms", ...}``.  Each
span is a complete event (``ph="X"``) with microsecond ``ts``/``dur``;
process-name metadata events (``ph="M"``) label pid 0 as the campaign
parent and pids 1..N as the timelines of the worker processes that ran
cells.

:func:`validate_trace` is the exporter schema the CI smoke test
checks emitted traces against — it returns a list of human-readable
problems (empty means valid Perfetto input).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Union

PathLike = Union[str, pathlib.Path]

TRACE_FILENAME = "trace.json"

#: Event types the exporter emits (complete span, counter, metadata).
_KNOWN_PHASES = ("X", "C", "M")


def build_trace_doc(events: List[Dict], label: str = "") -> Dict:
    """Wrap raw events in a Perfetto-loadable trace-event document.

    Adds ``process_name`` metadata for every pid present so the
    Perfetto UI shows "campaign" / "worker N" track groups instead of
    bare pids.
    """
    events = [dict(e) for e in events]
    for event in events:
        event.setdefault("pid", 0)
        event.setdefault("tid", 0)
    pids = sorted({int(e["pid"]) for e in events})
    metadata = []
    for pid in pids:
        name = "campaign" if pid == 0 else f"worker {pid}"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    doc = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
    }
    if label:
        doc["otherData"] = {"campaign": label}
    return doc


def validate_trace(doc: Dict) -> List[str]:
    """Check a trace document against the exporter schema.

    Returns a list of problems; an empty list means the document is
    well-formed Perfetto input.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"trace document must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing event name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid must be an int")
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: tid must be an int")
        if phase in ("X", "C"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: ts must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
        if phase == "M" and event.get("name") == "process_name":
            args = event.get("args", {})
            if not isinstance(args, dict) or "name" not in args:
                problems.append(f"{where}: process_name metadata missing args.name")
        if len(problems) >= 50:
            problems.append("... (truncated)")
            break
    return problems


def write_trace(path: PathLike, events: List[Dict], label: str = "") -> pathlib.Path:
    """Write a trace-event JSON file; returns the path written."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = build_trace_doc(events, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return path


def read_trace(path: PathLike) -> Dict:
    """Load a trace-event JSON document written by :func:`write_trace`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


__all__ = [
    "TRACE_FILENAME",
    "build_trace_doc",
    "read_trace",
    "validate_trace",
    "write_trace",
]
