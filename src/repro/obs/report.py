"""``repro obs report``: the one viewer of a campaign run directory.

The report renders everything from the run manifest: the merged
metrics, the DES handler table and the span table (count / total /
self / mean / max, aggregated as each span closed) of the ``profile``
section, and the profile's count-derived digest.  When the run was
traced, it also checks ``trace.json`` against
:func:`~repro.obs.export.validate_trace`: the problems it finds make
the report exit 1, and a buffer overflow shows as a "timeline
truncated" note.  The tables do not depend on the trace file, so they
stay exact when the timeline is truncated.  ``--json`` emits the same
data as a byte-deterministic document instead of the tables.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

from repro.obs.export import TRACE_FILENAME, read_trace, validate_trace
from repro.obs.prof import profile_digest

PathLike = Union[str, pathlib.Path]


def dropped_span_count(trace_doc: Optional[Dict]) -> int:
    """Total spans the TraceBuffer dropped, from its counter events."""
    if not trace_doc:
        return 0
    total = 0
    for event in trace_doc.get("traceEvents", []):
        if event.get("ph") == "C" and event.get("name") == "obs.dropped_spans":
            total += int((event.get("args") or {}).get("dropped", 0))
    return total


def handler_rows(profile: Optional[Dict]) -> List[Dict]:
    """Handler table rows ordered by ``(-calls, name)``.

    The order is count-derived, so it is the same run to run even
    though the time columns are measurements.  ``share`` is the
    handler's fraction of the summed handler time.
    """
    handlers = (profile or {}).get("handlers") or {}
    total_ns = sum(data["total_ns"] for data in handlers.values())
    return [
        {
            "name": name,
            "calls": handlers[name]["calls"],
            "total_ms": handlers[name]["total_ns"] / 1e6,
            "share": handlers[name]["total_ns"] / total_ns if total_ns else 0.0,
        }
        for name in sorted(handlers, key=lambda n: (-handlers[n]["calls"], n))
    ]


def span_rows(profile: Optional[Dict]) -> List[Dict]:
    """Span table rows ordered by ``(-count, name)``."""
    spans = (profile or {}).get("spans") or {}
    return [
        {
            "name": name,
            "count": spans[name]["count"],
            "total_ms": spans[name]["total_us"] / 1e3,
            "self_ms": spans[name]["self_us"] / 1e3,
            "mean_us": spans[name]["total_us"] / spans[name]["count"],
            "max_us": spans[name]["max_us"],
        }
        for name in sorted(spans, key=lambda n: (-spans[n]["count"], n))
    ]


def check_trace(run_dir: PathLike, manifest: Dict) -> Optional[Dict]:
    """Validate a run's trace file; ``None`` when the run has none.

    Returns ``{"file", "events", "dropped_spans", "problems"}``; a
    file that is not JSON is one problem, not an exception.
    """
    name = manifest.get("spans_file") or TRACE_FILENAME
    path = pathlib.Path(run_dir) / name
    if not path.is_file():
        return None
    try:
        doc = read_trace(path)
    except ValueError as exc:
        return {"file": name, "events": 0, "dropped_spans": 0,
                "problems": [f"{name} is not JSON: {exc}"]}
    problems = validate_trace(doc)
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    return {
        "file": name,
        "events": len(events) if isinstance(events, list) else 0,
        "dropped_spans": 0 if problems else dropped_span_count(doc),
        "problems": problems,
    }


def report_doc(manifest: Dict, trace: Optional[Dict] = None) -> Dict:
    """Machine-readable report (``repro obs report --json``).

    Contains everything the text report renders, keyed and typed for
    tooling; ``trace`` is :func:`check_trace`'s result.  Serialization
    with ``sort_keys=True`` is byte-identical across repeated
    invocations on the same run directory.
    """
    profile = manifest.get("profile")
    return {
        "campaign": manifest.get("campaign"),
        "schema_version": manifest.get("schema_version"),
        "workers": manifest.get("workers"),
        "scenarios": manifest.get("scenarios"),
        "timing": manifest.get("timing"),
        "des": manifest.get("des"),
        "metrics": manifest.get("metrics"),
        "profile_digest": profile_digest(profile),
        "handlers": handler_rows(profile),
        "spans": span_rows(profile),
        "trace": trace,
    }


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:,.3f}"


def render_metrics(metrics: Optional[Dict]) -> List[str]:
    if not metrics:
        return ["  (no metrics recorded)"]
    lines: List[str] = []
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    width = max((len(n) for n in [*counters, *gauges, *histograms]), default=0)
    for name in sorted(counters):
        lines.append(f"  {name:<{width}}  {_format_value(counters[name])}")
    for name in sorted(gauges):
        lines.append(f"  {name:<{width}}  {_format_value(gauges[name])} (gauge)")
    for name in sorted(histograms):
        hist = histograms[name]
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        lines.append(
            f"  {name:<{width}}  n={hist['count']:,} mean={mean:,.2f} "
            f"buckets={hist['counts']}"
        )
    return lines


def render_report(doc: Dict) -> str:
    """Terminal report for ``repro obs report`` from :func:`report_doc`."""
    scenarios = doc.get("scenarios") or {}
    timing = doc.get("timing") or {}
    lines = [
        f"campaign {doc.get('campaign') or '?'} "
        f"({scenarios.get('total', 0)} scenario(s), "
        f"workers={doc.get('workers') or '?'}, "
        f"wall {timing.get('wall_clock_s', 0.0):.2f} s)",
        "metrics:",
        *render_metrics(doc.get("metrics")),
        f"profile digest: {doc['profile_digest']} (count-derived fields)",
    ]
    if doc["handlers"]:
        width = max(4, *(len(row["name"]) for row in doc["handlers"]))
        lines.append("event handlers (wall time per handler qualname):")
        lines.append(f"  {'name':<{width}} {'calls':>9} {'total ms':>10} {'% run':>6}")
        for row in doc["handlers"]:
            lines.append(
                f"  {row['name']:<{width}} {row['calls']:>9,} "
                f"{row['total_ms']:>10.2f} {row['share'] * 100:>5.1f}%"
            )
    else:
        lines.append("event handlers: (none recorded; run with --profile)")
    if doc["spans"]:
        width = max(4, *(len(row["name"]) for row in doc["spans"]))
        lines.append("spans (self vs child time):")
        lines.append(
            f"  {'name':<{width}} {'count':>8} {'total ms':>10} {'self ms':>10} "
            f"{'mean us':>10} {'max us':>10}"
        )
        for row in doc["spans"]:
            lines.append(
                f"  {row['name']:<{width}} {row['count']:>8,} "
                f"{row['total_ms']:>10.2f} {row['self_ms']:>10.2f} "
                f"{row['mean_us']:>10.1f} {row['max_us']:>10.1f}"
            )
    else:
        lines.append("spans: (none recorded; run with --trace)")
    trace = doc.get("trace")
    if trace is None:
        lines.append("trace: no trace.json in run directory")
    elif trace["problems"]:
        lines.append(
            f"trace: {trace['file']} INVALID ({len(trace['problems'])} problem(s))"
        )
    else:
        lines.append(f"trace: {trace['file']} valid ({trace['events']:,} events)")
        if trace["dropped_spans"]:
            lines.append(
                f"timeline truncated, {trace['dropped_spans']:,} spans dropped "
                "(the span table still counts them)"
            )
    return "\n".join(lines)


def render_report_json(doc: Dict) -> str:
    """Canonical JSON rendering of :func:`report_doc`."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report_run(run_dir: PathLike, manifest: Dict) -> Dict:
    """The report document of a run directory with its loaded ``manifest``."""
    return report_doc(manifest, check_trace(run_dir, manifest))


__all__ = [
    "check_trace",
    "dropped_span_count",
    "handler_rows",
    "render_metrics",
    "render_report",
    "render_report_json",
    "report_doc",
    "report_run",
    "span_rows",
]
