"""Human-readable summary of a traced campaign run.

``repro obs report <run-dir>`` reads the run manifest (any supported
schema version) and, when present, the trace-event file, and renders
the metrics section plus a per-span-name aggregation (count / total /
mean / max) — the quick look you take before opening the full
timeline in Perfetto.  ``--json`` emits the same data as a
byte-deterministic machine-readable document instead of the table.

Dropped spans are surfaced loudly: when the
:class:`~repro.obs.trace.TraceBuffer` overflowed, every aggregate
below is an undercount, and a report that hid that would be lying.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

from repro.obs.export import TRACE_FILENAME, read_trace

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


def aggregate_spans(doc: Dict) -> List[Dict]:
    """Aggregate complete events by span name, slowest-total first."""
    stats: Dict[str, Dict] = {}
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        entry = stats.setdefault(
            event["name"], {"count": 0, "total_us": 0.0, "max_us": 0.0}
        )
        dur = float(event.get("dur", 0.0))
        entry["count"] += 1
        entry["total_us"] += dur
        entry["max_us"] = max(entry["max_us"], dur)
    rows = []
    for name in sorted(stats, key=lambda n: -stats[n]["total_us"]):
        entry = stats[name]
        rows.append(
            {
                "name": name,
                "count": entry["count"],
                "total_ms": entry["total_us"] / 1e3,
                "mean_us": entry["total_us"] / entry["count"],
                "max_us": entry["max_us"],
            }
        )
    return rows


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:,.3f}"


def render_metrics(metrics: Optional[Dict]) -> List[str]:
    lines: List[str] = []
    if not metrics:
        lines.append("  (no metrics recorded — run with --trace)")
        return lines
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


def render_report(manifest: Dict, trace_doc: Optional[Dict]) -> str:
    """Terminal report for ``repro obs report``."""
    scenarios = manifest.get("scenarios", {})
    timing = manifest.get("timing", {})
    lines = [
        f"campaign {manifest.get('campaign', '?')} "
        f"({scenarios.get('total', 0)} scenario(s), "
        f"workers={manifest.get('workers', '?')}, "
        f"wall {timing.get('wall_clock_s', 0.0):.2f} s)",
        "metrics:",
    ]
    lines.extend(render_metrics(manifest.get("metrics")))
    if trace_doc is not None:
        rows = aggregate_spans(trace_doc)
        lines.append("spans:")
        if not rows:
            lines.append("  (trace file contains no spans)")
        header = (
            f"  {'name':<32} {'count':>8} {'total ms':>10} "
            f"{'mean us':>10} {'max us':>10}"
        )
        if rows:
            lines.append(header)
        for row in rows:
            lines.append(
                f"  {row['name']:<32} {row['count']:>8,} "
                f"{row['total_ms']:>10.2f} {row['mean_us']:>10.1f} "
                f"{row['max_us']:>10.1f}"
            )
    else:
        lines.append("spans: (no trace.json in run directory)")
    dropped = dropped_span_count(trace_doc)
    if dropped:
        lines.append(
            f"WARNING: trace buffer dropped {dropped:,} span(s) — "
            "span aggregates above are undercounts"
        )
    profile = manifest.get("profile")
    if profile:
        handlers = len(profile.get("handlers") or {})
        span_names = len(profile.get("spans") or {})
        lines.append(
            f"profile: {handlers} handler(s), {span_names} span name(s) "
            "— see `repro obs top`"
        )
    return "\n".join(lines)


def report_doc(manifest: Dict, trace_doc: Optional[Dict]) -> Dict:
    """Machine-readable report document (``repro obs report --json``).

    Contains everything the text report renders — metrics, span
    aggregates, profile, dropped-span count — keyed and typed for
    tooling.  Serialization with ``sort_keys=True`` is byte-identical
    across repeated invocations on the same run directory.
    """
    return {
        "campaign": manifest.get("campaign"),
        "schema_version": manifest.get("schema_version"),
        "workers": manifest.get("workers"),
        "scenarios": manifest.get("scenarios"),
        "timing": manifest.get("timing"),
        "des": manifest.get("des"),
        "metrics": manifest.get("metrics"),
        "profile": manifest.get("profile"),
        "spans": aggregate_spans(trace_doc) if trace_doc is not None else None,
        "dropped_spans": dropped_span_count(trace_doc),
    }


def render_report_json(manifest: Dict, trace_doc: Optional[Dict]) -> str:
    """Canonical JSON rendering of :func:`report_doc`."""
    doc = report_doc(manifest, trace_doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report_run(run_dir: PathLike, manifest: Dict, as_json: bool = False) -> str:
    """Build the report for a run directory from its loaded ``manifest``
    and, when the run was traced, its trace file."""
    run_dir = pathlib.Path(run_dir)
    trace_path = run_dir / (manifest.get("spans_file") or TRACE_FILENAME)
    trace_doc = read_trace(trace_path) if trace_path.exists() else None
    if as_json:
        return render_report_json(manifest, trace_doc)
    return render_report(manifest, trace_doc)


__all__ = [
    "aggregate_spans",
    "dropped_span_count",
    "render_metrics",
    "render_report",
    "render_report_json",
    "report_doc",
    "report_run",
]
