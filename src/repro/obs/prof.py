"""Deterministic profiling: handler attribution, profile merging, run diffing.

This module is the measurement backbone for the perf work in ROADMAP
items 1-2 ("profile with the new obs spans, then restructure").  It
adds three things on top of the raw span/metric recorders:

* **Per-event-type attribution** — :class:`ProfileAccumulator` collects
  (calls, total wall-time) per DES handler qualname.  The simulator
  feeds it behind the usual ``obs.STATE`` cheap guard, so the disabled
  path stays one attribute load.
* **Profile merging** — :func:`merge_profile` folds per-cell handler
  tables and span tables (self vs child time, charged as each span
  closes by :class:`~repro.obs.trace.TraceBuffer`) into the manifest's
  ``profile`` section.
* **Run diffing** — :func:`diff_manifests` compares two run manifests
  field by field with stable ordering and signed deltas.

Determinism contract: every *count-derived* field (handler calls, span
counts, metric counters, scenario totals) is identical across repeated
runs and across ``workers=1`` vs ``workers=N``.  Time fields are
measurements and legitimately vary; :func:`strip_time_fields` projects
them away, and :func:`profile_digest` / the diff digest hash only the
count-derived remainder.  ``repro campaign verify`` runs with
profiling enabled and asserts the digest equality.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

#: Keys that hold measured wall time — excluded from every determinism
#: digest (they vary run to run; the counts around them must not).
TIME_FIELDS = frozenset(
    {"total_ns", "total_us", "total_ms", "self_us", "self_ms", "mean_us", "max_us"}
)


def handler_qualname(callback) -> str:
    """Stable attribution name for a DES event callback.

    Bound methods and closures carry ``__qualname__`` (e.g.
    ``Medium.transmit.<locals>.finish``); ``functools.partial`` exposes
    the wrapped function; anything else falls back to its type name.
    """
    name = getattr(callback, "__qualname__", "")
    if name:
        return name
    func = getattr(callback, "func", None)
    if func is not None:
        inner = getattr(func, "__qualname__", "")
        if inner:
            return f"partial({inner})"
    return type(callback).__name__


class ProfileAccumulator:
    """Per-handler (calls, total wall-time) attribution store.

    The recording path is two dict operations — cheap enough to run
    per DES event when profiling is on, and exactly zero cost when the
    simulator's ``obs.STATE.profiling`` guard is off.
    """

    __slots__ = ("_handlers",)

    def __init__(self) -> None:
        self._handlers: Dict[str, List[int]] = {}

    def record(self, name: str, elapsed_ns: int) -> None:
        entry = self._handlers.get(name)
        if entry is None:
            self._handlers[name] = [1, int(elapsed_ns)]
        else:
            entry[0] += 1
            entry[1] += int(elapsed_ns)

    def snapshot(self) -> Optional[Dict]:
        """JSON-ready snapshot with sorted handler names; ``None`` when
        nothing was recorded."""
        if not self._handlers:
            return None
        return {
            "handlers": {
                name: {"calls": calls, "total_ns": total_ns}
                for name, (calls, total_ns) in sorted(self._handlers.items())
            }
        }

    def reset(self) -> None:
        self._handlers.clear()


def merge_profile(base: Dict, snap: Optional[Dict]) -> Dict:
    """Fold one cell's profile snapshot into an aggregate, in place.

    Calls/counts are integer addition (order-independent); the time
    fields are float addition, so callers that need bit-stable sums
    merge in a fixed canonical order (the campaign runner merges in
    expansion order, exactly like metrics).
    """
    if not snap:
        return base
    for name, data in (snap.get("handlers") or {}).items():
        entry = base.setdefault("handlers", {}).setdefault(
            name, {"calls": 0, "total_ns": 0}
        )
        entry["calls"] += int(data["calls"])
        entry["total_ns"] += int(data["total_ns"])
    for name, data in (snap.get("spans") or {}).items():
        entry = base.setdefault("spans", {}).setdefault(
            name, {"count": 0, "total_us": 0.0, "self_us": 0.0, "max_us": 0.0}
        )
        entry["count"] += int(data["count"])
        entry["total_us"] += float(data["total_us"])
        entry["self_us"] += float(data["self_us"])
        entry["max_us"] = max(entry["max_us"], float(data["max_us"]))
    return base


# -- determinism projection ----------------------------------------------------


def strip_time_fields(value):
    """Recursively drop measured-time keys, keeping count-derived data."""
    if isinstance(value, dict):
        return {
            key: strip_time_fields(sub)
            for key, sub in value.items()
            if key not in TIME_FIELDS
        }
    if isinstance(value, list):
        return [strip_time_fields(item) for item in value]
    return value


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def profile_digest(profile: Optional[Dict]) -> str:
    """Digest of a profile's count-derived fields only."""
    return _digest(strip_time_fields(profile or {}))


# -- `repro obs diff` ----------------------------------------------------------

#: Render/sort order of diff sections.
_SECTION_ORDER = (
    "scenarios",
    "des",
    "timing",
    "counters",
    "gauges",
    "histograms",
    "profile",
    "spans",
)


def _num(value) -> float:
    if isinstance(value, bool) or value is None:
        return 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return 0.0


def _diff_rows(section: str, a: Dict, b: Dict, counted) -> List[Dict]:
    rows = []
    for name in sorted(set(a) | set(b)):
        av, bv = _num(a.get(name)), _num(b.get(name))
        rows.append(
            {
                "section": section,
                "name": name,
                "a": av,
                "b": bv,
                "delta": bv - av,
                "counted": counted(name) if callable(counted) else counted,
            }
        )
    return rows


def diff_manifests(a: Dict, b: Dict) -> Dict:
    """Structured field-by-field comparison of two run manifests.

    Missing fields compare as 0 (an absent counter never fired).  The
    ``digest`` covers count-derived rows only — scenario totals, DES
    event counts, metric counters/gauges, histogram observation
    counts, handler calls, span counts — never the timing rows.
    """
    rows: List[Dict] = []
    rows += _diff_rows("scenarios", a.get("scenarios") or {}, b.get("scenarios") or {}, True)
    rows += _diff_rows(
        "des",
        a.get("des") or {},
        b.get("des") or {},
        lambda name: name == "events_simulated",
    )
    rows += _diff_rows("timing", a.get("timing") or {}, b.get("timing") or {}, False)

    metrics_a, metrics_b = a.get("metrics") or {}, b.get("metrics") or {}
    rows += _diff_rows(
        "counters", metrics_a.get("counters") or {}, metrics_b.get("counters") or {}, True
    )
    rows += _diff_rows(
        "gauges", metrics_a.get("gauges") or {}, metrics_b.get("gauges") or {}, True
    )
    rows += _diff_rows(
        "histograms",
        {
            f"{name}.count": data.get("count", 0)
            for name, data in (metrics_a.get("histograms") or {}).items()
        },
        {
            f"{name}.count": data.get("count", 0)
            for name, data in (metrics_b.get("histograms") or {}).items()
        },
        True,
    )

    profile_a, profile_b = a.get("profile") or {}, b.get("profile") or {}
    rows += _diff_rows(
        "profile",
        {
            f"{name}.calls": data.get("calls", 0)
            for name, data in (profile_a.get("handlers") or {}).items()
        },
        {
            f"{name}.calls": data.get("calls", 0)
            for name, data in (profile_b.get("handlers") or {}).items()
        },
        True,
    )
    rows += _diff_rows(
        "spans",
        {
            f"{name}.count": data.get("count", 0)
            for name, data in (profile_a.get("spans") or {}).items()
        },
        {
            f"{name}.count": data.get("count", 0)
            for name, data in (profile_b.get("spans") or {}).items()
        },
        True,
    )

    order = {section: i for i, section in enumerate(_SECTION_ORDER)}
    rows.sort(key=lambda r: (order.get(r["section"], len(order)), r["name"]))
    counted = [
        (r["section"], r["name"], r["a"], r["b"], r["delta"])
        for r in rows
        if r["counted"]
    ]
    return {
        "campaign_a": a.get("campaign", "?"),
        "campaign_b": b.get("campaign", "?"),
        "rows": rows,
        "compared": len(rows),
        "changed": sum(1 for r in rows if r["delta"] != 0.0),
        "counted_changed": sum(1 for r in counted if r[4] != 0.0),
        "digest": _digest(counted),
    }


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.4f}"


def _fmt_delta(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):+,}"
    return f"{value:+,.4f}"


def render_diff(diff: Dict, show_all: bool = False) -> str:
    """Terminal table for ``repro obs diff``: stable order, signed deltas."""
    lines = [
        f"diff {diff['campaign_a']} (a) vs {diff['campaign_b']} (b)",
        f"  {'section':<10} {'name':<48} {'a':>14} {'b':>14} {'delta':>12}",
    ]
    for row in diff["rows"]:
        if not show_all and row["delta"] == 0.0:
            continue
        marker = "" if row["counted"] else "  (time)"
        lines.append(
            f"  {row['section']:<10} {row['name']:<48} "
            f"{_fmt(row['a']):>14} {_fmt(row['b']):>14} "
            f"{_fmt_delta(row['delta']):>12}{marker}"
        )
    lines.append(
        f"diff digest: {diff['digest']} (count-derived fields); "
        f"{diff['compared']} field(s) compared, {diff['changed']} differ, "
        f"{diff['counted_changed']} count-derived differ"
    )
    return "\n".join(lines)


__all__ = [
    "TIME_FIELDS",
    "ProfileAccumulator",
    "diff_manifests",
    "handler_qualname",
    "merge_profile",
    "profile_digest",
    "render_diff",
    "strip_time_fields",
]
