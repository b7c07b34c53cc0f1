"""Ranked burn-down worklists for ``repro lint --des``/``--dim --worklist``.

:func:`load_profile` flattens a run manifest (or any BENCH_*.json) into
dotted numeric metrics, and :func:`build_worklist` groups a pass's
findings per enclosing function and ranks them by the measured hotness
of every module reachable from that function through the call graph.
:func:`render_worklist` prints the result.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.engine import Finding
from repro.lint.flow.callgraph import CallGraph


def load_profile(path: pathlib.Path) -> Dict[str, float]:
    """Flatten a run manifest / metrics snapshot / BENCH json to metrics.

    Three shapes are recognized:

    * a **campaign run manifest** (``schema_version`` + ``campaign``):
      only its deterministic sections contribute — merged metrics,
      profile handler call counts, and span counts.  Wall-time fields
      are dropped so the hotness ranking is itself deterministic.
    * a **benchmark-result document** (:mod:`repro.obs.bench` schema):
      entries flatten to ``bench.<suite>.<name>``.
    * anything else: every numeric leaf becomes a dotted key
      (``counters.phy.raytracing.traces``).  Histograms contribute
      their counts; booleans are skipped.

    Raises ``ValueError`` on unreadable input so the CLI can exit 2.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable profile {path}: {exc}") from None
    flat: Dict[str, float] = {}
    from repro.obs.bench import is_bench_doc

    if is_bench_doc(data):
        suite = data["suite"]
        for entry in data["entries"]:
            if isinstance(entry, dict) and isinstance(
                entry.get("value"), (int, float)
            ):
                key = f"bench.{suite}.{entry.get('name')}"
                flat[key] = flat.get(key, 0.0) + float(entry["value"])
        return flat
    if isinstance(data, dict) and "schema_version" in data and "campaign" in data:
        _flatten_numeric(data.get("metrics") or {}, "", flat)
        profile = data.get("profile") or {}
        for name, stats in (profile.get("handlers") or {}).items():
            flat[f"profile.handlers.{name}.calls"] = float(stats.get("calls", 0))
        for name, stats in (profile.get("spans") or {}).items():
            flat[f"profile.spans.{name}.count"] = float(stats.get("count", 0))
        return flat
    _flatten_numeric(data, "", flat)
    return flat


def _flatten_numeric(value: object, prefix: str, out: Dict[str, float]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = out.get(prefix, 0.0) + float(value)
        return
    if isinstance(value, dict):
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten_numeric(value[key], sub, out)
    elif isinstance(value, list):
        for item in value:
            _flatten_numeric(item, prefix, out)


def _metric_tail(module: str) -> str:
    """``repro.phy.raytracing`` -> ``phy.raytracing`` (obs counter prefix)."""
    if module.startswith("repro."):
        return module.split(".", 1)[1]
    return module


def _tail_hotness(tail: str, profile: Dict[str, float]) -> float:
    needle = f".{tail}."
    total = 0.0
    for key, value in profile.items():
        if needle in f".{key}.":
            total += value
    return total


@dataclass
class WorklistEntry:
    """One ranked worklist target: a function's grouped findings."""

    path: str
    line: int
    context: str  #: enclosing function qualname
    codes: Dict[str, int] = field(default_factory=dict)
    hotness: float = 0.0
    share: float = 0.0
    messages: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "context": self.context,
            "codes": dict(sorted(self.codes.items())),
            "hotness": round(self.hotness, 6),
            "share": round(self.share, 6),
        }


def build_worklist(
    findings: Iterable[Finding],
    graph: Optional[CallGraph] = None,
    profile: Optional[Dict[str, float]] = None,
    modules_by_path: Optional[Dict[str, str]] = None,
    module_of_function: Optional[Dict[str, str]] = None,
    *,
    codes: frozenset,
) -> List[WorklistEntry]:
    """Rank eligible findings into a burn-down worklist.

    ``codes`` selects the eligible rule codes: the DES-time set for
    ``--des``, the unit-scale set for ``--dim``, or their union.

    Hotness of an entry is the profile mass (summed numeric metrics)
    of its own module plus every module reachable from the enclosing
    function through the call graph; entries in the same function
    merge.  Ordering is deterministic: hotness desc, then path, line,
    context — the same findings and the same profile always produce
    the same list.
    """
    profile = profile or {}
    grouped: Dict[Tuple[str, str], WorklistEntry] = {}
    for finding in findings:
        if finding.code not in codes:
            continue
        key = (finding.path, finding.context)
        entry = grouped.get(key)
        if entry is None:
            entry = WorklistEntry(
                path=finding.path, line=finding.line, context=finding.context
            )
            grouped[key] = entry
        entry.line = min(entry.line, finding.line)
        entry.codes[finding.code] = entry.codes.get(finding.code, 0) + 1
    entries = list(grouped.values())
    module_of_function = module_of_function or {}
    if profile:
        for entry in entries:
            modules = [_module_of_path(entry.path, modules_by_path)]
            if graph is not None and entry.context:
                for callee in graph.reachable_from(entry.context):
                    modules.append(
                        module_of_function.get(callee, callee.rsplit(".", 2)[0])
                    )
            tails = sorted({_metric_tail(m) for m in modules if m})
            entry.hotness = sum(_tail_hotness(t, profile) for t in tails)
        total = sum(e.hotness for e in entries)
        if total > 0:
            for entry in entries:
                entry.share = entry.hotness / total
    entries.sort(key=lambda e: (-e.hotness, e.path, e.line, e.context))
    return entries


def _module_of_path(rel_path: str, modules_by_path: Optional[Dict[str, str]]) -> str:
    if modules_by_path and rel_path in modules_by_path:
        return modules_by_path[rel_path]
    parts = pathlib.PurePosixPath(rel_path).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def render_worklist(
    entries: List[WorklistEntry],
    profile_path: Optional[str] = None,
    *,
    title: str,
) -> str:
    """Human-readable worklist table for ``--des``/``--dim --worklist``."""
    header = (
        f"{title} worklist ({len(entries)} entr"
        f"{'y' if len(entries) == 1 else 'ies'}, "
        f"profile: {profile_path or 'none'})"
    )
    lines = [header]
    for rank, entry in enumerate(entries, start=1):
        codes = ", ".join(
            f"{code} x{count}" if count > 1 else code
            for code, count in sorted(entry.codes.items())
        )
        share = f"{100.0 * entry.share:5.1f}%" if entry.share else "    -"
        lines.append(
            f"{rank:3d}. [{share}] {entry.path}:{entry.line} "
            f"{entry.context}  ({codes})"
        )
    return "\n".join(lines)
