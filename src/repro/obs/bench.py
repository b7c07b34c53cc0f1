"""Unified benchmark-result schema, trajectory report, regression gate.

ROADMAP items 1-2 ask that events/sec be "a first-class benchmark so
the perf trajectory is visible PR-over-PR".  Every
``benchmarks/test_perf_*.py`` emitter writes one
``benchmarks/results/BENCH_<suite>.json`` in this schema::

    {
      "schema_version": 1,
      "suite": "core",
      "entries": [
        {"name": "events_per_second", "value": 1234567.0,
         "unit": "events/s", "direction": "higher"},
        ...
      ]
    }

``direction`` declares which way is better: ``"higher"`` (throughput),
``"lower"`` (wall time), or ``"info"`` (context numbers that are never
regression-gated — machine-dependent micro-timings belong here).  An
optional per-entry ``"tolerance"`` overrides the gate's ratio.

Two CLI commands consume the files: ``repro obs bench report`` renders
the trajectory table across all suites, and ``repro obs bench check``
compares current results against a baseline directory with a
ratio-based tolerance — generous by default (CI machines vary wildly)
so only order-of-magnitude regressions fail the build.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

PathLike = Union[str, pathlib.Path]

BENCH_SCHEMA_VERSION = 1

#: Allowed values for an entry's ``direction`` field.
DIRECTIONS = ("higher", "lower", "info")

#: Default gate ratio: a gated value may degrade by up to this factor
#: versus the baseline before ``bench check`` fails.  Deliberately
#: loose — the gate exists to catch order-of-magnitude regressions
#: (an accidental O(n^2), a dropped cache), not CI-runner jitter.
DEFAULT_TOLERANCE = 3.0

#: Where the emitters write and the CLI reads by default.
RESULTS_DIRNAME = "benchmarks/results"
BENCH_GLOB = "BENCH_*.json"


def bench_entry(
    name: str,
    value: float,
    unit: str,
    direction: str,
    tolerance: Optional[float] = None,
) -> Dict:
    """One schema-valid benchmark entry."""
    if direction not in DIRECTIONS:
        raise ValueError(
            f"direction must be one of {DIRECTIONS}, got {direction!r}"
        )
    entry: Dict = {
        "name": str(name),
        "value": float(value),
        "unit": str(unit),
        "direction": direction,
    }
    if tolerance is not None:
        if tolerance <= 1.0:
            raise ValueError(f"tolerance must be > 1.0, got {tolerance!r}")
        entry["tolerance"] = float(tolerance)
    return entry


def validate_bench(doc: object) -> List[str]:
    """Schema problems in a benchmark-result document (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version is {doc.get('schema_version')!r}, "
            f"expected {BENCH_SCHEMA_VERSION}"
        )
    suite = doc.get("suite")
    if not isinstance(suite, str) or not suite:
        problems.append(f"suite is {suite!r}, expected a non-empty string")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        return problems + [
            f"entries is {type(entries).__name__}, expected a list"
        ]
    seen: set = set()
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is {type(entry).__name__}, expected object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}.name is {name!r}, expected non-empty string")
        elif name in seen:
            problems.append(f"{where}.name {name!r} is a duplicate")
        else:
            seen.add(name)
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}.value is {value!r}, expected a number")
        if not isinstance(entry.get("unit"), str):
            problems.append(f"{where}.unit is {entry.get('unit')!r}, expected string")
        if entry.get("direction") not in DIRECTIONS:
            problems.append(
                f"{where}.direction is {entry.get('direction')!r}, "
                f"expected one of {DIRECTIONS}"
            )
        tolerance = entry.get("tolerance")
        if tolerance is not None and (
            isinstance(tolerance, bool)
            or not isinstance(tolerance, (int, float))
            or tolerance <= 1.0
        ):
            problems.append(
                f"{where}.tolerance is {tolerance!r}, expected a number > 1.0"
            )
    return problems


def write_bench(path: PathLike, suite: str, entries: List[Dict]) -> pathlib.Path:
    """Write one suite's results; validates before touching the file."""
    doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "entries": list(entries),
    }
    problems = validate_bench(doc)
    if problems:
        raise ValueError(
            "refusing to write invalid benchmark results: " + "; ".join(problems)
        )
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_bench(path: PathLike) -> Dict:
    """Load and validate one BENCH file; raises ``ValueError`` if bad."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = validate_bench(doc)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return doc


def load_results(results_dir: PathLike) -> Dict[str, Dict]:
    """Suite name -> validated document, over ``BENCH_*.json``, sorted."""
    results: Dict[str, Dict] = {}
    for path in sorted(pathlib.Path(results_dir).glob(BENCH_GLOB)):
        doc = read_bench(path)
        suite = doc["suite"]
        if suite in results:
            raise ValueError(f"duplicate benchmark suite {suite!r} ({path})")
        results[suite] = doc
    return {suite: results[suite] for suite in sorted(results)}


# -- `repro obs bench report` --------------------------------------------------


def render_report(results: Dict[str, Dict]) -> str:
    """Trajectory table over every suite's entries."""
    if not results:
        return "no benchmark results found (run the benchmarks/ suites first)"
    total = sum(len(doc["entries"]) for doc in results.values())
    lines = [
        f"benchmark trajectory: {len(results)} suite(s), {total} entr(ies)",
        f"  {'suite':<10} {'name':<36} {'value':>16} {'unit':<12} {'better'}",
    ]
    for suite, doc in results.items():
        for entry in doc["entries"]:
            value = entry["value"]
            rendered = (
                f"{value:,.0f}" if abs(value) >= 1000 else f"{value:,.6g}"
            )
            lines.append(
                f"  {suite:<10} {entry['name']:<36} {rendered:>16} "
                f"{entry['unit']:<12} {entry['direction']}"
            )
    return "\n".join(lines)


# -- `repro obs bench check` ---------------------------------------------------


def check_results(
    current: Dict[str, Dict],
    baseline: Dict[str, Dict],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Dict]:
    """Compare current suites against a baseline; one row per check.

    Each row is ``{suite, name, direction, value, baseline, tolerance,
    ok, reason}``.  Rules:

    * ``info`` entries and entries absent from the baseline are never
      gated (new benchmarks must be able to land).
    * A gated entry missing from the *current* results fails — a
      silently-dropped benchmark is itself a regression.
    * ``higher`` fails when ``value < baseline / tolerance``;
      ``lower`` fails when ``value > baseline * tolerance``.  For a
      ``lower`` entry whose baseline is exactly zero (a count that
      must stay zero) that means any positive value fails.
    * Other zero/negative baselines are reported but not gated (no
      meaningful ratio exists).
    """
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must be > 1.0, got {tolerance!r}")
    rows: List[Dict] = []
    for suite in sorted(baseline):
        base_entries = {e["name"]: e for e in baseline[suite]["entries"]}
        cur_entries = (
            {e["name"]: e for e in current[suite]["entries"]}
            if suite in current
            else {}
        )
        for name in sorted(base_entries):
            base = base_entries[name]
            direction = base["direction"]
            tol = float(base.get("tolerance", tolerance))
            row = {
                "suite": suite,
                "name": name,
                "direction": direction,
                "value": None,
                "baseline": base["value"],
                "tolerance": tol,
                "ok": True,
                "reason": "",
            }
            cur = cur_entries.get(name)
            if cur is None:
                if direction != "info":
                    row["ok"] = False
                    row["reason"] = "missing from current results"
                else:
                    row["reason"] = "info (not gated); missing from current"
                rows.append(row)
                continue
            row["value"] = cur["value"]
            if direction == "info":
                row["reason"] = "info (not gated)"
            elif base["value"] < 0 or (base["value"] == 0 and direction == "higher"):
                row["reason"] = "baseline <= 0 (not gated)"
            elif direction == "higher" and cur["value"] < base["value"] / tol:
                row["ok"] = False
                row["reason"] = (
                    f"regressed: {cur['value']:g} < {base['value']:g}/{tol:g}"
                )
            elif direction == "lower" and cur["value"] > base["value"] * tol:
                row["ok"] = False
                row["reason"] = (
                    f"regressed: {cur['value']:g} > {base['value']:g}*{tol:g}"
                )
            rows.append(row)
    return rows


def render_check(rows: List[Dict]) -> str:
    """Terminal table for the regression gate."""
    if not rows:
        return "bench check: no baseline entries to compare"
    lines = [
        f"  {'suite':<10} {'name':<36} {'value':>14} {'baseline':>14} "
        f"{'verdict'}"
    ]
    failures = 0
    for row in rows:
        verdict = "ok" if row["ok"] else "FAIL"
        if not row["ok"]:
            failures += 1
        if row["reason"]:
            verdict = f"{verdict} ({row['reason']})"
        value = "-" if row["value"] is None else f"{row['value']:,.4g}"
        lines.append(
            f"  {row['suite']:<10} {row['name']:<36} {value:>14} "
            f"{row['baseline']:>14,.4g} {verdict}"
        )
    lines.append(
        f"bench check: {len(rows)} entr(ies), {failures} regression(s) "
        f"[{'FAIL' if failures else 'PASS'}]"
    )
    return "\n".join(lines)


__all__ = [
    "BENCH_GLOB",
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_TOLERANCE",
    "DIRECTIONS",
    "RESULTS_DIRNAME",
    "bench_entry",
    "check_results",
    "load_results",
    "read_bench",
    "render_check",
    "render_report",
    "validate_bench",
    "write_bench",
]
