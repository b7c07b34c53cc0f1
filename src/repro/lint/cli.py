"""CLI driver for ``python -m repro lint``.

Exit codes (stable, for CI):

* ``0`` — no findings (after baseline subtraction, if requested)
* ``1`` — at least one (non-baselined) finding
* ``2`` — operational error (unreadable baseline, unknown config key,
  bad arguments)

``--jobs N`` lints files in N pool processes; finding order is
byte-identical for any N.

``--check-baseline`` inverts the baseline question: instead of
subtracting known findings, it fails (exit 1) when the baseline holds
fingerprints that no current finding matches — dead allowances that
should be pruned with ``--write-baseline``.

``--stats`` prints a per-rule finding table, the analyzed-file count,
and wall time — for triaging CI logs at a glance.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from collections import Counter
from typing import List, Optional

from repro.lint import baseline as baseline_mod
from repro.lint.config import find_root, load_config
from repro.lint.engine import RULES, Finding, iter_python_files, lint_paths


def resolve_paths(
    raw_paths: List[str], root: pathlib.Path
) -> List[pathlib.Path]:
    """Default to ``<root>/src`` when no paths are given."""
    if raw_paths:
        return [pathlib.Path(p) for p in raw_paths]
    src = root / "src"
    return [src if src.is_dir() else root]


def run_lint(args: argparse.Namespace) -> int:
    start_time = time.perf_counter()
    start = pathlib.Path(args.paths[0]) if args.paths else pathlib.Path.cwd()
    root = pathlib.Path(args.root) if args.root else find_root(start)
    try:
        config = load_config(root)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    paths = resolve_paths(args.paths, root)
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro lint: no such path: {', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return 2

    findings = lint_paths(paths, root, config, jobs=max(1, args.jobs))
    baseline_path = root / config.baseline

    if args.write_baseline:
        count = baseline_mod.write_baseline(baseline_path, findings)
        print(f"wrote {count} finding(s) to {baseline_path}")
        return 0

    if args.check_baseline:
        return _check_baseline(findings, baseline_path)

    baselined = 0
    if args.baseline:
        try:
            known = baseline_mod.load_baseline(baseline_path)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        findings, baselined = baseline_mod.apply_baseline(findings, known)

    duration_s = time.perf_counter() - start_time
    if args.json:
        doc = {
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
            "baselined": baselined,
            "fingerprint_version": baseline_mod.BASELINE_VERSION,
        }
        if args.stats:
            doc["stats"] = _stats_dict(findings, paths, config, duration_s)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        summary = f"{len(findings)} finding(s)"
        if baselined:
            summary += f", {baselined} baselined"
        print(summary)
        if args.stats:
            _print_stats(findings, paths, config, duration_s)
    return 1 if findings else 0


def _check_baseline(findings, baseline_path: pathlib.Path) -> int:
    """Fail when the baseline carries fingerprints nothing matches."""
    try:
        known = baseline_mod.load_baseline(baseline_path)
        entries = baseline_mod.load_entries(baseline_path)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    stale = baseline_mod.stale_entries(findings, known)
    by_fingerprint = {}
    for entry in entries:
        by_fingerprint.setdefault(str(entry.get("fingerprint", "")), entry)
    for fingerprint, count in sorted(stale.items()):
        entry = by_fingerprint.get(fingerprint, {})
        location = f"{entry.get('path', '?')}:{entry.get('line', '?')}"
        suffix = f" (x{count})" if count > 1 else ""
        print(
            f"stale baseline entry {fingerprint} "
            f"[{entry.get('code', '?')}] at {location}{suffix}"
        )
    total = sum(stale.values())
    if total:
        print(
            f"{total} stale baseline entr{'y' if total == 1 else 'ies'} in "
            f"{baseline_path} — regenerate with --write-baseline"
        )
        return 1
    print(f"baseline {baseline_path} is current ({len(entries)} entries)")
    return 0


def _stats_dict(findings, paths, config, duration_s) -> dict:
    by_rule = Counter(f.code for f in findings)
    return {
        "by_rule": dict(sorted(by_rule.items())),
        "files_analyzed": len(iter_python_files(list(paths), config)),
        "wall_time_s": round(duration_s, 3),
    }


def _print_stats(findings, paths, config, duration_s) -> None:
    stats = _stats_dict(findings, paths, config, duration_s)
    print("-- stats --")
    for code, count in stats["by_rule"].items():
        print(f"  {code}: {count}")
    print(f"  files analyzed: {stats['files_analyzed']}")
    print(f"  wall time: {stats['wall_time_s']:.3f} s")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: <root>/src)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint files in N pool processes (deterministic output for any N)",
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="subtract findings recorded in the committed baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="exit 1 if the baseline holds fingerprints no current "
        "finding matches (stale debt allowances)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (findings, count, baselined)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule finding counts, analyzed-file count, and wall time",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="project root (default: nearest directory with pyproject.toml)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def list_rules() -> int:
    for code, cls in sorted(RULES.items()):
        print(f"{code}  {cls.name:<26} {cls.summary}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint", description="domain-aware static analysis"
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    if args.list_rules:
        return list_rules()
    return run_lint(args)


# Re-export for the repro.cli subcommand wiring.
__all__ = ["add_lint_arguments", "list_rules", "main", "run_lint", "Finding"]
