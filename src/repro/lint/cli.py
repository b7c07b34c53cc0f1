"""CLI driver for ``python -m repro lint``.

Exit codes (stable, for CI):

* ``0`` — no findings (after baseline subtraction, if requested)
* ``1`` — at least one (non-baselined) finding
* ``2`` — operational error (unreadable baseline, unknown config key,
  bad arguments)

``--flow`` additionally runs the whole-program passes
(:mod:`repro.lint.flow`): symbol table + call graph construction, then
interprocedural dB/linear unit inference (RL010-RL012) and RNG taint
tracking (RL013-RL015).  ``--des`` runs the discrete-event sim-time
soundness pass (RL040-RL046) and ``--dim`` the physical-dimension/
unit-scale inference pass (RL050-RL056) over the same symbol table;
the flags combine freely.  Flow findings merge into the same output,
baseline, and exit-code machinery as the per-file rules.

``--worklist`` (with ``--des`` and/or ``--dim``) switches to an
exclusive mode that prints the ranked burn-down worklist (finding
sites grouped per function) and exits 0; add ``--profile
<manifest|BENCH_*.json>`` to rank entries by measured hotness joined
from obs metrics.

``--jobs N`` lints files in N pool processes (per-file rules only —
the flow passes need the whole program in one address space); finding
order is byte-identical for any N.

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

    if args.worklist:
        if not (args.des or args.dim):
            print(
                "repro lint: --worklist requires --des and/or --dim",
                file=sys.stderr,
            )
            return 2
        return _run_worklist(args, root, config, paths)
    if args.profile and not (args.des or args.dim):
        print(
            "repro lint: --profile requires --des and/or --dim",
            file=sys.stderr,
        )
        return 2

    findings = lint_paths(paths, root, config, jobs=max(1, args.jobs))
    flow_stats = None
    # --flow is units + rng; every other flag names its pass.
    flow_passes = (("units", "rng") if args.flow else ()) + tuple(
        name for name in ("des", "dim") if getattr(args, name)
    )
    if flow_passes:
        from repro.lint.flow import analyze_paths

        flow_findings, flow_stats = analyze_paths(
            paths, root, config, passes=flow_passes
        )
        findings = sorted([*findings, *flow_findings], key=Finding.sort_key)
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
        if flow_stats is not None:
            doc["flow"] = flow_stats.to_dict()
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
            _print_stats(findings, paths, config, duration_s, flow_stats)
    return 1 if findings else 0


def _run_worklist(
    args: argparse.Namespace,
    root: pathlib.Path,
    config,
    paths: List[pathlib.Path],
) -> int:
    """Exclusive ``--worklist`` mode: print the ranked worklist.

    Runs only the selected pass(es) — des, dim, or both (baselined
    findings are still *real* targets — the worklist is the burn-down
    list, not the failure gate) and always exits 0 unless the profile
    is unreadable.
    """
    from repro.lint.flow import load_files, run_passes
    from repro.lint.flow.destime import DES_WORKLIST_CODES
    from repro.lint.flow.dims import DIM_WORKLIST_CODES
    from repro.lint.flow.worklist import (
        build_worklist,
        load_profile,
        render_worklist,
    )

    profile = None
    if args.profile:
        try:
            profile = load_profile(pathlib.Path(args.profile))
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    # Pass name -> (rule codes that name work, worklist title).
    worklists = {
        "des": (DES_WORKLIST_CODES, "DES-time"),
        "dim": (DIM_WORKLIST_CODES, "unit-scale"),
    }
    selected = tuple(name for name in worklists if getattr(args, name))
    # Inline suppressions still apply; the committed baseline does not.
    table, graph, reporter = run_passes(
        load_files(paths, root, config), config, selected
    )
    codes = frozenset().union(*(worklists[name][0] for name in selected))
    findings = sorted(reporter.findings, key=Finding.sort_key)
    modules_by_path = {
        m.rel_path: m.name
        for m in sorted(table.modules.values(), key=lambda m: m.name)
    }
    module_of_function = {
        qualname: fn.module for qualname, fn in sorted(table.functions.items())
    }
    entries = build_worklist(
        findings, graph, profile, modules_by_path, module_of_function, codes=codes
    )
    if args.json:
        print(
            json.dumps(
                {
                    "profile": args.profile,
                    "worklist": [e.to_dict() for e in entries],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        title = "/".join(worklists[name][1] for name in selected)
        print(render_worklist(entries, args.profile, title=title))
    return 0


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


def _print_stats(findings, paths, config, duration_s, flow_stats) -> None:
    stats = _stats_dict(findings, paths, config, duration_s)
    print("-- stats --")
    for code, count in stats["by_rule"].items():
        print(f"  {code}: {count}")
    print(f"  files analyzed: {stats['files_analyzed']}")
    if flow_stats is not None:
        print(
            f"  flow: {flow_stats.modules} modules, "
            f"{flow_stats.functions} functions, "
            f"{flow_stats.call_edges} call edges"
        )
    print(f"  wall time: {stats['wall_time_s']:.3f} s")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: <root>/src)",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="also run the whole-program passes (unit inference RL010-012, "
        "RNG taint RL013-015)",
    )
    parser.add_argument(
        "--des",
        action="store_true",
        help="also run the discrete-event sim-time soundness pass "
        "(RL040-046); combines with --flow",
    )
    parser.add_argument(
        "--dim",
        action="store_true",
        help="also run the physical-dimension/unit-scale inference pass "
        "(RL050-056); combines with --flow/--des",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="run manifest or BENCH_*.json whose metrics rank the "
        "--worklist entries by measured hotness (requires --des/--dim)",
    )
    parser.add_argument(
        "--worklist",
        action="store_true",
        help="print the ranked burn-down worklist instead of findings "
        "and exit 0 (requires --des and/or --dim)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint files in N pool processes (per-file rules only; "
        "deterministic output for any N)",
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
        help="machine-readable output (findings, count, baselined, flow)",
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
    from repro.lint.flow import DES_RULES, DIM_RULES, FLOW_RULES

    catalog = {code: (cls.name, cls.summary) for code, cls in RULES.items()}
    catalog.update(FLOW_RULES)
    catalog.update(DES_RULES)
    catalog.update(DIM_RULES)
    for code in sorted(catalog):
        name, summary = catalog[code]
        print(f"{code}  {name:<26} {summary}")
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
