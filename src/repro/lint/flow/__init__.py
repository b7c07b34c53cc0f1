"""Whole-program flow analysis layer (``repro lint --flow``).

Builds a project symbol table and call graph over the analyzed files,
then runs interprocedural passes on top of them:

* :mod:`repro.lint.flow.units` — dB/linear unit inference
  (RL010-RL012), on the inference driver in
  :mod:`repro.lint.flow.infer`;
* :mod:`repro.lint.flow.rngflow` — RNG-determinism taint tracking
  (RL013-RL015).

:func:`run_passes` dispatches from the :data:`PASSES` table.  Findings
pass the per-file rules' filter
(:class:`repro.lint.engine.FindingSink`: inline ``# replint:
disable=...``, config disables, per-file ignores), then share the
baseline machinery and the CLI output.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.engine import Finding, FindingSink, iter_python_files, relative_path
from repro.lint.flow.callgraph import build_call_graph
from repro.lint.flow.rngflow import RngPass
from repro.lint.flow.symbols import ModuleInfo, build_symbol_table
from repro.lint.flow.units import UnitPass

#: Rule catalog for the flow passes (code -> (name, summary)), merged
#: into ``repro lint --list-rules`` alongside the per-file registry.
FLOW_RULES: Dict[str, Tuple[str, str]] = {
    "RL010": (
        "unit-conflicting-argument",
        "call argument or cross-call arithmetic mixes dB and linear domains",
    ),
    "RL011": (
        "unit-conflicting-return",
        "return value conflicts with the unit the function declares",
    ),
    "RL012": (
        "undeclared-unit-api",
        "public phy/mac API with a physical return but no unit suffix/annotation",
    ),
    "RL013": (
        "rng-not-injected",
        "function builds a fixed-seed RNG instead of accepting a Generator",
    ),
    "RL014": (
        "module-global-rng",
        "RNG stored on a module/class global shares one stream process-wide",
    ),
    "RL015": (
        "rng-chain-dropped",
        "seeded generator not forwarded to a callee that accepts one",
    ),
}

#: Pass name -> pass class, in execution order.
PASSES = {
    "units": UnitPass,
    "rng": RngPass,
}

#: Pass names accepted by :func:`analyze_files`, in execution order.
PASS_NAMES = tuple(PASSES)


@dataclass
class FlowStats:
    """Shape of the ``flow`` section in ``repro lint --json`` output."""

    files: int = 0
    modules: int = 0
    functions: int = 0
    call_edges: int = 0
    findings: int = 0
    suppressed: int = 0
    by_rule: Dict[str, int] = field(default_factory=dict)
    passes: Tuple[str, ...] = PASS_NAMES

    def to_dict(self) -> Dict[str, object]:
        return {
            "files": self.files,
            "modules": self.modules,
            "functions": self.functions,
            "call_edges": self.call_edges,
            "findings": self.findings,
            "suppressed": self.suppressed,
            "by_rule": dict(sorted(self.by_rule.items())),
            "passes": list(self.passes),
        }


class Reporter(FindingSink):
    """Finding sink the passes report through, keyed by module."""

    def report(
        self,
        module: ModuleInfo,
        node: ast.AST,
        code: str,
        message: str,
        context: str = "",
    ) -> None:
        self.add(module, node, code, message, context)


def analyze_files(
    files: List[Tuple[str, str]],
    config: Optional[LintConfig] = None,
    passes: Tuple[str, ...] = PASS_NAMES,
) -> Tuple[List[Finding], FlowStats]:
    """Run the selected flow passes over ``(rel_path, source)`` pairs.

    Passes run in :data:`PASSES` order whatever order ``passes`` names.
    """
    unknown = set(passes) - set(PASS_NAMES)
    if unknown:
        raise ValueError(f"unknown flow pass(es): {sorted(unknown)}")
    config = config if config is not None else LintConfig()
    table = build_symbol_table(files)
    graph = build_call_graph(table)
    reporter = Reporter(config)
    for name, pass_class in PASSES.items():
        if name in passes:
            pass_class(table, graph, config, reporter).run()
    findings = sorted(reporter.findings, key=Finding.sort_key)
    stats = FlowStats(
        files=len(files),
        modules=len(table.modules),
        functions=len(table.functions),
        call_edges=graph.edge_count,
        findings=len(findings),
        suppressed=reporter.suppressed_count,
        passes=tuple(name for name in PASS_NAMES if name in passes),
    )
    for finding in findings:
        stats.by_rule[finding.code] = stats.by_rule.get(finding.code, 0) + 1
    return findings, stats


def load_files(
    paths: Iterable[pathlib.Path], root: pathlib.Path, config: LintConfig
) -> List[Tuple[str, str]]:
    """``(rel_path, source)`` for every readable python file under ``paths``."""
    files: List[Tuple[str, str]] = []
    for path in iter_python_files(list(paths), config):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue  # the per-file engine reports unreadable files
        files.append((relative_path(path, root).as_posix(), source))
    return files


def analyze_paths(
    paths: Iterable[pathlib.Path],
    root: pathlib.Path,
    config: LintConfig,
    passes: Tuple[str, ...] = PASS_NAMES,
) -> Tuple[List[Finding], FlowStats]:
    """Run the selected flow passes over python files under ``paths``."""
    return analyze_files(load_files(paths, root, config), config, passes=passes)


__all__ = [
    "FLOW_RULES",
    "PASSES",
    "PASS_NAMES",
    "FlowStats",
    "Reporter",
    "analyze_files",
    "analyze_paths",
    "load_files",
]
