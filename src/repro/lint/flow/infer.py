"""Shared inference driver for the units and dims passes.

The two passes are one algorithm over two lattices: seed a
per-function environment from the parameters, bind assignments to a
small fixpoint, summarize each function's ``return`` values, iterate
those summaries over the call graph to a bounded fixpoint, then check.
:class:`FunctionAnalysis` owns the environment and the ``return`` walk,
:class:`InferencePass` the call-site index and the fixpoint.  A pass
supplies its lattice ``join``, ``infer``, seeds, and checks, plus the
hooks where the passes really differ (extra binding forms, annotation
parsing, the summary of mixed returns).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.flow.callgraph import CallGraph, CallSite
from repro.lint.flow.symbols import FunctionInfo, ModuleInfo, ParamInfo, SymbolTable

#: One binding: (local name, value node or element thunk, source line).
Binding = Tuple[str, Any, int]

#: Marks a function the fixpoint has not summarized yet.
_UNSET = object()


def callable_name(func: ast.AST) -> Optional[str]:
    """``f`` for ``f(...)`` and ``obj.f(...)`` calls (None otherwise)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class Summaries:
    """Interprocedural state: the inferred return value per function."""

    def __init__(self) -> None:
        self.returns: Dict[str, Any] = {}


class FunctionAnalysis:
    """Per-function environment builder and expression inferencer."""

    #: The "declared, carries nothing" element the summary skips.
    neutral: Any = None

    def __init__(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        summaries: Summaries,
        sites: Dict[int, CallSite],
    ):
        self.fn = fn
        self.module = module
        self.summaries = summaries
        self.sites = sites
        self.env: Dict[str, Any] = {}
        for param in fn.params:
            value = self.param_value(param)
            if value is not None:
                self.env[param.name] = value

    # -- hooks ------------------------------------------------------

    @staticmethod
    def join(a: Any, b: Any) -> Any:
        raise NotImplementedError

    def infer(self, node: ast.AST) -> Any:
        raise NotImplementedError

    def param_value(self, param: ParamInfo) -> Any:
        raise NotImplementedError

    def annotated_value(self, text: str) -> Any:
        """Value declared by an annotation on a binding's line."""
        raise NotImplementedError

    def bind_other(self, node: ast.AST, binds: List[Binding]) -> None:
        """Collect bindings from node types beyond plain assignments."""

    def bound_value(self, name: str, value: Any) -> Any:
        return self.infer(value)

    # -- environment construction -----------------------------------

    def build_env(self, iterations: int = 3) -> None:
        binds: List[Binding] = []
        for node in ast.walk(self.fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                binds.append((node.targets[0].id, node.value, node.lineno))
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and isinstance(node.target, ast.Name)
            ):
                binds.append((node.target.id, node.value, node.lineno))
            else:
                self.bind_other(node, binds)
        annotations = self.module.unit_annotations
        for _ in range(iterations):
            changed = False
            for name, value, lineno in binds:
                annotated = annotations.get(lineno)
                if annotated:
                    bound = self.annotated_value(annotated)
                else:
                    bound = self.bound_value(name, value)
                if bound is not None:
                    current = self.env.get(name)
                    merged = bound if current is None else self.join(current, bound)
                    if merged != current:
                        self.env[name] = merged
                        changed = True
            if not changed:
                break

    # -- summary ----------------------------------------------------

    def returned(self) -> List[Tuple[ast.Return, Any]]:
        """Every ``return <value>`` with its inferred value (containers: None)."""
        out: List[Tuple[ast.Return, Any]] = []
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
                    out.append((node, None))
                else:
                    out.append((node, self.infer(node.value)))
        return out

    def return_summary(self) -> Any:
        """Join of the known, non-neutral returned values."""
        inferred = None
        for _, value in self.returned():
            if value is None or value == self.neutral:
                continue
            inferred = value if inferred is None else self.join(inferred, value)
        return inferred


class InferencePass:
    """Bounded return-summary fixpoint, then the pass's checks."""

    analysis_class = FunctionAnalysis
    summaries_class = Summaries

    def __init__(self, table: SymbolTable, graph: CallGraph, config, reporter):
        self.table = table
        self.graph = graph
        self.config = config
        self.reporter = reporter
        self.summaries = self.summaries_class()
        self._sites_by_fn: Dict[str, Dict[int, CallSite]] = {}
        for site in graph.sites:
            if site.caller is not None:
                self._sites_by_fn.setdefault(site.caller.qualname, {})[
                    id(site.node)
                ] = site
        self._final: Dict[str, Optional[FunctionAnalysis]] = {}

    def _build(self, fn: FunctionInfo) -> Optional[FunctionAnalysis]:
        module = self.table.modules.get(fn.module)
        if module is None:
            return None
        analysis = self.analysis_class(
            fn, module, self.summaries, self._sites_by_fn.get(fn.qualname, {})
        )
        analysis.build_env()
        return analysis

    def analysis(self, fn: FunctionInfo) -> Optional[FunctionAnalysis]:
        """The post-fixpoint analysis of ``fn``, built once for every check."""
        if fn.qualname not in self._final:
            self._final[fn.qualname] = self._build(fn)
        return self._final[fn.qualname]

    def run(self) -> None:
        functions = sorted(self.table.functions.values(), key=lambda f: f.qualname)
        # Fixpoint on return summaries (bounded; the lattices are tiny).
        for _ in range(4):
            changed = False
            for fn in functions:
                analysis = self._build(fn)
                if analysis is not None:
                    changed |= self.summarize(fn, analysis)
            if not changed:
                break
        self.check(functions)

    def summarize(self, fn: FunctionInfo, analysis: FunctionAnalysis) -> bool:
        """Record ``fn``'s return summary; True when it changed."""
        inferred = analysis.return_summary()
        if self.summaries.returns.get(fn.qualname, _UNSET) != inferred:
            self.summaries.returns[fn.qualname] = inferred
            return True
        return False

    def check(self, functions: List[FunctionInfo]) -> None:
        raise NotImplementedError
