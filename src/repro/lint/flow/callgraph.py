"""Call-graph construction over the project symbol table.

Resolves call expressions to :class:`~repro.lint.flow.symbols.FunctionInfo`
entries so the interprocedural passes can follow units and RNG taint
across module boundaries.  Resolution is deliberately conservative —
an unresolvable call simply produces no edge (and therefore no
finding), never a guess.

Handled shapes:

* plain calls to module-level functions, local or from-imported
  (including names re-exported through ``__init__.py``);
* attribute calls through an imported module (``channel.snr_db(...)``);
* constructor calls (``LinkBudget(...)`` resolves to ``__init__``);
* ``self.method(...)`` inside a method, walking base classes;
* method calls on locals with statically-known constructor types
  (``x = LinkBudget(...)`` then ``x.snr_db(...)``);
* ``functools.partial(fn, ...)`` — an edge of kind ``"partial"`` to
  ``fn`` (the eventual call site is untracked, the reference is);
* decorated functions — the decorated name still resolves to its def.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.flow.symbols import ClassInfo, FunctionInfo, ModuleInfo, SymbolTable


@dataclass
class CallSite:
    """One resolved call edge."""

    caller: Optional[FunctionInfo]  #: None for module-level code
    module: str  #: module the call appears in
    node: ast.Call
    callee: FunctionInfo
    kind: str = "call"  #: "call" | "partial"
    #: True when the callee's leading ``self`` is implicitly bound
    #: (method call on an instance or a constructor call).
    bound: bool = False


@dataclass
class CallGraph:
    sites: List[CallSite] = field(default_factory=list)
    by_caller: Dict[str, List[CallSite]] = field(default_factory=dict)
    by_callee: Dict[str, List[CallSite]] = field(default_factory=dict)

    def add(self, site: CallSite) -> None:
        self.sites.append(site)
        key = site.caller.qualname if site.caller else f"{site.module}:<module>"
        self.by_caller.setdefault(key, []).append(site)
        self.by_callee.setdefault(site.callee.qualname, []).append(site)

    def calls_from(self, qualname: str) -> List[CallSite]:
        return self.by_caller.get(qualname, [])

    def callers_of(self, qualname: str) -> List[CallSite]:
        return self.by_callee.get(qualname, [])

    def reachable_from(self, qualname: str, limit: int = 512) -> List[str]:
        """Transitive callee qualnames from a function (BFS, bounded).

        Used by the ``--worklist`` ranking to attribute profile hotness:
        a finding's function is hot if *anything it calls into* is
        instrumented hot, not just its own module.  Deterministic order (BFS over
        call sites in source order); ``limit`` bounds pathological
        graphs, dropping the deepest entries.
        """
        seen = {qualname}
        order: List[str] = []
        queue = [qualname]
        while queue and len(order) < limit:
            current = queue.pop(0)
            for site in self.by_caller.get(current, []):
                callee = site.callee.qualname
                if callee not in seen:
                    seen.add(callee)
                    order.append(callee)
                    queue.append(callee)
        return order

    @property
    def edge_count(self) -> int:
        return len(self.sites)


def _local_constructor_types(
    func_node: ast.AST, resolver: "CallResolver", module: ModuleInfo
) -> Dict[str, ClassInfo]:
    """Map local names to classes for ``x = ClassName(...)`` assignments."""
    out: Dict[str, ClassInfo] = {}
    for node in ast.walk(func_node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name) or not isinstance(node.value, ast.Call):
            continue
        dotted = resolver.dotted_callee(node.value.func, module)
        if not dotted:
            continue
        cls = resolver.table.class_info(dotted)
        if cls is not None:
            out[target.id] = cls
    return out


class CallResolver:
    """Resolves call expressions against a :class:`SymbolTable`."""

    def __init__(self, table: SymbolTable):
        self.table = table

    def dotted_callee(self, func: ast.AST, module: ModuleInfo) -> str:
        """Canonical dotted name of a call target ('' if unresolvable)."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in module.functions or name in module.classes:
                return f"{module.name}.{name}"
            origin = module.imports.origin_of(name)
            if origin:
                return origin
            return ""
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            mod_origin = module.imports.module_of(base)
            if mod_origin:
                return f"{mod_origin}.{func.attr}"
            name_origin = module.imports.origin_of(base)
            if name_origin:
                return f"{name_origin}.{func.attr}"
            # Same-module class attribute (ClassName.method).
            if base in module.classes:
                return f"{module.name}.{base}.{func.attr}"
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            inner = func.value
            if isinstance(inner.value, ast.Name):
                mod_origin = module.imports.module_of(inner.value.id)
                if mod_origin:
                    return f"{mod_origin}.{inner.attr}.{func.attr}"
        return ""

    def resolve(
        self,
        call: ast.Call,
        module: ModuleInfo,
        caller: Optional[FunctionInfo],
        local_types: Optional[Dict[str, ClassInfo]] = None,
    ) -> Optional[Tuple[FunctionInfo, str, bool]]:
        """Resolve a call to (callee, kind, bound) or None."""
        func = call.func
        # functools.partial(fn, ...) — reference edge to fn.
        dotted = self.dotted_callee(func, module)
        if dotted in ("functools.partial", "partial") and call.args:
            target = self.dotted_callee(call.args[0], module) or (
                call.args[0].id
                if isinstance(call.args[0], ast.Name)
                else ""
            )
            if target:
                fn = self.table.function(
                    target if "." in target else f"{module.name}.{target}"
                )
                if fn is not None:
                    return fn, "partial", fn.is_method
            return None
        # self.method(...) within a method.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and caller is not None
            and caller.class_name is not None
        ):
            cls = self.table.class_info(f"{caller.module}.{caller.class_name}")
            if cls is not None:
                fn = self.table.method_on(cls, func.attr)
                if fn is not None:
                    return fn, "call", True
            return None
        # method call on a local with a known constructor type.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and local_types
            and func.value.id in local_types
        ):
            fn = self.table.method_on(local_types[func.value.id], func.attr)
            if fn is not None:
                return fn, "call", True
        if dotted:
            fn = self.table.function(dotted)
            if fn is not None:
                bound = fn.name == "__init__" or (
                    fn.is_method and isinstance(func, ast.Attribute)
                )
                return fn, "call", bound
        return None


def build_call_graph(table: SymbolTable) -> CallGraph:
    """Resolve every call in every module into a :class:`CallGraph`."""
    graph = CallGraph()
    resolver = CallResolver(table)
    for module in table.modules.values():
        # Module-level calls.
        class _TopLevel(ast.NodeVisitor):
            def visit_FunctionDef(self, node):  # do not descend
                pass

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_ClassDef(self, node):
                pass

            def visit_Call(self, node, _module=module):
                resolved = resolver.resolve(node, _module, None)
                if resolved is not None:
                    fn, kind, bound = resolved
                    graph.add(
                        CallSite(
                            caller=None,
                            module=_module.name,
                            node=node,
                            callee=fn,
                            kind=kind,
                            bound=bound,
                        )
                    )
                self.generic_visit(node)

        _TopLevel().visit(module.tree)
        all_functions = list(module.functions.values())
        for cls in module.classes.values():
            all_functions.extend(cls.methods.values())
        for fn in all_functions:
            local_types = _local_constructor_types(fn.node, resolver, module)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = resolver.resolve(node, module, fn, local_types)
                if resolved is None:
                    continue
                callee, kind, bound = resolved
                graph.add(
                    CallSite(
                        caller=fn,
                        module=module.name,
                        node=node,
                        callee=callee,
                        kind=kind,
                        bound=bound,
                    )
                )
    return graph


def bind_arguments(
    site: CallSite,
) -> Tuple[Dict[str, ast.AST], bool]:
    """Map callee parameter names to argument expressions at a site.

    Returns ``(bound, exhaustive)``; ``exhaustive`` is False when the
    call uses ``*args``/``**kwargs`` so absence of a parameter in the
    mapping proves nothing.
    """
    params = site.callee.call_params if site.bound else site.callee.params
    bound: Dict[str, ast.AST] = {}
    exhaustive = True
    positional = []
    for arg in site.node.args:
        if isinstance(arg, ast.Starred):
            exhaustive = False
        else:
            positional.append(arg)
    for param, arg in zip(params, positional):
        bound[param.name] = arg
    for kw in site.node.keywords:
        if kw.arg is None:  # **kwargs
            exhaustive = False
        else:
            bound[kw.arg] = kw.value
    return bound, exhaustive
