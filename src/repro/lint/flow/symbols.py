"""Project-wide symbol table for the whole-program lint passes.

The per-file rules (RL001-RL008) see one module at a time; the flow
passes need to answer questions like "which function does this call
resolve to?" and "what unit does that function return?" across module
boundaries.  This module parses every file once and builds:

* :class:`ModuleInfo` — per-module imports, top-level functions,
  classes/methods, and module-level assignments;
* :class:`FunctionInfo` — one entry per function or method, with its
  parameters, decorators, and any ``# replint: unit=...`` annotation
  on the ``def`` line;
* :class:`SymbolTable` — the project index, including the alias map
  that makes re-exported names (``from repro.phy.channel import
  LinkBudget`` in ``repro/phy/__init__.py``) resolve to their defining
  module.

Only statically-resolvable structure is modeled: top-level functions,
classes and their methods.  Functions nested inside other functions
are deliberately out of scope — they cannot be called across modules.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.engine import ImportMap, module_name_for, parse_suppressions

#: ``# replint: unit=dB`` / ``unit=linear`` annotation on a source line.
UNIT_ANNOTATION_RE = re.compile(r"#\s*replint:\s*unit=([A-Za-z\-]+)")

#: ``# replint: shape=(n,)`` / ``shape=scalar`` / ``shape=input``
#: annotation — the shape contract consumed by the --vec pass (RL036)
#: and the runtime shape checker in :mod:`repro.sanitize`.  May share
#: a comment with ``unit=``: ``# replint: unit=dBi shape=(points,)``.
SHAPE_ANNOTATION_RE = re.compile(r"#\s*replint:[^\n]*?\bshape=([^\s#]+)")

#: ``# replint: dtype=float32`` — blesses a deliberate dtype narrowing
#: or complex→real truncation on the annotated line (RL032).
DTYPE_ANNOTATION_RE = re.compile(r"#\s*replint:[^\n]*?\bdtype=([A-Za-z0-9_]+)")


@dataclass
class ParamInfo:
    """One formal parameter of a function."""

    name: str
    annotation: str = ""
    has_default: bool = False


@dataclass
class FunctionInfo:
    """A top-level function or a method, addressable by qualname."""

    qualname: str  #: e.g. ``repro.phy.channel.LinkBudget.snr_db``
    module: str  #: defining module, e.g. ``repro.phy.channel``
    name: str
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    params: List[ParamInfo] = field(default_factory=list)
    class_name: Optional[str] = None
    decorators: Tuple[str, ...] = ()
    #: Declared return unit from a ``# replint: unit=...`` def-line
    #: annotation ("" when absent).
    unit_annotation: str = ""
    #: Declared return-shape contract from a ``# replint: shape=...``
    #: def-line annotation ("" when absent).
    shape_annotation: str = ""
    #: Source text of the ``->`` return annotation ("" when absent).
    return_annotation: str = ""

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    @property
    def is_property(self) -> bool:
        return "property" in self.decorators or "cached_property" in self.decorators

    def param(self, name: str) -> Optional[ParamInfo]:
        for p in self.params:
            if p.name == name:
                return p
        return None

    #: Parameters excluding a leading ``self``/``cls`` for methods.
    @property
    def call_params(self) -> List[ParamInfo]:
        if self.is_method and self.params and self.params[0].name in ("self", "cls"):
            return self.params[1:]
        return self.params


@dataclass
class ClassInfo:
    """A top-level class: its methods and textual base-class names."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    bases: Tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """One parsed project module."""

    name: str
    rel_path: str
    source: str
    tree: ast.Module
    imports: ImportMap
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: line number -> declared unit from ``# replint: unit=...``.
    unit_annotations: Dict[int, str] = field(default_factory=dict)
    #: line number -> declared shape from ``# replint: shape=...``.
    shape_annotations: Dict[int, str] = field(default_factory=dict)
    #: line number -> blessed dtype from ``# replint: dtype=...``.
    dtype_annotations: Dict[int, str] = field(default_factory=dict)
    #: line number -> codes named by ``# replint: disable=...``.
    suppressions: Dict[int, frozenset] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    if isinstance(node, ast.Call):
        return _dotted(node.func)
    if isinstance(node, ast.Subscript):  # Optional[Generator] etc.
        return _dotted(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def _params_of(node: ast.AST) -> List[ParamInfo]:
    args = node.args
    ordered = [*args.posonlyargs, *args.args]
    out: List[ParamInfo] = []
    n_defaults = len(args.defaults)
    for i, arg in enumerate(ordered):
        out.append(
            ParamInfo(
                name=arg.arg,
                annotation=_dotted(arg.annotation) if arg.annotation else "",
                has_default=i >= len(ordered) - n_defaults,
            )
        )
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        out.append(
            ParamInfo(
                name=arg.arg,
                annotation=_dotted(arg.annotation) if arg.annotation else "",
                has_default=default is not None,
            )
        )
    return out


def _scan_annotations(lines: List[str], pattern: "re.Pattern") -> Dict[int, str]:
    out: Dict[int, str] = {}
    for lineno, text in enumerate(lines, start=1):
        match = pattern.search(text)
        if match:
            out[lineno] = match.group(1)
    return out


class SymbolTable:
    """Index of every module, class, and function in the project."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Re-export / alias map: ``repro.phy.LinkBudget`` ->
        #: ``repro.phy.channel.LinkBudget`` (from module-level
        #: from-imports, most importantly ``__init__.py`` re-exports).
        self.aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_module(self, rel_path: str, source: str, tree: ast.Module) -> ModuleInfo:
        name = module_name_for(pathlib.PurePosixPath(rel_path))
        lines = source.splitlines()
        info = ModuleInfo(
            name=name,
            rel_path=rel_path,
            source=source,
            tree=tree,
            imports=ImportMap.scan(tree),
            unit_annotations=_scan_annotations(lines, UNIT_ANNOTATION_RE),
            shape_annotations=_scan_annotations(lines, SHAPE_ANNOTATION_RE),
            dtype_annotations=_scan_annotations(lines, DTYPE_ANNOTATION_RE),
            suppressions=parse_suppressions(lines),
            lines=lines,
        )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._function_info(info, node, class_name=None)
                info.functions[fn.name] = fn
                self.functions[fn.qualname] = fn
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{name}.{node.name}",
                    module=name,
                    name=node.name,
                    node=node,
                    bases=tuple(_dotted(b) for b in node.bases if _dotted(b)),
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._function_info(info, item, class_name=node.name)
                        cls.methods[fn.name] = fn
                        self.functions[fn.qualname] = fn
                info.classes[node.name] = cls
                self.classes[cls.qualname] = cls
        # Module-level from-imports become aliases so re-exported names
        # resolve to their defining module.
        for local, origin in info.imports.names.items():
            self.aliases[f"{name}.{local}"] = origin
        self.modules[name] = info
        return info

    def _function_info(
        self, module: ModuleInfo, node: ast.AST, class_name: Optional[str]
    ) -> FunctionInfo:
        prefix = f"{module.name}.{class_name}." if class_name else f"{module.name}."
        decorators = tuple(
            _dotted(d).rsplit(".", 1)[-1] for d in node.decorator_list if _dotted(d)
        )
        returns = ""
        if node.returns is not None:
            try:
                returns = ast.unparse(node.returns)
            except (ValueError, AttributeError):  # pragma: no cover
                returns = _dotted(node.returns)
        # A multi-line signature may carry the annotation on any line
        # between ``def`` and the first body statement (typically the
        # closing ``) -> np.ndarray:`` line).
        shape_annotation = ""
        body_start = node.body[0].lineno if node.body else node.lineno + 1
        for lineno in range(node.lineno, body_start):
            if lineno in module.shape_annotations:
                shape_annotation = module.shape_annotations[lineno]
                break
        return FunctionInfo(
            qualname=f"{prefix}{node.name}",
            module=module.name,
            name=node.name,
            node=node,
            params=_params_of(node),
            class_name=class_name,
            decorators=decorators,
            unit_annotation=module.unit_annotations.get(node.lineno, ""),
            shape_annotation=shape_annotation,
            return_annotation=returns,
        )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve_alias(self, dotted: str, _depth: int = 0) -> str:
        """Follow the alias map (re-exports) to a canonical dotted name."""
        if _depth > 8 or not dotted:
            return dotted
        if dotted in self.aliases:
            return self.resolve_alias(self.aliases[dotted], _depth + 1)
        # ``repro.phy.LinkBudget.snr_db`` where the class itself is the
        # re-exported alias: rewrite the longest aliased prefix.
        head, _, tail = dotted.rpartition(".")
        if head and head in self.aliases and tail:
            return self.resolve_alias(f"{self.resolve_alias(head, _depth + 1)}.{tail}", _depth + 1)
        return dotted

    def function(self, dotted: str) -> Optional[FunctionInfo]:
        """Look up a function/method by (possibly aliased) dotted name.

        A dotted name resolving to a class yields that class's
        ``__init__`` so constructor call sites bind like calls.
        """
        dotted = self.resolve_alias(dotted)
        fn = self.functions.get(dotted)
        if fn is not None:
            return fn
        cls = self.classes.get(dotted)
        if cls is not None:
            return cls.methods.get("__init__")
        return None

    def class_info(self, dotted: str) -> Optional[ClassInfo]:
        return self.classes.get(self.resolve_alias(dotted))

    def method_on(self, cls: ClassInfo, name: str, _depth: int = 0) -> Optional[FunctionInfo]:
        """Resolve a method by name on a class, walking textual bases."""
        if name in cls.methods:
            return cls.methods[name]
        if _depth > 8:
            return None
        module = self.modules.get(cls.module)
        for base in cls.bases:
            dotted = base
            if module is not None and "." not in base:
                # A bare base name refers either to a class in the same
                # module or to a from-imported one.
                if base in module.classes:
                    dotted = f"{cls.module}.{base}"
                else:
                    dotted = module.imports.origin_of(base) or base
            base_cls = self.class_info(dotted)
            if base_cls is not None and base_cls is not cls:
                found = self.method_on(base_cls, name, _depth + 1)
                if found is not None:
                    return found
        return None


def build_symbol_table(files: List[Tuple[str, str]]) -> SymbolTable:
    """Build a :class:`SymbolTable` from ``(rel_path, source)`` pairs.

    Unparseable files are skipped — the per-file engine already
    reports them as RL000.
    """
    table = SymbolTable()
    for rel_path, source in files:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        table.add_module(rel_path, source, tree)
    return table
