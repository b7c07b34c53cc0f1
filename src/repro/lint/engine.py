"""Single-pass AST rule engine for the domain-aware linter.

The engine parses each file once and walks the tree once.  Rules
register the node types they care about; the walker dispatches every
node to the interested rules while maintaining an ancestor stack so
rules can ask questions like "which function am I inside?" without a
second traversal.

Findings carry a *fingerprint* — a short hash of (rule code, file,
enclosing scope, normalized source line, column) — which is what the
committed baseline matches against.  Fingerprints survive unrelated
edits that only move a line vertically, but change when the offending
line itself changes, so a baseline entry cannot silently cover new
code.  The scope and column components keep otherwise-identical lines
in different functions (or different columns of one line) from
colliding into interchangeable baseline entries.

Inline suppressions use ``# replint: disable=RL003`` on the first line
of the flagged statement: comma-separated ``RLnnn`` codes or ``all``,
optionally followed by a free-form reason
(``# replint: disable=RL003,RL004 legacy fixture``).
"""

from __future__ import annotations

import ast
import fnmatch
import hashlib
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.lint.config import LintConfig

#: Code used for files the engine cannot parse at all.
PARSE_ERROR_CODE = "RL000"

_SUPPRESS_RE = re.compile(
    r"#\s*replint:\s*disable=\s*"
    r"((?i:RL\d{3}|all)\b(?:\s*,\s*(?i:RL\d{3}|all)\b)*)"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    line_text: str = ""
    #: Enclosing scope ("Class.method", "function", or "" at module
    #: level) — part of the fingerprint so identical lines in
    #: different scopes stay distinct baseline entries.
    context: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching.

        Hashes (code, file, scope, normalized line text, column) — the
        line *number* is deliberately excluded so a finding keeps its
        fingerprint when unrelated edits move it vertically.
        """
        normalized = " ".join(self.line_text.split())
        digest = hashlib.sha256(
            f"{self.code}|{self.path}|{self.context}|{normalized}|{self.col}".encode(
                "utf-8"
            )
        )
        return digest.hexdigest()[:16]

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, object]:
        # "scope" duplicates "context" under the name the v2 baseline
        # format uses, so external tooling can correlate JSON findings
        # with baseline entries without knowing the historical alias.
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "context": self.context,
            "scope": self.context,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def parse_suppressions(lines: Sequence[str]) -> Dict[int, frozenset]:
    """Line number -> upper-cased codes its ``# replint: disable=`` names."""
    out: Dict[int, frozenset] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            out[lineno] = frozenset(
                code.strip().upper() for code in match.group(1).split(",")
            )
    return out


class FileContext:
    """Per-file state shared by every rule during the single pass.

    Rules report through :meth:`report`, which applies config
    disables, per-file ignores and inline suppressions.
    """

    def __init__(
        self,
        rel_path: str,
        module: str,
        source: str,
        tree: ast.Module,
        config: LintConfig,
    ):
        self.config = config
        self.findings: List[Finding] = []
        self.rel_path = rel_path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: Ancestors of the node currently being visited (outermost
        #: first; the node itself is not included).
        self.stack: List[ast.AST] = []
        self.suppressions = parse_suppressions(self.lines)

    def enclosing_function(self) -> Optional[ast.AST]:
        """Nearest enclosing function/lambda of the current node."""
        for node in reversed(self.stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return node
        return None

    def scope_name(self) -> str:
        """Dotted class/function scope of the current node ("" at top level)."""
        parts = [
            node.name
            for node in self.stack
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        return ".".join(parts)

    def report(self, node: ast.AST, code: str, message: str) -> None:
        """Record a finding at ``node`` unless it is suppressed or
        configured away."""
        if code in self.config.disable or self.config.is_ignored(self.rel_path, code):
            return
        lineno = getattr(node, "lineno", 1)
        codes = self.suppressions.get(lineno)
        if codes is not None and (code.upper() in codes or "ALL" in codes):
            return
        lines = self.lines
        self.findings.append(
            Finding(
                path=self.rel_path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
                line_text=lines[lineno - 1].strip() if 1 <= lineno <= len(lines) else "",
                context=self.scope_name(),
            )
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``code``, ``summary``, and ``node_types`` (the AST
    node classes they want dispatched) and implement :meth:`visit`.
    ``begin_file`` runs before the walk (e.g. to scan imports);
    ``applies_to`` lets a rule exclude whole modules cheaply.
    """

    code: str = "RL000"
    name: str = "base"
    summary: str = ""
    node_types: Tuple[type, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def begin_file(self, ctx: FileContext) -> None:
        pass

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        raise NotImplementedError

    def end_file(self, ctx: FileContext) -> None:
        pass


#: Rule registry: code -> rule class, populated by :func:`register`.
RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


@dataclass
class ImportMap:
    """Module/function aliases a rule cares about, scanned per file.

    Maps are keyed by the local name; values are the canonical dotted
    origin (e.g. ``{"np": "numpy", "rnd": "random"}`` or for from-
    imports ``{"default_rng": "numpy.random.default_rng"}``).
    """

    modules: Dict[str, str] = field(default_factory=dict)
    names: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def scan(cls, tree: ast.Module) -> "ImportMap":
        out = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    out.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        out.modules[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    out.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return out

    def module_of(self, local: str) -> Optional[str]:
        return self.modules.get(local)

    def origin_of(self, local: str) -> Optional[str]:
        return self.names.get(local)


def _dispatch_table(
    rules: Sequence[Rule],
) -> Dict[type, List[Rule]]:
    table: Dict[type, List[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            table.setdefault(node_type, []).append(rule)
    return table


def run_rules(ctx: FileContext, rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run the single-pass walk over an already-parsed file context."""
    if rules is None:
        rules = [cls() for cls in RULES.values()]
    active = [r for r in rules if r.code not in ctx.config.disable and r.applies_to(ctx)]
    for rule in active:
        rule.begin_file(ctx)
    table = _dispatch_table(active)

    def walk(node: ast.AST) -> None:
        for rule in table.get(type(node), ()):
            rule.visit(node, ctx)
        ctx.stack.append(node)
        for child in ast.iter_child_nodes(node):
            walk(child)
        ctx.stack.pop()

    walk(ctx.tree)
    for rule in active:
        rule.end_file(ctx)
    ctx.findings.sort(key=Finding.sort_key)
    return ctx.findings


def module_name_for(rel_path: pathlib.PurePath) -> str:
    """Dotted module name of a file path (``src`` prefixes stripped)."""
    parts = list(rel_path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    while parts and parts[0] in ("src", ".", ""):
        parts = parts[1:]
    return ".".join(parts)


def lint_source(
    source: str,
    module: str = "snippet",
    rel_path: str = "snippet.py",
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint a source string — the entry point used by the rule tests."""
    config = config if config is not None else LintConfig()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=rel_path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                code=PARSE_ERROR_CODE,
                message=f"could not parse file: {exc.msg}",
            )
        ]
    ctx = FileContext(rel_path, module, source, tree, config)
    return run_rules(ctx)


def iter_python_files(
    paths: Iterable[pathlib.Path], config: LintConfig
) -> List[pathlib.Path]:
    """Expand files/directories into a sorted, excluded-filtered list."""
    out: List[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    unique = sorted(set(out))
    kept = []
    for path in unique:
        posix = path.as_posix()
        if any(fnmatch.fnmatch(posix, pat) for pat in config.exclude):
            continue
        kept.append(path)
    return kept


def relative_path(path: pathlib.Path, root: pathlib.Path) -> pathlib.Path:
    """``path`` relative to ``root``; just its name when outside it."""
    try:
        return path.resolve().relative_to(root.resolve())
    except ValueError:
        return pathlib.Path(path.name)


def lint_path(
    path: pathlib.Path, root: pathlib.Path, config: LintConfig
) -> List[Finding]:
    rel = relative_path(path, root)
    rel_posix = rel.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Finding(
                path=rel_posix,
                line=1,
                col=1,
                code=PARSE_ERROR_CODE,
                message=f"could not read file: {exc}",
            )
        ]
    return lint_source(source, module_name_for(rel), rel_posix, config)


def _lint_file_job(item: Tuple[str, str, LintConfig]) -> List[Finding]:
    """Worker for ``--jobs``: lint one file in a pool process."""
    # The rule registry is populated by importing the package; a
    # spawn-started worker unpickles this module without that side
    # effect, so trigger it explicitly.
    import repro.lint  # noqa: F401

    path_str, root_str, config = item
    return lint_path(pathlib.Path(path_str), pathlib.Path(root_str), config)


def lint_paths(
    paths: Iterable[pathlib.Path],
    root: pathlib.Path,
    config: LintConfig,
    jobs: int = 1,
) -> List[Finding]:
    """Lint every python file under ``paths``; deterministic order.

    ``jobs > 1`` fans files out to a process pool.  Findings are
    re-sorted after the merge, so the output is byte-identical for any
    worker count; a broken pool degrades to the serial path.
    """
    files = iter_python_files(list(paths), config)
    findings: List[Finding] = []
    if jobs > 1 and len(files) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        items = [(str(path), str(root), config) for path in files]
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for chunk in pool.map(_lint_file_job, items):
                    findings.extend(chunk)
        except BrokenProcessPool:
            findings = []
            for item in items:
                findings.extend(_lint_file_job(item))
    else:
        for path in files:
            findings.extend(lint_path(path, root, config))
    findings.sort(key=Finding.sort_key)
    return findings
