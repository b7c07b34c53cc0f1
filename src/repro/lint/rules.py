"""Domain rules RL001-RL008.

Each rule targets a bug class that has actually corrupted 60 GHz
measurement reproductions: unseeded randomness breaking the campaign
cache's determinism contract, wall-clock reads leaking into simulated
time, hand-rolled dB math drifting from the shared helpers, log/linear
unit mixing, float equality in link-budget code, frozen-spec mutation,
nondeterministic iteration feeding content-addressed hashes, and
swallowed simulator errors.

These per-file rules compose with the whole-program passes in
:mod:`repro.lint.flow`: unit inference (RL010-RL012), RNG taint
(RL013-RL015), DES sim-time soundness (RL040-RL046, ``--des``), and
physical-dimension inference (RL050-RL056, ``--dim``).
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from repro.lint.config import module_in
from repro.lint.engine import FileContext, ImportMap, Rule, register

# ---------------------------------------------------------------------------
# RL001 — unseeded / global RNG
# ---------------------------------------------------------------------------

#: numpy.random attributes that are fine to reference: explicitly
#: seeded construction paths, not the legacy global state.
_NP_RANDOM_OK = {
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

#: ``random`` module attributes that construct an explicitly seedable
#: instance rather than touching the global RNG.
_PY_RANDOM_OK = {"Random"}


def _default_rng_is_unseeded(node: ast.Call) -> bool:
    """True when a ``default_rng`` call pulls OS entropy.

    Both the bare ``default_rng()`` and an explicit ``None`` seed
    (``default_rng(None)`` / ``default_rng(seed=None)``) fall back to
    operating-system entropy and are equally nondeterministic.
    """
    if not node.args and not node.keywords:
        return True
    if node.args and isinstance(node.args[0], ast.Constant) and node.args[0].value is None:
        return True
    return any(
        kw.arg == "seed" and isinstance(kw.value, ast.Constant) and kw.value.value is None
        for kw in node.keywords
    )


@register
class UnseededRngRule(Rule):
    code = "RL001"
    name = "unseeded-rng"
    summary = "module-global or unseeded RNG breaks run reproducibility"
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return not module_in(ctx.module, ctx.config.rng_entry_points)

    def begin_file(self, ctx: FileContext) -> None:
        self._imports = ImportMap.scan(ctx.tree)

    def _flag(self, node: ast.AST, ctx: FileContext, what: str) -> None:
        ctx.report(
            node,
            self.code,
            f"{what} — thread an explicit numpy.random.default_rng(seed) "
            "through instead so runs are reproducible",
        )

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            origin = self._imports.module_of(func.value.id)
            if origin == "random" and func.attr not in _PY_RANDOM_OK:
                self._flag(node, ctx, f"call to global RNG random.{func.attr}()")
            elif origin == "numpy.random":
                self._visit_np_random(node, func.attr, ctx)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            inner = func.value
            if (
                isinstance(inner.value, ast.Name)
                and inner.attr == "random"
                and (self._imports.module_of(inner.value.id) or "").startswith("numpy")
            ):
                self._visit_np_random(node, func.attr, ctx)
        elif isinstance(func, ast.Name):
            origin = self._imports.origin_of(func.id)
            if origin == "numpy.random.default_rng":
                if _default_rng_is_unseeded(node):
                    self._flag(node, ctx, "unseeded numpy.random.default_rng()")
            elif origin and origin.startswith("numpy.random."):
                tail = origin.rsplit(".", 1)[1]
                if tail not in _NP_RANDOM_OK:
                    self._flag(node, ctx, f"call to legacy global numpy {origin}()")
            elif origin and origin.startswith("random."):
                tail = origin.rsplit(".", 1)[1]
                if tail not in _PY_RANDOM_OK:
                    self._flag(node, ctx, f"call to global RNG {origin}()")

    def _visit_np_random(self, node: ast.Call, attr: str, ctx: FileContext) -> None:
        if attr == "default_rng":
            if _default_rng_is_unseeded(node):
                self._flag(node, ctx, "unseeded numpy.random.default_rng()")
        elif attr not in _NP_RANDOM_OK:
            self._flag(node, ctx, f"call to legacy global numpy.random.{attr}()")


# ---------------------------------------------------------------------------
# RL002 — wall-clock reads in simulation code
# ---------------------------------------------------------------------------

_TIME_FUNCS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
}
_DATETIME_FUNCS = {"now", "utcnow", "today"}


@register
class WallClockRule(Rule):
    code = "RL002"
    name = "wall-clock"
    summary = "simulation code must take time from the DES clock"
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        # The sanctioned clock shim(s) are exempt *by name* — they are
        # the single doorway everything else must go through.
        if module_in(ctx.module, ctx.config.clock_modules):
            return False
        return module_in(ctx.module, ctx.config.wall_clock_packages)

    def begin_file(self, ctx: FileContext) -> None:
        self._imports = ImportMap.scan(ctx.tree)

    def visit(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        what: Optional[str] = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            origin = self._imports.module_of(func.value.id)
            from_origin = self._imports.origin_of(func.value.id)
            if origin == "time" and func.attr in _TIME_FUNCS:
                what = f"time.{func.attr}()"
            elif origin == "datetime" and func.attr in _DATETIME_FUNCS:
                what = f"datetime.{func.attr}()"
            elif (
                from_origin in ("datetime.datetime", "datetime.date")
                and func.attr in _DATETIME_FUNCS
            ):
                what = f"{from_origin}.{func.attr}()"
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            inner = func.value
            if (
                isinstance(inner.value, ast.Name)
                and self._imports.module_of(inner.value.id) == "datetime"
                and inner.attr in ("datetime", "date")
                and func.attr in _DATETIME_FUNCS
            ):
                what = f"datetime.{inner.attr}.{func.attr}()"
        elif isinstance(func, ast.Name):
            origin = self._imports.origin_of(func.id)
            if origin and origin.startswith("time.") and origin[5:] in _TIME_FUNCS:
                what = f"{origin}()"
        if what is not None:
            ctx.report(
                node,
                self.code,
                f"wall-clock read {what} in simulation code — simulated "
                "time must come from the DES clock (Simulator.now); real "
                "telemetry belongs in allowlisted modules",
            )


# ---------------------------------------------------------------------------
# RL003 — inline dB <-> linear conversions
# ---------------------------------------------------------------------------


def _is_log10_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "log10") or (
        isinstance(func, ast.Attribute) and func.attr == "log10"
    )


def _const_value(node: ast.AST) -> Optional[float]:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    return None


@register
class InlineDbMathRule(Rule):
    code = "RL003"
    name = "inline-db-math"
    summary = "dB conversions must go through repro.analysis.dbmath"
    node_types = (ast.BinOp,)

    def applies_to(self, ctx: FileContext) -> bool:
        return not module_in(ctx.module, ctx.config.dbmath_modules)

    def visit(self, node: ast.BinOp, ctx: FileContext) -> None:
        if isinstance(node.op, ast.Mult):
            for const, other in ((node.left, node.right), (node.right, node.left)):
                factor = _const_value(const)
                if factor in (10.0, 20.0) and _is_log10_call(other):
                    helper = (
                        "linear_to_db/linear_to_db_scalar"
                        if factor == 10.0
                        else "amplitude_to_db_scalar"
                    )
                    ctx.report(
                        node,
                        self.code,
                        f"inline {factor:.0f}*log10(...) conversion — use "
                        f"repro.analysis.dbmath.{helper} (keeps the DB_FLOOR "
                        "guard consistent)",
                    )
                    return
        elif isinstance(node.op, ast.Pow):
            base = _const_value(node.left)
            if base != 10.0:
                return
            exp = node.right
            if isinstance(exp, ast.BinOp) and isinstance(exp.op, ast.Div):
                divisor = _const_value(exp.right)
                if divisor in (10.0, 20.0):
                    helper = (
                        "db_to_linear/db_to_linear_scalar"
                        if divisor == 10.0
                        else "db_to_amplitude_scalar"
                    )
                    ctx.report(
                        node,
                        self.code,
                        f"inline 10**(x/{divisor:.0f}) conversion — use "
                        f"repro.analysis.dbmath.{helper}",
                    )


# ---------------------------------------------------------------------------
# RL004 — log/linear unit mixing
# ---------------------------------------------------------------------------

_LOG_SUFFIXES = ("_db", "_dbm", "_dbi")
_LINEAR_SUFFIXES = ("_mw", "_lin", "_linear", "_watts")


def _identifier_of(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unit_group(name: Optional[str]) -> Optional[str]:
    if name is None:
        return None
    lowered = name.lower()
    if lowered.endswith(_LOG_SUFFIXES):
        return "log"
    if lowered.endswith(_LINEAR_SUFFIXES):
        return "linear"
    return None


@register
class UnitMixingRule(Rule):
    code = "RL004"
    name = "db-unit-mixing"
    summary = "adding dB-suffixed and linear-suffixed values without converting"
    node_types = (ast.BinOp,)

    def visit(self, node: ast.BinOp, ctx: FileContext) -> None:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        left = _unit_group(_identifier_of(node.left))
        right = _unit_group(_identifier_of(node.right))
        if left and right and left != right:
            left_name = _identifier_of(node.left)
            right_name = _identifier_of(node.right)
            ctx.report(
                node,
                self.code,
                f"arithmetic mixes log-domain '{left_name}' with linear-"
                f"domain '{right_name}' without a dbmath conversion — "
                "powers add in the linear domain, gains in dB",
            )


# ---------------------------------------------------------------------------
# RL005 — float equality in physics modules
# ---------------------------------------------------------------------------


@register
class FloatEqualityRule(Rule):
    code = "RL005"
    name = "float-equality"
    summary = "exact ==/!= against float literals in physics code"
    node_types = (ast.Compare,)

    def applies_to(self, ctx: FileContext) -> bool:
        return module_in(ctx.module, ctx.config.physics_packages)

    def visit(self, node: ast.Compare, ctx: FileContext) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (operands[i], operands[i + 1]):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    and side.value != 0.0
                ):
                    ctx.report(
                        node,
                        self.code,
                        f"exact float comparison against {side.value!r} — "
                        "use math.isclose or an explicit tolerance "
                        "(comparisons against 0.0 are exempt as exact-zero "
                        "guards)",
                    )
                    return


# ---------------------------------------------------------------------------
# RL006 — mutable defaults and frozen campaign-spec mutation
# ---------------------------------------------------------------------------

_SPEC_TYPES = {"CampaignSpec", "ScenarioSpec"}
_MUTABLE_CTORS = {"list", "dict", "set"}


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    if isinstance(node, ast.Subscript):  # Optional[CampaignSpec] etc.
        return _annotation_name(node.slice)
    return None


@register
class MutationHazardRule(Rule):
    code = "RL006"
    name = "mutation-hazard"
    summary = "mutable default arguments / mutation of frozen campaign specs"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Call, ast.Assign)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            self._check_defaults(node, ctx)
        elif isinstance(node, ast.Call):
            self._check_object_setattr(node, ctx)
        elif isinstance(node, ast.Assign):
            self._check_spec_assignment(node, ctx)

    def _check_defaults(self, node: ast.AST, ctx: FileContext) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CTORS
            )
            if mutable:
                ctx.report(
                    default,
                    self.code,
                    "mutable default argument is shared across calls — "
                    "default to None and construct inside the function",
                )

    def _check_object_setattr(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            return
        enclosing = ctx.enclosing_function()
        if enclosing is not None and getattr(enclosing, "name", "") == "__post_init__":
            return
        ctx.report(
            node,
            self.code,
            "object.__setattr__ outside __post_init__ mutates a frozen "
            "dataclass — campaign specs are immutable by contract; build "
            "a new spec (e.g. with_overrides) instead",
        )

    def _check_spec_assignment(self, node: ast.Assign, ctx: FileContext) -> None:
        spec_params = self._spec_parameters(ctx)
        if not spec_params:
            return
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in spec_params
            ):
                ctx.report(
                    node,
                    self.code,
                    f"assignment to attribute of frozen campaign spec "
                    f"'{target.value.id}' — specs are immutable; derive a "
                    "new one with with_overrides",
                )

    def _spec_parameters(self, ctx: FileContext) -> Set[str]:
        enclosing = ctx.enclosing_function()
        if enclosing is None or isinstance(enclosing, ast.Lambda):
            return set()
        names: Set[str] = set()
        args = enclosing.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_name(arg.annotation) in _SPEC_TYPES:
                names.add(arg.arg)
        return names


# ---------------------------------------------------------------------------
# RL007 — unordered iteration feeding hashed/serialized output
# ---------------------------------------------------------------------------

_SERIALIZE_ATTRS = {
    "dump",
    "dumps",
    "hexdigest",
    "digest",
    "sha256",
    "sha1",
    "md5",
    "blake2b",
    "blake2s",
}


def _is_setish(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in ("keys", "values", "items"):
            return True
    return False


@register
class UnorderedHashIterationRule(Rule):
    code = "RL007"
    name = "unordered-hash-iteration"
    summary = "set/dict iteration order feeding hashed or serialized output"
    node_types = (ast.For, ast.comprehension)

    def begin_file(self, ctx: FileContext) -> None:
        self._cache: Dict[int, bool] = {}

    def _serializes(self, func_node: ast.AST) -> bool:
        key = id(func_node)
        if key not in self._cache:
            found = False
            for sub in ast.walk(func_node):
                if isinstance(sub, ast.Call):
                    f = sub.func
                    name = (
                        f.attr
                        if isinstance(f, ast.Attribute)
                        else (f.id if isinstance(f, ast.Name) else None)
                    )
                    if name in _SERIALIZE_ATTRS:
                        found = True
                        break
            self._cache[key] = found
        return self._cache[key]

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        iter_expr = node.iter
        if not _is_setish(iter_expr):
            return
        enclosing = ctx.enclosing_function()
        if enclosing is None or not self._serializes(enclosing):
            return
        # A generator feeding sorted()/min()/max() imposes an order of
        # its own, so the underlying iteration order is immaterial.
        for ancestor in reversed(ctx.stack):
            if ancestor is enclosing:
                break
            if (
                isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Name)
                and ancestor.func.id in ("sorted", "min", "max")
            ):
                return
        if isinstance(iter_expr, ast.Call) and isinstance(iter_expr.func, ast.Attribute):
            what = f".{iter_expr.func.attr}()"
        else:
            what = "set"
        ctx.report(
            node if isinstance(node, ast.For) else iter_expr,
            self.code,
            f"iteration over {what} inside a function that hashes or "
            "serializes — wrap in sorted(...) so the cache key / output "
            "is deterministic",
        )


# ---------------------------------------------------------------------------
# RL008 — swallowed simulator errors
# ---------------------------------------------------------------------------


def _is_broad(exc_type: Optional[ast.AST]) -> bool:
    if exc_type is None:
        return True
    if isinstance(exc_type, ast.Name):
        return exc_type.id in ("Exception", "BaseException")
    if isinstance(exc_type, ast.Tuple):
        return any(_is_broad(el) for el in exc_type.elts)
    return False


def _body_is_noop(body) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


@register
class ExceptionSwallowRule(Rule):
    code = "RL008"
    name = "exception-swallow"
    summary = "bare/broad except that silently discards simulator errors"
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.ExceptHandler, ctx: FileContext) -> None:
        if node.type is None:
            ctx.report(
                node,
                self.code,
                "bare except: catches everything including KeyboardInterrupt "
                "— name the exceptions a cell failure can raise",
            )
        elif _is_broad(node.type) and _body_is_noop(node.body):
            ctx.report(
                node,
                self.code,
                "broad except with a pass body silently swallows simulator "
                "errors — log, re-raise, or narrow the exception type",
            )
