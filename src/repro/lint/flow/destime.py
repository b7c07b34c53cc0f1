"""Sim-time and event-handler soundness analysis (rules RL040-RL046).

The DES core (:mod:`repro.mac.simulator`) is a callback-scheduled
float-time event loop, and the paper's frame-level results depend on
exact SIFS/slot event ordering.  Restructuring such a loop is exactly
where silent nondeterminism and timestamp drift creep in, so this pass
pins down the invariants every event handler must obey — the static
contract the engine rewrite can be verified against:

* **RL040** — a ``schedule()``/``schedule_at()`` delay that may be
  negative, NaN, or non-finite.  The simulator raises on these at
  runtime; the pass proves the risk at the call site via sign/constant
  propagation over the timing arithmetic (``sifs_s + ack_frame_s``
  chains are fine; an unguarded subtraction is not).
* **RL041** — float sim-time accumulated in a loop (``t += dt``) and
  fed to the scheduler.  Accumulated rounding error drifts the
  timestamps; the closed form ``t0 + k*dt`` or a schedule chain does
  not.
* **RL042** — stale-``now`` capture: ``sim.now`` read into a local
  that is then referenced inside a *later-scheduled* callback closure.
  By the time the handler runs, simulated time has moved on.
* **RL043** — wall-clock, process-global-RNG, or environment reads
  reachable from event-handler context (the callback-context-sensitive
  extension of RL002): every ``schedule*`` callsite seeds a
  closure over the call graph, and anything impure inside it makes
  event outcomes depend on the host, not the seed.
* **RL044** — cache-invalidation obligation: a write to device pose or
  beam state (``position``, ``orientation_rad``, ``data_pattern``,
  ``control_pattern``) not followed by a coupling-cache invalidation
  before the next SNR evaluation in the same function.  This is the
  protocol :class:`repro.mobility.MobileStation` obeys manually today,
  checked as a source-order typestate.
* **RL045** — zero-delay self-rescheduling handlers: the event loop
  processes same-timestamp events before advancing time, so a handler
  that reschedules itself at delay 0 storms the queue forever.
* **RL046** — float ``==``/``!=`` on sim-time values, and event tuples
  pushed onto a heap without the deterministic counter tiebreak
  (equal timestamps then fall through to comparing the payload —
  callables are unorderable and ids are nondeterministic).

Scope is the ``des-packages`` pyproject key (the MAC/mobility/
experiment layers that drive the simulator); RL043 follows handlers
wherever the call graph leads, with the sanctioned ``clock-modules``
exempt.  The runtime counterpart is
:class:`repro.sanitize.SimTimeAudit`.
"""

from __future__ import annotations

import ast
import math
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.config import module_in
from repro.lint.flow.callgraph import CallGraph, CallResolver
from repro.lint.flow.symbols import FunctionInfo, ModuleInfo, SymbolTable

#: Scheduler entry points on sim-like receivers.
SCHEDULE_METHODS = ("schedule", "schedule_at")

#: Trailing receiver names treated as "the simulator" (``self.sim``,
#: ``setup.sim``, ``self._sim``, a bare ``sim`` local/parameter).
SIM_RECEIVER_NAMES = frozenset({"sim", "_sim", "simulator", "_simulator"})

#: Station/device pose and beam attributes whose writes dirty the
#: coupling cache (RL044).
POSE_ATTRS = frozenset(
    {"position", "orientation_rad", "data_pattern", "control_pattern"}
)

#: Method names that discharge the invalidation obligation (RL044).
INVALIDATE_METHODS = frozenset({"invalidate", "clear_cache"})

#: Method/function names that evaluate SNR/coupling from the (possibly
#: cached) pose state (RL044).
SNR_EVAL_NAMES = frozenset(
    {
        "snr_db",
        "coupling_db",
        "sensed_power_dbm",
        "current_snr_db",
        "predicted_snr_db",
    }
)

#: Wall-clock reads forbidden in event-handler context (RL043) — the
#: RL002 set plus the monotonic/perf counters telemetry may read but a
#: handler must never consult.
HANDLER_CLOCK_READS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Process-global RNG draws (not seeded per simulation) — a handler
#: using these decouples event outcomes from the simulation seed.
GLOBAL_RNG_READS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.uniform",
        "random.gauss",
        "random.expovariate",
        "random.choice",
        "random.shuffle",
        "random.sample",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.random",
        "numpy.random.randint",
        "numpy.random.normal",
        "numpy.random.uniform",
        "numpy.random.choice",
    }
)

#: Rule codes that name work for ``--des --worklist``.
DES_WORKLIST_CODES = frozenset(
    {"RL040", "RL041", "RL042", "RL043", "RL044", "RL045", "RL046"}
)


def _src(node: ast.AST, limit: int = 60) -> str:
    """Source text of a node for messages (best-effort, truncated)."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure
        return "<expr>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _dotted_name(node: ast.AST) -> str:
    """``self.sim`` / ``setup.sim`` as a dotted string ('' if not)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _const_float(node: ast.AST) -> Optional[float]:
    """Fold a numeric constant expression to a float, or None."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp):
        inner = _const_float(node.operand)
        if inner is None:
            return None
        if isinstance(node.op, ast.USub):
            return -inner
        if isinstance(node.op, ast.UAdd):
            return inner
        return None
    if isinstance(node, ast.BinOp):
        left = _const_float(node.left)
        right = _const_float(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
        except (ZeroDivisionError, OverflowError):
            return math.inf
        return None
    return None


#: Delay risk verdict: ``(kind, detail)`` where kind is None (proven or
#: assumed safe), "negative", "nan", or "non-finite".
_Risk = Tuple[Optional[str], str]

_SAFE: _Risk = (None, "")


class ScheduleSite:
    """One ``sim.schedule(...)`` / ``sim.schedule_at(...)`` call site."""

    __slots__ = ("call", "method", "delay", "callback")

    def __init__(self, call: ast.Call, method: str):
        self.call = call
        self.method = method
        self.delay: Optional[ast.AST] = call.args[0] if call.args else None
        callback: Optional[ast.AST] = call.args[1] if len(call.args) > 1 else None
        if callback is None:
            for kw in call.keywords:
                if kw.arg == "callback":
                    callback = kw.value
        self.callback = callback


def _schedule_method(call: ast.Call) -> Optional[str]:
    """``schedule``/``schedule_at`` if the call targets a simulator."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in SCHEDULE_METHODS:
        return None
    receiver = _dotted_name(func.value)
    if not receiver:
        return None
    if receiver.rsplit(".", 1)[-1] in SIM_RECEIVER_NAMES:
        return func.attr
    return None


def _eval_delay(node: ast.AST, env: Dict[str, _Risk]) -> _Risk:
    """Sign/finiteness verdict for a delay expression.

    Unknown quantities (timing attributes, call results) are *assumed*
    non-negative and finite — the pass flags provable risk, not every
    symbolic expression.  What it proves risky: negative/NaN/inf
    constants (after folding), ``float("nan"/"inf")``, ``math.nan``-
    style attributes, unary minus of a non-constant, unguarded
    subtraction, and division by a constant zero.  ``max(0.0, ...)``
    and a dominating ``if x > 0`` guard discharge the risk.
    """
    folded = _const_float(node)
    if folded is not None:
        if math.isnan(folded):
            return ("nan", f"constant {_src(node)}")
        if math.isinf(folded):
            return ("non-finite", f"constant {_src(node)}")
        if folded < 0:
            return ("negative", f"negative constant {folded:g}")
        return _SAFE
    if isinstance(node, ast.Name):
        return env.get(node.id, _SAFE)
    if isinstance(node, ast.Attribute):
        dotted = _dotted_name(node)
        tail = dotted.rsplit(".", 1)[-1]
        if tail == "nan":
            return ("nan", dotted)
        if tail == "inf":
            return ("non-finite", dotted)
        return _SAFE
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if (
                func.id == "float"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                text = node.args[0].value.strip().lower()
                if "nan" in text:
                    return ("nan", f'float("{text}")')
                if "inf" in text:
                    return ("non-finite", f'float("{text}")')
                return _SAFE
            if func.id == "max":
                risks = [_eval_delay(a, env) for a in node.args]
                for risk in risks:
                    if risk[0] in ("nan", "non-finite"):
                        return risk
                for arg in node.args:
                    floor = _const_float(arg)
                    if floor is not None and floor >= 0:
                        return _SAFE  # max(0.0, ...) clamps the sign
                for risk in risks:
                    if risk[0]:
                        return risk
                return _SAFE
            if func.id == "min":
                for arg in node.args:
                    risk = _eval_delay(arg, env)
                    if risk[0]:
                        return risk
                return _SAFE
            if func.id == "abs":
                if node.args:
                    risk = _eval_delay(node.args[0], env)
                    if risk[0] in ("nan", "non-finite"):
                        return risk
                return _SAFE
        return _SAFE  # unknown call: assume a sane duration
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        risk = _eval_delay(node.operand, env)
        if risk[0] in ("nan", "non-finite"):
            return risk
        return ("negative", f"unary minus '{_src(node)}'")
    if isinstance(node, ast.BinOp):
        left = _eval_delay(node.left, env)
        right = _eval_delay(node.right, env)
        for risk in (left, right):
            if risk[0] in ("nan", "non-finite"):
                return risk
        if isinstance(node.op, ast.Add):
            return left if left[0] else right
        if isinstance(node.op, ast.Sub):
            subtrahend = _const_float(node.right)
            if subtrahend is not None and subtrahend <= 0:
                return left
            if left[0]:
                return left
            return ("negative", f"unguarded subtraction '{_src(node)}'")
        if isinstance(node.op, ast.Mult):
            negatives = [r for r in (left, right) if r[0] == "negative"]
            if len(negatives) == 1:
                return negatives[0]
            return _SAFE
        if isinstance(node.op, ast.Div):
            divisor = _const_float(node.right)
            if divisor == 0:
                return ("non-finite", f"division by zero '{_src(node)}'")
            return left if left[0] else _SAFE
        return _SAFE
    if isinstance(node, ast.IfExp):
        for branch in (node.body, node.orelse):
            risk = _eval_delay(branch, env)
            if risk[0]:
                return risk
        return _SAFE
    return _SAFE


def _guarded_names(test: ast.AST) -> Set[str]:
    """Names proven non-negative by an ``if x > 0`` / ``if x >= 0`` test."""
    names: Set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            names |= _guarded_names(value)
        return names
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.left, ast.Name)
        and isinstance(test.ops[0], (ast.Gt, ast.GtE))
    ):
        bound = _const_float(test.comparators[0])
        if bound is not None and bound >= 0:
            names.add(test.left.id)
    return names


class DesPass:
    """Discrete-event-time soundness pass (``repro lint --des``)."""

    def __init__(
        self,
        table: SymbolTable,
        graph: CallGraph,
        config,
        reporter,
    ):
        self.table = table
        self.graph = graph
        self.config = config
        self.reporter = reporter
        self.resolver = CallResolver(table)

    # -- driver ------------------------------------------------------

    def run(self) -> None:
        handler_seeds: List[Tuple[object, ...]] = []
        for module in sorted(self.table.modules.values(), key=lambda m: m.name):
            if not module_in(module.name, self.config.des_packages):
                continue
            for fn in self._functions(module):
                sites = self._schedule_sites(fn.node)
                self._check_delays_and_drift(fn, module, sites)
                self._check_stale_now(fn, module, sites)
                self._check_self_reschedule(fn, module, sites)
                self._check_time_comparisons(fn, module)
                self._check_cache_invalidation(fn, module)
                for site in sites:
                    handler_seeds.extend(self._resolve_handler(site, fn, module))
        self._check_handler_purity(handler_seeds)

    def _functions(self, module: ModuleInfo) -> Iterator[FunctionInfo]:
        everything = list(module.functions.values())
        for cls in module.classes.values():
            everything.extend(cls.methods.values())
        yield from sorted(everything, key=lambda f: f.node.lineno)

    def _schedule_sites(self, fn_node: ast.AST) -> List[ScheduleSite]:
        sites = []
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Call):
                method = _schedule_method(node)
                if method is not None:
                    sites.append(ScheduleSite(node, method))
        sites.sort(key=lambda s: (s.call.lineno, s.call.col_offset))
        return sites

    # -- RL040 / RL041 ----------------------------------------------

    def _check_delays_and_drift(
        self, fn: FunctionInfo, module: ModuleInfo, sites: List[ScheduleSite]
    ) -> None:
        """Ordered statement walk: sign-track locals, audit each delay.

        One walk serves both rules — the environment of local delay
        values has to be built in source order anyway (an assignment
        after a schedule call must not launder an earlier risk), and
        loop depth is tracked on the same traversal for RL041.
        """
        site_by_call: Dict[int, ScheduleSite] = {id(s.call): s for s in sites}
        accumulator_names: Set[str] = set()
        for site in sites:
            if site.delay is not None:
                accumulator_names |= {
                    sub.id
                    for sub in ast.walk(site.delay)
                    if isinstance(sub, ast.Name)
                }
        flagged_drift: Set[str] = set()

        def audit_expr(expr: ast.AST, env: Dict[str, _Risk]) -> None:
            for node in ast.walk(expr):
                site = site_by_call.get(id(node)) if isinstance(node, ast.Call) else None
                if site is None or site.delay is None:
                    continue
                kind, detail = _eval_delay(site.delay, env)
                if kind is None:
                    continue
                what = "delay" if site.method == "schedule" else "absolute time"
                self.reporter.report(
                    module,
                    site.call,
                    "RL040",
                    f"{site.method}() {what} '{_src(site.delay)}' may be "
                    f"{kind} ({detail}) — the simulator raises on "
                    "negative/non-finite delays; clamp with max(0.0, ...) "
                    "or fix the timing arithmetic",
                    context=fn.qualname,
                )

        def flag_drift(name: str, node: ast.AST) -> None:
            if name in flagged_drift:
                return
            flagged_drift.add(name)
            self.reporter.report(
                module,
                node,
                "RL041",
                f"sim-time accumulator '{name}' is advanced with float "
                "addition in a loop and fed to the scheduler — rounding "
                "error compounds per iteration (timestamp drift); use the "
                "closed form t0 + k*dt or a schedule chain",
                context=fn.qualname,
            )

        def scan_block(
            stmts: List[ast.stmt], env: Dict[str, _Risk], loop_depth: int
        ) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.Assign):
                    audit_expr(stmt.value, env)
                    if len(stmt.targets) == 1 and isinstance(
                        stmt.targets[0], ast.Name
                    ):
                        name = stmt.targets[0].id
                        if (
                            loop_depth
                            and name in accumulator_names
                            and isinstance(stmt.value, ast.BinOp)
                            and isinstance(stmt.value.op, ast.Add)
                            and any(
                                isinstance(sub, ast.Name) and sub.id == name
                                for sub in ast.walk(stmt.value)
                            )
                        ):
                            flag_drift(name, stmt)
                        env[name] = _eval_delay(stmt.value, env)
                elif isinstance(stmt, ast.AugAssign):
                    audit_expr(stmt.value, env)
                    if (
                        loop_depth
                        and isinstance(stmt.op, (ast.Add, ast.Sub))
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id in accumulator_names
                    ):
                        flag_drift(stmt.target.id, stmt)
                elif isinstance(stmt, ast.If):
                    audit_expr(stmt.test, env)
                    body_env = dict(env)
                    for name in _guarded_names(stmt.test):
                        body_env[name] = _SAFE
                    scan_block(stmt.body, body_env, loop_depth)
                    scan_block(stmt.orelse, dict(env), loop_depth)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    audit_expr(stmt.iter, env)
                    scan_block(stmt.body, dict(env), loop_depth + 1)
                    scan_block(stmt.orelse, dict(env), loop_depth)
                elif isinstance(stmt, ast.While):
                    audit_expr(stmt.test, env)
                    scan_block(stmt.body, dict(env), loop_depth + 1)
                    scan_block(stmt.orelse, dict(env), loop_depth)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        audit_expr(item.context_expr, env)
                    scan_block(stmt.body, env, loop_depth)
                elif isinstance(stmt, ast.Try):
                    scan_block(stmt.body, dict(env), loop_depth)
                    for handler in stmt.handlers:
                        scan_block(handler.body, dict(env), loop_depth)
                    scan_block(stmt.orelse, dict(env), loop_depth)
                    scan_block(stmt.finalbody, dict(env), loop_depth)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # Nested handler definition: fresh scope, no loop.
                    scan_block(stmt.body, {}, 0)
                elif isinstance(stmt, ast.ClassDef):
                    continue
                else:
                    audit_expr(stmt, env)

        scan_block(list(fn.node.body), {}, 0)

    # -- RL042 -------------------------------------------------------

    def _check_stale_now(
        self, fn: FunctionInfo, module: ModuleInfo, sites: List[ScheduleSite]
    ) -> None:
        now_locals: Dict[str, int] = {}
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "now"
            ):
                now_locals[node.targets[0].id] = node.lineno
        if not now_locals:
            return
        nested_defs = {
            sub.name: sub
            for sub in ast.walk(fn.node)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub is not fn.node
        }
        for site in sites:
            if site.callback is None:
                continue
            # A zero-delay event fires at the same timestamp; the
            # captured now is still current there.
            if site.delay is not None and _const_float(site.delay) == 0:
                continue
            body: Optional[ast.AST] = None
            if isinstance(site.callback, ast.Lambda):
                body = site.callback.body
            elif (
                isinstance(site.callback, ast.Name)
                and site.callback.id in nested_defs
            ):
                body = nested_defs[site.callback.id]
            if body is None:
                continue
            # A handler that re-reads ``.now`` itself is plainly aware
            # time has advanced — the captured variable is then an
            # intentional epoch reference (``sim.now - start_s``), the
            # idiomatic elapsed-time pattern, not a stale timestamp.
            if any(
                isinstance(sub, ast.Attribute) and sub.attr == "now"
                for sub in ast.walk(body)
            ):
                continue
            for sub in ast.walk(body):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in now_locals
                    and now_locals[sub.id] <= site.call.lineno
                ):
                    self.reporter.report(
                        module,
                        site.callback,
                        "RL042",
                        f"'{sub.id}' captures sim.now at schedule time but "
                        "is read inside the deferred callback — simulated "
                        "time has moved on by the time the handler runs; "
                        "read sim.now inside the handler instead",
                        context=fn.qualname,
                    )
                    break

    # -- RL043 -------------------------------------------------------

    def _resolve_handler(
        self, site: ScheduleSite, fn: FunctionInfo, module: ModuleInfo
    ) -> List[Tuple[object, ...]]:
        """Seed list for the purity closure: resolved handler functions
        plus lambda/nested-def bodies to scan inline."""
        callback = site.callback
        origin = (module.rel_path, site.call.lineno)
        if callback is None:
            return []
        if isinstance(callback, ast.Lambda):
            return [("node", callback.body, fn, module, fn.qualname, origin)]
        if isinstance(callback, ast.Name):
            for sub in ast.walk(fn.node):
                if (
                    isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub is not fn.node
                    and sub.name == callback.id
                ):
                    return [
                        (
                            "node",
                            sub,
                            fn,
                            module,
                            f"{fn.qualname}.{callback.id}",
                            origin,
                        )
                    ]
            dotted = self.resolver.dotted_callee(callback, module)
            target = self.table.function(dotted) if dotted else None
            if target is not None:
                return [("fn", target, target.qualname, origin)]
            return []
        if (
            isinstance(callback, ast.Attribute)
            and isinstance(callback.value, ast.Name)
            and callback.value.id == "self"
            and fn.class_name is not None
        ):
            cls = self.table.class_info(f"{fn.module}.{fn.class_name}")
            if cls is not None:
                target = self.table.method_on(cls, callback.attr)
                if target is not None:
                    return [("fn", target, target.qualname, origin)]
        return []

    def _impure_read(self, node: ast.AST, module: ModuleInfo) -> Optional[str]:
        if isinstance(node, ast.Call):
            dotted = self.resolver.dotted_callee(node.func, module)
            if not dotted:
                dotted = _dotted_name(node.func)
            if dotted in HANDLER_CLOCK_READS:
                return f"the wall clock ({dotted})"
            if dotted in GLOBAL_RNG_READS:
                return f"the process-global RNG ({dotted})"
            if dotted in ("os.getenv", "os.environ.get"):
                return "the environment (os.getenv)"
            return None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (
                node.attr == "environ"
                and module.imports.module_of(node.value.id) == "os"
            ):
                return "the environment (os.environ)"
        return None

    def _check_handler_purity(self, seeds: List[Tuple[object, ...]]) -> None:
        reported: Set[int] = set()

        def scan(
            scan_node: ast.AST,
            scan_module: ModuleInfo,
            handler: str,
            origin: Tuple[str, int],
        ) -> List[FunctionInfo]:
            """Report impure reads in one body; return resolved callees."""
            callees: List[FunctionInfo] = []
            if module_in(scan_module.name, self.config.clock_modules):
                return callees
            # Calls whose receiver expression is itself flagged (e.g.
            # os.environ.get) must not double-report the inner read.
            call_receivers = {
                id(sub.func.value)
                for sub in ast.walk(scan_node)
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            }
            for sub in ast.walk(scan_node):
                what = self._impure_read(sub, scan_module)
                if what is None:
                    continue
                if isinstance(sub, ast.Attribute) and id(sub) in call_receivers:
                    continue
                if id(sub) in reported:
                    continue
                reported.add(id(sub))
                self.reporter.report(
                    scan_module,
                    sub,
                    "RL043",
                    f"reads {what} in code reachable from event handler "
                    f"{handler} (scheduled at {origin[0]}:{origin[1]}) — "
                    "handlers must be deterministic: derive time from "
                    "sim.now and randomness from the seeded sim RNG",
                    context=handler,
                )
            return callees

        for seed in seeds:
            if seed[0] == "node":
                _, body, fn, module, handler, origin = seed
                scan(body, module, handler, origin)
                # Calls inside the inline body extend the closure.
                targets: List[FunctionInfo] = []
                for sub in ast.walk(body):
                    if isinstance(sub, ast.Call):
                        resolved = self.resolver.resolve(sub, module, fn)
                        if resolved is not None:
                            targets.append(resolved[0])
                queue = targets
            else:
                _, target, handler, origin = seed
                queue = [target]
            for target in queue:
                names = [target.qualname]
                names.extend(self.graph.reachable_from(target.qualname))
                for qualname in names:
                    reachable = self.table.functions.get(qualname)
                    if reachable is None:
                        continue
                    reach_module = self.table.modules.get(reachable.module)
                    if reach_module is None:
                        continue
                    scan(reachable.node, reach_module, handler, origin)

    # -- RL044 -------------------------------------------------------

    def _check_cache_invalidation(
        self, fn: FunctionInfo, module: ModuleInfo
    ) -> None:
        if fn.name == "__init__":
            return  # construction precedes any cached evaluation
        events: List[Tuple[int, int, str, ast.AST, str]] = []
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in POSE_ATTRS
                    ):
                        events.append(
                            (node.lineno, node.col_offset, "write", node, target.attr)
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in INVALIDATE_METHODS:
                    events.append(
                        (node.lineno, node.col_offset, "invalidate", node, "")
                    )
                elif node.func.attr in SNR_EVAL_NAMES:
                    events.append((node.lineno, node.col_offset, "eval", node, ""))
        events.sort(key=lambda e: (e[0], e[1]))
        dirty: Optional[Tuple[int, str]] = None
        for lineno, _col, kind, node, attr in events:
            if kind == "write":
                dirty = (lineno, attr)
            elif kind == "invalidate":
                dirty = None
            elif kind == "eval" and dirty is not None:
                self.reporter.report(
                    module,
                    node,
                    "RL044",
                    f"'{dirty[1]}' is written at line {dirty[0]} but the "
                    "coupling cache is not invalidated before this SNR/"
                    "coupling evaluation — the cache serves the stale "
                    "pose; call coupling.invalidate(<device>) after moving "
                    "or re-beaming (see repro.mobility.MobileStation)",
                    context=fn.qualname,
                )
                dirty = None  # one report per dirty window

    # -- RL045 -------------------------------------------------------

    def _check_self_reschedule(
        self, fn: FunctionInfo, module: ModuleInfo, sites: List[ScheduleSite]
    ) -> None:
        for site in sites:
            if site.callback is None or site.delay is None:
                continue
            if site.method == "schedule":
                if _const_float(site.delay) != 0:
                    continue
            else:  # schedule_at(now, ...) is the same zero-delay storm
                if not (
                    isinstance(site.delay, ast.Attribute)
                    and site.delay.attr == "now"
                ):
                    continue
            is_self = (
                isinstance(site.callback, ast.Attribute)
                and isinstance(site.callback.value, ast.Name)
                and site.callback.value.id == "self"
                and site.callback.attr == fn.name
            ) or (
                isinstance(site.callback, ast.Name)
                and site.callback.id == fn.name
            )
            if not is_self:
                continue
            self.reporter.report(
                module,
                site.call,
                "RL045",
                f"handler '{fn.name}' reschedules itself at zero delay — "
                "the event loop drains same-timestamp events before time "
                "advances, so this storms the queue forever; advance time "
                "by a positive duration or guard the reschedule",
                context=fn.qualname,
            )

    # -- RL046 -------------------------------------------------------

    def _check_time_comparisons(self, fn: FunctionInfo, module: ModuleInfo) -> None:
        now_locals: Set[str] = {
            node.targets[0].id
            for node in ast.walk(fn.node)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "now"
        }

        def is_sim_time(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Attribute) and expr.attr == "now":
                return True
            return isinstance(expr, ast.Name) and expr.id in now_locals

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    if is_sim_time(left) or is_sim_time(right):
                        self.reporter.report(
                            module,
                            node,
                            "RL046",
                            "float ==/!= on simulation time — timestamps "
                            "built by float arithmetic are not reliably "
                            "equal; compare with a tolerance or order "
                            "events with the heap counter tiebreak",
                            context=fn.qualname,
                        )
                        break
            elif isinstance(node, ast.Call):
                dotted = self.resolver.dotted_callee(node.func, module)
                if not dotted:
                    dotted = _dotted_name(node.func)
                if dotted not in ("heapq.heappush", "heappush"):
                    continue
                if dotted == "heappush" and module.imports.origin_of(
                    "heappush"
                ) not in ("heapq.heappush",):
                    continue
                if len(node.args) < 2 or not isinstance(node.args[1], ast.Tuple):
                    continue
                elts = node.args[1].elts
                has_counter = any(
                    isinstance(e, ast.Call)
                    and isinstance(e.func, ast.Name)
                    and e.func.id == "next"
                    for e in elts
                )
                if len(elts) >= 2 and not has_counter:
                    self.reporter.report(
                        module,
                        node,
                        "RL046",
                        "event tuple pushed without a deterministic counter "
                        "tiebreak — equal timestamps fall through to "
                        "comparing the payload (callables are unorderable, "
                        "ids are nondeterministic); push "
                        "(time, next(counter), payload)",
                        context=fn.qualname,
                    )
