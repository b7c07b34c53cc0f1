"""Interprocedural dB/linear unit inference (rules RL010-RL012).

Every physical quantity in the toolkit lives in one of three
arithmetic *families*:

* **log** — relative dB, absolute dBm, antenna dBi.  Gains and losses
  add; absolute powers difference into ratios.
* **linear** — linear power ratios, milliwatts, watts.  Powers add.
* **amplitude** — voltage/field ratios (volts, ``10^(x/20)`` scale).

Summing a log-domain value with a linear-domain one is always a bug —
and the worst instances cross module boundaries, where the per-file
suffix rule (RL004) cannot see the callee.  This pass assigns units
from three seed sources (the :mod:`repro.analysis.dbmath` signature
table, ``*_db``/``*_dbm``/``*_lin``-style name heuristics, and
explicit ``# replint: unit=...`` annotations) and propagates them
through assignments, returns, and resolved call sites to a fixpoint
(the shared driver in :mod:`repro.lint.flow.infer`).

This module owns the name and annotation vocabulary, the dB/linear
algebra (families, ``join``), and the checks.

Checks:

* **RL010** — a call argument whose inferred unit family conflicts
  with the callee parameter's, or arithmetic that mixes a call's
  returned unit with an incompatible operand;
* **RL011** — a ``return`` whose inferred unit family conflicts with
  the unit the function declares via suffix or annotation;
* **RL012** — a public function in the configured phy/mac packages
  that computes with united values but neither carries a unit suffix
  nor a ``# replint: unit=...`` annotation on its ``def`` line.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.lint.config import module_in
from repro.lint.flow.callgraph import bind_arguments
from repro.lint.flow.infer import (
    FunctionAnalysis,
    InferencePass,
    Summaries,
    callable_name,
)
from repro.lint.flow.symbols import FunctionInfo, ParamInfo

# ---------------------------------------------------------------------------
# the unit lattice and its vocabulary
# ---------------------------------------------------------------------------

DB = "dB"
DBM = "dBm"
LINEAR = "linear"
AMPLITUDE = "amplitude"
#: Declared "carries no power unit" — a duration, distance, count, or
#: an explicitly annotated dimensionless ratio.  Never conflicts.
NEUTRAL = "neutral"

#: Power name-suffix heuristics (last ``_``-separated token).
_POWER_SUFFIXES = {
    "db": DB,
    "dbi": DB,  # antenna gains are relative-dB quantities
    "dbm": DBM,
    "lin": LINEAR,
    "linear": LINEAR,
    "mw": LINEAR,
    "watts": LINEAR,
    "amplitude": AMPLITUDE,
    "amp": AMPLITUDE,
    "v": AMPLITUDE,
    "volts": AMPLITUDE,
}

#: Bare names the paper's code uses for log-domain quantities.
_LOG_WORDS = {"gain", "loss", "snr", "sinr", "rssi", "attenuation"}

#: Suffixes that declare a *non-power* physical unit (seconds, metres,
#: rates, angles ...) — the name documents its unit, it is just not a
#: dB/linear one, so RL012 has nothing to ask for.
_NEUTRAL_SUFFIXES = {
    "s", "ms", "us", "ns", "m", "mm", "cm", "km", "deg", "rad",
    "hz", "khz", "mhz", "ghz", "bps", "kbps", "mbps", "gbps",
    "bytes", "bits", "count", "idx", "index", "pct", "ratio",
    "frac", "fraction", "prob", "probability", "k", "kelvin", "j",
}

#: ``unit=`` spellings that declare a non-power quantity: dimension
#: words, dimensionless markers, and the angle/length/time/frequency/
#: speed scales.
_NEUTRAL_SPELLINGS = {
    "angle", "length", "time", "frequency", "speed",
    "none", "dimensionless", "neutral",
    "radians", "degrees", "meters", "seconds", "mps", "kmh",
}

#: The ``# replint: unit=...`` vocabulary (lower-cased spelling ->
#: lattice element).  Later entries override earlier ones.
UNIT_SPELLINGS: Dict[str, str] = {
    **{word: NEUTRAL for word in _NEUTRAL_SUFFIXES},
    **{word: DB for word in _LOG_WORDS},
    **_POWER_SUFFIXES,
    "linear-power": LINEAR,
    **{word: NEUTRAL for word in _NEUTRAL_SPELLINGS},
}


def unit_from_name(name: Optional[str]) -> Optional[str]:
    """dB/linear unit implied by an identifier's naming convention."""
    if not name:
        return None
    tokens = name.lower().split("_")
    last = tokens[-1] if tokens[-1] else (tokens[-2] if len(tokens) > 1 else "")
    if last in _POWER_SUFFIXES:
        return _POWER_SUFFIXES[last]
    if last in _LOG_WORDS:
        return DB
    if last in _NEUTRAL_SUFFIXES:
        return NEUTRAL
    return None


def parse_annotation(text: str) -> Optional[str]:
    """Map a ``unit=`` annotation value to a lattice element.

    A power spelling maps to its dB/linear unit, any other known one
    declares a non-power unit (:data:`NEUTRAL`), unknown ones are None.
    """
    return UNIT_SPELLINGS.get(text.strip().lower())

_FAMILY = {DB: "log", DBM: "log", LINEAR: "linear", AMPLITUDE: "amplitude"}


def family(unit: Optional[str]) -> Optional[str]:
    """Arithmetic family of a unit (None for unknown/neutral)."""
    return _FAMILY.get(unit) if unit else None


def conflicting(a: Optional[str], b: Optional[str]) -> bool:
    fa, fb = family(a), family(b)
    return fa is not None and fb is not None and fa != fb


def join(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Least upper bound for propagation (conflicts decay to unknown)."""
    if a is None or a == NEUTRAL:
        return b
    if b is None or b == NEUTRAL or a == b:
        return a
    if family(a) == family(b):
        return DB if family(a) == "log" else a
    return None


# ---------------------------------------------------------------------------
# seed sources
# ---------------------------------------------------------------------------

#: Signature table for the shared dB helpers: canonical dotted name ->
#: (parameter units by position, return unit).
DBMATH_SIGNATURES: Dict[str, Tuple[Tuple[Optional[str], ...], Optional[str]]] = {
    "repro.analysis.dbmath.db_to_linear": ((DB,), LINEAR),
    "repro.analysis.dbmath.db_to_power_ratio": ((DB,), LINEAR),
    "repro.analysis.dbmath.db_to_linear_scalar": ((DB,), LINEAR),
    "repro.analysis.dbmath.linear_to_db": ((LINEAR,), DB),
    "repro.analysis.dbmath.linear_to_db_scalar": ((LINEAR,), DB),
    "repro.analysis.dbmath.db_to_amplitude_scalar": ((DB,), AMPLITUDE),
    "repro.analysis.dbmath.amplitude_to_db": ((AMPLITUDE,), DB),
    "repro.analysis.dbmath.amplitude_to_db_scalar": ((AMPLITUDE,), DB),
    "repro.analysis.dbmath.log_distance_loss_db": ((NEUTRAL, NEUTRAL), DB),
    "repro.analysis.dbmath.watts_to_dbm": ((LINEAR,), DBM),
    "repro.analysis.dbmath.dbm_to_watts": ((DBM,), LINEAR),
    "repro.analysis.dbmath.power_sum_db": ((DB,), DB),
    "repro.analysis.dbmath.power_average_db": ((DB,), DB),
}

#: Calls that return their first argument's unit unchanged.
_PASSTHROUGH = {
    "float", "abs", "sum", "mean", "median", "min", "max", "maximum",
    "minimum", "asarray", "array", "clip", "round", "nanmean",
    "nansum", "nanmax", "nanmin", "full_like", "sort", "sorted",
}


class _Summaries(Summaries):
    """Declared/inferred units per function."""

    def declared_return(self, fn: FunctionInfo) -> Optional[str]:
        sig = DBMATH_SIGNATURES.get(fn.qualname)
        if sig is not None:
            return sig[1]
        if fn.unit_annotation:
            return parse_annotation(fn.unit_annotation)
        return unit_from_name(fn.name)

    def return_unit(self, fn: FunctionInfo) -> Optional[str]:
        declared = self.declared_return(fn)
        if declared is not None:
            return declared
        return self.returns.get(fn.qualname)

    def param_unit(self, fn: FunctionInfo, index: int, param_name: str) -> Optional[str]:
        sig = DBMATH_SIGNATURES.get(fn.qualname)
        if sig is not None and index < len(sig[0]):
            return sig[0][index]
        return unit_from_name(param_name)


class _FunctionAnalysis(FunctionAnalysis):
    """Per-function unit environment and expression inference."""

    neutral = NEUTRAL
    join = staticmethod(join)

    def __init__(self, *args):
        super().__init__(*args)
        sig = DBMATH_SIGNATURES.get(self.fn.qualname)
        if sig is not None:
            for param, unit in zip(self.fn.call_params, sig[0]):
                if unit is not None:
                    self.env[param.name] = unit

    def param_value(self, param: ParamInfo) -> Optional[str]:
        return unit_from_name(param.name)

    def annotated_value(self, text: str) -> Optional[str]:
        return parse_annotation(text)

    # -- expression inference ---------------------------------------

    def infer(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id) or unit_from_name(node.id)
        if isinstance(node, ast.Attribute):
            return unit_from_name(node.attr)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self.infer(node.operand)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.IfExp):
            return join(self.infer(node.body), self.infer(node.orelse))
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        return None

    def _infer_call(self, node: ast.Call) -> Optional[str]:
        site = self.sites.get(id(node))
        if site is not None:
            unit = self.summaries.return_unit(site.callee)
            if unit is not None:
                return unit
        name = callable_name(node.func)
        if name in _PASSTHROUGH and node.args:
            return self.infer(node.args[0])
        return unit_from_name(name)

    def _infer_binop(self, node: ast.BinOp) -> Optional[str]:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return join(self.infer(node.left), self.infer(node.right))
        if isinstance(node.op, (ast.Mult, ast.Div)):
            left, right = self.infer(node.left), self.infer(node.right)
            known = [u for u in (left, right) if u not in (None, NEUTRAL)]
            if len(known) == 1:
                # Scaling by a unit-less factor preserves the unit.
                return known[0]
            return None
        return None

    def return_has_united_subexpr(self) -> bool:
        for node in ast.walk(self.fn.node):
            if not (isinstance(node, ast.Return) and node.value is not None):
                continue
            if isinstance(node.value, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
                continue
            for sub in ast.walk(node.value):
                if isinstance(sub, (ast.Name, ast.Attribute, ast.Call)):
                    unit = self.infer(sub)
                    if unit not in (None, NEUTRAL):
                        return True
        return False


class UnitPass(InferencePass):
    """Drives inference to a fixpoint, then emits RL010-RL012."""

    analysis_class = _FunctionAnalysis
    summaries_class = _Summaries

    def check(self, functions: List[FunctionInfo]) -> None:
        for fn in functions:
            if module_in(fn.module, self.config.dbmath_modules):
                # The conversion helpers legitimately cross domains
                # inside their bodies — they ARE the boundary.
                continue
            analysis = self.analysis(fn)
            if analysis is None:
                continue
            self._check_returns(fn, analysis)
            self._check_public_api(fn, analysis)
            self._check_mixing(fn, analysis)
        self._check_call_arguments()

    # -- RL010 ------------------------------------------------------

    def _check_call_arguments(self) -> None:
        for site in self.graph.sites:
            if site.kind != "call":
                continue
            caller = site.caller
            if caller is None or module_in(caller.module, self.config.dbmath_modules):
                continue
            analysis = self.analysis(caller)
            if analysis is None:
                continue
            bound, _exhaustive = bind_arguments(site)
            params = site.callee.call_params if site.bound else site.callee.params
            index_of = {p.name: i for i, p in enumerate(params)}
            module = self.table.modules[caller.module]
            for param_name, arg in bound.items():
                if param_name not in index_of:
                    continue
                expected = self.summaries.param_unit(
                    site.callee, index_of[param_name], param_name
                )
                actual = analysis.infer(arg)
                if conflicting(expected, actual):
                    self.reporter.report(
                        module,
                        arg,
                        "RL010",
                        f"argument '{param_name}' of {site.callee.qualname} "
                        f"expects a {family(expected)}-domain value "
                        f"({expected}) but receives a {family(actual)}-domain "
                        f"one ({actual}) — convert via repro.analysis.dbmath "
                        "at the boundary",
                        context=caller.qualname,
                    )

    def _check_mixing(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> None:
        """Cross-family +/- where at least one side's unit was *inferred*.

        Pairs where both operands carry explicit unit suffixes are
        RL004's per-file territory; the flow version fires when a
        call's return value or a propagated local is involved — the
        cross-module case RL004 cannot see.
        """
        module = self.table.modules[fn.module]
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
                continue
            left, right = analysis.infer(node.left), analysis.infer(node.right)
            if not conflicting(left, right):
                continue
            suffix_only = all(
                isinstance(side, (ast.Name, ast.Attribute))
                and unit_from_name(
                    side.id if isinstance(side, ast.Name) else side.attr
                )
                is not None
                for side in (node.left, node.right)
            )
            if suffix_only:
                continue  # RL004 already covers it
            self.reporter.report(
                module,
                node,
                "RL010",
                f"arithmetic mixes a {family(left)}-domain value ({left}) "
                f"with a {family(right)}-domain one ({right}) across a call "
                "boundary — powers add in the linear domain, gains in dB",
                context=fn.qualname,
            )

    # -- RL011 ------------------------------------------------------

    def _check_returns(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> None:
        declared = self.summaries.declared_return(fn)
        module = self.table.modules[fn.module]
        seen: Optional[str] = None
        for node, unit in analysis.returned():
            if unit in (None, NEUTRAL):
                continue
            if declared not in (None, NEUTRAL) and conflicting(declared, unit):
                self.reporter.report(
                    module,
                    node,
                    "RL011",
                    f"{fn.qualname} declares a {family(declared)}-domain "
                    f"return ({declared}) but this return is inferred as "
                    f"{family(unit)}-domain ({unit})",
                    context=fn.qualname,
                )
            elif declared in (None, NEUTRAL) and conflicting(seen, unit):
                self.reporter.report(
                    module,
                    node,
                    "RL011",
                    f"{fn.qualname} mixes return units: this return is "
                    f"{family(unit)}-domain ({unit}) but an earlier one was "
                    f"{family(seen)}-domain ({seen})",
                    context=fn.qualname,
                )
            seen = join(seen, unit) if seen is not None else unit

    # -- RL012 ------------------------------------------------------

    def _check_public_api(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> None:
        if not module_in(fn.module, self.config.flow_unit_packages):
            return
        if not fn.is_public or fn.name.startswith("__"):
            return
        # Functions returning objects (patterns, paths, specs ...) carry
        # no scalar unit; only numeric returns are held to the contract.
        annotation = fn.return_annotation
        if annotation and not any(
            token in annotation for token in ("float", "int", "ndarray", "ArrayLike")
        ):
            return
        declared = self.summaries.declared_return(fn)
        if declared is not None:
            return
        inferred = self.summaries.returns.get(fn.qualname)
        if inferred is None and not analysis.return_has_united_subexpr():
            return
        module = self.table.modules[fn.module]
        hint = (
            f"inferred {family(inferred)}-domain ({inferred})"
            if inferred is not None
            else "computed from dB/linear quantities but not inferrable"
        )
        self.reporter.report(
            module,
            fn.node,
            "RL012",
            f"public {fn.module} API returns a physical quantity ({hint}) "
            "but neither its name nor a '# replint: unit=...' annotation "
            "declares the unit",
            context=fn.qualname,
        )
