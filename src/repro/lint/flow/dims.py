"""Interprocedural physical-dimension & unit-scale inference (RL050-RL056).

The dB/linear pass (:mod:`repro.lint.flow.units`) covers the power
axis; every *other* physical quantity in the toolkit — azimuths in
radians vs the paper's degrees, 60 GHz carriers vs Hz, sweep airtimes
in µs vs seconds of sim time, vehicle speeds in km/h vs m/s — lives on
a (dimension × scale) lattice this pass infers over the same symbol
table and call graph:

* **angle** {rad, deg} — trig demands radians;
* **length** {m, mm, cm, km};
* **time** {s, ms, us, ns} — the DES clock runs in seconds;
* **frequency** {hz, khz, mhz, ghz};
* **speed** {mps, kmh};
* **power** — dB/linear quantities, so a dB quantity added to a
  duration is still a cross-dimension bug here.  Their scale algebra
  (dB + dBm is a legal dBm) stays in :mod:`units` (RL010-RL012).

This module owns the unit vocabulary of both passes: the identifier
suffixes and the one ``# replint: unit=...`` spelling table
(:data:`UNIT_SPELLINGS`), which :mod:`units` reads for the power axis.

Quantities seed from name suffixes (``bearing_rad``, ``delay_s``,
``speed_kmh``), the conversion-helper signature table
(``math.radians``, ``np.deg2rad``, ``repro.geometry.kmh_to_ms``...),
and ``# replint: unit=...`` annotations — on the ``def`` line for the
return (as in :mod:`units`), or on a parameter's own line in a
multi-line signature for that parameter.  Propagation follows
assignments, loop targets, returns (the fixpoint summaries of
:mod:`repro.lint.flow.infer`), and arithmetic: length/time
is a speed, a dimensionless numerator over a time is a frequency,
speed·time is a length, c/f is a wavelength.

Checks:

* **RL050** — trig on a degree-scaled angle, or arithmetic/comparison
  mixing degree and radian scales;
* **RL051** — cross-dimension arithmetic or comparison (adding m to s,
  comparing Hz to GHz);
* **RL052** — scale mismatch at a call or return boundary (km/h into
  an m/s parameter, ms into a seconds ``schedule`` delay);
* **RL053** — unit-ambiguous public API parameter in the configured
  ``dim-packages`` with neither a unit suffix nor an annotation; also
  reports unknown ``unit=`` spellings so annotation typos fail loudly;
* **RL054** — wavelength/frequency confusion (``c*f`` where
  wavelength is ``c/f``, or a frequency assigned to a wavelength);
* **RL055** — angle-wraparound comparison on a raw angle difference
  without ``normalize_angle``/``angle_between``/``deg_wrap_180``;
* **RL056** — redundant or double conversion (``deg2rad(radians(x))``,
  a round trip that cancels, or an inline ``/3.6`` magic constant
  where :func:`repro.geometry.kmh_to_ms` exists).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lint.config import module_in
from repro.lint.flow.callgraph import bind_arguments
from repro.lint.flow.destime import SCHEDULE_METHODS, SIM_RECEIVER_NAMES
from repro.lint.flow.infer import (
    Binding,
    FunctionAnalysis,
    InferencePass,
    Summaries,
    callable_name,
)
from repro.lint.flow.symbols import FunctionInfo, ModuleInfo, ParamInfo

# ---------------------------------------------------------------------------
# the (dimension × scale) lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Qty:
    """One lattice element: a physical dimension at an optional scale."""

    dim: str  #: ``angle`` | ``length`` | ``time`` | ``frequency`` | ``speed`` | ``power`` | ``none``
    scale: Optional[str] = None  #: e.g. ``rad``, ``ms``, ``ghz``; None = unknown

    def render(self) -> str:
        return f"{self.dim}:{self.scale}" if self.scale else self.dim


#: Declared "carries no physical dimension" — counts, ratios, indices.
DIMENSIONLESS = Qty("none")

ANGLE = "angle"
LENGTH = "length"
TIME = "time"
FREQUENCY = "frequency"
SPEED = "speed"
POWER = "power"

#: Scale spellings per dimension (also the annotation vocabulary).
SCALES: Dict[str, Tuple[str, ...]] = {
    ANGLE: ("rad", "deg"),
    LENGTH: ("m", "mm", "cm", "km"),
    TIME: ("s", "ms", "us", "ns"),
    FREQUENCY: ("hz", "khz", "mhz", "ghz"),
    SPEED: ("mps", "kmh"),
}

#: scale spelling -> Qty, for suffix and annotation seeding.
_SCALE_QTY: Dict[str, Qty] = {
    scale: Qty(dim, scale) for dim, scales in SCALES.items() for scale in scales
}

#: Extra identifier-suffix spellings beyond the canonical scales.
_SUFFIX_QTY: Dict[str, Qty] = {
    **_SCALE_QTY,
    "radians": Qty(ANGLE, "rad"),
    "degrees": Qty(ANGLE, "deg"),
    "meters": Qty(LENGTH, "m"),
    "seconds": Qty(TIME, "s"),
}

#: Bare last-token words that imply a dimension but no scale.
_WORD_QTY: Dict[str, Qty] = {
    "angle": Qty(ANGLE),
    "azimuth": Qty(ANGLE),
    "elevation": Qty(ANGLE),
    "bearing": Qty(ANGLE),
    "heading": Qty(ANGLE),
    "wavelength": Qty(LENGTH),
    "distance": Qty(LENGTH),
    "frequency": Qty(FREQUENCY),
    "freq": Qty(FREQUENCY),
    "speed": Qty(SPEED),
    "duration": Qty(TIME),
    "delay": Qty(TIME),
}

# ---------------------------------------------------------------------------
# the power vocabulary (the dB/linear scales of repro.lint.flow.units)
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


def power_unit_from_name(name: Optional[str]) -> Optional[str]:
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


#: The one ``# replint: unit=...`` vocabulary, read by this pass and by
#: :mod:`repro.lint.flow.units` (which keeps only the power scales).
#: Later entries override earlier ones: scales beat dimension words,
#: which beat the power spellings.
UNIT_SPELLINGS: Dict[str, Qty] = {
    **{word: DIMENSIONLESS for word in _NEUTRAL_SUFFIXES},
    **{word: Qty(POWER, DB) for word in _LOG_WORDS},
    **{word: Qty(POWER, unit) for word, unit in _POWER_SUFFIXES.items()},
    "linear-power": Qty(POWER, LINEAR),
    **{dim: Qty(dim) for dim in SCALES},
    "none": DIMENSIONLESS,
    "dimensionless": DIMENSIONLESS,
    "neutral": DIMENSIONLESS,
    "ratio": DIMENSIONLESS,
    **_SUFFIX_QTY,
}


def parse_unit_annotation(text: str) -> Optional[Qty]:
    """Map a ``unit=`` annotation value to a lattice element.

    Returns None for unknown spellings.  dB/linear spellings (``dB``,
    ``dBm``, ``linear``...) map to the ``power`` dimension.
    """
    return UNIT_SPELLINGS.get(text.strip().lower())


#: Full-word single-token spellings that still seed a scale: a local
#: named ``radians`` means radians, but a loop counter named ``s`` or
#: ``m`` is just a short name, not a unit claim.
_SINGLE_TOKEN_SCALES = frozenset(
    {"radians", "degrees", "meters", "seconds", "kmh", "mps"}
)


def qty_from_name(name: Optional[str]) -> Optional[Qty]:
    """Quantity implied by an identifier's naming convention."""
    if not name:
        return None
    tokens = name.lower().split("_")
    last = tokens[-1] if tokens[-1] else (tokens[-2] if len(tokens) > 1 else "")
    if len(tokens) > 1 or last in _SINGLE_TOKEN_SCALES:
        qty = _SUFFIX_QTY.get(last)
        if qty is not None:
            return qty
    elif last in _SCALE_QTY:
        return None  # a bare short name, deliberately not a unit claim
    qty = _WORD_QTY.get(last)
    if qty is not None:
        return qty
    power = power_unit_from_name(name)
    if power == NEUTRAL:
        return DIMENSIONLESS
    if power is not None:
        return Qty(POWER, power)
    return None


def conflicting_dim(a: Optional[Qty], b: Optional[Qty]) -> bool:
    """True when two quantities live in different dimensions."""
    if a is None or b is None or DIMENSIONLESS in (a, b):
        return False
    return a.dim != b.dim


def scale_mismatch(a: Optional[Qty], b: Optional[Qty]) -> bool:
    """True for same-dimension quantities at different known scales.

    The power dimension is exempt: dB-axis scale rules (dBm + dB is a
    *legal* dBm, say) belong to :mod:`repro.lint.flow.units`
    (RL010-RL012), and re-litigating them here would double-report.
    """
    if a is None or b is None or DIMENSIONLESS in (a, b):
        return False
    return (
        a.dim == b.dim
        and a.dim != POWER
        and a.scale is not None
        and b.scale is not None
        and a.scale != b.scale
    )


def join_qty(a: Optional[Qty], b: Optional[Qty]) -> Optional[Qty]:
    """Least upper bound for propagation (conflicts decay to unknown)."""
    if a is None or a == DIMENSIONLESS:
        return b
    if b is None or b == DIMENSIONLESS or a == b:
        return a
    if a.dim == b.dim:
        return a if a.scale == b.scale else Qty(a.dim)
    return None


# ---------------------------------------------------------------------------
# conversion and math-function signature tables
# ---------------------------------------------------------------------------

#: Single-argument conversion helpers: bare callable name ->
#: (input qty, output qty).  Bare names match both ``math.radians``
#: and ``np.radians``; project helpers are also resolved through the
#: call graph, which defers to this table by name.
CONVERSIONS: Dict[str, Tuple[Qty, Qty]] = {
    "radians": (Qty(ANGLE, "deg"), Qty(ANGLE, "rad")),
    "deg2rad": (Qty(ANGLE, "deg"), Qty(ANGLE, "rad")),
    "deg_to_rad": (Qty(ANGLE, "deg"), Qty(ANGLE, "rad")),
    "degrees": (Qty(ANGLE, "rad"), Qty(ANGLE, "deg")),
    "rad2deg": (Qty(ANGLE, "rad"), Qty(ANGLE, "deg")),
    "rad_to_deg": (Qty(ANGLE, "rad"), Qty(ANGLE, "deg")),
    "deg_wrap_180": (Qty(ANGLE, "deg"), Qty(ANGLE, "deg")),
    "normalize_angle": (Qty(ANGLE, "rad"), Qty(ANGLE, "rad")),
    "kmh_to_ms": (Qty(SPEED, "kmh"), Qty(SPEED, "mps")),
    "kmh_to_mps": (Qty(SPEED, "kmh"), Qty(SPEED, "mps")),
    "mps_to_kmh": (Qty(SPEED, "mps"), Qty(SPEED, "kmh")),
}

#: Trig that demands radians (RL050) and returns a dimensionless value.
TRIG_DEMANDS_RAD = frozenset({"sin", "cos", "tan"})

#: Inverse trig: returns radians.
_RETURNS_RAD = frozenset(
    {"atan2", "atan", "asin", "acos", "arcsin", "arccos", "arctan", "arctan2",
     "angle_between"}
)

#: Calls that return their first argument's quantity unchanged.
_PASSTHROUGH = frozenset(
    {"float", "abs", "fabs", "sum", "mean", "median", "min", "max", "maximum",
     "minimum", "asarray", "array", "clip", "round", "nanmean", "nansum",
     "nanmax", "nanmin", "sort", "sorted", "copysign", "fmod", "mod"}
)

#: Names that denote the speed of light (RL054) — an m/s speed.
LIGHTSPEED_NAMES = frozenset(
    {"c", "SPEED_OF_LIGHT", "LIGHT_SPEED", "C_MPS", "SPEED_OF_LIGHT_M_S",
     "LIGHT_SPEED_MPS", "speed_of_light"}
)

_LIGHTSPEED_UPPER = frozenset(name.upper() for name in LIGHTSPEED_NAMES)

#: The km/h <-> m/s magic constant detected by RL056's inline sweep.
_KMH_FACTOR = 3.6

#: 1/time scale -> frequency scale, for ``1 / period_s`` inference.
_INVERSE_TIME = {"s": "hz", "ms": "khz", "us": "mhz", "ns": "ghz"}

#: Unit-ambiguous last-token words RL053 asks public APIs to pin down.
AMBIGUOUS_PARAM_WORDS = frozenset(
    {"angle", "azimuth", "elevation", "bearing", "heading", "orientation",
     "rotation", "tilt", "speed", "velocity", "distance", "radius",
     "wavelength", "frequency", "freq", "delay", "interval", "duration",
     "period", "timeout", "dwell", "separation", "spacing"}
)

#: Rule codes that name work for ``--dim --worklist``.
DIM_WORKLIST_CODES = frozenset(
    {"RL050", "RL051", "RL052", "RL053", "RL054", "RL055", "RL056"}
)


def _is_lightspeed(node: ast.AST) -> bool:
    # Case-folded: SPEED_OF_LIGHT the module constant and c_mps the
    # local spelling are the same quantity.
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is not None and name.upper() in _LIGHTSPEED_UPPER:
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return 2.9e8 <= float(node.value) <= 3.1e8
    return False


def _is_const(node: ast.AST, value: float) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and float(node.value) == value
    )


# ---------------------------------------------------------------------------
# interprocedural summaries
# ---------------------------------------------------------------------------


class _Summaries(Summaries):
    """Declared/inferred quantities per function."""

    def declared_return(self, fn: FunctionInfo) -> Optional[Qty]:
        sig = CONVERSIONS.get(fn.name)
        if sig is not None:
            return sig[1]
        if fn.name in _RETURNS_RAD:
            return Qty(ANGLE, "rad")
        if fn.unit_annotation:
            return parse_unit_annotation(fn.unit_annotation)
        return qty_from_name(fn.name)

    def return_qty(self, fn: FunctionInfo) -> Optional[Qty]:
        declared = self.declared_return(fn)
        inferred = self.returns.get(fn.qualname)
        if declared is None:
            return inferred
        if (
            inferred is not None
            and declared.scale is None
            and inferred.dim == declared.dim
            and inferred.scale is not None
        ):
            # A scale-free declaration ("angle") refined by the body's
            # inferred scale ("angle:deg") keeps the best of both.
            return inferred
        return declared

    def param_qty(
        self, fn: FunctionInfo, param_name: str, module: Optional[ModuleInfo]
    ) -> Optional[Qty]:
        sig = CONVERSIONS.get(fn.name)
        if sig is not None and fn.call_params and fn.call_params[0].name == param_name:
            return sig[0]
        annotated = self._param_annotation(fn, param_name, module)
        if annotated is not None:
            return annotated
        return qty_from_name(param_name)

    def _param_annotation(
        self, fn: FunctionInfo, param_name: str, module: Optional[ModuleInfo]
    ) -> Optional[Qty]:
        """Unit from a ``# replint: unit=`` on the parameter's own line.

        Only multi-line signatures qualify: an annotation on the
        ``def`` line declares the *return* unit (the :mod:`units`
        grammar), so a parameter sharing that line never reads it.
        """
        if module is None:
            return None
        for arg in _ast_args(fn.node):
            if arg.arg != param_name or arg.lineno == fn.node.lineno:
                continue
            text = module.unit_annotations.get(arg.lineno)
            if text:
                return parse_unit_annotation(text)
        return None


def _ast_args(node: ast.AST) -> List[ast.arg]:
    args = node.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]


# ---------------------------------------------------------------------------
# per-function inference
# ---------------------------------------------------------------------------


class _FunctionAnalysis(FunctionAnalysis):
    """Per-function quantity environment and expression inference."""

    neutral = DIMENSIONLESS
    join = staticmethod(join_qty)

    def param_value(self, param: ParamInfo) -> Optional[Qty]:
        return self.summaries.param_qty(self.fn, param.name, self.module)

    def annotated_value(self, text: str) -> Optional[Qty]:
        return parse_unit_annotation(text)

    def bind_other(self, node: ast.AST, binds: List[Binding]) -> None:
        # Loop targets take the element quantity of a homogeneous
        # iterable: `for s in speeds_kmh` binds a km/h speed, not a
        # bare "s".
        if isinstance(node, (ast.For, ast.comprehension)):
            if isinstance(node.target, ast.Name):
                binds.append((node.target.id, node.iter, getattr(node, "lineno", 0)))

    def bound_value(self, name: str, value: ast.AST) -> Optional[Qty]:
        return join_qty(qty_from_name(name), self.infer(value))

    # -- expression inference ---------------------------------------

    def infer(self, node: ast.AST) -> Optional[Qty]:
        if isinstance(node, ast.Name):
            if node.id.upper() in _LIGHTSPEED_UPPER:
                return Qty(SPEED, "mps")
            return self.env.get(node.id) or qty_from_name(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr.upper() in _LIGHTSPEED_UPPER:
                return Qty(SPEED, "mps")
            return qty_from_name(node.attr)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                return DIMENSIONLESS
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self.infer(node.operand)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.IfExp):
            return join_qty(self.infer(node.body), self.infer(node.orelse))
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        return None

    def _infer_call(self, node: ast.Call) -> Optional[Qty]:
        name = callable_name(node.func)
        if name in CONVERSIONS:
            return CONVERSIONS[name][1]
        if name in _RETURNS_RAD:
            return Qty(ANGLE, "rad")
        if name in TRIG_DEMANDS_RAD:
            return DIMENSIONLESS
        site = self.sites.get(id(node))
        if site is not None:
            qty = self.summaries.return_qty(site.callee)
            if qty is not None:
                return qty
        if name in _PASSTHROUGH and node.args:
            return self.infer(node.args[0])
        return qty_from_name(name)

    def _infer_binop(self, node: ast.BinOp) -> Optional[Qty]:
        left, right = self.infer(node.left), self.infer(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if conflicting_dim(left, right):
                return None
            return join_qty(left, right)
        if isinstance(node.op, ast.Mult):
            return self._infer_mult(left, right)
        if isinstance(node.op, ast.Div):
            return self._infer_div(node, left, right)
        return None

    def _infer_mult(self, left: Optional[Qty], right: Optional[Qty]) -> Optional[Qty]:
        for a, b in ((left, right), (right, left)):
            if a is None or b is None:
                continue
            if a.dim == SPEED and b.dim == TIME:
                if a.scale == "mps" and b.scale == "s":
                    return Qty(LENGTH, "m")
                return Qty(LENGTH)
            if a.dim == FREQUENCY and b.dim == TIME:
                return DIMENSIONLESS  # cycles: a phase count
        if left == DIMENSIONLESS:
            return right
        if right == DIMENSIONLESS:
            return left
        return None

    def _infer_div(
        self, node: ast.BinOp, left: Optional[Qty], right: Optional[Qty]
    ) -> Optional[Qty]:
        # Inline `x_kmh / 3.6` converts correctly even though RL056
        # asks for the named helper; infer the converted scale so
        # downstream checks see the truth.
        if _is_const(node.right, _KMH_FACTOR) and left is not None and left.dim == SPEED:
            return Qty(SPEED, "mps") if left.scale == "kmh" else Qty(SPEED)
        if left is None or right is None:
            return None
        if left.dim == LENGTH and right.dim == TIME:
            if left.scale == "m" and right.scale == "s":
                return Qty(SPEED, "mps")
            return Qty(SPEED)
        if left.dim == LENGTH and right.dim == SPEED:
            if left.scale == "m" and right.scale == "mps":
                return Qty(TIME, "s")
            return Qty(TIME)
        if left.dim == SPEED and right.dim == FREQUENCY:
            # c / f: the wavelength idiom.
            if left.scale == "mps" and right.scale == "hz":
                return Qty(LENGTH, "m")
            return Qty(LENGTH)
        if left == DIMENSIONLESS and right.dim == TIME:
            scale = _INVERSE_TIME.get(right.scale or "")
            return Qty(FREQUENCY, scale)
        if left.dim == right.dim and left != DIMENSIONLESS:
            if left.scale == right.scale and left.scale is not None:
                return DIMENSIONLESS
            return None
        if right == DIMENSIONLESS:
            return left
        return None


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


class DimPass(InferencePass):
    """Drives inference to a fixpoint, then emits RL050-RL056."""

    analysis_class = _FunctionAnalysis
    summaries_class = _Summaries

    def check(self, functions: List[FunctionInfo]) -> None:
        self._check_annotations()
        for fn in functions:
            if fn.name in CONVERSIONS:
                # Conversion helpers legitimately cross scales inside
                # their bodies — they ARE the boundary.
                continue
            analysis = self.analysis(fn)
            if analysis is None:
                continue
            self._check_body(fn, analysis)
            self._check_returns(fn, analysis)
            self._check_public_api(fn)
        self._check_call_arguments()

    # -- annotation hygiene (reported under RL053) ------------------

    def _check_annotations(self) -> None:
        for module in sorted(self.table.modules.values(), key=lambda m: m.name):
            for lineno, text in sorted(module.unit_annotations.items()):
                if parse_unit_annotation(text) is None:
                    marker = ast.Pass()
                    marker.lineno = lineno
                    marker.col_offset = 0
                    self.reporter.report(
                        module,
                        marker,
                        "RL053",
                        f"unknown unit {text!r} in '# replint: unit=' "
                        "annotation — known spellings are the scales "
                        "(rad, deg, m, s, ms, us, hz, ghz, mps, kmh, ...), "
                        "dimensions (angle, length, time, frequency, speed), "
                        "dB/linear power units, and 'dimensionless'",
                        context=module.name,
                    )

    # -- RL050/RL051/RL054/RL055/RL056 body walk --------------------

    def _check_body(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> None:
        module = self.table.modules[fn.module]
        flagged: set = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                self._check_additive(fn, analysis, module, node, flagged)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                self._check_mult(fn, analysis, module, node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                self._check_div(fn, analysis, module, node)
            elif isinstance(node, ast.Compare):
                self._check_compare(fn, analysis, module, node, flagged)
            elif isinstance(node, ast.Call):
                self._check_call_expr(fn, analysis, module, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._check_wavelength_assign(fn, analysis, module, node)

    def _pair_conflict(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        node: ast.AST,
        a: Optional[Qty],
        b: Optional[Qty],
        what: str,
        flagged: set,
    ) -> None:
        if id(node) in flagged:
            return
        if conflicting_dim(a, b) and POWER not in (a.dim, b.dim):
            flagged.add(id(node))
            self.reporter.report(
                module,
                node,
                "RL051",
                f"{what} mixes dimensions: {a.render()} vs {b.render()} — "
                "these quantities cannot be combined without a conversion",
                context=fn.qualname,
            )
        elif scale_mismatch(a, b):
            flagged.add(id(node))
            if a.dim == ANGLE:
                self.reporter.report(
                    module,
                    node,
                    "RL050",
                    f"{what} mixes degree and radian scales "
                    f"({a.render()} vs {b.render()}) — convert with "
                    "math.radians/math.degrees first",
                    context=fn.qualname,
                )
            else:
                self.reporter.report(
                    module,
                    node,
                    "RL051",
                    f"{what} mixes {a.dim} scales ({a.render()} vs "
                    f"{b.render()}) — rescale one side first",
                    context=fn.qualname,
                )

    def _check_additive(
        self,
        fn: FunctionInfo,
        analysis: _FunctionAnalysis,
        module: ModuleInfo,
        node: ast.BinOp,
        flagged: set,
    ) -> None:
        left, right = analysis.infer(node.left), analysis.infer(node.right)
        self._pair_conflict(fn, module, node, left, right, "arithmetic", flagged)

    def _check_compare(
        self,
        fn: FunctionInfo,
        analysis: _FunctionAnalysis,
        module: ModuleInfo,
        node: ast.Compare,
        flagged: set,
    ) -> None:
        operands = [node.left, *node.comparators]
        for op, a_node, b_node in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)):
                continue
            a, b = analysis.infer(a_node), analysis.infer(b_node)
            self._pair_conflict(fn, module, node, a, b, "comparison", flagged)
        if not module_in(fn.module, self.config.dim_packages):
            return
        for op, a_node in zip(node.ops, operands):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                continue
            sub = _raw_angle_difference(a_node)
            if sub is None:
                continue
            a, b = analysis.infer(sub.left), analysis.infer(sub.right)
            if (
                a is not None
                and b is not None
                and a.dim == ANGLE
                and b.dim == ANGLE
                and not scale_mismatch(a, b)
                and id(node) not in flagged
            ):
                flagged.add(id(node))
                self.reporter.report(
                    module,
                    node,
                    "RL055",
                    "comparison on a raw angle difference — wrap "
                    "through normalize_angle/angle_between (radians) "
                    "or deg_wrap_180 (degrees) or the ±180°/±π seam "
                    "misreads nearly-aligned headings as opposite",
                    context=fn.qualname,
                )

    def _check_mult(
        self,
        fn: FunctionInfo,
        analysis: _FunctionAnalysis,
        module: ModuleInfo,
        node: ast.BinOp,
    ) -> None:
        for a, b in ((node.left, node.right), (node.right, node.left)):
            if _is_lightspeed(a):
                other = analysis.infer(b)
                if other is not None and other.dim == FREQUENCY:
                    self.reporter.report(
                        module,
                        node,
                        "RL054",
                        "c multiplied by a frequency has dimension "
                        "m/s·Hz — the wavelength is c/f, not c*f",
                        context=fn.qualname,
                    )
                    return
        # `x_mps * 3.6` / `(x*3.6)/3.6` handled in the Div check.

    def _check_div(
        self,
        fn: FunctionInfo,
        analysis: _FunctionAnalysis,
        module: ModuleInfo,
        node: ast.BinOp,
    ) -> None:
        if _is_const(node.right, _KMH_FACTOR):
            left = analysis.infer(node.left)
            if (
                isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.Mult)
                and (
                    _is_const(node.left.right, _KMH_FACTOR)
                    or _is_const(node.left.left, _KMH_FACTOR)
                )
            ):
                self.reporter.report(
                    module,
                    node,
                    "RL056",
                    "multiplying by 3.6 then dividing by 3.6 cancels — "
                    "a redundant km/h round trip",
                    context=fn.qualname,
                )
                return
            if left is not None and left.dim == SPEED:
                self.reporter.report(
                    module,
                    node,
                    "RL056",
                    "inline speed conversion via the 3.6 magic constant — "
                    "use repro.geometry.kmh_to_ms / mps_to_kmh so the "
                    "scale change is visible to the analyzer",
                    context=fn.qualname,
                )

    def _check_call_expr(
        self,
        fn: FunctionInfo,
        analysis: _FunctionAnalysis,
        module: ModuleInfo,
        node: ast.Call,
    ) -> None:
        name = callable_name(node.func)
        if name in TRIG_DEMANDS_RAD and len(node.args) == 1:
            qty = analysis.infer(node.args[0])
            if qty is not None and qty.dim == ANGLE and qty.scale == "deg":
                self.reporter.report(
                    module,
                    node,
                    "RL050",
                    f"{name}() expects radians but its argument is inferred "
                    "as degrees — convert with math.radians first",
                    context=fn.qualname,
                )
            return
        if name in CONVERSIONS and len(node.args) >= 1:
            self._check_conversion_call(fn, analysis, module, node, name)
            return
        self._check_schedule_delay(fn, analysis, module, node)

    def _check_conversion_call(
        self,
        fn: FunctionInfo,
        analysis: _FunctionAnalysis,
        module: ModuleInfo,
        node: ast.Call,
        name: str,
    ) -> None:
        expected_in, out = CONVERSIONS[name]
        arg = node.args[0]
        inner_name = callable_name(arg.func) if isinstance(arg, ast.Call) else None
        if inner_name in CONVERSIONS:
            inner_in, inner_out = CONVERSIONS[inner_name]
            if inner_in == out and inner_out == expected_in:
                self.reporter.report(
                    module,
                    node,
                    "RL056",
                    f"{name}({inner_name}(x)) is a round trip — the two "
                    "conversions cancel",
                    context=fn.qualname,
                )
                return
            if inner_out != expected_in:
                self.reporter.report(
                    module,
                    node,
                    "RL056",
                    f"{name}() expects {expected_in.render()} but "
                    f"{inner_name}() already produced {inner_out.render()} "
                    "— a double conversion",
                    context=fn.qualname,
                )
                return
        qty = analysis.infer(arg)
        if qty is None or qty == DIMENSIONLESS:
            return
        if qty == out and expected_in != out:
            self.reporter.report(
                module,
                node,
                "RL056",
                f"{name}() expects {expected_in.render()} but its argument "
                f"is already {out.render()} — a double conversion",
                context=fn.qualname,
            )
        elif conflicting_dim(qty, expected_in):
            self.reporter.report(
                module,
                node,
                "RL051",
                f"{name}() expects {expected_in.render()} but receives "
                f"{qty.render()} — a cross-dimension conversion",
                context=fn.qualname,
            )

    def _check_schedule_delay(
        self,
        fn: FunctionInfo,
        analysis: _FunctionAnalysis,
        module: ModuleInfo,
        node: ast.Call,
    ) -> None:
        """``sim.schedule(delay, ...)`` runs on a seconds clock (RL052)."""
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in SCHEDULE_METHODS:
            return
        receiver = _receiver_name(func.value)
        if receiver is None or receiver.rsplit(".", 1)[-1] not in SIM_RECEIVER_NAMES:
            return
        if not node.args:
            return
        qty = analysis.infer(node.args[0])
        if qty is not None and qty.dim == TIME and qty.scale not in (None, "s"):
            self.reporter.report(
                module,
                node.args[0],
                "RL052",
                f"{func.attr}() takes seconds of sim time but the delay is "
                f"inferred as {qty.render()} — rescale to seconds",
                context=fn.qualname,
            )

    def _check_wavelength_assign(
        self,
        fn: FunctionInfo,
        analysis: _FunctionAnalysis,
        module: ModuleInfo,
        node: ast.AST,
    ) -> None:
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1 or node.value is None:
                return
            target, value = node.targets[0], node.value
        else:
            if node.value is None:
                return
            target, value = node.target, node.value
        if not isinstance(target, ast.Name):
            return
        name = target.id.lower()
        if "wavelength" not in name and name.split("_")[0] not in ("lam", "lambda"):
            return
        qty = analysis.infer(value)
        if qty is not None and qty.dim == FREQUENCY:
            self.reporter.report(
                module,
                node,
                "RL054",
                f"'{target.id}' is assigned a {qty.render()} value — a "
                "wavelength is a length (c/f), not a frequency",
                context=fn.qualname,
            )

    # -- RL052 at resolved call boundaries --------------------------

    def _check_call_arguments(self) -> None:
        for site in self.graph.sites:
            if site.kind != "call":
                continue
            caller = site.caller
            if caller is None or caller.name in CONVERSIONS:
                continue
            if site.callee.name in CONVERSIONS:
                continue  # handled syntactically in _check_conversion_call
            analysis = self.analysis(caller)
            if analysis is None:
                continue
            bound, _exhaustive = bind_arguments(site)
            module = self.table.modules[caller.module]
            callee_module = self.table.modules.get(site.callee.module)
            for param_name, arg in bound.items():
                expected = self.summaries.param_qty(
                    site.callee, param_name, callee_module
                )
                actual = analysis.infer(arg)
                if scale_mismatch(expected, actual):
                    self.reporter.report(
                        module,
                        arg,
                        "RL052",
                        f"argument '{param_name}' of {site.callee.qualname} "
                        f"expects {expected.render()} but receives "
                        f"{actual.render()} — convert at the boundary",
                        context=caller.qualname,
                    )
                elif conflicting_dim(expected, actual) and POWER not in (
                    expected.dim,
                    actual.dim,
                ):
                    self.reporter.report(
                        module,
                        arg,
                        "RL051",
                        f"argument '{param_name}' of {site.callee.qualname} "
                        f"expects {expected.render()} but receives "
                        f"{actual.render()} — a cross-dimension argument",
                        context=caller.qualname,
                    )

    # -- RL052 at return boundaries ---------------------------------

    def _check_returns(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> None:
        declared = self.summaries.declared_return(fn)
        if declared in (None, DIMENSIONLESS):
            return
        module = self.table.modules[fn.module]
        for node, qty in analysis.returned():
            if qty in (None, DIMENSIONLESS):
                continue
            if scale_mismatch(declared, qty):
                self.reporter.report(
                    module,
                    node,
                    "RL052",
                    f"{fn.qualname} declares a {declared.render()} return "
                    f"but this return is inferred as {qty.render()}",
                    context=fn.qualname,
                )
            elif conflicting_dim(declared, qty) and POWER not in (
                declared.dim,
                qty.dim,
            ):
                self.reporter.report(
                    module,
                    node,
                    "RL051",
                    f"{fn.qualname} declares a {declared.render()} return "
                    f"but this return is inferred as {qty.render()} — a "
                    "cross-dimension return",
                    context=fn.qualname,
                )

    # -- RL053 ------------------------------------------------------

    def _check_public_api(self, fn: FunctionInfo) -> None:
        if not module_in(fn.module, self.config.dim_packages):
            return
        if not fn.is_public or fn.name.startswith("__"):
            return
        module = self.table.modules.get(fn.module)
        for param in fn.call_params:
            tokens = param.name.lower().split("_")
            if tokens[-1] not in AMBIGUOUS_PARAM_WORDS:
                continue
            if param.annotation and not any(
                token in param.annotation for token in ("float", "int", "ndarray")
            ):
                continue  # non-numeric parameters carry no scalar unit
            if self.summaries._param_annotation(fn, param.name, module) is not None:
                continue
            self.reporter.report(
                module,
                fn.node,
                "RL053",
                f"public {fn.module} API parameter '{param.name}' is "
                "unit-ambiguous — add a scale suffix (_rad/_deg, _m, _s, "
                "_hz, _mps/_kmh) or a '# replint: unit=...' annotation on "
                "the parameter's line",
                context=fn.qualname,
            )


def _receiver_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _receiver_name(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return None


def _raw_angle_difference(node: ast.AST) -> Optional[ast.BinOp]:
    """The ``a - b`` inside ``abs(a - b)`` or a bare difference, if any."""
    if (
        isinstance(node, ast.Call)
        and callable_name(node.func) in ("abs", "fabs")
        and len(node.args) == 1
    ):
        node = node.args[0]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return node
    return None


__all__ = [
    "AMBIGUOUS_PARAM_WORDS",
    "CONVERSIONS",
    "DIM_WORKLIST_CODES",
    "DIMENSIONLESS",
    "DimPass",
    "LIGHTSPEED_NAMES",
    "Qty",
    "SCALES",
    "TRIG_DEMANDS_RAD",
    "conflicting_dim",
    "join_qty",
    "parse_unit_annotation",
    "qty_from_name",
    "scale_mismatch",
]
