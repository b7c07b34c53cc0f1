"""Interprocedural NumPy shape/dtype inference and vectorization lints.

The fourth whole-program pass (``repro lint --vec``).  ROADMAP item 1
wants the PHY/array kernels rewritten as numpy batch kernels — all
sectors x all positions in one broadcast.  That rewrite is where
silent shape/broadcast/dtype bugs corrupt physics results without
failing tests: a ``(360,) * (N, 1)`` broadcast quietly produces a
``(360, N)`` gain where a scalar was expected, and float32 drift
shifts dB thresholds near MCS boundaries.  This pass (a) finds every
scalar python loop over vectorizable math so the rewrite has a
worklist, and (b) proves the array code that replaces it is shape- and
dtype-sound.

Values live in an abstract lattice:

* **scalar** — a python/np scalar, with a dtype when known;
* **array[rank, dims]** — an ndarray with symbolic or concrete
  per-axis dims (``None`` per-dim = unknown extent, ``dims=None`` =
  unknown rank);
* **dtype** ∈ {bool, int, float32, float64, complex128} ∪ {unknown};
* **unknown** (``None``) — no claim.

Inference seeds come from numpy constructor/ufunc signatures, ``->``
return annotations, and explicit ``# replint: shape=...`` contracts;
shapes propagate through assignments, loop targets, subscripts, and
resolved call sites with fixpoint return summaries like the unit pass.

Rules:

* **RL030** — scalar python ``for`` loop over a vectorizable domain
  (angles/positions/sectors/an ndarray/``np.arange``) whose body does
  float/np-scalar arithmetic: a batch-kernel candidate;
* **RL031** — broadcast shape mismatch, or silent rank promotion, in
  arithmetic or at a call boundary;
* **RL032** — dtype drift: float64→float32 narrowing or complex→real
  truncation via ``.real`` without a ``# replint: dtype=`` annotation;
* **RL033** — array growth in a loop (``np.append``/``np.concatenate``
  /list-append-then-asarray), or a per-call rebuild of an extension
  array derived only from instance state;
* **RL034** — needless python-float round-trips (``float(...)`` of
  array elements / np results inside loops);
* **RL035** — false vectorization: ``np.vectorize`` or ``math.*``
  applied to arrays;
* **RL036** — public array-returning API in the ``vec-packages`` scope
  without a ``# replint: shape=...`` contract.

The pass is profile-guided: :func:`load_profile` flattens a run
manifest (or any BENCH_*.json) into dotted numeric metrics, and
:func:`build_worklist` ranks RL030/RL033/RL034/RL035 findings by the
measured hotness of every module reachable from the loop through the
call graph — ``repro lint --vec --worklist`` prints the result.
"""

from __future__ import annotations

import ast
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.config import module_in
from repro.lint.engine import Finding
from repro.lint.flow.callgraph import CallGraph, bind_arguments
from repro.lint.flow.infer import Binding, FunctionAnalysis, InferencePass, Summaries
from repro.lint.flow.symbols import FunctionInfo, ParamInfo

# ---------------------------------------------------------------------------
# the shape/dtype lattice
# ---------------------------------------------------------------------------

SCALAR = "scalar"
ARRAY = "array"

#: Canonical dtype names and their promotion order (join = max).
_DTYPE_ORDER = {"bool": 0, "int": 1, "float32": 2, "float64": 3, "complex128": 4}

_DTYPE_CANON = {
    "bool": "bool", "bool_": "bool",
    "int": "int", "int_": "int", "intp": "int",
    "int8": "int", "int16": "int", "int32": "int", "int64": "int",
    "uint8": "int", "uint16": "int", "uint32": "int", "uint64": "int",
    "float": "float64", "float_": "float64", "float64": "float64",
    "double": "float64",
    "float16": "float32", "float32": "float32", "single": "float32",
    "half": "float32",
    "complex": "complex128", "complex_": "complex128",
    "complex64": "complex128", "complex128": "complex128",
    "cdouble": "complex128", "csingle": "complex128",
}


def canon_dtype(name: Optional[str]) -> Optional[str]:
    """Canonical lattice dtype for a numpy/python dtype spelling."""
    if not name:
        return None
    return _DTYPE_CANON.get(name.rsplit(".", 1)[-1].strip("'\""))


def join_dtype(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Least upper bound under numpy promotion (unknown absorbs)."""
    if a is None or b is None:
        return None
    if a == b:
        return a
    return a if _DTYPE_ORDER[a] >= _DTYPE_ORDER[b] else b


def narrows(src: Optional[str], dst: Optional[str]) -> bool:
    """True when casting ``src`` to ``dst`` loses precision/information."""
    if src is None or dst is None:
        return False
    return _DTYPE_ORDER[dst] < _DTYPE_ORDER[src]


#: Per-axis extent: a concrete int, a symbolic name, or None (unknown).
Dim = object


@dataclass(frozen=True)
class ShapeVal:
    """One lattice element: a scalar or an array with (symbolic) dims."""

    kind: str  #: SCALAR or ARRAY
    #: Per-axis dims for arrays; None means "array of unknown rank".
    dims: Optional[Tuple[Dim, ...]] = None
    dtype: Optional[str] = None

    @property
    def rank(self) -> Optional[int]:
        if self.kind == SCALAR:
            return 0
        return len(self.dims) if self.dims is not None else None

    def render(self) -> str:
        if self.kind == SCALAR:
            return f"scalar[{self.dtype}]" if self.dtype else "scalar"
        if self.dims is None:
            body = "?"
        else:
            body = ", ".join("?" if d is None else str(d) for d in self.dims)
            if len(self.dims) == 1:
                body += ","
        base = f"array[({body})]"
        return f"{base}[{self.dtype}]" if self.dtype else base


def scalar(dtype: Optional[str] = None) -> ShapeVal:
    return ShapeVal(SCALAR, None, dtype)


def array(dims: Optional[Tuple[Dim, ...]] = None, dtype: Optional[str] = None) -> ShapeVal:
    return ShapeVal(ARRAY, dims, dtype)


def _join_dim(a: Dim, b: Dim) -> Dim:
    return a if a == b else None


def join(a: Optional[ShapeVal], b: Optional[ShapeVal]) -> Optional[ShapeVal]:
    """Least upper bound for propagation (conflicts decay to unknown)."""
    if a is None or b is None:
        return None
    if a.kind != b.kind:
        return None
    dtype = join_dtype(a.dtype, b.dtype)
    if a.kind == SCALAR:
        return scalar(dtype)
    if a.dims is None or b.dims is None or len(a.dims) != len(b.dims):
        return array(None, dtype)
    return array(tuple(_join_dim(x, y) for x, y in zip(a.dims, b.dims)), dtype)


def broadcast(
    a: Optional[ShapeVal], b: Optional[ShapeVal]
) -> Tuple[Optional[ShapeVal], Optional[str]]:
    """Numpy-broadcast two values: ``(result, problem)``.

    ``problem`` is ``"mismatch"`` for a provably incompatible pair of
    concrete dims, ``"promotion"`` for a silent rank promotion (both
    operands are arrays of different known ranks >= 1), else None.
    """
    if a is None or b is None:
        return None, None
    dtype = join_dtype(a.dtype, b.dtype)
    if a.kind == SCALAR and b.kind == SCALAR:
        return scalar(dtype), None
    if a.kind == SCALAR:
        return array(b.dims, dtype), None
    if b.kind == SCALAR:
        return array(a.dims, dtype), None
    if a.dims is None or b.dims is None:
        return array(None, dtype), None
    ra, rb = len(a.dims), len(b.dims)
    if ra != rb:
        lo, hi = (a.dims, b.dims) if ra < rb else (b.dims, a.dims)
        pad = (1,) * (len(hi) - len(lo)) + tuple(lo)
        dims = tuple(_bcast_dim(x, y) for x, y in zip(pad, hi))
        problem = "promotion" if min(ra, rb) >= 1 else None
        return array(dims, dtype), problem
    out: List[Dim] = []
    for x, y in zip(a.dims, b.dims):
        if isinstance(x, int) and isinstance(y, int) and x != y and 1 not in (x, y):
            return None, "mismatch"
        out.append(_bcast_dim(x, y))
    return array(tuple(out), dtype), None


def _bcast_dim(x: Dim, y: Dim) -> Dim:
    if x == 1:
        return y
    if y == 1:
        return x
    return x if x == y else None


# ---------------------------------------------------------------------------
# shape annotations
# ---------------------------------------------------------------------------

def parse_shape_annotation(text: str) -> Tuple[Optional[ShapeVal], bool]:
    """Parse a ``shape=`` value into ``(lattice value, recognized)``.

    Accepted spellings: ``scalar``, ``any`` (array, no rank claim),
    ``input``/``match-input`` (same shape as the input — presence-only
    contract), and dim tuples like ``(points,)`` / ``(n,2)`` / ``(*,3)``
    where identifiers are symbolic dims and ``*``/``_`` is "any".
    """
    text = text.strip().rstrip(",")
    low = text.lower()
    if low == "scalar":
        return scalar(), True
    if low in ("any", "array"):
        return array(None), True
    if low in ("input", "match-input", "like-input"):
        return None, True
    if text.startswith("(") and text.endswith(")"):
        dims: List[Dim] = []
        inner = text[1:-1].strip()
        if not inner:
            return scalar(), True  # "()" — a 0-d value
        for token in inner.split(","):
            token = token.strip()
            if not token:
                continue
            if token in ("*", "_", "...", "?"):
                dims.append(None)
            elif token.lstrip("-").isdigit():
                dims.append(int(token))
            elif token.isidentifier():
                dims.append(token)
            else:
                return None, False
        return array(tuple(dims)), True
    return None, False


def _annotation_shape(annotation: str) -> Optional[ShapeVal]:
    """Lattice value implied by a ``->``/param type annotation string."""
    if not annotation:
        return None
    if annotation in ("float", "np.float64", "numpy.float64"):
        return scalar("float64")
    if annotation in ("int", "np.intp"):
        return scalar("int")
    if annotation == "bool":
        return scalar("bool")
    if annotation == "complex":
        return scalar("complex128")
    if "ndarray" in annotation or "ArrayLike" in annotation:
        return array(None)
    return None


# ---------------------------------------------------------------------------
# numpy signature seeds
# ---------------------------------------------------------------------------

_NP_NAMES = ("np", "numpy")

#: Elementwise unary ufuncs: result shape follows the argument.
_ELEMENTWISE_UNARY = {
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "sinh", "cosh",
    "tanh", "exp", "expm1", "log", "log1p", "log2", "log10", "sqrt",
    "cbrt", "abs", "absolute", "fabs", "degrees", "radians", "deg2rad",
    "rad2deg", "floor", "ceil", "rint", "round", "around", "sign",
    "square", "negative", "positive", "reciprocal", "conj", "conjugate",
    "angle", "isnan", "isinf", "isfinite", "nan_to_num",
}

#: Elementwise binary ufuncs: result broadcasts the two arguments.
_ELEMENTWISE_BINARY = {
    "maximum", "minimum", "fmax", "fmin", "arctan2", "hypot", "power",
    "float_power", "mod", "remainder", "fmod", "copysign", "add",
    "subtract", "multiply", "divide", "true_divide", "floor_divide",
    "heaviside", "logaddexp", "nextafter",
}

#: Full reductions (scalar without ``axis=``, rank-1 with it).
_REDUCTIONS = {
    "sum", "mean", "max", "min", "amax", "amin", "median", "average",
    "std", "var", "prod", "ptp", "nanmean", "nansum", "nanmax",
    "nanmin", "nanstd", "all", "any", "argmax", "argmin", "count_nonzero",
}

#: Array-shaped constructors taking a shape argument first.
_SHAPE_CONSTRUCTORS = {"zeros", "ones", "empty", "full"}

#: ``*_like`` constructors mirroring their argument's shape.
_LIKE_CONSTRUCTORS = {"zeros_like", "ones_like", "empty_like", "full_like"}

#: Passthrough: same shape and dtype as the first argument.
_PASSTHROUGH = {"sort", "flip", "fliplr", "roll", "copy", "ascontiguousarray", "clip"}

#: Growth calls flagged by RL033 when they run inside a loop.
_GROWTH_CALLS = {
    "append", "concatenate", "vstack", "hstack", "dstack", "stack",
    "column_stack", "row_stack",
}

#: RNG draw method names (``rng.normal(...)``): scalar without
#: ``size=``, array with it.
_RNG_DRAWS = {
    "normal", "uniform", "standard_normal", "exponential", "random",
    "integers", "poisson", "choice", "lognormal",
}

#: ``math.*`` functions that operate on scalars only (RL035 when fed
#: an array; ``math.fsum``/``dist`` etc. accept iterables, skip them).
_MATH_SCALAR_FUNCS = {
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh",
    "cosh", "tanh", "exp", "expm1", "log", "log1p", "log2", "log10",
    "sqrt", "fabs", "floor", "ceil", "degrees", "radians", "remainder",
    "fmod", "copysign", "pow", "hypot", "isnan", "isinf", "erf",
}


def _np_func(node: ast.Call) -> Optional[str]:
    """Name of an ``np.xxx(...)`` call (None for anything else)."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in _NP_NAMES
    ):
        return func.attr
    return None


def _keyword(node: ast.Call, name: str) -> Optional[ast.AST]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _dtype_from_node(node: Optional[ast.AST]) -> Optional[str]:
    """dtype= keyword value -> canonical dtype name."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return canon_dtype(node.id)
    if isinstance(node, ast.Attribute):
        return canon_dtype(node.attr)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return canon_dtype(node.value)
    return None


def _dim_from_node(node: ast.AST) -> Dim:
    """A single shape-tuple entry -> lattice dim."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return int(node.value)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr  # self.num_elements -> symbolic "num_elements"
    return None


def _dims_from_shape_node(node: ast.AST) -> Optional[Tuple[Dim, ...]]:
    """A shape argument (int or tuple) -> dims (None if opaque)."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(_dim_from_node(e) for e in node.elts)
    dim = _dim_from_node(node)
    if dim is None and not isinstance(node, (ast.Constant, ast.Name, ast.Attribute)):
        return None
    return (dim,)


def _dtype_of_constant(value: object) -> Optional[str]:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float64"
    if isinstance(value, complex):
        return "complex128"
    return None


def _float_result(dtype: Optional[str]) -> Optional[str]:
    """ufunc result dtype for float-producing ops (sqrt of int etc.)."""
    if dtype in ("bool", "int"):
        return "float64"
    return dtype


# ---------------------------------------------------------------------------
# interprocedural summaries
# ---------------------------------------------------------------------------

class _Summaries(Summaries):
    """Fixpoint state: return shapes per function, attr shapes per class."""

    def __init__(self) -> None:
        super().__init__()
        #: ``module.Class.attr`` -> inferred shape of ``self.attr``.
        self.attrs: Dict[str, Optional[ShapeVal]] = {}

    def declared_return(self, fn: FunctionInfo) -> Optional[ShapeVal]:
        if fn.shape_annotation:
            value, recognized = parse_shape_annotation(fn.shape_annotation)
            if recognized:
                return value
        return _annotation_shape(fn.return_annotation)

    def return_shape(self, fn: FunctionInfo) -> Optional[ShapeVal]:
        declared = self.declared_return(fn)
        if declared is not None:
            return declared
        return self.returns.get(fn.qualname)

    def attr_shape(self, module: str, class_name: str, attr: str) -> Optional[ShapeVal]:
        return self.attrs.get(f"{module}.{class_name}.{attr}")


# ---------------------------------------------------------------------------
# per-function inference
# ---------------------------------------------------------------------------

class _FunctionAnalysis(FunctionAnalysis):
    """Builds a local shape environment and infers expression shapes."""

    annotations_attr = "shape_annotations"
    join = staticmethod(join)

    def __init__(self, *args):
        #: Loop variables bound by iterating an inferred array (RL034).
        self.array_loop_vars: set = set()
        super().__init__(*args)

    def param_value(self, param: ParamInfo) -> Optional[ShapeVal]:
        return _annotation_shape(param.annotation)

    def annotated_value(self, text: str) -> Optional[ShapeVal]:
        shape, recognized = parse_shape_annotation(text)
        return shape if recognized else None

    # -- expression inference ---------------------------------------

    def infer(self, node: ast.AST) -> Optional[ShapeVal]:
        if isinstance(node, ast.Constant):
            dtype = _dtype_of_constant(node.value)
            return scalar(dtype) if dtype is not None else None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            return self._infer_attribute(node)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return self.infer(node.operand)
            if isinstance(node.op, ast.Not):
                return scalar("bool")
            return None
        if isinstance(node, ast.BinOp):
            result, _problem = self._infer_binop(node)
            return result
        if isinstance(node, ast.Compare):
            left = self.infer(node.left)
            for comp in node.comparators:
                left, _ = broadcast(left, self.infer(comp))
            if left is None:
                return None
            return ShapeVal(left.kind, left.dims, "bool")
        if isinstance(node, ast.IfExp):
            return join(self.infer(node.body), self.infer(node.orelse))
        if isinstance(node, ast.Subscript):
            return self._infer_subscript(node)
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        return None

    def _infer_attribute(self, node: ast.Attribute) -> Optional[ShapeVal]:
        # np.pi / math.pi / np.newaxis and friends.
        if isinstance(node.value, ast.Name) and node.value.id in (*_NP_NAMES, "math"):
            if node.attr in ("pi", "e", "euler_gamma", "inf", "nan", "tau"):
                return scalar("float64")
            return None
        base = self.infer(node.value)
        if node.attr == "T" and base is not None and base.kind == ARRAY:
            dims = tuple(reversed(base.dims)) if base.dims is not None else None
            return array(dims, base.dtype)
        if node.attr in ("real", "imag") and base is not None:
            return ShapeVal(base.kind, base.dims, _real_part(base.dtype))
        if node.attr in ("size", "ndim", "itemsize", "nbytes"):
            return scalar("int") if base is not None and base.kind == ARRAY else None
        # ``self.attr`` resolved through the class __init__ summary.
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.fn.class_name is not None
        ):
            return self.summaries.attr_shape(
                self.fn.module, self.fn.class_name, node.attr
            )
        return None

    def _infer_call(self, node: ast.Call) -> Optional[ShapeVal]:
        np_name = _np_func(node)
        if np_name is not None:
            return self._infer_np_call(node, np_name)
        func = node.func
        # Builtins.
        if isinstance(func, ast.Name):
            if func.id == "float":
                return scalar("float64")
            if func.id == "int":
                return scalar("int")
            if func.id == "bool":
                return scalar("bool")
            if func.id == "complex":
                return scalar("complex128")
            if func.id == "len":
                return scalar("int")
            if func.id == "abs" and node.args:
                inner = self.infer(node.args[0])
                if inner is None:
                    return None
                return ShapeVal(inner.kind, inner.dims, _real_part(inner.dtype))
            if func.id in ("sum", "min", "max", "round") and node.args:
                inner = self.infer(node.args[0])
                return scalar(inner.dtype if inner is not None else None)
        # Resolved project call sites use the interprocedural summary.
        site = self.sites.get(id(node))
        if site is not None and site.kind == "call":
            if site.callee.name == "__init__":
                return None  # constructor: an object, not a lattice value
            return self.summaries.return_shape(site.callee)
        # Array method calls and RNG draws.
        if isinstance(func, ast.Attribute):
            return self._infer_method_call(node, func)
        return None

    def _infer_np_call(self, node: ast.Call, name: str) -> Optional[ShapeVal]:
        dtype_kw = _dtype_from_node(_keyword(node, "dtype"))
        if name in _SHAPE_CONSTRUCTORS:
            if not node.args:
                return None
            dims = _dims_from_shape_node(node.args[0])
            dtype = dtype_kw or ("float64" if name != "full" else _fill_dtype(self, node))
            return array(dims, dtype)
        if name in _LIKE_CONSTRUCTORS and node.args:
            inner = self.infer(node.args[0])
            dims = inner.dims if inner is not None and inner.kind == ARRAY else None
            return array(dims, dtype_kw or (inner.dtype if inner else None))
        if name == "arange":
            dtype = dtype_kw
            if dtype is None:
                args_int = all(
                    isinstance(a, ast.Constant) and isinstance(a.value, int)
                    for a in node.args
                )
                dtype = "int" if node.args and args_int else "float64"
            dim = _dim_from_node(node.args[0]) if len(node.args) == 1 else None
            return array((dim,), dtype)
        if name == "linspace":
            dim = _dim_from_node(node.args[2]) if len(node.args) >= 3 else (
                _dim_from_node(_keyword(node, "num") or ast.Constant(value=50))
            )
            return array((dim,), dtype_kw or "float64")
        if name in ("asarray", "array", "atleast_1d"):
            if not node.args:
                return None
            arg = node.args[0]
            if isinstance(arg, (ast.List, ast.Tuple)):
                dtypes = [self.infer(e) for e in arg.elts]
                dtype = None
                for d in dtypes:
                    if d is None or d.kind != SCALAR:
                        dtype = None
                        break
                    dtype = join_dtype(dtype, d.dtype) if dtype is not None else d.dtype
                return array((len(arg.elts),), dtype_kw or dtype)
            inner = self.infer(arg)
            if inner is None:
                return array(None, dtype_kw)
            dims = inner.dims if inner.kind == ARRAY else ()
            if name == "atleast_1d" and inner.kind == SCALAR:
                dims = (1,)
            if inner.kind == SCALAR and name in ("asarray", "array"):
                # 0-d array: broadcast-equivalent to a scalar.
                return scalar(dtype_kw or inner.dtype)
            return array(dims, dtype_kw or inner.dtype)
        if name in _ELEMENTWISE_UNARY:
            if not node.args:
                return None
            inner = self.infer(node.args[0])
            if inner is None:
                return None
            if name in ("isnan", "isinf", "isfinite"):
                dtype = "bool"
            elif name in ("abs", "absolute", "fabs", "angle"):
                dtype = _real_part(inner.dtype)
            elif name in ("sign", "rint", "round", "around", "floor", "ceil"):
                dtype = inner.dtype
            else:
                dtype = _float_result(inner.dtype)
            return ShapeVal(inner.kind, inner.dims, dtype)
        if name in _ELEMENTWISE_BINARY:
            if len(node.args) < 2:
                return None
            result, _ = broadcast(self.infer(node.args[0]), self.infer(node.args[1]))
            return result
        if name in _REDUCTIONS:
            if not node.args:
                return None
            inner = self.infer(node.args[0])
            axis = _keyword(node, "axis")
            if name in ("argmax", "argmin", "count_nonzero"):
                dtype: Optional[str] = "int"
            elif name in ("all", "any"):
                dtype = "bool"
            else:
                dtype = inner.dtype if inner is not None else None
            if axis is None:
                return scalar(dtype)
            return _drop_axis(inner, axis, dtype)
        if name == "where":
            if len(node.args) == 3:
                result, _ = broadcast(self.infer(node.args[1]), self.infer(node.args[2]))
                result, _ = broadcast(result, self.infer(node.args[0]))
                return result
            return None
        if name == "interp":
            if not node.args:
                return None
            query = self.infer(node.args[0])
            if query is None:
                return None
            return ShapeVal(query.kind, query.dims, "float64")
        if name == "concatenate":
            return self._infer_concat(node, extra_rank=0, dtype_kw=dtype_kw)
        if name in ("stack", "vstack", "column_stack"):
            return self._infer_concat(node, extra_rank=1, dtype_kw=dtype_kw)
        if name == "append":
            return array((None,), dtype_kw)
        if name == "outer" and len(node.args) == 2:
            a, b = self.infer(node.args[0]), self.infer(node.args[1])
            da = a.dims[0] if a is not None and a.kind == ARRAY and a.rank == 1 else None
            db = b.dims[0] if b is not None and b.kind == ARRAY and b.rank == 1 else None
            return array((da, db), join_dtype(
                a.dtype if a else None, b.dtype if b else None
            ))
        if name == "reshape" and len(node.args) >= 2:
            inner = self.infer(node.args[0])
            return array(
                _reshape_dims(node.args[1:]), inner.dtype if inner else None
            )
        if name in ("ravel", "convolve", "diff", "unique", "cumsum", "cumprod"):
            inner = self.infer(node.args[0]) if node.args else None
            return array((None,), inner.dtype if inner else None)
        if name == "argsort" and node.args:
            inner = self.infer(node.args[0])
            dims = inner.dims if inner is not None and inner.kind == ARRAY else None
            return array(dims, "int")
        if name in _PASSTHROUGH and node.args:
            inner = self.infer(node.args[0])
            if inner is None:
                return None
            return ShapeVal(inner.kind, inner.dims, inner.dtype)
        if name in ("float64", "float32", "complex128", "complex64", "int64", "int32"):
            inner = self.infer(node.args[0]) if node.args else None
            kind = inner.kind if inner is not None else SCALAR
            dims = inner.dims if inner is not None and inner.kind == ARRAY else None
            return ShapeVal(kind, dims, canon_dtype(name))
        if name == "dot":
            return None
        if name == "mod":
            if len(node.args) == 2:
                result, _ = broadcast(self.infer(node.args[0]), self.infer(node.args[1]))
                return result
        return None

    def _infer_concat(
        self, node: ast.Call, extra_rank: int, dtype_kw: Optional[str]
    ) -> Optional[ShapeVal]:
        if not node.args or not isinstance(node.args[0], (ast.Tuple, ast.List)):
            return array(None, dtype_kw)
        parts = [self.infer(e) for e in node.args[0].elts]
        dtype = dtype_kw
        if dtype is None:
            for part in parts:
                if part is None or part.dtype is None:
                    dtype = None
                    break
                dtype = join_dtype(dtype, part.dtype) if dtype is not None else part.dtype
        ranks = {
            p.rank for p in parts if p is not None and p.rank is not None
        }
        if len(ranks) == 1 and None not in ranks:
            rank = ranks.pop() + extra_rank
            if rank >= 1:
                return array((None,) * rank, dtype)
        return array(None, dtype)

    def _infer_method_call(
        self, node: ast.Call, func: ast.Attribute
    ) -> Optional[ShapeVal]:
        if func.attr in _RNG_DRAWS:
            size = _keyword(node, "size")
            # Positional size: rng.normal(loc, scale, size).
            if size is None and func.attr in ("normal", "uniform", "lognormal") and len(node.args) >= 3:
                size = node.args[2]
            dtype = "int" if func.attr in ("integers", "poisson") else "float64"
            if size is None:
                return scalar(dtype)
            return array(_dims_from_shape_node(size), dtype)
        base = self.infer(func.value)
        if base is None or base.kind != ARRAY:
            return None
        if func.attr == "reshape":
            return array(_reshape_dims(node.args), base.dtype)
        if func.attr in ("ravel", "flatten"):
            return array((None,), base.dtype)
        if func.attr == "copy":
            return base
        if func.attr == "astype":
            target = _dtype_from_node(node.args[0]) if node.args else None
            return array(base.dims, target)
        if func.attr in ("clip", "round", "conj"):
            return base
        if func.attr in _REDUCTIONS:
            axis = _keyword(node, "axis") or (node.args[0] if node.args else None)
            dtype = base.dtype
            if func.attr in ("argmax", "argmin"):
                dtype = "int"
            if axis is None:
                return scalar(dtype)
            return _drop_axis(base, axis, dtype)
        if func.attr == "item":
            return scalar(base.dtype)
        if func.attr == "tolist":
            return None
        return None

    def _infer_binop(
        self, node: ast.BinOp
    ) -> Tuple[Optional[ShapeVal], Optional[str]]:
        if not isinstance(
            node.op,
            (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.FloorDiv),
        ):
            return None, None
        left, right = self.infer(node.left), self.infer(node.right)
        result, problem = broadcast(left, right)
        if result is not None and isinstance(node.op, ast.Div):
            result = ShapeVal(result.kind, result.dims, _float_result(result.dtype))
        return result, problem

    def _infer_subscript(self, node: ast.Subscript) -> Optional[ShapeVal]:
        base = self.infer(node.value)
        if base is None or base.kind != ARRAY:
            return None
        return _apply_index(base, node.slice, self)

    # -- environment construction -----------------------------------

    def bind_other(self, node: ast.AST, binds: List[Binding]) -> None:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            # A bare declaration (``x: np.ndarray``) seeds the type.
            declared = _annotation_shape(
                node.annotation and _safe_unparse(node.annotation) or ""
            )
            if declared is not None:
                self.env[node.target.id] = declared
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            binds.append((node.target.id, node.value, node.lineno))
        elif isinstance(node, ast.For):
            self._bind_loop_targets(node, binds)

    def bound_value(self, name: str, value) -> Optional[ShapeVal]:
        # Loop targets bind a thunk that re-reads the iterable's shape.
        return value() if callable(value) else self.infer(value)

    def _bind_loop_targets(self, node: ast.For, binds: List[Binding]) -> None:
        """Bind ``for x in arr`` loop targets to element shapes."""
        def element_of(iter_node: ast.AST):
            def thunk() -> Optional[ShapeVal]:
                shape = self.infer(iter_node)
                if shape is None or shape.kind != ARRAY:
                    return None
                if shape.rank == 1:
                    return scalar(shape.dtype)
                if shape.dims is None:
                    # Unknown rank: the element could be a scalar or a
                    # sub-array — claim nothing (a wrong array claim
                    # would fabricate RL031s at call boundaries).
                    return None
                return array(shape.dims[1:], shape.dtype)
            return thunk

        iterable = node.iter
        targets: List[Tuple[ast.AST, ast.AST]] = []
        if isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Name):
            if iterable.func.id == "enumerate" and iterable.args:
                if isinstance(node.target, ast.Tuple) and len(node.target.elts) == 2:
                    targets.append((node.target.elts[1], iterable.args[0]))
            elif iterable.func.id == "zip":
                if isinstance(node.target, ast.Tuple) and len(node.target.elts) == len(
                    iterable.args
                ):
                    targets.extend(zip(node.target.elts, iterable.args))
        if not targets:
            targets.append((node.target, iterable))
        for target, src in targets:
            if isinstance(target, ast.Name):
                binds.append((target.id, element_of(src), node.lineno))
                shape = self.infer(src)
                if shape is not None and shape.kind == ARRAY:
                    self.array_loop_vars.add(target.id)

    def return_summary(self) -> Optional[ShapeVal]:
        # Any unknown return makes the whole summary unknown.
        inferred: Optional[ShapeVal] = None
        for _, shape in self.returned():
            if shape is None:
                return None
            inferred = shape if inferred is None else join(inferred, shape)
        return inferred


def _real_part(dtype: Optional[str]) -> Optional[str]:
    if dtype == "complex128":
        return "float64"
    return dtype


def _fill_dtype(analysis: _FunctionAnalysis, node: ast.Call) -> Optional[str]:
    if len(node.args) >= 2:
        fill = analysis.infer(node.args[1])
        return fill.dtype if fill is not None else None
    return None


def _drop_axis(
    inner: Optional[ShapeVal], axis: ast.AST, dtype: Optional[str]
) -> Optional[ShapeVal]:
    if inner is None or inner.kind != ARRAY or inner.dims is None:
        return array(None, dtype)
    if isinstance(axis, ast.Constant) and isinstance(axis.value, int):
        idx = axis.value if axis.value >= 0 else len(inner.dims) + axis.value
        if 0 <= idx < len(inner.dims):
            dims = inner.dims[:idx] + inner.dims[idx + 1:]
            return scalar(dtype) if not dims else array(dims, dtype)
    if len(inner.dims) >= 1:
        return array((None,) * (len(inner.dims) - 1), dtype) if len(inner.dims) > 1 else scalar(dtype)
    return array(None, dtype)


def _reshape_dims(args: List[ast.AST]) -> Optional[Tuple[Dim, ...]]:
    if len(args) == 1 and isinstance(args[0], (ast.Tuple, ast.List)):
        elts = args[0].elts
    else:
        elts = args
    dims: List[Dim] = []
    for e in elts:
        if isinstance(e, ast.Constant) and isinstance(e.value, int):
            dims.append(None if e.value == -1 else int(e.value))
        else:
            dims.append(_dim_from_node(e))
    return tuple(dims) if dims else None


def _apply_index(
    base: ShapeVal, index: ast.AST, analysis: _FunctionAnalysis
) -> Optional[ShapeVal]:
    """Shape of ``base[index]`` for the common index forms."""
    entries = index.elts if isinstance(index, ast.Tuple) else [index]
    if base.dims is None:
        # Unknown rank: a single integer index still strips one axis,
        # anything else keeps the rank unknown.
        return array(None, base.dtype)
    dims = list(base.dims)
    out: List[Dim] = []
    pos = 0
    for entry in entries:
        if isinstance(entry, ast.Constant) and entry.value is None:
            out.append(1)  # np.newaxis
            continue
        if (
            isinstance(entry, ast.Attribute)
            and entry.attr == "newaxis"
        ):
            out.append(1)
            continue
        if pos >= len(dims):
            return array(None, base.dtype)
        if isinstance(entry, ast.Slice):
            lo = entry.lower
            hi = entry.upper
            if lo is None and hi is None and entry.step is None:
                out.append(dims[pos])
            else:
                out.append(None)
            pos += 1
            continue
        if isinstance(entry, ast.Constant) and entry.value is Ellipsis:
            return array(None, base.dtype)
        inferred = analysis.infer(entry)
        if inferred is not None and inferred.kind == ARRAY:
            # Mask / fancy indexing: rank-1 result of unknown extent.
            out.append(None)
            pos += 1
            continue
        # Integer-like index: drops the axis.
        pos += 1
    out.extend(dims[pos:])
    if not out:
        return scalar(base.dtype)
    return array(tuple(out), base.dtype)


def _safe_unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except (ValueError, AttributeError):  # pragma: no cover
        return ""


# ---------------------------------------------------------------------------
# the vec pass
# ---------------------------------------------------------------------------

#: Iterable names whose last ``_`` token marks a vectorizable domain.
_ITER_WORDS = {
    "angles", "azimuths", "bearings", "positions", "points", "pts",
    "sectors", "surfaces", "walls", "distances", "speeds", "samples",
    "offsets", "grid", "xs", "ys", "frequencies",
}

#: Loop-body arithmetic ops that count toward the RL030 density test.
_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.FloorDiv)


class VecPass(InferencePass):
    """Drives shape inference to a fixpoint, then emits RL030-RL036."""

    analysis_class = _FunctionAnalysis
    summaries_class = _Summaries

    def summarize(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> bool:
        # Self-attribute shapes join the return summaries in the
        # fixpoint (each entry only climbs the finite lattice).
        changed = False
        if fn.name == "__init__" and fn.class_name is not None:
            changed = self._record_attrs(fn, analysis)
        return super().summarize(fn, analysis) or changed

    def check(self, functions: List[FunctionInfo]) -> None:
        for fn in functions:
            if not module_in(fn.module, self.config.vec_packages):
                continue
            analysis = self.analysis(fn)
            if analysis is None:
                continue
            self._check_loops(fn, analysis)
            self._check_broadcasts(fn, analysis)
            self._check_dtype_drift(fn, analysis)
            self._check_false_vectorization(fn, analysis)
            self._check_instance_rebuild(fn, analysis)
            self._check_shape_contract(fn, analysis)
        self._check_call_boundaries()

    def _record_attrs(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> bool:
        changed = False
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            key = f"{fn.module}.{fn.class_name}.{target.attr}"
            shape = analysis.infer(node.value)
            current = self.summaries.attrs.get(key, "∅")
            merged = join(current, shape) if isinstance(current, ShapeVal) else shape
            if current != merged:
                self.summaries.attrs[key] = merged
                changed = True
        return changed

    # -- RL030 / RL033(list) / RL034 --------------------------------

    def _check_loops(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> None:
        module = self.table.modules[fn.module]
        loops = [n for n in ast.walk(fn.node) if isinstance(n, (ast.For, ast.While))]
        appended_lists: Dict[str, ast.For] = {}
        reported: set = set()  # nested loops walk shared bodies twice
        for loop in loops:
            if isinstance(loop, ast.For):
                why = self._iter_reason(loop.iter, loop, analysis, allow_range=True)
                if why is not None:
                    ops = _arith_op_count(loop)
                    if ops >= 2:
                        self.reporter.report(
                            module,
                            loop,
                            "RL030",
                            f"scalar python loop over {why} with {ops} "
                            "arithmetic operations per iteration — a numpy "
                            "batch-kernel candidate (evaluate the whole grid "
                            "in one vectorized expression)",
                            context=fn.qualname,
                        )
                    for name in _appended_names(loop):
                        appended_lists.setdefault(name, loop)
            for sub in ast.walk(loop):
                if sub is loop or not isinstance(sub, ast.Call):
                    continue
                if id(sub) in reported:
                    continue
                reported.add(id(sub))
                np_name = _np_func(sub)
                if np_name in _GROWTH_CALLS:
                    self.reporter.report(
                        module,
                        sub,
                        "RL033",
                        f"np.{np_name} inside a loop reallocates the whole "
                        "array every iteration — preallocate or collect once "
                        "outside the loop",
                        context=fn.qualname,
                    )
                if (
                    isinstance(sub.func, ast.Name)
                    and sub.func.id == "float"
                    and sub.args
                    and self._is_array_roundtrip(sub.args[0], analysis)
                ):
                    self.reporter.report(
                        module,
                        sub,
                        "RL034",
                        "float(...) coerces an array element to a python "
                        "scalar inside a loop — keep the computation in "
                        "numpy and convert once at the boundary",
                        context=fn.qualname,
                    )
        # list-append-then-asarray: only for loops RL030 already deems
        # vectorizable, so ordinary record accumulation stays quiet.
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            np_name = _np_func(node)
            if np_name not in ("asarray", "array"):
                continue
            if node.args and isinstance(node.args[0], ast.Name):
                name = node.args[0].id
                if name in appended_lists:
                    self.reporter.report(
                        module,
                        node,
                        "RL033",
                        f"list '{name}' is appended element-by-element in a "
                        "vectorizable loop and then converted with "
                        f"np.{np_name} — compute it as one array expression",
                        context=fn.qualname,
                    )

    def _iter_reason(
        self,
        iterable: ast.AST,
        loop: ast.For,
        analysis: _FunctionAnalysis,
        allow_range: bool,
    ) -> Optional[str]:
        """Reason string when ``iterable`` is a vectorizable domain."""
        np_name = _np_func(iterable) if isinstance(iterable, ast.Call) else None
        if np_name in ("arange", "linspace"):
            return f"an np.{np_name} grid"
        if isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Name):
            fname = iterable.func.id
            if fname == "range" and allow_range:
                if self._range_loop_indexes_array(loop, analysis):
                    return "range() indices into an array"
                return None
            if fname in ("enumerate", "zip"):
                for arg in iterable.args:
                    reason = self._iter_reason(arg, loop, analysis, allow_range=False)
                    if reason is not None:
                        return reason
                return None
        shape = analysis.infer(iterable)
        if shape is not None and shape.kind == ARRAY:
            return f"an ndarray ({shape.render()})"
        word = _domain_word(iterable)
        if word is not None:
            return f"'{word}'"
        return None

    def _range_loop_indexes_array(
        self, loop: ast.For, analysis: _FunctionAnalysis
    ) -> bool:
        """True when the range() loop var indexes an inferred array."""
        if not isinstance(loop.target, ast.Name):
            return False
        var = loop.target.id
        for node in ast.walk(loop):
            if not isinstance(node, ast.Subscript):
                continue
            uses_var = any(
                isinstance(sub, ast.Name) and sub.id == var
                for sub in ast.walk(node.slice)
            )
            if not uses_var:
                continue
            base = analysis.infer(node.value)
            if base is not None and base.kind == ARRAY:
                return True
        return False

    def _is_array_roundtrip(self, arg: ast.AST, analysis: _FunctionAnalysis) -> bool:
        """Does ``float(arg)`` pull a scalar out of the numpy domain?"""
        if isinstance(arg, ast.Subscript):
            base = analysis.infer(arg.value)
            return base is not None and base.kind == ARRAY
        if isinstance(arg, ast.Call):
            if _np_func(arg) is not None:
                return True
            if isinstance(arg.func, ast.Attribute) and arg.func.attr in _RNG_DRAWS:
                return True
            return False
        if isinstance(arg, ast.Name):
            return arg.id in analysis.array_loop_vars
        return False

    # -- RL031 ------------------------------------------------------

    def _check_broadcasts(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> None:
        module = self.table.modules[fn.module]
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.BinOp):
                continue
            result, problem = analysis._infer_binop(node)
            if problem is None:
                continue
            if module.shape_annotations.get(node.lineno):
                continue  # annotated line: the promotion is declared
            left, right = analysis.infer(node.left), analysis.infer(node.right)
            lr = left.render() if left else "?"
            rr = right.render() if right else "?"
            if problem == "mismatch":
                message = (
                    f"broadcast mismatch: {lr} and {rr} have incompatible "
                    "concrete dims — this raises (or silently broadcasts "
                    "against the wrong axis) at runtime"
                )
            else:
                out = result.render() if result else "a higher-rank array"
                message = (
                    f"silent rank promotion: {lr} combined with {rr} "
                    f"broadcasts to {out} — if intended, annotate the line "
                    "with '# replint: shape=...'"
                )
            self.reporter.report(module, node, "RL031", message, context=fn.qualname)

    def _check_call_boundaries(self) -> None:
        """RL031 at call sites: array argument into a scalar parameter."""
        for site in self.graph.sites:
            if site.kind != "call" or site.caller is None:
                continue
            if not module_in(site.caller.module, self.config.vec_packages):
                continue
            analysis = self.analysis(site.caller)
            if analysis is None:
                continue
            bound, _exhaustive = bind_arguments(site)
            module = self.table.modules[site.caller.module]
            for param_name, arg in bound.items():
                param = site.callee.param(param_name)
                if param is None:
                    continue
                expected = _annotation_shape(param.annotation)
                if expected is None or expected.kind != SCALAR:
                    continue
                actual = analysis.infer(arg)
                if actual is None or actual.kind != ARRAY:
                    continue
                if module.shape_annotations.get(getattr(arg, "lineno", 0)):
                    continue
                self.reporter.report(
                    module,
                    arg,
                    "RL031",
                    f"argument '{param_name}' of {site.callee.qualname} is "
                    f"annotated {param.annotation} (scalar) but receives "
                    f"{actual.render()} — the callee will silently broadcast "
                    "or fail on a multi-element array",
                    context=site.caller.qualname,
                )

    # -- RL032 ------------------------------------------------------

    def _check_dtype_drift(self, fn: FunctionInfo, analysis: _FunctionAnalysis) -> None:
        module = self.table.modules[fn.module]
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                target: Optional[str] = None
                source: Optional[ShapeVal] = None
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                    and node.args
                ):
                    target = _dtype_from_node(node.args[0])
                    source = analysis.infer(node.func.value)
                elif _np_func(node) in ("float32", "float16", "complex64") and node.args:
                    target = canon_dtype(_np_func(node))
                    source = analysis.infer(node.args[0])
                if target is None or source is None:
                    continue
                if not narrows(source.dtype, target):
                    continue
                if module.dtype_annotations.get(node.lineno):
                    continue
                self.reporter.report(
                    module,
                    node,
                    "RL032",
                    f"dtype narrowing {source.dtype} -> {target}: float32 "
                    "drift shifts dB thresholds near MCS boundaries — if "
                    "deliberate, annotate with '# replint: dtype="
                    f"{target}'",
                    context=fn.qualname,
                )
            elif isinstance(node, ast.Attribute) and node.attr == "real":
                base = analysis.infer(node.value)
                if base is None or base.dtype != "complex128":
                    continue
                if module.dtype_annotations.get(node.lineno):
                    continue
                self.reporter.report(
                    module,
                    node,
                    "RL032",
                    ".real silently truncates a complex field value — take "
                    "np.abs for magnitude, or annotate the line with "
                    "'# replint: dtype=float64' if the imaginary part is "
                    "provably zero",
                    context=fn.qualname,
                )

    # -- RL035 ------------------------------------------------------

    def _check_false_vectorization(
        self, fn: FunctionInfo, analysis: _FunctionAnalysis
    ) -> None:
        module = self.table.modules[fn.module]
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            if _np_func(node) == "vectorize":
                self.reporter.report(
                    module,
                    node,
                    "RL035",
                    "np.vectorize is a python-level loop in disguise (no "
                    "compiled kernel) — write the expression with real "
                    "ufuncs instead",
                    context=fn.qualname,
                )
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
                and func.attr in _MATH_SCALAR_FUNCS
                and node.args
            ):
                arg_shape = analysis.infer(node.args[0])
                if arg_shape is not None and arg_shape.kind == ARRAY:
                    self.reporter.report(
                        module,
                        node,
                        "RL035",
                        f"math.{func.attr} only accepts scalars — this "
                        f"receives {arg_shape.render()} and will raise; use "
                        f"np.{func.attr} for elementwise evaluation",
                        context=fn.qualname,
                    )

    # -- RL033 (per-call instance rebuild) --------------------------

    def _check_instance_rebuild(
        self, fn: FunctionInfo, analysis: _FunctionAnalysis
    ) -> None:
        """Concatenate of pure instance state inside a non-init method."""
        if fn.class_name is None or fn.name == "__init__":
            return
        if "staticmethod" in fn.decorators or "classmethod" in fn.decorators:
            return
        module = self.table.modules[fn.module]
        pure_locals = _constant_locals(fn.node)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            np_name = _np_func(node)
            if np_name not in ("concatenate", "append", "stack", "hstack", "vstack"):
                continue
            operands = node.args
            if operands and isinstance(operands[0], (ast.Tuple, ast.List)):
                operands = operands[0].elts
            if not operands:
                continue
            if all(_instance_pure(op, pure_locals) for op in operands):
                self.reporter.report(
                    module,
                    node,
                    "RL033",
                    f"np.{np_name} rebuilds an array derived only from "
                    "instance state on every call — precompute it once in "
                    "__init__",
                    context=fn.qualname,
                )

    # -- RL036 ------------------------------------------------------

    def _check_shape_contract(
        self, fn: FunctionInfo, analysis: _FunctionAnalysis
    ) -> None:
        if not fn.is_public or fn.name.startswith("__"):
            return
        if fn.shape_annotation:
            return
        # Tuple returns are out of contract-syntax reach — a single
        # ``shape=`` spec cannot describe (xs, ys, snr).
        if "Tuple[" in fn.return_annotation or "tuple[" in fn.return_annotation:
            return
        returns_array = False
        declared = _annotation_shape(fn.return_annotation)
        if declared is not None and declared.kind == ARRAY:
            returns_array = True
        else:
            inferred = self.summaries.returns.get(fn.qualname)
            if (
                isinstance(inferred, ShapeVal)
                and inferred.kind == ARRAY
                and not fn.return_annotation
            ):
                returns_array = True
        if not returns_array:
            return
        module = self.table.modules[fn.module]
        self.reporter.report(
            module,
            fn.node,
            "RL036",
            f"public {fn.module} API returns an array but declares no "
            "shape contract — add '# replint: shape=(...)' on the def "
            "line (symbolic dims welcome: shape=(points,))",
            context=fn.qualname,
        )


def _domain_word(node: ast.AST) -> Optional[str]:
    """Last identifier token when it names a vectorizable domain."""
    name: Optional[str] = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Call):
        return _domain_word(node.func)
    if not name:
        return None
    tokens = [t for t in name.lower().split("_") if t]
    if tokens and tokens[-1] in _ITER_WORDS:
        return name
    return None


def _arith_op_count(loop: ast.For) -> int:
    """Float/np-scalar arithmetic density of a loop body."""
    count = 0
    for node in ast.walk(loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
            count += 1
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, _ARITH_OPS):
            count += 1
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
            ):
                count += 1
            elif isinstance(func, ast.Name) and func.id == "float":
                count += 1
    return count


def _appended_names(loop: ast.For) -> List[str]:
    out: List[str] = []
    for node in ast.walk(loop):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Name)
        ):
            out.append(node.func.value.id)
    return out


def _constant_locals(fn_node: ast.AST) -> set:
    """Locals assigned exactly once from constant-only expressions."""
    counts: Dict[str, int] = {}
    values: Dict[str, ast.AST] = {}
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                counts[target.id] = counts.get(target.id, 0) + 1
                values[target.id] = node.value
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target = node.target
            if isinstance(target, ast.Name):
                counts[target.id] = counts.get(target.id, 0) + 2
    pure: set = set()
    for name, value in values.items():
        if counts.get(name) == 1 and _constant_expr(value):
            pure.add(name)
    return pure


def _constant_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.BinOp):
        return _constant_expr(node.left) and _constant_expr(node.right)
    if isinstance(node, ast.UnaryOp):
        return _constant_expr(node.operand)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id in (*_NP_NAMES, "math")  # math.pi, np.pi ...
    return False


def _instance_pure(node: ast.AST, pure_locals: set) -> bool:
    """True when an expression depends only on ``self`` state/constants."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return node.id in pure_locals
    if isinstance(node, ast.Attribute):
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name):
            return root.id == "self" or root.id in (*_NP_NAMES, "math")
        return False
    if isinstance(node, (ast.List, ast.Tuple)):
        return all(_instance_pure(e, pure_locals) for e in node.elts)
    if isinstance(node, ast.BinOp):
        return _instance_pure(node.left, pure_locals) and _instance_pure(
            node.right, pure_locals
        )
    if isinstance(node, ast.UnaryOp):
        return _instance_pure(node.operand, pure_locals)
    if isinstance(node, ast.Subscript):
        return _instance_pure(node.value, pure_locals) and _instance_pure(
            node.slice, pure_locals
        )
    return False


# ---------------------------------------------------------------------------
# profile joining and the vectorization worklist
# ---------------------------------------------------------------------------

#: Rule codes that name work for the vectorization worklist.
WORKLIST_CODES = frozenset({"RL030", "RL033", "RL034", "RL035"})


def load_profile(path: pathlib.Path) -> Dict[str, float]:
    """Flatten a run manifest / metrics snapshot / BENCH json to metrics.

    Three shapes are recognized:

    * a **campaign run manifest** (``schema_version`` + ``campaign``):
      only its deterministic sections contribute — merged metrics,
      profile handler call counts, and span counts.  Wall-time fields
      are dropped so the hotness ranking is itself deterministic.
    * a **benchmark-result document** (:mod:`repro.obs.bench` schema):
      entries flatten to ``bench.<suite>.<name>``.
    * anything else: every numeric leaf becomes a dotted key
      (``counters.phy.raytracing.traces``).  Histograms contribute
      their counts; booleans are skipped.

    Raises ``ValueError`` on unreadable input so the CLI can exit 2.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable profile {path}: {exc}") from None
    flat: Dict[str, float] = {}
    from repro.obs.bench import is_bench_doc

    if is_bench_doc(data):
        suite = data["suite"]
        for entry in data["entries"]:
            if isinstance(entry, dict) and isinstance(
                entry.get("value"), (int, float)
            ):
                key = f"bench.{suite}.{entry.get('name')}"
                flat[key] = flat.get(key, 0.0) + float(entry["value"])
        return flat
    if isinstance(data, dict) and "schema_version" in data and "campaign" in data:
        _flatten_numeric(data.get("metrics") or {}, "", flat)
        profile = data.get("profile") or {}
        for name, stats in (profile.get("handlers") or {}).items():
            flat[f"profile.handlers.{name}.calls"] = float(stats.get("calls", 0))
        for name, stats in (profile.get("spans") or {}).items():
            flat[f"profile.spans.{name}.count"] = float(stats.get("count", 0))
        return flat
    _flatten_numeric(data, "", flat)
    return flat


def _flatten_numeric(value: object, prefix: str, out: Dict[str, float]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = out.get(prefix, 0.0) + float(value)
        return
    if isinstance(value, dict):
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten_numeric(value[key], sub, out)
    elif isinstance(value, list):
        for item in value:
            _flatten_numeric(item, prefix, out)


def _metric_tail(module: str) -> str:
    """``repro.phy.raytracing`` -> ``phy.raytracing`` (obs counter prefix)."""
    if module.startswith("repro."):
        return module.split(".", 1)[1]
    return module


def _tail_hotness(tail: str, profile: Dict[str, float]) -> float:
    needle = f".{tail}."
    total = 0.0
    for key, value in profile.items():
        if needle in f".{key}.":
            total += value
    return total


@dataclass
class WorklistEntry:
    """One ranked vectorization target."""

    path: str
    line: int
    context: str  #: enclosing function qualname
    codes: Dict[str, int] = field(default_factory=dict)
    hotness: float = 0.0
    share: float = 0.0
    messages: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "context": self.context,
            "codes": dict(sorted(self.codes.items())),
            "hotness": round(self.hotness, 6),
            "share": round(self.share, 6),
        }


def build_worklist(
    findings: Iterable[Finding],
    graph: Optional[CallGraph] = None,
    profile: Optional[Dict[str, float]] = None,
    modules_by_path: Optional[Dict[str, str]] = None,
    module_of_function: Optional[Dict[str, str]] = None,
    codes: Optional[frozenset] = None,
) -> List[WorklistEntry]:
    """Rank eligible findings into a burn-down worklist.

    ``codes`` selects the eligible rule codes — the vectorization set
    (RL030/RL033/RL034/RL035) by default; the ``--des`` CLI path
    passes the DES-time set (or the union, for ``--vec --des``).

    Hotness of an entry is the profile mass (summed numeric metrics)
    of its own module plus every module reachable from the enclosing
    function through the call graph; entries in the same function
    merge.  Ordering is deterministic: hotness desc, then path, line,
    context — the same findings and the same profile always produce
    the same list.
    """
    profile = profile or {}
    eligible = WORKLIST_CODES if codes is None else codes
    grouped: Dict[Tuple[str, str], WorklistEntry] = {}
    for finding in findings:
        if finding.code not in eligible:
            continue
        key = (finding.path, finding.context)
        entry = grouped.get(key)
        if entry is None:
            entry = WorklistEntry(
                path=finding.path, line=finding.line, context=finding.context
            )
            grouped[key] = entry
        entry.line = min(entry.line, finding.line)
        entry.codes[finding.code] = entry.codes.get(finding.code, 0) + 1
    entries = list(grouped.values())
    module_of_function = module_of_function or {}
    if profile:
        for entry in entries:
            modules = [_module_of_path(entry.path, modules_by_path)]
            if graph is not None and entry.context:
                for callee in graph.reachable_from(entry.context):
                    modules.append(
                        module_of_function.get(callee, callee.rsplit(".", 2)[0])
                    )
            tails = sorted({_metric_tail(m) for m in modules if m})
            entry.hotness = sum(_tail_hotness(t, profile) for t in tails)
        total = sum(e.hotness for e in entries)
        if total > 0:
            for entry in entries:
                entry.share = entry.hotness / total
    entries.sort(key=lambda e: (-e.hotness, e.path, e.line, e.context))
    return entries


def _module_of_path(rel_path: str, modules_by_path: Optional[Dict[str, str]]) -> str:
    if modules_by_path and rel_path in modules_by_path:
        return modules_by_path[rel_path]
    parts = pathlib.PurePosixPath(rel_path).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def render_worklist(
    entries: List[WorklistEntry],
    profile_path: Optional[str] = None,
    title: str = "vectorization",
) -> str:
    """Human-readable worklist table for ``--vec``/``--des --worklist``."""
    header = (
        f"{title} worklist ({len(entries)} entr"
        f"{'y' if len(entries) == 1 else 'ies'}, "
        f"profile: {profile_path or 'none'})"
    )
    lines = [header]
    for rank, entry in enumerate(entries, start=1):
        codes = ", ".join(
            f"{code} x{count}" if count > 1 else code
            for code, count in sorted(entry.codes.items())
        )
        share = f"{100.0 * entry.share:5.1f}%" if entry.share else "    -"
        lines.append(
            f"{rank:3d}. [{share}] {entry.path}:{entry.line} "
            f"{entry.context}  ({codes})"
        )
    return "\n".join(lines)
