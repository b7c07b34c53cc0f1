"""Runtime sanitizer: dynamic counterpart of ``repro lint --flow``.

The static passes (RL010-RL015) catch unit and RNG mistakes that are
visible in the source.  This module catches the ones that only show up
at runtime: a dB value flowing into a linear-domain helper (or vice
versa) through data the analyzer could not see, and unseeded
generators constructed while an experiment is running.

The sanitizer is strictly opt-in and has **zero overhead when
disabled**: nothing is wrapped at import time.  :func:`enable` swaps
the :mod:`repro.analysis.dbmath` helpers (and
``numpy.random.default_rng``) for checking wrappers by sweeping
``sys.modules`` — rebinding every ``from ... import`` copy a repro
module holds — and :func:`disable` restores the originals.

Checks performed while enabled:

* **implausible dB input** — a value outside ``[-400, 300]`` dB passed
  to a log-domain helper (``db_to_linear``, ``dbm_to_watts``,
  ``power_sum_db``, ...).  A raw linear power (say ``1e9``) passed
  where dB is expected trips this immediately.
* **negative linear power** — a value below ``-1e-6`` passed to a
  linear-domain helper (``linear_to_db``, ``watts_to_dbm``, ...).
  Genuine powers are non-negative; a dB quantity like ``-60`` passed
  where linear power is expected trips this.
* **unseeded RNG** — ``numpy.random.default_rng()`` called with no
  seed, which makes the run irreproducible.

Each violation records the offending value and a call stack.  In
``"warn"`` mode violations are collected (and surfaced as
:class:`SanitizerWarning`); in ``"raise"`` mode the first violation
raises :class:`SanitizerError` at the call site.

Activation paths:

* ``repro.sanitize.enable(mode="warn")`` in code or a fixture;
* ``REPRO_SANITIZE=warn`` (or ``raise``) in the environment — honored
  on ``import repro``;
* ``python -m repro sanitize -- <cmd>`` — runs a child process with
  the environment set and ``REPRO_SANITIZE_REPORT`` pointing at a JSON
  file, then fails if the child recorded violations;
* ``pytest --sanitize`` (see ``tests/conftest.py``).
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import dbmath

#: Plausible range for a value already expressed in dB/dBm.  DB_FLOOR
#: is -300; transmit powers top out far below +300 dBm.  Anything
#: outside is almost certainly a linear power passed to a log-domain
#: helper.
DB_RANGE = (-400.0, 300.0)

#: Tolerance for "negative" linear power: tiny negative values from
#: float cancellation are legitimate (the helpers floor them), large
#: ones mean a log-domain value leaked in.
NEGATIVE_LINEAR_TOLERANCE = -1e-6

#: Hard cap on stored violations so a hot loop cannot eat memory.
MAX_RECORDED = 200


class SanitizerError(RuntimeError):
    """Raised at the offending call site in ``raise`` mode."""


class SanitizerWarning(UserWarning):
    """Emitted for each violation in ``warn`` mode."""


@dataclass
class Violation:
    """One sanitizer hit: what was called, with what, from where."""

    check: str  #: ``implausible-db`` | ``negative-linear`` | ``unseeded-rng``
    func: str  #: wrapped function name, e.g. ``db_to_linear``
    value: str  #: repr of the offending value (truncated)
    message: str
    stack: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "func": self.func,
            "value": self.value,
            "message": self.message,
            "stack": self.stack,
        }

    def render(self) -> str:
        lines = [f"{self.check}: {self.message}"]
        lines.extend(f"    {frame}" for frame in self.stack[-6:])
        return "\n".join(lines)


class _State:
    """Module-level sanitizer state (single instance)."""

    def __init__(self) -> None:
        self.enabled = False
        self.mode = "warn"
        self.violations: List[Violation] = []
        self.total = 0
        #: (module, attr, original) triples to undo on disable().
        self.patches: List[Tuple[object, str, object]] = []
        #: Re-entrancy depth: dbmath helpers call each other
        #: internally; only the outermost call is checked.
        self.depth = 0
        self.report_registered = False


_STATE = _State()


def _capture_stack() -> List[str]:
    frames = traceback.extract_stack()
    out: List[str] = []
    for frame in frames:
        # Drop sanitizer internals from the reported stack.
        if frame.filename == __file__:
            continue
        out.append(f"{frame.filename}:{frame.lineno} in {frame.name}")
    return out


def _record(check: str, func: str, value: object, message: str) -> None:
    _STATE.total += 1
    violation = Violation(
        check=check,
        func=func,
        value=repr(value)[:120],
        message=message,
        stack=_capture_stack(),
    )
    if len(_STATE.violations) < MAX_RECORDED:
        _STATE.violations.append(violation)
    if _STATE.mode == "raise":
        raise SanitizerError(violation.render())
    warnings.warn(f"repro.sanitize {check} in {func}: {message}", SanitizerWarning,
                  stacklevel=4)


def _finite(value: object) -> Optional[np.ndarray]:
    """Coerce a helper argument to a float array, or None if we can't."""
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        return None
    if arr.size == 0:
        return None
    return arr[np.isfinite(arr)]


def _check_db_domain(func: str, value: object) -> None:
    arr = _finite(value)
    if arr is None or arr.size == 0:
        return
    low, high = DB_RANGE
    bad = arr[(arr < low) | (arr > high)]
    if bad.size:
        _record(
            "implausible-db",
            func,
            value,
            f"{func} expects dB input but got {bad[0]:g} "
            f"(outside [{low:g}, {high:g}] dB) — linear power passed "
            "where dB is expected?",
        )


def _check_linear_domain(func: str, value: object) -> None:
    arr = _finite(value)
    if arr is None or arr.size == 0:
        return
    bad = arr[arr < NEGATIVE_LINEAR_TOLERANCE]
    if bad.size:
        _record(
            "negative-linear",
            func,
            value,
            f"{func} expects linear power/amplitude but got {bad[0]:g} "
            "— a dB quantity passed where linear is expected?",
        )


#: dbmath helper name -> which domain its first argument lives in.
_DB_DOMAIN_FUNCS = (
    "db_to_linear",
    "db_to_linear_scalar",
    "db_to_amplitude_scalar",
    "dbm_to_watts",
    "power_sum_db",
    "power_average_db",
)
_LINEAR_DOMAIN_FUNCS = (
    "linear_to_db",
    "linear_to_db_scalar",
    "amplitude_to_db",
    "amplitude_to_db_scalar",
    "watts_to_dbm",
)
#: Helpers whose first argument is a consumable iterable: materialize
#: it before checking so the original still sees every element.
_ITERABLE_FUNCS = ("power_sum_db", "power_average_db")


def _wrap_dbmath(name: str, original: Callable, check: Callable) -> Callable:
    materialize = name in _ITERABLE_FUNCS

    @functools.wraps(original)
    def wrapper(value, *args, **kwargs):
        if materialize:
            value = list(value)
        if _STATE.depth:
            return original(value, *args, **kwargs)
        # Hold the depth across the original call too: dbmath helpers
        # call each other internally, and only the outermost entry
        # point should be checked.
        _STATE.depth += 1
        try:
            check(name, value)
            return original(value, *args, **kwargs)
        finally:
            _STATE.depth -= 1

    wrapper.__repro_sanitize_wraps__ = original
    return wrapper


def _wrap_default_rng(original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(seed=None, *args, **kwargs):
        if seed is None and _STATE.depth == 0:
            _STATE.depth += 1
            try:
                _record(
                    "unseeded-rng",
                    "numpy.random.default_rng",
                    seed,
                    "default_rng() called without a seed — the run is "
                    "irreproducible; thread a Generator or seed in instead",
                )
            finally:
                _STATE.depth -= 1
        return original(seed, *args, **kwargs)

    wrapper.__repro_sanitize_wraps__ = original
    return wrapper


def _install(wrappers: Dict[object, Callable]) -> None:
    """Rebind every module-level reference to a wrapped function.

    Sweeps ``sys.modules`` for repro modules (plus ``numpy.random`` for
    the RNG wrapper) so that ``from repro.analysis.dbmath import
    db_to_linear`` copies are wrapped too, not just the defining
    module's attribute.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None:
            continue
        if not (mod_name == "repro" or mod_name.startswith("repro.")
                or mod_name == "numpy.random"):
            continue
        for attr, obj in list(vars(module).items()):
            if not callable(obj):  # module specs etc. are unhashable
                continue
            wrapper = wrappers.get(obj)
            if wrapper is not None:
                setattr(module, attr, wrapper)
                _STATE.patches.append((module, attr, obj))


def enable(mode: str = "warn") -> None:
    """Install the checking wrappers. ``mode`` is ``warn`` or ``raise``."""
    if mode not in ("warn", "raise"):
        raise ValueError(f"unknown sanitizer mode: {mode!r}")
    if _STATE.enabled:
        _STATE.mode = mode
        return
    wrappers: Dict[object, Callable] = {}
    for name in _DB_DOMAIN_FUNCS:
        original = getattr(dbmath, name)
        wrappers[original] = _wrap_dbmath(name, original, _check_db_domain)
    for name in _LINEAR_DOMAIN_FUNCS:
        original = getattr(dbmath, name)
        # The module aliases (db_to_power_ratio = db_to_linear) share
        # the object, so the dict key dedupes them automatically.
        wrappers.setdefault(
            original, _wrap_dbmath(name, original, _check_linear_domain)
        )
    wrappers[np.random.default_rng] = _wrap_default_rng(np.random.default_rng)
    _install(wrappers)
    _STATE.enabled = True
    _STATE.mode = mode
    report_path = os.environ.get("REPRO_SANITIZE_REPORT")
    if report_path and not _STATE.report_registered:
        atexit.register(write_report, report_path)
        _STATE.report_registered = True


def disable() -> None:
    """Restore every patched binding and stop checking."""
    for module, attr, original in reversed(_STATE.patches):
        setattr(module, attr, original)
    _STATE.patches.clear()
    _STATE.enabled = False


def is_enabled() -> bool:
    return _STATE.enabled


def violations() -> List[Violation]:
    """Violations recorded since the last :func:`clear_violations`."""
    return list(_STATE.violations)


def clear_violations() -> None:
    _STATE.violations.clear()
    _STATE.total = 0


def report() -> Dict[str, object]:
    """JSON-ready summary of the current sanitizer state."""
    return {
        "enabled": _STATE.enabled,
        "mode": _STATE.mode,
        "total": _STATE.total,
        "violations": [v.to_dict() for v in _STATE.violations],
    }


def write_report(path: str) -> None:
    """Dump :func:`report` to ``path`` (used by ``repro sanitize``)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report(), fh, indent=2)
    except OSError:  # pragma: no cover - report path unwritable
        pass


@dataclass
class ReadRecord:
    """One out-of-spec input read observed during a purity audit."""

    kind: str  #: ``env`` | ``file`` | ``clock``
    detail: str  #: variable name, file path, or clock function

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "detail": self.detail}


class _AuditEnviron:
    """``os.environ`` stand-in that records every lookup.

    Wraps the real mapping, so reads still return live values — the
    audit observes, it does not isolate.  ``os.getenv`` resolves
    ``environ`` through the :mod:`os` module globals at call time, so
    replacing the attribute covers it too.
    """

    def __init__(self, real, audit: "PurityAudit"):
        self._real = real
        self._audit = audit

    def _note(self, key: object) -> None:
        self._audit.note("env", str(key))

    def __getitem__(self, key):
        self._note(key)
        return self._real[key]

    def get(self, key, default=None):
        self._note(key)
        return self._real.get(key, default)

    def __contains__(self, key):
        self._note(key)
        return key in self._real

    def __setitem__(self, key, value):
        self._real[key] = value

    def __delitem__(self, key):
        del self._real[key]

    def __iter__(self):
        return iter(self._real)

    def __len__(self):
        return len(self._real)

    def __getattr__(self, name):
        return getattr(self._real, name)


class PurityAudit:
    """Record every environment/file/clock read inside a ``with`` block.

    The purity check ``repro campaign verify`` runs: a campaign cell's
    result must be a function of its :class:`ScenarioSpec` alone, or
    the content-addressed cache can serve poisoned entries.  Usage::

        with PurityAudit() as audit:
            cell(seed=0, repetition=0, **params)
        audit.records   # out-of-spec reads the cell performed
        audit.digest()  # order-independent hash of those reads

    Patches ``os.environ`` (covering ``os.getenv``), ``builtins.open``
    and ``io.open`` (covering ``pathlib.Path.read_text``), and
    ``time.time``/``time.time_ns``.  Known blind spots, by design:
    ``datetime.datetime.now`` (immutable C type, unpatchable) and
    module imports (``importlib`` reads via ``io.open_code``) — lint
    rule RL002 flags the former statically, and import-time reads do
    not vary per scenario.

    ``allowed_env`` names environment variables the spec machinery
    itself is permitted to read (e.g. ``REPRO_CACHE_DIR``); they are
    not recorded.
    """

    def __init__(self, allowed_env: Tuple[str, ...] = ()):
        self.allowed_env = frozenset(allowed_env)
        self.records: List[ReadRecord] = []
        self._patches: List[Tuple[object, str, object]] = []

    def note(self, kind: str, detail: str) -> None:
        if kind == "env" and detail in self.allowed_env:
            return
        self.records.append(ReadRecord(kind=kind, detail=detail))

    def digest(self) -> str:
        """Order-independent hash of the recorded reads."""
        import hashlib

        lines = sorted(f"{r.kind}:{r.detail}" for r in self.records)
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]

    def _patch(self, obj: object, attr: str, replacement: object) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def __enter__(self) -> "PurityAudit":
        import builtins
        import io
        import time as time_mod

        audit = self

        real_open = builtins.open

        @functools.wraps(real_open)
        def open_wrapper(file, *args, **kwargs):
            mode = kwargs.get("mode", args[0] if args else "r")
            if "r" in str(mode) or "+" in str(mode):
                audit.note("file", str(file))
            return real_open(file, *args, **kwargs)

        real_time = time_mod.time
        real_time_ns = time_mod.time_ns

        @functools.wraps(real_time)
        def time_wrapper():
            audit.note("clock", "time.time")
            return real_time()

        @functools.wraps(real_time_ns)
        def time_ns_wrapper():
            audit.note("clock", "time.time_ns")
            return real_time_ns()

        self._patch(os, "environ", _AuditEnviron(os.environ, self))
        self._patch(builtins, "open", open_wrapper)
        self._patch(io, "open", open_wrapper)
        self._patch(time_mod, "time", time_wrapper)
        self._patch(time_mod, "time_ns", time_ns_wrapper)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()


def enable_from_env() -> bool:
    """Honor ``REPRO_SANITIZE`` (called from ``repro/__init__``)."""
    value = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    if value in ("", "0", "off", "false"):
        return False
    enable("raise" if value == "raise" else "warn")
    return True


__all__ = [
    "DB_RANGE",
    "PurityAudit",
    "ReadRecord",
    "SanitizerError",
    "SanitizerWarning",
    "Violation",
    "clear_violations",
    "disable",
    "enable",
    "enable_from_env",
    "is_enabled",
    "report",
    "violations",
    "write_report",
]
