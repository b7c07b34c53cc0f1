"""Runtime sanitizer: dynamic counterpart of ``repro lint --flow``.

The static passes (RL010-RL015, plus ``--des``/``--dim``) catch unit,
RNG, sim-time and angle mistakes that are visible in the source.  This
module catches the ones that only show up at runtime: a dB value
flowing into a linear-domain helper (or vice versa) through data the
analyzer could not see, and unseeded generators constructed while an
experiment is running.

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
* **sim-time audit** — the DES event loop violated a sim-time
  invariant (the dynamic counterpart of the ``--des`` lint pass
  RL040-RL046): a non-finite or into-the-past delay reached
  ``Simulator.schedule``, ``_now`` moved backwards, or more than
  ``REPRO_SANITIZE_STORM_CAP`` events fired at one timestamp (a
  zero-delay event storm).  See :class:`SimTimeAudit`.
* **unit audit** — angle-unit misuse that survives the static
  ``--dim`` pass (RL050-RL056) because the offending value flowed
  through data: ``math.sin/cos/tan`` called with a suspiciously large
  argument (``> REPRO_SANITIZE_TRIG_CAP``, default 1e4 — radians
  never get that big, degrees-by-mistake and garbage do), trig called
  on a value that a rad→deg conversion just produced, and a
  deg→rad/rad→deg conversion re-applied to its own recent output
  (``radians(radians(x))`` — the runtime face of RL056).  See
  :class:`UnitAudit`.

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
import math
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

#: Default per-timestamp event budget for the sim-time event-storm
#: watchdog; override with ``REPRO_SANITIZE_STORM_CAP``.  Legitimate
#: same-timestamp bursts (frame completions waking CSMA waiters) are a
#: handful of events; a zero-delay self-rescheduling handler crosses
#: any finite cap immediately.
DEFAULT_EVENT_STORM_CAP = 1000

#: Largest plausible trig argument in radians; override with
#: ``REPRO_SANITIZE_TRIG_CAP``.  Physical phases in this toolkit are
#: wrapped or proportional to path-length/wavelength ratios within a
#: room — values beyond ~1e4 rad mean degrees (or a raw frequency)
#: leaked into a trig call.
DEFAULT_TRIG_ARG_CAP = 1e4


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
        #: Live UnitAudit while enabled (None when off).
        self.unit_audit: Optional["UnitAudit"] = None


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


class UnitAudit:
    """Runtime angle-unit invariants (dynamic RL050/RL056).

    Installed by :func:`enable`, which wraps ``math.sin/cos/tan`` and
    the deg↔rad conversion family (``math.radians``/``math.degrees``,
    ``np.deg2rad``/``np.radians``/``np.rad2deg``/``np.degrees``) and
    rebinds every imported copy; zero overhead when the sanitizer is
    off — nothing is wrapped at import time.

    Checks:

    * **unit-trig-arg** — a trig call whose scalar argument exceeds
      :data:`DEFAULT_TRIG_ARG_CAP` (``REPRO_SANITIZE_TRIG_CAP``) in
      magnitude.  Radians stay small; a degree value scaled by another
      factor, or a raw frequency, does not.
    * **unit-trig-degrees** — a trig call whose argument is exactly a
      value some rad→deg conversion just produced: the classic
      ``sin(degrees(x))`` flow, visible at runtime even when the two
      calls live in different modules the static pass cannot connect.
    * **unit-double-conversion** — a deg→rad (or rad→deg) conversion
      whose scalar input is exactly a value the *same direction*
      recently produced: ``radians(radians(x))`` through data.  The
      opposite direction is a legitimate round trip and never flags.

    Matching uses small rings of recent conversion outputs (exact
    float equality, near-zero values skipped — converting 0° is
    common and 0 is direction-less), so the audit is O(1) per call
    and deterministic for a deterministic run.
    """

    RING = 8

    def __init__(self, trig_arg_cap: float = DEFAULT_TRIG_ARG_CAP):
        self.trig_arg_cap = float(trig_arg_cap)
        self._recent_rad: List[float] = []  #: outputs of deg→rad calls
        self._recent_deg: List[float] = []  #: outputs of rad→deg calls

    @staticmethod
    def _scalar(value: object) -> Optional[float]:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None  # arrays and exotic types are not tracked
        scalar = float(value)
        return scalar if math.isfinite(scalar) else None

    def _push(self, ring: List[float], result: object) -> None:
        scalar = self._scalar(result)
        if scalar is None or abs(scalar) < 1e-9:
            return
        ring.append(scalar)
        if len(ring) > self.RING:
            del ring[0]

    def on_trig(self, func: str, value: object) -> None:
        scalar = self._scalar(value)
        if scalar is None:
            return
        if abs(scalar) >= 1e-9 and scalar in self._recent_deg:
            _record(
                "unit-trig-degrees",
                func,
                value,
                f"{func}() expects radians but its argument ({scalar:g}) "
                "is a value a rad→deg conversion just produced — trig on "
                "degrees",
            )
        elif abs(scalar) > self.trig_arg_cap:
            _record(
                "unit-trig-arg",
                func,
                value,
                f"{func}() called with |x| = {abs(scalar):g} rad "
                f"(cap {self.trig_arg_cap:g}, REPRO_SANITIZE_TRIG_CAP) — "
                "degrees or a raw frequency passed where radians are "
                "expected?",
            )

    def on_convert(self, func: str, to_rad: bool, value: object, result: object) -> None:
        scalar = self._scalar(value)
        ring = self._recent_rad if to_rad else self._recent_deg
        if scalar is not None and abs(scalar) >= 1e-9 and scalar in ring:
            direction = "deg→rad" if to_rad else "rad→deg"
            _record(
                "unit-double-conversion",
                func,
                value,
                f"{func}() applied to a value ({scalar:g}) that a "
                f"{direction} conversion just produced — a double "
                "conversion (radians(radians(x))-style)",
            )
        self._push(ring, result)


def _wrap_trig(name: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(value, *args, **kwargs):
        audit = _STATE.unit_audit
        if audit is not None and not _STATE.depth:
            _STATE.depth += 1
            try:
                audit.on_trig(name, value)
            finally:
                _STATE.depth -= 1
        return original(value, *args, **kwargs)

    wrapper.__repro_sanitize_wraps__ = original
    return wrapper


def _wrap_angle_conversion(name: str, original: Callable, to_rad: bool) -> Callable:
    @functools.wraps(original)
    def wrapper(value, *args, **kwargs):
        result = original(value, *args, **kwargs)
        audit = _STATE.unit_audit
        if audit is not None and not _STATE.depth:
            _STATE.depth += 1
            try:
                audit.on_convert(name, to_rad, value, result)
            finally:
                _STATE.depth -= 1
        return result

    wrapper.__repro_sanitize_wraps__ = original
    return wrapper


#: (module attr, callable) pairs wrapped by the unit audit.
_TRIG_FUNCS = ("sin", "cos", "tan")
_TO_RAD_FUNCS = ("radians", "deg2rad")
_TO_DEG_FUNCS = ("degrees", "rad2deg")


def _unit_audit_wrappers() -> Dict[object, Callable]:
    wrappers: Dict[object, Callable] = {}
    for name in _TRIG_FUNCS:
        original = getattr(math, name)
        wrappers[original] = _wrap_trig(f"math.{name}", original)
    for host, prefix in ((math, "math"), (np, "numpy")):
        for name in _TO_RAD_FUNCS:
            original = getattr(host, name, None)
            if original is not None and original not in wrappers:
                wrappers[original] = _wrap_angle_conversion(
                    f"{prefix}.{name}", original, to_rad=True
                )
        for name in _TO_DEG_FUNCS:
            original = getattr(host, name, None)
            if original is not None and original not in wrappers:
                wrappers[original] = _wrap_angle_conversion(
                    f"{prefix}.{name}", original, to_rad=False
                )
    return wrappers


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

    Sweeps ``sys.modules`` for repro modules (plus ``math``, ``numpy``,
    and ``numpy.random`` for the trig/conversion/RNG wrappers) so that
    ``from repro.analysis.dbmath import db_to_linear`` copies are
    wrapped too, not just the defining module's attribute.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None:
            continue
        if not (mod_name == "repro" or mod_name.startswith("repro.")
                or mod_name in ("math", "numpy", "numpy.random")):
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
    wrappers.update(_unit_audit_wrappers())
    _install(wrappers)
    _STATE.unit_audit = UnitAudit(trig_arg_cap=_trig_cap_from_env())
    # Install the DES sim-time auditor as a module-level hook rather
    # than a wrapper: the event loop is the hottest path in the tree,
    # and a single ``_AUDIT is None`` check is all it costs when off.
    from repro.mac import simulator as _simulator_mod

    _STATE.patches.append((_simulator_mod, "_AUDIT", _simulator_mod._AUDIT))
    _simulator_mod._AUDIT = SimTimeAudit(
        max_events_per_timestamp=_storm_cap_from_env()
    )
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
    _STATE.unit_audit = None
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


class SimTimeAudit:
    """Runtime sim-time invariants for the DES loop (dynamic RL040-046).

    Installed by :func:`enable` as ``repro.mac.simulator._AUDIT`` and
    called from the two spots that move simulated time: every
    ``Simulator.schedule`` and every event pop in ``run_until``.  With
    the sanitizer off the hook is ``None`` and the loop pays one global
    read per event — nothing is wrapped or subclassed.

    Checks:

    * **sim-schedule-nonfinite** — a NaN/inf delay reached
      ``schedule()``.  The simulator raises on these too; the audit
      records the offending call *with its stack* first, which the
      bare ``ValueError`` cannot show in warn-mode post-mortems.
    * **sim-schedule-past** — a negative delay (scheduling into the
      past) reached ``schedule()``.
    * **sim-time-regression** — ``_now`` moved backwards between
      processed events; the heap invariant was violated (e.g. a
      mutated queue or a NaN that slipped in before the guards).
    * **sim-event-storm** — more than ``max_events_per_timestamp``
      events fired at one timestamp: the signature of a zero-delay
      self-rescheduling handler (static rule RL045).  Recorded once
      per offending timestamp, exactly when the count crosses the cap
      — deterministic for a deterministic event stream.

    State is tracked per live ``Simulator`` (keyed by ``id``); in
    ``raise`` mode the first violation raises :class:`SanitizerError`
    inside the event loop, stopping the storm instead of spinning.
    """

    def __init__(self, max_events_per_timestamp: int = DEFAULT_EVENT_STORM_CAP):
        self.max_events_per_timestamp = max(1, int(max_events_per_timestamp))
        self._last_time: Dict[int, float] = {}
        self._at_time: Dict[int, int] = {}

    def on_schedule(self, sim: object, delay_s: object) -> None:
        """Audit one ``Simulator.schedule(delay_s, ...)`` call."""
        try:
            delay = float(delay_s)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return  # the simulator's own type error is clearer
        if delay != delay or delay in (float("inf"), float("-inf")):
            _record(
                "sim-schedule-nonfinite",
                "Simulator.schedule",
                delay_s,
                f"schedule() called with a non-finite delay ({delay!r}) — "
                "a NaN/inf timestamp would poison heap ordering for every "
                "later event",
            )
        elif delay < 0:
            _record(
                "sim-schedule-past",
                "Simulator.schedule",
                delay_s,
                f"schedule() called with a negative delay ({delay:g} s) — "
                "scheduling into the past; clamp with max(0.0, ...) or fix "
                "the timing arithmetic",
            )

    def on_event(self, sim: object, time_s: float) -> None:
        """Audit one event pop at ``time_s`` in ``run_until``."""
        key = id(sim)
        last = self._last_time.get(key)
        if last is None or time_s > last:
            self._last_time[key] = time_s
            self._at_time[key] = 1
            return
        if time_s < last:
            self._last_time[key] = time_s
            self._at_time[key] = 1
            _record(
                "sim-time-regression",
                "Simulator.run_until",
                time_s,
                f"simulation time moved backwards ({last:g} s -> "
                f"{time_s:g} s) — the event heap ordering invariant is "
                "broken",
            )
            return
        count = self._at_time.get(key, 0) + 1
        self._at_time[key] = count
        if count == self.max_events_per_timestamp:
            _record(
                "sim-event-storm",
                "Simulator.run_until",
                time_s,
                f"{count} events processed at t={time_s:g} s without time "
                "advancing — a zero-delay (self-)rescheduling handler is "
                "storming the queue (cap via REPRO_SANITIZE_STORM_CAP)",
            )

    def forget(self, sim: object) -> None:
        """Drop per-simulator state (for long-lived processes)."""
        self._last_time.pop(id(sim), None)
        self._at_time.pop(id(sim), None)


def _storm_cap_from_env() -> int:
    raw = os.environ.get("REPRO_SANITIZE_STORM_CAP", "")
    try:
        return int(raw) if raw.strip() else DEFAULT_EVENT_STORM_CAP
    except ValueError:
        return DEFAULT_EVENT_STORM_CAP


def _trig_cap_from_env() -> float:
    raw = os.environ.get("REPRO_SANITIZE_TRIG_CAP", "")
    try:
        return float(raw) if raw.strip() else DEFAULT_TRIG_ARG_CAP
    except ValueError:
        return DEFAULT_TRIG_ARG_CAP


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
    "DEFAULT_EVENT_STORM_CAP",
    "DEFAULT_TRIG_ARG_CAP",
    "PurityAudit",
    "ReadRecord",
    "SanitizerError",
    "SanitizerWarning",
    "SimTimeAudit",
    "UnitAudit",
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
