"""repro.obs — zero-overhead-when-disabled observability.

The paper's methodology is a flight recorder for invisible radio
behavior; this package is the same instrument pointed at our own
internals.  It provides:

* :func:`span` — timed regions (``with obs.span("phy.raytracing.trace")``)
  recorded as Chrome trace events, loadable in Perfetto;
* :func:`add` / :func:`set_gauge` / :func:`observe` — a metrics
  registry (:mod:`repro.obs.metrics`) whose per-cell snapshots merge
  deterministically across campaign workers into the v2 run manifest;
* :mod:`repro.obs.clock` — the single sanctioned clock shim (the only
  module allowed to read wall/monotonic time; everything else is
  policed by source rule RL002 in ``tests/test_source_rules.py``);
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — the Perfetto
  exporter and the ``repro obs report`` summary.

**Disabled is the default and costs (almost) nothing.**  Hot paths
guard metric updates with a plain attribute check::

    if obs.STATE.metrics:
        obs.add("mac.wigig.retransmissions")

and ``obs.span(...)`` returns a shared no-op context manager when
tracing is off.  ``benchmarks/test_perf_obs.py`` holds the disabled
path under 2% of the core scenario's runtime.

Enablement is process-global (:func:`enable` / :func:`disable`) and
propagates to campaign pool workers through the ``REPRO_OBS``
environment variable, which this module reads at import time.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import clock  # noqa: F401  (re-exported: the sanctioned shim)
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import ProfileAccumulator
from repro.obs.trace import NOOP_SPAN, Span, TraceBuffer

#: Environment variable that switches observability on in spawned /
#: forked campaign workers.  Comma-joined tokens from {``"metrics"``,
#: ``"trace"``, ``"profile"``}; the legacy single values ``"metrics"``,
#: ``"trace"`` and ``"1"`` keep their original meaning.
OBS_ENV = "REPRO_OBS"


class ObsState:
    """Process-global enable flags, designed for cheap reads.

    ``STATE.metrics`` / ``STATE.tracing`` / ``STATE.profiling`` are
    plain attributes so the disabled-path cost at an instrumented site
    is one attribute load and a falsy check.
    """

    __slots__ = ("metrics", "tracing", "profiling")

    def __init__(self) -> None:
        self.metrics = False
        self.tracing = False
        self.profiling = False

    @property
    def enabled(self) -> bool:
        return self.metrics or self.tracing or self.profiling


STATE = ObsState()

_REGISTRY = MetricsRegistry()
_BUFFER = TraceBuffer()
_PROFILE = ProfileAccumulator()


def enable(metrics: bool = True, trace: bool = False, profile: bool = False) -> None:
    """Switch observability on for this process."""
    STATE.metrics = bool(metrics)
    STATE.tracing = bool(trace)
    STATE.profiling = bool(profile)


def disable() -> None:
    """Switch all observability off (the default state)."""
    STATE.metrics = False
    STATE.tracing = False
    STATE.profiling = False


def reset() -> None:
    """Clear all recorded metrics, buffered spans, and profile data."""
    _REGISTRY.reset()
    _BUFFER.reset()
    _PROFILE.reset()


def configure_from_env(environ: Optional[Dict[str, str]] = None) -> None:
    """Apply the ``REPRO_OBS`` environment setting, if any.

    Called at import time so campaign workers (forked or spawned)
    inherit the parent's observability mode.  The value is a
    comma-joined token set, e.g. ``"metrics,trace,profile"``; metrics
    are implied whenever anything is enabled.
    """
    env = os.environ if environ is None else environ
    mode = env.get(OBS_ENV, "").strip().lower()
    if not mode:
        return
    tokens = {token.strip() for token in mode.split(",") if token.strip()}
    trace = bool(tokens & {"trace", "1"})
    profile = "profile" in tokens
    metrics = bool(tokens & {"metrics"}) or trace or profile
    if metrics:
        enable(metrics=True, trace=trace, profile=profile)


# -- recording API -------------------------------------------------------------


def span(name: str, **attrs):
    """A timed region; a shared no-op when tracing is disabled.

    Span names follow ``layer.component.op`` (see CONTRIBUTING), e.g.
    ``"mac.beam_training.sls"``.  ``attrs`` become the Chrome event's
    ``args`` and must be JSON-serializable.
    """
    if not STATE.tracing:
        return NOOP_SPAN
    return Span(name, _BUFFER, attrs or None)


def add(name: str, value: int = 1) -> None:
    """Increment a counter (no-op when metrics are disabled)."""
    if STATE.metrics:
        _REGISTRY.add(name, value)


def set_gauge(name: str, value: float) -> None:
    """Record a gauge (merged across workers with ``max``)."""
    if STATE.metrics:
        _REGISTRY.set_gauge(name, value)


def observe(name: str, value: float, buckets: Sequence[float]) -> None:
    """Record a histogram observation into fixed buckets."""
    if STATE.metrics:
        _REGISTRY.observe(name, value, buckets)


def record_handler(name: str, elapsed_ns: int) -> None:
    """Attribute one DES event's wall time to its handler qualname.

    Called by the simulator hot loop only when ``STATE.profiling`` is
    on; the guard lives at the call site so the disabled path pays one
    attribute read before the loop, not per event.
    """
    _PROFILE.record(name, elapsed_ns)


def metrics_snapshot() -> Optional[Dict]:
    """Deterministic snapshot of this process's registry (or ``None``)."""
    return _REGISTRY.snapshot()


def profile_snapshot() -> Optional[Dict]:
    """Deterministic snapshot of the handler profile (or ``None``)."""
    return _PROFILE.snapshot()


def registry() -> MetricsRegistry:
    """The process-global registry (benchmarks read ``.ops`` off it)."""
    return _REGISTRY


# -- campaign-cell scoping -----------------------------------------------------


def begin_cell() -> None:
    """Reset per-cell state before executing a campaign cell."""
    _REGISTRY.reset()
    _BUFFER.reset()
    _PROFILE.reset()


def collect_cell() -> Tuple[Optional[Dict], List[Dict], Optional[Dict]]:
    """Collect (metrics snapshot, span events, profile snapshot)
    recorded since :func:`begin_cell`; drains the buffers."""
    return _REGISTRY.snapshot(), _BUFFER.drain(), _PROFILE.snapshot()


configure_from_env()

__all__ = [
    "OBS_ENV",
    "STATE",
    "MetricsRegistry",
    "ProfileAccumulator",
    "add",
    "begin_cell",
    "clock",
    "collect_cell",
    "configure_from_env",
    "disable",
    "enable",
    "metrics_snapshot",
    "observe",
    "profile_snapshot",
    "record_handler",
    "registry",
    "reset",
    "set_gauge",
    "span",
]
