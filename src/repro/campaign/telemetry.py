"""Per-run counters, timers, and the JSON run manifest.

Every campaign run emits a manifest next to its results: how many
scenarios ran, how many failed (and why), wall-clock versus summed
worker time, and the discrete-event simulator's throughput (events
simulated per second) aggregated over all cells that report it.  The
manifest is the run's flight recorder — the thing you read six months
later to judge whether a result set is trustworthy and how expensive
a re-run would be.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.obs import clock

PathLike = Union[str, pathlib.Path]

#: Bump when the manifest layout changes incompatibly.  v2 added the
#: ``metrics`` section (deterministic merged obs counters) and the
#: ``spans_file`` pointer to the Chrome trace-event export; v3 the
#: ``profile`` section (merged handler attribution + span self-time
#: aggregates consumed by ``repro obs top`` / ``obs diff``).  v4 drops
#: the retry count, the per-worker cell counts and the per-failure
#: attempt count.  v5 drops the ``scenarios.cached`` count and the
#: ``cache_hit_ratio`` with the result cache they reported on.
MANIFEST_SCHEMA_VERSION = 5

MANIFEST_FILENAME = "manifest.json"

#: Below this many seconds a measured duration is noise, not a rate
#: denominator — derived rates report ``None`` (JSON ``null``) instead
#: of a nonsense/infinite value.
_MIN_DURATION_S = 1e-9


@dataclass
class RunTelemetry:
    """Counters and timers for one campaign run."""

    campaign: str = ""
    campaign_digest: str = ""
    workers: int = 1
    scenarios_total: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    wall_clock_s: float = 0.0
    worker_time_s: float = 0.0
    events_simulated: int = 0
    failures: List[Dict] = field(default_factory=list)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    metrics: Optional[Dict] = None
    spans_file: Optional[str] = None
    profile: Optional[Dict] = None
    _t0: Optional[float] = field(default=None, repr=False)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self.started_unix = clock.wall_time()
        self._t0 = clock.perf_counter()

    def finish(self) -> None:
        self.finished_unix = clock.wall_time()
        if self._t0 is not None:
            self.wall_clock_s = clock.perf_counter() - self._t0

    # -- recording -------------------------------------------------------------

    def record_completed(self, elapsed_s: float, events: int = 0) -> None:
        self.completed += 1
        self.worker_time_s += elapsed_s
        self.events_simulated += events

    def record_failure(
        self,
        digest: str,
        experiment: str,
        error: str,
        timed_out: bool = False,
    ) -> None:
        self.failed += 1
        if timed_out:
            self.timeouts += 1
        self.failures.append(
            {
                "digest": digest,
                "experiment": experiment,
                "error": error,
                "timed_out": timed_out,
            }
        )

    # -- derived ---------------------------------------------------------------

    def events_per_second(self) -> Optional[float]:
        """DES events per summed worker-second.

        Returns 0.0 when no events were simulated, and ``None`` (JSON
        ``null``) when events were recorded but the measured duration
        is too close to zero to divide by — a rate derived from a
        sub-nanosecond denominator would be ``inf``/garbage, and a
        manifest must never contain non-JSON values.
        """
        if self.events_simulated <= 0:
            return 0.0
        if self.worker_time_s < _MIN_DURATION_S:
            return None
        return self.events_simulated / self.worker_time_s

    def speedup_vs_serial(self) -> Optional[float]:
        """Summed worker time over wall clock (parallel efficiency).

        ``None`` when worker time was accrued but the wall clock
        measured (near-)zero — same guard as :meth:`events_per_second`.
        """
        if self.worker_time_s <= 0:
            return 0.0
        if self.wall_clock_s < _MIN_DURATION_S:
            return None
        return self.worker_time_s / self.wall_clock_s

    # -- manifest --------------------------------------------------------------

    def as_manifest(self) -> Dict:
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "campaign": self.campaign,
            "campaign_digest": self.campaign_digest,
            "workers": self.workers,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "scenarios": {
                "total": self.scenarios_total,
                "completed": self.completed,
                "failed": self.failed,
                "timeouts": self.timeouts,
            },
            "timing": {
                "wall_clock_s": self.wall_clock_s,
                "worker_time_s": self.worker_time_s,
                "speedup_vs_serial": self.speedup_vs_serial(),
            },
            "des": {
                "events_simulated": self.events_simulated,
                "events_per_second": self.events_per_second(),
            },
            "failures": list(self.failures),
            "metrics": self.metrics,
            "spans_file": self.spans_file,
            "profile": self.profile,
        }

    def write_manifest(self, path: PathLike) -> pathlib.Path:
        """Write the JSON manifest; returns the path written."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def summary(self) -> str:
        """One-line human summary for CLI output."""
        parts = [
            f"{self.scenarios_total} scenarios",
            f"{self.completed} computed",
            f"{self.failed} failed",
            f"wall {self.wall_clock_s:.2f} s",
        ]
        eps = self.events_per_second()
        if self.events_simulated and eps is not None:
            parts.append(f"{eps:,.0f} DES events/s")
        return ", ".join(parts)


def read_manifest(path: PathLike) -> Dict:
    """Load a manifest written by :meth:`RunTelemetry.write_manifest`.

    Any schema version but the current one raises ``ValueError`` — a
    reader must not silently misinterpret another layout.
    """
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    version = manifest.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported manifest schema version {version} "
            f"(expected {MANIFEST_SCHEMA_VERSION})"
        )
    return manifest
