"""The campaign engine: one ordered map over the campaign's cells.

The runner expands a :class:`~repro.campaign.spec.CampaignSpec` and
maps :func:`execute_cell` over every cell — the builtin ``map`` for
``workers <= 1``, ``ProcessPoolExecutor.map`` otherwise.  Per-scenario
timeouts are enforced inside the executing process via ``SIGALRM``,
and failed cells are *recorded*, never fatal: a campaign always
returns an outcome for every cell.  A cell is a deterministic function
of its spec, so a failed cell is not retried — it would fail the same
way again.

Results are bit-for-bit identical between serial and parallel runs
because cells are deterministic functions of (experiment, params,
seed) and both maps return outcomes in expansion order.

Every run records :mod:`repro.obs` metrics; ``trace`` and ``profile``
add spans and DES handler attribution.  The runner switches the mode
on in its own process and passes it to each pool worker as the pool's
``initializer``, so forked, spawned and forkserver workers start with
the same flags.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.campaign.registry import resolve_cell
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.campaign.telemetry import RunTelemetry
from repro.devices import clear_unit_cache
from repro.obs import clock
from repro.obs.export import TRACE_FILENAME
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import merge_profile
from repro.obs.trace import complete_event

#: Result key cells may use to report DES event counts to telemetry.
EVENTS_KEY = "events_simulated"


class ScenarioTimeout(Exception):
    """A cell exceeded its per-scenario time budget."""


def _alarm_handler(signum, frame):  # pragma: no cover - trivial
    raise ScenarioTimeout("scenario exceeded its time budget")


def _call_cell(experiment: str, params: Dict, seed: int, timeout_s: Optional[float]):
    """Resolve and call one cell under the optional ``SIGALRM`` budget."""
    fn = resolve_cell(experiment)
    use_alarm = timeout_s is not None and hasattr(signal, "SIGALRM")
    old_handler = None
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        with obs.span("campaign.cell", experiment=experiment):
            return fn(seed=seed, **params)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)


def execute_cell(
    experiment: str,
    params: Dict,
    seed: int,
    timeout_s: Optional[float] = None,
) -> Dict:
    """Run one cell and report what happened; never raises for the cell.

    This is the function worker processes execute; it must stay
    module-level (picklable) and resolve the cell itself so forked and
    spawned workers behave identically.  Returns ``{"result", "error",
    "timed_out", "elapsed_s", "events"}``: ``result`` is the cell's
    dict, or ``None`` when the cell raised (:class:`ScenarioTimeout`
    included) or returned something else, in which case ``error``
    describes the failure.  With observability on, the payload also
    carries the cell's spans (stamped with this process's pid) and
    profile snapshot and, on success, its metrics.  A failed cell's
    spans stay on the timeline, so they stay in the span table too.
    """
    # Every cell starts cold: work counters must not depend on which
    # device units this process (or a forked worker's parent) built.
    clear_unit_cache()
    collect = obs.STATE.enabled
    if collect:
        obs.begin_cell()
    error: Optional[str] = None
    timed_out = False
    t0 = clock.perf_counter()
    try:
        result = _call_cell(experiment, params, seed, timeout_s)
        if not isinstance(result, dict):
            raise TypeError(
                f"cell {experiment!r} returned {type(result).__name__}, expected dict"
            )
    except Exception as exc:
        result = None
        error = f"{type(exc).__name__}: {exc}"
        timed_out = isinstance(exc, ScenarioTimeout)
    payload = {
        "result": result,
        "error": error,
        "timed_out": timed_out,
        "elapsed_s": clock.perf_counter() - t0,
        "events": int(result.get(EVENTS_KEY, 0)) if result is not None else 0,
    }
    if collect:
        metrics, spans, profile = obs.collect_cell()
        pid = os.getpid()
        payload["spans"] = [dict(event, pid=pid) for event in spans]
        payload["profile"] = profile
        if result is not None:
            payload["metrics"] = metrics
    return payload


@dataclass
class ScenarioOutcome:
    """What happened to one cell of the campaign."""

    spec: ScenarioSpec
    digest: str
    status: str  # "pending" | "completed" | "failed"
    result: Optional[Dict] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    # Observability sidecar: metrics of a completed cell, its profile,
    # and its spans when tracing.  Deliberately NOT part of result_rows, so the
    # canonical row text repro campaign verify compares is unchanged.
    metrics: Optional[Dict] = None
    spans: Optional[List[Dict]] = None
    profile: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.status == "completed"


@dataclass
class CampaignResult:
    """Outcomes (in expansion order) plus run telemetry."""

    campaign: CampaignSpec
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)
    #: Chrome trace events (cell spans on pids 1..N, one per worker
    #: process, the run span on pid 0); empty unless the runner ran
    #: with ``trace=True``.
    trace_events: List[Dict] = field(default_factory=list)

    def results(self) -> Dict[str, Dict]:
        """Digest -> result for every successful cell."""
        return {o.digest: o.result for o in self.outcomes if o.ok}

    def failures(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def result_rows(self) -> List[Dict]:
        """JSON-style rows, one per cell (the JSONL store format)."""
        return [
            {
                "digest": o.digest,
                "experiment": o.spec.experiment,
                "params": o.spec.param_dict(),
                "seed": o.spec.seed,
                "status": o.status,
                "elapsed_s": o.elapsed_s,
                "result": o.result,
                "error": o.error,
            }
            for o in self.outcomes
        ]


class CampaignRunner:
    """Execute a campaign with timeouts.

    Args:
        campaign: The campaign to run.
        workers: Process count.  ``<= 1`` runs serially in-process
            (the reference path parallel runs must match bit-for-bit).
        timeout_s: Per-scenario wall-clock budget, enforced inside the
            executing process; ``None`` disables it.
        shuffle_seed: When set, the submission order is a seeded
            permutation of the expansion order.  Results must be
            identical either way (outcomes are un-permuted back into
            expansion order); ``repro campaign verify`` uses this to
            prove that claim rather than assume it.
        trace: Record spans — one ``campaign.cell`` span per cell plus
            the cell's own timeline, from inside the process that ran
            it — exported as Chrome trace-event JSON; their per-name
            table merges into the manifest's ``profile`` section.
        profile: Attribute per-event wall time to DES handler
            qualnames inside the workers; the handler table merges
            into the manifest's ``profile`` section.

    Per-cell :mod:`repro.obs` metrics are always collected and merged
    into the manifest.  Every merge runs in expansion order, so it is
    byte-stable regardless of worker count.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        shuffle_seed: Optional[int] = None,
        trace: bool = False,
        profile: bool = False,
    ):
        self.campaign = campaign
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.shuffle_seed = shuffle_seed
        self.trace = bool(trace)
        self.profile = bool(profile)

    # -- execution -------------------------------------------------------------

    def _map(
        self, specs: Sequence[ScenarioSpec], order: Sequence[int]
    ) -> Iterator[Tuple[int, Dict]]:
        """Yield ``(index, payload)`` for ``specs[index]`` in ``order``.

        Serial runs map in-process; parallel runs map over a process
        pool.  If the pool itself dies (a worker segfaults or the OS
        kills it), the cells that have no payload yet run serially
        instead of failing the campaign.
        """

        def columns(indices: Sequence[int]) -> Tuple[List, ...]:
            chosen = [specs[i] for i in indices]
            return (
                [s.experiment for s in chosen],
                [s.param_dict() for s in chosen],
                [s.seed for s in chosen],
                [self.timeout_s] * len(chosen),
            )

        done = set()
        if self.workers > 1:
            try:
                with ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=obs.enable,
                    initargs=(True, self.trace, self.profile),
                ) as pool:
                    for index, payload in zip(
                        order, pool.map(execute_cell, *columns(order))
                    ):
                        done.add(index)
                        yield index, payload
            except BrokenProcessPool:
                pass
        left = [i for i in order if i not in done]
        yield from zip(left, map(execute_cell, *columns(left)))

    def _record(
        self, telemetry: RunTelemetry, outcome: ScenarioOutcome, payload: Dict
    ) -> None:
        outcome.elapsed_s = payload["elapsed_s"]
        outcome.metrics = payload.get("metrics")
        outcome.spans = payload.get("spans")
        outcome.profile = payload.get("profile")
        if payload["error"] is not None:
            outcome.status = "failed"
            outcome.error = payload["error"]
            telemetry.record_failure(
                outcome.digest,
                outcome.spec.experiment,
                outcome.error,
                timed_out=payload["timed_out"],
            )
            return
        outcome.status = "completed"
        outcome.result = payload["result"]
        telemetry.record_completed(payload["elapsed_s"], payload["events"])

    # -- observability ---------------------------------------------------------

    def _merged_metrics(
        self, outcomes: List[ScenarioOutcome], telemetry: RunTelemetry
    ) -> Optional[Dict]:
        """Merge per-cell snapshots (expansion order) + runner counters.

        Expansion order makes even the float histogram sums bit-stable
        across worker counts; the runner-level counters are derived
        from telemetry, which is itself worker-count-invariant for
        deterministic campaigns.
        """
        registry = MetricsRegistry()
        for outcome in outcomes:
            registry.merge_snapshot(outcome.metrics)
        registry.add("campaign.cells.total", telemetry.scenarios_total)
        registry.add("campaign.cells.completed", telemetry.completed)
        registry.add("campaign.cells.failed", telemetry.failed)
        return registry.snapshot()

    @staticmethod
    def _merged_profile(outcomes: List[ScenarioOutcome]) -> Optional[Dict]:
        """Merge per-cell handler and span tables.

        Merging happens in expansion order, mirroring the metrics
        merge, so even the float time sums are bit-stable across
        worker counts; the count fields (handler calls, span counts)
        are additionally run-invariant and are what ``campaign
        verify`` digests.
        """
        merged: Dict = {}
        for outcome in outcomes:
            merge_profile(merged, outcome.profile)
        return merged or None

    @staticmethod
    def _assemble_trace(outcomes: List[ScenarioOutcome], run_span: Dict) -> List[Dict]:
        """Cell spans (pids 1..N in first-seen order) then the run span (pid 0)."""
        pids: Dict[int, int] = {}
        events: List[Dict] = []
        for outcome in outcomes:
            for event in outcome.spans or ():
                pid = pids.setdefault(event["pid"], len(pids) + 1)
                events.append(dict(event, pid=pid))
        events.append(dict(run_span, pid=0))
        return events

    # -- public API ------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute the campaign; never raises for per-cell failures."""
        previous_obs = (obs.STATE.metrics, obs.STATE.tracing, obs.STATE.profiling)
        obs.enable(metrics=True, trace=self.trace, profile=self.profile)
        run_start_ns = clock.perf_counter_ns() if self.trace else 0
        try:
            scenarios = self.campaign.expand()
            telemetry = RunTelemetry(
                campaign=self.campaign.name,
                campaign_digest=self.campaign.digest(),
                workers=self.workers,
                scenarios_total=len(scenarios),
            )
            telemetry.start()

            outcomes = [
                ScenarioOutcome(spec=spec, digest=spec.digest(), status="pending")
                for spec in scenarios
            ]
            order = list(range(len(scenarios)))
            if self.shuffle_seed is not None:
                rng = np.random.default_rng(self.shuffle_seed)
                order = rng.permutation(len(order)).tolist()
            for index, payload in self._map(scenarios, order):
                self._record(telemetry, outcomes[index], payload)

            telemetry.finish()
            result = CampaignResult(
                campaign=self.campaign, outcomes=outcomes, telemetry=telemetry
            )
            telemetry.metrics = self._merged_metrics(outcomes, telemetry)
            telemetry.profile = self._merged_profile(outcomes)
            if self.trace:
                run_span = complete_event(
                    "campaign.run",
                    run_start_ns,
                    clock.perf_counter_ns(),
                    {"campaign": self.campaign.name, "workers": self.workers},
                )
                result.trace_events = self._assemble_trace(outcomes, run_span)
                telemetry.spans_file = TRACE_FILENAME
            return result
        finally:
            obs.enable(*previous_obs)
            obs.reset()


def run_campaign(
    campaign: CampaignSpec,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    trace: bool = False,
    profile: bool = False,
) -> CampaignResult:
    """Convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(
        campaign,
        workers=workers,
        timeout_s=timeout_s,
        trace=trace,
        profile=profile,
    ).run()
