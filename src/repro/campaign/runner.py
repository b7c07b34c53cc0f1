"""The campaign engine: sharded parallel execution with caching.

The runner expands a :class:`~repro.campaign.spec.CampaignSpec`, serves
every cell it can from the content-addressed cache, and executes the
rest — serially in-process for ``workers <= 1``, or on a
``ProcessPoolExecutor`` otherwise.  Scenario-to-shard assignment is
deterministic (content digest modulo shard count), per-scenario
timeouts are enforced inside the worker via ``SIGALRM``, transient
failures are retried with bounded exponential backoff, and failed
cells are *recorded*, never fatal: a campaign always returns a result
for every cell, even if some results are failure records.

Results are bit-for-bit identical between serial and parallel runs
because cells are deterministic functions of (experiment, params,
seed, repetition) and the outcome list preserves expansion order
regardless of completion order.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.campaign.cache import ResultCache
from repro.campaign.registry import resolve_cell
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.campaign.telemetry import RunTelemetry
from repro.devices import clear_unit_cache
from repro.obs import clock
from repro.obs.export import TRACE_FILENAME
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import merge_profile, span_aggregate
from repro.obs.trace import complete_event

#: Result key cells may use to report DES event counts to telemetry.
EVENTS_KEY = "events_simulated"


class ScenarioTimeout(Exception):
    """A cell exceeded its per-scenario time budget."""


def _alarm_handler(signum, frame):  # pragma: no cover - trivial
    raise ScenarioTimeout("scenario exceeded its time budget")


def execute_cell(
    experiment: str,
    params: Dict,
    seed: int,
    repetition: int,
    timeout_s: Optional[float] = None,
) -> Dict:
    """Run one cell, enforcing the timeout from inside the process.

    This is the function worker processes execute; it must stay
    module-level (picklable) and resolve the cell itself so forked and
    spawned workers behave identically.  Returns
    ``{"result", "elapsed_s", "events"}``; exceptions (including
    :class:`ScenarioTimeout`) propagate to the parent via the future.
    """
    fn = resolve_cell(experiment)
    # Every cell starts cold: work counters must not depend on which
    # device units this process (or a forked worker's parent) built.
    clear_unit_cache()
    collect = obs.STATE.enabled
    if collect:
        obs.begin_cell()
    use_alarm = timeout_s is not None and hasattr(signal, "SIGALRM")
    old_handler = None
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    t0 = clock.perf_counter()
    try:
        result = fn(seed=seed, repetition=repetition, **params)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
    elapsed = clock.perf_counter() - t0
    if not isinstance(result, dict):
        raise TypeError(
            f"cell {experiment!r} returned {type(result).__name__}, expected dict"
        )
    events = int(result.get(EVENTS_KEY, 0))
    payload = {"result": result, "elapsed_s": elapsed, "events": events}
    if collect:
        metrics, spans, profile = obs.collect_cell()
        payload["metrics"] = metrics
        payload["spans"] = spans
        payload["profile"] = profile
    return payload


@dataclass
class ScenarioOutcome:
    """What happened to one cell of the campaign."""

    spec: ScenarioSpec
    digest: str
    shard: int
    status: str  # "completed" | "cached" | "failed"
    result: Optional[Dict] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    attempts: int = 0
    # Observability sidecar (populated only when the runner collects
    # metrics/traces; deliberately NOT part of result_rows, so the
    # canonical row text repro campaign verify compares is unchanged).
    metrics: Optional[Dict] = None
    spans: Optional[List[Dict]] = None
    profile: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.status in ("completed", "cached")


@dataclass
class CampaignResult:
    """Outcomes (in expansion order) plus run telemetry."""

    campaign: CampaignSpec
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)
    #: Chrome trace events (cell spans pid=shard+1, runner spans
    #: pid=0); empty unless the runner ran with ``trace=True``.
    trace_events: List[Dict] = field(default_factory=list)

    def results(self) -> Dict[str, Dict]:
        """Digest -> result for every successful cell."""
        return {o.digest: o.result for o in self.outcomes if o.ok}

    def failures(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def result_rows(self) -> List[Dict]:
        """JSON-style rows, one per cell (the JSONL store format)."""
        rows = []
        for o in self.outcomes:
            rows.append(
                {
                    "digest": o.digest,
                    "experiment": o.spec.experiment,
                    "params": o.spec.param_dict(),
                    "seed": o.spec.seed,
                    "repetition": o.spec.repetition,
                    "shard": o.shard,
                    "status": o.status,
                    "attempts": o.attempts,
                    "elapsed_s": o.elapsed_s,
                    "result": o.result,
                    "error": o.error,
                }
            )
        return rows


@dataclass
class _Pending:
    """Parent-side bookkeeping for one in-flight scenario."""

    index: int
    spec: ScenarioSpec
    digest: str
    shard: int
    attempts: int = 0
    next_eligible: float = 0.0
    submitted_ns: int = 0


class CampaignRunner:
    """Execute a campaign with caching, sharding, timeouts, retries.

    Args:
        campaign: The campaign to run.
        cache: Result cache; ``None`` disables caching entirely.
        workers: Process count.  ``<= 1`` runs serially in-process
            (the reference path parallel runs must match bit-for-bit).
        timeout_s: Per-scenario wall-clock budget, enforced inside the
            executing process; ``None`` disables it.
        retries: How many times a *failed* cell is re-executed.
            Timeouts are not retried — a deterministic cell that blew
            its budget once will blow it again.
        backoff_s: Base of the bounded exponential backoff between
            retry attempts (``backoff_s * 2**attempt``, capped).
        max_backoff_s: Backoff ceiling.
        shuffle_seed: When set, parallel submission order is a seeded
            permutation of the deterministic shard order.  Results
            must be identical either way (outcomes are indexed by
            expansion order); ``repro campaign verify`` uses this to
            prove that claim rather than assume it.
        metrics: Collect per-cell :mod:`repro.obs` metrics and merge
            them (in expansion order, so the merge is byte-stable
            regardless of worker count) into the manifest.
        trace: Additionally record spans — per-cell timelines from
            inside the workers plus runner-level cell/shard spans —
            exported as Chrome trace-event JSON.  Implies ``metrics``.
        profile: Additionally attribute per-event wall time to DES
            handler qualnames inside the workers; the per-cell
            profiles merge (expansion order) into the manifest's
            ``profile`` section for ``repro obs top`` / ``obs diff``
            and the lint worklist.  Implies ``metrics``.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        cache: Optional[ResultCache] = None,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        shuffle_seed: Optional[int] = None,
        metrics: bool = False,
        trace: bool = False,
        profile: bool = False,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.campaign = campaign
        self.cache = cache
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.shuffle_seed = shuffle_seed
        self.trace = bool(trace)
        self.profile = bool(profile)
        self.metrics = bool(metrics) or self.trace or self.profile
        # Runner-level trace events (pid 0) and per-shard activity
        # windows, rebuilt on every run() when tracing.
        self._runner_events: List[Dict] = []
        self._shard_windows: Dict[int, List[int]] = {}

    # -- internals -------------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_s * (2 ** attempt), self.max_backoff_s)

    def _note_cell_span(
        self, item: _Pending, start_ns: int, end_ns: int, name: str = "campaign.cell"
    ) -> None:
        """Record a runner-side (pid 0) span for one cell execution."""
        self._runner_events.append(
            complete_event(
                name,
                start_ns,
                end_ns,
                {
                    "experiment": item.spec.experiment,
                    "digest": item.digest[:12],
                    "shard": item.shard,
                },
            )
        )
        window = self._shard_windows.setdefault(item.shard, [start_ns, end_ns])
        window[0] = min(window[0], start_ns)
        window[1] = max(window[1], end_ns)

    def _record_success(
        self,
        telemetry: RunTelemetry,
        outcome: ScenarioOutcome,
        payload: Dict,
        attempts: int,
    ) -> None:
        outcome.status = "completed"
        outcome.result = payload["result"]
        outcome.elapsed_s = payload["elapsed_s"]
        outcome.attempts = attempts
        outcome.metrics = payload.get("metrics")
        outcome.spans = payload.get("spans")
        outcome.profile = payload.get("profile")
        telemetry.record_completed(payload["elapsed_s"], payload["events"])
        if self.cache is not None:
            self.cache.put(outcome.spec, payload["result"])

    def _record_failure(
        self,
        telemetry: RunTelemetry,
        outcome: ScenarioOutcome,
        error: BaseException,
        attempts: int,
    ) -> None:
        timed_out = isinstance(error, ScenarioTimeout)
        outcome.status = "failed"
        outcome.error = f"{type(error).__name__}: {error}"
        outcome.attempts = attempts
        telemetry.record_failure(
            outcome.digest,
            outcome.spec.experiment,
            outcome.error,
            attempts,
            timed_out=timed_out,
        )

    def _run_serial(
        self,
        pending: List[_Pending],
        outcomes: List[ScenarioOutcome],
        telemetry: RunTelemetry,
    ) -> None:
        for item in pending:
            cell_start_ns = clock.perf_counter_ns() if self.trace else 0
            attempts = 0
            while True:
                attempts += 1
                try:
                    payload = execute_cell(
                        item.spec.experiment,
                        item.spec.param_dict(),
                        item.spec.seed,
                        item.spec.repetition,
                        self.timeout_s,
                    )
                except ScenarioTimeout as exc:
                    self._record_failure(telemetry, outcomes[item.index], exc, attempts)
                    break
                except Exception as exc:
                    if attempts <= self.retries:
                        telemetry.record_retry()
                        time.sleep(self._backoff(attempts - 1))
                        continue
                    self._record_failure(telemetry, outcomes[item.index], exc, attempts)
                    break
                else:
                    self._record_success(
                        telemetry, outcomes[item.index], payload, attempts
                    )
                    break
            if self.trace:
                self._note_cell_span(item, cell_start_ns, clock.perf_counter_ns())

    def _submit(self, pool: ProcessPoolExecutor, item: _Pending) -> Future:
        if self.trace:
            item.submitted_ns = clock.perf_counter_ns()
        return pool.submit(
            execute_cell,
            item.spec.experiment,
            item.spec.param_dict(),
            item.spec.seed,
            item.spec.repetition,
            self.timeout_s,
        )

    def _run_parallel(
        self,
        pending: List[_Pending],
        outcomes: List[ScenarioOutcome],
        telemetry: RunTelemetry,
    ) -> None:
        """Fan scenarios out over a process pool.

        Shard assignment orders submission (shard 0's cells first) so
        the work distribution is deterministic even though completion
        order is not.  If the pool itself dies (a worker segfaults or
        the OS kills it), the remaining cells fall back to the serial
        path instead of failing the campaign.
        """
        queue = sorted(pending, key=lambda p: (p.shard, p.index))
        if self.shuffle_seed is not None:
            rng = np.random.default_rng(self.shuffle_seed)
            queue = [queue[i] for i in rng.permutation(len(queue))]
        in_flight: Dict[Future, _Pending] = {}
        retry_queue: List[_Pending] = []
        try:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                while queue or in_flight or retry_queue:
                    now = clock.monotonic()
                    # Promote retry items whose backoff has elapsed.
                    ready = [p for p in retry_queue if p.next_eligible <= now]
                    for item in ready:
                        retry_queue.remove(item)
                        queue.append(item)
                    while queue and len(in_flight) < self.workers * 2:
                        item = queue.pop(0)
                        in_flight[self._submit(pool, item)] = item
                    if not in_flight:
                        # Only backoff timers are pending.
                        sleep_for = min(p.next_eligible for p in retry_queue) - now
                        time.sleep(max(sleep_for, 0.0))
                        continue
                    done, _ = wait(
                        set(in_flight), timeout=0.25, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        item = in_flight.pop(future)
                        item.attempts += 1
                        if self.trace:
                            self._note_cell_span(
                                item,
                                item.submitted_ns,
                                clock.perf_counter_ns(),
                                name="campaign.cell.await",
                            )
                        try:
                            payload = future.result()
                        except ScenarioTimeout as exc:
                            self._record_failure(
                                telemetry, outcomes[item.index], exc, item.attempts
                            )
                        except BrokenProcessPool:
                            # Put the item back so the serial fallback
                            # picks it up, then escalate.
                            queue.append(item)
                            raise
                        except Exception as exc:
                            if item.attempts <= self.retries:
                                telemetry.record_retry()
                                item.next_eligible = (
                                    clock.monotonic()
                                    + self._backoff(item.attempts - 1)
                                )
                                retry_queue.append(item)
                            else:
                                self._record_failure(
                                    telemetry, outcomes[item.index], exc, item.attempts
                                )
                        else:
                            self._record_success(
                                telemetry, outcomes[item.index], payload, item.attempts
                            )
        except BrokenProcessPool:
            # Degrade gracefully: finish what's left in-process.
            leftovers = [
                p
                for p in [*in_flight.values(), *retry_queue, *queue]
                if outcomes[p.index].status == "pending"
            ]
            self._run_serial(leftovers, outcomes, telemetry)

    # -- observability ---------------------------------------------------------

    def _enable_obs(self) -> tuple:
        """Turn observability on process-wide; returns restore state.

        The ``REPRO_OBS`` environment variable carries the mode into
        pool workers (spawned workers re-read it at import; forked
        workers also inherit the in-memory STATE directly).
        """
        previous = (
            obs.STATE.metrics,
            obs.STATE.tracing,
            obs.STATE.profiling,
            os.environ.get(obs.OBS_ENV),
        )
        tokens = ["metrics"]
        if self.trace:
            tokens.append("trace")
        if self.profile:
            tokens.append("profile")
        os.environ[obs.OBS_ENV] = ",".join(tokens)
        obs.enable(metrics=True, trace=self.trace, profile=self.profile)
        return previous

    def _restore_obs(self, previous: tuple) -> None:
        metrics, tracing, profiling, env = previous
        obs.STATE.metrics = metrics
        obs.STATE.tracing = tracing
        obs.STATE.profiling = profiling
        if env is None:
            os.environ.pop(obs.OBS_ENV, None)
        else:
            os.environ[obs.OBS_ENV] = env
        obs.reset()

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
        registry.add("campaign.cells.cached", telemetry.cached)
        registry.add("campaign.cells.failed", telemetry.failed)
        registry.add("campaign.retries", telemetry.retries)
        registry.add("campaign.cache.hits", telemetry.cached)
        registry.add(
            "campaign.cache.misses", telemetry.scenarios_total - telemetry.cached
        )
        return registry.snapshot()

    def _merged_profile(self, outcomes: List[ScenarioOutcome]) -> Optional[Dict]:
        """Merge per-cell handler profiles and span aggregates.

        Merging happens in expansion order, mirroring the metrics
        merge, so even the float time sums are bit-stable across
        worker counts; the count fields (handler calls, span counts)
        are additionally run-invariant and are what ``campaign
        verify`` digests.
        """
        merged: Dict = {}
        for outcome in outcomes:
            merge_profile(merged, outcome.profile)
            if outcome.spans:
                merge_profile(merged, {"spans": span_aggregate(outcome.spans)})
        return merged or None

    def _assemble_trace(
        self, outcomes: List[ScenarioOutcome], run_span: Dict
    ) -> List[Dict]:
        """Cell spans (pid = shard+1) then runner spans (pid 0)."""
        events: List[Dict] = []
        for outcome in outcomes:
            if not outcome.spans:
                continue
            for event in outcome.spans:
                event = dict(event)
                event["pid"] = outcome.shard + 1
                events.append(event)
        for shard in sorted(self._shard_windows):
            start_ns, end_ns = self._shard_windows[shard]
            self._runner_events.append(
                complete_event("campaign.shard", start_ns, end_ns, {"shard": shard})
            )
        self._runner_events.append(run_span)
        for event in self._runner_events:
            event["pid"] = 0
            events.append(event)
        return events

    # -- public API ------------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute the campaign; never raises for per-cell failures."""
        previous_obs = self._enable_obs() if self.metrics else None
        self._runner_events = []
        self._shard_windows = {}
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
            shards = [s.shard(self.workers) for s in scenarios]
            telemetry.shard_sizes = [shards.count(i) for i in range(self.workers)]

            outcomes: List[ScenarioOutcome] = []
            pending: List[_Pending] = []
            for index, (spec, shard) in enumerate(zip(scenarios, shards)):
                # Outcome identity is the unsalted content digest so runs
                # compare bit-for-bit regardless of cache configuration;
                # the cache salts its own keys internally.
                digest = spec.digest()
                cached = self.cache.get(spec) if self.cache is not None else None
                if cached is not None:
                    outcomes.append(
                        ScenarioOutcome(
                            spec=spec,
                            digest=digest,
                            shard=shard,
                            status="cached",
                            result=cached,
                        )
                    )
                    telemetry.record_cached()
                else:
                    outcomes.append(
                        ScenarioOutcome(
                            spec=spec, digest=digest, shard=shard, status="pending"
                        )
                    )
                    pending.append(
                        _Pending(index=index, spec=spec, digest=digest, shard=shard)
                    )

            if pending:
                if self.workers <= 1:
                    self._run_serial(pending, outcomes, telemetry)
                else:
                    self._run_parallel(pending, outcomes, telemetry)

            telemetry.finish()
            result = CampaignResult(
                campaign=self.campaign, outcomes=outcomes, telemetry=telemetry
            )
            if self.metrics:
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
            if previous_obs is not None:
                self._restore_obs(previous_obs)


def run_campaign(
    campaign: CampaignSpec,
    cache: Optional[ResultCache] = None,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 2,
    backoff_s: float = 0.05,
    metrics: bool = False,
    trace: bool = False,
    profile: bool = False,
) -> CampaignResult:
    """Convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(
        campaign,
        cache=cache,
        workers=workers,
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
        metrics=metrics,
        trace=trace,
        profile=profile,
    ).run()
