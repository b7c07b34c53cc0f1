"""Campaign engine: ordered parallel execution with content-addressed caching.

The paper's measurement workflow — hundreds of rotation-stage
positions, distance sweeps, repeated trace captures, offline analysis
— is campaign-shaped.  Every campaign cell is a deterministic function
of its parameters and seed, and this package runs such campaigns:

* :mod:`repro.campaign.spec` — declarative, content-addressed
  :class:`ScenarioSpec`/:class:`CampaignSpec` grids with deterministic
  expansion;
* :mod:`repro.campaign.runner` — maps cells over 1 or N processes in
  expansion order, with per-scenario timeouts; failed cells are
  recorded, not fatal;
* :mod:`repro.campaign.cache` — an on-disk result cache keyed by
  SHA-256 of the canonical spec plus a code-version salt, so re-runs
  only compute changed cells;
* :mod:`repro.campaign.telemetry` — per-run counters/timers emitted
  as a JSON run manifest;
* :mod:`repro.campaign.store` — JSONL result persistence following
  the :mod:`repro.io` conventions;
* :mod:`repro.campaign.registry` — the experiment-cell registry and
  the built-in campaign catalog behind ``python -m repro campaign``;
* :mod:`repro.campaign.verify` — the worker-count-determinism and
  cache-purity prover behind ``python -m repro campaign verify``.
"""

from repro.campaign.cache import CACHE_SALT, ResultCache, default_cache_root
from repro.campaign.registry import (
    builtin_campaigns,
    get_campaign,
    resolve_cell,
)
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    ScenarioOutcome,
    ScenarioTimeout,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec, ScenarioSpec, canonicalize
from repro.campaign.store import load_manifest, load_results, save_results, write_run
from repro.campaign.telemetry import (
    MANIFEST_SCHEMA_VERSION,
    RunTelemetry,
    read_manifest,
)
from repro.campaign.verify import (
    VerifyReport,
    canonical_metrics,
    canonical_rows,
    rows_digest,
    verify_campaign,
)

__all__ = [
    "CACHE_SALT",
    "MANIFEST_SCHEMA_VERSION",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "ResultCache",
    "RunTelemetry",
    "ScenarioOutcome",
    "ScenarioSpec",
    "ScenarioTimeout",
    "VerifyReport",
    "builtin_campaigns",
    "canonical_metrics",
    "canonical_rows",
    "canonicalize",
    "default_cache_root",
    "get_campaign",
    "load_manifest",
    "load_results",
    "read_manifest",
    "resolve_cell",
    "rows_digest",
    "run_campaign",
    "save_results",
    "verify_campaign",
    "write_run",
]
