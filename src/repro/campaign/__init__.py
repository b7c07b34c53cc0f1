"""Campaign engine: ordered parallel execution of deterministic cells.

The paper's measurement workflow — hundreds of rotation-stage
positions, distance sweeps, repeated trace captures, offline analysis
— is campaign-shaped.  Every campaign cell is a deterministic function
of its parameters and seed, and this package runs such campaigns:

* :mod:`repro.campaign.spec` — content-addressed :class:`ScenarioSpec`
  cells; a :class:`CampaignSpec` is a named, ordered tuple of them;
* :mod:`repro.campaign.runner` — maps every cell over 1 or N
  processes in cell order, with per-scenario timeouts; failed
  cells are recorded, not fatal;
* :mod:`repro.campaign.telemetry` — per-run counters/timers emitted
  as a JSON run manifest;
* :mod:`repro.campaign.store` — JSON-lines result persistence and the
  run-directory layout;
* :mod:`repro.campaign.registry` — the experiment-cell registry and
  the built-in campaign catalog behind ``python -m repro campaign``;
* :mod:`repro.campaign.verify` — the worker-count-determinism prover
  behind ``python -m repro campaign verify``.

Nothing is cached between runs: every run computes every cell, so a
change to a cell's code shows in the next run's rows.
"""

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
from repro.campaign.spec import CampaignSpec, ScenarioSpec, canonicalize, grid_cells
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
    "MANIFEST_SCHEMA_VERSION",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "RunTelemetry",
    "ScenarioOutcome",
    "ScenarioSpec",
    "ScenarioTimeout",
    "VerifyReport",
    "builtin_campaigns",
    "canonical_metrics",
    "canonical_rows",
    "canonicalize",
    "get_campaign",
    "grid_cells",
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
