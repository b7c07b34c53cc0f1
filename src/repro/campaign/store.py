"""JSONL persistence for campaign results.

A campaign run writes two artifacts into its output directory:

* ``results.jsonl`` — one row per scenario cell (the
  :meth:`~repro.campaign.runner.CampaignResult.result_rows` schema:
  digest, experiment, params, seed, status, elapsed_s, result,
  error), via the same JSON-lines
  conventions as :mod:`repro.io`;
* ``manifest.json`` — the run telemetry
  (:meth:`~repro.campaign.telemetry.RunTelemetry.write_manifest`).

``load_results`` reads rows back for offline analysis, mirroring the
paper's oscilloscope -> files -> offline-Matlab workflow.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Union

from repro.campaign.runner import CampaignResult
from repro.campaign.telemetry import MANIFEST_FILENAME, read_manifest
from repro.io import load_jsonl, save_jsonl
from repro.obs.export import write_trace

PathLike = Union[str, pathlib.Path]

RESULTS_FILENAME = "results.jsonl"


def save_results(result: CampaignResult, path: PathLike) -> int:
    """Write one JSONL row per scenario; returns the count written."""
    return save_jsonl(result.result_rows(), path)


def load_results(path: PathLike) -> List[Dict]:
    """Read rows written by :func:`save_results`."""
    rows = load_jsonl(path)
    for row in rows:
        for key in ("digest", "experiment", "status"):
            if key not in row:
                raise ValueError(f"{path}: result row missing {key!r}")
    return rows


def write_run(result: CampaignResult, out_dir: PathLike) -> pathlib.Path:
    """Persist a full run (results + manifest [+ trace]) into a directory.

    Returns the output directory.  Layout::

        <out_dir>/results.jsonl
        <out_dir>/manifest.json
        <out_dir>/trace.json     (only for runs executed with trace=True)
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_results(result, out / RESULTS_FILENAME)
    if result.telemetry.spans_file:
        write_trace(
            out / result.telemetry.spans_file,
            result.trace_events,
            label=result.telemetry.campaign,
        )
    result.telemetry.write_manifest(out / MANIFEST_FILENAME)
    return out


def load_manifest(run_dir: PathLike) -> Dict:
    """Read a run directory's manifest (current schema only; see
    :func:`repro.campaign.telemetry.read_manifest`)."""
    return read_manifest(pathlib.Path(run_dir) / MANIFEST_FILENAME)
