"""Worker-count-determinism verification.

``repro campaign verify <name>`` *proves*, rather than assumes, the
property the campaign engine's results rest on: the campaign is run
twice, first on a process pool with the submission order
deterministically shuffled (worst-case completion reordering), then
serially (``workers=1``, the reference path).  The merged result
stores must be byte-for-byte identical after dropping the wall-clock
timings, and so must the merged obs metrics and the count fields of
the profile.

A failed cell fails the verification outright: identical failure rows
"match", so that comparison says nothing about a campaign whose cells
do not run.

The comparison canonicalizes rows exactly like the JSONL store
(sorted keys, compact separators), so "byte-identical" here is the
same byte-identity a persisted ``results.jsonl`` would show.  That a
cell reads no input outside its spec (environment, files, wall clock)
is checked statically by source rules RL002 and RL009
(``tests/test_source_rules.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict

from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.obs.prof import strip_time_fields

#: Row fields that legitimately differ between runs of a deterministic
#: campaign: the wall-clock timing.  Everything else, the status
#: included, must be byte-identical.
VOLATILE_ROW_KEYS = ("elapsed_s",)


def canonical_rows(result: CampaignResult) -> str:
    """Run-invariant canonical text of a campaign's result rows."""
    lines = []
    for row in result.result_rows():
        projected = dict(row)
        for key in VOLATILE_ROW_KEYS:
            projected.pop(key, None)
        lines.append(json.dumps(projected, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines)


def rows_digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def canonical_metrics(result: CampaignResult) -> str:
    """Canonical text of a run's merged obs metrics (empty if none)."""
    metrics = result.telemetry.metrics
    if metrics is None:
        return ""
    return json.dumps(metrics, sort_keys=True, separators=(",", ":"))


def canonical_profile(result: CampaignResult) -> str:
    """Canonical text of a run's profile, count-derived fields only.

    Handler wall times are measurements and legitimately differ run to
    run; the handler names, call counts, and span counts must not —
    they are a function of the deterministic event schedule.
    """
    profile = result.telemetry.profile
    if not profile:
        return ""
    return json.dumps(
        strip_time_fields(profile), sort_keys=True, separators=(",", ":")
    )


@dataclass
class VerifyReport:
    """Everything ``repro campaign verify`` measured."""

    campaign: str
    scenarios: int
    workers: int
    shuffle_seed: int
    serial_digest: str = ""
    parallel_digest: str = ""
    determinism_ok: bool = False
    metrics_serial_digest: str = ""
    metrics_parallel_digest: str = ""
    metrics_ok: bool = True
    profile_serial_digest: str = ""
    profile_parallel_digest: str = ""
    profile_ok: bool = True
    first_divergence: str = ""
    failed: int = 0
    first_failure: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.failed == 0
            and self.determinism_ok
            and self.metrics_ok
            and self.profile_ok
        )

    def to_dict(self) -> Dict[str, object]:
        return {**asdict(self), "ok": self.ok}


def _first_divergence(serial: str, parallel: str) -> str:
    """Human-oriented pointer at the first differing canonical row."""
    for lineno, (a, b) in enumerate(
        zip(serial.splitlines(), parallel.splitlines()), start=1
    ):
        if a != b:
            return f"row {lineno}: serial={a[:120]} parallel={b[:120]}"
    a_count = serial.count("\n") + 1 if serial else 0
    b_count = parallel.count("\n") + 1 if parallel else 0
    if a_count != b_count:
        return f"row counts differ: serial={a_count} parallel={b_count}"
    return ""


def verify_campaign(
    campaign: CampaignSpec,
    workers: int = 4,
    shuffle_seed: int = 1,
) -> VerifyReport:
    """Prove workers=1 ≡ workers=N-with-shuffled-submission for a campaign."""
    report = VerifyReport(
        campaign=campaign.name,
        scenarios=campaign.scenario_count(),
        workers=workers,
        shuffle_seed=shuffle_seed,
    )

    # Both legs record metrics and run with profiling on: the merged
    # ``metrics`` manifest section must be byte-identical between the
    # serial reference and the shuffled parallel run, and the
    # ``profile`` section's count-derived projection (handler names,
    # call counts, span counts — never the wall times) must match too.
    # The parallel leg runs first, so its pool forks from a process
    # that has run no cell, and the serial leg then starts from that
    # same clean process: module state one cell leaves behind cannot
    # reach both legs alike.
    parallel = CampaignRunner(
        campaign, workers=workers, shuffle_seed=shuffle_seed, profile=True
    ).run()
    serial = CampaignRunner(campaign, workers=1, profile=True).run()
    serial_text = canonical_rows(serial)
    parallel_text = canonical_rows(parallel)
    report.serial_digest = rows_digest(serial_text)
    report.parallel_digest = rows_digest(parallel_text)
    report.determinism_ok = serial_text == parallel_text
    if not report.determinism_ok:
        report.first_divergence = _first_divergence(serial_text, parallel_text)
    serial_metrics = canonical_metrics(serial)
    parallel_metrics = canonical_metrics(parallel)
    report.metrics_serial_digest = rows_digest(serial_metrics)
    report.metrics_parallel_digest = rows_digest(parallel_metrics)
    report.metrics_ok = serial_metrics == parallel_metrics
    serial_profile = canonical_profile(serial)
    parallel_profile = canonical_profile(parallel)
    report.profile_serial_digest = rows_digest(serial_profile)
    report.profile_parallel_digest = rows_digest(parallel_profile)
    report.profile_ok = serial_profile == parallel_profile

    failed = {}
    for leg in (serial, parallel):
        for outcome in leg.failures():
            failed.setdefault(outcome.digest, outcome)
    report.failed = len(failed)
    if failed:
        first = next(iter(failed.values()))
        report.first_failure = (
            f"{first.spec.experiment} {first.digest[:12]}: {first.error}"
        )
    return report


def render_report(report: VerifyReport) -> str:
    """Terminal summary of a verification run."""
    lines = [
        f"campaign {report.campaign}: {report.scenarios} scenario(s), "
        f"workers=1 vs workers={report.workers} "
        f"(shuffle_seed={report.shuffle_seed})",
        f"  serial digest:   {report.serial_digest}",
        f"  parallel digest: {report.parallel_digest}"
        + ("  [MATCH]" if report.determinism_ok else "  [DIVERGED]"),
        f"  metrics digest:  {report.metrics_serial_digest} vs "
        f"{report.metrics_parallel_digest}"
        + ("  [MATCH]" if report.metrics_ok else "  [DIVERGED]"),
        f"  profile digest:  {report.profile_serial_digest} vs "
        f"{report.profile_parallel_digest} (count fields)"
        + ("  [MATCH]" if report.profile_ok else "  [DIVERGED]"),
    ]
    if report.first_divergence:
        lines.append(f"  first divergence: {report.first_divergence}")
    if report.failed:
        lines.append(f"  failed cells: {report.failed}, first: {report.first_failure}")
    lines.append(f"verify: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)


__all__ = [
    "VOLATILE_ROW_KEYS",
    "VerifyReport",
    "canonical_metrics",
    "canonical_profile",
    "canonical_rows",
    "rows_digest",
    "verify_campaign",
    "render_report",
]
