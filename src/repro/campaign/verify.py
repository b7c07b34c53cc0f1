"""Worker-count-determinism and cache-purity verification.

``repro campaign verify <name>`` *proves*, rather than assumes, the
two properties the campaign engine's results rest on:

1. **Worker-count determinism** — the campaign is run twice without a
   cache, once serially (``workers=1``, the reference path) and once
   on a process pool with the submission order deterministically
   shuffled (worst-case completion reordering).  The merged result
   stores must be byte-for-byte identical after dropping run-volatile
   fields (wall-clock timings, cached-vs-completed status).

2. **Cache purity** — every cell is executed in-process under
   :class:`PurityAudit`, which records each environment/file/clock
   read.  Any read not derivable from the
   scenario spec means the content-addressed cache key does not
   capture all inputs.
   A third run replays the shuffled-parallel results through a fresh
   cache and asserts a serial re-run is served entirely from cache
   with identical values.

A failed cell fails the verification outright: identical failure rows
"match", and an all-hits check over no cached cells holds vacuously,
so neither says anything about a campaign whose cells do not run.

The comparison canonicalizes rows exactly like the JSONL store
(sorted keys, compact separators), so "byte-identical" here is the
same byte-identity a persisted ``results.jsonl`` would show.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaign.cache import ResultCache
from repro.campaign.registry import resolve_cell
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.obs.prof import strip_time_fields

#: Row fields that legitimately differ between runs of a deterministic
#: campaign: wall-clock timings and whether a result came from the
#: cache or fresh execution.  Everything else must be byte-identical.
VOLATILE_ROW_KEYS = ("elapsed_s", "status")


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
            cell(seed=0, **params)
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


@dataclass
class CellAudit:
    """Purity-audit outcome for one scenario executed in-process."""

    digest: str
    experiment: str
    reads: List[Dict[str, str]] = field(default_factory=list)
    reads_digest: str = ""
    error: Optional[str] = None

    @property
    def pure(self) -> bool:
        return not self.reads and self.error is None

    def to_dict(self) -> Dict[str, object]:
        return {
            "digest": self.digest,
            "experiment": self.experiment,
            "reads": list(self.reads),
            "reads_digest": self.reads_digest,
            "error": self.error,
            "pure": self.pure,
        }


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
    audits: List[CellAudit] = field(default_factory=list)
    audited: int = 0
    impure: int = 0
    purity_ok: bool = True
    cache_checked: bool = False
    cache_all_hits: bool = False
    cache_digest: str = ""
    cache_ok: bool = True
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
            and self.purity_ok
            and self.cache_ok
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign,
            "scenarios": self.scenarios,
            "workers": self.workers,
            "shuffle_seed": self.shuffle_seed,
            "serial_digest": self.serial_digest,
            "parallel_digest": self.parallel_digest,
            "determinism_ok": self.determinism_ok,
            "metrics_serial_digest": self.metrics_serial_digest,
            "metrics_parallel_digest": self.metrics_parallel_digest,
            "metrics_ok": self.metrics_ok,
            "profile_serial_digest": self.profile_serial_digest,
            "profile_parallel_digest": self.profile_parallel_digest,
            "profile_ok": self.profile_ok,
            "audited": self.audited,
            "impure": self.impure,
            "purity_ok": self.purity_ok,
            "audits": [a.to_dict() for a in self.audits if not a.pure],
            "cache_checked": self.cache_checked,
            "cache_all_hits": self.cache_all_hits,
            "cache_digest": self.cache_digest,
            "cache_ok": self.cache_ok,
            "first_divergence": self.first_divergence,
            "failed": self.failed,
            "first_failure": self.first_failure,
            "ok": self.ok,
        }


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


def _audit_cells(
    campaign: CampaignSpec,
    limit: int,
    allowed_env: Tuple[str, ...],
) -> List[CellAudit]:
    """Run up to ``limit`` cells in-process under the purity auditor.

    The cell is resolved *before* the audit window opens so import-time
    file access (module loading) is not charged to the cell.
    """
    audits: List[CellAudit] = []
    for spec in campaign.expand()[:limit]:
        fn = resolve_cell(spec.experiment)
        entry = CellAudit(digest=spec.digest(), experiment=spec.experiment)
        with PurityAudit(allowed_env=allowed_env) as audit:
            try:
                fn(seed=spec.seed, **spec.param_dict())
            except Exception as exc:
                entry.error = f"{type(exc).__name__}: {exc}"
        entry.reads = [r.to_dict() for r in audit.records]
        entry.reads_digest = audit.digest()
        audits.append(entry)
    return audits


def verify_campaign(
    campaign: CampaignSpec,
    workers: int = 4,
    shuffle_seed: int = 1,
    audit: bool = True,
    audit_limit: int = 16,
    cache_check: bool = True,
    allowed_env: Tuple[str, ...] = (),
) -> VerifyReport:
    """Prove workers=1 ≡ workers=N-with-shuffled-submission for a campaign."""
    report = VerifyReport(
        campaign=campaign.name,
        scenarios=campaign.scenario_count(),
        workers=workers,
        shuffle_seed=shuffle_seed,
    )

    if audit:
        report.audits = _audit_cells(campaign, audit_limit, allowed_env)
        report.audited = len(report.audits)
        report.impure = sum(1 for a in report.audits if not a.pure)
        report.purity_ok = report.impure == 0

    # Both determinism legs run with obs metrics AND profiling on: the
    # merged ``metrics`` manifest section must be byte-identical
    # between the serial reference and the shuffled parallel run, and
    # the ``profile`` section's count-derived projection (handler
    # names, call counts, span counts — never the wall times) must
    # match too.
    serial = CampaignRunner(
        campaign, cache=None, workers=1, metrics=True, profile=True
    ).run()
    parallel = CampaignRunner(
        campaign,
        cache=None,
        workers=workers,
        shuffle_seed=shuffle_seed,
        metrics=True,
        profile=True,
    ).run()
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
    legs = [serial, parallel]

    if cache_check:
        report.cache_checked = True
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            cache = ResultCache(tmp)
            CampaignRunner(
                campaign, cache=cache, workers=workers, shuffle_seed=shuffle_seed
            ).run()
            replay = CampaignRunner(campaign, cache=cache, workers=1).run()
        report.cache_all_hits = all(
            o.status == "cached" for o in replay.outcomes if o.ok
        )
        replay_text = canonical_rows(replay)
        report.cache_digest = rows_digest(replay_text)
        report.cache_ok = report.cache_all_hits and replay_text == serial_text
        legs.append(replay)

    failed = {}
    for leg in legs:
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
    if report.audited:
        lines.append(
            f"  purity audit: {report.audited} cell(s), "
            f"{report.impure} impure"
        )
        for entry in report.audits:
            if entry.pure:
                continue
            reads = ", ".join(
                f"{r['kind']}:{r['detail']}" for r in entry.reads[:5]
            )
            more = "" if len(entry.reads) <= 5 else f" (+{len(entry.reads) - 5} more)"
            problem = entry.error if entry.error else f"reads {reads}{more}"
            lines.append(f"    {entry.experiment} {entry.digest[:12]}: {problem}")
    if report.cache_checked:
        verdict = "OK" if report.cache_ok else "FAILED"
        lines.append(
            f"  cache replay: digest {report.cache_digest}, "
            f"all-hits={report.cache_all_hits} [{verdict}]"
        )
    lines.append(f"verify: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)


__all__ = [
    "VOLATILE_ROW_KEYS",
    "CellAudit",
    "VerifyReport",
    "canonical_metrics",
    "canonical_profile",
    "canonical_rows",
    "rows_digest",
    "verify_campaign",
    "render_report",
]
