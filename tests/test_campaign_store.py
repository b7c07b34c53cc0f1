"""Tests for campaign result persistence (JSONL + manifest layout)."""

import json

import pytest

from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, grid_cells
from repro.campaign.store import (
    load_jsonl,
    load_manifest,
    load_results,
    save_jsonl,
    save_results,
    write_run,
)
from repro.campaign.telemetry import (
    MANIFEST_SCHEMA_VERSION,
    RunTelemetry,
    read_manifest,
)

DOUBLE = "tests.campaign_cells:double_cell"


@pytest.fixture()
def result():
    spec = CampaignSpec(
        "doubles",
        grid_cells(DOUBLE, grid={"value": (1, 2)}, seeds=(0,)),
    )
    return run_campaign(spec)


class TestJsonlHelpers:
    def test_roundtrip(self, tmp_path):
        rows = [{"a": 1}, {"b": [1, 2]}, {"c": None}]
        path = tmp_path / "rows.jsonl"
        assert save_jsonl(rows, path) == 3
        assert load_jsonl(path) == rows

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert load_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{broken\n')
        with pytest.raises(ValueError, match=":2"):
            load_jsonl(path)


class TestResultRows:
    def test_save_load_roundtrip(self, result, tmp_path):
        path = tmp_path / "results.jsonl"
        assert save_results(result, path) == 2
        rows = load_results(path)
        assert [r["digest"] for r in rows] == [o.digest for o in result.outcomes]
        assert rows[0]["status"] == "completed"
        assert rows[0]["result"]["value"] in (2, 4)
        assert rows[0]["params"] == {"value": rows[0]["result"]["value"] // 2}

    def test_load_validates_required_keys(self, tmp_path):
        path = tmp_path / "results.jsonl"
        save_jsonl([{"digest": "x"}], path)
        with pytest.raises(ValueError, match="experiment"):
            load_results(path)


class TestWriteRun:
    def test_layout_and_contents(self, result, tmp_path):
        out = write_run(result, tmp_path / "run")
        assert (out / "results.jsonl").is_file()
        assert (out / "manifest.json").is_file()
        manifest = read_manifest(out / "manifest.json")
        assert manifest["scenarios"]["total"] == 2
        assert len(load_results(out / "results.jsonl")) == 2

    def test_no_trace_file_without_tracing(self, result, tmp_path):
        out = write_run(result, tmp_path / "run")
        assert not (out / "trace.json").exists()


class TestManifestSchema:
    def test_v5_schema_locked(self, result, tmp_path):
        # The manifest is the contract external tooling reads; lock the
        # exact top-level key set so additions are deliberate (and
        # versioned).
        path = result.telemetry.write_manifest(tmp_path / "manifest.json")
        manifest = json.loads(path.read_text())
        assert sorted(manifest) == [
            "campaign",
            "campaign_digest",
            "des",
            "failures",
            "finished_unix",
            "metrics",
            "profile",
            "scenarios",
            "schema_version",
            "spans_file",
            "started_unix",
            "timing",
            "workers",
        ]
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION == 5
        assert sorted(manifest["scenarios"]) == [
            "completed",
            "failed",
            "timeouts",
            "total",
        ]
        assert sorted(manifest["timing"]) == [
            "speedup_vs_serial",
            "wall_clock_s",
            "worker_time_s",
        ]
        assert sorted(manifest["des"]) == ["events_per_second", "events_simulated"]

    def test_load_manifest_is_the_run_dir_shim(self, result, tmp_path):
        out = write_run(result, tmp_path / "run")
        manifest = load_manifest(out)
        assert manifest["schema_version"] == 5
        assert "metrics" in manifest and "spans_file" in manifest
        assert "profile" in manifest

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        for version in (1, 2, 3, 4, 999):
            path.write_text(json.dumps({"schema_version": version}))
            with pytest.raises(ValueError, match="unsupported manifest schema"):
                read_manifest(path)


class TestEventsPerSecond:
    def test_zero_duration_reports_null_not_inf(self):
        # Regression: a run can report events_simulated > 0 with ~zero
        # summed worker time; the old code divided and put inf in the
        # manifest (invalid JSON).
        t = RunTelemetry(events_simulated=1000, worker_time_s=0.0)
        assert t.events_per_second() is None
        manifest = t.as_manifest()
        assert manifest["des"]["events_per_second"] is None
        # json round-trips (inf would raise / emit Infinity)
        assert json.loads(json.dumps(manifest))["des"]["events_per_second"] is None

    def test_no_events_is_zero_rate(self):
        t = RunTelemetry(events_simulated=0, worker_time_s=5.0)
        assert t.events_per_second() == 0.0

    def test_normal_rate(self):
        t = RunTelemetry(events_simulated=100, worker_time_s=2.0)
        assert t.events_per_second() == 50.0

    def test_summary_omits_rate_when_null(self):
        t = RunTelemetry(events_simulated=1000, worker_time_s=0.0)
        assert "events/s" not in t.summary()

    def test_speedup_guarded_the_same_way(self):
        t = RunTelemetry(worker_time_s=2.0, wall_clock_s=0.0)
        assert t.speedup_vs_serial() is None
        assert RunTelemetry().speedup_vs_serial() == 0.0
