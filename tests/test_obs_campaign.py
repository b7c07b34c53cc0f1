"""Campaign-level observability: deterministic metrics, trace export.

The acceptance-critical property mirrors the result-row one: a
campaign's merged ``metrics`` manifest section must be byte-identical
between ``workers=1`` and a shuffled parallel run.
"""

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.campaign import runner as runner_module

from repro import obs
from repro.campaign.runner import CampaignRunner, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import load_manifest, write_run
from repro.campaign.verify import canonical_metrics, verify_campaign
from repro.obs.export import read_trace, validate_trace

DES = "tests.campaign_cells:des_cell"
DEVICES = "tests.campaign_cells:device_pair_cell"
DOUBLE = "tests.campaign_cells:double_cell"
OBS_MODE = "tests.campaign_cells:obs_mode_cell"


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def des_campaign(ticks=(30, 60), seeds=(0, 1)):
    return CampaignSpec(
        name="des-obs",
        experiment=DES,
        grid={"ticks": tuple(ticks)},
        seeds=seeds,
    )


class TestMetricsCollection:
    def test_off_by_default(self):
        # Metrics are always recorded; spans and handler times are not.
        result = run_campaign(des_campaign())
        assert result.telemetry.metrics["counters"]["campaign.cells.total"] == 4
        assert result.telemetry.profile is None
        assert result.telemetry.spans_file is None
        assert result.trace_events == []

    def test_metrics_run_merges_cell_counters(self):
        result = run_campaign(des_campaign())
        counters = result.telemetry.metrics["counters"]
        # DES cells feed the simulator counter; the runner adds its own.
        assert counters["mac.simulator.events"] > 0
        assert counters["campaign.cells.total"] == 4
        assert counters["campaign.cells.completed"] == 4
        assert counters["campaign.cells.failed"] == 0
        assert not [k for k in counters if k.startswith("campaign.cache")]

    def test_state_restored_after_run(self):
        run_campaign(des_campaign())
        assert not obs.STATE.enabled
        assert obs.metrics_snapshot() is None

    def test_state_restored_after_failure(self):
        spec = CampaignSpec(
            name="broken",
            experiment="tests.campaign_cells:always_fails",
            grid={},
            seeds=(0,),
        )
        result = run_campaign(spec)
        assert result.telemetry.failed == 1
        assert result.telemetry.metrics["counters"]["campaign.cells.failed"] == 1
        assert not obs.STATE.enabled

    def test_serial_and_parallel_metrics_byte_identical(self):
        spec = des_campaign(ticks=(20, 40, 60), seeds=(0, 1))
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(
            spec, workers=3, shuffle_seed=7
        ).run()
        assert canonical_metrics(serial) == canonical_metrics(parallel)
        assert canonical_metrics(serial)  # non-empty: metrics were recorded

    def test_device_unit_cache_does_not_leak_into_cell_counters(self):
        """A warm parent cache must not change counters at any worker count.

        Forked workers inherit the parent's memoized device units; the
        runner clears them before every cell, so each cell synthesizes
        the dock's and the laptop's 64 patterns itself.
        """
        from repro.devices import make_d5000_dock

        make_d5000_dock()
        spec = CampaignSpec(
            name="device-units",
            experiment=DEVICES,
            grid={"distance_m": (2.0, 3.0, 4.0)},
            seeds=(0, 1),
        )
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(
            spec, workers=3, shuffle_seed=7
        ).run()
        assert canonical_metrics(serial) == canonical_metrics(parallel)
        counters = serial.telemetry.metrics["counters"]
        assert counters["phy.antenna.pattern_syntheses"] == 128 * 6

    def test_metrics_excluded_from_result_rows(self):
        result = run_campaign(des_campaign())
        for row in result.result_rows():
            assert "metrics" not in row
            assert "spans" not in row


class TestWorkerObsMode:
    """Pool workers get the obs mode from the pool's initializer."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_get_mode_without_environment(self, monkeypatch, start_method):
        # A spawned worker inherits no module state: only the pool's
        # initializer can switch its flags on.
        context = multiprocessing.get_context(start_method)
        monkeypatch.setattr(
            runner_module,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=context),
        )
        environ = dict(os.environ)
        spec = CampaignSpec(
            name="obs-mode", experiment=OBS_MODE, grid={}, seeds=(0, 1, 2, 3)
        )
        result = run_campaign(spec, workers=2, trace=True, profile=True)
        assert dict(os.environ) == environ
        assert result.telemetry.failed == 0
        for outcome in result.outcomes:
            assert outcome.result["flags"] == [True, True, True]
            assert outcome.result["env_var"] is False
        profile = result.telemetry.profile
        assert any(name.endswith("<locals>.tick") for name in profile["handlers"])
        assert profile["spans"]["campaign.cell"]["count"] == 4
        assert profile["spans"]["mac.simulator.run"]["count"] == 4


class TestTraceCollection:
    def test_serial_trace_emits_cell_spans(self):
        result = run_campaign(des_campaign(), trace=True)
        names = {e["name"] for e in result.trace_events}
        assert "campaign.run" in names
        assert "campaign.cell" in names
        assert "mac.simulator.run" in names  # in-cell span survived the merge

    def test_parallel_trace_emits_events(self):
        result = run_campaign(des_campaign(), workers=2, trace=True)
        assert result.telemetry.spans_file == "trace.json"
        names = {e["name"] for e in result.trace_events}
        assert "campaign.run" in names
        assert "campaign.cell" in names
        # Cell spans ride their worker's timeline (pids 1..N, numbered
        # in first-seen order); the run span stays on pid 0.
        cell_pids = [
            e["pid"] for e in result.trace_events if e["name"] == "campaign.cell"
        ]
        assert len(cell_pids) == result.telemetry.scenarios_total
        assert cell_pids[0] == 1
        assert set(cell_pids) == set(range(1, max(cell_pids) + 1))
        assert max(cell_pids) <= 2
        sim_pids = {
            e["pid"] for e in result.trace_events if e["name"] == "mac.simulator.run"
        }
        assert sim_pids and sim_pids <= set(cell_pids)
        run_pids = {
            e["pid"] for e in result.trace_events if e["name"] == "campaign.run"
        }
        assert run_pids == {0}

    def test_failed_cell_spans_stay_counted(self):
        spec = CampaignSpec(
            name="broken",
            experiment="tests.campaign_cells:always_fails",
            grid={},
            seeds=(0,),
        )
        result = run_campaign(spec, trace=True)
        assert result.telemetry.failed == 1
        cell_spans = [e for e in result.trace_events if e["name"] == "campaign.cell"]
        assert len(cell_spans) == 1
        assert result.telemetry.profile["spans"]["campaign.cell"]["count"] == 1

    def test_write_run_persists_valid_trace(self, tmp_path):
        result = run_campaign(des_campaign(), workers=2, trace=True)
        out = write_run(result, tmp_path / "run")
        assert (out / "trace.json").is_file()
        doc = read_trace(out / "trace.json")
        assert validate_trace(doc) == []
        manifest = load_manifest(out)
        assert manifest["schema_version"] == 5
        assert manifest["spans_file"] == "trace.json"
        assert manifest["metrics"]["counters"]["campaign.cells.total"] == 4


class TestVerifyMetricsLeg:
    def test_verify_reports_metrics_match(self):
        report = verify_campaign(
            des_campaign(ticks=(25, 50), seeds=(0,)),
            workers=2,
        )
        assert report.determinism_ok
        assert report.metrics_ok
        assert report.metrics_serial_digest == report.metrics_parallel_digest
        assert report.ok
        d = report.to_dict()
        assert d["metrics_ok"] is True
        assert d["metrics_serial_digest"] == report.metrics_serial_digest
