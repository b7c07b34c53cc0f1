"""Mobility experiment cells, campaigns, and determinism proofs."""

import json

import pytest

from repro import obs
from repro.campaign.registry import builtin_campaigns, get_campaign, resolve_cell
from repro.campaign.spec import CampaignSpec, grid_cells
from repro.campaign.verify import verify_campaign
from repro.experiments.mobility import (
    VEHICULAR_SPEEDS_KMH,
    contact_time_by_policy,
    handover_cell,
    retraining_overhead_vs_speed,
    vehicular_cell,
)
from repro.obs.metrics import MetricsRegistry

#: Shrunken vehicular cell parameters for the fast determinism legs.
SMALL_VEHICLE = dict(approach_m=3.0, update_interval_s=4e-3)


class TestVehicularCell:
    def test_result_shape(self):
        row = vehicular_cell(speed_kmh=110.0, seed=0, **SMALL_VEHICLE)
        for key in (
            "speed_kmh",
            "duration_s",
            "goodput_bps",
            "retrains",
            "retrain_airtime_s",
            "overhead_fraction",
            "events_simulated",
        ):
            assert key in row
        assert row["speed_kmh"] == 110.0
        assert row["events_simulated"] > 0
        assert row["duration_s"] > 0
        assert 0.0 <= row["overhead_fraction"] < 1.0

    def test_deterministic_per_seed(self):
        a = vehicular_cell(speed_kmh=70.0, seed=3, **SMALL_VEHICLE)
        b = vehicular_cell(speed_kmh=70.0, seed=3, **SMALL_VEHICLE)
        c = vehicular_cell(speed_kmh=70.0, seed=4, **SMALL_VEHICLE)
        assert a == b
        assert a["goodput_bps"] != c["goodput_bps"]

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            vehicular_cell(speed_kmh=0.0)

    def test_overhead_grows_monotonically_with_speed(self):
        # The acceptance criterion: same seed, same road segment, same
        # beamwidth — faster passes burn a larger airtime fraction on
        # re-training.
        rows = retraining_overhead_vs_speed(
            speeds_kmh=VEHICULAR_SPEEDS_KMH, seed=0
        )
        overheads = [row["overhead_fraction"] for row in rows]
        assert overheads == sorted(overheads)
        assert len(set(overheads)) == len(overheads)  # strictly increasing
        assert all(o > 0 for o in overheads)
        # The pass itself shrinks as 1/speed.
        durations = [row["duration_s"] for row in rows]
        assert durations == sorted(durations, reverse=True)


class TestHandoverCell:
    def test_result_shape(self):
        row = handover_cell(policy="wifi", seed=0)
        for key in (
            "policy",
            "handovers",
            "contact_time_s",
            "probe_airtime_s",
            "handover_airtime_s",
            "mean_goodput_bps",
            "outage_fraction",
            "events_simulated",
        ):
            assert key in row
        assert row["policy"] == "wifi"
        assert row["probe_airtime_s"] == 0.0
        assert set(row["contact_time_s"]) == {"ap-0", "ap-1", "ap-2"}

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            handover_cell(policy="psychic")

    def test_deterministic_per_seed(self):
        a = handover_cell(policy="hysteresis", seed=1)
        b = handover_cell(policy="hysteresis", seed=1)
        assert a == b

    def test_contact_time_by_policy(self):
        results = contact_time_by_policy(policies=("sticky", "wifi"), seed=0)
        assert set(results) == {"sticky", "wifi"}
        assert results["wifi"]["probe_airtime_s"] == 0.0
        assert results["sticky"]["probe_airtime_s"] > 0.0


class TestCampaignCatalog:
    def test_cells_registered(self):
        assert resolve_cell("mobility_vehicular") is vehicular_cell
        assert resolve_cell("mobility_handover") is handover_cell

    def test_campaigns_listed(self):
        campaigns = builtin_campaigns()
        assert "mobility-speed" in campaigns
        assert "mobility-handover" in campaigns
        speed = get_campaign("mobility-speed")
        speeds = tuple(dict.fromkeys(c.param_dict()["speed_kmh"] for c in speed.cells))
        assert speeds == VEHICULAR_SPEEDS_KMH
        assert {c.experiment for c in speed.cells} == {"mobility_vehicular"}


class TestObsMergeDeterminism:
    def _collect(self, **cell_kwargs):
        obs.reset()
        obs.enable(metrics=True)
        try:
            obs.begin_cell()
            vehicular_cell(**cell_kwargs)
            snap, _spans, _profile = obs.collect_cell()
        finally:
            obs.disable()
            obs.reset()
        return snap

    def test_cell_snapshots_are_reproducible(self):
        a = self._collect(speed_kmh=110.0, seed=0, **SMALL_VEHICLE)
        b = self._collect(speed_kmh=110.0, seed=0, **SMALL_VEHICLE)
        assert a == b
        assert a["counters"]["mobility.position_updates"] > 0

    def test_counter_merge_is_order_independent(self):
        snaps = [
            self._collect(speed_kmh=s, seed=0, **SMALL_VEHICLE)
            for s in (50.0, 110.0)
        ]
        forward = MetricsRegistry()
        backward = MetricsRegistry()
        for snap in snaps:
            forward.merge_snapshot(snap)
        for snap in reversed(snaps):
            backward.merge_snapshot(snap)
        f = forward.snapshot()
        b = backward.snapshot()
        assert f["counters"] == b["counters"]
        assert f["gauges"] == b["gauges"]
        for name, hist in f["histograms"].items():
            other = b["histograms"][name]
            assert hist["buckets"] == other["buckets"]
            assert hist["counts"] == other["counts"]
            assert hist["count"] == other["count"]


class TestCampaignVerify:
    def test_mobility_campaign_is_byte_identical_across_workers(self):
        # The acceptance criterion: workers=1 vs workers=N (shuffled
        # submission) must agree byte-for-byte on rows AND merged metrics,
        # on a shrunken mobility-speed campaign.
        spec = CampaignSpec(
            "mobility-speed-smoke",
            grid_cells(
                "mobility_vehicular",
                params=dict(SMALL_VEHICLE),
                grid={"speed_kmh": (50.0, 110.0)},
                seeds=(0,),
            ),
        )
        report = verify_campaign(spec, workers=2)
        assert report.determinism_ok, report.first_divergence
        assert report.metrics_ok
        assert report.ok
        # The report is JSON-serializable for the CLI/CI path.
        json.dumps(report.to_dict())
