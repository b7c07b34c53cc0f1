"""Integration tests for the interference experiments (Figures 21-23).

The full Figure 22 sweep takes tens of seconds; these tests run
short-duration versions that still exhibit every qualitative effect the
paper reports.
"""

import numpy as np
import pytest

from repro.core.frames import FrameDetector
from repro.core.interference import InterferencePoint
from repro.core.utilization import medium_usage_from_records
from repro.experiments.interference import (
    UTILIZATION_THRESHOLD_DBM,
    _measurement_receiver,
    build_interference_scenario,
    capture_interference_trace,
    channel_utilization,
    interference_cell,
    mean_link_rate_bps,
)
from repro.experiments.reflection_interference import (
    build_reflector_room,
    interference_path_report,
    run_reflection_interference,
)
from repro.mac.frames import FrameKind


class TestScenarioConstruction:
    def test_all_devices_present(self):
        scen = build_interference_scenario(wihd_offset_m=1.0)
        assert set(scen.devices) == {
            "dock-a", "laptop-a", "dock-b", "laptop-b", "wihd-tx", "wihd-rx",
        }

    def test_without_wihd(self):
        scen = build_interference_scenario(with_wihd=False)
        assert "wihd-tx" not in scen.devices
        assert scen.wihd is None

    def test_rotated_dock_orientation(self):
        import math

        aligned = build_interference_scenario(rotated=False)
        rotated = build_interference_scenario(rotated=True)
        diff = rotated.devices["dock-a"].orientation_rad - aligned.devices[
            "dock-a"
        ].orientation_rad
        assert math.degrees(diff) == pytest.approx(70.0)


class TestFigure21FrameEffects:
    @pytest.fixture(scope="class")
    def close_scenario(self):
        scen = build_interference_scenario(wihd_offset_m=0.3, seed=11)
        scen.run(0.25)
        return scen

    def test_wigig_suffers_retransmissions(self, close_scenario):
        """Figure 21a: collisions cause missing ACKs and retries."""
        assert close_scenario.link_a.stats.retransmissions > 10

    def test_far_scenario_is_cleaner(self, close_scenario):
        far = build_interference_scenario(wihd_offset_m=3.0, seed=11)
        far.run(0.25)
        assert far.link_a.stats.retransmissions < (
            close_scenario.link_a.stats.retransmissions / 2
        )

    def test_trace_capture_contains_both_systems(self):
        trace, scen = capture_interference_trace(wihd_offset_m=0.5, run_for_s=0.1)
        frames = FrameDetector(threshold_v=0.05).detect(trace)
        assert len(frames) >= 10

    def test_overlapping_transmissions_exist(self, close_scenario):
        """WiHD transmits blindly, so real frame overlaps must occur."""
        records = close_scenario.medium.history
        wihd = [r for r in records if r.source == "wihd-tx" and r.kind == FrameKind.DATA]
        wigig = [r for r in records if r.source == "laptop-a" and r.kind == FrameKind.DATA]
        overlaps = 0
        wigig_sorted = sorted(wigig, key=lambda r: r.start_s)
        starts = np.array([r.start_s for r in wigig_sorted])
        ends = np.array([r.end_s for r in wigig_sorted])
        for w in wihd[:500]:
            idx = np.searchsorted(ends, w.start_s)
            if idx < starts.size and starts[idx] < w.end_s:
                overlaps += 1
        assert overlaps > 0


def fig22_point(offset_m, **kwargs):
    """One ``interference_cell`` row as an :class:`InterferencePoint`."""
    row = interference_cell(wihd_offset_m=offset_m, **kwargs)
    del row["events_simulated"]
    return InterferencePoint(**row)


class TestFigure22Sweep:
    @pytest.fixture(scope="class")
    def baseline(self):
        return fig22_point(0.0, with_wihd=False, duration_s=0.25, seed=99)

    @pytest.fixture(scope="class")
    def close_point(self):
        return fig22_point(0.5, duration_s=0.25, seed=10)

    @pytest.fixture(scope="class")
    def far_point(self):
        return fig22_point(3.0, duration_s=0.25, seed=10)

    def test_baseline_utilization_paper_range(self, baseline):
        """Interference-free utilization ~38% (paper: 38%/42%)."""
        assert 0.2 < baseline.utilization < 0.55

    def test_interference_raises_utilization(self, baseline, close_point):
        assert close_point.utilization > baseline.utilization + 0.15

    def test_utilization_decays_with_distance(self, close_point, far_point):
        assert far_point.utilization < close_point.utilization - 0.1

    def test_far_point_near_baseline(self, baseline, far_point):
        assert far_point.utilization == pytest.approx(baseline.utilization, abs=0.12)

    def test_link_rate_drops_under_interference(self, baseline, close_point):
        """The inverse rate/utilization correlation of Figure 22."""
        assert close_point.link_rate_bps < baseline.link_rate_bps

    def test_rotated_baseline_rate_lower(self):
        aligned = fig22_point(0.0, with_wihd=False, duration_s=0.2, seed=42)
        rotated = fig22_point(
            0.0, with_wihd=False, rotated=True, duration_s=0.2, seed=42
        )
        assert rotated.link_rate_bps < aligned.link_rate_bps

    def test_transfer_time_computed(self, close_point):
        assert close_point.transfer_time_s is not None
        assert close_point.transfer_time_s > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wihd_offset_m": 1.0, "seed": 37},
            {"wihd_offset_m": 0.0, "with_wihd": False, "seed": 37 + 89},
        ],
        ids=["point", "baseline"],
    )
    def test_two_seeded_cells_identical(self, kwargs):
        """A campaign row is reproducible from its seed."""
        first = interference_cell(duration_s=0.1, **kwargs)
        assert interference_cell(duration_s=0.1, **kwargs) == first


class TestFigure23ReflectionInterference:
    def test_geometry_direct_blocked_reflection_open(self):
        report = interference_path_report()
        assert report["wihd_direct_db"] <= -150.0
        assert report["wihd_reflected_db"] > -100.0
        assert report["wigig_signal_db"] > -70.0

    def test_shields_block_all_direct_pairs(self):
        from repro.experiments.reflection_interference import (
            DOCK_POS, LAPTOP_POS, WIHD_RX_POS, WIHD_TX_POS,
        )

        room = build_reflector_room()
        for a in (WIHD_TX_POS, WIHD_RX_POS):
            for b in (DOCK_POS, LAPTOP_POS):
                assert not room.path_is_clear(a, b)

    def test_wigig_los_is_clear(self):
        from repro.experiments.reflection_interference import DOCK_POS, LAPTOP_POS

        room = build_reflector_room()
        assert room.path_is_clear(DOCK_POS, LAPTOP_POS)

    @pytest.fixture(scope="class")
    def result(self):
        return run_reflection_interference(duration_s=1.6, wihd_off_at_s=1.2)

    def test_throughput_drop_paper_range(self, result):
        """Paper: ~20% average loss, up to 33%."""
        assert 0.08 < result.throughput_drop < 0.45

    def test_recovery_after_power_off(self, result):
        assert result.mean_without_interference_bps > 850e6

    def test_worst_case_drop_substantial(self, result):
        """Paper: instantaneous drops of almost 300 mbps."""
        assert result.worst_drop_bps > 200e6

    def test_throughput_fluctuates_under_interference(self, result):
        on = result.times_s < result.wihd_off_time_s
        settled = result.times_s > 0.3
        on_std = float(np.std(result.throughput_bps[on & settled]))
        off_std = float(np.std(result.throughput_bps[~on]))
        assert on_std > off_std

    def test_off_instant_validation(self):
        with pytest.raises(ValueError):
            run_reflection_interference(duration_s=1.0, wihd_off_at_s=2.0)


class TestMeanLinkRate:
    def test_constant_mcs_rate(self):
        scen = build_interference_scenario(with_wihd=False, seed=30)
        scen.run(0.1)
        rate = mean_link_rate_bps(scen.link_a, 0.05, 0.1)
        from repro.phy.mcs import mcs_by_index

        assert rate == pytest.approx(mcs_by_index(scen.link_a.mcs.index).phy_rate_bps, rel=0.3)


class TestChannelUtilization:
    def test_bulk_jitter_matches_per_frame_draws(self):
        """One bulk normal draw gives the per-frame loop's answer."""
        scen = build_interference_scenario(wihd_offset_m=1.0)
        scen.run(0.02)
        start, end = 0.004, 0.018

        vubiq = _measurement_receiver()
        rng = np.random.default_rng(17)
        busy = []
        for rec in scen.medium.history:
            if rec.end_s <= start or rec.start_s >= end:
                continue
            device = scen.devices.get(rec.source)
            if device is None:
                continue
            power = vubiq.received_power_dbm(device, rec.kind)
            if power + float(rng.normal(0.0, 2.5)) >= UTILIZATION_THRESHOLD_DBM:
                busy.append(rec)
        expected = medium_usage_from_records(busy, start, end, bridge_gap_s=4e-6)

        assert 0.0 < expected < 1.0
        assert channel_utilization(scen, start, end) == expected
