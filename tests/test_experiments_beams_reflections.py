"""Integration tests for the beam-pattern and reflection experiments."""

import math

import numpy as np
import pytest

from repro import obs
from repro.experiments.beam_patterns import (
    PatternMetrics,
    measure_discovery_patterns,
    measure_dock_pattern,
    measure_dock_rotated_pattern,
    measure_laptop_pattern,
)
from repro.experiments.reflections import (
    LOCATION_LABELS,
    compare_systems,
    measure_room_profiles,
)
from repro.experiments.reflection_range import (
    build_reflection_room,
    measure_dock_angular_profile,
    run_nlos_throughput,
)


class TestFigure17Directional:
    @pytest.fixture(scope="class")
    def dock_pattern(self):
        return measure_dock_pattern(0.0, positions=80)

    @pytest.fixture(scope="class")
    def rotated_pattern(self):
        return measure_dock_rotated_pattern(positions=80)

    def test_dock_hpbw_below_20(self, dock_pattern):
        assert dock_pattern.as_pattern().half_power_beam_width_deg() < 20.0

    def test_dock_side_lobes_paper_range(self, dock_pattern):
        sll = dock_pattern.as_pattern().side_lobe_level_db()
        assert -9.0 < sll < -2.5  # paper: -4..-6 dB

    def test_rotated_side_lobes_stronger(self, dock_pattern, rotated_pattern):
        aligned = dock_pattern.as_pattern().side_lobe_level_db()
        rotated = rotated_pattern.as_pattern().side_lobe_level_db()
        assert rotated > aligned + 1.5
        assert rotated > -3.6  # paper: up to -1 dB

    def test_laptop_pattern_measured(self):
        m = measure_laptop_pattern(positions=60)
        p = m.as_pattern()
        assert p.half_power_beam_width_deg() < 25.0
        assert p.side_lobe_level_db() > -9.0

    def test_metrics_rows(self, dock_pattern):
        row = PatternMetrics.from_measurement("dock", dock_pattern)
        assert "HPBW" in row.row()


class TestFigure16QuasiOmni:
    def test_patterns_are_wide_with_gaps(self):
        measured = measure_discovery_patterns(count=4, positions=50)
        assert len(measured) == 4
        hpbws = [m.as_pattern().half_power_beam_width_deg() for m in measured]
        # Wider than data beams; the paper quotes up to 60 degrees.
        assert max(hpbws) > 20.0
        for m in measured:
            # Deep gaps within the measured arc.
            span = float(m.power_dbm.max() - m.power_dbm.min())
            assert span > 6.0

    def test_subelements_differ(self):
        a, b = measure_discovery_patterns(count=2, positions=50)
        assert not np.allclose(a.power_dbm, b.power_dbm)


class TestFigures18and19Reflections:
    @pytest.fixture(scope="class")
    def both(self):
        return compare_systems(steps=60)

    def test_profiles_at_all_six_locations(self, both):
        d5000, wihd = both
        assert set(d5000.profiles) == set(LOCATION_LABELS)
        assert set(wihd.profiles) == set(LOCATION_LABELS)

    def test_reflection_lobes_exist(self, both):
        d5000, wihd = both
        assert d5000.total_reflection_lobes() >= 1
        assert wihd.total_reflection_lobes() >= 2

    def test_wihd_shows_stronger_reflections(self, both):
        """The paper's key comparative finding (Figure 19 vs 18): the
        WiHD profiles feature *more and larger* lobes."""
        d5000, wihd = both
        assert wihd.strong_reflection_lobes(-12.0) > d5000.strong_reflection_lobes(-12.0)
        assert wihd.strongest_reflection_db() > d5000.strongest_reflection_db()

    def test_most_locations_see_both_endpoints(self, both):
        d5000, _ = both
        covered = 0
        for lobes in d5000.lobes.values():
            attributions = {l.attribution for l in lobes}
            if {"tx", "rx"} & attributions:
                covered += 1
        assert covered >= 4

    def test_first_order_only_reduces_lobes(self):
        full = measure_room_profiles("d5000", steps=48, max_order=2)
        reduced = measure_room_profiles("d5000", steps=48, max_order=1)
        assert reduced.total_reflection_lobes() <= full.total_reflection_lobes()

    def test_each_transmitter_traced_once_per_location(self):
        obs.reset()
        obs.enable(metrics=True)
        try:
            measure_room_profiles("d5000", steps=72)
            snap = obs.metrics_snapshot()
        finally:
            obs.disable()
            obs.reset()
        # Two devices at the paper's six locations; not one per step.
        assert snap["counters"]["phy.raytracing.traces"] == 2 * len(LOCATION_LABELS)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            measure_room_profiles("wifi")


class TestFigure20NlosLink:
    @pytest.fixture(scope="class")
    def result(self):
        return run_nlos_throughput(duration_s=0.24, intervals=4)

    def test_los_is_blocked(self, result):
        assert result.los_blocked

    def test_energy_arrives_from_wall(self, result):
        # The strongest lobe points into the lower half-plane (the wall
        # is at y = -1 relative to the dock).
        strongest = max(result.lobes, key=lambda l: l.power_dbm)
        assert math.sin(strongest.bearing_rad) < 0

    def test_nlos_throughput_over_half_of_los(self, result):
        """Paper: 550 Mbps, 'more than half' of the LOS value."""
        assert result.nlos_over_los > 0.45
        assert result.nlos_throughput.mean > 300e6

    def test_confidence_interval_is_tight(self, result):
        assert result.nlos_throughput.half_width < 0.2 * result.nlos_throughput.mean

    def test_unblocked_room_has_los(self):
        profile = measure_dock_angular_profile(
            build_reflection_room(blocked=False), steps=60
        )
        from repro.core.angular import classify_lobes, find_lobes
        from repro.experiments.reflection_range import DOCK_POSITION, LAPTOP_POSITION

        lobes = classify_lobes(
            find_lobes(profile), DOCK_POSITION, {"laptop": LAPTOP_POSITION}
        )
        assert any(l.attribution == "laptop" for l in lobes)
