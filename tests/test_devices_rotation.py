"""Tests for the rotation stage and semicircle placement helpers."""

import math

import numpy as np
import pytest

from repro.devices.rotation import RotationStage, semicircle_positions
from repro.geometry.vec import Vec2
from repro.phy.mcs import OFDM_MCS_TABLE, mcs_by_index


class TestRotationStage:
    def test_step_count(self):
        stage = RotationStage(steps=36)
        assert len(list(stage.orientations())) == 36

    def test_uniform_spacing(self):
        stage = RotationStage(steps=72)
        angles = list(stage.orientations())
        gaps = np.diff(angles)
        assert np.allclose(gaps, 2 * math.pi / 72)

    def test_start_angle(self):
        stage = RotationStage(steps=8, start_rad=1.0)
        assert next(iter(stage.orientations())) == pytest.approx(1.0)

    def test_backlash_perturbs(self):
        ideal = list(RotationStage(steps=36).orientations())
        noisy = list(RotationStage(steps=36, backlash_std_rad=0.01, seed=1).orientations())
        assert not np.allclose(ideal, noisy)
        assert np.allclose(ideal, noisy, atol=0.05)

    def test_sweep_calls_measure_per_step(self):
        stage = RotationStage(steps=12)
        seen = []

        def measure(angle):
            seen.append(angle)
            return -50.0

        result = stage.sweep(measure)
        assert len(result) == 12
        assert len(seen) == 12
        assert all(power == -50.0 for _, power in result)

    def test_validation(self):
        with pytest.raises(ValueError):
            RotationStage(steps=2)
        with pytest.raises(ValueError):
            RotationStage(backlash_std_rad=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, bad):
        with pytest.raises(ValueError, match="start_rad"):
            RotationStage(start_rad=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_backlash_rejected(self, bad):
        with pytest.raises(ValueError, match="backlash"):
            RotationStage(backlash_std_rad=bad)


class TestSemicirclePositions:
    def test_count_and_radius(self):
        center = Vec2(1.0, 2.0)
        points = semicircle_positions(center, radius_m=3.2, count=100)
        assert len(points) == 100
        for pos, _bearing in points:
            assert pos.distance_to(center) == pytest.approx(3.2)

    def test_span_is_half_circle(self):
        points = semicircle_positions(Vec2(0, 0), count=50, facing_rad=0.0)
        bearings = [b for _, b in points]
        assert bearings[0] == pytest.approx(-math.pi / 2)
        assert bearings[-1] == pytest.approx(math.pi / 2)

    def test_facing_recenters_arc(self):
        points = semicircle_positions(Vec2(0, 0), count=11, facing_rad=math.pi / 2)
        mid_pos, mid_bearing = points[5]
        assert mid_bearing == pytest.approx(math.pi / 2)
        assert mid_pos.y > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            semicircle_positions(Vec2(0, 0), count=1)
        with pytest.raises(ValueError):
            semicircle_positions(Vec2(0, 0), radius_m=0.0)


class TestOfdmTable:
    def test_twelve_ofdm_entries(self):
        assert len(OFDM_MCS_TABLE) == 12
        assert OFDM_MCS_TABLE[0].index == 13
        assert OFDM_MCS_TABLE[-1].index == 24

    def test_peak_rate(self):
        assert OFDM_MCS_TABLE[-1].phy_rate_gbps == pytest.approx(6.75675)

    def test_rates_and_thresholds_monotone(self):
        rates = [m.phy_rate_bps for m in OFDM_MCS_TABLE]
        thresholds = [m.min_snr_db for m in OFDM_MCS_TABLE]
        assert rates == sorted(rates)
        assert thresholds == sorted(thresholds)

    def test_lookup_by_index_spans_both_tables(self):
        assert mcs_by_index(11).modulation == "16-QAM"
        assert mcs_by_index(24).modulation == "64-QAM"
        with pytest.raises(KeyError):
            mcs_by_index(25)
