"""Unit tests for beam codebooks."""

import math

import numpy as np
import pytest

from repro.phy.antenna import PhaseShifterModel, UniformRectangularArray
from repro.phy.codebook import Codebook

FREQ = 60.48e9


@pytest.fixture(scope="module")
def array():
    return UniformRectangularArray(
        2, 8, FREQ, phase_shifter=PhaseShifterModel(2), rng=np.random.default_rng(11)
    )


@pytest.fixture(scope="module")
def codebook(array):
    return Codebook.build(array, sector_width_deg=120.0, num_directional=16, num_quasi_omni=8)


class TestBuild:
    def test_entry_counts(self, codebook):
        assert len(codebook.directional_entries) == 16
        assert codebook.num_discovery_patterns == 8

    def test_directional_span_covers_sector(self, codebook):
        angles = [e.steering_azimuth_rad for e in codebook.directional_entries]
        assert math.degrees(min(angles)) == pytest.approx(-60.0)
        assert math.degrees(max(angles)) == pytest.approx(60.0)

    def test_single_entry_is_broadside(self, array):
        cb = Codebook.build(array, num_directional=1, num_quasi_omni=0)
        assert cb.directional_entries[0].steering_azimuth_rad == 0.0

    def test_invalid_sector(self, array):
        with pytest.raises(ValueError):
            Codebook.build(array, sector_width_deg=0.0)

    def test_quasi_omni_entries_differ(self, codebook):
        a, b = codebook.quasi_omni_entries[:2]
        assert not np.array_equal(a.pattern.gains_dbi, b.pattern.gains_dbi)

    def test_needs_directional_entries(self):
        with pytest.raises(ValueError):
            Codebook([], [])


class TestSelection:
    def test_best_entry_points_near_target(self, codebook):
        target = math.radians(30)
        entry = codebook.best_entry_toward(target)
        # Realized gain toward the target beats the worst entry by a lot.
        gains = [e.pattern.gain_dbi(target) for e in codebook.directional_entries]
        assert entry.pattern.gain_dbi(target) == pytest.approx(max(gains))

    def test_entry_lookup_by_index(self, codebook):
        e = codebook.entry(3)
        assert e.index == 3 and e.kind == "directional"

    def test_entry_lookup_quasi_omni(self, codebook):
        e = codebook.entry(2, kind="quasi_omni")
        assert e.index == 2 and e.kind == "quasi_omni"

    def test_missing_entry_raises(self, codebook):
        with pytest.raises(KeyError):
            codebook.entry(999)

    def test_peak_direction_near_steering(self, codebook):
        # The realized peak of a mid-sector beam stays within ~15 deg of
        # its nominal steering direction despite hardware errors.
        entry = codebook.best_entry_toward(0.0)
        assert abs(math.degrees(entry.peak_direction_rad())) < 20.0
