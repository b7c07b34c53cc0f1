"""Unit tests for device models (D5000, E7440, Air-3c, RadioDevice)."""

import math

import numpy as np
import pytest

from repro.devices import clear_unit_cache
from repro.devices.air3c import make_air3c_receiver, make_air3c_transmitter
from repro.devices.d5000 import (
    D5000_DISCOVERY_PATTERNS,
    make_d5000_dock,
    make_e7440_laptop,
)
from repro.geometry.vec import Vec2
from repro.mac.frames import FrameKind


class TestD5000:
    def test_dock_has_32_discovery_patterns(self, dock):
        assert len(dock.codebook.quasi_omni_entries) == D5000_DISCOVERY_PATTERNS

    def test_dock_has_2x8_array(self, dock):
        assert dock.array.num_elements == 16

    def test_codebook_sector_is_120deg(self, dock):
        angles = [e.steering_azimuth_rad for e in dock.codebook.directional_entries]
        assert math.degrees(max(angles) - min(angles)) == pytest.approx(120.0)

    def test_reproducible_per_seed(self):
        a = make_d5000_dock(unit_seed=5)
        b = make_d5000_dock(unit_seed=5)
        assert np.array_equal(
            a.active_beam.pattern.gains_dbi, b.active_beam.pattern.gains_dbi
        )

    def test_different_units_differ(self):
        a = make_d5000_dock(unit_seed=5)
        b = make_d5000_dock(unit_seed=6)
        assert not np.array_equal(
            a.active_beam.pattern.gains_dbi, b.active_beam.pattern.gains_dbi
        )

    def test_laptop_pattern_less_clean(self, dock, laptop):
        # Lid placement: the laptop's aligned side lobes are stronger.
        assert (
            laptop.active_beam.pattern.side_lobe_level_db()
            > dock.active_beam.pattern.side_lobe_level_db() - 0.5
        )


class TestAir3c:
    def test_24_elements(self, wihd_pair):
        tx, rx = wihd_pair
        assert tx.array.num_elements == 24

    def test_wider_than_d5000(self, dock, wihd_pair):
        """The WiHD system radiates much wider patterns (Section 3.2)."""
        tx, _ = wihd_pair
        assert (
            tx.active_beam.pattern.half_power_beam_width_deg()
            > dock.active_beam.pattern.half_power_beam_width_deg() + 3.0
        )

    def test_higher_tx_power(self, dock, wihd_pair):
        tx, _ = wihd_pair
        assert tx.tx_power_dbm > dock.tx_power_dbm


class TestRadioDevice:
    def test_bearing_accounts_for_orientation(self):
        dev = make_d5000_dock(position=Vec2(0, 0), orientation_rad=math.pi / 2)
        bearing = dev.bearing_to(Vec2(0, 5))  # straight up = broadside
        assert bearing == pytest.approx(0.0, abs=1e-9)

    def test_train_toward_picks_best_gain(self):
        dev = make_d5000_dock()
        target = Vec2.from_polar(3.0, math.radians(40))
        entry = dev.train_toward(target)
        bearing = dev.bearing_to(target)
        gains = [e.pattern.gain_dbi(bearing) for e in dev.codebook.directional_entries]
        assert entry.pattern.gain_dbi(bearing) == pytest.approx(max(gains))

    def test_train_beyond_sector_edge_picks_boundary_beam(self):
        # 70 degrees is outside the densest codebook coverage but still
        # reachable by the +60-degree boundary beam's main lobe.
        dev = make_d5000_dock()
        entry = dev.train_toward(Vec2.from_polar(3.0, math.radians(70)))
        assert math.degrees(entry.steering_azimuth_rad) > 40.0

    def test_select_beam_rejects_quasi_omni(self):
        dev = make_d5000_dock()
        with pytest.raises(ValueError):
            dev.select_beam(dev.codebook.quasi_omni_entries[0])

    def test_discovery_uses_subelement_pattern(self):
        dev = make_d5000_dock()
        p0 = dev.pattern_for_kind(FrameKind.DISCOVERY, subelement=0)
        p1 = dev.pattern_for_kind(FrameKind.DISCOVERY, subelement=1)
        assert not np.array_equal(p0.gains_dbi, p1.gains_dbi)

    def test_subelement_wraps_modulo(self):
        dev = make_d5000_dock()
        p = dev.pattern_for_kind(FrameKind.DISCOVERY, subelement=0)
        q = dev.pattern_for_kind(FrameKind.DISCOVERY, subelement=32)
        assert np.array_equal(p.gains_dbi, q.gains_dbi)

    def test_data_frames_use_active_beam(self):
        dev = make_d5000_dock()
        assert dev.pattern_for_kind(FrameKind.DATA) is dev.active_beam.pattern
        assert dev.pattern_for_kind(FrameKind.ACK) is dev.active_beam.pattern

    def test_beacons_use_control_pattern(self):
        dev = make_d5000_dock()
        assert dev.pattern_for_kind(FrameKind.BEACON) is not dev.active_beam.pattern

    def test_tx_power_boost_for_beacons_only(self):
        dev = make_d5000_dock()
        assert dev.tx_power_for(FrameKind.BEACON) == dev.tx_power_dbm + dev.control_power_boost_db
        assert dev.tx_power_for(FrameKind.RTS) == dev.tx_power_dbm

    def test_make_station_snapshots_beam(self):
        dev = make_d5000_dock(position=Vec2(0, 0), orientation_rad=0.0)
        dev.train_toward(Vec2(3, 0))
        station = dev.make_station()
        assert station.name == dev.name
        assert station.data_pattern is dev.active_beam.pattern
        assert station.cca_threshold_dbm == dev.cca_threshold_dbm

    def test_tx_gain_toward_global_point(self):
        dev = make_d5000_dock(position=Vec2(0, 0), orientation_rad=0.0)
        dev.train_toward(Vec2(3, 0))
        ahead = dev.tx_gain_dbi(Vec2(3, 0))
        behind = dev.tx_gain_dbi(Vec2(-3, 0))
        assert ahead > behind + 10.0


FACTORIES = (make_d5000_dock, make_e7440_laptop, make_air3c_transmitter, make_air3c_receiver)


def _pattern_bytes(device):
    entries = device.codebook.directional_entries + device.codebook.quasi_omni_entries
    return [e.pattern.gains_dbi.tobytes() for e in entries]


class TestUnitCache:
    """Each unit's array + codebook is built once per process and shared."""

    @pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
    def test_cached_build_equals_fresh_build(self, factory):
        factory()
        cached = factory()
        clear_unit_cache()
        fresh = factory()
        assert fresh.codebook is not cached.codebook
        assert _pattern_bytes(cached) == _pattern_bytes(fresh)

    def test_mountings_do_not_share_a_unit(self):
        dock = make_d5000_dock(unit_seed=21)
        laptop = make_e7440_laptop(unit_seed=21)
        assert dock.codebook is not laptop.codebook
        assert _pattern_bytes(dock) != _pattern_bytes(laptop)

    def test_devices_share_codebook_but_not_beam_or_pose(self):
        a = make_d5000_dock(name="a")
        b = make_d5000_dock(name="b", position=Vec2(1.0, 2.0))
        assert a.codebook is b.codebook and a.array is b.array
        beam_before = b.active_beam
        a.train_toward(Vec2(0.0, 5.0))  # +90 degrees
        assert a.active_beam is not beam_before
        assert b.active_beam is beam_before
        assert b.name == "b"
        assert b.position == Vec2(1.0, 2.0)
        assert b.orientation_rad == 0.0

    def test_shared_arrays_are_read_only(self, dock):
        with pytest.raises(ValueError):
            dock.active_beam.pattern._gain[0] = 0.0
        with pytest.raises(ValueError):
            dock.array._phase_errors[0] = 0.0

    def test_codebook_entries_are_frozen(self, dock):
        with pytest.raises(AttributeError):
            dock.active_beam.index = 0

    def test_public_accessors_return_writable_copies(self, dock):
        pattern = dock.active_beam.pattern
        gains = pattern.gains_dbi
        azimuths = pattern.azimuths
        gains[0] = azimuths[0] = 99.0
        assert pattern.gains_dbi[0] != 99.0
        assert pattern.azimuths[0] != 99.0
