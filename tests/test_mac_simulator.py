"""Unit tests for the discrete-event simulator core and medium."""

import math

import numpy as np
import pytest

from repro.core.spatial import Link, apply_power_control
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.geometry.vec import Vec2
from repro.mac.beam_training import SectorSweepTrainer
from repro.mac.coupling import DeviceCoupling
from repro.mac.frames import FrameKind, FrameRecord
from repro.mac.simulator import (
    FreeSpaceCoupling,
    Medium,
    Simulator,
    Station,
    StaticCoupling,
)
from repro.mobility.station import MobileStation, RetrainConfig, sync_station
from repro.mobility.trajectory import LinearTrajectory
from repro.phy.channel import SIXTY_GHZ, LinkBudget


def make_pair(coupling_db_value=-40.0):
    sim = Simulator(seed=1)
    coupling = StaticCoupling({
        ("a", "b"): coupling_db_value,
        ("b", "a"): coupling_db_value,
    })
    medium = Medium(sim, coupling)
    a = Station("a", Vec2(0, 0))
    b = Station("b", Vec2(2, 0))
    medium.register(a)
    medium.register(b)
    return sim, medium, a, b


def data_frame(src="a", dst="b", start=0.0, duration=10e-6, mcs=8):
    return FrameRecord(
        start_s=start, duration_s=duration, source=src, destination=dst,
        kind=FrameKind.DATA, mcs_index=mcs,
    )


class TestFrameRecordValidation:
    @pytest.mark.parametrize("duration", [0.0, -1e-6, math.nan])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="frame duration must be positive"):
            data_frame(duration=duration)

    @pytest.mark.parametrize("start", [-1e-6, math.nan])
    def test_bad_start_rejected(self, start):
        with pytest.raises(ValueError, match="frame start must be non-negative"):
            data_frame(start=start)


class TestSimulator:
    def test_events_in_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.run_until(3.0)
        assert log == ["a", "b"]

    def test_time_advances_to_end(self):
        sim = Simulator()
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run_until(2.0)
        assert log == [1, 2]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        # Regression: NaN compares False against 0, so a NaN timestamp
        # used to slip into the heap and poison ordering of every later
        # event.  It must be rejected up front, like inf.
        with pytest.raises(ValueError, match="non-finite"):
            Simulator().schedule(float("nan"), lambda: None)

    def test_inf_delay_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Simulator().schedule(float("inf"), lambda: None)
        with pytest.raises(ValueError, match="non-finite"):
            Simulator().schedule(float("-inf"), lambda: None)

    def test_events_beyond_horizon_wait(self):
        sim = Simulator()
        log = []
        sim.schedule(10.0, lambda: log.append("late"))
        sim.run_until(5.0)
        assert log == []
        sim.run_until(20.0)
        assert log == ["late"]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run_until(5.0)
        assert log == [("outer", 1.0), ("inner", 2.0)]


class TestStation:
    def test_duplicate_name_rejected(self):
        sim = Simulator()
        medium = Medium(sim, StaticCoupling({}))
        medium.register(Station("x", Vec2(0, 0)))
        with pytest.raises(ValueError):
            medium.register(Station("x", Vec2(1, 1)))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Station("", Vec2(0, 0))

    def test_control_power_boost_for_wide_pattern_frames(self):
        st = Station("s", Vec2(0, 0), tx_power_dbm=10.0, control_power_boost_db=5.0)
        assert st.tx_power_for(FrameKind.BEACON) == 15.0
        assert st.tx_power_for(FrameKind.DATA) == 10.0
        assert st.tx_power_for(FrameKind.RTS) == 10.0  # trained beam, no boost

    def test_gain_toward_uses_orientation(self):
        # A directional-ish pattern: horn for simplicity.
        from repro.phy.antenna import HornAntenna

        st = Station("s", Vec2(0, 0), orientation_rad=0.0,
                     data_pattern=HornAntenna(20.0, hpbw_deg=20.0).pattern())
        ahead = st.gain_toward_dbi(Vec2(1, 0))
        side = st.gain_toward_dbi(Vec2(0, 1))
        assert ahead > side + 10.0


class TestDelivery:
    def test_clean_frame_delivered(self):
        sim, medium, a, b = make_pair(coupling_db_value=-40.0)
        results = []
        medium.transmit(data_frame(), on_complete=lambda r, ok: results.append(ok))
        sim.run_until(1.0)
        assert results == [True]

    def test_weak_frame_lost(self):
        sim, medium, a, b = make_pair(coupling_db_value=-120.0)
        results = []
        medium.transmit(data_frame(), on_complete=lambda r, ok: results.append(ok))
        sim.run_until(1.0)
        assert results == [False]

    def test_broadcast_completes_without_verdict(self):
        sim, medium, a, b = make_pair()
        results = []
        beacon = FrameRecord(0.0, 5e-6, "a", "", FrameKind.BEACON)
        medium.transmit(beacon, on_complete=lambda r, ok: results.append(r.delivered))
        sim.run_until(1.0)
        assert results == [None]

    def test_history_captured(self):
        sim, medium, a, b = make_pair()
        medium.transmit(data_frame())
        sim.run_until(1.0)
        assert len(medium.history) == 1

    def test_history_can_be_disabled(self):
        sim = Simulator()
        medium = Medium(sim, StaticCoupling({("a", "b"): -40.0}), capture_history=False)
        medium.register(Station("a", Vec2(0, 0)))
        medium.register(Station("b", Vec2(1, 0)))
        medium.transmit(data_frame())
        sim.run_until(1.0)
        assert medium.history == []


class TestCollisions:
    def test_strong_interferer_corrupts_frame(self):
        sim = Simulator(seed=2)
        coupling = StaticCoupling({
            ("a", "b"): -40.0,   # signal
            ("c", "b"): -42.0,   # interference nearly as strong
        })
        medium = Medium(sim, coupling)
        for name in "abc":
            medium.register(Station(name, Vec2(ord(name) - 97, 0)))
        results = []
        medium.transmit(data_frame("a", "b", mcs=11),
                        on_complete=lambda r, ok: results.append(ok))
        # Interfering broadcast overlapping the whole frame.
        medium.transmit(FrameRecord(0.0, 10e-6, "c", "", FrameKind.DATA, mcs_index=9))
        sim.run_until(1.0)
        assert results == [False]

    def test_weak_interferer_harmless(self):
        sim = Simulator(seed=3)
        coupling = StaticCoupling({
            ("a", "b"): -40.0,
            ("c", "b"): -110.0,
        })
        medium = Medium(sim, coupling)
        for name in "abc":
            medium.register(Station(name, Vec2(ord(name) - 97, 0)))
        results = []
        medium.transmit(data_frame("a", "b", mcs=11),
                        on_complete=lambda r, ok: results.append(ok))
        medium.transmit(FrameRecord(0.0, 10e-6, "c", "", FrameKind.DATA))
        sim.run_until(1.0)
        assert results == [True]

    def test_later_interferer_still_corrupts(self):
        """Worst-SINR semantics: a collision midway kills the frame."""
        sim = Simulator(seed=4)
        coupling = StaticCoupling({
            ("a", "b"): -40.0,
            ("c", "b"): -41.0,
        })
        medium = Medium(sim, coupling)
        for name in "abc":
            medium.register(Station(name, Vec2(ord(name) - 97, 0)))
        results = []
        medium.transmit(data_frame("a", "b", duration=20e-6, mcs=11),
                        on_complete=lambda r, ok: results.append(ok))
        sim.schedule(10e-6, lambda: medium.transmit(
            FrameRecord(sim.now, 5e-6, "c", "", FrameKind.DATA)))
        sim.run_until(1.0)
        assert results == [False]


class TestCarrierSense:
    def test_idle_channel_not_busy(self):
        sim, medium, a, b = make_pair()
        assert not medium.channel_busy_for(a)

    def test_active_transmission_sensed(self):
        sim, medium, a, b = make_pair(coupling_db_value=-40.0)
        a.cca_threshold_dbm = -60.0
        b.cca_threshold_dbm = -60.0
        medium.transmit(data_frame("a", "b"))
        # While the frame is in flight, b senses energy (-30 dBm > -60).
        assert medium.channel_busy_for(b)
        sim.run_until(1.0)
        assert not medium.channel_busy_for(b)

    def test_own_transmission_not_sensed(self):
        sim, medium, a, b = make_pair()
        medium.transmit(data_frame("a", "b"))
        assert medium.sensed_power_dbm(a) == -300.0

    def test_wait_for_idle_fires_after_frame(self):
        sim, medium, a, b = make_pair()
        b.cca_threshold_dbm = -60.0
        fired = []
        medium.transmit(data_frame("a", "b", duration=50e-6))
        medium.wait_for_idle(b, lambda: fired.append(sim.now))
        sim.run_until(1.0)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(50e-6, abs=1e-9)

    def test_wait_for_idle_immediate_when_clear(self):
        sim, medium, a, b = make_pair()
        fired = []
        medium.wait_for_idle(a, lambda: fired.append(sim.now))
        sim.run_until(1.0)
        assert fired == [0.0]


class TestFreeSpaceCoupling:
    def test_reciprocity_for_identical_patterns(self):
        a = Station("a", Vec2(0, 0))
        b = Station("b", Vec2(3, 0))
        c = FreeSpaceCoupling(SIXTY_GHZ)
        assert c.coupling_db(a, b) == pytest.approx(c.coupling_db(b, a))

    def test_colocated_rejected(self):
        a = Station("a", Vec2(0, 0))
        b = Station("b", Vec2(0, 0))
        with pytest.raises(ValueError):
            FreeSpaceCoupling(SIXTY_GHZ).coupling_db(a, b)

    def test_distance_monotone(self):
        a = Station("a", Vec2(0, 0))
        near = Station("n", Vec2(1, 0))
        far = Station("f", Vec2(10, 0))
        c = FreeSpaceCoupling(SIXTY_GHZ)
        assert c.coupling_db(a, near) > c.coupling_db(a, far)


def send_and_sense(sim, medium, src, dst, mcs=8):
    """Put one data frame on the air; return (power ``dst`` senses
    while it is on the air, whether it was delivered)."""
    outcome = []
    medium.transmit(
        FrameRecord(start_s=sim.now, duration_s=10e-6, source=src.name,
                    destination=dst.name, kind=FrameKind.DATA, mcs_index=mcs),
        on_complete=lambda record, delivered: outcome.append(delivered),
    )
    sensed = medium.sensed_power_dbm(dst)
    sim.run_until(sim.now + 20e-6)
    return sensed, outcome[0]


def dock_and_laptop(distance_m=2.0):
    """A D5000 dock at the origin and its laptop ``distance_m`` up +y,
    trained toward each other, on a device-coupled medium."""
    budget = LinkBudget()
    dock = make_d5000_dock(name="dock", position=Vec2(0.0, 0.0),
                           orientation_rad=math.pi / 2.0)
    laptop = make_e7440_laptop(name="laptop", position=Vec2(0.0, distance_m),
                               orientation_rad=-math.pi / 2.0, unit_seed=21)
    dock.train_toward(laptop.position)
    laptop.train_toward(dock.position)
    sim = Simulator(seed=3)
    coupling = DeviceCoupling({"dock": dock, "laptop": laptop}, budget=budget)
    medium = Medium(sim, coupling, budget=budget)
    stations = {d.name: d.make_station() for d in (dock, laptop)}
    for station in stations.values():
        medium.register(station)
    return sim, medium, coupling, dock, laptop, stations


class TestLinkPowerMemo:
    """The medium memoizes link powers; every way a coupling or a power
    changes mid-run must reach the next frame."""

    def test_static_coupling_set(self):
        sim, medium, a, b = make_pair(coupling_db_value=-40.0)
        assert send_and_sense(sim, medium, a, b) == (pytest.approx(-30.0), True)
        medium.coupling.set("a", "b", -150.0)
        assert send_and_sense(sim, medium, a, b) == (pytest.approx(-140.0), False)

    def test_device_coupling_invalidated_by_mobile_station_move(self):
        sim, medium, coupling, dock, laptop, stations = dock_and_laptop()
        # Two kilometers within the first 5 ms position update.
        mobile = MobileStation(
            sim=sim, medium=medium, coupling=coupling, device=laptop,
            station=stations["laptop"],
            trajectory=LinearTrajectory(Vec2(0.0, 2.0), Vec2(0.0, 4.0e5)),
            peer_device=dock, peer_station=stations["dock"],
            trainer=SectorSweepTrainer(rng=np.random.default_rng(1)),
            config=RetrainConfig(snr_drop_db=None, misalignment_rad=None),
        )
        mobile.start()
        near = stations["laptop"].tx_power_dbm + coupling.coupling_db(
            stations["laptop"], stations["dock"])
        sensed, delivered = send_and_sense(
            sim, medium, stations["laptop"], stations["dock"], mcs=1)
        assert (sensed, delivered) == (pytest.approx(near), True)

        sim.run_until(6e-3)
        assert mobile.stats.position_updates == 2
        far = stations["laptop"].tx_power_dbm + coupling.coupling_db(
            stations["laptop"], stations["dock"])
        assert far < near - 50.0
        sensed, delivered = send_and_sense(
            sim, medium, stations["laptop"], stations["dock"], mcs=1)
        assert (sensed, delivered) == (pytest.approx(far), False)

    def test_apply_power_control(self):
        sim, medium, coupling, dock, laptop, stations = dock_and_laptop()
        sensed, delivered = send_and_sense(
            sim, medium, stations["laptop"], stations["dock"], mcs=12)
        assert delivered
        chosen = apply_power_control([Link(tx=laptop, rx=dock)], coupling,
                                     target_snr_db=1.0)
        assert chosen == {"laptop": -10.0}
        sync_station(laptop, stations["laptop"])
        quiet, delivered = send_and_sense(
            sim, medium, stations["laptop"], stations["dock"], mcs=12)
        assert quiet == pytest.approx(sensed - 20.0)
        assert not delivered

    def test_free_space_station_moved_by_sync_station(self):
        sim = Simulator(seed=1)
        medium = Medium(sim, FreeSpaceCoupling(60.48e9))
        laptop = make_e7440_laptop(name="laptop", position=Vec2(0.5, 0.0))
        a = laptop.make_station()
        b = Station("b", Vec2(0.0, 0.0))
        medium.register(a)
        medium.register(b)
        near, delivered = send_and_sense(sim, medium, a, b, mcs=1)
        assert delivered
        laptop.position = Vec2(2000.0, 0.0)
        sync_station(laptop, a)
        far, delivered = send_and_sense(sim, medium, a, b, mcs=1)
        assert far == pytest.approx(
            a.tx_power_dbm + medium.coupling.coupling_db(a, b))
        assert far < near - 60.0
        assert not delivered


class TestActiveFrames:
    def test_finished_frame_leaves_by_identity(self):
        # A twin with equal fields sits ahead of the real frame; the
        # frame-end event must remove its own frame, not the twin.
        sim, medium, a, b = make_pair()
        record = data_frame()
        medium.transmit(record)
        twin = Medium._ActiveTransmission(medium, record, a, b)
        medium._active.insert(0, twin)
        sim.run_until(record.end_s)
        assert len(medium._active) == 1
        assert medium._active[0] is twin
