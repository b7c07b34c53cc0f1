"""Unit tests for the Vubiq measurement receiver model."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.dbmath import power_sum_db
from repro.core.angular import measure_angular_profile
from repro.devices.air3c import make_air3c_transmitter
from repro.devices.rotation import RotationStage
from repro.devices.vubiq import MIN_DETECTABLE_DBM, VubiqReceiver
from repro.geometry.materials import get_material
from repro.geometry.room import Room
from repro.geometry.segments import Segment
from repro.geometry.vec import Vec2
from repro.mac.frames import DISCOVERY_SUBELEMENTS, FrameKind, FrameRecord
from repro.phy.antenna import open_waveguide, standard_horn_25dbi
from repro.phy.raytracing import RayTracer
from repro.phy.signal import received_amplitude_v


def rotated(vubiq, boresight_rad):
    """Copy of a receiver with the horn at an absolute bearing."""
    return VubiqReceiver(
        vubiq.position, boresight_rad, vubiq.antenna, vubiq.budget,
        vubiq.extra_gain_db, vubiq.tracer,
    )


@pytest.fixture()
def receiver(trained_pair):
    dock, laptop = trained_pair
    return VubiqReceiver(
        position=Vec2(1.0, 1.0), antenna=open_waveguide()
    ).pointed_at(laptop.position)


class TestPowerComputation:
    def test_closer_device_stronger(self, trained_pair):
        dock, laptop = trained_pair
        near = VubiqReceiver(Vec2(1.9, 0.2)).pointed_at(laptop.position)
        far = VubiqReceiver(Vec2(1.9, 3.0)).pointed_at(laptop.position)
        assert near.received_power_dbm(laptop) > far.received_power_dbm(laptop)

    def test_extra_gain_shifts_power(self, trained_pair):
        dock, laptop = trained_pair
        base = VubiqReceiver(Vec2(1, 1)).pointed_at(laptop.position)
        boosted = VubiqReceiver(Vec2(1, 1), extra_gain_db=10.0).pointed_at(laptop.position)
        assert boosted.received_power_dbm(laptop) == pytest.approx(
            base.received_power_dbm(laptop) + 10.0
        )

    def test_horn_directivity_matters(self, trained_pair):
        dock, laptop = trained_pair
        aimed = VubiqReceiver(Vec2(1, 1), antenna=standard_horn_25dbi()).pointed_at(
            laptop.position
        )
        away = rotated(aimed, aimed.boresight_rad + math.pi)
        assert aimed.received_power_dbm(laptop) > away.received_power_dbm(laptop) + 20.0

    def test_discovery_subelements_differ(self, trained_pair):
        dock, _ = trained_pair
        v = VubiqReceiver(Vec2(1, 1)).pointed_at(dock.position)
        powers = {
            round(v.received_power_dbm(dock, FrameKind.DISCOVERY, subelement=i), 3)
            for i in range(8)
        }
        assert len(powers) > 3  # different quasi-omni patterns

    def test_ray_tracer_collects_reflections(self, trained_pair):
        dock, laptop = trained_pair
        wall = Segment(Vec2(-5, -1.0), Vec2(8, -1.0), get_material("metal"))
        tracer = RayTracer(Room([wall]), max_order=1)
        base = VubiqReceiver(Vec2(1, 1)).pointed_at(laptop.position)
        with_refl = VubiqReceiver(Vec2(1, 1), tracer=tracer).pointed_at(laptop.position)
        assert with_refl.received_power_dbm(laptop) >= base.received_power_dbm(laptop) - 0.1

    def test_fully_blocked_returns_floor(self, trained_pair):
        dock, laptop = trained_pair
        wall = Segment(Vec2(1.5, -5), Vec2(1.5, 5), get_material("metal"))
        room = Room([wall])
        tracer = RayTracer(room, max_order=0)
        v = VubiqReceiver(Vec2(0.5, 0.5), tracer=tracer).pointed_at(laptop.position)
        assert v.received_power_dbm(laptop) == -300.0
        assert v.received_power_sweep_dbm(laptop, [0.0, 1.0, 2.0]) == [-300.0] * 3


def reference_power_dbm(vubiq, device, kind, subelement=None):
    """The per-orientation power computation the sweep replaced."""
    offset = device.tx_power_for(kind) - vubiq.budget.tx_power_dbm
    if vubiq.tracer is None:
        distance = device.position.distance_to(vubiq.position)
        tx_gain = device.tx_gain_dbi(vubiq.position, kind, subelement)
        bearing = (device.position - vubiq.position).angle()
        rx_gain = vubiq.antenna.gain_toward(bearing - vubiq.boresight_rad)
        power = vubiq.budget.received_power_dbm(distance, tx_gain, rx_gain)
        return power + offset + vubiq.extra_gain_db
    paths = vubiq.tracer.trace(device.position, vubiq.position)
    if not paths:
        return -300.0
    contributions = []
    for path in paths:
        departure = device.position + Vec2.unit(path.departure_angle_rad())
        tx_gain = device.tx_gain_dbi(departure, kind, subelement)
        rx_gain = vubiq.antenna.gain_toward(path.arrival_angle_rad() - vubiq.boresight_rad)
        contributions.append(path.received_power_dbm(vubiq.budget, tx_gain, rx_gain) + offset)
    return power_sum_db(contributions) + vubiq.extra_gain_db


#: A mixed-material room around the trained pair at (0, 0) and (2, 0).
SWEEP_ROOM = Room.rectangular(
    4.0, 3.0, materials=["metal", "glass", "brick", "wood"], origin=Vec2(-1.0, -1.0)
)
SWEEP_BORESIGHTS = list(RotationStage(steps=72).orientations())


class TestPowerSweep:
    """A sweep equals, bit for bit, one rotated receiver per boresight."""

    @settings(max_examples=20, deadline=None)
    @given(
        x=st.floats(-0.8, 2.8),
        y=st.floats(-0.8, 1.8),
        traced=st.booleans(),
        extra_gain_db=st.floats(0.0, 45.0),
        # Sub-elements past the last one wrap around the sweep.
        subelement=st.one_of(st.none(), st.integers(0, 2 * DISCOVERY_SUBELEMENTS)),
    )
    def test_sweep_matches_rotated_receivers(
        self, trained_pair, x, y, traced, extra_gain_db, subelement
    ):
        dock, laptop = trained_pair
        position = Vec2(x, y)
        assume(min(position.distance_to(d.position) for d in trained_pair) > 0.05)
        vubiq = VubiqReceiver(
            position,
            antenna=standard_horn_25dbi(),
            extra_gain_db=extra_gain_db,
            tracer=RayTracer(SWEEP_ROOM, max_order=2) if traced else None,
        )
        cases = [
            (laptop, FrameKind.DATA, None),
            (dock, FrameKind.DISCOVERY, subelement),
            (laptop, FrameKind.DISCOVERY, subelement),
            (dock, FrameKind.BEACON, None),
        ]
        for device, kind, subelement in cases:
            sweep = vubiq.received_power_sweep_dbm(device, SWEEP_BORESIGHTS, kind, subelement)
            receivers = [rotated(vubiq, b) for b in SWEEP_BORESIGHTS]
            assert sweep == [v.received_power_dbm(device, kind, subelement) for v in receivers]
            assert sweep == [reference_power_dbm(v, device, kind, subelement) for v in receivers]

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_boresight_rejected(self, trained_pair, traced, bad):
        dock, laptop = trained_pair
        vubiq = VubiqReceiver(
            Vec2(1.0, 1.0), tracer=RayTracer(SWEEP_ROOM, max_order=1) if traced else None
        )
        with pytest.raises(ValueError, match="finite"):
            vubiq.received_power_sweep_dbm(laptop, [0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            rotated(vubiq, bad).received_power_dbm(laptop)


@pytest.fixture(scope="module")
def third_device():
    """A WiHD transmitter beside the trained pair, facing into the room."""
    return make_air3c_transmitter(position=Vec2(1.0, 1.5), orientation_rad=-math.pi / 2)


class TestAngularProfileDeviceSum:
    """A profile sums the device sweeps per orientation, bit for bit."""

    @settings(max_examples=10, deadline=None)
    @given(x=st.floats(-0.8, 2.8), y=st.floats(-0.8, 1.8), traced=st.booleans())
    def test_matches_per_orientation_power_sum(self, trained_pair, third_device, x, y, traced):
        devices = [*trained_pair, third_device]
        location = Vec2(x, y)
        assume(min(location.distance_to(d.position) for d in devices) > 0.05)
        tracer = RayTracer(SWEEP_ROOM, max_order=2) if traced else None

        def factory(position, boresight):
            return VubiqReceiver(
                position, boresight, antenna=standard_horn_25dbi(), tracer=tracer
            )

        profile = measure_angular_profile(location, devices, factory)
        vubiq = factory(location, SWEEP_BORESIGHTS[0])
        sweeps = [vubiq.received_power_sweep_dbm(d, SWEEP_BORESIGHTS) for d in devices]
        expected = [
            power_sum_db([sweep[i] for sweep in sweeps]) for i in range(len(SWEEP_BORESIGHTS))
        ]
        assert profile.orientations_rad.tolist() == SWEEP_BORESIGHTS
        assert profile.power_dbm.tolist() == expected


class TestEmissionRendering:
    def _records(self, n=3, kind=FrameKind.DATA, source="laptop"):
        return [
            FrameRecord(
                start_s=i * 20e-6, duration_s=10e-6, source=source,
                destination="dock", kind=kind, mcs_index=11,
            )
            for i in range(n)
        ]

    def test_emissions_match_records(self, receiver, trained_pair):
        dock, laptop = trained_pair
        devices = {d.name: d for d in trained_pair}
        recs = self._records()
        ems = receiver.emissions_for(recs, devices)
        assert len(ems) == 3
        for em, rec in zip(ems, recs):
            assert em.start_s == rec.start_s
            assert em.duration_s == rec.duration_s

    def test_emission_powers_match_per_frame_evaluation(self, trained_pair):
        dock, laptop = trained_pair
        devices = {d.name: d for d in trained_pair}
        v = VubiqReceiver(Vec2(1, 1), extra_gain_db=25.0).pointed_at(dock.position)
        recs = self._records() + self._records(source=dock.name) + [
            FrameRecord(1e-3, 1e-3, dock.name, "", FrameKind.DISCOVERY)
        ]
        expected = []
        for rec in recs:
            device = devices[rec.source]
            if rec.kind == FrameKind.DISCOVERY:
                powers = [
                    v.received_power_dbm(device, rec.kind, i)
                    for i in range(DISCOVERY_SUBELEMENTS)
                ]
            else:
                powers = [v.received_power_dbm(device, rec.kind)]
            expected += [received_amplitude_v(p) for p in powers if p >= MIN_DETECTABLE_DBM]
        assert [e.amplitude_v for e in v.emissions_for(recs, devices)] == expected

    def test_unknown_sources_skipped(self, receiver, trained_pair):
        devices = {d.name: d for d in trained_pair}
        recs = self._records(source="wired-host")
        assert receiver.emissions_for(recs, devices) == []

    def test_discovery_expands_to_subelements(self, receiver, trained_pair):
        dock, laptop = trained_pair
        devices = {d.name: d for d in trained_pair}
        rec = FrameRecord(0.0, 1e-3, dock.name, "", FrameKind.DISCOVERY)
        boosted = VubiqReceiver(
            receiver.position, receiver.boresight_rad, receiver.antenna,
            extra_gain_db=20.0,
        )
        ems = boosted.emissions_for([rec], devices)
        # Most sub-elements should be visible; all share the frame span.
        assert len(ems) > DISCOVERY_SUBELEMENTS // 2
        assert min(e.start_s for e in ems) >= 0.0
        assert max(e.end_s for e in ems) <= 1e-3 + 1e-9

    def test_subelement_amplitudes_vary(self, trained_pair):
        dock, laptop = trained_pair
        devices = {d.name: d for d in trained_pair}
        rec = FrameRecord(0.0, 1e-3, dock.name, "", FrameKind.DISCOVERY)
        v = VubiqReceiver(Vec2(1, 1), extra_gain_db=25.0).pointed_at(dock.position)
        ems = v.emissions_for([rec], devices)
        amps = [e.amplitude_v for e in ems]
        assert max(amps) / min(amps) > 1.5

    def test_weak_frames_dropped(self, trained_pair):
        dock, laptop = trained_pair
        devices = {d.name: d for d in trained_pair}
        v = VubiqReceiver(Vec2(500.0, 500.0))  # hundreds of meters away
        assert v.emissions_for(self._records(), devices) == []

    def test_capture_produces_trace(self, receiver, trained_pair):
        devices = {d.name: d for d in trained_pair}
        v = VubiqReceiver(
            receiver.position, receiver.boresight_rad, receiver.antenna,
            extra_gain_db=30.0,
        )
        trace = v.capture(
            self._records(), devices, duration_s=100e-6,
            rng=np.random.default_rng(0),
        )
        assert trace.duration_s == pytest.approx(100e-6)
        # Frames visible above the noise.
        assert trace.samples.max() > 5 * np.median(trace.samples)
