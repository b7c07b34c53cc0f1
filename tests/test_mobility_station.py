"""MobileStation: motion on the DES clock, re-training, edge cases."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.experiments.mobility import build_vehicular_scenario, run_vehicle_pass
from repro.geometry.vec import Vec2
from repro.mac.beam_training import SectorSweepTrainer
from repro.mac.coupling import DeviceCoupling
from repro.mac.frames import FrameKind, FrameRecord
from repro.mac.simulator import Medium, Simulator
from repro.mobility.station import (
    MobileStation,
    RetrainConfig,
    sync_station,
)
from repro.mobility.trajectory import LinearTrajectory, Trajectory
from repro.phy.channel import LinkBudget


def build_mobile(
    trajectory,
    config=None,
    extra_devices=(),
    seed=0,
    update_interval_s=5e-3,
):
    """A roadside dock at the origin facing +y and a mobile client."""
    budget = LinkBudget()
    rsu = make_d5000_dock(
        name="rsu", position=Vec2(0.0, 0.0), orientation_rad=math.pi / 2.0
    )
    client = make_e7440_laptop(
        name="client",
        position=trajectory.position(0.0),
        orientation_rad=-math.pi / 2.0,
        unit_seed=21,
    )
    devices = {d.name: d for d in (rsu, client) + tuple(extra_devices)}
    sim = Simulator(seed=seed)
    coupling = DeviceCoupling(devices, budget=budget)
    medium = Medium(sim, coupling, budget=budget)
    stations = {}
    for name in sorted(devices):
        stations[name] = devices[name].make_station()
        medium.register(stations[name])
    trainer = SectorSweepTrainer(budget=budget, rng=np.random.default_rng(1))
    mobile = MobileStation(
        sim=sim,
        medium=medium,
        coupling=coupling,
        device=client,
        station=stations["client"],
        trajectory=trajectory,
        peer_device=rsu,
        peer_station=stations["rsu"],
        trainer=trainer,
        update_interval_s=update_interval_s,
        config=config or RetrainConfig(),
    )
    return SimpleNamespace(
        sim=sim,
        medium=medium,
        coupling=coupling,
        rsu=rsu,
        client=client,
        mobile=mobile,
        stations=stations,
    )


def stationary_at(point):
    return LinearTrajectory(point, Vec2(0.0, 0.0))


def retrain_now(mobile):
    """Re-train with the serving AP right now (a same-AP handover)."""
    return mobile.set_peer(mobile.peer_device, mobile.peer_station)


class TestConfigValidation:
    def test_negative_timing_rejected(self):
        with pytest.raises(ValueError):
            RetrainConfig(min_gap_s=-1.0)
        with pytest.raises(ValueError):
            RetrainConfig(retry_backoff_s=0.0)

    def test_update_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            build_mobile(stationary_at(Vec2(0.0, 3.0)), update_interval_s=0.0)


class TestLifecycle:
    def test_start_trains_and_syncs(self):
        ns = build_mobile(stationary_at(Vec2(0.0, 3.0)))
        training = ns.mobile.start()
        assert training.success
        assert ns.mobile.link_up
        assert ns.mobile.snr_at_train_db is not None
        # The station mirrors the device pose and trained beam.
        st = ns.stations["client"]
        assert st.position == ns.client.position
        assert st.data_pattern is ns.client.active_beam.pattern
        # The initial training is association, not a re-training.
        assert ns.mobile.stats.retrains_total == 0
        assert ns.mobile.stats.retrain_airtime_s == 0.0

    def test_double_start_rejected(self):
        ns = build_mobile(stationary_at(Vec2(0.0, 3.0)))
        ns.mobile.start()
        with pytest.raises(RuntimeError):
            ns.mobile.start()

    def test_motion_updates_device_and_station(self):
        traj = LinearTrajectory(Vec2(-1.0, 3.0), Vec2(2.0, 0.0), duration_s=1.0)
        ns = build_mobile(traj, update_interval_s=10e-3)
        ns.mobile.start()
        ns.sim.run_until(0.5)
        assert ns.client.position.x == pytest.approx(-1.0 + 2.0 * 0.5, abs=0.03)
        assert ns.stations["client"].position == ns.client.position
        assert ns.mobile.stats.position_updates > 40
        assert ns.mobile.stats.distance_travelled_m == pytest.approx(1.0, abs=0.05)

    def test_stop_halts_sampling(self):
        ns = build_mobile(stationary_at(Vec2(0.0, 3.0)))
        ns.mobile.start()
        ns.sim.run_until(0.02)
        updates = ns.mobile.stats.position_updates
        ns.mobile.stop()
        ns.sim.run_until(0.1)
        assert ns.mobile.stats.position_updates <= updates + 1


class TestRetrainTriggers:
    def test_periodic_cadence(self):
        cfg = RetrainConfig(
            periodic_interval_s=50e-3, snr_drop_db=None, misalignment_rad=None
        )
        ns = build_mobile(stationary_at(Vec2(0.0, 3.0)), config=cfg)
        ns.mobile.start()
        ns.sim.run_until(0.52)
        stats = ns.mobile.stats
        assert 8 <= stats.retrains_periodic <= 12
        assert stats.retrains_snr == 0
        assert stats.retrains_misaligned == 0
        assert stats.retrain_airtime_s > 0.0
        assert stats.retrains_total == stats.retrains_periodic

    def test_snr_drop_when_walking_away(self):
        # Straight down the dock's boresight: bearing never changes, so
        # only the SNR trigger can fire.
        traj = LinearTrajectory(Vec2(0.0, 2.0), Vec2(0.0, 4.0), duration_s=2.0)
        cfg = RetrainConfig(
            periodic_interval_s=None, snr_drop_db=6.0, misalignment_rad=None
        )
        ns = build_mobile(traj, config=cfg)
        ns.mobile.start()
        ns.sim.run_until(2.0)
        assert ns.mobile.stats.retrains_snr >= 1
        assert ns.mobile.stats.retrains_misaligned == 0

    def test_misalignment_when_driving_past(self):
        # Drive-by: distance is roughly constant near closest approach
        # but the bearing sweeps fast, so misalignment dominates.
        traj = LinearTrajectory(Vec2(-6.0, 4.0), Vec2(12.0, 0.0), duration_s=1.0)
        cfg = RetrainConfig(
            periodic_interval_s=None,
            snr_drop_db=None,
            misalignment_rad=math.radians(6.0),
        )
        ns = build_mobile(traj, config=cfg, update_interval_s=2e-3)
        ns.mobile.start()
        ns.sim.run_until(1.0)
        assert ns.mobile.stats.retrains_misaligned >= 3

    def test_min_gap_suppresses_back_to_back_sweeps(self):
        cfg = RetrainConfig(
            periodic_interval_s=1e-3,  # would fire every tick...
            snr_drop_db=None,
            misalignment_rad=None,
            min_gap_s=100e-3,  # ...but the refractory period wins
        )
        ns = build_mobile(stationary_at(Vec2(0.0, 3.0)), config=cfg)
        ns.mobile.start()
        ns.sim.run_until(0.5)
        assert ns.mobile.stats.retrains_periodic <= 5


class TestSweepAirtime:
    def test_sweep_frames_are_charged_to_the_medium(self):
        ns = build_mobile(stationary_at(Vec2(0.0, 3.0)))
        ns.mobile.start()
        ns.sim.run_until(0.01)
        retrain_now(ns.mobile)
        ns.sim.run_until(0.05)
        ssw = [f for f in ns.medium.history if f.kind == FrameKind.SSW]
        # One ISS from the dock plus one RSS from the client.
        assert len(ssw) == 2
        assert {f.source for f in ssw} == {"rsu", "client"}
        assert all(f.destination == "" for f in ssw)
        charged = sum(f.duration_s for f in ssw)
        assert charged == pytest.approx(ns.mobile.stats.retrain_airtime_s)

    def test_retraining_corrupts_bystander_frames_in_flight(self):
        # The sweep is not free airtime: frames already on the air at a
        # marginal third-party receiver near the dock take the sweep's
        # interference, so a re-training storm strictly lowers their
        # delivery count.  Both runs share the seed, so the simulator
        # draws the same per-frame uniforms and the comparison is exact.
        def drive(retrain: bool) -> int:
            b_tx = make_e7440_laptop(
                name="b-tx",
                position=Vec2(10.0, 0.1),
                orientation_rad=math.pi,
                unit_seed=5,
            )
            b_rx = make_d5000_dock(
                name="b-rx", position=Vec2(0.3, 0.1), orientation_rad=0.0,
                unit_seed=6,
            )
            ns = build_mobile(
                stationary_at(Vec2(0.5, 3.0)), extra_devices=(b_tx, b_rx)
            )
            ns.mobile.start()
            delivered = [0]

            def on_done(record, ok):
                delivered[0] += int(ok)

            def send_data():
                ns.medium.transmit(
                    FrameRecord(
                        start_s=ns.sim.now,
                        duration_s=1e-3,
                        source="b-tx",
                        destination="b-rx",
                        kind=FrameKind.DATA,
                        mcs_index=8,
                    ),
                    on_complete=on_done,
                )

            for i in range(120):
                ns.sim.schedule(10e-3 + i * 1e-3, send_data)
            if retrain:
                for k in range(40):
                    ns.sim.schedule(10e-3 + k * 3e-3, lambda: retrain_now(ns.mobile))
            ns.sim.run_until(0.2)
            if retrain:
                assert ns.mobile.stats.retrains_total == 40
            return delivered[0]

        clean = drive(retrain=False)
        stormy = drive(retrain=True)
        assert 0 < stormy < clean

    def test_retraining_with_data_in_flight_keeps_the_sim_consistent(self):
        # Full vehicular scenario: the iperf flow keeps DATA frames on
        # the air while the mobile re-trains mid-pass.  The sweeps must
        # overlap live data and everything still completes.
        scenario = build_vehicular_scenario(speed_kmh=110.0, approach_m=6.0)
        result = run_vehicle_pass(scenario)
        scenario.sim.run_until(scenario.sim.now + 0.01)  # drain tail frames
        assert result["retrains"] >= 1
        assert result["mpdus_delivered"] > 0
        ssw = [
            f for f in scenario.medium.history if f.kind == FrameKind.SSW
        ]
        data = [
            f for f in scenario.medium.history if f.kind == FrameKind.DATA
        ]
        assert ssw and data

        def overlaps(a, b):
            return a.start_s < b.start_s + b.duration_s and b.start_s < (
                a.start_s + a.duration_s
            )

        assert any(overlaps(s, d) for s in ssw for d in data)


class TestMotionEdgeCases:
    def test_zero_sectors_heard_mid_trajectory(self):
        # The client drives from the dock's serviceable sector to far
        # behind it; sweeps eventually hear zero sectors, the link goes
        # down, and recovery attempts keep failing on backoff cadence.
        traj = LinearTrajectory(Vec2(0.5, 3.0), Vec2(0.0, -30.0), duration_s=2.0)
        ns = build_mobile(traj, update_interval_s=2e-3)
        training = ns.mobile.start()
        assert training.success  # in coverage at t=0
        ns.sim.run_until(2.0)
        stats = ns.mobile.stats
        assert stats.retrains_failed >= 1
        assert stats.retrains_recovery >= 1
        assert not ns.mobile.link_up
        assert ns.mobile.snr_at_train_db is None

    def test_stale_beam_snr_collapse_after_position_jump(self):
        ns = build_mobile(stationary_at(Vec2(0.5, 3.0)))
        ns.mobile.start()
        snr_trained = ns.mobile.current_snr_db()
        # Teleport the client without re-training: the station keeps the
        # stale beam and the measured SNR collapses.
        ns.client.position = Vec2(0.5, 30.0)
        sync_station(ns.client, ns.stations["client"])
        ns.coupling.invalidate("client")
        assert ns.mobile.current_snr_db() < snr_trained - 15.0

    def test_position_jump_triggers_snr_drop_retrain(self):
        class JumpTrajectory(Trajectory):
            duration_s = 1.0

            def position(self, t_s):
                return Vec2(0.5, 3.0) if t_s < 0.5 else Vec2(0.5, 30.0)

            def velocity_mps(self, t_s):
                return Vec2(0.0, 0.0)

            def path_length_m(self):
                return 27.0

        cfg = RetrainConfig(
            periodic_interval_s=None, snr_drop_db=10.0, misalignment_rad=None
        )
        ns = build_mobile(JumpTrajectory(), config=cfg)
        ns.mobile.start()
        snr_before = ns.mobile.snr_at_train_db
        ns.sim.run_until(1.0)
        assert ns.mobile.stats.retrains_snr >= 1
        if ns.mobile.snr_at_train_db is not None:
            assert ns.mobile.snr_at_train_db < snr_before - 10.0


class TestObsInstrumentation:
    def test_counters_and_airtime_histogram(self):
        obs.reset()
        obs.enable(metrics=True)
        try:
            scenario = build_vehicular_scenario(speed_kmh=50.0)
            run_vehicle_pass(scenario)
            snap = obs.metrics_snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert snap is not None
        counters = snap["counters"]
        assert counters["mobility.position_updates"] > 0
        assert counters.get("mobility.retrain.misaligned", 0) >= 1
        # The 50 km/h pass lasts >1 s, so at least one 1 s airtime
        # window closed into the fixed-bucket histogram.
        hist = snap["histograms"]["mobility.retrain.airtime_ms_per_s"]
        assert hist["count"] >= 1
        assert hist["sum"] > 0.0
