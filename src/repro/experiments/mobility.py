"""Mobility experiments: throughput vs speed, handovers, contact time.

Two scenario families built from :mod:`repro.mobility`:

* **Vehicular pass** — a vehicle-mounted client drives down a lane
  past a roadside D5000 at 50/70/110 km/h while an iperf-style flow
  runs over the full DES MAC.  The client re-trains whenever its beam
  points a misalignment bound away from where it was trained (plus an
  SNR-drop safety net), so over a fixed road segment the *number* of
  sweeps is set by the swept bearing angle — roughly speed-independent
  — while the pass *duration* shrinks as 1/speed.  Re-training airtime
  as a fraction of the pass therefore grows monotonically with speed:
  the quantitative "bane" of beamforming under motion (arXiv
  1611.07867's regime).

* **Corridor handover** — a pedestrian walks a corridor served by
  several docks; a handover policy decides when to switch.  Goodput is
  accounted from the serving beam's SNR through the MCS table, minus
  the airtime spent on sweeps, probes, and handshakes; per-AP contact
  time falls out of the controller's bookkeeping.

Both are exposed as campaign cells (``mobility_vehicular``,
``mobility_handover``) and as the ``mobility-speed`` /
``mobility-handover`` campaigns in the registry, byte-identical across
worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.devices.base import RadioDevice
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.experiments.common import derive_seed
from repro.experiments.range_vs_distance import wigig_goodput_bps
from repro.geometry.vec import Vec2
from repro.mac.beam_training import SectorSweepTrainer
from repro.mac.coupling import DeviceCoupling
from repro.mac.simulator import Medium, Simulator, Station
from repro.mac.tcp import IperfFlow, TcpParameters
from repro.mac.wigig import WiGigLink
from repro.mobility.handover import (
    HandoverPolicy,
    HysteresisHandover,
    MultiAPController,
    StickyStrongest,
    WiFiAssistedSteering,
)
from repro.mobility.station import MobileStation, RetrainConfig
from repro.mobility.trajectory import (
    PEDESTRIAN_SPEED_MPS,
    LinearTrajectory,
    VehiclePass,
)
from repro.phy.channel import LinkBudget
from repro.phy.mcs import select_mcs

#: The paper-adjacent road speeds (km/h) for the vehicular sweep.
VEHICULAR_SPEEDS_KMH = (50.0, 70.0, 110.0)

#: Handover policy names accepted by :func:`handover_cell`.
HANDOVER_POLICIES: Dict[str, Callable[[], HandoverPolicy]] = {
    "sticky": StickyStrongest,
    "hysteresis": HysteresisHandover,
    "wifi": WiFiAssistedSteering,
}

#: Corridor geometry: AP spacing along x and the client's lane offset.
CORRIDOR_AP_SPACING_M = 6.0
CORRIDOR_LANE_OFFSET_M = 3.0


# -- vehicular pass ------------------------------------------------------------


@dataclass
class VehicularScenario:
    """A wired-up drive-by scenario, ready to run."""

    sim: Simulator
    medium: Medium
    coupling: DeviceCoupling
    rsu: RadioDevice
    vehicle: RadioDevice
    mobile: MobileStation
    link: WiGigLink
    flow: IperfFlow
    trajectory: VehiclePass
    devices: Dict[str, RadioDevice] = field(default_factory=dict)


def build_vehicular_scenario(
    speed_kmh: float,
    lane_offset_m: float = 4.0,
    approach_m: float = 12.0,
    seed: int = 0,
    update_interval_s: float = 2e-3,
    window_bytes: float = 64 * 1024,
    retrain: Optional[RetrainConfig] = None,
    budget: LinkBudget = LinkBudget(),
) -> VehicularScenario:
    """A roadside D5000 at the origin facing the lane; the client
    drives past with its array facing the roadside.

    The re-train trigger is misalignment-based by default so sweep
    count is set by the swept bearing geometry, not the clock — the
    ingredient that makes overhead scale with speed.
    """
    if retrain is None:
        retrain = RetrainConfig(
            periodic_interval_s=None,
            snr_drop_db=10.0,
            misalignment_rad=math.radians(6.0),
            min_gap_s=2e-3,
        )
    trajectory = VehiclePass(
        speed_kmh, lane_offset_m=lane_offset_m, approach_m=approach_m
    )
    rsu = make_d5000_dock(
        name="rsu", position=Vec2(0.0, 0.0), orientation_rad=math.pi / 2.0
    )
    vehicle = make_e7440_laptop(
        name="vehicle",
        position=trajectory.position(0.0),
        orientation_rad=-math.pi / 2.0,
        unit_seed=21,
    )
    devices = {rsu.name: rsu, vehicle.name: vehicle}
    sim = Simulator(seed=seed)
    coupling = DeviceCoupling(devices, budget=budget)
    medium = Medium(sim, coupling, budget=budget)
    st_rsu = rsu.make_station()
    st_vehicle = vehicle.make_station()
    medium.register(st_rsu)
    medium.register(st_vehicle)

    trainer = SectorSweepTrainer(
        budget=budget, rng=np.random.default_rng(derive_seed(seed, "sls"))
    )
    mobile = MobileStation(
        sim=sim,
        medium=medium,
        coupling=coupling,
        device=vehicle,
        station=st_vehicle,
        trajectory=trajectory,
        peer_device=rsu,
        peer_station=st_rsu,
        trainer=trainer,
        update_interval_s=update_interval_s,
        config=retrain,
    )
    # Data flows vehicle -> roadside unit; rate adaptation is purely
    # loss-driven because the geometry (and thus the SNR) keeps moving.
    link = WiGigLink(
        sim,
        medium,
        transmitter=st_vehicle,
        receiver=st_rsu,
        snr_hint_db=None,
        send_beacons=False,
    )
    flow = IperfFlow(sim, link, TcpParameters(window_bytes=window_bytes))
    return VehicularScenario(
        sim=sim,
        medium=medium,
        coupling=coupling,
        rsu=rsu,
        vehicle=vehicle,
        mobile=mobile,
        link=link,
        flow=flow,
        trajectory=trajectory,
        devices=devices,
    )


def run_vehicle_pass(scenario: VehicularScenario) -> Dict:
    """Drive the whole pass and summarize it."""
    scenario.mobile.start()
    scenario.flow.reset_counters()
    duration = scenario.trajectory.duration_s
    scenario.sim.run_until(scenario.sim.now + duration)
    scenario.mobile.stop()
    stats = scenario.mobile.stats
    return {
        "speed_kmh": scenario.trajectory.speed_kmh,
        "duration_s": duration,
        "distance_m": stats.distance_travelled_m,
        "goodput_bps": scenario.flow.throughput_bps(),
        "mpdus_delivered": scenario.link.stats.mpdus_delivered,
        "retrains": stats.retrains_total,
        "retrains_misaligned": stats.retrains_misaligned,
        "retrains_snr": stats.retrains_snr,
        "retrains_periodic": stats.retrains_periodic,
        "retrains_recovery": stats.retrains_recovery,
        "retrains_failed": stats.retrains_failed,
        "retrain_airtime_s": stats.retrain_airtime_s,
        "overhead_fraction": stats.retrain_airtime_s / duration,
        "events_simulated": scenario.sim.events_processed,
    }


def vehicular_cell(
    *,
    speed_kmh: float,
    seed: int = 0,
    lane_offset_m: float = 4.0,
    approach_m: float = 12.0,
    update_interval_s: float = 2e-3,
    window_bytes: float = 64 * 1024,
) -> dict:
    """One campaign cell: one full drive-by at one speed (DES)."""
    if speed_kmh <= 0:
        raise ValueError("speed must be positive")
    scenario = build_vehicular_scenario(
        speed_kmh=speed_kmh,
        lane_offset_m=lane_offset_m,
        approach_m=approach_m,
        seed=seed,
        update_interval_s=update_interval_s,
        window_bytes=window_bytes,
    )
    return run_vehicle_pass(scenario)


def retraining_overhead_vs_speed(
    speeds_kmh: Sequence[float] = VEHICULAR_SPEEDS_KMH,
    seed: int = 0,
    **cell_params,
) -> List[Dict]:
    """The throughput/overhead-vs-speed figure, one row per speed.

    All rows share the seed so the only thing that varies is the
    speed — the monotone-overhead acceptance check runs on this.
    """
    return [
        vehicular_cell(speed_kmh=float(s), seed=seed, **cell_params)
        for s in speeds_kmh
    ]


# -- corridor handover ---------------------------------------------------------


@dataclass
class CorridorScenario:
    """A multi-AP corridor walk, ready to run."""

    sim: Simulator
    medium: Medium
    coupling: DeviceCoupling
    client: RadioDevice
    mobile: MobileStation
    controller: MultiAPController
    trajectory: LinearTrajectory
    aps: Dict[str, RadioDevice] = field(default_factory=dict)


def build_corridor_scenario(
    policy: HandoverPolicy,
    num_aps: int = 3,
    speed_mps: float = PEDESTRIAN_SPEED_MPS,
    seed: int = 0,
    update_interval_s: float = 5e-3,
    budget: LinkBudget = LinkBudget(),
) -> CorridorScenario:
    """Docks every ``CORRIDOR_AP_SPACING_M`` along a corridor wall, all
    facing the walkway; the client walks the corridor end to end."""
    if num_aps < 2:
        raise ValueError("a handover corridor needs at least two APs")
    if speed_mps <= 0:
        raise ValueError("walking speed must be positive")
    span_m = CORRIDOR_AP_SPACING_M * (num_aps - 1)
    start = Vec2(-2.0, CORRIDOR_LANE_OFFSET_M)
    end_x = span_m + 2.0
    trajectory = LinearTrajectory(
        start=start,
        velocity_mps=Vec2(speed_mps, 0.0),
        duration_s=(end_x - start.x) / speed_mps,
    )
    aps: Dict[str, RadioDevice] = {}
    for i in range(num_aps):
        ap = make_d5000_dock(
            name=f"ap-{i}",
            position=Vec2(CORRIDOR_AP_SPACING_M * i, 0.0),
            orientation_rad=math.pi / 2.0,
            unit_seed=8 + i,
        )
        aps[ap.name] = ap
    client = make_e7440_laptop(
        name="client",
        position=start,
        orientation_rad=-math.pi / 2.0,
        unit_seed=33,
    )
    devices = dict(aps)
    devices[client.name] = client
    sim = Simulator(seed=seed)
    coupling = DeviceCoupling(devices, budget=budget)
    medium = Medium(sim, coupling, budget=budget)
    stations: Dict[str, Station] = {}
    for name, dev in sorted(devices.items()):
        stations[name] = dev.make_station()
        medium.register(stations[name])

    trainer = SectorSweepTrainer(
        budget=budget, rng=np.random.default_rng(derive_seed(seed, "sls"))
    )
    mobile = MobileStation(
        sim=sim,
        medium=medium,
        coupling=coupling,
        device=client,
        station=stations[client.name],
        trajectory=trajectory,
        peer_device=aps["ap-0"],
        peer_station=stations["ap-0"],
        trainer=trainer,
        update_interval_s=update_interval_s,
    )
    controller = MultiAPController(
        sim=sim,
        medium=medium,
        mobile=mobile,
        aps=[(aps[name], stations[name]) for name in sorted(aps)],
        policy=policy,
        budget=budget,
    )
    return CorridorScenario(
        sim=sim,
        medium=medium,
        coupling=coupling,
        client=client,
        mobile=mobile,
        controller=controller,
        trajectory=trajectory,
        aps=aps,
    )


def run_corridor_walk(
    scenario: CorridorScenario, accounting_interval_s: float = 5e-3
) -> Dict:
    """Walk the corridor, accounting goodput from the serving beam.

    Every accounting tick the serving link's SNR picks an MCS; the
    achievable MAC goodput at that MCS accrues for the tick, or outage
    time does.  Overhead airtime (sweeps + probes + handshakes) is then
    taken off the top, so eager policies pay for their switching.
    """
    if accounting_interval_s <= 0:
        raise ValueError("accounting interval must be positive")
    scenario.mobile.start()
    scenario.controller.start()
    duration = scenario.trajectory.duration_s
    sim = scenario.sim
    tally = {"goodput_bits": 0.0, "outage_s": 0.0}

    def account() -> None:
        if scenario.mobile.link_up:
            mcs = select_mcs(scenario.mobile.current_snr_db())
        else:
            mcs = None
        if mcs is None:
            tally["outage_s"] += accounting_interval_s
        else:
            tally["goodput_bits"] += wigig_goodput_bps(mcs) * accounting_interval_s
        if sim.now - start_s < duration:
            sim.schedule(accounting_interval_s, account)

    start_s = sim.now
    sim.schedule(accounting_interval_s, account)
    sim.run_until(sim.now + duration)
    scenario.controller.stop()
    scenario.mobile.stop()

    mob = scenario.mobile.stats
    ho = scenario.controller.stats
    overhead_s = mob.retrain_airtime_s + ho.probe_airtime_s + ho.handover_airtime_s
    raw_goodput = tally["goodput_bits"] / duration
    return {
        "speed_mps": scenario.trajectory.speed_mps(0.0),
        "duration_s": duration,
        "handovers": ho.handovers,
        "failed_handovers": ho.failed_handovers,
        "contact_time_s": {k: ho.contact_time_s[k] for k in sorted(ho.contact_time_s)},
        "probe_airtime_s": ho.probe_airtime_s,
        "handover_airtime_s": ho.handover_airtime_s,
        "retrain_airtime_s": mob.retrain_airtime_s,
        "retrains": mob.retrains_total,
        "mean_goodput_bps": raw_goodput * max(0.0, 1.0 - overhead_s / duration),
        "outage_fraction": tally["outage_s"] / duration,
        "events_simulated": sim.events_processed,
    }


def handover_cell(
    *,
    policy: str,
    seed: int = 0,
    num_aps: int = 3,
    speed_mps: float = PEDESTRIAN_SPEED_MPS,
    update_interval_s: float = 5e-3,
) -> dict:
    """One campaign cell: one corridor walk under one policy (DES)."""
    try:
        policy_factory = HANDOVER_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r} "
            f"(choose from {', '.join(sorted(HANDOVER_POLICIES))})"
        ) from None
    scenario = build_corridor_scenario(
        policy=policy_factory(),
        num_aps=num_aps,
        speed_mps=speed_mps,
        seed=seed,
        update_interval_s=update_interval_s,
    )
    result = run_corridor_walk(scenario)
    result["policy"] = policy
    return result


def contact_time_by_policy(
    policies: Sequence[str] = ("sticky", "hysteresis", "wifi"),
    seed: int = 0,
    **cell_params,
) -> Dict[str, Dict]:
    """The AP contact-time figure: one corridor walk per policy."""
    return {p: handover_cell(policy=p, seed=seed, **cell_params) for p in policies}
