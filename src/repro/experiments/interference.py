"""Side-lobe interference between WiGig and WiHD (Figures 6/21/22).

Setup (Figure 6): two D5000 docking-station links operate in parallel
(they share the channel via CSMA/CA and do not collide with each
other).  A WiHD pair — which performs *no* carrier sensing — runs on
the same channel; its horizontal offset from the first docking link is
swept from 0 to 3 m.  Interference appears whenever the WiHD signal
enters the D5000 link through its (side-)lobes:

* the channel seen near the D5000 link gets busier (link utilization
  rises from the interference-free 38-42% toward 100% at close range);
* collisions cause missing ACKs and retransmissions (Figure 21a);
* the D5000's carrier sensing defers to strong WiHD frames, creating
  enlarged gaps occupied by WiHD traffic (Figure 21b);
* the reported link rate drops when utilization spikes (the inverse
  correlation of Figure 22), and everything is worse by ~10% when the
  dock is misaligned by 70 degrees, because boundary beams have
  stronger side lobes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.interference import InterferencePoint
from repro.core.utilization import medium_usage_from_records
from repro.devices.air3c import make_air3c_receiver, make_air3c_transmitter
from repro.devices.base import RadioDevice
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.devices.vubiq import VubiqReceiver
from repro.experiments.common import misalignment_70deg
from repro.geometry.vec import Vec2
from repro.mac.coupling import DeviceCoupling
from repro.mac.frames import FrameKind, FrameRecord
from repro.mac.simulator import Medium, Simulator
from repro.mac.tcp import IperfFlow, TcpParameters
from repro.mac.wigig import WiGigLink
from repro.mac.wihd import WiHDLink
from repro.phy.antenna import open_waveguide
from repro.phy.channel import LinkBudget
from repro.phy.mcs import mcs_by_index
from repro.phy.signal import Trace

#: Geometry of Figure 6 (meters).  Docks on the y=0 line facing +y,
#: laptops 6 m up; the WiHD transmitter sits past the laptops firing
#: down toward its receiver 8 m away, so its frames arrive at the
#: docks near their receive boresight.
DOCK_A = Vec2(0.0, 0.0)
LAPTOP_A = Vec2(0.0, 6.0)
DOCK_B = Vec2(4.0, 0.0)
LAPTOP_B = Vec2(4.0, 6.0)
WIHD_TX_Y = 7.0
WIHD_RX_Y = -1.0

#: TCP window of each docking link's file transfer, calibrated for the
#: paper's interference-free utilization of roughly 38-42%.
WIGIG_WINDOW_BYTES = 10 * 1024

#: WiHD video rate calibrated for the paper's standalone WiHD link
#: utilization of about 46%.
WIHD_VIDEO_RATE_BPS = 1.7e9

#: Detection threshold of the channel-trace utilization estimate at
#: the measurement position near the first docking link.
UTILIZATION_THRESHOLD_DBM = -75.0

#: Size of the transferred file in the paper's setup (1 GB).
FILE_SIZE_BYTES = 1.0e9


@dataclass
class InterferenceScenario:
    """A built Figure 6 scenario, ready to run."""

    sim: Simulator
    medium: Medium
    coupling: DeviceCoupling
    devices: Dict[str, RadioDevice]
    link_a: WiGigLink
    link_b: WiGigLink
    flow_a: IperfFlow
    flow_b: IperfFlow
    wihd: Optional[WiHDLink]
    rotated: bool

    def run(self, duration_s: float) -> None:
        self.sim.run_until(self.sim.now + duration_s)


def build_interference_scenario(
    wihd_offset_m: float = 0.0,
    rotated: bool = False,
    with_wihd: bool = True,
    seed: int = 10,
    window_bytes: float = WIGIG_WINDOW_BYTES,
    video_rate_bps: float = WIHD_VIDEO_RATE_BPS,
) -> InterferenceScenario:
    """Assemble the two docking links plus the WiHD pair.

    ``rotated`` misaligns dock A by 70 degrees, forcing it onto a
    boundary beam with strong side lobes, as in the paper's second
    setup.
    """
    dock_a_orientation = math.pi / 2.0
    if rotated:
        dock_a_orientation += misalignment_70deg()
    dock_a = make_d5000_dock(name="dock-a", position=DOCK_A, orientation_rad=dock_a_orientation)
    laptop_a = make_e7440_laptop(name="laptop-a", position=LAPTOP_A, orientation_rad=-math.pi / 2.0)
    dock_b = make_d5000_dock(name="dock-b", position=DOCK_B, orientation_rad=math.pi / 2.0, unit_seed=12)
    laptop_b = make_e7440_laptop(
        name="laptop-b", position=LAPTOP_B, orientation_rad=-math.pi / 2.0, unit_seed=22
    )
    for dock, laptop in ((dock_a, laptop_a), (dock_b, laptop_b)):
        dock.train_toward(laptop.position)
        laptop.train_toward(dock.position)

    devices: Dict[str, RadioDevice] = {
        d.name: d for d in (dock_a, laptop_a, dock_b, laptop_b)
    }
    wihd_tx = wihd_rx = None
    if with_wihd:
        wihd_tx = make_air3c_transmitter(
            name="wihd-tx",
            position=Vec2(wihd_offset_m, WIHD_TX_Y),
            orientation_rad=-math.pi / 2.0,
        )
        wihd_rx = make_air3c_receiver(
            name="wihd-rx",
            position=Vec2(wihd_offset_m, WIHD_RX_Y),
            orientation_rad=math.pi / 2.0,
        )
        wihd_tx.train_toward(wihd_rx.position)
        wihd_rx.train_toward(wihd_tx.position)
        devices[wihd_tx.name] = wihd_tx
        devices[wihd_rx.name] = wihd_rx

    budget = LinkBudget()
    sim = Simulator(seed=seed)
    coupling = DeviceCoupling(devices, budget=budget)
    medium = Medium(sim, coupling, budget=budget)
    stations = {name: dev.make_station() for name, dev in devices.items()}
    for st in stations.values():
        medium.register(st)

    links = []
    flows = []
    for dock, laptop in ((dock_a, laptop_a), (dock_b, laptop_b)):
        snr = coupling.snr_db(laptop.name, dock.name)
        link = WiGigLink(
            sim,
            medium,
            transmitter=stations[laptop.name],
            receiver=stations[dock.name],
            snr_hint_db=snr,
        )
        flow = IperfFlow(sim, link, TcpParameters(window_bytes=window_bytes))
        links.append(link)
        flows.append(flow)

    wihd_link = None
    if with_wihd:
        wihd_link = WiHDLink(
            sim,
            medium,
            transmitter=stations["wihd-tx"],
            receiver=stations["wihd-rx"],
            video_rate_bps=video_rate_bps,
        )
    return InterferenceScenario(
        sim=sim,
        medium=medium,
        coupling=coupling,
        devices=devices,
        link_a=links[0],
        link_b=links[1],
        flow_a=flows[0],
        flow_b=flows[1],
        wihd=wihd_link,
        rotated=rotated,
    )


def _measurement_receiver(budget: LinkBudget = LinkBudget()) -> VubiqReceiver:
    """The channel-trace receiver placed next to docking link A."""
    return VubiqReceiver(
        position=DOCK_A + Vec2(0.35, 1.8),
        boresight_rad=math.pi / 2.0,
        antenna=open_waveguide(),
        budget=budget,
    )


def channel_utilization(
    scenario: InterferenceScenario,
    window_start_s: float,
    window_end_s: float,
    threshold_dbm: float = UTILIZATION_THRESHOLD_DBM,
    seed: int = 17,
) -> float:
    """Trace-style utilization of the channel near docking link A.

    Only frames whose received power at the measurement position
    clears the detection threshold count — distant WiHD frames fall
    below it, which is what makes utilization distance-dependent.
    The default ``seed`` reproduces the published figures.
    """
    vubiq = _measurement_receiver()
    devices = scenario.devices
    in_window = [
        rec
        for rec in scenario.medium.history
        if rec.end_s > window_start_s
        and rec.start_s < window_end_s
        and rec.source in devices
    ]
    # Per-frame fading jitter: frames near the detection threshold are
    # caught probabilistically, which smooths the utilization roll-off
    # with distance like the real traces.  One draw per frame, in
    # history order.
    jitter_db = np.random.default_rng(seed).normal(0.0, 2.5, size=len(in_window))
    power_cache: Dict[Tuple[str, FrameKind], float] = {}
    busy: List[FrameRecord] = []
    for rec, jitter in zip(in_window, jitter_db.tolist()):
        key = (rec.source, rec.kind)
        power = power_cache.get(key)
        if power is None:
            power = vubiq.received_power_dbm(devices[rec.source], rec.kind)
            power_cache[key] = power
        if power + jitter >= threshold_dbm:
            busy.append(rec)
    return medium_usage_from_records(busy, window_start_s, window_end_s, bridge_gap_s=4e-6)


def mean_link_rate_bps(link: WiGigLink, window_start_s: float, window_end_s: float) -> float:
    """Time-weighted average of the link's reported PHY rate."""
    # Reconstruct the MCS as a step function over the window.
    events = [(t, idx) for t, idx in link.mcs_history if t <= window_end_s]
    current = link.mcs.index if not events else events[0][1]
    # Determine the MCS in force at window start.
    idx_at_start = None
    for t, idx in events:
        if t <= window_start_s:
            idx_at_start = idx
    if idx_at_start is None:
        idx_at_start = current if not events else events[0][1]
    steps: List[Tuple[float, int]] = [(window_start_s, idx_at_start)]
    steps.extend((t, idx) for t, idx in events if window_start_s < t <= window_end_s)
    total = 0.0
    for (t0, idx), (t1, _next_idx) in zip(steps, steps[1:] + [(window_end_s, 0)]):
        total += mcs_by_index(idx).phy_rate_bps * (t1 - t0)
    return total / (window_end_s - window_start_s)


def interference_cell(
    *,
    wihd_offset_m: float,
    rotated: bool = False,
    duration_s: float = 0.4,
    warmup_s: float = 0.1,
    with_wihd: bool = True,
    seed: int = 10,
) -> dict:
    """One distance point of the Figure 22 sweep (full DES run).

    Builds the scenario, warms it up, then measures the window.
    Returns the :class:`InterferencePoint` fields as a campaign row,
    plus ``events_simulated`` so the run manifest can derive the
    simulator's events-per-second throughput.  The simulation is
    closed before the row is returned.
    """
    scenario = build_interference_scenario(
        wihd_offset_m=wihd_offset_m,
        rotated=rotated,
        with_wihd=with_wihd,
        seed=seed,
    )
    scenario.run(warmup_s)
    scenario.flow_a.reset_counters()
    retx_before = scenario.link_a.stats.retransmissions
    start = scenario.sim.now
    scenario.run(duration_s)
    end = scenario.sim.now
    scenario.sim.close()
    goodput = scenario.flow_a.throughput_bps()
    return {
        "distance_m": wihd_offset_m,
        "utilization": channel_utilization(scenario, start, end),
        "link_rate_bps": mean_link_rate_bps(scenario.link_a, start, end),
        "rotated": rotated,
        "retransmissions": scenario.link_a.stats.retransmissions - retx_before,
        "transfer_time_s": FILE_SIZE_BYTES * 8.0 / goodput if goodput > 0 else None,
        "events_simulated": scenario.sim.events_processed,
    }


def campaign_points(outcomes) -> Dict[Tuple[bool, bool], List[InterferencePoint]]:
    """An ``interference`` campaign's rows as points, in cell order.

    Keyed ``(with_wihd, rotated)`` from each cell's parameters; a
    failed cell raises, since a figure cannot skip a point.
    """
    points: Dict[Tuple[bool, bool], List[InterferencePoint]] = {}
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(f"interference cell failed: {outcome.error}")
        params = outcome.spec.param_dict()
        row = {k: v for k, v in outcome.result.items() if k != "events_simulated"}
        key = (params.get("with_wihd", True), params.get("rotated", False))
        points.setdefault(key, []).append(InterferencePoint(**row))
    return points


def capture_interference_trace(
    wihd_offset_m: float = 0.5,
    duration_s: float = 1.0e-3,
    run_for_s: float = 0.12,
    seed: int = 11,
) -> Tuple[Trace, InterferenceScenario]:
    """A 1 ms channel capture under heavy interference (Figure 21).

    Returns the trace and the finished scenario, its simulation
    closed: read it, do not run it.
    """
    scenario = build_interference_scenario(wihd_offset_m=wihd_offset_m, seed=seed)
    scenario.run(run_for_s)
    scenario.sim.close()
    vubiq = _measurement_receiver()
    vubiq.extra_gain_db = 30.0  # protocol-capture front-end gain
    start = scenario.sim.now - duration_s
    records = [
        r for r in scenario.medium.history if r.end_s > start
    ]
    trace = vubiq.capture(
        records,
        scenario.devices,
        duration_s=duration_s,
        start_s=start,
        rng=np.random.default_rng(seed),
    )
    return trace, scenario
