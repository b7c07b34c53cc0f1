"""Link-break detection and re-association (the full lifecycle).

The paper observes that long links "often break" (Figure 13) and that
devices then fall back to device discovery — the D5000 emits its
102.4 ms discovery sweep whenever disconnected.  This harness wires
together the pieces that make that lifecycle measurable:

1. a data-phase :class:`~repro.mac.wigig.WiGigLink` carrying TCP;
2. a :class:`~repro.mac.association.LinkSupervisor` that detects the
   break when a channel outage (e.g. a person standing in the path)
   kills deliveries;
3. an :class:`~repro.mac.association.AssociationManager` that runs the
   discovery -> A-BFT -> handshake sequence once the obstruction
   clears, after which traffic resumes.

The headline metric is the outage breakdown: how much of the downtime
is physics (the obstruction itself) versus protocol (detection delay +
waiting for the next discovery window + handshake).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.geometry.vec import Vec2
from repro.mac.association import AssociationManager, LinkSupervisor
from repro.mac.beam_training import SectorSweepTrainer
from repro.mac.coupling import DeviceCoupling
from repro.mac.simulator import Medium, Simulator
from repro.mac.tcp import IperfFlow, TcpParameters
from repro.mac.wigig import WiGigLink
from repro.phy.channel import LinkBudget


@dataclass
class RecoveryResult:
    """Timeline of one break/recovery cycle."""

    outage_start_s: float
    outage_end_s: float
    break_detected_s: Optional[float]
    reassociated_s: Optional[float]
    traffic_resumed_s: Optional[float]
    throughput_before_bps: float
    throughput_after_bps: float

    @property
    def detection_delay_s(self) -> Optional[float]:
        if self.break_detected_s is None:
            return None
        return self.break_detected_s - self.outage_start_s

    @property
    def protocol_recovery_s(self) -> Optional[float]:
        """Time from obstruction clearing to traffic flowing again."""
        if self.traffic_resumed_s is None:
            return None
        return self.traffic_resumed_s - self.outage_end_s

    @property
    def total_downtime_s(self) -> Optional[float]:
        if self.traffic_resumed_s is None:
            return None
        return self.traffic_resumed_s - self.outage_start_s


class OutageCoupling(DeviceCoupling):
    """DeviceCoupling with a switchable blockage penalty."""

    def __init__(self, devices, budget: LinkBudget, outage_loss_db: float):
        super().__init__(devices, budget=budget)
        self.outage_loss_db = outage_loss_db
        self.outage_active = False

    def coupling_db(self, tx, rx, control=False):
        base = super().coupling_db(tx, rx, control)
        if self.outage_active:
            return base - self.outage_loss_db
        return base

    def set_outage(self, active: bool) -> None:
        self.outage_active = active
        self.invalidate()


class _RecoveryCycle:
    """The protocol side of one break/recovery run: traffic, the break
    supervisor and re-association, and the timeline they record."""

    def __init__(self, sim, medium, coupling, stations, dock, laptop, total_s, seed, budget):
        self.sim = sim
        self.medium = medium
        self.coupling = coupling
        self.stations = stations
        self.dock = dock
        self.laptop = laptop
        self.total_s = total_s
        self.flow: Optional[IperfFlow] = None
        self.supervisor: Optional[LinkSupervisor] = None
        self.break_detected: Optional[float] = None
        self.reassociated: Optional[float] = None
        self.traffic_resumed: Optional[float] = None
        self.tput_before = 0.0
        self.manager = AssociationManager(
            sim, medium, dock, [laptop], budget=budget,
            trainer=SectorSweepTrainer(budget=budget, rng=np.random.default_rng(seed)),
            on_associated=self._on_reassociated,
            rng=np.random.default_rng(seed + 1),
        )

    def start_traffic(self) -> None:
        sim = self.sim
        link = WiGigLink(
            sim, self.medium,
            transmitter=self.stations[self.laptop.name],
            receiver=self.stations[self.dock.name],
            snr_hint_db=self.coupling.snr_db(self.laptop.name, self.dock.name),
            send_beacons=False,
        )
        flow = IperfFlow(sim, link, TcpParameters(window_bytes=64 * 1024))
        self.flow = flow
        self.supervisor = LinkSupervisor(
            sim, link, on_break=self._on_break, check_interval_s=10e-3, dead_intervals=3
        )
        if self.reassociated is not None:
            sim.schedule(2e-3, partial(self._watch_resume, flow))

    def _watch_resume(self, flow: IperfFlow) -> None:
        if self.traffic_resumed is None and self.reassociated is not None:
            if flow.delivered_bits > 0:
                self.traffic_resumed = self.sim.now
                return
        if self.sim.now < self.total_s:
            self.sim.schedule(2e-3, partial(self._watch_resume, flow))

    def sample_throughput_before(self) -> None:
        self.tput_before = self.flow.throughput_bps()

    def _on_break(self) -> None:
        self.break_detected = self.sim.now
        # Tear down: stop feeding the flow, fall back to discovery.
        self.manager.station_online(self.laptop.name)
        self.manager.start()

    def _on_reassociated(self, station) -> None:
        self.reassociated = self.sim.now
        # Re-association retrained just this pair's beams.
        self.coupling.invalidate(self.dock.name, self.laptop.name)
        self.start_traffic()


def run_break_and_recover(
    outage_start_s: float = 0.1,
    outage_duration_s: float = 0.25,
    total_s: float = 1.2,
    outage_loss_db: float = 60.0,
    seed: int = 20,
) -> RecoveryResult:
    """One full cycle: traffic -> outage -> break -> rediscovery -> traffic.

    The outage is modeled as a heavy blockage loss inserted into the
    coupling for its duration (a person standing in the path).  The
    simulation is closed before the result is returned.
    """
    dock = make_d5000_dock(position=Vec2(0, 0), orientation_rad=0.0)
    laptop = make_e7440_laptop(position=Vec2(2.5, 0), orientation_rad=math.pi)
    dock.train_toward(laptop.position)
    laptop.train_toward(dock.position)
    devices = {dock.name: dock, laptop.name: laptop}
    budget = LinkBudget()
    sim = Simulator(seed=seed)
    coupling = OutageCoupling(devices, budget, outage_loss_db)
    medium = Medium(sim, coupling, budget=budget, capture_history=False)
    stations = {name: dev.make_station() for name, dev in devices.items()}
    for st in stations.values():
        medium.register(st)

    cycle = _RecoveryCycle(sim, medium, coupling, stations, dock, laptop, total_s, seed, budget)
    # Initial traffic phase.
    cycle.start_traffic()
    sim.schedule(max(0.0, outage_start_s - 1e-6), cycle.sample_throughput_before)
    sim.schedule(outage_start_s, partial(coupling.set_outage, True))
    sim.schedule(outage_start_s + outage_duration_s, partial(coupling.set_outage, False))
    sim.run_until(total_s)
    sim.close()

    tput_after = cycle.flow.throughput_bps()
    return RecoveryResult(
        outage_start_s=outage_start_s,
        outage_end_s=outage_start_s + outage_duration_s,
        break_detected_s=cycle.break_detected,
        reassociated_s=cycle.reassociated,
        traffic_resumed_s=cycle.traffic_resumed,
        throughput_before_bps=cycle.tput_before,
        throughput_after_bps=tput_after,
    )
