"""Association protocol: discovery -> A-BFT -> handshake -> link up.

Section 4.1 identifies three phases in the WiGig protocol: *device
discovery*, *link setup* ("a complex association and beamforming
process"), and *data transmission*.  The toolkit's experiment harnesses
usually start in phase three; this module implements the first two so
that association latency, recovery after link breaks, and multi-station
contention can be studied:

1. **Discovery (BTI)** — while unassociated, the dock emits the 1 ms
   32-sub-element discovery frame every 102.4 ms (Table 1, Figure 3).
2. **A-BFT** — a station that decodes the sweep picks a random slot of
   the association beamforming-training window and answers with an SSW
   frame on its best sector; two stations picking the same slot
   collide and retry at the next discovery.
3. **Handshake** — the dock returns sector feedback and an association
   exchange (request/response) completes the link setup; both sides
   apply their trained sectors and the caller's ``on_associated``
   callback fires (typically creating the data-phase
   :class:`~repro.mac.wigig.WiGigLink`).

:class:`LinkSupervisor` closes the loop at the other end of a link's
life: it watches delivery statistics, declares a break after a dead
window (the paper: "links become unstable and often break"), and lets
a :class:`ReassociationController` measure the full outage -> discovery
-> re-association -> traffic-restored cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.devices.base import RadioDevice
from repro.mac.beam_training import SSW_MIN_SNR_DB, SectorSweepTrainer
from repro.mac.frames import FrameKind, FrameRecord, WIGIG_TIMING, MacTiming
from repro.mac.simulator import Medium, Simulator
from repro.phy.channel import LinkBudget

#: Number of responder slots in the A-BFT window.
ABFT_SLOTS = 8

#: Duration of one A-BFT slot (one SSW frame plus guard).
ABFT_SLOT_S = 18.0e-6

#: Durations of the association handshake frames.
ASSOC_FRAME_S = 12.0e-6


def association_overhead_s(timing: MacTiming = WIGIG_TIMING) -> float:
    """Airtime of one uncontended link setup, excluding the SLS itself.

    Discovery frame + one A-BFT response slot + the two-frame
    association handshake — the fixed cost a handover pays on top of
    re-training with the new dock.  Layered policies
    (:mod:`repro.mobility.handover`) charge this per AP switch.
    """
    return timing.discovery_frame_s + ABFT_SLOT_S + 2.0 * ASSOC_FRAME_S


@dataclass
class AssociationStats:
    """Counters the manager accumulates."""

    discovery_frames_sent: int = 0
    ssw_responses_heard: int = 0
    abft_collisions: int = 0
    associations_completed: int = 0


class AssociationManager:
    """Runs the dock-side discovery/association state machine.

    Args:
        sim: Event loop.
        medium: Shared channel (frames are really transmitted, so they
            appear in captures and occupy airtime).
        dock: The searching device (discovery transmitter).
        stations: Candidate remote stations.  Each may power on at a
            different time (:meth:`station_online`).
        budget: Link budget for decode checks.
        trainer: Beam trainer used once a station answers; defaults to
            a fresh :class:`SectorSweepTrainer` over free space.
        on_associated: Callback ``(station_device)`` fired when a
            station completes association; dropped when the
            simulation is closed.
        timing: MAC timing (discovery cadence).
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        dock: RadioDevice,
        stations: List[RadioDevice],
        budget: LinkBudget = LinkBudget(),
        trainer: Optional[SectorSweepTrainer] = None,
        on_associated: Optional[Callable[[RadioDevice], None]] = None,
        timing: MacTiming = WIGIG_TIMING,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.medium = medium
        self.dock = dock
        self.budget = budget
        self.timing = timing
        # Forwarding ``rng`` here would perturb the trainer's historical
        # noise stream; the default trainer stays on its own fixed seed.
        self.trainer = trainer if trainer is not None else SectorSweepTrainer(budget=budget)
        self.on_associated = on_associated
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = AssociationStats()
        self._online: Dict[str, RadioDevice] = {}
        self._associated: Dict[str, RadioDevice] = {}
        self._association_times: Dict[str, float] = {}
        self._all_stations = {s.name: s for s in stations}
        self._running = False
        sim.on_close(self._detach)

    def _detach(self) -> None:
        # The callback's owner usually holds this manager.
        self.on_associated = None

    # -- public API ---------------------------------------------------------

    @property
    def associated_stations(self) -> List[str]:
        return sorted(self._associated)

    def association_time_s(self, station_name: str) -> Optional[float]:
        """When a station completed association (None if it has not)."""
        return self._association_times.get(station_name)

    def station_online(self, name: str) -> None:
        """A station powers on and starts listening for discovery."""
        if name not in self._all_stations:
            raise KeyError(f"unknown station {name!r}")
        self._online[name] = self._all_stations[name]

    def station_offline(self, name: str) -> None:
        """A station disappears (power-off, walked away, link break)."""
        self._online.pop(name, None)
        self._associated.pop(name, None)
        self._association_times.pop(name, None)
        if not self._associated and not self._running:
            self.start()

    def start(self) -> None:
        """Begin the discovery cadence (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(self.timing.discovery_interval_s, self._discovery_tick)

    # -- discovery / A-BFT ----------------------------------------------------

    def _unassociated_online(self) -> List[RadioDevice]:
        return [
            dev for name, dev in self._online.items() if name not in self._associated
        ]

    def _discovery_tick(self) -> None:
        if not self._running:
            return
        if not self._unassociated_online() and self._associated:
            # Everyone online is associated: stop sweeping (the D5000
            # stops its discovery frames once connected).
            self._running = False
            return
        frame = FrameRecord(
            start_s=self.sim.now,
            duration_s=self.timing.discovery_frame_s,
            source=self.dock.name,
            destination="",
            kind=FrameKind.DISCOVERY,
        )
        self.medium.transmit(frame)
        self.stats.discovery_frames_sent += 1
        self.sim.schedule(self.timing.discovery_frame_s, self._run_abft)
        self.sim.schedule(self.timing.discovery_interval_s, self._discovery_tick)

    def _station_hears_discovery(self, station: RadioDevice) -> bool:
        """Decode check: any (sub-element, listen-pattern) pair clears
        the control-PHY sensitivity.

        Real stations rotate their quasi-omni receive pattern between
        beacon intervals precisely because individual patterns have
        the deep gaps of Figure 16; checking a handful of listen
        patterns against the full 32-sub-element sweep models that
        rotation.
        """
        listen_entries = station.codebook.quasi_omni_entries[:4] or (
            station.active_beam,
        )
        distance = self.dock.position.distance_to(station.position)
        bearing = station.bearing_to(self.dock.position)
        budget_terms = (
            self.dock.tx_power_for(FrameKind.DISCOVERY)
            - self.budget.propagation_loss_db(distance)
            - self.budget.implementation_loss_db
            - self.budget.noise_floor_dbm()
        )
        num_sub = len(self.dock.codebook.quasi_omni_entries) or 1
        for listen in listen_entries:
            rx_gain = listen.pattern.gain_dbi(bearing)
            for i in range(num_sub):
                tx_gain = self.dock.tx_gain_dbi(
                    station.position, FrameKind.DISCOVERY, i
                )
                if budget_terms + tx_gain + rx_gain >= SSW_MIN_SNR_DB:
                    return True
        return False

    def _run_abft(self) -> None:
        responders = [
            s for s in self._unassociated_online() if self._station_hears_discovery(s)
        ]
        if not responders:
            return
        # Each responder draws an A-BFT slot; same slot = collision.
        slots: Dict[int, List[RadioDevice]] = {}
        for station in responders:
            slot = int(self.rng.integers(0, ABFT_SLOTS))
            slots.setdefault(slot, []).append(station)
        for slot, stations in sorted(slots.items()):
            at = slot * ABFT_SLOT_S
            if len(stations) > 1:
                self.stats.abft_collisions += len(stations)
                # Colliding SSWs still occupy the air.
                for station in stations:
                    self.sim.schedule(
                        at, lambda s=station: self._transmit_ssw(s, decoded=False)
                    )
                continue
            station = stations[0]
            self.sim.schedule(at, lambda s=station: self._transmit_ssw(s, decoded=True))

    def _transmit_ssw(self, station: RadioDevice, decoded: bool) -> None:
        frame = FrameRecord(
            start_s=self.sim.now,
            duration_s=ABFT_SLOT_S * 0.8,
            source=station.name,
            destination=self.dock.name,
            kind=FrameKind.SSW,
        )
        self.medium.transmit(frame)
        if decoded:
            self.stats.ssw_responses_heard += 1
            self.sim.schedule(ABFT_SLOT_S, lambda: self._handshake(station))

    # -- handshake -------------------------------------------------------------

    def _handshake(self, station: RadioDevice) -> None:
        if station.name in self._associated:
            return
        training = self.trainer.train(self.dock, station)
        if not training.success:
            return
        # Training changed these two devices' active beams; couplings
        # of unrelated pairs stay valid.
        coupling = self.medium.coupling
        if hasattr(coupling, "invalidate"):
            coupling.invalidate(self.dock.name, station.name)

        req = FrameRecord(
            start_s=self.sim.now,
            duration_s=ASSOC_FRAME_S,
            source=station.name,
            destination=self.dock.name,
            kind=FrameKind.ASSOC_REQ,
        )

        def req_done(record: FrameRecord, delivered: bool) -> None:
            if not delivered:
                return  # retried at the next discovery interval
            resp = FrameRecord(
                start_s=self.sim.now,
                duration_s=ASSOC_FRAME_S,
                source=self.dock.name,
                destination=station.name,
                kind=FrameKind.ASSOC_RESP,
            )

            def resp_done(record: FrameRecord, delivered: bool) -> None:
                if not delivered:
                    return
                self._associated[station.name] = station
                self._association_times[station.name] = self.sim.now
                self.stats.associations_completed += 1
                if self.on_associated is not None:
                    self.on_associated(station)

            self.medium.transmit(resp, on_complete=resp_done)

        self.medium.transmit(req, on_complete=req_done)


class LinkSupervisor:
    """Declares a link broken when deliveries stop.

    The paper (Section 4.1): "for distances beyond 10 m, links become
    unstable and often break before the transmitter switches to rates
    below 1 gbps".  The supervisor samples the link's delivery counters
    every ``check_interval_s``; after ``dead_intervals`` consecutive
    windows in which frames were sent but nothing was delivered, it
    fires ``on_break`` exactly once (re-arm with :meth:`reset`).  It
    drops ``on_break`` when the simulation is closed.
    """

    def __init__(
        self,
        sim: Simulator,
        link,
        on_break: Callable[[], None],
        check_interval_s: float = 10e-3,
        dead_intervals: int = 3,
    ):
        if dead_intervals < 1:
            raise ValueError("need at least one dead interval")
        self.sim = sim
        self.link = link
        self.on_break = on_break
        self.check_interval_s = check_interval_s
        self.dead_intervals = dead_intervals
        self._last_sent = link.stats.data_frames_sent + link.stats.rts_failures
        self._last_delivered = link.stats.data_frames_delivered
        self._dead = 0
        self._broken = False
        self.break_time_s: Optional[float] = None
        self.sim.schedule(check_interval_s, self._tick)
        sim.on_close(self._detach)

    def _detach(self) -> None:
        # The callback's owner usually holds this supervisor.
        self.on_break = None

    @property
    def broken(self) -> bool:
        return self._broken

    def reset(self) -> None:
        """Re-arm after recovery."""
        self._broken = False
        self._dead = 0
        self.break_time_s = None
        self._last_sent = (
            self.link.stats.data_frames_sent + self.link.stats.rts_failures
        )
        self._last_delivered = self.link.stats.data_frames_delivered
        self.sim.schedule(self.check_interval_s, self._tick)

    def _tick(self) -> None:
        if self._broken:
            return
        # Activity = data attempts plus failed RTS handshakes: a
        # link whose RTS never earns a CTS is just as dead as one
        # whose data frames vanish.
        attempts = self.link.stats.data_frames_sent + self.link.stats.rts_failures
        sent = attempts - self._last_sent
        delivered = self.link.stats.data_frames_delivered - self._last_delivered
        self._last_sent = attempts
        self._last_delivered = self.link.stats.data_frames_delivered
        if sent > 0 and delivered == 0:
            self._dead += 1
        elif delivered > 0:
            self._dead = 0
        if self._dead >= self.dead_intervals:
            self._broken = True
            self.break_time_s = self.sim.now
            self.on_break()
            return
        self.sim.schedule(self.check_interval_s, self._tick)
