"""WiGig (Dell D5000) MAC model.

Reproduces the protocol behavior the paper reverse-engineers from the
traces (Section 4.1):

* three phases — device discovery, link setup, data transmission;
* discovery frames every 102.4 ms while unassociated, each ~1 ms long
  and swept over 32 quasi-omni patterns (Figure 3);
* a beacon exchange between dock and notebook every 1.1 ms;
* data sent in bursts of at most 2 ms, each opened by two control
  frames (RTS/CTS), followed by data/ACK pairs (Figure 8);
* CSMA/CA carrier sensing — the D5000 defers to frames it can hear
  (Figure 21b) — with slotted backoff;
* queue-driven aggregation: data frames are ~5 us when carrying a
  single MPDU and grow to at most 25 us under load (Figure 9), which
  is how throughput scales at constant MCS and medium usage
  (Figures 10-12).

Calibration: MPDUs model the ~320-byte wireless-bus-extension transfer
units the D5000 tunnels Ethernet through.  With a 4.5 us PHY/MAC frame
overhead and ~1 us per-MPDU sub-header, a single-MPDU frame lasts
~6 us ("short") and a 12-MPDU aggregate ~25 us ("long"), yielding
~200 mbps unaggregated and ~920 mbps fully aggregated — the paper's
171 -> 934 mbps span (5.4x) with the GigE cap on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.mac.frames import FrameKind, FrameRecord, MacTiming, WIGIG_TIMING
from repro.mac.simulator import Medium, Simulator, Station
from repro.obs.metrics import MetricsRegistry
from repro.phy.mcs import MCS, MAX_OBSERVED_MCS_INDEX, mcs_by_index, select_mcs

#: Payload bits of one MPDU (the WBE transfer unit, ~320 bytes).
MPDU_BITS = 2560

#: Fixed on-air overhead of every data frame (PHY preamble, MAC header).
FRAME_OVERHEAD_S = 4.5e-6

#: Additional on-air time per aggregated MPDU beyond its payload bits
#: (sub-header, padding to FEC block boundaries).
PER_MPDU_OVERHEAD_S = 1.0e-6

#: Maximum MPDUs per aggregate such that frames stay within the 25 us
#: maximum the paper observed.
MAX_AGGREGATION = 12

#: Fixed obs-histogram buckets for MPDUs-per-aggregate; fixed bounds
#: are what make per-worker histogram merges deterministic.
AGGREGATION_BUCKETS = (1.0, 2.0, 4.0, 8.0, float(MAX_AGGREGATION))

#: Contention parameters (802.11ad-like EDCA).
MIN_CONTENTION_WINDOW = 8
MAX_CONTENTION_WINDOW = 64
MAX_RETRIES = 7


def data_frame_duration_s(num_mpdus: int, mcs: MCS) -> float:
    """On-air duration of a data frame aggregating ``num_mpdus`` MPDUs."""
    if num_mpdus < 1:
        raise ValueError("a data frame carries at least one MPDU")
    payload_time = num_mpdus * MPDU_BITS / mcs.phy_rate_bps
    return FRAME_OVERHEAD_S + num_mpdus * PER_MPDU_OVERHEAD_S + payload_time


def max_aggregation_for(mcs: MCS, max_frame_s: float = WIGIG_TIMING.max_data_frame_s) -> int:
    """Largest aggregate that keeps the frame within the duration cap.

    The 25 us ceiling observed in Figure 9 applies to the *duration*;
    at lower MCSs each MPDU takes more air time, so fewer fit.
    """
    n = MAX_AGGREGATION
    while n > 1 and data_frame_duration_s(n, mcs) > max_frame_s:
        n -= 1
    return n


class WiGigStation(Station):
    """A WiGig endpoint (dock or notebook) with D5000-like defaults."""

    def __init__(self, name: str, position, **kwargs):
        kwargs.setdefault("tx_power_dbm", 10.0)
        kwargs.setdefault("cca_threshold_dbm", -60.0)
        super().__init__(name, position, **kwargs)


@dataclass
class WiGigLinkStats:
    """Counters a :class:`WiGigLink` accumulates while running."""

    data_frames_sent: int = 0
    data_frames_delivered: int = 0
    retransmissions: int = 0
    mpdus_delivered: int = 0
    bursts_started: int = 0
    rts_failures: int = 0
    cca_deferrals: int = 0


class WiGigLink:
    """One dock <-> notebook WiGig link running on a shared medium.

    The link transmits whatever its queue holds.  Traffic sources
    push MPDUs via :meth:`enqueue_mpdus` (or, when the event loop
    replays them like :class:`repro.mac.tcp.IperfFlow`, via
    :meth:`arrive`) and learn about deliveries through the
    ``on_delivery`` callback, which the link drops when the simulation
    is closed (:meth:`Simulator.close`).

    Args:
        sim: Shared event loop.
        medium: Shared channel.
        transmitter: Station sending the data frames.
        receiver: Station returning ACKs.
        timing: MAC timing constants.
        initial_mcs_index: Starting MCS (rate adaptation may move it).
        snr_hint_db: SNR the rate controller believes the link has;
            used to cap the MCS search.  If None, adaptation is purely
            loss-driven.
        associated: Start in the data-transfer phase.  When False the
            transmitter emits discovery sweeps until
            :meth:`associate` is called.
        send_beacons: Emit the periodic beacon exchange.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        transmitter: Station,
        receiver: Station,
        timing: MacTiming = WIGIG_TIMING,
        initial_mcs_index: int = MAX_OBSERVED_MCS_INDEX,
        snr_hint_db: Optional[float] = None,
        associated: bool = True,
        send_beacons: bool = True,
        on_delivery: Optional[Callable[[int], None]] = None,
        rate_adaptation_interval_s: float = 50e-3,
        max_aggregation: int = MAX_AGGREGATION,
    ):
        self.sim = sim
        self.medium = medium
        self.tx = transmitter
        self.rx = receiver
        self.timing = timing
        self.stats = WiGigLinkStats()
        self.on_delivery = on_delivery
        self._queue_mpdus = 0
        # Enqueue timestamps of every MPDU in arrival order, and per
        # acknowledged frame (time, timestamps consumed so far): each
        # one consumes the oldest timestamps not yet consumed.
        # delivery_delays_s derives the MAC-level queueing+service
        # delay of each MPDU from them (the Figure 1
        # aggregation/delay trade-off).
        self._enqueue_times: List[float] = []
        self._deliveries: List[Tuple[float, int]] = []
        self._mpdus_dequeued = 0
        self._snr_hint = snr_hint_db
        if snr_hint_db is not None:
            # Link setup ends with an SNR estimate; start from the MCS
            # it supports instead of walking down from the top.
            best = select_mcs(snr_hint_db)
            initial_mcs_index = best.index if best is not None else 1
        self._use_mcs(mcs_by_index(initial_mcs_index))
        self._associated = associated
        self._in_burst = False
        self._awaiting_data = False
        self._burst_serial = 0
        # The data frame being acknowledged (one exchange at a time).
        self._acked_record: Optional[FrameRecord] = None
        self._contending = False
        self._cw = MIN_CONTENTION_WINDOW
        self._retries = 0
        self._rate_interval = rate_adaptation_interval_s
        self._recent_sent = 0
        self._recent_delivered = 0
        self.mcs_history: List[tuple] = []  # (time_s, mcs_index)
        if not 1 <= max_aggregation <= MAX_AGGREGATION:
            raise ValueError(
                f"max_aggregation must be in [1, {MAX_AGGREGATION}]"
            )
        # Device aggregation policy: the D5000 uses the full 12-MPDU /
        # 25 us ceiling; Section 5 argues the level should depend on
        # how many nodes share the medium, so it is a knob here.
        self.max_aggregation = max_aggregation
        # Data frames sent per aggregate size (index n) since the last
        # metrics publish, and the data-frame count published so far.
        self._aggregates = [0] * (MAX_AGGREGATION + 1)
        self._frames_published = 0
        sim.add_publisher(self._publish_metrics)
        sim.on_close(self._detach)

        if send_beacons:
            self._schedule_beacon()
        if not associated:
            self._schedule_discovery()
        if self._rate_interval > 0:
            self.sim.schedule(self._rate_interval, self._rate_adaptation_tick)

    def _detach(self) -> None:
        # A traffic source behind ``on_delivery`` (IperfFlow) holds this
        # link; a closed run keeps no edge back.
        self.on_delivery = None

    # -- public API -----------------------------------------------------

    @property
    def mcs(self) -> MCS:
        """MCS currently used for data frames."""
        return self._mcs

    @property
    def queue_depth_mpdus(self) -> int:
        return self._queue_mpdus

    @property
    def delivery_delays_s(self) -> List[float]:
        """Enqueue-to-ACK delay of each delivered MPDU, in order.

        A frame acknowledged at ``t`` takes the oldest enqueue times
        not yet taken, as many as it aggregates (fewer if fewer are
        left); each MPDU's delay is ``t`` minus its enqueue time.
        """
        times = self._enqueue_times
        delays: List[float] = []
        start = 0
        for now, end in self._deliveries:
            delays.extend([now - t for t in times[start:end]])
            start = end
        return delays

    @property
    def associated(self) -> bool:
        return self._associated

    def associate(self) -> None:
        """Complete link setup and move to the data-transfer phase."""
        self._associated = True

    def enqueue_mpdus(self, count: int) -> None:
        """Add MPDUs to the transmit queue and kick off contention.

        If the link is currently holding its TXOP waiting for data
        (the delay-minimizing behavior of Section 4.4), transmission
        resumes immediately instead of re-contending.
        """
        if count < 0:
            raise ValueError("cannot enqueue a negative MPDU count")
        self._queue_mpdus += count
        self._enqueue_times.extend([self.sim.now] * count)
        self._react_to_arrival()

    @property
    def arrival_wakes_mac(self) -> bool:
        """Whether an MPDU arriving now changes what the MAC does.

        It does on an idle link (contention may start) and on one
        holding its TXOP for data (sending resumes); otherwise it just
        joins the queue.
        """
        return self._awaiting_data or not (self._contending or self._in_burst)

    def arrive(self, times_s: List[float], wakes: bool) -> None:
        """Queue MPDUs that reached the link at ``times_s``.

        A replayed source hands over arrivals in time order, with
        ``wakes`` read from :attr:`arrival_wakes_mac` beforehand.  A
        batch that wakes the MAC must be a single arrival at the
        current simulation time.
        """
        self._queue_mpdus += len(times_s)
        self._enqueue_times.extend(times_s)
        if wakes:
            self._react_to_arrival()

    def _react_to_arrival(self) -> None:
        if self._awaiting_data:
            self._awaiting_data = False
            self.sim.schedule(0.0, self._send_next_data)
            return
        self._maybe_start_contention()

    def set_mcs(self, index: int) -> None:
        """Force the data MCS (used by tests and ablations)."""
        self._use_mcs(mcs_by_index(index))
        self.mcs_history.append((self.sim.now, index))
        if obs.STATE.metrics:
            obs.add("mac.wigig.mcs_transitions")

    def _use_mcs(self, mcs: MCS) -> None:
        # Per-MCS tables for _send_next_data: the aggregation cap and
        # the duration of an n-MPDU frame at index n (0 unused).
        self._mcs = mcs
        self._mcs_max_aggregation = max_aggregation_for(mcs)
        self._frame_durations_s = (0.0,) + tuple(
            data_frame_duration_s(n, mcs) for n in range(1, MAX_AGGREGATION + 1)
        )

    # -- beacons and discovery -------------------------------------------

    def _schedule_beacon(self) -> None:
        self.sim.schedule(self.timing.beacon_interval_s, self._beacon_tick)

    def _beacon_tick(self) -> None:
        # Beacons are only sent outside bursts and on an idle channel;
        # a busy channel just skips this beacon opportunity.
        if not self._in_burst and not self.medium.channel_busy_for(self.rx):
            beacon = FrameRecord(
                start_s=self.sim.now,
                duration_s=self.timing.beacon_frame_s,
                source=self.rx.name,  # the dock beacons; notebook answers
                destination="",
                kind=FrameKind.BEACON,
            )
            self.medium.transmit(beacon)
            self.sim.schedule(
                self.timing.beacon_frame_s + self.timing.sifs_s,
                lambda: self.medium.transmit(
                    FrameRecord(
                        start_s=self.sim.now,
                        duration_s=self.timing.beacon_frame_s,
                        source=self.tx.name,
                        destination="",
                        kind=FrameKind.BEACON,
                    )
                ),
            )
        self._schedule_beacon()

    def _schedule_discovery(self) -> None:
        self.sim.schedule(self.timing.discovery_interval_s, self._discovery_tick)

    def _discovery_tick(self) -> None:
        if self._associated:
            return  # association stops the discovery sweep
        frame = FrameRecord(
            start_s=self.sim.now,
            duration_s=self.timing.discovery_frame_s,
            source=self.rx.name,  # the dock searches for remote stations
            destination="",
            kind=FrameKind.DISCOVERY,
        )
        self.medium.transmit(frame)
        self._schedule_discovery()

    # -- CSMA/CA + burst machinery ----------------------------------------

    def _maybe_start_contention(self) -> None:
        if (
            self._contending
            or self._in_burst
            or self._queue_mpdus == 0
            or not self._associated
        ):
            return
        self._contending = True
        self._backoff_slots = int(self.sim.rng.integers(0, self._cw))
        self._backoff_step()

    def _backoff_step(self) -> None:
        if self._queue_mpdus == 0:
            self._contending = False
            return
        if self.medium.channel_busy_for(self.tx):
            self.stats.cca_deferrals += 1
            self.medium.wait_for_idle(self.tx, self._backoff_step)
            return
        if self._backoff_slots > 0:
            self._backoff_slots -= 1
            self.sim.schedule(self.timing.slot_s, self._backoff_step)
            return
        self._contending = False
        self._start_burst()

    def _start_burst(self) -> None:
        self._in_burst = True
        self._burst_end = self.sim.now + self.timing.max_burst_s
        self._burst_serial += 1
        self.stats.bursts_started += 1
        # Hard stop for a held TXOP: if the burst is still waiting for
        # data when its 2 ms expire, release the channel.
        serial = self._burst_serial

        def expire() -> None:
            if self._in_burst and self._burst_serial == serial and self._awaiting_data:
                self._awaiting_data = False
                self._end_burst(failed=False)

        self.sim.schedule(self.timing.max_burst_s, expire)
        rts = FrameRecord(
            start_s=self.sim.now,
            duration_s=self.timing.rts_frame_s,
            source=self.tx.name,
            destination=self.rx.name,
            kind=FrameKind.RTS,
            nav_duration_s=max(0.0, self._burst_end - self.sim.now - self.timing.rts_frame_s),
        )
        self.medium.transmit(rts, on_complete=self._rts_done)

    def _rts_done(self, record: FrameRecord, delivered: bool) -> None:
        if not delivered:
            self.stats.rts_failures += 1
            self._end_burst(failed=True)
            return
        self.sim.schedule(self.timing.sifs_s, self._send_cts)

    def _send_cts(self) -> None:
        cts = FrameRecord(
            start_s=self.sim.now,
            duration_s=self.timing.cts_frame_s,
            source=self.rx.name,
            destination=self.tx.name,
            kind=FrameKind.CTS,
            nav_duration_s=max(0.0, self._burst_end - self.sim.now - self.timing.cts_frame_s),
        )
        self.medium.transmit(cts, on_complete=self._cts_done)

    def _cts_done(self, record: FrameRecord, delivered: bool) -> None:
        if not delivered:
            self.stats.rts_failures += 1
            self._end_burst(failed=True)
            return
        self.sim.schedule(self.timing.sifs_s, self._send_next_data)

    def _send_next_data(self) -> None:
        if not self._in_burst:
            return
        now = self.sim.now
        burst_end = self._burst_end
        if now >= burst_end:
            self._end_burst(failed=False)
            return
        queued = self._queue_mpdus
        if queued == 0:
            # Hold the TXOP: send as soon as the Ethernet side delivers
            # more data (minimizes delay at the cost of medium time).
            self._awaiting_data = True
            return
        n = self.max_aggregation
        if self._mcs_max_aggregation < n:
            n = self._mcs_max_aggregation
        if queued < n:
            n = queued
        durations = self._frame_durations_s
        duration = durations[n]
        # Never start a frame that cannot finish (with its ACK) inside
        # the burst; shrink the aggregate instead.
        while n > 1 and now + duration > burst_end:
            n -= 1
            duration = durations[n]
        self._queue_mpdus = queued - n
        frame = FrameRecord(
            now, duration, self.tx.name, self.rx.name, FrameKind.DATA,
            self._mcs.index, n * MPDU_BITS, n, None, self._retries > 0,
        )
        self.stats.data_frames_sent += 1
        self._recent_sent += 1
        self._aggregates[n] += 1
        self.medium.transmit(frame, self._data_done)

    def _publish_metrics(self, metrics: MetricsRegistry) -> None:
        sent = self.stats.data_frames_sent
        if sent == self._frames_published:
            return
        metrics.add("mac.wigig.data_frames", sent - self._frames_published)
        self._frames_published = sent
        aggregates = self._aggregates
        for n, count in enumerate(aggregates):
            if count:
                metrics.observe("mac.wigig.aggregation_mpdus", n, AGGREGATION_BUCKETS, count)
                aggregates[n] = 0

    def _data_done(self, record: FrameRecord, delivered: bool) -> None:
        if delivered:
            self.stats.data_frames_delivered += 1
            self._recent_delivered += 1
            self._acked_record = record
            self.sim.schedule(self.timing.sifs_s, self._send_ack)
        else:
            # No ACK will come; requeue after an ACK-timeout-sized gap.
            self._retries += 1
            self.stats.retransmissions += 1
            if obs.STATE.metrics:
                obs.add("mac.wigig.retransmissions")
            self._queue_mpdus += record.aggregated_mpdus
            if self._retries > MAX_RETRIES:
                # Give up on this burst; back off harder.
                self._cw = min(self._cw * 2, MAX_CONTENTION_WINDOW)
                self._retries = 0
                self._end_burst(failed=True)
                return
            timeout = self.timing.sifs_s + self.timing.ack_frame_s + self.timing.sifs_s
            self.sim.schedule(timeout, self._send_next_data)

    def _send_ack(self) -> None:
        ack = FrameRecord(
            self.sim.now, self.timing.ack_frame_s, self.rx.name, self.tx.name, FrameKind.ACK
        )
        self.medium.transmit(ack, self._ack_done)

    def _ack_done(self, record: FrameRecord, delivered: bool) -> None:
        mpdus = self._acked_record.aggregated_mpdus
        # The MPDUs were received regardless of whether the ACK got
        # back cleanly; a lost ACK causes a spurious retransmission.
        if delivered:
            self._retries = 0
            self._cw = MIN_CONTENTION_WINDOW
            self.stats.mpdus_delivered += mpdus
            dequeued = self._mpdus_dequeued + mpdus
            if dequeued > len(self._enqueue_times):
                dequeued = len(self._enqueue_times)
            self._mpdus_dequeued = dequeued
            self._deliveries.append((self.sim.now, dequeued))
            if self.on_delivery is not None:
                self.on_delivery(mpdus)
        else:
            self._retries += 1
            self.stats.retransmissions += 1
            if obs.STATE.metrics:
                obs.add("mac.wigig.retransmissions")
            self._queue_mpdus += mpdus
        self.sim.schedule(self.timing.sifs_s, self._send_next_data)

    def _end_burst(self, failed: bool) -> None:
        self._in_burst = False
        self._awaiting_data = False
        if failed:
            self._cw = min(self._cw * 2, MAX_CONTENTION_WINDOW)
        if self._queue_mpdus > 0:
            self._maybe_start_contention()

    # -- rate adaptation ---------------------------------------------------

    def _rate_adaptation_tick(self) -> None:
        """Loss-driven rate stepping, bounded by the SNR hint.

        Mirrors the behavior inferred in Section 4.4: the D5000 adjusts
        its rate "according to SINR measurements and packet loss
        statistics", so under collision-heavy operation the reported
        rate drops even when the geometry is unchanged.
        """
        if self._recent_sent >= 5:
            ratio = self._recent_delivered / self._recent_sent
            idx = self._mcs.index
            if ratio < 0.9 and idx > 1:
                self.set_mcs(idx - 1)
            elif ratio > 0.99:
                ceiling = MAX_OBSERVED_MCS_INDEX
                if self._snr_hint is not None:
                    best = select_mcs(self._snr_hint)
                    ceiling = best.index if best is not None else 1
                if idx < ceiling:
                    self.set_mcs(idx + 1)
        self._recent_sent = 0
        self._recent_delivered = 0
        self.sim.schedule(self._rate_interval, self._rate_adaptation_tick)
