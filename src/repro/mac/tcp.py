"""Iperf-style TCP traffic over a WiGig link.

The paper controls the WiGig link's operating point by adjusting the
TCP window size in Iperf (Section 4.1, footnote 3): tiny windows
(~1 KB) produce kbps-range throughput and low medium usage; growing
windows walk the link through 171 -> 934 mbps, at which point the
Gigabit Ethernet interface at the docking station caps the rate.

:class:`IperfFlow` reproduces that control knob.  It keeps ``window``
bytes in flight: MPDUs enter the WiGig link while the window has
room, and credit returns one host-side RTT after the MAC delivers a
frame.  An AIMD mode (used in the reflection-interference experiment
of Figure 23) shrinks the effective window on loss events so TCP
throughput visibly reacts to interference.

Window-released MPDUs cross the Gigabit Ethernet hop into the radio
one serialization interval apart, which is what makes aggregation
depend on load (see :attr:`TcpParameters.eth_rate_bps`).  That pacing
is two items per MPDU (its credit release and its arrival), so the
flow does not spend a heap event on each: it is an *arrival cursor*
holding the pending credit-release times and the Ethernet serializer's
state, which the event loop replays in place
(:meth:`Simulator.add_source <repro.mac.simulator.Simulator.add_source>`).
Each item keeps the time and scheduling sequence number its own event
would have had, so the simulated network is exactly the same.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.mac.simulator import Simulator
from repro.mac.wigig import MPDU_BITS, WiGigLink

#: Throughput cap imposed by the Gigabit Ethernet interface at the
#: docking station (Section 4.1: "we do not observe results beyond
#: roughly 900 mbps").
GIGE_CAP_BPS = 940e6


@dataclass(frozen=True)
class TcpParameters:
    """Knobs of an Iperf-like TCP flow.

    Attributes:
        window_bytes: Socket window — the paper's control variable.
        host_rtt_s: Fixed round-trip component outside the 60 GHz hop
            (Ethernet leg, host stacks).  Dominates at small windows.
        aimd: Enable loss-reactive window halving (TCP congestion
            control); when False the window is a hard constant, which
            matches steady-state Iperf runs without loss.
        rate_limit_bps: Optional application-level pacing (models the
            kbps-range runs, where the paper used extreme window
            settings; a paced source is the cleaner equivalent).
        eth_rate_bps: Serialization rate of the Gigabit Ethernet hop
            feeding the dock.  This pacing is *the* mechanism behind
            the paper's aggregation findings: MPDUs trickle into the
            radio at most one per ~2.5 us, so the transmit queue only
            builds (and aggregation only kicks in) once the radio's
            single-MPDU service rate falls behind the Ethernet ingress
            — "WiGig only uses data aggregation if a connection
            requires high throughput" (Section 4.1).  The flow's
            arrival cursor replays the serializer: arrival k lands at
            ``arrival[k-1] + interval`` while the serializer stays
            busy, and at ``send + interval`` when a window send
            restarts it.
    """

    window_bytes: float = 256 * 1024
    host_rtt_s: float = 600e-6
    aimd: bool = False
    rate_limit_bps: Optional[float] = None
    eth_rate_bps: float = 1.0e9

    def __post_init__(self) -> None:
        if self.window_bytes <= 0:
            raise ValueError("window must be positive")
        if self.host_rtt_s < 0:
            raise ValueError("host RTT must be non-negative")
        if self.rate_limit_bps is not None and self.rate_limit_bps <= 0:
            raise ValueError("rate limit must be positive when set")
        if self.eth_rate_bps <= 0:
            raise ValueError("Ethernet rate must be positive")


#: Sorts after every (time_s, seq) key: nothing pending.
_NO_KEY = (math.inf, math.inf)

#: A run of window credits on the self-clock grid: element ``i`` falls
#: at ``origin_s + (offset_s + i * spacing)``.  ``(origin_s, offset_s,
#: count, release)``; a release returns a credit and sends up to two
#: MPDUs, the initial fill sends one.
_Run = Tuple[float, float, int, bool]


class IperfFlow:
    """A window-limited byte stream feeding a :class:`WiGigLink`.

    The flow measures its own goodput: :meth:`throughput_bps` divides
    acknowledged payload by elapsed time, like Iperf's reports.  Its
    pacing is a replayed source of the simulator (``due_s``,
    ``due_seq`` and :meth:`replay`; see
    :meth:`Simulator.add_source <repro.mac.simulator.Simulator.add_source>`).
    """

    def __init__(self, sim: Simulator, link: WiGigLink, params: TcpParameters = TcpParameters()):
        self.sim = sim
        self.link = link
        self.params = params
        self._window_mpdus = max(1, int(params.window_bytes * 8 / MPDU_BITS))
        self._cwnd_mpdus = float(self._window_mpdus)
        # The effective window, updated whenever cwnd moves.
        self._window = self._window_mpdus
        self._in_flight = 0
        self._delivered_bits = 0
        self._start_time = sim.now
        self._loss_events = 0
        self._last_sent_count = 0
        self._last_halve_time = -1.0
        # Steady-state inter-MPDU spacing of a self-clocked window: W
        # MPDUs circulating over one RTT are spaced RTT/W apart once
        # TCP's ACK clock has smoothed them.  Keeping credits on this
        # grid prevents artificial ingress bursts that would overstate
        # aggregation at low throughput.
        self._spacing = params.host_rtt_s / self._window_mpdus
        self._paced = params.rate_limit_bps is not None
        # Arrival cursor.  Pending credit runs: a run takes one
        # sequence number and its credits follow each other in index
        # order.  The run being replayed is kept apart from the others,
        # a heap of (time_s, seq, index, run) entries, so consecutive
        # credits of one run cost no heap operation.
        self._credits: List[Tuple[float, int, int, _Run]] = []
        self._run: Optional[_Run] = None
        self._run_s = math.inf
        self._run_seq = 0
        self._run_index = 0
        # MPDUs allowed by the window but not yet serialized over the
        # Ethernet hop into the radio's queue, and the key of the
        # serializer's next arrival (time inf while it is idle).
        self._eth_backlog = 0
        self._eth_interval = MPDU_BITS / params.eth_rate_bps
        self._eth_s = math.inf
        self._eth_seq = 0
        #: Key of the cursor's next item (time inf when it has none).
        self.due_s = math.inf
        self.due_seq = 0
        # Samples of (time_s, cumulative_delivered_bits) for time series.
        self.delivery_log: List[Tuple[float, int]] = []
        link.on_delivery = self._on_delivery
        if self._paced:
            self._paced_interval = MPDU_BITS / params.rate_limit_bps
            self.sim.schedule(self._paced_interval, self._paced_send)
        else:
            # Slow start: the initial window spread over one RTT.
            self._add_run(sim.now, 0.0, self._window, release=False)
        sim.add_source(self)

    # -- metrics ---------------------------------------------------------

    @property
    def delivered_bits(self) -> int:
        return self._delivered_bits

    @property
    def loss_events(self) -> int:
        return self._loss_events

    def throughput_bps(self, now: Optional[float] = None) -> float:
        """Average goodput since the flow started, GigE-capped."""
        now = self.sim.now if now is None else now
        elapsed = now - self._start_time
        if elapsed <= 0:
            return 0.0
        return min(self._delivered_bits / elapsed, GIGE_CAP_BPS)

    def reset_counters(self) -> None:
        """Restart goodput accounting (e.g. after a warm-up phase)."""
        self._delivered_bits = 0
        self._start_time = self.sim.now
        self.delivery_log.clear()

    # -- window machinery ---------------------------------------------------

    def _add_run(self, origin_s: float, offset_s: float, count: int, release: bool) -> None:
        run = (origin_s, offset_s, count, release)
        start_s = origin_s + offset_s
        seq = self.sim.next_seq()
        if self._run is None:
            self._run_s, self._run_seq, self._run_index, self._run = start_s, seq, 0, run
        else:
            heapq.heappush(self._credits, (start_s, seq, 0, run))
        # The new run holds the newest sequence number, so it loses
        # every tie: it is due first only when strictly earlier.
        if start_s < self.due_s:
            self.due_s, self.due_seq = start_s, seq

    def replay(self, limit_s: float, limit_seq: float) -> bool:
        """Run the cursor's items keyed below ``(limit_s, limit_seq)``.

        Returns whether it ran up to the limit; False when it stopped
        around an arrival that wakes the MAC.

        The event loop calls this with ``sim.now`` at the due item.
        A credit release frees one window slot and sends up to two
        MPDUs: one replaces the acknowledged segment, the second grows
        occupancy into room opened by additive increase (or re-fills
        after a stall).  Sends join the Ethernet backlog, which the
        serializer drains into the link one MPDU per interval.

        Only the link's reaction to an arrival touches anything else,
        and only while :attr:`WiGigLink.arrival_wakes_mac`; such an
        arrival must run at its own time, and the MAC may schedule
        work ahead of the limit, so replay stops around it.
        """
        inf = math.inf
        credits = self._credits
        run, run_s, run_seq, run_index = self._run, self._run_s, self._run_seq, self._run_index
        interval = self._eth_interval
        eth_s, eth_seq = self._eth_s, self._eth_seq
        in_flight, backlog = self._in_flight, self._eth_backlog
        arrivals: Optional[List[float]] = None
        wakes = None
        reached = True
        # Key of the earliest run waiting in the heap.
        other_s, other_seq = (credits[0][0], credits[0][1]) if credits else _NO_KEY
        # An arrival scheduled during this call would take its sequence
        # number after every existing one and before anything else
        # takes one, so it is inf until the call ends.
        while True:
            if other_s < run_s or (other_s == run_s and other_seq < run_seq):
                if run is None:
                    run_s, run_seq, run_index, run = heapq.heappop(credits)
                else:
                    run_s, run_seq, run_index, run = heapq.heapreplace(
                        credits, (run_s, run_seq, run_index, run)
                    )
                other_s, other_seq = (credits[0][0], credits[0][1]) if credits else _NO_KEY
            if run_s < eth_s or (run_s == eth_s and run_seq < eth_seq):
                if run_s > limit_s or (run_s == limit_s and run_seq > limit_seq):
                    break
                # This credit, then the run's next ones while they come
                # strictly before anything else.
                origin_s, offset_s, count, release = run
                stop_s = other_s if other_s < limit_s else limit_s
                window, spacing, paced = self._window, self._spacing, self._paced
                while True:
                    credit_s = run_s
                    run_index += 1
                    if release:
                        if in_flight:
                            in_flight -= 1
                        sends = 0 if paced else 2 if in_flight + 2 <= window else window - in_flight
                    else:
                        sends = 1 if in_flight < window else 0
                    if sends > 0:
                        in_flight += sends
                        backlog += sends
                        if eth_s == inf:
                            eth_s, eth_seq = credit_s + interval, inf
                    if run_index == count:
                        run, run_s = None, inf
                        break
                    run_s = origin_s + (offset_s + run_index * spacing)
                    if not (run_s < stop_s and run_s < eth_s):
                        break
                continue
            if eth_s > limit_s or (eth_s == limit_s and eth_seq > limit_seq):
                break
            if wakes is None:
                # Nothing in this call changes the link before it wakes.
                wakes = self.link.arrival_wakes_mac
            if wakes:
                reached = False
                if eth_s > self.sim.now:
                    break
                backlog -= 1
                self.link.arrive([eth_s], True)
                eth_s, eth_seq = (eth_s + interval if backlog else inf), inf
                break
            # Arrivals before the next credit and the limit, in bulk.
            bound = run_s if run_s < other_s else other_s
            if limit_s < bound:
                bound = limit_s
            if arrivals is None:
                arrivals = []
            arrivals.append(eth_s)
            backlog -= 1
            eth_s += interval
            while backlog and eth_s < bound:
                arrivals.append(eth_s)
                backlog -= 1
                eth_s += interval
            if not backlog:
                eth_s = inf
            eth_seq = inf
        if arrivals is not None:
            self.link.arrive(arrivals, False)
        if eth_seq == inf and eth_s != inf:
            eth_seq = self.sim.next_seq()
        self._run, self._run_s, self._run_seq, self._run_index = run, run_s, run_seq, run_index
        self._eth_s, self._eth_seq = eth_s, eth_seq
        self._in_flight, self._eth_backlog = in_flight, backlog
        due_s, due_seq = eth_s, eth_seq
        if run_s < due_s or (run_s == due_s and run_seq < due_seq):
            due_s, due_seq = run_s, run_seq
        if other_s < due_s or (other_s == due_s and other_seq < due_seq):
            due_s, due_seq = other_s, other_seq
        self.due_s, self.due_seq = due_s, due_seq
        return reached

    def _paced_send(self) -> None:
        # Application pacing: one MPDU per interval, window permitting.
        if self._in_flight < self._window:
            self._in_flight += 1
            self.link.enqueue_mpdus(1)
        self.sim.schedule(self._paced_interval, self._paced_send)

    def _on_delivery(self, mpdus: int) -> None:
        self._delivered_bits += mpdus * MPDU_BITS
        self.delivery_log.append((self.sim.now, self._delivered_bits))
        if self.params.aimd:
            # Additive increase: one MPDU of window per window's worth
            # of deliveries.
            self._cwnd_mpdus += mpdus / max(1.0, self._cwnd_mpdus)
            # Loss detection: the link's retransmission counter moving
            # between deliveries marks a congestion event.  Like
            # NewReno, the window halves at most once per RTT no
            # matter how many frames that RTT lost.
            retx = self.link.stats.retransmissions
            if retx > self._last_sent_count:
                self._loss_events += retx - self._last_sent_count
                self._last_sent_count = retx
                if self.sim.now - self._last_halve_time > self.params.host_rtt_s:
                    self._cwnd_mpdus = max(1.0, self._cwnd_mpdus / 2.0)
                    self._last_halve_time = self.sim.now
            self._window = max(1, int(min(self._cwnd_mpdus, self._window_mpdus)))
        # Credits return after the host-side RTT.  An aggregated frame
        # acknowledges several MPDUs at once; releasing their credits
        # on the self-clock grid (rather than all at once) models the
        # pacing of the returning TCP ACK stream.
        self._add_run(self.sim.now, self.params.host_rtt_s, mpdus, release=True)
