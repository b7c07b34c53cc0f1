"""Discrete-event simulation core: event loop, stations, and medium.

The simulator is deliberately small: a heap-based event loop, a
:class:`Station` abstraction that knows where a device is and how much
antenna gain it has toward any direction, a :class:`CouplingModel` that
turns a (transmitter, receiver) pair into a path gain, and a
:class:`Medium` that tracks concurrent transmissions, computes SINR,
and decides frame delivery.

Interference physics: powers of concurrent transmitters add linearly at
a receiver, and a frame's delivery is judged against the *worst* SINR
it experienced while on the air (a collision anywhere in the frame can
corrupt it).  Carrier sensing is energy detection at the sensing
station through its own receive pattern — which is precisely why side
lobes matter: a D5000 hears (and is heard by) an interferer through
whatever its pattern leaks in that direction.

Link-power memo: the medium memoizes the power each transmitter's
frames arrive with at each receiver, ``tx power + coupling`` as a
``(dBm, mW)`` pair per (tx, rx, wide pattern or not), and the frame error
probability per (signal dBm, worst interference mW, MCS) — the inputs
of the delivery SINR, so a memo hit needs no logarithm.  Two things
clear the link memo, at the moment of the change:

* assigning any attribute of a registered :class:`Station` (a move, a
  re-synced beam, a new transmit power), and
* the coupling model reporting a change through
  :meth:`CouplingModel.changed` — ``StaticCoupling.set`` and
  ``DeviceCoupling.invalidate`` do, so every caller that already
  invalidates device couplings (mobility moves and retrains,
  association, transmit power control) clears it too.

A coupling model whose values change any other way must call
``changed()`` itself.  Closing the simulation clears the memo too: its
keys hold the stations, whose watchers lead back to it.

Clock: :attr:`Simulator.now` is a plain attribute.  Only the event
loop writes it (when it runs an event or replays a source, and at the
end of :meth:`Simulator.run_until`); everything else reads it.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.analysis.dbmath import db_to_linear_scalar, linear_to_db_scalar
from repro.obs import clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import handler_qualname
from repro.geometry.vec import Vec2
from repro.mac.frames import FrameKind, FrameRecord
from repro.phy.antenna import AntennaPattern
from repro.phy.channel import LinkBudget, friis_path_loss_db, oxygen_absorption_db
from repro.phy.mcs import frame_error_probability, mcs_by_index

#: Received power needed to decode a control frame's duration field and
#: honor its NAV (control-PHY sensitivity: MCS-0 threshold over the
#: noise floor of the default budget, ~-83 dBm).
NAV_DECODE_THRESHOLD_DBM = -82.0

#: This process's metrics registry, handed to every publisher
#: (:meth:`Simulator.add_publisher`).
_METRICS = obs.registry()


class Station:
    """A radio endpoint: position, orientation, patterns, power.

    Args:
        name: Unique identifier within a simulation.
        position: Location on the floor plan, meters.
        orientation_rad: Direction the device's broadside faces
            (global frame, CCW from +x).
        data_pattern: Pattern used for data transmission/reception
            (the trained directional beam).
        control_pattern: Pattern used for control frames (beacons,
            discovery) — wider and transmitted at higher power.
        tx_power_dbm: Conducted power for data frames.
        control_power_boost_db: Extra power for control frames; the
            paper notes control frames arrive "with higher power and
            wider antenna patterns".
        cca_threshold_dbm: Energy-detection threshold for carrier
            sensing (WiGig only; WiHD ignores it).
        channel: 60 GHz channel index the station operates on.  The
            devices under test support channels centered at 60.48 and
            62.64 GHz (Section 3.1); stations on different channels
            neither interfere nor hear each other — moving an
            interferer to the other channel is the obvious mitigation
            for everything Section 4.4 measures.

    Assigning any attribute calls the callbacks passed to
    :meth:`watch`: the media the station is registered with forget the
    link powers they memoized.
    """

    def __init__(
        self,
        name: str,
        position: Vec2,
        orientation_rad: float = 0.0,
        data_pattern: Optional[AntennaPattern] = None,
        control_pattern: Optional[AntennaPattern] = None,
        tx_power_dbm: float = 10.0,
        control_power_boost_db: float = 5.0,
        cca_threshold_dbm: float = -60.0,
        channel: int = 2,
    ):
        if not name:
            raise ValueError("station needs a non-empty name")
        self._watchers: List[Callable[[], None]] = []
        self.name = name
        self.channel = channel
        self.position = position
        self.orientation_rad = orientation_rad
        self.data_pattern = data_pattern if data_pattern is not None else AntennaPattern.isotropic()
        self.control_pattern = (
            control_pattern if control_pattern is not None else AntennaPattern.isotropic()
        )
        self.tx_power_dbm = tx_power_dbm
        self.control_power_boost_db = control_power_boost_db
        self.cca_threshold_dbm = cca_threshold_dbm

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        for forget in self._watchers:
            forget()

    def watch(self, forget: Callable[[], None]) -> None:
        """Call ``forget`` after every attribute assignment."""
        self._watchers.append(forget)

    def gain_toward_dbi(self, target: Vec2, control: bool = False) -> float:
        """Antenna gain toward a point, in the device's local frame."""
        bearing = (target - self.position).angle() - self.orientation_rad
        pattern = self.control_pattern if control else self.data_pattern
        return pattern.gain_dbi(bearing)

    def tx_power_for(self, kind: FrameKind) -> float:
        """Conducted power used for a frame of the given kind."""
        if kind.uses_wide_pattern():
            return self.tx_power_dbm + self.control_power_boost_db
        return self.tx_power_dbm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Station({self.name!r} @ ({self.position.x:.2f}, {self.position.y:.2f}))"


class CouplingModel:
    """Maps a transmitter/receiver station pair to a path gain in dB.

    The returned value is *gain* (typically a large negative number):
    ``rx_power_dbm = tx_power_dbm + coupling_db``.  ``control`` selects
    the wide control patterns at both ends.

    Media memoize link powers, so a model must call :meth:`changed`
    whenever the value it returns for some pair changes other than
    through an assignment to one of the stations.
    """

    def __init__(self) -> None:
        self._watchers: List[Callable[[], None]] = []

    def coupling_db(self, tx: Station, rx: Station, control: bool = False) -> float:
        raise NotImplementedError  # pragma: no cover

    def watch(self, forget: Callable[[], None]) -> None:
        """Call ``forget`` after every :meth:`changed`."""
        self._watchers.append(forget)

    def changed(self) -> None:
        """Tell the watching media that coupling values changed."""
        for forget in self._watchers:
            forget()


class FreeSpaceCoupling(CouplingModel):
    """Friis path loss plus both stations' antenna patterns.

    Reads the stations' live poses and patterns; the media forget
    their link powers when a station is assigned a new one.
    """

    def __init__(self, frequency_hz: float, extra_loss_db: float = 0.0):
        super().__init__()
        self._freq = frequency_hz
        self._extra = extra_loss_db

    def coupling_db(self, tx: Station, rx: Station, control: bool = False) -> float:
        distance = tx.position.distance_to(rx.position)
        if distance <= 0:
            raise ValueError("stations are co-located")
        loss = friis_path_loss_db(distance, self._freq) + oxygen_absorption_db(
            distance, self._freq
        )
        return (
            tx.gain_toward_dbi(rx.position, control)
            + rx.gain_toward_dbi(tx.position, control)
            - loss
            - self._extra
        )


class StaticCoupling(CouplingModel):
    """Explicit coupling table, for tests and handcrafted scenarios.

    Keys are ``(tx_name, rx_name)``; missing pairs fall back to a
    default isolation value.  :meth:`set` edits the table mid-run.
    """

    def __init__(self, table: Dict[Tuple[str, str], float], default_db: float = -200.0):
        super().__init__()
        self._table = dict(table)
        self._default = default_db

    def coupling_db(self, tx: Station, rx: Station, control: bool = False) -> float:
        return self._table.get((tx.name, rx.name), self._default)

    def set(self, tx_name: str, rx_name: str, value_db: float) -> None:
        self._table[(tx_name, rx_name)] = value_db
        self.changed()


class Simulator:
    """A minimal deterministic discrete-event loop.

    Simultaneous events run in the order they were scheduled: each
    takes a sequence number (:attr:`next_seq`) when scheduled, and the
    heap orders by ``(time, seq)``.  High-volume, fixed-pattern work
    (one item per MPDU) can live in a replayed source instead of the
    heap (:meth:`add_source`).

    :attr:`now` is a plain attribute that only the loop writes; read
    it, never assign it.

    A finished run is closed (:meth:`close`): its pending work is
    dropped, so that once its caller drops it the whole simulation is
    freed by reference counting.
    """

    def __init__(self, seed: int = 0):
        #: Current simulation time in seconds (written by the loop only).
        self.now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        #: Takes the next scheduling sequence number (no Python frame:
        #: replayed sources call it per item).
        self.next_seq: Callable[[], int] = self._counter.__next__
        self._sources: list = []  # see add_source
        self.rng = np.random.default_rng(seed)
        #: Events processed so far — the campaign telemetry reads this
        #: to report DES events simulated per worker-second.  Work
        #: replayed by sources is not counted.
        self.events_processed = 0
        self._publishers: List[Callable[[MetricsRegistry], None]] = []
        self._closers: List[Callable[[], None]] = []

    def close(self) -> None:
        """Finish the run: drop everything it still has pending.

        Drops the pending events, the replayed sources and the
        publishers, then calls the :meth:`on_close` callbacks once, in
        the order they were added.  Those let components drop what
        else they keep for the run (stations waiting for an idle
        channel, a traffic source's delivery hook), so that no
        reference cycle is left: a closed simulation is freed by
        reference counting as soon as its last user drops it.

        Afterwards :meth:`schedule`, :meth:`add_source`,
        :meth:`add_publisher`, :meth:`on_close` and :meth:`run_until`
        raise :class:`RuntimeError`; :attr:`now`,
        :attr:`events_processed` and :attr:`rng` stay readable, as do
        the results the components hold (their statistics, the
        medium's history).  Closing twice is a no-op.
        """
        if self._queue is None:
            return
        closers = self._closers
        self._queue = self._sources = self._publishers = self._closers = None
        for drop in closers:
            drop()

    def _closed_error(self, what: str) -> RuntimeError:
        return RuntimeError(f"cannot {what}: the simulation is closed")

    def on_close(self, drop: Callable[[], None]) -> None:
        """Call ``drop()`` once when :meth:`close` runs.

        For a component that keeps callbacks into other components
        outside the event queue, which would otherwise hold a closed
        run together in a reference cycle.
        """
        if self._closers is None:
            raise self._closed_error("add a close callback")
        self._closers.append(drop)

    def add_source(self, source) -> None:
        """Interleave a replayed source's items with the event heap.

        A source keeps its own agenda instead of one heap event per
        item.  ``source.due_s`` and ``source.due_seq`` key its next
        item (``due_s`` is inf when it has none), with sequence numbers
        from :attr:`next_seq` taken where an event would have been
        scheduled.  Whenever that item precedes everything else, the
        loop sets ``now`` to its time and calls ``source.replay(limit_s,
        limit_seq)``; the source runs its items keyed below the limit,
        in order, and returns before any later item that touches other
        simulation state, so that the loop moves ``now`` to it first.
        Each item thus runs exactly where its own event would.
        ``replay`` returns True when it ran up to the limit without
        touching other state.
        """
        if self._sources is None:
            raise self._closed_error("add a source")
        self._sources.append(source)

    def add_publisher(self, publish: Callable[[MetricsRegistry], None]) -> None:
        """Call ``publish(registry)`` at the end of every :meth:`run_until`
        that runs with metrics on.

        Per-frame work is counted in plain integers, not metric calls,
        so a frame costs the same with metrics on as with them off.  A
        publisher adds what its integers gained since its last call,
        which also covers frames sent outside ``run_until``.
        """
        if self._publishers is None:
            raise self._closed_error("add a publisher")
        self._publishers.append(publish)

    def schedule(self, delay_s: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay_s`` seconds of simulated time.

        Rejects negative, NaN and infinite delays: one chained
        comparison admits exactly the finite non-negative ones (it is
        False for NaN, so a NaN timestamp never enters the heap to
        poison the ordering of every later event).  On a closed
        simulation, which has no queue, the push fails with a
        :class:`TypeError`, reported as :class:`RuntimeError`.
        """
        if not 0.0 <= delay_s < math.inf:
            if not math.isfinite(delay_s):
                raise ValueError(
                    f"cannot schedule with a non-finite delay ({delay_s!r})"
                )
            raise ValueError(f"cannot schedule into the past (delay {delay_s:g} s)")
        try:
            heappush(self._queue, (self.now + delay_s, next(self._counter), callback))
        except TypeError:
            if self._queue is None:
                raise self._closed_error("schedule") from None
            raise

    def run_until(self, end_s: float) -> None:
        """Process events until simulated time reaches ``end_s``.

        When profiling is enabled each event's wall time is attributed
        to its callback qualname (``obs.record_handler``); the flag is
        read once before the loop so the disabled hot path stays a
        single truthiness check per ``run_until`` call, not per event.
        """
        queue = self._queue
        if queue is None:
            raise self._closed_error("run")
        start_events = self.events_processed
        profiling = obs.STATE.profiling
        sources = self._sources
        with obs.span("mac.simulator.run", end_s=end_s):
            while True:
                if queue and (head := queue[0])[0] <= end_s:
                    limit_s, limit_seq = head[0], head[1]
                    event_next = True
                elif sources:
                    limit_s, limit_seq = end_s, math.inf
                    event_next = False
                else:
                    break
                # A source due first replays up to whatever comes next:
                # the next event, another source, or the end of the run.
                first = None
                for source in sources:
                    due_s = source.due_s
                    if due_s > limit_s:
                        continue
                    due_seq = source.due_seq
                    if due_s == limit_s and due_seq > limit_seq:
                        continue
                    if first is not None:
                        event_next = False
                        if due_s > first_s or (due_s == first_s and due_seq > first_seq):
                            limit_s, limit_seq = due_s, due_seq
                            continue
                        limit_s, limit_seq = first_s, first_seq
                    first, first_s, first_seq = source, due_s, due_seq
                if first is not None:
                    self.now = first_s
                    if profiling:
                        t0 = clock.perf_counter_ns()
                        reached = first.replay(limit_s, limit_seq)
                        obs.record_handler(
                            handler_qualname(first.replay), clock.perf_counter_ns() - t0
                        )
                    else:
                        reached = first.replay(limit_s, limit_seq)
                    # Unless the source stopped early (its MAC may have
                    # scheduled work), the next event is still next.
                    if not (reached and event_next):
                        continue
                elif not event_next:
                    break
                time, _, callback = heappop(queue)
                self.now = time
                self.events_processed += 1
                if profiling:
                    t0 = clock.perf_counter_ns()
                    callback()
                    obs.record_handler(
                        handler_qualname(callback), clock.perf_counter_ns() - t0
                    )
                else:
                    callback()
            if end_s > self.now:
                self.now = end_s
        if obs.STATE.metrics:
            _METRICS.add("mac.simulator.events", self.events_processed - start_events)
            for publish in self._publishers:
                publish(_METRICS)


class Medium:
    """The shared 60 GHz channel.

    Tracks active transmissions, accumulates interference seen by each
    in-flight frame, decides delivery at frame end, and offers carrier
    sensing plus become-idle callbacks to CSMA stations.

    All frames ever transmitted are appended to :attr:`history`, which
    the measurement models and analyses consume.

    Link powers and frame error probabilities are memoized (see the
    module docstring for when the link memo is cleared).
    """

    class _ActiveTransmission:
        """A frame on the air: what the interference bookkeeping needs.

        Compared by identity: two frames with equal fields are still
        two frames.  It keeps no reference to its medium or to the
        frame's ``on_complete``: the frame-end event holds those (see
        :meth:`Medium.transmit`), so the medium's list of frames on the
        air never leads back to the medium.
        """

        __slots__ = ("record", "wide", "tx", "rx", "signal_dbm", "max_interference_mw")

        def __init__(
            self,
            medium: "Medium",
            record: FrameRecord,
            tx: Station,
            rx: Optional[Station],
        ):
            self.record = record
            self.wide = wide = record.kind.uses_wide_pattern()
            self.tx = tx
            self.rx = rx
            # Received power at the intended receiver (unicast only);
            # memo hits are read inline.
            self.signal_dbm = None if rx is None else (
                medium._links.get((tx, rx, wide)) or medium._link(tx, rx, wide)
            )[0]
            self.max_interference_mw = 0.0

    def __init__(
        self,
        sim: Simulator,
        coupling: CouplingModel,
        budget: LinkBudget = LinkBudget(),
        capture_history: bool = True,
    ):
        self._sim = sim
        self._coupling = coupling
        self._budget = budget
        self._noise_mw = db_to_linear_scalar(budget.noise_floor_dbm())
        self._active: List[Medium._ActiveTransmission] = []
        self._stations: Dict[str, Station] = {}
        self._idle_waiters: List[Tuple[Station, Callable[[], None]]] = []
        # Virtual carrier sensing: per-station NAV expiry times set by
        # decoded RTS/CTS duration fields.
        self._nav_expiry: Dict[str, float] = {}
        self.history: List[FrameRecord] = []
        self._capture_history = capture_history
        # (tx, rx, wide) -> received (dBm, mW);
        # (signal dBm, worst interference mW, MCS) -> FER.
        self._links: Dict[Tuple[Station, Station, bool], Tuple[float, float]] = {}
        self._fer: Dict[Tuple[float, float, int], float] = {}
        coupling.watch(self._links.clear)
        #: Frames put on air so far; published as ``mac.medium.frames``.
        self.frames_sent = 0
        self._frames_published = 0
        sim.add_publisher(self._publish_metrics)
        sim.on_close(self._close)

    def _close(self) -> None:
        # The waiters' callbacks lead back here through their links,
        # and the link memo's keys through each station's watchers.
        self._idle_waiters = []
        self._links.clear()

    def _publish_metrics(self, metrics: MetricsRegistry) -> None:
        new = self.frames_sent - self._frames_published
        if new:
            metrics.add("mac.medium.frames", new)
            self._frames_published = self.frames_sent

    @property
    def budget(self) -> LinkBudget:
        return self._budget

    @property
    def coupling(self) -> CouplingModel:
        """The coupling model resolving station path gains."""
        return self._coupling

    def register(self, station: Station) -> None:
        """Add a station to the simulation."""
        if station.name in self._stations:
            raise ValueError(f"duplicate station name {station.name!r}")
        self._stations[station.name] = station
        station.watch(self._links.clear)

    def station(self, name: str) -> Station:
        return self._stations[name]

    # -- power bookkeeping ---------------------------------------------

    def _link(self, tx: Station, rx: Station, wide: bool) -> Tuple[float, float]:
        """Received power at ``rx`` of ``tx``'s frames: (dBm, mW).

        ``wide`` selects the wide patterns and boosted power of
        beacons and discovery frames.
        """
        key = (tx, rx, wide)
        link = self._links.get(key)
        if link is None:
            kind = FrameKind.BEACON if wide else FrameKind.DATA
            power = tx.tx_power_for(kind) + self._coupling.coupling_db(tx, rx, wide)
            link = self._links[key] = (power, db_to_linear_scalar(power))
        return link

    def sensed_power_dbm(self, station: Station) -> float:
        """Total in-band power the station currently detects (dBm)."""
        total_mw = 0.0
        for act in self._active:
            if act.tx is station or act.tx.channel != station.channel:
                continue
            total_mw += self._link(act.tx, station, act.wide)[1]
        return linear_to_db_scalar(total_mw)

    def channel_busy_for(self, station: Station) -> bool:
        """CCA verdict: energy detection OR an unexpired NAV."""
        if self._nav_expiry.get(station.name, 0.0) > self._sim.now:
            return True
        return self.sensed_power_dbm(station) >= station.cca_threshold_dbm

    def nav_remaining_s(self, station: Station) -> float:
        """Seconds of virtual-carrier reservation left for a station."""
        return max(0.0, self._nav_expiry.get(station.name, 0.0) - self._sim.now)

    def wait_for_idle(self, station: Station, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once CCA reports idle for the station.

        Fires immediately (via a zero-delay event) if already idle.
        """
        if not self.channel_busy_for(station):
            self._sim.schedule(0.0, callback)
            return
        self._idle_waiters.append((station, callback))
        # Frame-end events re-check waiters; a NAV can outlive every
        # frame, so also schedule a wake-up at its expiry.
        nav_left = self.nav_remaining_s(station)
        if nav_left > 0:
            self._sim.schedule(nav_left + 1e-9, self._notify_idle_waiters)

    def _notify_idle_waiters(self) -> None:
        if not self._idle_waiters:
            return
        still_waiting: List[Tuple[Station, Callable[[], None]]] = []
        for station, callback in self._idle_waiters:
            if self.channel_busy_for(station):
                still_waiting.append((station, callback))
            else:
                self._sim.schedule(0.0, callback)
        self._idle_waiters = still_waiting

    # -- transmission lifecycle -----------------------------------------

    def transmit(
        self,
        record: FrameRecord,
        on_complete: Optional[Callable[[FrameRecord, bool], None]] = None,
    ) -> None:
        """Put a frame on the air.

        ``on_complete(record, delivered)`` fires when the frame ends.
        Delivery of unicast frames is evaluated from the worst SINR the
        frame saw; broadcast frames complete with ``delivered`` False
        and keep ``record.delivered`` None.
        """
        tx = self._stations[record.source]
        rx = self._stations.get(record.destination) if record.destination else None
        act = self._ActiveTransmission(self, record, tx, rx)
        wide = act.wide
        self.frames_sent += 1

        # This new transmission interferes with every in-flight frame
        # whose receiver can hear it — and vice versa.  A station never
        # interferes with its own frames (it is half-duplex and its
        # self-coupling is not a propagation path).  Memo hits are read
        # inline; ``_link`` fills misses.
        links = self._links
        worst_mw = 0.0  # the new frame's worst interference so far
        for other in self._active:
            other_tx, other_rx = other.tx, other.rx
            if (
                other_rx is not None
                and other_tx is not tx
                and other_rx is not tx
                and other_rx.channel == tx.channel
            ):
                mw = (links.get((tx, other_rx, wide)) or self._link(tx, other_rx, wide))[1]
                if mw > other.max_interference_mw:
                    other.max_interference_mw = mw
            if (
                rx is not None
                and other_tx is not tx
                and other_tx is not rx
                and other_tx.channel == rx.channel
            ):
                other_wide = other.wide
                mw = (
                    links.get((other_tx, rx, other_wide)) or self._link(other_tx, rx, other_wide)
                )[1]
                if mw > worst_mw:
                    worst_mw = mw
        act.max_interference_mw = worst_mw

        self._active.append(act)
        if self._capture_history:
            self.history.append(record)
        if record.nav_duration_s > 0:
            self._apply_nav(record, tx, rx)

        medium = self  # the frame-end event's only way back here

        def finish() -> None:
            """End the frame: judge delivery, wake waiters, report.

            A unicast frame is delivered with probability ``1 - FER``
            at its worst SINR (one RNG draw).  The FER memo is keyed
            on that SINR's inputs, so a hit skips the logarithm.
            """
            medium._active.remove(act)
            record = act.record
            if act.rx is None:
                delivered = False  # broadcast: record.delivered stays None
            else:
                signal_dbm, interference_mw = act.signal_dbm, act.max_interference_mw
                key = (signal_dbm, interference_mw, record.mcs_index)
                fer = medium._fer.get(key)
                if fer is None:
                    sinr_db = signal_dbm - linear_to_db_scalar(
                        medium._noise_mw + interference_mw
                    )
                    fer = medium._fer[key] = frame_error_probability(
                        sinr_db, mcs_by_index(record.mcs_index)
                    )
                record.delivered = delivered = medium._sim.rng.random() >= fer
            if medium._idle_waiters:
                medium._notify_idle_waiters()
            if on_complete is not None:
                on_complete(record, delivered)

        self._sim.schedule(record.duration_s, finish)

    def _apply_nav(self, record: FrameRecord, tx: Station, rx: Optional[Station]) -> None:
        """Third parties that decode a reserving frame set their NAV.

        Decoding is approximated by an instantaneous power check
        against the control-PHY sensitivity — stations the frame
        reaches only through deep side lobes stay hidden, which is how
        hidden-terminal residue survives even with RTS/CTS (and why
        the blind WiHD interferer is unaffected: it never listens).
        """
        expiry = record.end_s + record.nav_duration_s
        wide = record.kind.uses_wide_pattern()
        for station in self._stations.values():
            if station is tx or station is rx:
                continue
            if station.channel != tx.channel:
                continue
            power = self._link(tx, station, wide)[0]
            if power >= NAV_DECODE_THRESHOLD_DBM:
                self._nav_expiry[station.name] = max(
                    self._nav_expiry.get(station.name, 0.0), expiry
                )

    def active_count(self) -> int:
        """Number of frames currently on the air."""
        return len(self._active)
