"""WiHD (DVDO Air-3c) MAC model.

The WiHD system behaves very differently from WiGig (Section 4.1,
Figure 15):

* the *receiver* emits short beacons every 0.224 ms;
* the transmitter emits data frames of variable length following those
  beacons whenever video data is queued — with no visible per-frame
  acknowledgment exchange;
* there is **no carrier sensing**: the system "blindly transmits data
  causing collisions and retransmissions at the D5000 systems"
  (Section 3.2), which is the root cause of all the inter-system
  interference results (Sections 4.3, 4.4);
* while unpaired, a device discovery frame goes out every 20 ms.

The video source is a constant-bitrate stream (HDMI transport); data
queued since the last beacon is sent right after the next beacon in a
single variable-length frame, clamped to the frame-duration bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mac.frames import FrameKind, FrameRecord, MacTiming, WIHD_TIMING
from repro.mac.simulator import Medium, Simulator, Station

#: PHY rate of the WiHD high-rate PHY used for video data.  WirelessHD
#: HRP operates around 3.8 Gbps; the exact value only scales frame
#: durations.
WIHD_PHY_RATE_BPS = 3.8e9

#: Fixed per-frame on-air overhead.
WIHD_FRAME_OVERHEAD_S = 5.0e-6


class WiHDStation(Station):
    """A WiHD endpoint.  Wider patterns, no carrier sensing."""

    def __init__(self, name: str, position, **kwargs):
        kwargs.setdefault("tx_power_dbm", 12.0)
        # CCA threshold is irrelevant (never consulted) but set to an
        # impossible level for clarity.
        kwargs.setdefault("cca_threshold_dbm", 1000.0)
        super().__init__(name, position, **kwargs)


@dataclass
class WiHDLinkStats:
    """Counters accumulated by a :class:`WiHDLink`."""

    beacons_sent: int = 0
    data_frames_sent: int = 0
    bits_sent: int = 0


class WiHDLink:
    """One WiHD transmitter/receiver pair streaming video.

    Args:
        sim: Shared event loop.
        medium: Shared channel.
        transmitter: The HDMI source module.
        receiver: The HDMI sink module (beacon origin).
        video_rate_bps: Constant bitrate of the (compressed) stream.
            Set to 0 for an idle link (beacons only).
        timing: MAC timing constants.
        paired: When False the transmitter sends discovery frames every
            20 ms instead of streaming.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        transmitter: Station,
        receiver: Station,
        video_rate_bps: float = 3.0e9,
        timing: MacTiming = WIHD_TIMING,
        paired: bool = True,
    ):
        if video_rate_bps < 0:
            raise ValueError("video rate must be non-negative")
        self.sim = sim
        self.medium = medium
        self.tx = transmitter
        self.rx = receiver
        self.timing = timing
        self.stats = WiHDLinkStats()
        self._video_rate = video_rate_bps
        self._queued_bits = 0.0
        self._last_fill = sim.now
        self._paired = paired
        self._powered = True
        self._schedule_beacon()
        if not paired:
            self._schedule_discovery()

    # -- power and stream control ----------------------------------------

    def power_off(self) -> None:
        """Stop all transmissions (the Figure 23 on/off experiment)."""
        self._powered = False

    def power_on(self) -> None:
        """Resume beaconing and streaming."""
        if not self._powered:
            self._powered = True
            self._last_fill = self.sim.now
            self._queued_bits = 0.0
            self._schedule_beacon()

    def set_video_rate(self, rate_bps: float) -> None:
        """Change the stream bitrate (0 stops data, keeps beacons)."""
        if rate_bps < 0:
            raise ValueError("video rate must be non-negative")
        self._fill_queue()
        self._video_rate = rate_bps

    # -- internals ---------------------------------------------------------

    def _fill_queue(self) -> None:
        now = self.sim.now
        self._queued_bits += self._video_rate * (now - self._last_fill)
        self._last_fill = now

    def _schedule_beacon(self) -> None:
        self.sim.schedule(self.timing.beacon_interval_s, self._beacon_tick)

    def _beacon_tick(self) -> None:
        if not self._powered:
            return
        beacon = FrameRecord(
            start_s=self.sim.now,
            duration_s=self.timing.beacon_frame_s,
            source=self.rx.name,
            destination="",
            kind=FrameKind.BEACON,
        )
        self.medium.transmit(beacon)
        self.stats.beacons_sent += 1
        if self._paired:
            self.sim.schedule(
                self.timing.beacon_frame_s + self.timing.sifs_s, self._send_data
            )
        self._schedule_beacon()

    def _send_data(self) -> None:
        if not self._powered:
            return
        self._fill_queue()
        if self._queued_bits <= 0:
            return
        max_payload_time = self.timing.max_data_frame_s - WIHD_FRAME_OVERHEAD_S
        payload_time = min(self._queued_bits / WIHD_PHY_RATE_BPS, max_payload_time)
        duration = WIHD_FRAME_OVERHEAD_S + payload_time
        if duration < self.timing.min_data_frame_s:
            duration = self.timing.min_data_frame_s
        bits = payload_time * WIHD_PHY_RATE_BPS
        self._queued_bits = max(0.0, self._queued_bits - bits)
        # MCS 9 is nominal; the WiHD rate is carried by the PHY model.
        frame = FrameRecord(
            self.sim.now, duration, self.tx.name, self.rx.name, FrameKind.DATA, 9, int(bits)
        )
        self.medium.transmit(frame)
        self.stats.data_frames_sent += 1
        self.stats.bits_sent += int(bits)

    def _schedule_discovery(self) -> None:
        self.sim.schedule(self.timing.discovery_interval_s, self._discovery_tick)

    def _discovery_tick(self) -> None:
        if self._paired or not self._powered:
            return
        frame = FrameRecord(
            start_s=self.sim.now,
            duration_s=self.timing.discovery_frame_s,
            source=self.tx.name,
            destination="",
            kind=FrameKind.DISCOVERY,
        )
        self.medium.transmit(frame)
        self._schedule_discovery()
