"""Frame kinds, timing constants, and on-air frame records.

All timing constants trace back to measurements in the paper:

* Table 1 — D5000 discovery every 102.4 ms, D5000 beacons every 1.1 ms,
  WiHD discovery every 20 ms, WiHD beacons every 0.224 ms;
* Section 4.1 — WiGig bursts of at most 2 ms opened by two control
  frames (most probably RTS/CTS); data frames either short (~5 us) or
  long (15-25 us) depending on aggregation; the maximum observed
  aggregate is 25 us;
* Figure 3 — the device discovery frame lasts ~1 ms and consists of 32
  sub-elements, one per quasi-omni pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class FrameKind(enum.Enum):
    """Over-the-air frame classes distinguishable in the traces."""

    DATA = "data"
    ACK = "ack"
    BEACON = "beacon"
    DISCOVERY = "discovery"
    RTS = "rts"
    CTS = "cts"
    #: Responder sector-sweep frame sent in an A-BFT slot.
    SSW = "ssw"
    #: Association handshake frames closing the link setup.
    ASSOC_REQ = "assoc_req"
    ASSOC_RESP = "assoc_resp"

    def uses_wide_pattern(self) -> bool:
        """Frames sent over wide patterns at boosted power.

        Only pre-association traffic (beacons, discovery sweeps) uses
        quasi-omni patterns; RTS/CTS and ACKs inside a trained link
        ride the directional data beams.
        """
        return self._wide_pattern


# Both predicates run on every power computation of the medium, so
# each member stores its answers instead of scanning a tuple per call.
_CONTROL_KINDS = frozenset({
    FrameKind.BEACON,
    FrameKind.DISCOVERY,
    FrameKind.RTS,
    FrameKind.CTS,
    FrameKind.SSW,
    FrameKind.ASSOC_REQ,
    FrameKind.ASSOC_RESP,
})
_WIDE_PATTERN_KINDS = frozenset({FrameKind.BEACON, FrameKind.DISCOVERY})
for _kind in FrameKind:
    _kind._control = _kind in _CONTROL_KINDS
    _kind._wide_pattern = _kind in _WIDE_PATTERN_KINDS
del _kind


@dataclass(frozen=True)
class MacTiming:
    """Timing parameters of one MAC flavor (all seconds)."""

    beacon_interval_s: float
    discovery_interval_s: float
    discovery_frame_s: float
    beacon_frame_s: float
    sifs_s: float
    slot_s: float
    ack_frame_s: float
    rts_frame_s: float
    cts_frame_s: float
    max_burst_s: float
    min_data_frame_s: float
    max_data_frame_s: float

    def __post_init__(self) -> None:
        if self.min_data_frame_s <= 0 or self.max_data_frame_s < self.min_data_frame_s:
            raise ValueError("invalid data frame duration bounds")


#: WiGig (Dell D5000) timing.  SIFS/slot values follow 802.11ad (3 us
#: SIFS, 5 us slot); frame-length bounds follow the paper's Figure 9.
WIGIG_TIMING = MacTiming(
    beacon_interval_s=1.1e-3,
    discovery_interval_s=102.4e-3,
    discovery_frame_s=1.0e-3,
    beacon_frame_s=6.0e-6,
    sifs_s=3.0e-6,
    slot_s=5.0e-6,
    ack_frame_s=2.0e-6,
    rts_frame_s=3.0e-6,
    cts_frame_s=3.0e-6,
    max_burst_s=2.0e-3,
    min_data_frame_s=5.0e-6,
    max_data_frame_s=25.0e-6,
)

#: WiHD (DVDO Air-3c) timing.  Beacons every 0.224 ms from the
#: *receiver*; data frames are variable length and not acknowledged
#: per-frame in a way visible in the traces (Figure 15).
WIHD_TIMING = MacTiming(
    beacon_interval_s=0.224e-3,
    discovery_interval_s=20.0e-3,
    discovery_frame_s=0.8e-3,
    beacon_frame_s=4.0e-6,
    sifs_s=2.0e-6,
    slot_s=0.0,  # no carrier sensing: slotting is meaningless
    ack_frame_s=0.0,
    rts_frame_s=0.0,
    cts_frame_s=0.0,
    max_burst_s=0.224e-3,  # data fits between consecutive beacons
    min_data_frame_s=10.0e-6,
    max_data_frame_s=120.0e-6,
)

#: Number of quasi-omni sub-elements in the D5000 discovery frame.
DISCOVERY_SUBELEMENTS = 32


@dataclass(slots=True)
class FrameRecord:
    """Ground-truth record of one frame put on the air by the simulator.

    The Vubiq model converts these into :class:`repro.phy.signal.Emission`
    objects (what a measurement receiver would see); analysis code is
    tested against the ground truth.

    The class is slotted: a record holds exactly the fields below and
    takes no other attributes.  The field order is part of the
    interface, since the MAC hot paths build records positionally
    (``FrameRecord(start_s, duration_s, source, destination, kind,
    ...)``); append new fields at the end, never reorder.

    Attributes:
        start_s: Transmission start time.
        duration_s: On-air duration.
        source: Station name of the transmitter.
        destination: Station name of the intended receiver ("" for
            broadcast frames such as beacons and discovery sweeps).
        kind: Frame class.
        mcs_index: MCS used (0 for control frames).
        payload_bits: MAC payload carried (0 for control frames).
        aggregated_mpdus: Number of MPDUs aggregated into the frame.
        delivered: Whether the intended receiver decoded it (set by the
            medium at frame end; None for broadcast frames).
        retransmission: Whether this is a retry of an earlier frame.
        nav_duration_s: Network-allocation-vector reservation carried
            by the frame's duration field: third parties that decode
            the frame treat the channel as busy for this long *beyond*
            the frame's own end.  RTS/CTS frames use it to reserve
            their TXOP (virtual carrier sensing).
    """

    start_s: float
    duration_s: float
    source: str
    destination: str
    kind: FrameKind
    mcs_index: int = 0
    payload_bits: int = 0
    aggregated_mpdus: int = 0
    delivered: Optional[bool] = None
    retransmission: bool = False
    nav_duration_s: float = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN fails both checks.
        if not (self.duration_s > 0):
            raise ValueError("frame duration must be positive")
        if not (self.start_s >= 0):
            raise ValueError("frame start must be non-negative")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def overlaps(self, other: "FrameRecord") -> bool:
        """Whether two frames are on the air simultaneously."""
        return self.start_s < other.end_s and other.start_s < self.end_s
