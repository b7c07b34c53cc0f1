"""802.11ad / WiGig single-carrier modulation and coding schemes.

The Dell D5000's reported link rates match the single-carrier MCS table
of the standard (Section 4.1, Figure 12): the paper annotates measured
rates with BPSK 3/4, QPSK 1/2, QPSK 5/8, QPSK 3/4, and 16-QAM 5/8, and
notes that the highest MCS (16-QAM 3/4, 4620 mbps) was never observed.

This module carries the full SC MCS table (MCS 1-12) with PHY rates and
approximate SNR thresholds, plus the control-PHY MCS 0.  Thresholds
follow the usual link-abstraction values for the required SNR at 1%
PER over a 1.76 GHz channel; the *spacing* between levels is what
matters for reproducing rate-vs-distance shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class MCS:
    """One modulation-and-coding scheme.

    Attributes:
        index: MCS index per the 802.11ad SC table (0 = control PHY).
        modulation: Constellation name.
        code_rate: FEC code rate.
        phy_rate_bps: PHY data rate in bits/second.
        min_snr_db: Approximate SNR needed for reliable operation.
    """

    index: int
    modulation: str
    code_rate: str
    phy_rate_bps: float
    min_snr_db: float

    @property
    def phy_rate_gbps(self) -> float:
        return self.phy_rate_bps / 1e9

    def label(self) -> str:
        """Human-readable label as used in Figure 12 ("QPSK, 3/4")."""
        return f"{self.modulation}, {self.code_rate}"


#: Control PHY: MCS 0, DBPSK spread, 27.5 mbps.  Used for beacons and
#: discovery frames, transmitted "with higher power and wider antenna
#: patterns" per Section 3.2.
CONTROL_MCS = MCS(0, "DBPSK", "1/2", 27.5e6, -8.0)

#: The single-carrier MCS table (802.11ad Table 21-14, rates in bps).
MCS_TABLE: List[MCS] = [
    MCS(1, "BPSK", "1/2", 385.0e6, 1.0),
    MCS(2, "BPSK", "1/2", 770.0e6, 2.5),
    MCS(3, "BPSK", "5/8", 962.5e6, 3.5),
    MCS(4, "BPSK", "3/4", 1155.0e6, 4.5),
    MCS(5, "BPSK", "13/16", 1251.25e6, 5.0),
    MCS(6, "QPSK", "1/2", 1540.0e6, 6.0),
    MCS(7, "QPSK", "5/8", 1925.0e6, 7.5),
    MCS(8, "QPSK", "3/4", 2310.0e6, 9.0),
    MCS(9, "QPSK", "13/16", 2502.5e6, 10.0),
    MCS(10, "16-QAM", "1/2", 3080.0e6, 12.0),
    MCS(11, "16-QAM", "5/8", 3850.0e6, 14.0),
    MCS(12, "16-QAM", "3/4", 4620.0e6, 16.5),
]

#: The highest MCS the paper ever observed on the D5000 (16-QAM 5/8 at
#: 3850 mbps); the devices appear not to use MCS 12 at all.
MAX_OBSERVED_MCS_INDEX = 11

#: The 802.11ad OFDM PHY (MCS 13-24, Table 21-18).  The devices under
#: test are single-carrier only — the paper notes the reported rates
#: "match the MCS levels defined in the standard for single-carrier
#: mode" — but the OFDM table is carried for what-if analyses: it
#: trades ~1-2 dB of required SNR for up to 6.76 gbps peak rate, at
#: implementation cost consumer hardware avoided.
OFDM_MCS_TABLE: List[MCS] = [
    MCS(13, "SQPSK", "1/2", 693.00e6, 2.5),
    MCS(14, "SQPSK", "5/8", 866.25e6, 3.5),
    MCS(15, "QPSK", "1/2", 1386.00e6, 5.0),
    MCS(16, "QPSK", "5/8", 1732.50e6, 6.5),
    MCS(17, "QPSK", "3/4", 2079.00e6, 8.0),
    MCS(18, "16-QAM", "1/2", 2772.00e6, 10.5),
    MCS(19, "16-QAM", "5/8", 3465.00e6, 12.5),
    MCS(20, "16-QAM", "3/4", 4158.00e6, 15.0),
    MCS(21, "16-QAM", "13/16", 4504.50e6, 16.0),
    MCS(22, "64-QAM", "5/8", 5197.50e6, 18.5),
    MCS(23, "64-QAM", "3/4", 6237.00e6, 20.5),
    MCS(24, "64-QAM", "13/16", 6756.75e6, 22.0),
]


#: Index -> MCS.  Built in reverse so that, as in a first-match scan,
#: the first table listing an index wins (control, then SC, then OFDM).
_MCS_BY_INDEX: Dict[int, MCS] = {
    mcs.index: mcs for mcs in reversed((CONTROL_MCS, *MCS_TABLE, *OFDM_MCS_TABLE))
}


def mcs_by_index(index: int) -> MCS:
    """Look up an MCS by its standard index (SC, OFDM, or control)."""
    try:
        return _MCS_BY_INDEX[index]
    except (KeyError, TypeError):
        raise KeyError(f"no MCS with index {index}") from None


def select_mcs(
    snr_db: float,
    backoff_db: float = 2.0,
    max_index: int = MAX_OBSERVED_MCS_INDEX,
    table: Optional[Sequence[MCS]] = None,
) -> Optional[MCS]:
    """Pick the fastest MCS whose threshold the SNR clears.

    Args:
        snr_db: Link SNR (or SINR under interference).
        backoff_db: Implementation margin the rate controller keeps
            above the theoretical threshold.  Real rate adaptation is
            conservative; 2 dB reproduces the paper's observation that
            the top MCS is never used even on short links.
        max_index: Cap on the usable MCS (device policy).
        table: Alternate MCS table (for ablations).

    Returns:
        The selected MCS, or None when even MCS 1 is not sustainable —
        the paper's "links often break before the transmitter switches
        to rates below 1 gbps" regime.
    """
    candidates = [m for m in (table if table is not None else MCS_TABLE) if m.index <= max_index]
    best: Optional[MCS] = None
    for mcs in candidates:
        if snr_db >= mcs.min_snr_db + backoff_db:
            if best is None or mcs.phy_rate_bps > best.phy_rate_bps:
                best = mcs
    return best


def frame_error_probability(snr_db: float, mcs: MCS, steepness_db: float = 1.0) -> float:
    """Smooth frame error rate model around the MCS threshold.

    A logistic ramp centered on ``min_snr_db``: well above threshold the
    FER is near zero, well below it frames are essentially always lost.
    Collisions in the MAC simulator drop the SINR, pushing the operating
    point down this curve and producing the retransmissions the paper
    observes (Figure 21a).
    """
    if steepness_db <= 0:
        raise ValueError("steepness must be positive")
    x = (snr_db - mcs.min_snr_db) / steepness_db
    # Clamp to avoid overflow in exp for extreme SNRs.
    if x > 30:
        return 0.0
    if x < -30:
        return 1.0
    return 1.0 / (1.0 + pow(2.718281828459045, x))
