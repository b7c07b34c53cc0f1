"""MCS and throughput versus link length (Section 4.1, Figures 12/13).

The paper's findings:

* the driver-reported PHY rate matches the single-carrier MCS table;
  the second-highest MCS (16-QAM 5/8) is reached on short links, the
  highest never;
* the rate decreases and destabilizes with distance (Figure 12 shows
  2 m / 8 m / 14 m traces);
* TCP throughput is roughly constant with distance and then falls
  *abruptly* per run — at a cliff anywhere between 10 and 17 m — so the
  *average* over runs falls gradually (Figure 13);
* the Gigabit Ethernet interface caps TCP throughput near 900 mbps.

The model: the Friis link budget of the trained beams, an additional
indoor multipath/dispersion excess that grows with distance (wideband
60 GHz links lose SNR faster than free space predicts), and slowly
varying log-normal shadowing that differs per run — which is exactly
what makes the cliff position vary between experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mac.tcp import GIGE_CAP_BPS
from repro.mac.wigig import MPDU_BITS, data_frame_duration_s
from repro.mac.frames import WIGIG_TIMING
from repro.phy.channel import LinkBudget, ShadowingProcess
from repro.phy.mcs import MCS, select_mcs

#: Combined TX+RX antenna gain of a trained D5000 link (two 2x8 arrays
#: on their main lobes).
TRAINED_LINK_GAIN_DBI = 34.0

def link_snr_db(
    distance_m: float,
    budget: LinkBudget = LinkBudget(),
    link_gain_dbi: float = TRAINED_LINK_GAIN_DBI,
    shadow_db: float = 0.0,
) -> float:
    """SNR of a trained link at a distance, with optional shadowing.

    Uses the budget's propagation model — Friis plus the indoor excess
    exponent that places the link-break cliff in the paper's 10-17 m
    band (see :class:`repro.phy.channel.LinkBudget`).
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    rx = (
        budget.tx_power_dbm
        + link_gain_dbi
        - budget.propagation_loss_db(distance_m)
        - budget.implementation_loss_db
    )
    return rx + shadow_db - budget.noise_floor_dbm()


def wigig_goodput_bps(mcs: MCS) -> float:
    """MAC goodput of a fully aggregated WiGig data/ACK cycle.

    Aggregation is limited both by the 12-MPDU ceiling and by the
    25 us maximum frame duration, so lower MCSs fit fewer MPDUs per
    frame — which is what makes TCP throughput track the MCS.
    """
    from repro.mac.wigig import max_aggregation_for

    n = max_aggregation_for(mcs)
    frame = data_frame_duration_s(n, mcs)
    cycle = frame + 2 * WIGIG_TIMING.sifs_s + WIGIG_TIMING.ack_frame_s
    return n * MPDU_BITS / cycle


@dataclass(frozen=True)
class RateSample:
    """One sample of the reported PHY rate time series (Figure 12)."""

    time_s: float
    snr_db: float
    mcs_index: int
    phy_rate_bps: float
    mcs_label: str


def phy_rate_timeseries(
    distance_m: float,
    duration_s: float = 600.0,
    sample_period_s: float = 2.0,
    seed: int = 0,
    shadowing_std_db: float = 2.0,
) -> List[RateSample]:
    """The Figure 12 measurement: reported rate over time at a distance.

    Low traffic keeps the link unloaded; the rate only moves when the
    (slowly varying) channel moves.
    """
    rng = np.random.default_rng(seed)
    shadow = ShadowingProcess(std_db=shadowing_std_db, coherence_time_s=60.0, rng=rng)
    samples = []
    t = 0.0
    while t < duration_s:
        s = shadow.advance(t)
        snr = link_snr_db(distance_m, shadow_db=s)
        mcs = select_mcs(snr)
        if mcs is None:
            samples.append(RateSample(t, snr, 0, 0.0, "link break"))
        else:
            samples.append(RateSample(t, snr, mcs.index, mcs.phy_rate_bps, mcs.label()))
        t += sample_period_s
    return samples


@dataclass
class DistanceRun:
    """One run of the Figure 13 distance sweep."""

    distances_m: np.ndarray
    throughput_bps: np.ndarray
    cliff_m: Optional[float]


def throughput_vs_distance(
    distances_m: Sequence[float] = tuple(np.arange(1.0, 21.0, 1.0)),
    runs: int = 20,
    seed: int = 0,
    run_shadow_std_db: float = 3.0,
) -> Tuple[List[DistanceRun], np.ndarray]:
    """The Figure 13 sweep: per-run curves plus the average curve.

    Each run draws a run-level shadowing offset (different day,
    different atmospherics, slightly different placement), producing
    per-run cliffs at different distances and a smooth average.

    Returns:
        (runs, average_throughput_bps) where the average is over runs
        at each distance.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    rng = np.random.default_rng(seed)
    dist = np.asarray(list(distances_m), dtype=float)
    all_runs: List[DistanceRun] = []
    for _ in range(runs):
        offset = float(rng.normal(0.0, run_shadow_std_db))
        tputs = []
        cliff: Optional[float] = None
        for d in dist:
            # Small within-run jitter on top of the run offset.
            snr = link_snr_db(d, shadow_db=offset + float(rng.normal(0.0, 0.5)))
            mcs = select_mcs(snr)
            # Section 4.1: "links become unstable and often break
            # before the transmitter switches to rates below 1 gbps" -
            # the devices never operate below BPSK 5/8 (~0.96 gbps) in
            # practice, so the link drops dead instead.
            if mcs is None or mcs.phy_rate_bps < 0.95e9:
                tputs.append(0.0)
                if cliff is None:
                    cliff = float(d)
            else:
                tputs.append(min(wigig_goodput_bps(mcs), GIGE_CAP_BPS))
        all_runs.append(
            DistanceRun(distances_m=dist.copy(), throughput_bps=np.asarray(tputs), cliff_m=cliff)
        )
    average = np.mean(np.vstack([r.throughput_bps for r in all_runs]), axis=0)
    return all_runs, average


# -- campaign integration ------------------------------------------------------

def distance_cell(
    *,
    distance_m: float,
    seed: int = 0,
    run_shadow_std_db: float = 3.0,
    jitter_std_db: float = 0.5,
) -> dict:
    """One (distance, run) cell of the Figure 13 sweep.

    ``seed`` identifies the *run*: the run-level shadowing offset is
    drawn from ``seed`` alone so every distance cell of the same run
    shares one offset (that coherence is what produces a single cliff
    per run), while the within-run jitter is drawn per cell.
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    offset = float(
        np.random.default_rng(seed).normal(0.0, run_shadow_std_db)
    )
    # [seed, 0, mm] is fixed seed material: changing it would change
    # every cell's jitter draw, and with it every published row.
    cell_rng = np.random.default_rng([seed, 0, int(round(distance_m * 1000))])
    jitter = float(cell_rng.normal(0.0, jitter_std_db))
    snr = link_snr_db(distance_m, shadow_db=offset + jitter)
    mcs = select_mcs(snr)
    # Same cliff rule as throughput_vs_distance: devices never operate
    # below ~1 gbps; the link drops dead instead.
    if mcs is None or mcs.phy_rate_bps < 0.95e9:
        return {
            "distance_m": distance_m,
            "snr_db": snr,
            "throughput_bps": 0.0,
            "mcs_index": None,
            "broke": True,
        }
    return {
        "distance_m": distance_m,
        "snr_db": snr,
        "throughput_bps": min(wigig_goodput_bps(mcs), GIGE_CAP_BPS),
        "mcs_index": mcs.index,
        "broke": False,
    }


def cliff_statistics(runs: Sequence[DistanceRun]) -> Tuple[float, float]:
    """(min, max) of per-run cliff distances, ignoring runs that never
    break within the sweep."""
    cliffs = [r.cliff_m for r in runs if r.cliff_m is not None]
    if not cliffs:
        raise ValueError("no run broke within the swept range")
    return min(cliffs), max(cliffs)
