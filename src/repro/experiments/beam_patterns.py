"""Beam-pattern measurement campaigns (Section 4.2, Figures 16/17).

The outdoor semicircle procedure is implemented by
:class:`repro.core.beams.BeamPatternCampaign`; this module wires it to
the paper's three measurements:

* the laptop's data-transmission pattern (Figure 17, left);
* the dock's data-transmission pattern, aligned (Figure 17, right);
* the dock's pattern with the notebook misaligned by 70 degrees
  (Figure 17, overlay), measured with +10 dB receiver gain;
* the 32 quasi-omni discovery patterns (Figure 16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.core.beams import BeamPatternCampaign, MeasuredPattern
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.experiments.common import misalignment_70deg
from repro.geometry.vec import Vec2
from repro.mac.frames import FrameKind


@dataclass(frozen=True)
class PatternMetrics:
    """Summary statistics of one measured pattern."""

    label: str
    hpbw_deg: float
    side_lobe_db: float
    peak_power_dbm: float
    gap_depth_db: float

    @staticmethod
    def from_measurement(label: str, measured: MeasuredPattern) -> "PatternMetrics":
        pattern = measured.as_pattern()
        return PatternMetrics(
            label=label,
            hpbw_deg=pattern.half_power_beam_width_deg(),
            side_lobe_db=pattern.side_lobe_level_db(),
            peak_power_dbm=float(measured.power_dbm.max()),
            gap_depth_db=pattern.gap_depth_db(),
        )

    def row(self) -> str:
        return (
            f"{self.label:>16}: HPBW {self.hpbw_deg:5.1f} deg  "
            f"side lobes {self.side_lobe_db:6.1f} dB  "
            f"peak {self.peak_power_dbm:7.1f} dBm"
        )


def measure_laptop_pattern(positions: int = 100, seed: int = 0) -> MeasuredPattern:
    """Figure 17 (left): the E7440 notebook's trained data beam."""
    laptop = make_e7440_laptop(position=Vec2(0.0, 0.0), orientation_rad=0.0)
    # Peer straight ahead at 2 m: the trained beam points broadside.
    laptop.train_toward(Vec2(2.0, 0.0))
    campaign = BeamPatternCampaign(
        laptop, positions=positions, position_jitter_m=0.03, seed=seed
    )
    return campaign.measure(kind=FrameKind.DATA)


def measure_dock_pattern(
    misalignment_rad: float = 0.0,
    positions: int = 100,
    seed: int = 1,
) -> MeasuredPattern:
    """Figure 17 (right): the dock's data beam, aligned or rotated.

    With ``misalignment_rad`` set (70 degrees in the paper), the dock
    must steer toward the boundary of its transmission area; the
    measurement needs extra receiver gain, as in the paper.
    """
    dock = make_d5000_dock(position=Vec2(0.0, 0.0), orientation_rad=0.0)
    peer_bearing = misalignment_rad
    dock.train_toward(Vec2.from_polar(2.0, peer_bearing))
    extra_gain = 10.0 if abs(misalignment_rad) > math.radians(30) else 0.0
    campaign = BeamPatternCampaign(
        dock,
        positions=positions,
        position_jitter_m=0.03,
        seed=seed,
        extra_gain_db=extra_gain,
    )
    return campaign.measure(kind=FrameKind.DATA)


def measure_dock_rotated_pattern(positions: int = 100, seed: int = 2) -> MeasuredPattern:
    """The 70-degree misaligned dock measurement of Figure 17."""
    return measure_dock_pattern(
        misalignment_rad=misalignment_70deg(), positions=positions, seed=seed
    )


def measure_discovery_patterns(
    count: int = 4,
    positions: int = 60,
    seed: int = 3,
) -> List[MeasuredPattern]:
    """Figure 16: quasi-omni discovery patterns of the dock.

    ``count`` selects how many of the 32 sub-element patterns to
    measure (the paper plots four; the benchmark sweeps all).
    """
    dock = make_d5000_dock(position=Vec2(0.0, 0.0), orientation_rad=0.0)
    campaign = BeamPatternCampaign(dock, positions=positions, seed=seed)
    total = len(dock.codebook.quasi_omni_entries)
    count = min(count, total)
    return [
        campaign.measure(kind=FrameKind.DISCOVERY, subelement=i, frames_per_position=10)
        for i in range(count)
    ]


def directional_pattern_report(positions: int = 100) -> List[PatternMetrics]:
    """The Figure 17 summary rows: laptop, dock, rotated dock."""
    rows = [
        PatternMetrics.from_measurement("laptop", measure_laptop_pattern(positions)),
        PatternMetrics.from_measurement("dock aligned", measure_dock_pattern(0.0, positions)),
        PatternMetrics.from_measurement(
            "dock rotated 70", measure_dock_rotated_pattern(positions)
        ),
    ]
    return rows


# -- campaign integration ------------------------------------------------------

#: The semicircle setups swept by the ``beam-patterns`` campaign.
PATTERN_SETUPS = ("laptop", "dock_aligned", "dock_rotated_70")

SETUP_LABELS = {
    "laptop": "laptop",
    "dock_aligned": "dock aligned",
    "dock_rotated_70": "dock rotated 70",
}


def pattern_cell(
    *,
    setup: str,
    positions: int = 100,
    seed: int = 0,
) -> dict:
    """One cell of the semicircle campaign: measure one setup.

    This is the unit the campaign engine runs and caches; ``seed``
    makes repeated measurements distinct cache entries.  Returns the
    :class:`PatternMetrics` fields as JSON-style data.
    """
    if setup == "laptop":
        measured = measure_laptop_pattern(positions=positions, seed=seed)
    elif setup == "dock_aligned":
        measured = measure_dock_pattern(0.0, positions=positions, seed=seed)
    elif setup == "dock_rotated_70":
        measured = measure_dock_pattern(
            misalignment_70deg(), positions=positions, seed=seed
        )
    else:
        raise ValueError(f"unknown pattern setup {setup!r} (want one of {PATTERN_SETUPS})")
    metrics = PatternMetrics.from_measurement(SETUP_LABELS[setup], measured)
    return {
        "setup": setup,
        "label": metrics.label,
        "positions": positions,
        "hpbw_deg": metrics.hpbw_deg,
        "side_lobe_db": metrics.side_lobe_db,
        "peak_power_dbm": metrics.peak_power_dbm,
        "gap_depth_db": metrics.gap_depth_db,
    }
