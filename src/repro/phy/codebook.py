"""Beam codebooks: predefined steering entries and discovery sweeps.

Millimeter-wave systems steer beams by selecting entries from a
codebook of precomputed antenna weights rather than by continuous
adaptation (Section 2, "Beam Steering").  A :class:`Codebook` bundles:

* a set of *directional* entries covering the serviceable sector
  (the D5000 services a nominal 120-degree cone), and
* a set of *quasi-omni* entries swept during device discovery
  (the D5000 sweeps 32 of them, Section 4.2).

Entries hold their computed :class:`~repro.phy.antenna.AntennaPattern`,
so link-budget evaluations never re-synthesize a beam.  A device unit's
codebook is built once per process and shared by every device built
from that unit, so entries are frozen, the codebook holds tuples, and
the pattern arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.phy.antenna import AntennaPattern, PhasedArray


@dataclass(frozen=True)
class CodebookEntry:
    """One selectable beam: an identifier, its intent, and its pattern."""

    index: int
    kind: str  # "directional" or "quasi_omni"
    steering_azimuth_rad: Optional[float]
    pattern: AntennaPattern = field(repr=False)

    def peak_direction_rad(self) -> float:
        """Azimuth where the realized pattern actually peaks.

        For imperfect hardware this deviates from the nominal steering
        direction; the deviation itself is a measurable imperfection.
        """
        azimuth, _ = self.pattern.peak()
        return azimuth


class Codebook:
    """The set of beams a device can select from."""

    def __init__(
        self,
        directional: Sequence[CodebookEntry],
        quasi_omni: Sequence[CodebookEntry],
    ):
        if not directional:
            raise ValueError("codebook needs at least one directional entry")
        self._directional = tuple(directional)
        self._quasi_omni = tuple(quasi_omni)

    @property
    def directional_entries(self) -> Tuple[CodebookEntry, ...]:
        return self._directional

    @property
    def quasi_omni_entries(self) -> Tuple[CodebookEntry, ...]:
        return self._quasi_omni

    @property
    def num_discovery_patterns(self) -> int:
        """Number of quasi-omni patterns swept during discovery."""
        return len(self._quasi_omni)

    def best_entry_toward(self, azimuth_rad: float) -> CodebookEntry:
        """Directional entry with the highest gain toward a direction.

        This models the outcome of beam training: the devices under
        test pick the codebook beam that maximizes link gain toward
        their peer.  Because patterns are imperfect, the chosen entry
        is not always the nominally-closest steering angle.
        """
        return max(
            self._directional,
            key=lambda e: e.pattern.gain_dbi(azimuth_rad),
        )

    def entry(self, index: int, kind: str = "directional") -> CodebookEntry:
        """Fetch an entry by index within its kind."""
        pool = self._directional if kind == "directional" else self._quasi_omni
        for e in pool:
            if e.index == index:
                return e
        raise KeyError(f"no {kind} entry with index {index}")

    @staticmethod
    def build(
        array: PhasedArray,
        sector_width_deg: float = 120.0,
        num_directional: int = 32,
        num_quasi_omni: int = 32,
        quasi_omni_seed: int = 1,
        pattern_points: int = 720,
    ) -> "Codebook":
        """Construct a codebook for a phased array.

        Directional entries steer to ``num_directional`` azimuths evenly
        spanning the serviceable sector (centered on broadside).
        Quasi-omni entries use randomized subarray activations (see
        :meth:`PhasedArray.quasi_omni_pattern`), seeded per entry so the
        sweep is deterministic for a given device.
        """
        if num_directional < 1:
            raise ValueError("need at least one directional entry")
        if sector_width_deg <= 0 or sector_width_deg > 360:
            raise ValueError("sector width must be in (0, 360]")
        half = math.radians(sector_width_deg) / 2.0
        if num_directional == 1:
            azimuths = [0.0]
        else:
            azimuths = list(np.linspace(-half, half, num_directional))
        directional = [
            CodebookEntry(
                index=i,
                kind="directional",
                steering_azimuth_rad=float(az),
                pattern=array.steered_pattern(float(az), points=pattern_points),
            )
            for i, az in enumerate(azimuths)
        ]
        quasi_omni = [
            CodebookEntry(
                index=i,
                kind="quasi_omni",
                steering_azimuth_rad=None,
                pattern=array.quasi_omni_pattern(
                    seed=quasi_omni_seed * 1000 + i, points=pattern_points
                ),
            )
            for i in range(num_quasi_omni)
        ]
        return Codebook(directional, quasi_omni)
