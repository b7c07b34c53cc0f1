"""Dell D5000 docking station and Latitude E7440 notebook models.

The teardown in Section 3.1 found both sides of the WiGig link to be
Wilocity designs: a baseband chip, an upconverter, and a **2x8 element
antenna array**.  The dock services a nominal 120-degree cone; the
notebook's antenna sits at the side of the lid, which the paper blames
for the asymmetry of its measured pattern (Figure 17, left).

Both factories build a :class:`~repro.devices.base.RadioDevice` with:

* a 2x8 uniform rectangular array at 60.48 GHz with 2-bit phase
  shifters (the consumer-grade cost saving that raises side lobes);
* a 32-entry directional codebook spanning the 120-degree sector plus
  the 32 quasi-omni discovery patterns of Figure 16;
* per-unit randomized element errors, seeded by ``unit_seed`` so each
  simulated unit has a stable pattern personality.

The array and codebook depend only on ``(unit_seed, frequency_hz,
pattern_points)``, so a unit is built once per process per key and
shared, read-only, by every device built from it.  Each call still
returns a fresh :class:`RadioDevice` with its own name, pose, powers
and active beam.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.devices.base import RadioDevice
from repro.geometry.vec import Vec2
from repro.phy.antenna import PhaseShifterModel, UniformRectangularArray
from repro.phy.channel import SIXTY_GHZ
from repro.phy.codebook import Codebook

#: Nominal serviceable sector of the D5000 (Section 3.1).
D5000_SECTOR_DEG = 120.0

#: Number of quasi-omni patterns swept during discovery (Section 4.2).
D5000_DISCOVERY_PATTERNS = 32

#: Per-element error model of a Wilocity array, by mounting:
#: (amplitude error std dB, phase error std rad, scatter level dB).
_DOCK_ERRORS = (0.5, 0.15, -4.5)
#: Lid placement: stronger installation-dependent errors and stronger
#: enclosure scattering (the lid is a reflector).
_LID_ERRORS = (1.0, 0.3, -4.0)


@functools.lru_cache(maxsize=16)
def _wilocity_unit(
    errors: Tuple[float, float, float],
    unit_seed: int,
    frequency_hz: float,
    pattern_points: int,
) -> Tuple[UniformRectangularArray, Codebook]:
    """The immutable part of a Wilocity unit: its 2x8 array and codebook."""
    amplitude_error_std_db, phase_error_std_rad, scatter_level_db = errors
    array = UniformRectangularArray(
        rows=2,
        cols=8,
        frequency_hz=frequency_hz,
        phase_shifter=PhaseShifterModel(bits=2),
        element_gain_dbi=5.0,
        amplitude_error_std_db=amplitude_error_std_db,
        phase_error_std_rad=phase_error_std_rad,
        scatter_level_db=scatter_level_db,
        rng=np.random.default_rng(unit_seed),
    )
    codebook = Codebook.build(
        array,
        sector_width_deg=D5000_SECTOR_DEG,
        num_directional=32,
        num_quasi_omni=D5000_DISCOVERY_PATTERNS,
        quasi_omni_seed=unit_seed,
        pattern_points=pattern_points,
    )
    return array, codebook


def _wilocity_device(
    errors: Tuple[float, float, float],
    name: str,
    position: Vec2,
    orientation_rad: float,
    unit_seed: int,
    frequency_hz: float,
    pattern_points: int,
) -> RadioDevice:
    array, codebook = _wilocity_unit(errors, unit_seed, frequency_hz, pattern_points)
    return RadioDevice(
        name=name,
        array=array,
        codebook=codebook,
        position=position,
        orientation_rad=orientation_rad,
        tx_power_dbm=10.0,
        control_power_boost_db=5.0,
        cca_threshold_dbm=-60.0,
    )


def make_d5000_dock(
    name: str = "dock",
    position: Vec2 = Vec2(0.0, 0.0),
    orientation_rad: float = 0.0,
    unit_seed: int = 8,
    frequency_hz: float = SIXTY_GHZ,
    pattern_points: int = 720,
) -> RadioDevice:
    """Build a Dell D5000 docking station model."""
    return _wilocity_device(
        _DOCK_ERRORS, name, position, orientation_rad, unit_seed, frequency_hz, pattern_points
    )


def make_e7440_laptop(
    name: str = "laptop",
    position: Vec2 = Vec2(2.0, 0.0),
    orientation_rad: float = 3.141592653589793,
    unit_seed: int = 21,
    frequency_hz: float = SIXTY_GHZ,
    pattern_points: int = 720,
) -> RadioDevice:
    """Build a Latitude E7440 notebook (WiGig remote station) model.

    The notebook's array is mounted at the side of the lid; we model
    the resulting asymmetry with larger per-element errors and a
    slightly offset serviceable sector, which skews the measured
    pattern like the left plot of Figure 17.
    """
    return _wilocity_device(
        _LID_ERRORS, name, position, orientation_rad, unit_seed, frequency_hz, pattern_points
    )
