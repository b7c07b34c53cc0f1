"""DVDO Air-3c WiHD transmitter and receiver models.

The teardown (Section 3.1) found "a 24 element antenna array with
irregular alignment in rectangular shape" on both sides of the WiHD
link.  Throughout the measurement campaign the WiHD system behaved as
the *wider-pattern* system: it outperformed the D5000 on misaligned and
blocked links, produced more and larger reflection lobes (Figure 19),
and interfered with the D5000 links over several meters.

We model that with an irregular planar array (smoother, wider beams
than a regular grid of the same element count), a wider codebook
sector, and a slightly higher transmit power (the Air-3c sustained
20 m video links, beating the D5000's 12-18 m).

The array and codebook depend only on ``(unit_seed, frequency_hz,
pattern_points)``, so a unit is built once per process per key and
shared, read-only, by every device built from it; each factory call
returns a fresh :class:`RadioDevice` with its own pose and active beam.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.devices.base import RadioDevice
from repro.geometry.vec import Vec2
from repro.phy.antenna import IrregularPlanarArray, PhaseShifterModel
from repro.phy.channel import SIXTY_GHZ
from repro.phy.codebook import Codebook

#: The Air-3c serves a wider angular range than the D5000; video worked
#: "even with 90 degree misalignment" (Section 3.1).
AIR3C_SECTOR_DEG = 180.0


@functools.lru_cache(maxsize=16)
def _air3c_unit(
    unit_seed: int, frequency_hz: float, pattern_points: int
) -> Tuple[IrregularPlanarArray, Codebook]:
    """The immutable part of an Air-3c unit: its array and codebook."""
    array = IrregularPlanarArray(
        num_elements=24,
        frequency_hz=frequency_hz,
        extent_wavelengths=(2.5, 1.8),
        placement_seed=unit_seed,
        phase_shifter=PhaseShifterModel(bits=2),
        element_gain_dbi=4.0,
        amplitude_error_std_db=0.8,
        phase_error_std_rad=0.25,
        rng=np.random.default_rng(unit_seed + 1),
    )
    codebook = Codebook.build(
        array,
        sector_width_deg=AIR3C_SECTOR_DEG,
        num_directional=24,
        num_quasi_omni=16,
        quasi_omni_seed=unit_seed,
        pattern_points=pattern_points,
    )
    return array, codebook


def _air3c_device(
    name: str,
    position: Vec2,
    orientation_rad: float,
    unit_seed: int,
    frequency_hz: float,
    pattern_points: int,
) -> RadioDevice:
    array, codebook = _air3c_unit(unit_seed, frequency_hz, pattern_points)
    return RadioDevice(
        name=name,
        array=array,
        codebook=codebook,
        position=position,
        orientation_rad=orientation_rad,
        tx_power_dbm=12.0,
        control_power_boost_db=4.0,
        # The WiHD MAC never carrier-senses; the threshold is unused.
        cca_threshold_dbm=1000.0,
    )


def make_air3c_transmitter(
    name: str = "wihd-tx",
    position: Vec2 = Vec2(0.0, 0.0),
    orientation_rad: float = 0.0,
    unit_seed: int = 2024,
    frequency_hz: float = SIXTY_GHZ,
    pattern_points: int = 720,
) -> RadioDevice:
    """Build the Air-3c HDMI source module."""
    return _air3c_device(name, position, orientation_rad, unit_seed, frequency_hz, pattern_points)


def make_air3c_receiver(
    name: str = "wihd-rx",
    position: Vec2 = Vec2(8.0, 0.0),
    orientation_rad: float = 3.141592653589793,
    unit_seed: int = 2025,
    frequency_hz: float = SIXTY_GHZ,
    pattern_points: int = 720,
) -> RadioDevice:
    """Build the Air-3c HDMI sink module (the beacon source)."""
    return _air3c_device(name, position, orientation_rad, unit_seed, frequency_hz, pattern_points)
