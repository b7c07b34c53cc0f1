"""Models of the paper's devices under test and measurement equipment.

* :mod:`repro.devices.base` — the :class:`RadioDevice` abstraction: an
  antenna array + codebook + position/orientation + active beam.
* :mod:`repro.devices.d5000` — the Dell D5000 docking station and the
  Latitude E7440 notebook (Wilocity 2x8 arrays, WiGig).
* :mod:`repro.devices.air3c` — the DVDO Air-3c WiHD transmitter and
  receiver (24-element irregular arrays).
* :mod:`repro.devices.vubiq` — the Vubiq down-converter + oscilloscope
  measurement receiver that overhears the links.
* :mod:`repro.devices.rotation` — the programmable rotation stage used
  for angular-profile measurements.

The D5000/E7440 and Air-3c factories memoize each unit's array and
codebook per process; :func:`clear_unit_cache` forgets them.
"""

from repro.devices import air3c, d5000
from repro.devices.base import RadioDevice
from repro.devices.d5000 import make_d5000_dock, make_e7440_laptop
from repro.devices.air3c import make_air3c_receiver, make_air3c_transmitter
from repro.devices.rotation import RotationStage
from repro.devices.vubiq import VubiqReceiver


def clear_unit_cache() -> None:
    """Forget every memoized device unit (array + codebook).

    The campaign runner calls this before each cell, so a cell's work
    counters (``phy.antenna.pattern_syntheses``) do not depend on which
    units an earlier cell, or a forked worker's parent, already built.
    """
    d5000._wilocity_unit.cache_clear()
    air3c._air3c_unit.cache_clear()


__all__ = [
    "RadioDevice",
    "RotationStage",
    "VubiqReceiver",
    "clear_unit_cache",
    "make_air3c_receiver",
    "make_air3c_transmitter",
    "make_d5000_dock",
    "make_e7440_laptop",
]
