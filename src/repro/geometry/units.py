"""Unit-conversion helpers for geometry and mobility code.

The toolkit's quantities live in a handful of scales — road-sign km/h
vs SI m/s for vehicle speeds, the paper's figure degrees vs the math
library's radians for angles — and every conversion between them goes
through this module so the change of scale is *named* at the call
site rather than hidden in an inline ``/3.6``-style magic constant.
"""

from __future__ import annotations

import math

#: Conversion factor between the road-sign unit and SI.
KMH_PER_MPS = 3.6


def kmh_to_ms(speed_kmh: float) -> float:
    """Convert km/h to m/s."""
    return speed_kmh / KMH_PER_MPS


def mps_to_kmh(speed_mps: float) -> float:
    """Convert m/s to km/h."""
    return speed_mps * KMH_PER_MPS


def deg_wrap_180(angle_deg: float) -> float:
    """Wrap an angle in degrees into ``(-180, 180]``.

    The degree-domain counterpart of
    :func:`repro.geometry.vec.normalize_angle`: comparing raw angle
    differences without this wrap misreads nearly-aligned headings on
    either side of the ±180° seam as opposite (RL055).
    """
    wrapped = math.fmod(angle_deg, 360.0)
    if wrapped > 180.0:
        wrapped -= 360.0
    elif wrapped <= -180.0:
        wrapped += 360.0
    return wrapped


#: Road-speed alias matching the mobility module's historical name.
kmh_to_mps = kmh_to_ms

__all__ = ["KMH_PER_MPS", "deg_wrap_180", "kmh_to_ms", "kmh_to_mps", "mps_to_kmh"]
