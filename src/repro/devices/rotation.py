"""The programmable rotation stage used for angular profiles.

Section 3.2: "we mount the Vubiq receiver on a programmable rotation
device and place it at each of the six locations ... At each location,
we then measure the incident signal strength in each direction and
assemble the result to an angular profile."

:class:`RotationStage` generates the sequence of horn orientations and
pairs each with a measurement callback, so experiment code reads like
the physical procedure.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Tuple

import numpy as np


class RotationStage:
    """A stepper that sweeps a receiver's boresight through a circle.

    Args:
        steps: Number of equally spaced orientations per full rotation.
        start_rad: Orientation of the first step.
        backlash_std_rad: Random pointing error per step (1-sigma),
            modeling mechanical imperfection.  Zero for ideal sweeps.
        seed: Seed for the backlash noise.
    """

    def __init__(
        self,
        steps: int = 72,
        start_rad: float = 0.0,
        backlash_std_rad: float = 0.0,
        seed: int = 0,
    ):
        if steps < 4:
            raise ValueError("need at least 4 steps per rotation")
        if not math.isfinite(start_rad):
            raise ValueError(f"start_rad must be finite, got {start_rad!r}")
        if not (math.isfinite(backlash_std_rad) and backlash_std_rad >= 0):
            raise ValueError(f"backlash must be finite and non-negative, got {backlash_std_rad!r}")
        self.steps = steps
        self.start_rad = start_rad
        self.backlash_std_rad = backlash_std_rad
        self._rng = np.random.default_rng(seed)

    def orientations(self) -> Iterator[float]:
        """Yield the commanded orientation of each step, in radians."""
        step = 2.0 * math.pi / self.steps
        for i in range(self.steps):
            nominal = self.start_rad + i * step
            if self.backlash_std_rad > 0:
                nominal += float(self._rng.normal(0.0, self.backlash_std_rad))
            yield nominal

    def sweep(self, measure: Callable[[float], float]) -> List[Tuple[float, float]]:
        """Run a full rotation, measuring at every orientation.

        Args:
            measure: Callback receiving the boresight angle (radians)
                and returning the measured quantity (e.g. received
                power in dBm).

        Returns:
            List of ``(orientation_rad, measurement)`` pairs in sweep
            order.
        """
        return [(angle, measure(angle)) for angle in self.orientations()]


def semicircle_positions(
    center,
    radius_m: float = 3.2,
    count: int = 100,
    facing_rad: float = 0.0,
):
    """Measurement positions on a semicircle around a device under test.

    Reproduces the beam-pattern setup of Section 3.2: "we capture
    signal energy on 100 equally spaced positions on a semicircle with
    radius 3.2 m".  The semicircle spans +-90 degrees around the
    direction the device faces.

    Returns:
        List of ``(position, bearing_from_center_rad)`` tuples.
    """
    from repro.geometry.vec import Vec2

    if count < 2:
        raise ValueError("need at least two positions")
    if radius_m <= 0:
        raise ValueError("radius must be positive")
    angles = np.linspace(facing_rad - math.pi / 2.0, facing_rad + math.pi / 2.0, count)
    return [(center + Vec2.from_polar(radius_m, a), float(a)) for a in angles]
