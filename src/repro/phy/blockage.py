"""Human blockage dynamics for 60 GHz links.

Blockage is the other defining impairment of 60 GHz communication
(Section 2: directional communication *and blockage* lower interference
but also break links; related work [13] studies it on the same class of
hardware).  This module models a person crossing a link:

* a blocker is a moving, finite-width absorber;
* when its body overlaps the first Fresnel zone of a path, the path
  takes a knife-edge-like loss ramping up to a deep shadow
  (measurements on humans at 60 GHz report 20-30 dB);
* :class:`BlockageEvent` produces the loss-vs-time profile for a
  blocker walking through at a given speed, which experiments feed into
  the link budget as time-varying extra loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.geometry.vec import Vec2
from repro.mobility.trajectory import LinearTrajectory, Trajectory

#: Shadow depth of a human torso at 60 GHz, dB.
HUMAN_SHADOW_DEPTH_DB = 25.0

#: Effective body width presented to the link, meters.
HUMAN_BODY_WIDTH_M = 0.4

#: Typical indoor walking speed, m/s.
WALKING_SPEED_MPS = 1.2


class Blocker:
    """A moving absorber crossing the floor plan.

    A blocker's path is a :class:`~repro.mobility.trajectory.Trajectory`
    — the same primitive that moves clients — so a blocker can follow
    any motion model, not just the historical straight line.  The
    ``start``/``velocity`` constructor form is kept as shorthand for a
    :class:`LinearTrajectory` and the matching attributes keep reading
    from it.

    Args:
        start: Position at ``t = 0`` (shorthand form; with
            ``velocity``, builds an unbounded linear trajectory).
        velocity: Meters/second, as a vector (shorthand form).
        trajectory: Explicit motion model; mutually exclusive with the
            shorthand form.
        width_m: Body width perpendicular to the link.
        shadow_depth_db: Loss when fully blocking.
    """

    def __init__(
        self,
        start: Optional[Vec2] = None,
        velocity: Optional[Vec2] = None,
        trajectory: Optional[Trajectory] = None,
        width_m: float = HUMAN_BODY_WIDTH_M,
        shadow_depth_db: float = HUMAN_SHADOW_DEPTH_DB,
    ):
        if trajectory is not None:
            if start is not None or velocity is not None:
                raise ValueError("pass either a trajectory or start/velocity, not both")
        else:
            if start is None or velocity is None:
                raise ValueError("need start and velocity (or a trajectory)")
            trajectory = LinearTrajectory(start, velocity)
        self.trajectory = trajectory
        self.width_m = width_m
        self.shadow_depth_db = shadow_depth_db

    @property
    def start(self) -> Vec2:
        """Position at ``t = 0``."""
        return self.trajectory.position(0.0)

    @property
    def velocity(self) -> Vec2:
        """Velocity at ``t = 0``, meters/second."""
        return self.trajectory.velocity_mps(0.0)

    def position(self, t_s: float) -> Vec2:
        return self.trajectory.position(t_s)


def path_blockage_loss_db(
    blocker_pos: Vec2,
    a: Vec2,
    b: Vec2,
    width_m: float = HUMAN_BODY_WIDTH_M,
    shadow_depth_db: float = HUMAN_SHADOW_DEPTH_DB,
    edge_width_m: float = 0.08,
) -> float:
    """Loss a blocker at a position inflicts on the path a -> b.

    Zero when the body is clear of the path; ramps over
    ``edge_width_m`` (a knife-edge-like transition region) to the full
    shadow depth when the body center crosses the ray.  Blockers
    standing beyond the endpoints do not block.
    """
    ab = b - a
    length = ab.length()
    if length <= 0:
        return 0.0
    t = (blocker_pos - a).dot(ab) / (length * length)
    if t <= 0.0 or t >= 1.0:
        return 0.0
    closest = a + ab * t
    clearance = blocker_pos.distance_to(closest) - width_m / 2.0
    if clearance >= edge_width_m:
        return 0.0
    if clearance <= 0.0:
        return shadow_depth_db
    # Linear-in-dB ramp over the transition region.
    return shadow_depth_db * (1.0 - clearance / edge_width_m)


@dataclass
class BlockageEvent:
    """A blocker crossing a specific link."""

    blocker: Blocker
    tx: Vec2
    rx: Vec2

    def loss_at(self, t_s: float) -> float:
        """Extra link loss at an instant, dB."""
        return path_blockage_loss_db(
            self.blocker.position(t_s),
            self.tx,
            self.rx,
            width_m=self.blocker.width_m,
            shadow_depth_db=self.blocker.shadow_depth_db,
        )

    def profile(
        self, duration_s: float, step_s: float = 10e-3
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sampled loss-vs-time profile over a window."""
        times = np.arange(0.0, duration_s, step_s)
        losses = np.array([self.loss_at(float(t)) for t in times])
        return times, losses

    def shadow_interval(
        self, duration_s: float, threshold_db: float = 3.0, step_s: float = 5e-3
    ) -> Optional[Tuple[float, float]]:
        """(start, end) of the interval with loss above a threshold."""
        times, losses = self.profile(duration_s, step_s)
        above = np.flatnonzero(losses > threshold_db)
        if above.size == 0:
            return None
        return float(times[above[0]]), float(times[above[-1]])

    def crossing_time_s(self) -> Optional[float]:
        """Closed-form instant the blocker's center crosses the link.

        Delegates to the trajectory's segment-crossing solver when the
        motion is linear (no sampled profile needed); ``None`` when the
        path never crosses or the motion model has no closed form.
        """
        if isinstance(self.blocker.trajectory, LinearTrajectory):
            return self.blocker.trajectory.crossing_time_s(self.tx, self.rx)
        return None


def crossing_blocker(
    tx: Vec2,
    rx: Vec2,
    crossing_fraction: float = 0.5,
    speed_mps: float = WALKING_SPEED_MPS,
    lead_in_s: float = 1.0,
) -> Blocker:
    """A blocker that walks perpendicularly across a link.

    Args:
        tx, rx: Link endpoints.
        crossing_fraction: Where along the link the crossing happens
            (0 = at the TX, 1 = at the RX).
        speed_mps: Walking speed.
        lead_in_s: Seconds of walking before reaching the link line.

    Returns:
        A blocker whose trajectory crosses the link at
        ``t = lead_in_s``.
    """
    if not 0.0 < crossing_fraction < 1.0:
        raise ValueError("crossing fraction must be inside the link")
    if speed_mps <= 0:
        raise ValueError("speed must be positive")
    axis = (rx - tx).normalized()
    crossing_point = tx + (rx - tx) * crossing_fraction
    direction = axis.perpendicular()
    start = crossing_point - direction * (speed_mps * lead_in_s)
    return Blocker(
        trajectory=LinearTrajectory(start=start, velocity_mps=direction * speed_mps)
    )


def blocked_duration_s(
    link_length_m: float,
    body_width_m: float = HUMAN_BODY_WIDTH_M,
    speed_mps: float = WALKING_SPEED_MPS,
) -> float:
    """Analytic full-shadow duration of a perpendicular crossing."""
    if speed_mps <= 0:
        raise ValueError("speed must be positive")
    return body_width_m / speed_mps
