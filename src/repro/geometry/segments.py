"""Line segments with intersection and mirroring primitives.

These are the building blocks of the image-method ray tracer: walls are
segments, reflection points are segment/segment intersections, and
virtual (image) sources are produced by mirroring points across wall
lines.

The tracer's inner loops run on :class:`WallRow`, a segment unpacked
into plain floats once, instead of on :class:`Vec2` temporaries.  The
float forms (:func:`mirror_xy`, the ray loop of
:meth:`repro.geometry.room.Room.ray_hits`) do the same float
operations in the same order as :meth:`Segment.mirror_point` and
:func:`ray_segment_intersection`, so their results are bit-equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

from repro.geometry.materials import Material, MATERIALS
from repro.geometry.vec import Vec2

#: Geometric tolerance in meters.  Room dimensions are on the order of
#: meters and wavelengths are 5 mm, so 1e-9 m is far below anything
#: physically meaningful while comfortably absorbing float error.
EPSILON = 1e-9


@dataclass(frozen=True)
class Segment:
    """A wall or obstacle edge between two endpoints."""

    a: Vec2
    b: Vec2
    material: Material = field(default=MATERIALS["drywall"])
    name: str = ""

    def __post_init__(self) -> None:
        if self.a.distance_to(self.b) < EPSILON:
            raise ValueError("degenerate segment: endpoints coincide")

    def length(self) -> float:
        """Segment length in meters."""
        return self.a.distance_to(self.b)

    def direction(self) -> Vec2:
        """Unit vector from ``a`` to ``b``."""
        return (self.b - self.a).normalized()

    def normal(self) -> Vec2:
        """Unit normal (CCW perpendicular of the direction)."""
        return self.direction().perpendicular()

    def midpoint(self) -> Vec2:
        """Geometric center of the segment."""
        return (self.a + self.b) * 0.5

    def point_at(self, t: float) -> Vec2:
        """Point at parameter ``t`` in [0, 1] along the segment."""
        return self.a + (self.b - self.a) * t

    def contains_point(self, p: Vec2, tol: float = 1e-6) -> bool:
        """Whether ``p`` lies on the segment within tolerance."""
        ab = self.b - self.a
        ap = p - self.a
        if abs(ab.cross(ap)) > tol * max(1.0, ab.length()):
            return False
        t = ap.dot(ab) / ab.length_squared()
        return -tol <= t <= 1.0 + tol

    def mirror_point(self, p: Vec2) -> Vec2:
        """Reflect ``p`` across the infinite line through this segment.

        This is the core operation of the image method: the virtual
        source of a reflection off a wall is the real source mirrored
        across the wall's line.
        """
        d = self.direction()
        ap = p - self.a
        along = d * ap.dot(d)
        perp = ap - along
        return self.a + along - perp

    def distance_to_point(self, p: Vec2) -> float:
        """Shortest distance from ``p`` to the segment."""
        ab = self.b - self.a
        t = (p - self.a).dot(ab) / ab.length_squared()
        t = min(1.0, max(0.0, t))
        return p.distance_to(self.point_at(t))


class WallRow(NamedTuple):
    """A :class:`Segment` as the plain floats the ray tracer reads."""

    ax: float
    ay: float
    #: ``b - a``.
    sx: float
    sy: float
    #: Unit direction, as :meth:`Segment.direction`.
    dx: float
    dy: float
    penetration_loss_db: float
    segment: Segment


def wall_row(segment: Segment) -> WallRow:
    """Unpack ``segment`` into a :class:`WallRow`."""
    a, b = segment.a, segment.b
    sx = b.x - a.x
    sy = b.y - a.y
    norm = math.hypot(sx, sy)
    return WallRow(
        a.x, a.y, sx, sy, sx / norm, sy / norm,
        segment.material.penetration_loss_db, segment,
    )


def mirror_xy(row: WallRow, px: float, py: float) -> Tuple[float, float]:
    """:meth:`Segment.mirror_point` of ``(px, py)``, bit-equal, on floats."""
    ax, ay, _, _, dx, dy, _, _ = row
    apx = px - ax
    apy = py - ay
    dot = apx * dx + apy * dy
    alx = dx * dot
    aly = dy * dot
    return (ax + alx) - (apx - alx), (ay + aly) - (apy - aly)


def segment_intersection(
    s1: Segment,
    s2: Segment,
    tol: float = EPSILON,
) -> Optional[Vec2]:
    """Intersection point of two segments, or None if they do not cross.

    Collinear overlaps return None: for ray tracing purposes a ray
    sliding exactly along a wall carries no reflected energy and is
    treated as a miss.
    """
    p, r = s1.a, s1.b - s1.a
    q, s = s2.a, s2.b - s2.a
    denom = r.cross(s)
    if abs(denom) < tol:
        return None
    qp = q - p
    t = qp.cross(s) / denom
    u = qp.cross(r) / denom
    if -tol <= t <= 1.0 + tol and -tol <= u <= 1.0 + tol:
        return p + r * t
    return None


def ray_segment_intersection(
    origin: Vec2,
    direction: Vec2,
    segment: Segment,
    tol: float = EPSILON,
) -> Optional[float]:
    """Distance along a ray to its first hit on ``segment``.

    Returns the (positive) ray parameter, i.e. the travel distance when
    ``direction`` is a unit vector, or None if the ray misses.  Hits at
    (essentially) zero distance are ignored so that rays cast *from* a
    wall do not immediately re-hit it.
    """
    r = direction
    q, s = segment.a, segment.b - segment.a
    denom = r.cross(s)
    if abs(denom) < tol:
        return None
    qp = q - origin
    t = qp.cross(s) / denom
    u = qp.cross(r) / denom
    if t > tol and -tol <= u <= 1.0 + tol:
        return t
    return None
