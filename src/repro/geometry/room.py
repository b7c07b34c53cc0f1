"""Rooms: closed wall polygons plus free-standing obstacles.

:class:`Room` models the floor plans of the paper's experiments.  The
conference room of Figure 4 is a 9 m x 3.25 m rectangle whose walls mix
brick, glass, and wood; the reflection setups add free-standing metal
reflectors, blockage elements, and shielding absorbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.materials import Material, get_material
from repro.geometry.segments import EPSILON, Segment, WallRow, wall_row
from repro.geometry.vec import Vec2


@dataclass(frozen=True)
class Obstacle:
    """A free-standing blocking/reflecting element inside a room.

    Modeled as a thin plate (single segment).  A metal reflector, a
    cardboard blockage element, or an RF absorber are all obstacles
    with different materials.
    """

    segment: Segment

    @property
    def material(self) -> Material:
        return self.segment.material

    @staticmethod
    def plate(a: Vec2, b: Vec2, material: str = "metal", name: str = "") -> "Obstacle":
        """Build a thin plate obstacle between two points."""
        return Obstacle(Segment(a, b, get_material(material), name=name))


class Room:
    """A 2D environment of wall segments and obstacles.

    Walls and obstacle plates are both treated as potential reflectors
    and potential blockers; the distinction only matters for
    construction convenience.

    The room keeps a wall table, :attr:`table`: one
    :class:`~repro.geometry.segments.WallRow` of plain floats per
    surface, built once here and extended by :meth:`add_obstacle`.
    Every ray query (:meth:`blockage_loss_db`, :meth:`path_is_clear`,
    :meth:`first_hit`) runs the one ray-wall loop :meth:`ray_hits` over
    it.  That loop does the float operations of
    :func:`~repro.geometry.segments.ray_segment_intersection` in the
    same order, so every distance and loss is bit-equal to tracing with
    :class:`Vec2`.  Surfaces to ignore are matched by identity, never
    by equality: two plates with equal endpoints and material are
    still two surfaces.
    """

    def __init__(self, walls: Iterable[Segment], obstacles: Iterable[Obstacle] = ()):
        self._walls: List[Segment] = list(walls)
        self._obstacles: List[Obstacle] = list(obstacles)
        if not self._walls and not self._obstacles:
            raise ValueError("a room needs at least one wall or obstacle")
        self._surfaces: Tuple[Segment, ...] = tuple(self._walls) + tuple(
            o.segment for o in self._obstacles
        )
        self._table: Tuple[WallRow, ...] = tuple(map(wall_row, self._surfaces))

    @property
    def walls(self) -> Sequence[Segment]:
        return tuple(self._walls)

    @property
    def obstacles(self) -> Sequence[Obstacle]:
        return tuple(self._obstacles)

    @property
    def surfaces(self) -> Tuple[Segment, ...]:
        """All reflective/blocking segments (walls + obstacle plates)."""
        return self._surfaces

    @property
    def table(self) -> Tuple[WallRow, ...]:
        """The wall table: one float row per surface, in surface order."""
        return self._table

    def add_obstacle(self, obstacle: Obstacle) -> None:
        """Place an additional obstacle into the room."""
        self._obstacles.append(obstacle)
        self._surfaces += (obstacle.segment,)
        self._table += (wall_row(obstacle.segment),)

    def ray_hits(
        self,
        ox: float,
        oy: float,
        ux: float,
        uy: float,
        ignore_ids: Collection[int] = (),
    ) -> Iterator[Tuple[float, WallRow]]:
        """Every surface the ray from ``(ox, oy)`` along ``(ux, uy)`` hits.

        Yields ``(t, row)`` in table order, where ``t`` is what
        :func:`ray_segment_intersection` returns for that surface (the
        travel distance for a unit direction); misses are skipped.
        Surfaces whose ``id()`` is in ``ignore_ids`` are skipped too.
        """
        for row in self._table:
            ax, ay, sx, sy, _, _, _, seg = row
            if ignore_ids and id(seg) in ignore_ids:
                continue
            denom = ux * sy - uy * sx
            if abs(denom) < EPSILON:
                continue
            qpx = ax - ox
            qpy = ay - oy
            t = (qpx * sy - qpy * sx) / denom
            u = (qpx * uy - qpy * ux) / denom
            if t > EPSILON and -EPSILON <= u <= 1.0 + EPSILON:
                yield t, row

    def first_hit(
        self,
        origin: Vec2,
        direction: Vec2,
        ignore: Optional[Segment] = None,
    ) -> Optional[Tuple[float, Segment]]:
        """First surface hit by a ray, as ``(distance, segment)``.

        ``ignore`` excludes one segment (the surface a reflected ray
        just bounced off).  Returns None if the ray escapes the room
        through a gap (possible with open geometries such as the
        outdoor semicircle setup).
        """
        unit = direction.normalized()
        skip = () if ignore is None else (id(ignore),)
        best: Optional[Tuple[float, Segment]] = None
        for t, row in self.ray_hits(origin.x, origin.y, unit.x, unit.y, skip):
            if best is None or t < best[0]:
                best = (t, row.segment)
        return best

    def path_is_clear(
        self,
        a: Vec2,
        b: Vec2,
        ignore: Sequence[Segment] = (),
        tol: float = 1e-6,
    ) -> bool:
        """Whether the straight path from ``a`` to ``b`` is unobstructed.

        Segments listed in ``ignore`` do not block (used for the walls a
        reflected path legitimately touches).  Endpoints touching a
        surface (within ``tol`` meters) do not count as blockage.
        """
        dx = b.x - a.x
        dy = b.y - a.y
        total = math.hypot(dx, dy)
        if total < EPSILON:
            return True
        skip = set(map(id, ignore))
        for t, _ in self.ray_hits(a.x, a.y, dx / total, dy / total, skip):
            if tol < t < total - tol:
                return False
        return True

    def blockage_loss_db(self, a: Vec2, b: Vec2, ignore: Sequence[Segment] = ()) -> float:
        """Total penetration loss of all surfaces crossing path a->b, dB.

        60 GHz signals are nearly opaque to most materials; this returns
        the summed penetration losses so that a single brick wall
        effectively kills a link while a thin wooden panel merely
        attenuates it.
        """
        return self.leg_loss_db(a.x, a.y, b.x, b.y, set(map(id, ignore)))

    def leg_loss_db(
        self,
        ax: float,
        ay: float,
        bx: float,
        by: float,
        ignore_ids: Collection[int] = (),
    ) -> float:
        """:meth:`blockage_loss_db` of the leg ``(ax, ay) -> (bx, by)``.

        The float form the ray tracer calls; ``ignore_ids`` holds the
        ``id()`` of each surface to skip.
        """
        dx = bx - ax
        dy = by - ay
        total = math.hypot(dx, dy)
        if total < EPSILON:
            return 0.0
        loss = 0.0
        tol = 1e-6
        for t, row in self.ray_hits(ax, ay, dx / total, dy / total, ignore_ids):
            if tol < t < total - tol:
                loss += row.penetration_loss_db
        return loss

    @staticmethod
    def rectangular(
        width: float,
        height: float,
        materials: Optional[Sequence[str]] = None,
        origin: Vec2 = Vec2(0.0, 0.0),
    ) -> "Room":
        """Build an axis-aligned rectangular room.

        ``materials`` names the materials of the (bottom, right, top,
        left) walls in that order; defaults to drywall everywhere.
        """
        if width <= 0 or height <= 0:
            raise ValueError("room dimensions must be positive")
        names = list(materials) if materials is not None else ["drywall"] * 4
        if len(names) != 4:
            raise ValueError("materials must name exactly 4 walls (bottom, right, top, left)")
        x0, y0 = origin.x, origin.y
        corners = [
            Vec2(x0, y0),
            Vec2(x0 + width, y0),
            Vec2(x0 + width, y0 + height),
            Vec2(x0, y0 + height),
        ]
        labels = ["bottom", "right", "top", "left"]
        walls = [
            Segment(corners[i], corners[(i + 1) % 4], get_material(names[i]), name=labels[i])
            for i in range(4)
        ]
        return Room(walls)


def conference_room() -> Room:
    """The 9 m x 3.25 m conference room of Figure 4.

    Wall materials follow the figure: the long bottom wall (with the
    receiver) is brick, the right section and top-right are glass (the
    window front), the top-left is wood, and the left short wall is
    brick.  The coordinate origin is the bottom-left corner; the paper's
    TX sits near the top wall and the RX near the bottom-left.
    """
    brick = get_material("brick")
    glass = get_material("glass")
    wood = get_material("wood")
    w, h = 9.0, 3.25
    walls = [
        Segment(Vec2(0, 0), Vec2(w, 0), brick, name="bottom-brick"),
        Segment(Vec2(w, 0), Vec2(w, h), glass, name="right-glass"),
        # Top wall: wooden section on the left, glass window on the right.
        Segment(Vec2(w, h), Vec2(4.0, h), glass, name="top-glass"),
        Segment(Vec2(4.0, h), Vec2(0, h), wood, name="top-wood"),
        Segment(Vec2(0, h), Vec2(0, 0), brick, name="left-brick"),
    ]
    return Room(walls)


def measurement_locations() -> List[Vec2]:
    """The six receiver locations A..F of Figure 4 (order A, B, ..., F).

    Distances follow the annotations in the figure: the locations form
    two rows spaced along the room length, 1.3 m and 1.6 m from the
    bottom wall, at 1.85 m horizontal spacing.
    """
    xs = [1.85 * (i + 1) for i in range(3)]
    row_low = 1.3    # locations A, B, C (paper draws C..A right-to-left)
    row_high = 1.3 + 1.6  # locations D, E, F
    a = Vec2(xs[2], row_low)
    b = Vec2(xs[1], row_low)
    c = Vec2(xs[0], row_low)
    d = Vec2(xs[0], row_high)
    e = Vec2(xs[1], row_high)
    f = Vec2(xs[2], row_high)
    return [a, b, c, d, e, f]
