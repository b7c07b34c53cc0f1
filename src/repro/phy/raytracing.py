"""Image-method ray tracing for indoor 60 GHz propagation.

Section 4.3 of the paper shows that, contrary to the common quasi-
optical assumption, first- and even second-order wall reflections carry
enough energy to matter: lobes at positions B and F of the conference
room can only be explained by single and double bounces off the glass
and wooden walls.

The tracer enumerates propagation paths between two points using the
image method:

* zeroth order — the LOS path, if not blocked;
* first order — mirror the source across each wall, check that the
  reflection point lies on the wall and both legs are clear;
* second order — mirror the first-order images across every other
  wall and validate both reflection points.

Each path carries its total length, per-bounce reflection losses,
blockage penetration losses, and its departure/arrival angles, which
the link evaluation combines with the antenna patterns at both ends.

The enumeration runs on plain floats.  Images, reflection points and
leg losses are computed from the room's wall table
(:attr:`repro.geometry.room.Room.table`, one float row per surface);
:class:`Vec2` is built only for the ``points`` of each returned path.
Surfaces a leg touches are excluded from its blockage by identity
(``id()``), never by equality.  Every float operation keeps the order
and grouping of the :class:`Vec2`/:class:`Segment` methods it replaces
(``math.hypot`` for lengths, the same epsilons), so paths, losses and
the profiles built from them are bit-equal to a tracer written with
:meth:`Segment.mirror_point` and
:func:`~repro.geometry.segments.ray_segment_intersection`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import obs
from repro.geometry.room import Room
from repro.geometry.segments import Segment, WallRow, mirror_xy
from repro.geometry.vec import Vec2
from repro.phy.channel import LinkBudget


@dataclass(frozen=True)
class PropagationPath:
    """One resolved propagation path between a TX and an RX point.

    Attributes:
        points: The polyline from TX to RX, including any reflection
            points (so LOS paths have 2 points, 1st order 3, ...).
        surfaces: The wall segment touched at each reflection point.
        reflection_loss_db: Sum of per-bounce reflection losses.
        penetration_loss_db: Sum of through-material losses on all legs.
    """

    points: Tuple[Vec2, ...]
    surfaces: Tuple[Segment, ...]
    reflection_loss_db: float
    penetration_loss_db: float

    @property
    def order(self) -> int:
        """Number of reflections (0 = line of sight)."""
        return len(self.surfaces)

    @property
    def is_los(self) -> bool:
        return self.order == 0

    def length_m(self) -> float:
        """Total unfolded path length."""
        total = 0.0
        for a, b in zip(self.points, self.points[1:]):
            total += math.hypot(a.x - b.x, a.y - b.y)
        return total

    def departure_angle_rad(self) -> float:
        """Angle of the first leg leaving the transmitter (global frame)."""
        tx, first = self.points[0], self.points[1]
        return math.atan2(first.y - tx.y, first.x - tx.x)

    def arrival_angle_rad(self) -> float:
        """Direction the signal arrives *from*, seen at the receiver.

        This is the bearing from the RX toward the last reflection
        point (or the TX for LOS) — the angle at which a rotating horn
        at the RX location would see this path's energy.
        """
        last, rx = self.points[-2], self.points[-1]
        return math.atan2(last.y - rx.y, last.x - rx.x)

    def extra_loss_db(self) -> float:
        """Combined reflection + penetration loss of the path."""
        return self.reflection_loss_db + self.penetration_loss_db

    def received_power_dbm(
        self,
        budget: LinkBudget,
        tx_gain_dbi: float,
        rx_gain_dbi: float,
    ) -> float:
        """Received power over this path for given endpoint gains."""
        return budget.received_power_dbm(
            self.length_m(), tx_gain_dbi, rx_gain_dbi, self.extra_loss_db()
        )


class RayTracer:
    """Enumerates LOS/1st/2nd order paths between points in a room."""

    def __init__(self, room: Room, max_order: int = 2, max_penetration_db: float = 35.0):
        """
        Args:
            room: The environment.
            max_order: Highest reflection order to enumerate (0-2).
                The paper's design principle is that protocols should
                account for "up to two signal reflections" — beyond
                second order, 60 GHz energy is negligible indoors.
            max_penetration_db: Paths whose accumulated penetration
                loss exceeds this are dropped as below any usable
                signal level (keeps path lists small and honest).
        """
        if max_order not in (0, 1, 2):
            raise ValueError("max_order must be 0, 1, or 2")
        self._room = room
        self._max_order = max_order
        self._max_penetration = max_penetration_db

    @property
    def room(self) -> Room:
        return self._room

    def trace(self, tx: Vec2, rx: Vec2) -> List[PropagationPath]:
        """All propagation paths from ``tx`` to ``rx`` up to max order."""
        if tx.distance_to(rx) < 1e-9:
            raise ValueError("TX and RX positions coincide")
        paths: List[PropagationPath] = []
        with obs.span("phy.raytracing.trace"):
            los = self._trace_los(tx, rx)
            if los is not None:
                paths.append(los)
            if self._max_order >= 1:
                paths.extend(self._trace_first_order(tx, rx))
            if self._max_order >= 2:
                paths.extend(self._trace_second_order(tx, rx))
        if obs.STATE.metrics:
            obs.add("phy.raytracing.traces")
            obs.add("phy.raytracing.paths", len(paths))
        return paths

    def strongest_path(
        self,
        tx: Vec2,
        rx: Vec2,
        budget: LinkBudget,
        tx_gain_dbi: float = 0.0,
        rx_gain_dbi: float = 0.0,
    ) -> Optional[PropagationPath]:
        """Path with the highest received power, or None if none exist."""
        paths = self.trace(tx, rx)
        if not paths:
            return None
        return max(paths, key=lambda p: p.received_power_dbm(budget, tx_gain_dbi, rx_gain_dbi))

    # -- internals ----------------------------------------------------

    def _penetration_between(
        self, ax: float, ay: float, bx: float, by: float, touched: Tuple[int, ...]
    ) -> Optional[float]:
        """Penetration loss of leg a->b, or None if above the cutoff.

        ``touched`` holds the ``id()`` of the surfaces the path bounces
        off at either end of the leg; they do not block it.
        """
        loss = self._room.leg_loss_db(ax, ay, bx, by, touched)
        if loss > self._max_penetration:
            return None
        return loss

    def _trace_los(self, tx: Vec2, rx: Vec2) -> Optional[PropagationPath]:
        loss = self._penetration_between(tx.x, tx.y, rx.x, rx.y, ())
        if loss is None:
            return None
        return PropagationPath(
            points=(tx, rx), surfaces=(), reflection_loss_db=0.0, penetration_loss_db=loss
        )

    def _trace_first_order(self, tx: Vec2, rx: Vec2) -> List[PropagationPath]:
        paths: List[PropagationPath] = []
        txx, txy, rxx, rxy = tx.x, tx.y, rx.x, rx.y
        for row in self._room.table:
            ix, iy = mirror_xy(row, txx, txy)
            hit = _reflection_point(ix, iy, rxx, rxy, row)
            if hit is None:
                continue
            hx, hy = hit
            wall = row.segment
            # Both legs must be clear of other obstructions; the wall
            # itself legitimately touches the path at the bounce.
            touched = (id(wall),)
            leg1 = self._penetration_between(txx, txy, hx, hy, touched)
            if leg1 is None:
                continue
            leg2 = self._penetration_between(hx, hy, rxx, rxy, touched)
            if leg2 is None:
                continue
            paths.append(
                PropagationPath(
                    points=(tx, Vec2(hx, hy), rx),
                    surfaces=(wall,),
                    reflection_loss_db=wall.material.reflection_loss_db,
                    penetration_loss_db=leg1 + leg2,
                )
            )
        return paths

    def _trace_second_order(self, tx: Vec2, rx: Vec2) -> List[PropagationPath]:
        paths: List[PropagationPath] = []
        txx, txy, rxx, rxy = tx.x, tx.y, rx.x, rx.y
        table = self._room.table
        for row1 in table:
            first = row1.segment
            i1x, i1y = mirror_xy(row1, txx, txy)
            for row2 in table:
                second = row2.segment
                if second is first:
                    continue
                i2x, i2y = mirror_xy(row2, i1x, i1y)
                # Unfold back to front: last bounce first.
                hit2 = _reflection_point(i2x, i2y, rxx, rxy, row2)
                if hit2 is None:
                    continue
                h2x, h2y = hit2
                hit1 = _reflection_point(i1x, i1y, h2x, h2y, row1)
                if hit1 is None:
                    continue
                h1x, h1y = hit1
                leg1 = self._penetration_between(txx, txy, h1x, h1y, (id(first),))
                if leg1 is None:
                    continue
                leg2 = self._penetration_between(
                    h1x, h1y, h2x, h2y, (id(first), id(second))
                )
                if leg2 is None:
                    continue
                leg3 = self._penetration_between(h2x, h2y, rxx, rxy, (id(second),))
                if leg3 is None:
                    continue
                paths.append(
                    PropagationPath(
                        points=(tx, Vec2(h1x, h1y), Vec2(h2x, h2y), rx),
                        surfaces=(first, second),
                        reflection_loss_db=(
                            first.material.reflection_loss_db
                            + second.material.reflection_loss_db
                        ),
                        penetration_loss_db=leg1 + leg2 + leg3,
                    )
                )
        return paths


def _reflection_point(
    ix: float, iy: float, px: float, py: float, wall: WallRow
) -> Optional[Tuple[float, float]]:
    """Where the line from image ``(ix, iy)`` to ``(px, py)`` crosses the wall.

    None unless the crossing lies on the wall segment, strictly between
    the image and the target.
    """
    dx = px - ix
    dy = py - iy
    if math.hypot(dx, dy) < 1e-12:
        return None
    # Solve intersection of the infinite image->target line with the
    # wall segment; the hit must lie within the segment.
    ax, ay, wx, wy = wall[:4]
    denom = dx * wy - dy * wx
    if abs(denom) < 1e-12:
        return None
    qpx = ax - ix
    qpy = ay - iy
    t = (qpx * wy - qpy * wx) / denom
    u = (qpx * dy - qpy * dx) / denom
    if t <= 1e-9 or t >= 1.0 - 1e-9:
        return None
    if u < 0.0 or u > 1.0:
        return None
    return ix + dx * t, iy + dy * t
