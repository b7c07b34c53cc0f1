"""Unit tests for the image-method ray tracer."""

import math

import pytest

from repro.geometry.materials import get_material
from repro.geometry.room import Obstacle, Room
from repro.geometry.segments import Segment
from repro.geometry.vec import Vec2
from repro.phy.channel import LinkBudget
from repro.phy.raytracing import RayTracer


def single_wall_room(material="metal", y=-1.0):
    wall = Segment(Vec2(-10, y), Vec2(10, y), get_material(material))
    return Room([wall]), wall


class TestLos:
    def test_clear_los_found(self):
        room, _ = single_wall_room()
        paths = RayTracer(room, max_order=0).trace(Vec2(0, 0), Vec2(4, 0))
        assert len(paths) == 1
        assert paths[0].is_los
        assert paths[0].length_m() == pytest.approx(4.0)

    def test_blocked_los_dropped(self):
        room, _ = single_wall_room()
        room.add_obstacle(Obstacle.plate(Vec2(2, -0.5), Vec2(2, 0.5), material="metal"))
        paths = RayTracer(room, max_order=0).trace(Vec2(0, 0), Vec2(4, 0))
        assert paths == []

    def test_thin_material_penetrates_with_loss(self):
        room, _ = single_wall_room()
        room.add_obstacle(Obstacle.plate(Vec2(2, -0.5), Vec2(2, 0.5), material="drywall"))
        paths = RayTracer(room, max_order=0, max_penetration_db=20.0).trace(
            Vec2(0, 0), Vec2(4, 0)
        )
        assert len(paths) == 1
        assert paths[0].penetration_loss_db == pytest.approx(
            get_material("drywall").penetration_loss_db
        )

    def test_coincident_endpoints_raise(self):
        room, _ = single_wall_room()
        with pytest.raises(ValueError):
            RayTracer(room).trace(Vec2(0, 0), Vec2(0, 0))


class TestFirstOrder:
    def test_mirror_geometry(self):
        room, wall = single_wall_room(y=-1.0)
        paths = RayTracer(room, max_order=1).trace(Vec2(0, 0), Vec2(4, 0))
        refl = [p for p in paths if p.order == 1]
        assert len(refl) == 1
        path = refl[0]
        # Specular bounce at the midpoint of the ground projection.
        bounce = path.points[1]
        assert bounce.x == pytest.approx(2.0)
        assert bounce.y == pytest.approx(-1.0)
        # Unfolded length: straight line to the image point.
        assert path.length_m() == pytest.approx(math.hypot(4.0, 2.0))

    def test_reflection_loss_carried(self):
        room, wall = single_wall_room(material="brick")
        paths = RayTracer(room, max_order=1).trace(Vec2(0, 0), Vec2(4, 0))
        refl = [p for p in paths if p.order == 1][0]
        assert refl.reflection_loss_db == get_material("brick").reflection_loss_db

    def test_reflection_point_must_lie_on_wall(self):
        # A short wall whose extension would host the bounce but whose
        # segment does not: no reflection path.
        wall = Segment(Vec2(10, -1), Vec2(12, -1), get_material("metal"))
        room = Room([wall])
        paths = RayTracer(room, max_order=1).trace(Vec2(0, 0), Vec2(4, 0))
        assert all(p.order == 0 for p in paths)

    def test_departure_and_arrival_angles(self):
        room, _ = single_wall_room(y=-1.0)
        paths = RayTracer(room, max_order=1).trace(Vec2(0, 0), Vec2(4, 0))
        refl = [p for p in paths if p.order == 1][0]
        # Leaves downward-forward, arrives from downward-backward.
        assert refl.departure_angle_rad() == pytest.approx(math.atan2(-1, 2))
        assert refl.arrival_angle_rad() == pytest.approx(math.atan2(-1, -2))

    def test_blocked_reflection_dropped(self):
        room, _ = single_wall_room()
        # Plate hanging low enough to cut the descending reflected leg
        # (which passes (1, -0.5)) while leaving the y=0 LOS clear.
        room.add_obstacle(Obstacle.plate(Vec2(1, -0.9), Vec2(1, -0.2), material="metal"))
        paths = RayTracer(room, max_order=1).trace(Vec2(0, 0), Vec2(4, 0))
        assert all(p.order == 0 for p in paths)
        assert any(p.is_los for p in paths)


class TestSecondOrder:
    def test_parallel_walls_double_bounce(self):
        top = Segment(Vec2(-10, 1), Vec2(10, 1), get_material("metal"))
        bottom = Segment(Vec2(-10, -1), Vec2(10, -1), get_material("metal"))
        room = Room([top, bottom])
        paths = RayTracer(room, max_order=2).trace(Vec2(0, 0), Vec2(6, 0))
        orders = sorted(p.order for p in paths)
        assert orders.count(2) >= 2  # up-down and down-up
        double = [p for p in paths if p.order == 2][0]
        assert double.reflection_loss_db == pytest.approx(
            2 * get_material("metal").reflection_loss_db
        )

    def test_second_order_longer_than_first(self):
        top = Segment(Vec2(-10, 1), Vec2(10, 1), get_material("metal"))
        bottom = Segment(Vec2(-10, -1), Vec2(10, -1), get_material("metal"))
        room = Room([top, bottom])
        paths = RayTracer(room, max_order=2).trace(Vec2(0, 0), Vec2(6, 0))
        first = min(p.length_m() for p in paths if p.order == 1)
        second = min(p.length_m() for p in paths if p.order == 2)
        assert second > first

    def test_max_order_limits_enumeration(self):
        top = Segment(Vec2(-10, 1), Vec2(10, 1), get_material("metal"))
        bottom = Segment(Vec2(-10, -1), Vec2(10, -1), get_material("metal"))
        room = Room([top, bottom])
        paths = RayTracer(room, max_order=1).trace(Vec2(0, 0), Vec2(6, 0))
        assert all(p.order <= 1 for p in paths)

    def test_invalid_max_order(self):
        room, _ = single_wall_room()
        with pytest.raises(ValueError):
            RayTracer(room, max_order=3)


class TestPowerRanking:
    def test_strongest_path_is_los_when_clear(self):
        room, _ = single_wall_room()
        tracer = RayTracer(room, max_order=2)
        best = tracer.strongest_path(Vec2(0, 0), Vec2(4, 0), LinkBudget())
        assert best is not None and best.is_los

    def test_strongest_path_is_reflection_when_blocked(self):
        room, _ = single_wall_room()
        room.add_obstacle(Obstacle.plate(Vec2(2, -0.3), Vec2(2, 0.5), material="absorber"))
        tracer = RayTracer(room, max_order=2)
        best = tracer.strongest_path(Vec2(0, 0), Vec2(4, 0), LinkBudget())
        assert best is not None and best.order == 1

    def test_no_paths_returns_none(self):
        room, _ = single_wall_room()
        # A full-height plate at x=1 cuts both the LOS (at (1, 0)) and
        # the descending reflected leg (at (1, -0.5)).
        room.add_obstacle(Obstacle.plate(Vec2(1, -1.0), Vec2(1, 1.0), material="metal"))
        tracer = RayTracer(room, max_order=1)
        assert tracer.strongest_path(Vec2(0, 0), Vec2(4, 0), LinkBudget()) is None
