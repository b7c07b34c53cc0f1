"""Unit tests for rooms, obstacles, and blockage."""

import pytest

from repro.geometry.materials import MATERIALS, Material, get_material
from repro.geometry.room import Obstacle, Room, conference_room, measurement_locations
from repro.geometry.segments import Segment
from repro.geometry.vec import Vec2
from repro.phy.raytracing import RayTracer


class TestMaterials:
    def test_registry_has_paper_materials(self):
        for name in ("brick", "glass", "wood", "metal", "absorber"):
            assert name in MATERIALS

    def test_metal_reflects_best(self):
        losses = {name: m.reflection_loss_db for name, m in MATERIALS.items()}
        assert losses["metal"] < losses["glass"] < losses["brick"] < losses["wood"]

    def test_unknown_material_raises(self):
        with pytest.raises(KeyError):
            get_material("unobtainium")

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            Material("bad", reflection_loss_db=-1.0, penetration_loss_db=0.0)


class TestRoomConstruction:
    def test_rectangular_room_has_four_walls(self):
        room = Room.rectangular(4.0, 3.0)
        assert len(room.walls) == 4

    def test_rectangular_material_assignment(self):
        room = Room.rectangular(4.0, 3.0, materials=["brick", "glass", "wood", "brick"])
        assert room.walls[0].material.name == "brick"
        assert room.walls[1].material.name == "glass"

    def test_rectangular_validates_dimensions(self):
        with pytest.raises(ValueError):
            Room.rectangular(0.0, 3.0)

    def test_rectangular_validates_material_count(self):
        with pytest.raises(ValueError):
            Room.rectangular(4.0, 3.0, materials=["brick"])

    def test_empty_room_raises(self):
        with pytest.raises(ValueError):
            Room([])

    def test_obstacle_counts_as_surface(self):
        room = Room.rectangular(4.0, 3.0)
        room.add_obstacle(Obstacle.plate(Vec2(1, 1), Vec2(2, 1), material="metal"))
        assert len(room.surfaces) == 5


class TestVisibility:
    def test_clear_path_in_empty_room(self):
        room = Room.rectangular(10.0, 10.0)
        assert room.path_is_clear(Vec2(1, 1), Vec2(9, 9))

    def test_obstacle_blocks(self):
        room = Room.rectangular(10.0, 10.0)
        room.add_obstacle(Obstacle.plate(Vec2(5, 0.5), Vec2(5, 9.5), material="metal"))
        assert not room.path_is_clear(Vec2(1, 5), Vec2(9, 5))

    def test_added_obstacle_joins_surfaces_and_blocks_later_traces(self):
        room = Room.rectangular(10.0, 10.0)
        tracer = RayTracer(room, max_order=0)
        tx, rx = Vec2(1, 5), Vec2(9, 5)
        assert len(tracer.trace(tx, rx)) == 1
        plate = Obstacle.plate(Vec2(5, 0.5), Vec2(5, 9.5), material="metal")
        room.add_obstacle(plate)
        assert room.surfaces == tuple(room.walls) + (plate.segment,)
        assert tracer.trace(tx, rx) == []

    def test_ignored_segment_does_not_block(self):
        room = Room.rectangular(10.0, 10.0)
        plate = Obstacle.plate(Vec2(5, 0.5), Vec2(5, 9.5), material="metal")
        room.add_obstacle(plate)
        assert room.path_is_clear(Vec2(1, 5), Vec2(9, 5), ignore=[plate.segment])

    def test_blockage_loss_sums_crossed_walls(self):
        room = Room.rectangular(10.0, 10.0, materials=["wood"] * 4)
        room.add_obstacle(Obstacle.plate(Vec2(5, 0.5), Vec2(5, 9.5), material="wood"))
        loss = room.blockage_loss_db(Vec2(1, 5), Vec2(9, 5))
        assert loss == pytest.approx(get_material("wood").penetration_loss_db)

    def test_blockage_loss_zero_when_clear(self):
        room = Room.rectangular(10.0, 10.0)
        assert room.blockage_loss_db(Vec2(1, 1), Vec2(2, 2)) == 0.0


class TestFirstHit:
    def test_hit_distance(self):
        room = Room.rectangular(10.0, 4.0)
        hit = room.first_hit(Vec2(5, 2), Vec2(1, 0))
        assert hit is not None
        distance, wall = hit
        assert distance == pytest.approx(5.0)
        assert wall.name == "right"

    def test_ray_escaping_open_geometry(self):
        # A single free-standing plate: rays away from it escape.
        room = Room([Segment(Vec2(0, 0), Vec2(1, 0), get_material("metal"))])
        assert room.first_hit(Vec2(0.5, 1.0), Vec2(0, 1)) is None


class TestConferenceRoom:
    def test_dimensions(self):
        room = conference_room()
        xs = [p.x for w in room.walls for p in (w.a, w.b)]
        ys = [p.y for w in room.walls for p in (w.a, w.b)]
        assert max(xs) == pytest.approx(9.0)
        assert max(ys) == pytest.approx(3.25)

    def test_wall_materials_match_figure4(self):
        room = conference_room()
        names = {w.name: w.material.name for w in room.walls}
        assert names["bottom-brick"] == "brick"
        assert names["right-glass"] == "glass"
        assert names["top-wood"] == "wood"

    def test_six_measurement_locations_inside(self):
        points = measurement_locations()
        assert len(points) == 6
        for p in points:
            assert 0 < p.x < 9.0
            assert 0 < p.y < 3.25
