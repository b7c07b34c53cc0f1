"""The float wall table traces exactly what Vec2 geometry traces.

:class:`Room` and :class:`RayTracer` run their ray, mirror and
reflection-point math on plain floats (the room's wall table).  The
reference below is the same image-method tracer written with
:class:`Vec2` and :class:`Segment` methods; every path it finds must
come out of the float tracer with bit-equal points and losses and the
very same surface objects.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.materials import MATERIALS, get_material
from repro.geometry.room import Obstacle, Room, conference_room
from repro.geometry.segments import (
    EPSILON,
    Segment,
    mirror_xy,
    ray_segment_intersection,
)
from repro.geometry.vec import Vec2
from repro.phy.raytracing import RayTracer

MATERIAL_NAMES = sorted(MATERIALS)


# -- the Vec2 reference tracer -----------------------------------------------


def ref_blockage_loss_db(surfaces, a, b, ignore=()):
    delta = b - a
    total = delta.length()
    if total < EPSILON:
        return 0.0
    unit = delta / total
    ignored = set(map(id, ignore))
    loss = 0.0
    tol = 1e-6
    for seg in surfaces:
        if id(seg) in ignored:
            continue
        t = ray_segment_intersection(a, unit, seg)
        if t is not None and tol < t < total - tol:
            loss += seg.material.penetration_loss_db
    return loss


def ref_reflection_point(image, target, wall):
    d = target - image
    if d.length() < 1e-12:
        return None
    w = wall.b - wall.a
    denom = d.cross(w)
    if abs(denom) < 1e-12:
        return None
    qp = wall.a - image
    t = qp.cross(w) / denom
    u = qp.cross(d) / denom
    if t <= 1e-9 or t >= 1.0 - 1e-9:
        return None
    if u < 0.0 or u > 1.0:
        return None
    return image + d * t


def ref_trace(surfaces, tx, rx, max_penetration_db):
    """``(points, surfaces, reflection_loss_db, penetration_loss_db)`` rows."""

    def leg(a, b, touched):
        loss = ref_blockage_loss_db(surfaces, a, b, touched)
        return None if loss > max_penetration_db else loss

    paths = []
    los = leg(tx, rx, ())
    if los is not None:
        paths.append(((tx, rx), (), 0.0, los))
    for wall in surfaces:
        hit = ref_reflection_point(wall.mirror_point(tx), rx, wall)
        if hit is None:
            continue
        leg1 = leg(tx, hit, (wall,))
        if leg1 is None:
            continue
        leg2 = leg(hit, rx, (wall,))
        if leg2 is None:
            continue
        paths.append(
            ((tx, hit, rx), (wall,), wall.material.reflection_loss_db, leg1 + leg2)
        )
    for first in surfaces:
        image1 = first.mirror_point(tx)
        for second in surfaces:
            if second is first:
                continue
            image2 = second.mirror_point(image1)
            hit2 = ref_reflection_point(image2, rx, second)
            if hit2 is None:
                continue
            hit1 = ref_reflection_point(image1, hit2, first)
            if hit1 is None:
                continue
            leg1 = leg(tx, hit1, (first,))
            if leg1 is None:
                continue
            leg2 = leg(hit1, hit2, (first, second))
            if leg2 is None:
                continue
            leg3 = leg(hit2, rx, (second,))
            if leg3 is None:
                continue
            paths.append(
                (
                    (tx, hit1, hit2, rx),
                    (first, second),
                    first.material.reflection_loss_db
                    + second.material.reflection_loss_db,
                    leg1 + leg2 + leg3,
                )
            )
    return paths


def bits(values):
    """The exact IEEE-754 values of a sequence of floats (−0.0 ≠ 0.0)."""
    return [float(v).hex() for v in values]


def path_bits(points, reflection_db, penetration_db):
    return bits([c for p in points for c in (p.x, p.y)] + [reflection_db, penetration_db])


# -- random rooms ------------------------------------------------------------


@st.composite
def rooms(draw):
    """A rectangular room with up to three plates, plus a TX and an RX in it.

    A plate may be duplicated as an equal but distinct segment: rooms
    match surfaces by identity, so both copies reflect and block.
    """
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    width = draw(st.floats(min_value=1.0, max_value=12.0))
    height = draw(st.floats(min_value=1.0, max_value=12.0))
    x0 = draw(st.floats(min_value=-5.0, max_value=5.0))
    y0 = draw(st.floats(min_value=-5.0, max_value=5.0))
    walls = draw(st.lists(st.sampled_from(MATERIAL_NAMES), min_size=4, max_size=4))
    room = Room.rectangular(width, height, walls, origin=Vec2(x0, y0))

    def inside():
        return Vec2(x0 + width * draw(unit), y0 + height * draw(unit))

    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a, b = inside(), inside()
        assume(a.distance_to(b) > 1e-3)
        plate = Obstacle.plate(a, b, material=draw(st.sampled_from(MATERIAL_NAMES)))
        room.add_obstacle(plate)
        if draw(st.booleans()):
            room.add_obstacle(Obstacle(Segment(a, b, plate.material)))
    tx, rx = inside(), inside()
    assume(tx.distance_to(rx) > 1e-3)
    return room, tx, rx


class TestBitEqualToVec2Tracer:
    @given(rooms(), st.sampled_from([35.0, 1000.0]))
    @settings(max_examples=150, deadline=None)
    def test_random_rooms(self, case, max_penetration_db):
        room, tx, rx = case
        got = RayTracer(room, max_order=2, max_penetration_db=max_penetration_db).trace(
            tx, rx
        )
        want = ref_trace(room.surfaces, tx, rx, max_penetration_db)
        assert len(got) == len(want)
        for path, (points, surfaces, reflection_db, penetration_db) in zip(got, want):
            assert len(path.surfaces) == len(surfaces)
            assert all(a is b for a, b in zip(path.surfaces, surfaces))
            assert path_bits(
                path.points, path.reflection_loss_db, path.penetration_loss_db
            ) == path_bits(points, reflection_db, penetration_db)

    def test_conference_room_paths_at_paper_locations(self):
        from repro.geometry.room import measurement_locations

        room = conference_room()
        tracer = RayTracer(room, max_order=2)
        tx = Vec2(6.5, 2.9)
        for rx in measurement_locations():
            got = tracer.trace(tx, rx)
            want = ref_trace(room.surfaces, tx, rx, 35.0)
            assert [p.order for p in got] == [len(w[1]) for w in want]
            assert any(p.order == 2 for p in got)
            for path, (points, _, reflection_db, penetration_db) in zip(got, want):
                assert path_bits(
                    path.points, path.reflection_loss_db, path.penetration_loss_db
                ) == path_bits(points, reflection_db, penetration_db)


finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


class TestWallTableLoop:
    @given(rooms(), finite, finite, st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=150, deadline=None)
    def test_ray_hits_is_ray_segment_intersection_per_wall(self, case, ox, oy, angle):
        room, _, _ = case
        origin, direction = Vec2(ox, oy), Vec2.unit(angle)
        hits = list(room.ray_hits(ox, oy, direction.x, direction.y))
        want = []
        for row in room.table:
            t = ray_segment_intersection(origin, direction, row.segment)
            if t is not None:
                want.append((t.hex(), row.segment))
        got = [(t.hex(), row.segment) for t, row in hits]
        assert [t for t, _ in got] == [t for t, _ in want]
        assert all(a is b for (_, a), (_, b) in zip(got, want))

    @given(rooms(), finite, finite, st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=100, deadline=None)
    def test_first_hit_is_nearest_reference_hit(self, case, ox, oy, angle):
        room, _, _ = case
        origin, direction = Vec2(ox, oy), Vec2.unit(angle)
        # first_hit casts along direction.normalized(); cos/sin pairs are
        # not always of length exactly 1.0, so the reference normalizes too.
        unit = direction.normalized()
        ignore = room.surfaces[0]
        best = None
        for seg in room.surfaces:
            if seg is ignore:
                continue
            t = ray_segment_intersection(origin, unit, seg)
            if t is not None and (best is None or t < best[0]):
                best = (t, seg)
        got = room.first_hit(origin, direction, ignore=ignore)
        if best is None:
            assert got is None
        else:
            assert got[0].hex() == best[0].hex() and got[1] is best[1]

    @given(rooms())
    @settings(max_examples=100, deadline=None)
    def test_blockage_and_clearance_match_reference(self, case):
        room, tx, rx = case
        for ignore in ((), room.surfaces[:1], room.surfaces[-2:]):
            loss = room.blockage_loss_db(tx, rx, ignore)
            want = ref_blockage_loss_db(room.surfaces, tx, rx, ignore)
            assert loss.hex() == want.hex()
            # Every surface loses penetration dB, so a clear path is
            # exactly one with nothing crossing it.
            assert room.path_is_clear(tx, rx, ignore) == (want == 0.0)

    @given(rooms(), finite, finite)
    @settings(max_examples=150, deadline=None)
    def test_mirror_xy_is_mirror_point(self, case, px, py):
        room, _, _ = case
        for row in room.table:
            mirrored = row.segment.mirror_point(Vec2(px, py))
            assert bits(mirror_xy(row, px, py)) == bits(mirrored)


class TestWallTableUpdates:
    def test_add_obstacle_after_trace_blocks_new_crossings(self):
        room = Room.rectangular(10.0, 10.0, ["brick"] * 4)
        tracer = RayTracer(room, max_order=2)
        tx, rx = Vec2(1.0, 5.0), Vec2(9.0, 5.0)
        before = tracer.trace(tx, rx)
        assert room.blockage_loss_db(tx, rx) == 0.0
        room.add_obstacle(Obstacle.plate(Vec2(5.0, 4.0), Vec2(5.0, 6.0), material="wood"))
        assert room.blockage_loss_db(tx, rx) == get_material("wood").penetration_loss_db
        assert not room.path_is_clear(tx, rx)
        assert len(room.table) == len(room.surfaces) == 5
        after = tracer.trace(tx, rx)
        los = [p for p in after if p.is_los]
        assert los and los[0].penetration_loss_db == get_material("wood").penetration_loss_db
        # The plate is also a new reflector.
        assert any(room.surfaces[-1] in p.surfaces for p in after)
        assert after != before

    def test_table_rows_follow_surface_order(self):
        room = conference_room()
        plate = Obstacle.plate(Vec2(1.0, 1.0), Vec2(2.0, 1.0))
        room.add_obstacle(plate)
        assert [row.segment for row in room.table] == list(room.surfaces)
        assert room.table[-1].segment is plate.segment
