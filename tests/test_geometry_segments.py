"""Unit tests for segments, intersections, and mirroring."""

import math

import pytest

from repro.geometry.materials import get_material
from repro.geometry.segments import (
    Segment,
    ray_segment_intersection,
    segment_intersection,
)
from repro.geometry.vec import Vec2


def seg(ax, ay, bx, by, material="drywall"):
    return Segment(Vec2(ax, ay), Vec2(bx, by), get_material(material))


class TestSegmentBasics:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            seg(0, 0, 0, 0)

    def test_length(self):
        assert seg(0, 0, 3, 4).length() == 5.0

    def test_direction_unit(self):
        assert seg(0, 0, 10, 0).direction() == Vec2(1, 0)

    def test_normal_perpendicular(self):
        s = seg(0, 0, 1, 0)
        assert s.normal().dot(s.direction()) == pytest.approx(0.0)

    def test_midpoint(self):
        assert seg(0, 0, 2, 2).midpoint() == Vec2(1, 1)

    def test_contains_point(self):
        s = seg(0, 0, 2, 0)
        assert s.contains_point(Vec2(1, 0))
        assert not s.contains_point(Vec2(1, 0.5))
        assert not s.contains_point(Vec2(3, 0))

    def test_distance_to_point(self):
        s = seg(0, 0, 2, 0)
        assert s.distance_to_point(Vec2(1, 3)) == 3.0
        assert s.distance_to_point(Vec2(4, 0)) == 2.0  # beyond endpoint


class TestMirroring:
    def test_mirror_across_x_axis(self):
        s = seg(0, 0, 1, 0)
        assert s.mirror_point(Vec2(0.5, 2.0)) == Vec2(0.5, -2.0)

    def test_mirror_across_diagonal(self):
        s = seg(0, 0, 1, 1)
        m = s.mirror_point(Vec2(1.0, 0.0))
        assert m.x == pytest.approx(0.0, abs=1e-12)
        assert m.y == pytest.approx(1.0)

    def test_mirror_is_involution(self):
        s = seg(0.3, -1.0, 2.0, 4.0)
        p = Vec2(1.7, 0.4)
        assert s.mirror_point(s.mirror_point(p)).distance_to(p) < 1e-12

    def test_point_on_line_is_fixed(self):
        s = seg(0, 0, 2, 0)
        assert s.mirror_point(Vec2(1, 0)) == Vec2(1, 0)


class TestIntersections:
    def test_crossing_segments(self):
        a = seg(0, -1, 0, 1)
        b = seg(-1, 0, 1, 0)
        assert segment_intersection(a, b) == Vec2(0, 0)

    def test_non_crossing(self):
        a = seg(0, 0, 1, 0)
        b = seg(0, 1, 1, 1)
        assert segment_intersection(a, b) is None

    def test_parallel_overlapping_returns_none(self):
        a = seg(0, 0, 2, 0)
        b = seg(1, 0, 3, 0)
        assert segment_intersection(a, b) is None

    def test_t_shaped_touch(self):
        a = seg(0, 0, 2, 0)
        b = seg(1, 0, 1, 1)
        hit = segment_intersection(a, b)
        assert hit is not None
        assert hit.distance_to(Vec2(1, 0)) < 1e-9


class TestRayIntersection:
    def test_ray_hits_wall(self):
        wall = seg(1, -1, 1, 1)
        t = ray_segment_intersection(Vec2(0, 0), Vec2(1, 0), wall)
        assert t == pytest.approx(1.0)

    def test_ray_pointing_away_misses(self):
        wall = seg(1, -1, 1, 1)
        assert ray_segment_intersection(Vec2(0, 0), Vec2(-1, 0), wall) is None

    def test_ray_from_wall_does_not_self_hit(self):
        wall = seg(0, -1, 0, 1)
        assert ray_segment_intersection(Vec2(0, 0), Vec2(0, 1), wall) is None

    def test_oblique_distance(self):
        wall = seg(2, -5, 2, 5)
        d = Vec2(1, 1).normalized()
        t = ray_segment_intersection(Vec2(0, 0), d, wall)
        assert t == pytest.approx(2 * math.sqrt(2))
