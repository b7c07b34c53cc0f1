"""Immutable 2D vectors and angle helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


def deg_to_rad(degrees: float) -> float:
    """Convert degrees to radians."""
    return math.radians(degrees)


def rad_to_deg(radians: float) -> float:
    """Convert radians to degrees."""
    return math.degrees(radians)


def normalize_angle(radians: float) -> float:
    """Wrap an angle into ``(-pi, pi]``."""
    wrapped = math.fmod(radians, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def angle_between(a: float, b: float) -> float:
    """Smallest absolute difference between two angles, in radians."""
    return abs(normalize_angle(a - b))


@dataclass(frozen=True)
class Vec2:
    """An immutable 2D point or direction in meters."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def dot(self, other: "Vec2") -> float:
        """Scalar (dot) product."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """z-component of the 3D cross product (signed area)."""
        return self.x * other.y - self.y * other.x

    def length(self) -> float:
        """Euclidean norm."""
        return math.hypot(self.x, self.y)

    def length_squared(self) -> float:
        """Squared Euclidean norm (avoids a sqrt in comparisons)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to another point."""
        return (self - other).length()

    def normalized(self) -> "Vec2":
        """Unit-length copy.  Raises on the zero vector."""
        norm = self.length()
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Vec2(self.x / norm, self.y / norm)

    def angle(self) -> float:
        """Direction angle in radians, CCW from +x, in ``(-pi, pi]``."""
        return math.atan2(self.y, self.x)

    def rotated(self, radians: float) -> "Vec2":
        """Copy rotated CCW by ``radians`` about the origin."""
        c, s = math.cos(radians), math.sin(radians)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def perpendicular(self) -> "Vec2":
        """Copy rotated CCW by 90 degrees."""
        return Vec2(-self.y, self.x)

    @staticmethod
    def from_polar(
        radius: float,
        radians: float,
    ) -> "Vec2":
        """Construct from polar coordinates."""
        return Vec2(radius * math.cos(radians), radius * math.sin(radians))

    @staticmethod
    def unit(radians: float) -> "Vec2":
        """Unit vector pointing at the given angle."""
        return Vec2(math.cos(radians), math.sin(radians))
