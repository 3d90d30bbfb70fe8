"""Planar object primitives for grasp analysis, plus the object file format.

Objects live in the grasp plane with the closing axis along x and are
centered on the origin.  Each primitive exposes its left/right side as a
boundary function x(y) over a lateral domain, which is what the contact
computation consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ._keyvalue import KeyValues, LineError

__all__ = [
    "Circle",
    "Box",
    "ThinPlate",
    "FaceArc",
    "CompositeFaces",
    "ObjectShape",
    "ObjectSpec",
    "SideBoundary",
    "ObjectDescription",
    "ObjectFileError",
    "parse_object_file",
    "load_object_file",
]

_SAMPLES_PER_ARC = 64   # outline vertices per quarter circle or complex flank


@dataclass(frozen=True)
class Circle:
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("circle radius must be positive and finite")


@dataclass(frozen=True)
class Box:
    """Rectangle; width along the closing axis, height lateral."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if not all(v > 0 and math.isfinite(v) for v in (self.width, self.height)):
            raise ValueError("box dimensions must be positive and finite")


@dataclass(frozen=True)
class ThinPlate:
    """Plate grasped across its thickness; length is the lateral extent."""

    length: float
    thickness: float

    def __post_init__(self) -> None:
        if not all(v > 0 and math.isfinite(v) for v in (self.length, self.thickness)):
            raise ValueError("plate dimensions must be positive and finite")


@dataclass(frozen=True)
class FaceArc:
    """Shape of one face of a composite object: flat or an arc of a radius."""

    kind: str  # "flat" | "convex" | "concave"
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "convex", "concave"):
            raise ValueError(f"unknown face kind {self.kind!r}")
        if self.radius is not None and not math.isfinite(self.radius):
            raise ValueError("face radius must be finite")
        if self.kind != "flat" and not (self.radius and self.radius > 0):
            raise ValueError(f"{self.kind} face needs a positive radius")


@dataclass(frozen=True)
class CompositeFaces:
    """Prism with independently shaped left and right faces."""

    left: FaceArc
    right: FaceArc
    width: float
    height: float

    def __post_init__(self) -> None:
        if not all(v > 0 and math.isfinite(v) for v in (self.width, self.height)):
            raise ValueError("composite dimensions must be positive and finite")
        for face in (self.left, self.right):
            if face.kind != "flat" and face.radius is not None and self.height > 2 * face.radius:
                raise ValueError("face arc cannot span the object height")


ObjectShape = Circle | Box | ThinPlate | CompositeFaces


@dataclass(frozen=True)
class ObjectSpec:
    """An object plus its surface friction coefficient."""

    shape: ObjectShape
    mu: float = 0.5

    def __post_init__(self) -> None:
        if not (self.mu >= 0 and math.isfinite(self.mu)):
            raise ValueError("friction coefficient must be finite and >= 0")

    @property
    def closing_extent(self) -> float:
        """Extent (mm) along the closing axis; the dimension the fingers span."""
        s = self.shape
        if isinstance(s, Circle):
            return 2 * s.radius
        if isinstance(s, Box):
            return s.width
        if isinstance(s, ThinPlate):
            return s.thickness
        extent = s.width
        for face in (s.left, s.right):
            if face.kind == "convex":
                extent += _arc_bulge(face.radius, s.height)
        return extent

    @property
    def rotation_symmetric(self) -> bool:
        return isinstance(self.shape, Circle)


def _arc_bulge(radius: float, chord: float) -> float:
    return radius - math.sqrt(max(radius * radius - (chord / 2.0) ** 2, 0.0))


@dataclass(frozen=True)
class SideBoundary:
    """One side of an object as x(y) over a lateral domain.

    x_of: vectorized boundary function.
    normal_of: inward unit normal at a lateral position (only meaningful
        away from corners).
    corner_ys: lateral positions where the boundary has a corner.

    Every side is a line or a circular arc centred on y = 0 over the domain
    [lo, hi] = [-hi, hi]: x_of is even in y and monotone in |y|, and so is
    its sum with any finger face.  The contact search relies on this; any
    new shape must keep it.
    """

    lo: float
    hi: float
    x_of: Callable[[np.ndarray], np.ndarray]
    normal_of: Callable[[float], tuple[float, float]]
    corner_ys: tuple[float, ...] = ()


def _circle_side(radius: float, side: int) -> SideBoundary:
    # side -1: left boundary (minimum x), +1: right boundary.
    def x_of(y: np.ndarray) -> np.ndarray:
        return side * np.sqrt(np.maximum(radius * radius - np.square(y), 0.0))

    def normal_of(y: float) -> tuple[float, float]:
        x = side * math.sqrt(max(radius * radius - y * y, 0.0))
        return (-x / radius, -y / radius)

    return SideBoundary(lo=-radius, hi=radius, x_of=x_of, normal_of=normal_of)


def _flat_side(x_value: float, half_height: float, side: int) -> SideBoundary:
    def x_of(y: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(y, dtype=float), x_value)

    def normal_of(y: float) -> tuple[float, float]:
        return (-side, 0.0)

    return SideBoundary(lo=-half_height, hi=half_height, x_of=x_of,
                        normal_of=normal_of,
                        corner_ys=(-half_height, half_height))


def _arc_side(face: FaceArc, flank_x: float, half_height: float, side: int) -> SideBoundary:
    # side -1 builds the left boundary at flank x = -width/2, mirrored for +1.
    if face.kind == "flat":
        return _flat_side(side * flank_x, half_height, side)
    r = face.radius
    c = math.sqrt(r * r - half_height * half_height)
    if face.kind == "convex":
        center_x = side * (flank_x - c)
        arc_sign = side  # boundary on the outward side of the arc circle

        def normal_of(y: float) -> tuple[float, float]:
            x = center_x + arc_sign * math.sqrt(max(r * r - y * y, 0.0))
            return ((center_x - x) / r, -y / r)
    else:  # concave pocket
        center_x = side * (flank_x + c)
        arc_sign = -side

        def normal_of(y: float) -> tuple[float, float]:
            x = center_x + arc_sign * math.sqrt(max(r * r - y * y, 0.0))
            return ((x - center_x) / r, y / r)

    def x_of(y: np.ndarray) -> np.ndarray:
        return center_x + arc_sign * np.sqrt(np.maximum(r * r - np.square(y), 0.0))

    return SideBoundary(lo=-half_height, hi=half_height, x_of=x_of,
                        normal_of=normal_of,
                        corner_ys=(-half_height, half_height))


def side_boundary(spec: ObjectSpec, side: int) -> SideBoundary:
    """Boundary of the object's left (side=-1) or right (side=+1) flank."""
    s = spec.shape
    if isinstance(s, Circle):
        return _circle_side(s.radius, side)
    if isinstance(s, Box):
        return _flat_side(side * s.width / 2.0, s.height / 2.0, side)
    if isinstance(s, ThinPlate):
        return _flat_side(side * s.thickness / 2.0, s.length / 2.0, side)
    face = s.left if side < 0 else s.right
    return _arc_side(face, s.width / 2.0, s.height / 2.0, side)


def object_polygon(spec: ObjectSpec) -> np.ndarray:
    """Closed outline of the object as a vertex array (a circle as a polygon)."""
    s = spec.shape
    if isinstance(s, Circle):
        angles = np.linspace(0.0, 2.0 * math.pi, 4 * _SAMPLES_PER_ARC, endpoint=False)
        return np.column_stack([s.radius * np.cos(angles), s.radius * np.sin(angles)])
    if isinstance(s, Box):
        w, h = s.width / 2.0, s.height / 2.0
    elif isinstance(s, ThinPlate):
        w, h = s.thickness / 2.0, s.length / 2.0
    else:
        left = side_boundary(spec, -1)
        right = side_boundary(spec, +1)
        ys = np.linspace(-s.height / 2.0, s.height / 2.0, _SAMPLES_PER_ARC)
        left_pts = np.column_stack([left.x_of(ys), ys])
        right_pts = np.column_stack([right.x_of(ys[::-1]), ys[::-1]])
        return np.vstack([left_pts, right_pts])
    return np.array([[-w, -h], [w, -h], [w, h], [-w, h]])


# ---------------------------------------------------------------------------
# Object description files: top-level `key = value` lines, '#' comments.

class ObjectFileError(LineError):
    """An object file that fails validation."""


@dataclass(frozen=True)
class ObjectDescription:
    """Parsed object file: geometry for grasp analysis, faces for planning."""

    spec: ObjectSpec
    left_face: str | None = None
    right_face: str | None = None
    height: float | None = None

    @property
    def planner_height(self) -> float:
        if self.height is not None:
            return self.height
        s = self.spec.shape
        if isinstance(s, Circle):
            return 2 * s.radius
        if isinstance(s, Box):
            return s.height
        if isinstance(s, ThinPlate):
            return s.length
        return s.height


_KNOWN_KEYS = {
    "shape", "radius_mm", "width_mm", "height_mm", "length_mm", "thickness_mm",
    "mu", "left_face", "right_face",
    "left_face_shape", "left_face_radius_mm",
    "right_face_shape", "right_face_radius_mm",
}
_FACE_NAMES = {"flat", "convex", "concave", "complex"}


def parse_object_file(text: str) -> ObjectDescription:
    """Parse an object description (key = value lines) into an ObjectDescription."""
    fields = KeyValues(text, {None: _KNOWN_KEYS}, ObjectFileError)
    length = partial(fields.number, domain="positive")   # every *_mm key
    shape_name = fields.value("shape", required=True).lower()
    if shape_name == "circle":
        shape: ObjectShape = Circle(radius=length("radius_mm", required=True))
    elif shape_name == "box":
        shape = Box(width=length("width_mm", required=True),
                    height=length("height_mm", required=True))
    elif shape_name in ("thin_plate", "plate"):
        shape = ThinPlate(length=length("length_mm", required=True),
                          thickness=length("thickness_mm", required=True))
    elif shape_name == "composite":
        def face(prefix: str) -> FaceArc:
            kind = fields.value(f"{prefix}_face_shape", "flat").lower()
            if kind == "complex":
                # Geometry unknown; treat the flank as flat and let the
                # planner react to the declared complex face.
                kind = "flat"
            return fields.build(FaceArc, f"{prefix}_face_shape", kind=kind,
                                radius=length(f"{prefix}_face_radius_mm"))
        shape = fields.build(CompositeFaces, "height_mm", left=face("left"),
                             right=face("right"),
                             width=length("width_mm", required=True),
                             height=length("height_mm", required=True))
    else:
        raise ObjectFileError(f"unknown shape {shape_name!r}", fields.line("shape"))

    spec = fields.build(ObjectSpec, "mu", shape=shape,
                        mu=fields.number("mu", default=ObjectSpec.mu))

    for key in ("left_face", "right_face"):
        if fields.value(key, "flat").lower() not in _FACE_NAMES:
            raise ObjectFileError(
                f"{key} must be one of {sorted(_FACE_NAMES)}", fields.line(key))
    length("thickness_mm")   # read by thin_plate only, checked for every shape

    return ObjectDescription(
        spec=spec,
        left_face=fields.value("left_face", "").lower() or None,
        right_face=fields.value("right_face", "").lower() or None,
        height=length("height_mm"),
    )


def load_object_file(path) -> ObjectDescription:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_object_file(fh.read())
