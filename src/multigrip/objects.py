"""Planar object primitives for grasp analysis, plus the object file format.

Objects live in the grasp plane with the closing axis along x and are
centered on the origin.  Each primitive exposes its left/right flank as an
`Arc`, a line or a circular arc x(y) centred on y = 0, which is what the
contact computation consumes; the finger faces are arcs of the same kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

from ._keyvalue import KeyValues, LineError

__all__ = [
    "Circle",
    "Box",
    "ThinPlate",
    "FaceArc",
    "CompositeFaces",
    "ObjectShape",
    "ObjectSpec",
    "Arc",
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
        if self.kind == "flat" and self.radius is not None:
            raise ValueError("flat face takes no radius")


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
            if face.radius is not None and self.height > 2 * face.radius:
                raise ValueError("face arc cannot span the object height")


ObjectShape = Circle | Box | ThinPlate | CompositeFaces


def check_friction(mu: float) -> None:
    """Raise ValueError unless mu is a usable friction coefficient."""
    if not (mu >= 0 and math.isfinite(mu)):
        raise ValueError("friction coefficient must be finite and >= 0")


@dataclass(frozen=True)
class ObjectSpec:
    """An object plus its surface friction coefficient."""

    shape: ObjectShape
    mu: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.shape, ObjectShape):
            raise ValueError("shape must be a Circle, Box, ThinPlate or CompositeFaces, "
                             f"got {self.shape!r}")
        check_friction(self.mu)

    @cached_property
    def flanks(self) -> tuple[Arc, Arc]:
        """The left (side -1) and right (side +1) flank, built once and kept
        outside the fields, as closing_extent, outline and reach are: eq, hash
        and repr ignore them."""
        s = self.shape
        if isinstance(s, Circle):
            # a signed-zero centre keeps the sign of side at x_of(+-radius)
            return tuple(Arc(x0=side * 0.0, half=s.radius, sign=side, r=s.radius)
                         for side in (-1, 1))
        flank_x, half = _half_extents(s)
        faces = (s.left, s.right) if isinstance(s, CompositeFaces) else (FaceArc("flat"),) * 2
        return tuple(face_arc(face.kind, face.radius, half, flank_x, side)
                     for face, side in zip(faces, (-1, 1)))

    @cached_property
    def closing_extent(self) -> float:
        """Extent (mm) along the closing axis; the dimension the fingers span."""
        s = self.shape
        if isinstance(s, Circle):
            return 2 * s.radius
        flank, _ = _half_extents(s)
        if isinstance(s, CompositeFaces):
            # a convex face bulges past its flank edges at y = 0
            return sum(max(side * arc.x_of(0.0), flank) for side, arc in zip((-1, 1), self.flanks))
        return 2 * flank

    @cached_property
    def outline(self) -> tuple[tuple[float, float], ...]:
        """object_polygon's vertices, built once for the caging search."""
        return tuple(object_polygon(self))

    @cached_property
    def reach(self) -> float:
        """Largest distance (mm) of an outline vertex from the origin."""
        return max(abs(complex(x, y)) for x, y in self.outline)   # the abs is libm's hypot

    @property
    def rotation_symmetric(self) -> bool:
        return isinstance(self.shape, Circle)

    def check_stroke(self, stroke: float) -> None:
        """Raise ValueError if the fingers cannot open wide enough for the object."""
        if not math.isfinite(stroke):
            raise ValueError(f"stroke must be finite, got {stroke!r}")
        if self.closing_extent > stroke:
            raise ValueError(f"object extent {self.closing_extent:g} mm exceeds the "
                             f"stroke {stroke:g} mm")


@dataclass(frozen=True)
class Arc:
    """An object flank or a finger face: x(y) over the lateral domain
    [-half, half], a line x = x0 (sign 0) or the half of the circle of
    radius r centred on (x0, 0) toward +x (sign +1) or -x (sign -1).

    corners: lateral positions where the curve ends in a corner.

    Every curve is centred on y = 0, so x_of is even in y and monotone in
    |y| over the domain, and so is the sum of any two.  The contact search
    relies on this; any new shape must be built from such arcs.
    """

    x0: float
    half: float
    sign: int = 0
    r: float = 0.0
    corners: tuple[float, ...] = ()

    def x_of(self, y: float) -> float:
        return self.x0 + self.sign * math.sqrt(max(self.r * self.r - y * y, 0.0))

    def normal(self, y: float, toward: float) -> tuple[float, float]:
        """Unit normal at lateral position y whose x component has the sign
        of toward (+1 or -1)."""
        if not self.sign:
            return (float(toward), 0.0)
        r = self.r
        return (toward * math.sqrt(max(r * r - y * y, 0.0)) / r,
                toward * self.sign * y / r)


def _half_extents(shape: Box | ThinPlate | CompositeFaces) -> tuple[float, float]:
    """Half extents (closing axis, lateral) of a rectangular object."""
    if isinstance(shape, ThinPlate):
        return shape.thickness / 2.0, shape.length / 2.0
    return shape.width / 2.0, shape.height / 2.0


def face_arc(kind: str, radius: float | None, half: float, rim: float,
             side: int) -> Arc:
    """A flat, convex or concave object flank or finger face across the chord
    [-half, half], its rims at x = side * rim, bulging toward side * x if convex."""
    corners = (-half, half)
    if kind == "flat":
        return Arc(x0=side * rim, half=half, corners=corners)
    c = math.sqrt(max(radius * radius - half * half, 0.0))   # centre's distance behind the chord
    if kind == "convex":   # the outer half of a circle
        return Arc(x0=side * (rim - c), half=half, sign=side, r=radius, corners=corners)
    return Arc(x0=side * (rim + c), half=half, sign=-side, r=radius, corners=corners)


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num values i * step + start from start to stop, the last exactly stop."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def object_polygon(spec: ObjectSpec) -> list[tuple[float, float]]:
    """Closed outline of the object as (x, y) vertices (a circle as a polygon)."""
    s = spec.shape
    if isinstance(s, Circle):
        step = 2.0 * math.pi / (4 * _SAMPLES_PER_ARC)
        return [(s.radius * math.cos(i * step), s.radius * math.sin(i * step))
                for i in range(4 * _SAMPLES_PER_ARC)]
    w, h = _half_extents(s)
    if isinstance(s, CompositeFaces):
        left, right = spec.flanks
        ys = linspace(-h, h, _SAMPLES_PER_ARC)
        return [(left.x_of(y), y) for y in ys] + [(right.x_of(y), y) for y in reversed(ys)]
    return [(-w, -h), (w, -h), (w, h), (-w, h)]


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
        return 2 * _half_extents(s)[1]


_COMPOSITE_KEYS = ("left_face_shape", "left_face_radius_mm",
                   "right_face_shape", "right_face_radius_mm")
_KNOWN_KEYS = {
    "shape", "radius_mm", "width_mm", "height_mm", "length_mm", "thickness_mm",
    "mu", "left_face", "right_face", *_COMPOSITE_KEYS,
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
            # a flat face fails only on a radius, so report the radius line
            key = f"{prefix}_face_radius_mm" if kind == "flat" else f"{prefix}_face_shape"
            return fields.build(FaceArc, key, kind=kind,
                                radius=length(f"{prefix}_face_radius_mm"))
        shape = fields.build(CompositeFaces, "height_mm", left=face("left"),
                             right=face("right"),
                             width=length("width_mm", required=True),
                             height=length("height_mm", required=True))
    else:
        raise ObjectFileError(f"unknown shape {shape_name!r}", fields.line("shape"))
    stray = [] if shape_name == "composite" else sorted(
        (fields.line(key), key) for key in _COMPOSITE_KEYS if key in fields.entries)
    if stray:
        raise ObjectFileError(f"{shape_name} shape takes no {stray[0][1]}", stray[0][0])

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
