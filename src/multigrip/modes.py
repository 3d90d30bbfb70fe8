"""Grasping-configuration mode table: which surface pair faces the object."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .mechanics import SurfaceCounts, gc_mode_count

__all__ = [
    "SurfaceKind",
    "SurfaceShape",
    "GcModeTable",
    "DEFAULT_FACE_RADIUS",
    "DEFAULT_FACE_WIDTH",
    "DEFAULT_THIN_THRESHOLD",
    "DEFAULT_SMALL_OBJECT_HEIGHT",
    "flat",
    "convex",
    "concave",
    "deformable_flat",
    "default_order_3s",
    "default_order_4s",
    "build_mode_table",
    "distinct_shape_pairs",
]

DEFAULT_FACE_RADIUS = 10.0
DEFAULT_FACE_WIDTH = 20.0
DEFAULT_THIN_THRESHOLD = 3.0    # mm; thinner objects slip out of a deformable pad
DEFAULT_SMALL_OBJECT_HEIGHT = 10.0   # mm; lower objects give a convex face no purchase


class SurfaceKind(Enum):
    FLAT = "flat"
    CONVEX = "convex"
    CONCAVE = "concave"
    DEFORMABLE_FLAT = "deformable"


@dataclass(frozen=True)
class SurfaceShape:
    """One finger surface: its category and, for curved faces, its radius (mm)."""

    kind: SurfaceKind
    radius: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SurfaceKind):
            raise ValueError(f"kind must be a SurfaceKind, got {self.kind!r}")
        curved = self.kind in (SurfaceKind.CONVEX, SurfaceKind.CONCAVE)
        if curved:
            if self.radius is None or not (self.radius > 0 and math.isfinite(self.radius)):
                raise ValueError(f"{self.kind.value} surface needs a positive finite radius")
        elif self.radius is not None:
            raise ValueError(f"{self.kind.value} surface takes no radius")

    def __str__(self) -> str:
        if self.radius is None:
            return self.kind.value
        return f"{self.kind.value}(r={self.radius:g})"


def flat() -> SurfaceShape:
    return SurfaceShape(SurfaceKind.FLAT)


def convex(radius: float = DEFAULT_FACE_RADIUS) -> SurfaceShape:
    return SurfaceShape(SurfaceKind.CONVEX, radius)


def concave(radius: float = DEFAULT_FACE_RADIUS) -> SurfaceShape:
    return SurfaceShape(SurfaceKind.CONCAVE, radius)


def deformable_flat() -> SurfaceShape:
    return SurfaceShape(SurfaceKind.DEFORMABLE_FLAT)


def default_order_3s(face_radius: float = DEFAULT_FACE_RADIUS) -> tuple[SurfaceShape, ...]:
    """Surface order around the 3S finger body in the reference design."""
    return (flat(), convex(face_radius), concave(face_radius))


def default_order_4s(face_radius: float = DEFAULT_FACE_RADIUS) -> tuple[SurfaceShape, ...]:
    """Surface order around the 4S finger body in the reference design."""
    return (flat(), convex(face_radius), concave(face_radius), deformable_flat())


@dataclass(frozen=True)
class GcModeTable:
    """Cyclic table of (3S surface, 4S surface) pairs, indexed from 1.

    Entry 1 is the initial mode; each switch of the coupled rotation
    advances the index by one, wrapping after the full cycle.
    """

    entries: tuple[tuple[SurfaceShape, SurfaceShape], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, mode_index: int) -> tuple[SurfaceShape, SurfaceShape]:
        """Surface pair for a 1-based mode index."""
        if not 1 <= mode_index <= len(self.entries):
            raise ValueError(f"mode index {mode_index} outside 1..{len(self.entries)}")
        return self.entries[mode_index - 1]

    def label(self, mode_index: int) -> str:
        """Conventional mode label; the cycle index doubles as the mode number."""
        self.entry(mode_index)
        return f"GC{mode_index}"

    def modes_containing(self, kind: SurfaceKind) -> tuple[int, ...]:
        """1-based indices of every entry that uses a surface of this kind."""
        return tuple(i + 1 for i, (a, b) in enumerate(self.entries)
                     if a.kind is kind or b.kind is kind)


def build_mode_table(counts: SurfaceCounts,
                     order_3s: tuple[SurfaceShape, ...] | None = None,
                     order_4s: tuple[SurfaceShape, ...] | None = None) -> GcModeTable:
    """Enumerate the surface pairs reachable by the coupled finger rotation.

    Each switch advances the 3S finger one surface and the 4S finger one
    surface, so entry i pairs the 3S order cycled by (i-1) mod n_3s with the
    4S order cycled by (i-1) mod n_4s.  The table length is the period of
    that pair sequence.
    """
    if order_3s is None:
        order_3s = default_order_3s()
    if order_4s is None:
        order_4s = default_order_4s()
    if len(order_3s) != counts.n_3s:
        raise ValueError(f"3S order has {len(order_3s)} surfaces, expected {counts.n_3s}")
    if len(order_4s) != counts.n_4s:
        raise ValueError(f"4S order has {len(order_4s)} surfaces, expected {counts.n_4s}")
    n = gc_mode_count(counts)
    entries = tuple((order_3s[i % counts.n_3s], order_4s[i % counts.n_4s])
                    for i in range(n))
    return GcModeTable(entries=entries)


def _pair_key(pair: tuple[SurfaceShape, SurfaceShape]) -> tuple[SurfaceShape, SurfaceShape]:
    a, b = pair
    key = lambda s: (s.kind.value, s.radius or 0.0)
    return (a, b) if key(a) <= key(b) else (b, a)


def distinct_shape_pairs(table: GcModeTable) -> set[tuple[SurfaceShape, SurfaceShape]]:
    """Collapse the table to unordered surface pairs.

    Swapping which finger carries which surface gives the same grasp
    geometry, so (a, b) and (b, a) count once.  The reference design's
    twelve ordered entries collapse to nine.
    """
    return {_pair_key(pair) for pair in table.entries}
