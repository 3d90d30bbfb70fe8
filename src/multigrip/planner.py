"""Rule-based mode selection from the target object's face shapes and size.

Candidate finger surfaces are chosen per object face: a curved face
prefers the complementary finger curvature, with flat as the general
fallback surface, and convex fingers are excluded for small objects.
Among the modes whose surface pair fits (trying both ways of assigning
fingers to faces), the one needing the least motor rotation from the
current mode wins.  When nothing fits, the nearest mode with a deformable
surface is selected instead and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .control import switch_rotation
from .modes import DEFAULT_SMALL_OBJECT_HEIGHT, GcModeTable, SurfaceKind
from .objects import ObjectDescription

__all__ = [
    "ObjectFace",
    "ObjectFaces",
    "PlannerThresholds",
    "PlanResult",
    "candidate_surfaces",
    "select_mode",
    "faces_from_description",
]


class ObjectFace(Enum):
    FLAT = "flat"
    CONVEX = "convex"
    CONCAVE = "concave"
    COMPLEX = "complex"


@dataclass(frozen=True)
class ObjectFaces:
    """What the two grasped faces of the object look like, plus its height."""

    left: ObjectFace
    right: ObjectFace
    height: float

    def __post_init__(self) -> None:
        if not self.height > 0:
            raise ValueError("object height must be positive")


@dataclass(frozen=True)
class PlannerThresholds:
    """Tunable size criteria.

    small_object_height: below this, convex finger surfaces are excluded
        (a convex face cannot get purchase on a small object).
    """

    small_object_height: float = DEFAULT_SMALL_OBJECT_HEIGHT


@dataclass(frozen=True)
class PlanResult:
    k_goal: int
    rotation: float               # rad of motor rotation from the start mode
    rationale: tuple[str, ...]
    fallback_used: bool
    candidates_left: tuple[SurfaceKind, ...]
    candidates_right: tuple[SurfaceKind, ...]


def candidate_surfaces(face: ObjectFace, height: float,
                       thresholds: PlannerThresholds = PlannerThresholds()
                       ) -> tuple[SurfaceKind, ...]:
    """Finger surfaces usable against one object face, best first.

    Curved faces prefer the complementary finger curvature and accept flat;
    flat faces take only flat fingers (a convex point contact is never
    preferred); complex faces yield no candidates, which triggers the
    deformable fallback.  Convex fingers are dropped for objects below the
    small-object height.
    """
    if face is ObjectFace.COMPLEX:
        return ()
    if face is ObjectFace.FLAT:
        ranked = (SurfaceKind.FLAT,)
    elif face is ObjectFace.CONVEX:
        ranked = (SurfaceKind.CONCAVE, SurfaceKind.FLAT)
    else:
        ranked = (SurfaceKind.CONVEX, SurfaceKind.FLAT)
    if height < thresholds.small_object_height:
        ranked = tuple(k for k in ranked if k is not SurfaceKind.CONVEX)
    return ranked


def _feasible(entry, left_set, right_set) -> bool:
    s3, s4 = entry
    return ((s3.kind in left_set and s4.kind in right_set)
            or (s3.kind in right_set and s4.kind in left_set))


def select_mode(faces: ObjectFaces, k_now: int, table: GcModeTable,
                switch_interval: float,
                thresholds: PlannerThresholds = PlannerThresholds()) -> PlanResult:
    """Pick the mode for an object, minimizing rotation from the current mode.

    Preferred (shape-matched) surfaces are tried first; only if no mode
    pairs both preferred surfaces do the full candidate sets apply.  Ties
    on rotation break toward the lower mode index.  With no feasible mode
    at all, the nearest deformable-surface mode is selected and flagged.
    """
    n_gc = len(table)
    cand_left = candidate_surfaces(faces.left, faces.height, thresholds)
    cand_right = candidate_surfaces(faces.right, faces.height, thresholds)
    rationale = [
        f"left face {faces.left.value}: candidates {[k.value for k in cand_left]}",
        f"right face {faces.right.value}: candidates {[k.value for k in cand_right]}",
    ]

    def pick(indices: list[int]) -> tuple[int, float]:
        scored = [(switch_rotation(k_now, k, n_gc, switch_interval), k)
                  for k in indices]
        rotation, k = min(scored)
        return k, rotation

    preferred_left = set(cand_left[:1])
    preferred_right = set(cand_right[:1])
    tier1 = [k for k in range(1, n_gc + 1)
             if _feasible(table.entry(k), preferred_left, preferred_right)]
    tier2 = [k for k in range(1, n_gc + 1)
             if _feasible(table.entry(k), set(cand_left), set(cand_right))]

    if tier1:
        k_goal, rotation = pick(tier1)
        rationale.append(
            f"modes pairing both preferred surfaces: {tier1}; "
            f"mode {k_goal} needs the least rotation "
            f"({math.degrees(rotation):g} deg)")
        fallback = False
    elif tier2:
        k_goal, rotation = pick(tier2)
        rationale.append(
            f"no mode pairs both preferred surfaces; feasible modes {tier2}; "
            f"mode {k_goal} needs the least rotation "
            f"({math.degrees(rotation):g} deg)")
        fallback = False
    else:
        deform = list(table.modes_containing(SurfaceKind.DEFORMABLE_FLAT))
        if not deform:
            raise ValueError("no feasible mode and the table has no "
                             "deformable surface to fall back to")
        k_goal, rotation = pick(deform)
        rationale.append(
            f"no mode fits the face criteria; falling back to the nearest "
            f"deformable-surface mode {k_goal} "
            f"({math.degrees(rotation):g} deg)")
        fallback = True

    return PlanResult(k_goal=k_goal, rotation=rotation,
                      rationale=tuple(rationale), fallback_used=fallback,
                      candidates_left=cand_left, candidates_right=cand_right)


def faces_from_description(desc: ObjectDescription) -> ObjectFaces:
    """Build planner input from a parsed object file.

    Missing face declarations default to flat faces; the height falls back
    to the object geometry.
    """
    def face(name: str | None) -> ObjectFace:
        return ObjectFace(name) if name else ObjectFace.FLAT

    return ObjectFaces(left=face(desc.left_face), right=face(desc.right_face),
                       height=desc.planner_height)
