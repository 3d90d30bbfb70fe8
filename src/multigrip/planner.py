"""Rule-based mode selection from the target object's face shapes and size.

Candidate finger surfaces are chosen per object face: a curved face
prefers the complementary finger curvature, with flat as the general
fallback surface, and convex fingers are excluded for small objects.
A mode's surface pair fits if either way of assigning fingers to faces
does; `select_mode` ranks the modes by fit, then by motor rotation.
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


def _check_face(name: str, face: ObjectFace) -> None:
    if not isinstance(face, ObjectFace):
        raise ValueError(f"{name} must be an ObjectFace, got {face!r}")


@dataclass(frozen=True)
class ObjectFaces:
    """What the two grasped faces of the object look like, plus its height."""

    left: ObjectFace
    right: ObjectFace
    height: float

    def __post_init__(self) -> None:
        _check_face("left face", self.left)
        _check_face("right face", self.right)
        if not 0 < self.height < math.inf:
            raise ValueError(f"object height must be positive and finite, got {self.height!r}")


@dataclass(frozen=True)
class PlannerThresholds:
    """Tunable size criteria.

    small_object_height: below this, convex finger surfaces are excluded
        (a convex face cannot get purchase on a small object).
    """

    small_object_height: float = DEFAULT_SMALL_OBJECT_HEIGHT

    def __post_init__(self) -> None:
        if not math.isfinite(self.small_object_height):
            raise ValueError(f"small_object_height must be finite, got {self.small_object_height!r}")


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
    _check_face("face", face)
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


# select_mode's rationale line per tier: {0} the tier, {1} the pick, {2} degrees.
_TIER_RATIONALE = (
    "modes pairing both preferred surfaces: {0}; "
    "mode {1} needs the least rotation ({2:g} deg)",
    "no mode pairs both preferred surfaces; feasible modes {0}; "
    "mode {1} needs the least rotation ({2:g} deg)",
    "no mode fits the face criteria; falling back to the nearest "
    "deformable-surface mode {1} ({2:g} deg)")


def _feasible(entry, left, right) -> bool:
    s3, s4 = entry
    return ((s3.kind in left and s4.kind in right)
            or (s3.kind in right and s4.kind in left))


def select_mode(faces: ObjectFaces, k_now: int, table: GcModeTable,
                switch_interval: float,
                thresholds: PlannerThresholds = PlannerThresholds()) -> PlanResult:
    """Pick the mode for an object, minimizing rotation from the current mode.

    Three tiers in order of preference: the modes pairing both preferred
    (shape-matched) surfaces, those pairing any candidate surfaces, and the
    deformable-surface modes, a pick from which is flagged as the fallback.
    The first non-empty tier decides, by least rotation; ties on rotation
    break toward the lower mode index.
    """
    cand_left = candidate_surfaces(faces.left, faces.height, thresholds)
    cand_right = candidate_surfaces(faces.right, faces.height, thresholds)
    rationale = [
        f"left face {faces.left.value}: candidates {[k.value for k in cand_left]}",
        f"right face {faces.right.value}: candidates {[k.value for k in cand_right]}",
    ]
    tiers = [[k for k in range(1, len(table) + 1) if _feasible(table.entry(k), left, right)]
             for left, right in ((cand_left[:1], cand_right[:1]), (cand_left, cand_right))]
    tiers.append(table.modes_containing(SurfaceKind.DEFORMABLE_FLAT))
    for tier, line in zip(tiers, _TIER_RATIONALE):
        if tier:
            break
    else:
        raise ValueError("no feasible mode and the table has no "
                         "deformable surface to fall back to")
    rotation, k_goal = min((switch_rotation(k_now, k, len(table), switch_interval), k)
                           for k in tier)
    rationale.append(line.format(tier, k_goal, math.degrees(rotation)))
    return PlanResult(k_goal=k_goal, rotation=rotation, rationale=tuple(rationale),
                      fallback_used=tier is tiers[-1],
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
