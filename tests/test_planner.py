import math
import random
import re

import pytest

from multigrip.control import switch_rotation
from multigrip.grasp import GraspOutcome, classify_grasp
from multigrip.mechanics import DEFAULT_COUNTS
from multigrip.modes import (GcModeTable, SurfaceKind, build_mode_table, concave,
                             convex, deformable_flat, flat)
from multigrip.objects import (Box, Circle, ObjectSpec, ThinPlate,
                               parse_object_file)
from multigrip.planner import (ObjectFace, ObjectFaces, PlannerThresholds,
                               candidate_surfaces, faces_from_description,
                               select_mode)

INTERVAL = math.radians(108.0)


class TestCandidates:
    def test_convex_face_large_object(self):
        cands = candidate_surfaces(ObjectFace.CONVEX, 30.0)
        assert cands == (SurfaceKind.CONCAVE, SurfaceKind.FLAT)

    def test_concave_face_small_object_drops_convex(self):
        cands = candidate_surfaces(ObjectFace.CONCAVE, 5.0)
        assert cands == (SurfaceKind.FLAT,)

    def test_concave_face_large_object(self):
        cands = candidate_surfaces(ObjectFace.CONCAVE, 30.0)
        assert cands == (SurfaceKind.CONVEX, SurfaceKind.FLAT)

    def test_flat_face_flat_only(self):
        assert candidate_surfaces(ObjectFace.FLAT, 50.0) == (SurfaceKind.FLAT,)

    def test_complex_face_empty(self):
        assert candidate_surfaces(ObjectFace.COMPLEX, 20.0) == ()

    def test_threshold_configurable(self):
        thr = PlannerThresholds(small_object_height=25.0)
        cands = candidate_surfaces(ObjectFace.CONCAVE, 20.0, thr)
        assert SurfaceKind.CONVEX not in cands

    # a NaN threshold once silently kept convex fingers for small objects
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_refused(self, value):
        message = f"small_object_height must be finite, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PlannerThresholds(small_object_height=value)

    @pytest.mark.parametrize("height", [0.0, -1.0, math.nan, math.inf])
    def test_bad_height_refused(self, height):
        with pytest.raises(ValueError, match="^object height must be positive"):
            ObjectFaces(ObjectFace.FLAT, ObjectFace.FLAT, height)

    # a string face once fell through to the concave face's candidates
    @pytest.mark.parametrize("face", ["convex", "flat", SurfaceKind.FLAT, None])
    def test_face_that_is_not_an_object_face_refused(self, face):
        message = f"face must be an ObjectFace, got {face!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            candidate_surfaces(face, 30.0)
        with pytest.raises(ValueError, match=f"^left {re.escape(message)}$"):
            ObjectFaces(face, ObjectFace.FLAT, 30.0)
        with pytest.raises(ValueError, match=f"^right {re.escape(message)}$"):
            ObjectFaces(ObjectFace.FLAT, face, 30.0)


class TestSelectMode:
    def test_thin_plate_stays_flat(self, table):
        faces = ObjectFaces(ObjectFace.FLAT, ObjectFace.FLAT, 30.0)
        result = select_mode(faces, 1, table, INTERVAL)
        assert result.k_goal == 1
        assert not result.fallback_used
        assert result.rotation == 0.0
        assert result.rationale

    def test_convex_cylinder_selects_pocket_pair(self, table):
        faces = ObjectFaces(ObjectFace.CONVEX, ObjectFace.CONVEX, 30.0)
        result = select_mode(faces, 1, table, INTERVAL)
        assert result.k_goal == 3
        s3, s4 = table.entry(result.k_goal)
        assert s3.kind is SurfaceKind.CONCAVE and s4.kind is SurfaceKind.CONCAVE

    def test_complex_faces_fall_back_to_deformable(self, table):
        faces = ObjectFaces(ObjectFace.COMPLEX, ObjectFace.COMPLEX, 20.0)
        result = select_mode(faces, 1, table, INTERVAL)
        assert result.fallback_used
        assert result.k_goal == 4
        kinds = {s.kind for s in table.entry(result.k_goal)}
        assert SurfaceKind.DEFORMABLE_FLAT in kinds

    def test_fallback_picks_nearest_deformable(self, table):
        faces = ObjectFaces(ObjectFace.COMPLEX, ObjectFace.COMPLEX, 20.0)
        # from mode 5, deformable modes {4, 8, 12} sit 11, 3 and 7 steps away
        result = select_mode(faces, 5, table, INTERVAL)
        assert result.k_goal == 8

    def test_current_mode_kept_when_feasible(self, table):
        faces = ObjectFaces(ObjectFace.FLAT, ObjectFace.FLAT, 20.0)
        for k_now in range(1, 13):
            result = select_mode(faces, k_now, table, INTERVAL)
            if table.entry(k_now)[0].kind is SurfaceKind.FLAT \
                    and table.entry(k_now)[1].kind is SurfaceKind.FLAT:
                assert result.k_goal == k_now

    def test_mixed_faces_use_both_orientations(self, table):
        faces = ObjectFaces(ObjectFace.CONVEX, ObjectFace.FLAT, 30.0)
        result = select_mode(faces, 8, table, INTERVAL)
        # preferred pair {concave, flat}: modes 7 (flat, concave) and
        # 9 (concave, flat); from mode 8 the nearest is 9
        assert result.k_goal == 9

    def test_minimal_rotation_exhaustive(self, table):
        fixtures = [
            ObjectFaces(ObjectFace.FLAT, ObjectFace.FLAT, 30.0),
            ObjectFaces(ObjectFace.CONVEX, ObjectFace.CONVEX, 30.0),
            ObjectFaces(ObjectFace.CONCAVE, ObjectFace.CONCAVE, 25.0),
            ObjectFaces(ObjectFace.CONVEX, ObjectFace.FLAT, 30.0),
        ]
        for faces in fixtures:
            for k_now in range(1, 13):
                result = select_mode(faces, k_now, table, INTERVAL)
                chosen = result.rotation
                # no other mode with the same-or-better feasibility tier is closer
                cand_l = candidate_surfaces(faces.left, faces.height)
                cand_r = candidate_surfaces(faces.right, faces.height)
                pref = (set(cand_l[:1]), set(cand_r[:1]))
                tier1 = [k for k in range(1, 13)
                         if _fits(table.entry(k), *pref)]
                pool = tier1 if tier1 else [
                    k for k in range(1, 13)
                    if _fits(table.entry(k), set(cand_l), set(cand_r))]
                for k in pool:
                    assert chosen <= switch_rotation(k_now, k, 12, INTERVAL) + 1e-12

    def test_second_tier_when_no_mode_pairs_both_preferred(self):
        # no concave finger at all, so a two-convex-faced object falls to
        # the full candidate sets, where only the flat-flat modes fit
        table = build_mode_table(DEFAULT_COUNTS, (flat(), convex(10.0), flat()),
                                 (convex(10.0), flat(), convex(10.0), deformable_flat()))
        faces = ObjectFaces(ObjectFace.CONVEX, ObjectFace.CONVEX, 30.0)
        result = select_mode(faces, 1, table, INTERVAL)
        assert result.k_goal == 6
        assert not result.fallback_used
        assert "no mode pairs both preferred surfaces; feasible modes [6, 10]" \
            in result.rationale[-1]

    def test_determinism(self, table):
        faces = ObjectFaces(ObjectFace.CONVEX, ObjectFace.CONVEX, 30.0)
        a = select_mode(faces, 7, table, INTERVAL)
        b = select_mode(faces, 7, table, INTERVAL)
        assert a == b


def _fits(entry, left_set, right_set):
    s3, s4 = entry
    return ((s3.kind in left_set and s4.kind in right_set)
            or (s3.kind in right_set and s4.kind in left_set))


_SHAPES = (flat(), convex(10.0), concave(10.0), deformable_flat())


class TestTierOrderOnRandomTables:
    """select_mode against the paper's order of preference on random tables.

    The tiers are: modes pairing both preferred surfaces, modes pairing any
    candidate surfaces, modes with a deformable surface.  The pick is the
    least-rotation mode of the first non-empty tier, ties to the lower index.
    """

    def test_first_nonempty_tier_least_rotation(self):
        rng = random.Random(34)
        seen = {"tier1": 0, "tier2": 0, "fallback": 0, "refused": 0}
        for _ in range(150):
            n = rng.randint(1, 12)
            # a third of the tables have no deformable surface at all
            shapes = _SHAPES[:3] if rng.random() < 1 / 3 else _SHAPES
            table = GcModeTable(tuple((rng.choice(shapes), rng.choice(shapes))
                                      for _ in range(n)))
            for left in ObjectFace:
                for right in ObjectFace:
                    faces = ObjectFaces(left, right, rng.choice((5.0, 30.0)))
                    for k_now in range(1, n + 1):
                        self._check(faces, k_now, table, seen)
        assert all(seen.values()), seen

    @staticmethod
    def _check(faces, k_now, table, seen):
        cand_l = candidate_surfaces(faces.left, faces.height)
        cand_r = candidate_surfaces(faces.right, faces.height)
        modes = range(1, len(table) + 1)
        tier1 = [k for k in modes if _fits(table.entry(k), set(cand_l[:1]), set(cand_r[:1]))]
        tier2 = [k for k in modes if _fits(table.entry(k), set(cand_l), set(cand_r))]
        deform = [k for k in modes
                  if SurfaceKind.DEFORMABLE_FLAT in {s.kind for s in table.entry(k)}]
        if not (tier1 or tier2 or deform):
            with pytest.raises(ValueError, match="^no feasible mode and the table has no "
                                                 "deformable surface to fall back to$"):
                select_mode(faces, k_now, table, INTERVAL)
            seen["refused"] += 1
            return
        result = select_mode(faces, k_now, table, INTERVAL)
        tier = tier1 or tier2 or deform
        assert result.k_goal in tier
        assert result.fallback_used == (not tier1 and not tier2)
        assert result.rotation == switch_rotation(k_now, result.k_goal, len(table), INTERVAL)
        for k in tier:
            other = switch_rotation(k_now, k, len(table), INTERVAL)
            assert (result.rotation, result.k_goal) <= (other, k)
        seen["tier1" if tier1 else "tier2" if tier2 else "fallback"] += 1


class TestCrossCheckWithClassifier:
    def test_planned_modes_never_fail(self, table):
        objects = {
            "large_cylinder": (ObjectSpec(Circle(15.0), mu=0.5),
                               ObjectFaces(ObjectFace.CONVEX, ObjectFace.CONVEX, 30.0)),
            "small_cylinder": (ObjectSpec(Circle(5.0), mu=0.5),
                               ObjectFaces(ObjectFace.CONVEX, ObjectFace.CONVEX, 10.0)),
            "box": (ObjectSpec(Box(20.0, 25.0), mu=0.5),
                    ObjectFaces(ObjectFace.FLAT, ObjectFace.FLAT, 25.0)),
            "thin_plate": (ObjectSpec(ThinPlate(30.0, 1.0), mu=0.5),
                           ObjectFaces(ObjectFace.FLAT, ObjectFace.FLAT, 30.0)),
        }
        for name, (spec, faces) in objects.items():
            plan = select_mode(faces, 1, table, INTERVAL)
            result = classify_grasp(spec, table.entry(plan.k_goal))
            assert result.outcome is not GraspOutcome.FAIL, name


def test_faces_from_description_defaults():
    desc = parse_object_file("shape = box\nwidth_mm = 12\nheight_mm = 18\n")
    faces = faces_from_description(desc)
    assert faces.left is ObjectFace.FLAT and faces.right is ObjectFace.FLAT
    assert faces.height == 18.0


def test_faces_from_description_explicit():
    text = ("shape = circle\nradius_mm = 15\nleft_face = convex\n"
            "right_face = convex\nheight_mm = 30\nthickness_mm = 30\n")
    faces = faces_from_description(parse_object_file(text))
    assert faces.left is ObjectFace.CONVEX
    assert faces.height == 30.0
