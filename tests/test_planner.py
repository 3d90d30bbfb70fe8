import math

from multigrip.control import switch_rotation
from multigrip.grasp import GraspOutcome, classify_grasp
from multigrip.mechanics import DEFAULT_COUNTS
from multigrip.modes import (SurfaceKind, build_mode_table, convex, deformable_flat,
                             flat)
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
