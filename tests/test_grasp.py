import dataclasses
import functools
import math
import operator
import pickle
import random
import re
import tracemalloc
import types
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from multigrip import grasp, objects
from multigrip.config import default_config
from multigrip.grasp import (_CONTACT_TOL, _CORNER_TOL, _ERODE_CELLS, _HULL_MARGIN, _MERGE_RADIUS,
                             CagingResolutionWarning, Contact,
                             ContactSet, DegenerateContactWarning, GraspOutcome, SurfaceProfile,
                             _arange, _BitGrid, _cspace_obstacle, _Dilations, _erode_xy,
                             _erode_xy_from, _escapes_from, _face_outline, _finger_polygon,
                             _origin_strictly_inside, _polygon_runs, caging_test,
                             classify_grasp, closure_separation, compute_contacts,
                             force_closure_test, form_closure_test,
                             surface_profile)
from multigrip.modes import (SurfaceKind, build_mode_table, concave, convex,
                             deformable_flat, flat)
from multigrip.objects import (Arc, Box, Circle, CompositeFaces, FaceArc, ObjectSpec,
                               ThinPlate, face_arc, linspace, load_object_file,
                               object_polygon)
from oracles import (cspace_obstacle_by_fft, erode_xy, escapes_by_label,
                     grid_contact_ys, grid_finger_separation, grid_lateral_search,
                     hull_origin_inside, hull_origin_inside_exact, oracle_positive_span,
                     oracle_wrenches, pack_bits, points_in_polygon, points_to_polygon_distance,
                     polygons_intersect, reference_cspace_obstacle,
                     reference_erode_xy, reference_polygon_runs, rounding_dedupe,
                     runs_to_mask, seed_region_by_label, unpack_bits, window_region_by_label)

CC = (concave(10.0), concave(10.0))
FF = (flat(), flat())

BIG = ObjectSpec(Circle(15.0), mu=0.5)
SMALL = ObjectSpec(Circle(5.0), mu=0.5)
BOX = ObjectSpec(Box(20.0, 25.0), mu=0.5)
PLATE = ObjectSpec(ThinPlate(30.0, 1.0), mu=0.5)
FIXTURES = [BIG, SMALL, BOX, PLATE]


class TestSurfaceProfile:
    def test_flat_segment(self):
        outline = np.array(_face_outline(surface_profile(flat(), 20.0)))
        assert outline[:, 0] == pytest.approx(0.0)
        assert outline[0, 1] == -10.0 and outline[-1, 1] == 10.0

    def test_convex_semicircle_sagitta(self):
        p = surface_profile(convex(10.0), 20.0)
        assert p.height(0.0) == pytest.approx(10.0)
        assert p.height(10.0) == pytest.approx(0.0)

    def test_concave_sagitta_partial_arc(self):
        p = surface_profile(concave(10.0), 16.0)
        assert p.height(0.0) == pytest.approx(-4.0)

    def test_width_exceeding_arc_diameter(self):
        with pytest.raises(ValueError, match="cannot span"):
            surface_profile(convex(10.0), 21.0)

    def test_arc_spanning_its_diameter(self):
        # (w / 2) ** 2 rounds one ulp above r * r for this radius
        r = 15.179190192080124
        assert surface_profile(convex(r), 2 * r).height(0.0) == r
        half_disk = CompositeFaces(FaceArc("convex", r), FaceArc("flat"), 5.0, 2 * r)
        assert ObjectSpec(half_disk).closing_extent == 5.0 + r

    def test_deformable_is_geometrically_flat(self):
        p = surface_profile(deformable_flat(), 20.0)
        assert p.deformable
        assert p.height(3.0) == 0.0

    def test_profiles_of_one_face_compare_and_hash_equal(self):
        # built apart, so they are distinct objects
        first = surface_profile(concave(10.0), 20.0)
        surface_profile.cache_clear()
        second = surface_profile(concave(10.0), 20.0)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert surface_profile(concave(10.0), 16.0) != first


class TestComputeContacts:
    def test_large_circle_pocket_edges(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        cs = compute_contacts(BIG, lp, rp)
        assert len(cs) == 4
        xs = sorted(round(c.point[0], 6) for c in cs)
        edge_x = math.sqrt(15.0 ** 2 - 10.0 ** 2)
        assert xs == pytest.approx([-edge_x, -edge_x, edge_x, edge_x])
        assert sorted(c.point[1] for c in cs) == pytest.approx([-10, -10, 10, 10])
        for c in cs:
            # normals point through the circle center
            px, py = c.point
            r = math.hypot(px, py)
            assert c.normal == pytest.approx((-px / r, -py / r), abs=1e-9)

    def test_small_circle_nests_at_pocket_bottom(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        cs = compute_contacts(SMALL, lp, rp)
        assert len(cs) == 2
        assert sorted(c.point[0] for c in cs) == pytest.approx([-5.0, 5.0])
        assert [c.point[1] for c in cs] == pytest.approx([0.0, 0.0])

    def test_box_flat_parallel_overlap_endpoints(self):
        lp = rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(BOX, lp, rp)
        assert len(cs) == 4
        ys = sorted(round(c.point[1], 6) for c in cs)
        assert ys == pytest.approx([-10.0, -10.0, 10.0, 10.0])
        assert all(abs(c.point[0]) == pytest.approx(10.0) for c in cs)

    def test_reflection_symmetry_across_closing_axis(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        cs = compute_contacts(BIG, lp, rp)
        points = {(round(c.point[0], 9), round(c.point[1], 9)) for c in cs}
        mirrored = {(x, -y) for x, y in points}
        assert points == mirrored

    def test_convex_fingers_touch_circle_at_apexes(self):
        lp = rp = surface_profile(convex(10.0), 20.0)
        cs = compute_contacts(BIG, lp, rp)
        assert len(cs) == 2
        assert sorted(c.point[0] for c in cs) == pytest.approx([-15.0, 15.0], abs=1e-6)
        assert [c.point[1] for c in cs] == pytest.approx([0.0, 0.0], abs=1e-3)
        for c in cs:
            assert abs(c.normal[0]) == pytest.approx(1.0, abs=1e-6)

    def test_mixed_pocket_flat_pair(self):
        lp = surface_profile(concave(10.0), 20.0)
        rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(BIG, lp, rp)
        left = [c for c in cs if c.finger == "3S"]
        right = [c for c in cs if c.finger == "4S"]
        assert len(left) == 2   # pocket edges
        assert len(right) == 1  # flat tangency
        assert right[0].point[0] == pytest.approx(15.0, abs=1e-6)

    def test_composite_convex_faces_tangent_contact(self):
        pill = ObjectSpec(CompositeFaces(left=FaceArc("convex", 12.0),
                                         right=FaceArc("convex", 12.0),
                                         width=10.0, height=16.0), mu=0.5)
        lp = rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(pill, lp, rp)
        assert len(cs) == 2
        bulge = 12.0 - math.sqrt(12.0 ** 2 - 8.0 ** 2)
        assert sorted(c.point[0] for c in cs) == pytest.approx(
            [-(5.0 + bulge), 5.0 + bulge], abs=1e-6)
        assert [c.point[1] for c in cs] == pytest.approx([0.0, 0.0], abs=1e-3)

    def test_explicit_gap_penetration_rejected(self):
        lp = rp = surface_profile(flat(), 20.0)
        with pytest.raises(ValueError, match="penetrates"):
            compute_contacts(BOX, lp, rp, (-9.5, 9.5))

    def test_explicit_gap_apart_gives_no_contacts(self):
        lp = rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(BOX, lp, rp, (-12.5, 12.5))
        assert len(cs) == 0

    @pytest.mark.parametrize("positions", [
        (math.nan, math.nan), (-12.0, math.inf), (-math.inf, 12.0)])
    @pytest.mark.parametrize("entry", [compute_contacts, caging_test])
    def test_non_finite_positions_refused(self, entry, positions):
        lp = rp = surface_profile(flat(), 20.0)
        with pytest.raises(ValueError, match="^positions must be finite"):
            entry(BOX, lp, rp, positions)


class TestClosureSeparation:
    def test_large_circle_touches_before_fingers_meet(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        (x_left, x_right), touched = closure_separation(BIG, lp, rp)
        sep = x_right - x_left
        assert touched
        assert sep == pytest.approx(2 * math.sqrt(125.0), rel=1e-9)

    def test_small_circle_fingers_meet_first(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        (x_left, x_right), touched = closure_separation(SMALL, lp, rp)
        sep = x_right - x_left
        assert not touched
        assert sep == pytest.approx(0.0, abs=1e-9)

    def test_box_between_flats(self):
        lp = rp = surface_profile(flat(), 20.0)
        (x_left, x_right), touched = closure_separation(BOX, lp, rp)
        sep = x_right - x_left
        assert touched and sep == pytest.approx(20.0)


class TestPerFingerPlacement:
    def test_each_finger_at_its_own_position(self):
        # convex against flat: each finger at its own first contact touches,
        # symmetric closing stops with the flat finger short of the box
        left, right = surface_profile(convex(10.0), 20.0), surface_profile(flat(), 20.0)
        cs = compute_contacts(BOX, left, right)
        assert [c.finger for c in cs] == ["3S", "4S", "4S"]
        assert force_closure_test(cs, 0.5) is True
        positions, touched = closure_separation(BOX, left, right)
        assert touched
        assert [c.finger for c in compute_contacts(BOX, left, right, positions)] == ["3S"]
        # the disk is caged between closed pockets until one finger backs off
        lp = rp = surface_profile(concave(10.0), 20.0)
        (x_left, x_right), _ = closure_separation(SMALL, lp, rp)
        assert caging_test(SMALL, lp, rp, (x_left, x_right)) is True
        assert caging_test(SMALL, lp, rp, (x_left, x_right + 30.0)) is False


_ROUNDING = 1e-12   # mm; spread of a clearance that is constant but for rounding


@st.composite
def _objects(draw):
    size = st.floats(0.02, 40.0)   # down to overlaps narrower than the merge radius
    kind = draw(st.sampled_from(["circle", "box", "plate", "composite"]))
    if kind == "circle":
        return ObjectSpec(Circle(draw(size)))
    if kind == "box":
        return ObjectSpec(Box(draw(size), draw(size)))
    if kind == "plate":
        return ObjectSpec(ThinPlate(draw(size), draw(st.floats(0.2, 5.0))))
    height = draw(size)
    arcs = [draw(st.sampled_from(["flat", "convex", "concave"])) for _ in range(2)]
    left, right = (FaceArc(a) if a == "flat" else FaceArc(a, draw(st.floats(height / 2.0, 60.0)))
                   for a in arcs)
    return ObjectSpec(CompositeFaces(left, right, draw(size), height))


@st.composite
def _faces(draw):
    width = draw(st.floats(0.05, 40.0))
    kind = draw(st.sampled_from([flat, deformable_flat, convex, concave]))
    if kind in (flat, deformable_flat):
        return surface_profile(kind(), width)
    return surface_profile(kind(draw(st.floats(width / 2.0, 40.0))), width)


def _same_extremum(new: float, old: float, candidates: np.ndarray) -> bool:
    """Bit-identical, or both rounding noise around a clearance that is
    constant over the overlap: a flank conforming to the face."""
    return new == old or (np.ptp(candidates) <= _ROUNDING
                          and abs(new - old) <= _ROUNDING)


def _same_up_to_named_changes(new: list[float], old: list[float]) -> bool:
    """Contact positions of the closed form against the grid's.

    Each grid contact joins the closed-form contact p nearest to it.  A lone
    one is p itself, or a sample within 1e-12 of p = 0.0, the flank centre.
    A pair is the two sampled ends of a band within tolerance around p that
    is wider than the merge radius but not the whole overlap."""
    if not new:
        return not old
    groups = {p: [] for p in new}
    for y in old:
        groups[min(new, key=lambda p: abs(p - y))].append(y)
    for p, group in groups.items():
        if len(group) == 1:
            if not (group[0] == p or (p == 0.0 and abs(group[0]) <= 1e-12)):
                return False
        elif not (len(group) == 2 and group[0] <= p <= group[1]
                  and group[1] - group[0] > _MERGE_RADIUS):
            return False
    return True


class TestContactSearchMatchesGrid:
    """The three-candidate search against the dense lateral grid it replaced."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(spec=_objects(), left=_faces(), right=_faces())
    # a band within tolerance 0.121 mm wide around the flank centre
    @example(spec=ObjectSpec(Circle(30.0)), left=surface_profile(concave(30.5), 20.0),
             right=surface_profile(flat(), 20.0))
    # a convex flank in a pocket of its own radius: the clearance is constant
    @example(spec=ObjectSpec(CompositeFaces(FaceArc("convex", 15.0), FaceArc("flat"),
                                            12.086082964244202, 30.0)),
             left=surface_profile(concave(15.0), 30.0), right=surface_profile(flat(), 30.0))
    def test_references_separations_and_contacts(self, spec, left, right):
        sides = ((left, -1, "3S"), (right, +1, "4S"))
        refs, exact = [], True
        for profile, side, _ in sides:
            _, ref, _, end, mid, _, _ = grasp._lateral_search(spec, profile, side)
            clearance = [end, mid, end]   # at (-hi, 0, hi)
            refs.append(grid_lateral_search(spec, profile, side)[0])
            assert _same_extremum(ref, refs[-1], clearance), (profile, side)
            exact &= ref == refs[-1]

        ys = np.array([-1.0, 0.0, 1.0]) * min(left.width, right.width) / 2.0
        sep_fingers = grasp._finger_separation(left, right)
        grid_fingers = grid_finger_separation(left, right)
        assert _same_extremum(sep_fingers, grid_fingers,
                              [left.height(y) + right.height(y) for y in ys])
        exact &= sep_fingers == grid_fingers
        (x_left, x_right), _ = closure_separation(spec, left, right)
        separation = x_right - x_left
        grid_separation = max(-2.0 * refs[0], 2.0 * refs[1], grid_fingers, 0.0)
        assert separation == grid_separation or (
            not exact and abs(separation - grid_separation) <= 2 * _ROUNDING)

        for positions in (None, (x_left, x_right)):
            contacts = compute_contacts(spec, left, right, positions)
            for (profile, side, finger), ref in zip(sides, refs):
                x_ref = ref if positions is None else positions[side > 0]
                points = np.array([c.point for c in contacts if c.finger == finger])
                xs, ys = points.reshape(-1, 2).T
                # each contact's clearance: the flank's x plus the face height
                heights = np.array([profile.height(y) for y in ys])
                assert np.all(abs(xs + side * heights - x_ref) <= _CONTACT_TOL)
                old = grid_contact_ys(spec, profile, side, None if positions is None else x_ref)
                assert _same_up_to_named_changes(ys.tolist(), old), (profile, side, positions,
                                                                     ys, old)


class TestArcInvariant:
    """What the three-candidate search relies on: every object flank and
    finger face is even in y and monotone in |y| over its domain, and its
    normals are unit vectors with the requested x sign."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(spec=_objects(), face=_faces(),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_even_monotone_with_unit_normals(self, spec, face, fractions):
        for arc in (*spec.flanks, face.arc):
            ys = sorted({0.0, arc.half, *(f * arc.half for f in fractions)})
            xs = [arc.x_of(y) for y in ys]
            assert [arc.x_of(-y) for y in ys] == xs, arc
            steps = [b - a for a, b in zip(xs, xs[1:])]
            assert all(d >= 0.0 for d in steps) or all(d <= 0.0 for d in steps), arc
            for y in ys:
                for toward in (-1, 1):
                    nx, ny = arc.normal(y, toward)
                    assert math.hypot(nx, ny) == pytest.approx(1.0, abs=1e-12), (arc, y)
                    assert math.copysign(1.0, nx) == toward, (arc, y)


def _assert_search_evaluates_the_candidates(spec, profile: SurfaceProfile, side: int):
    """The search's clearances and flank values are, bit for bit, those at
    (-hi, 0, hi), the end values standing for both ends."""
    flank, _, hi, end, mid, x_end, x_mid = grasp._lateral_search(spec, profile, side)
    assert repr(hi) == repr(min(flank.half, profile.arc.half))
    ys = (-hi, 0.0, hi)
    assert repr([end, mid, end]) == repr([flank.x_of(y) + side * profile.arc.x_of(y)
                                          for y in ys])
    assert repr([x_end, x_mid, x_end]) == repr([flank.x_of(y) for y in ys])


@st.composite
def _arcs(draw, side: int):
    """A flat, convex or concave `face_arc`: radius 1-50 mm, half up to the
    radius and sometimes below 1e-9 mm."""
    kind = draw(st.sampled_from(["flat", "convex", "concave"]))
    radius = draw(st.floats(1.0, 50.0))
    half = draw(st.one_of(st.floats(1e-12, 1e-9), st.floats(1e-9, 1.0).map(lambda f: f * radius)))
    return face_arc(kind, None if kind == "flat" else radius, half,
                    draw(st.floats(0.0, 40.0)), side)


class TestSearchShortcut:
    """The search evaluates one end of the overlap and uses it for both."""

    def test_fixture_flanks_against_mode_faces(self, fixtures_dir):
        cfg = default_config()
        table = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
        faces = {surface_profile(shape, cfg.face_width)
                 for mode in range(1, len(table) + 1) for shape in table.entry(mode)}
        for path in sorted((fixtures_dir / "objects").glob("*.object")):
            spec = load_object_file(path).spec
            for face in faces:
                for side in (-1, 1):
                    _assert_search_evaluates_the_candidates(spec, face, side)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), side=st.sampled_from([-1, 1]))
    def test_random_flanks_and_faces(self, data, side):
        flank, face = data.draw(_arcs(side)), data.draw(_arcs(1))
        profile = SurfaceProfile(shape=flat(), width=2.0 * face.half, arc=face)
        _assert_search_evaluates_the_candidates(types.SimpleNamespace(flanks=(flank, flank)),
                                                profile, side)


def _corner_offsets(half: float) -> list[float]:
    """Lateral positions whose distance from the corner at half is 0, +-tol
    and +-2 tol, rounded to floats, with both float neighbours of each +-tol
    one, so the inclusive edge is pinned from both sides."""
    ys = [half + k * _CORNER_TOL for k in (0, 1, -1, 2, -2)]
    return ys + [math.nextafter(y, d) for y in ys[1:3] for d in (-math.inf, math.inf)]


def _within_corner_tol(y: float, half: float) -> bool:
    """|y| - half within _CORNER_TOL, in exact rational arithmetic."""
    return abs(abs(Fraction(y)) - Fraction(half)) <= Fraction(_CORNER_TOL)


class TestCornerTolerance:
    """A contact within _CORNER_TOL of a corner takes the corner's normal:
    the face's at an object corner, the closing axis where a face rim meets
    it.  The edge is inclusive and decided exactly; 10 mm sits away from
    any power of two, so y - half is exact but +-tol itself rounds."""

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_flank_corner(self, side, sign):
        flank = face_arc("convex", 12.0, 10.0, 5.0, side)
        face = face_arc("concave", 20.0, 15.0, 0.0, 1)   # its rims far from every y
        decided = Counter()
        for y in (sign * v for v in _corner_offsets(10.0)):
            normal, = grasp._contact_normals(flank, face, (y,), side)
            at_corner = _within_corner_tol(y, 10.0)
            nx, ny = face.normal(y, 1.0)
            assert normal == ((-side * nx, ny) if at_corner else flank.normal(y, -side)), y
            decided[at_corner] += 1
        assert decided == {True: 3, False: 6}

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_face_corner(self, side, sign):
        face = face_arc("convex", 15.0, 10.0, 0.0, 1)
        decided = Counter()
        for y in (sign * v for v in _corner_offsets(10.0)):
            flank = face_arc("flat", None, abs(y), 5.0, side)   # y on its corner
            normal, = grasp._contact_normals(flank, face, (y,), side)
            at_corner = _within_corner_tol(y, 10.0)
            nx, ny = face.normal(y, 1.0)
            assert normal == ((-side * 1.0, 0.0) if at_corner else (-side * nx, ny)), y
            decided[at_corner] += 1
        assert decided == {True: 3, False: 6}


class TestObjectSpecCache:
    """The flanks and closing extent that ObjectSpec keeps once built sit
    outside its fields: value semantics are those of the fields alone."""

    @pytest.mark.parametrize("shape", [
        Circle(5.0), Box(20.0, 25.0), ThinPlate(30.0, 1.0),
        CompositeFaces(FaceArc("convex", 15.0), FaceArc("concave", 20.0), 20.0, 25.0)])
    def test_value_semantics(self, shape):
        cold, warm = ObjectSpec(shape, mu=0.4), ObjectSpec(shape, mu=0.4)
        cached = operator.attrgetter("flanks", "closing_extent", "outline", "reach")
        before = repr(warm), hash(warm)
        assert all(cached(warm))   # fill the caches
        assert (repr(warm), hash(warm)) == before
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert [f.name for f in dataclasses.fields(warm)] == ["shape", "mu"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            warm.mu = 0.5
        for spec in (cold, warm):
            copy = pickle.loads(pickle.dumps(spec))
            assert copy == spec and hash(copy) == hash(spec) and repr(copy) == repr(spec)
            assert cached(copy) == cached(warm)
        # the outline is object_polygon's, vertex for vertex, and the reach
        # the largest hypot over it
        polygon = object_polygon(cold)
        assert type(warm.outline) is tuple and list(warm.outline) == polygon
        assert warm.reach == max(abs(complex(x, y)) for x, y in polygon)
        # replace builds a new object: nothing cached carries over
        assert cached(dataclasses.replace(warm, mu=0.3)) == cached(warm)
        narrow = dataclasses.replace(warm, shape=Box(8.0, 25.0))
        assert narrow.closing_extent == 8.0
        assert cached(narrow) == cached(ObjectSpec(Box(8.0, 25.0)))
        assert narrow.outline != warm.outline


class TestContactNormals:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(spec=_objects(), left=_faces(), right=_faces())
    def test_components_are_floats(self, spec, left, right):
        # the contacts CSV prints a flat flank's normal as 1.0, not 1
        positions, _ = closure_separation(spec, left, right)
        for contacts in (compute_contacts(spec, left, right),
                         compute_contacts(spec, left, right, positions)):
            for c in contacts:
                assert all(type(v) is float for v in c.normal), c


@st.composite
def _contacts_with_repeats(draw):
    """2-6 contacts at a scale of 1, 1e3 or 1e6 mm, some repeating an earlier
    point 1e-12 to 1e-7 mm away, exactly, or with a zero's sign flipped."""
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    value = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(-50.0, 50.0).map(lambda v: v * scale))
    nudge = st.one_of(st.just(0.0), st.builds(lambda sign, d: sign * d,
                                             st.sampled_from([-1.0, 1.0]),
                                             st.floats(1e-12, 1e-7)))
    normals = st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (-0.0, -1.0), (0.6, 0.8)])
    contacts = []
    for _ in range(draw(st.integers(2, 6))):
        if contacts and draw(st.booleans()):
            point = tuple(-v if d == 0.0 and v == 0.0 else v + d
                          for v, d in zip(draw(st.sampled_from(contacts)).point,
                                          (draw(nudge), draw(nudge))))
        else:
            point = (draw(value), draw(value))
        contacts.append(Contact(point, draw(normals), draw(st.sampled_from(["3S", "4S"]))))
    return ContactSet(tuple(contacts))


class TestDeduplication:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(cset=_contacts_with_repeats())
    def test_agrees_with_rounding_alone(self, cset):
        expected, collapsed = rounding_dedupe(cset)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = grasp._effective_contacts(cset)
        assert len(got) == len(expected) and all(a is b for a, b in zip(got, expected))
        assert [w.category for w in caught] == [DegenerateContactWarning] * (collapsed > 0)


def _wrench_cross_check(cset: ContactSet, mu: float, expected: bool):
    vectors = oracle_wrenches(cset, mu)
    assert oracle_positive_span(vectors) == expected


class TestFormClosure:
    def test_large_circle_pocket_grasp(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        cs = compute_contacts(BIG, lp, rp)
        assert form_closure_test(cs) is True
        _wrench_cross_check(cs, 0.0, True)

    def test_two_contacts_never_form_closure(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        cs = compute_contacts(SMALL, lp, rp)
        assert len(cs) == 2
        assert form_closure_test(cs) is False
        _wrench_cross_check(cs, 0.0, False)

    def test_parallel_normals_through_one_line(self):
        contacts = tuple(
            Contact(point=p, normal=n, finger=f)
            for p, n, f in [((-5.0, -8.0), (1.0, 0.0), "3S"),
                            ((-5.0, 8.0), (1.0, 0.0), "3S"),
                            ((5.0, 8.0), (-1.0, 0.0), "4S"),
                            ((5.0, -8.0), (-1.0, 0.0), "4S")])
        cs = ContactSet(contacts=contacts)
        assert form_closure_test(cs) is False
        _wrench_cross_check(cs, 0.0, False)

    def test_square_pyramid_of_normals_closes(self):
        # four contacts around a square, normals inward: classic closure
        contacts = tuple(
            Contact(point=p, normal=n, finger="3S")
            for p, n in [((-5.0, 1.0), (1.0, 0.0)), ((5.0, -1.0), (-1.0, 0.0)),
                         ((1.0, -5.0), (0.0, 1.0)), ((-1.0, 5.0), (0.0, -1.0))])
        cs = ContactSet(contacts=contacts)
        assert form_closure_test(cs) is True
        _wrench_cross_check(cs, 0.0, True)

    def test_scaling_invariance_about_centroid(self):
        for scale in (0.5, 2.0, 7.0):
            contacts = tuple(
                Contact(point=(scale * x, scale * y), normal=n, finger="3S")
                for (x, y), n in [((-5.0, 1.0), (1.0, 0.0)),
                                  ((5.0, -1.0), (-1.0, 0.0)),
                                  ((1.0, -5.0), (0.0, 1.0)),
                                  ((-1.0, 5.0), (0.0, -1.0))])
            assert form_closure_test(ContactSet(contacts=contacts)) is True

    def test_coincident_contacts_reported(self):
        c = Contact(point=(1.0, 0.0), normal=(-1.0, 0.0), finger="3S")
        cs = ContactSet(contacts=(c, c, c, c))
        with pytest.warns(DegenerateContactWarning) as form:
            assert form_closure_test(cs) is False
        with pytest.warns(DegenerateContactWarning) as force:
            assert force_closure_test(cs, 0.5) is False
        # each warning names the line that called the test, not one in grasp
        assert [w.filename for w in (*form, *force)] == [__file__, __file__]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            form_closure_test(ContactSet(contacts=()))


def _hull_inputs():
    """Point sets in 2-D and 3-D, with the degenerate cases Qhull rejects."""
    coord = st.floats(-3.0, 3.0, allow_subnormal=False)

    @st.composite
    def build(draw):
        dim = draw(st.sampled_from([2, 3]), label="dim")
        n = draw(st.integers(3, 16), label="points")
        kind = draw(st.sampled_from(
            ["general", "flat", "duplicates", "near facet"]), label="kind")
        vec = st.lists(coord, min_size=dim, max_size=dim).map(np.array)
        if kind == "flat":
            # collinear in 2-D, coplanar in 3-D, possibly through the origin
            origin = draw(st.one_of(st.just(np.zeros(dim)), vec))
            axes = np.array([draw(vec) for _ in range(dim - 1)])
            weights = np.array(draw(st.lists(st.lists(
                coord, min_size=dim - 1, max_size=dim - 1),
                min_size=n, max_size=n)))
            return origin + weights @ axes
        points = np.array([draw(vec) for _ in range(n)])
        if kind == "duplicates":
            picks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            return points[picks]
        if kind == "near facet":
            # put the origin just inside or outside one facet, within a few
            # margins of it and clear of the margin itself
            try:
                facets = ConvexHull(points).equations
            except QhullError:
                return points
            normal, offset = np.split(facets[draw(st.integers(
                0, len(facets) - 1), label="facet")], [dim])
            depth = draw(st.sampled_from([-0.5, 0.0, 0.3, 0.7, 1.5, 3.0]))
            return points + normal * (offset[0] + depth * _HULL_MARGIN)
        return points

    return build()


@st.composite
def _near_duplicate_hulls(draw):
    """Point sets with one point repeated 1e-12 to 1e-4 away, scaled to
    subnormal, unit, 1e3 or 1e31 size, or with one coordinate made subnormal."""
    dim = draw(st.sampled_from([2, 3]), label="dim")
    coord = st.floats(-3.0, 3.0, allow_subnormal=False)
    points = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                           min_size=dim + 1, max_size=10))
    twin = np.array(points[draw(st.integers(0, len(points) - 1))])
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    assume(np.linalg.norm(direction) > 0.1)
    gap = 10.0 ** draw(st.floats(-12.0, -4.0), label="log10 gap")
    points = np.array(points + [twin + gap * direction / np.linalg.norm(direction)])
    points *= draw(st.sampled_from([1e-310, 1.0, 1e3, 1e31]), label="scale")
    if draw(st.booleans(), label="subnormal coordinate"):
        points[draw(st.integers(0, len(points) - 1)), draw(st.integers(0, dim - 1))] = (
            draw(st.sampled_from([5e-324, -2e-315, 1e-310])))
    return points


@st.composite
def _extreme_hulls(draw):
    """Point sets scaled by 2^-1100 to 2^1000, with subnormal coordinates,
    with magnitudes mixed point by point, or with a point repeated a few ulps
    away; each transform applied or not."""
    dim = draw(st.sampled_from([2, 3]), label="dim")
    coord = st.floats(-3.0, 3.0, allow_subnormal=False)
    points = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                           min_size=dim + 1, max_size=7))
    pick = st.integers(0, len(points) - 1)
    if draw(st.booleans(), label="near-duplicate"):
        twin = list(points[draw(pick)])
        for _ in range(draw(st.integers(1, 4), label="ulps")):
            k = draw(st.integers(0, dim - 1))
            twin[k] = math.nextafter(twin[k], draw(st.sampled_from([-math.inf, math.inf])))
        points.append(twin)
    power = st.one_of(st.sampled_from([-1100, -1074, -1000, 0, 1000]),
                      st.integers(-1000, 1000))
    if draw(st.booleans(), label="mixed magnitudes"):
        points = [[math.ldexp(v, e) for v in p] for p, e in zip(
            points, draw(st.lists(power, min_size=len(points), max_size=len(points))))]
    else:
        e = draw(power, label="scale")
        points = [[math.ldexp(v, e) for v in p] for p in points]
    for _ in range(draw(st.integers(0, 3), label="subnormal coordinates")):
        points[draw(pick)][draw(st.integers(0, dim - 1))] = draw(
            st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True))
    return points


class TestHullTest:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(points=_hull_inputs())
    def test_matches_qhull(self, points):
        assert (_origin_strictly_inside(points.tolist())
                == hull_origin_inside(points, _HULL_MARGIN)), points.tolist()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(points=_near_duplicate_hulls())
    # a triangle around the origin with a vertex repeated 4e-12 away
    @example(points=np.array([[-0.7322992497948535, -0.8689912080867419],
                              [1.9058874755976305, 2.6023107714182316],
                              [0.06329656140205042, -0.2279574617887068],
                              [0.06329656140443936, -0.227957461785257]]))
    def test_near_duplicates_match_qhull(self, points):
        # a float slack on planes through the two near-duplicates, whose
        # normals are about their gap long, misread such sets
        assert (_origin_strictly_inside(points.tolist())
                == hull_origin_inside(points, _HULL_MARGIN)), points.tolist()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(points=_extreme_hulls())
    def test_extreme_magnitudes_match_exact_rationals(self, points):
        assert (_origin_strictly_inside(points)
                == hull_origin_inside_exact(points, _HULL_MARGIN)), points

    def test_known_interiors(self):
        def inside(points):
            return _origin_strictly_inside(points.tolist())

        square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert inside(square)
        assert not inside(square + [1.0, 0.0])   # a vertex
        assert not inside(square[:3])            # on an edge
        assert not inside(square * [1.0, 0.0])   # collinear
        tetra = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                          [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        assert inside(tetra)
        assert not inside(tetra * [1.0, 1.0, 0.0])  # coplanar
        # the facet opposite vertex 0 lies 1/sqrt(3) from the origin
        toward = tetra[0] / np.linalg.norm(tetra[0])
        gap = 1.0 / math.sqrt(3.0)
        assert inside(tetra + toward * (gap - 2 * _HULL_MARGIN))
        assert not inside(tetra + toward * (gap - 0.5 * _HULL_MARGIN))

    def test_large_sets_hold_little_memory(self):
        # ten contacts pushing one way: no pair closes, so 20 wrenches are enumerated
        contacts = ContactSet(tuple(_contact(float(x), 0.0, math.pi / 2) for x in range(10)))
        tracemalloc.start()
        try:
            assert force_closure_test(contacts, 0.3) is False
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an index map over all 1140 facets of 20 points would hold 365 kB
        assert held < 100_000 and peak < 100_000


class TestForceClosure:
    def test_box_between_flats_with_friction(self):
        lp = rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(BOX, lp, rp)
        assert force_closure_test(cs, 0.5) is True
        _wrench_cross_check(cs, 0.5, True)

    def test_box_frictionless_fails(self):
        lp = rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(BOX, lp, rp)
        assert force_closure_test(cs, 0.0) is False
        _wrench_cross_check(cs, 0.0, False)

    def test_single_contact_fails(self):
        cs = ContactSet(contacts=(Contact((1.0, 0.0), (-1.0, 0.0), "3S"),))
        assert force_closure_test(cs, 0.8) is False

    def test_monotone_in_friction(self):
        lp = rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(BOX, lp, rp)
        results = [force_closure_test(cs, mu) for mu in (0.0, 0.1, 0.3, 0.6, 1.0)]
        # once true it stays true
        first_true = results.index(True)
        assert all(results[first_true:])

    def test_antipodal_friction_grasp_on_circle(self):
        lp = rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(SMALL, lp, rp)
        assert len(cs) == 2
        assert force_closure_test(cs, 0.5) is True
        _wrench_cross_check(cs, 0.5, True)

    def test_near_duplicate_contacts_agree_with_qhull(self):
        # two contacts on one line of action 1e-8 mm apart, opposed by a third:
        # the origin lies 7e-3 deep in the hull of their wrenches
        contacts = (_contact(-5.0, 0.0, 0.0), _contact(-5.0 + 1e-8, 0.0, 0.0),
                    Contact((5.0, 0.0), (-1.0, 0.0), "4S"))
        wrenches = grasp._cone_wrenches(list(contacts), 0.01)
        assert hull_origin_inside(np.array(wrenches), _HULL_MARGIN)
        assert force_closure_test(ContactSet(contacts), 0.01) is True
        assert _origin_strictly_inside(wrenches) is True

    def test_negative_mu_rejected(self):
        cs = ContactSet(contacts=(Contact((1.0, 0.0), (-1.0, 0.0), "3S"),))
        with pytest.raises(ValueError):
            force_closure_test(cs, -0.1)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_mu_rejected_at_both_entries(self, mu):
        lp = rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(BOX, lp, rp)
        message = "^friction coefficient must be finite and >= 0$"
        with pytest.raises(ValueError, match=message):
            force_closure_test(cs, mu)
        with pytest.raises(ValueError, match=message):
            classify_grasp(BOX, FF, mu=mu)

    @pytest.mark.parametrize("bad", [
        Contact((math.nan, 0.0), (1.0, 0.0), "3S"),
        Contact((0.0, 5.0), (0.0, -math.inf), "4S")])
    def test_non_finite_contact_rejected_at_both_entries(self, bad):
        # a closing pair and a side contact, with the non-finite one third
        contacts = (Contact((-5.0, 0.0), (1.0, 0.0), "3S"),
                    Contact((5.0, 0.0), (-1.0, 0.0), "4S"), bad,
                    Contact((0.0, -5.0), (0.0, 1.0), "4S"))
        cs = ContactSet(contacts)
        with pytest.raises(ValueError, match="^force closure test: contact 2 is not finite"):
            force_closure_test(cs, 0.5)
        with pytest.raises(ValueError, match="^form closure test: contact 2 is not finite"):
            form_closure_test(cs)


_ANGLE = st.floats(-math.pi, math.pi, allow_subnormal=False)
_COORD = st.floats(-20.0, 20.0, allow_subnormal=False)
_MU = st.floats(0.0, 3.0, allow_subnormal=False)


def _contact(x: float, y: float, normal_angle: float) -> Contact:
    return Contact((x, y), (math.cos(normal_angle), math.sin(normal_angle)), "3S")


@st.composite
def _contact_sets(draw):
    """2-4 contacts: general ones, or rotation-free ones as compute_contacts
    produces them for a disk, on its circle with normals toward its centre."""
    n = draw(st.integers(2, 4), label="contacts")
    if draw(st.booleans(), label="disk"):
        r = draw(st.floats(1.0, 30.0), label="radius")
        angles = draw(st.lists(_ANGLE, min_size=n, max_size=n))
        return ContactSet(tuple(_contact(r * math.cos(a), r * math.sin(a), a + math.pi)
                                for a in angles), rotation_free=True)
    points = draw(st.lists(st.tuples(_COORD, _COORD, _ANGLE), min_size=n, max_size=n))
    return ContactSet(tuple(_contact(*p) for p in points))


class TestFrictionProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(cset=_contact_sets(), mus=st.lists(_MU, min_size=1, max_size=3))
    # a disk held at three points 120 degrees apart, friction near 0
    @example(cset=ContactSet(tuple(_contact(math.cos(a), math.sin(a), a + math.pi)
                                   for a in (0.0, 2.0, -2.0)), rotation_free=True),
             mus=[1e-80])
    def test_force_closure_monotone_in_mu(self, cset, mus):
        """More friction never loses force closure, starting from mu = 0,
        where it is form closure."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateContactWarning)
            closed = [force_closure_test(cset, mu) for mu in sorted([0.0, *mus])]
            assert form_closure_test(cset) == force_closure_test(cset, 0.0), cset
        assert closed == sorted(closed), (cset, mus)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(ends=st.lists(_COORD, min_size=4, max_size=4),
           normals=st.lists(_ANGLE, min_size=2, max_size=2), mu=_MU)
    # a thin wrench set: the cone edges of each contact nearly coincide
    @example(ends=[1.0, 0.0, 0.0, 0.0], normals=[2.0, 0.0], mu=1.07e-5)
    def test_two_contacts_agree_with_nguyen(self, ends, normals, mu):
        """Two contacts force-close iff the segment between them lies strictly
        inside both friction cones (squeezing) or both negated cones
        (expanding), Nguyen (IJRR 1988)."""
        x1, y1, x2, y2 = ends
        dx, dy = x2 - x1, y2 - y1
        assume(math.hypot(dx, dy) > 1e-6)   # closer, they are one contact point
        c1, c2 = _contact(x1, y1, normals[0]), _contact(x2, y2, normals[1])
        # angle between each normal and the segment toward the other contact
        a1 = math.atan2(abs(c1.normal[0] * dy - c1.normal[1] * dx),
                        c1.normal[0] * dx + c1.normal[1] * dy)
        a2 = math.atan2(abs(c2.normal[0] * dy - c2.normal[1] * dx),
                        -(c2.normal[0] * dx + c2.normal[1] * dy))
        phi = math.atan(mu)
        # the hull margin's band around each cone edge decides neither way
        assume(all(abs(a - edge) > 1e-6 for a in (a1, a2)
                   for edge in (phi, math.pi - phi)))
        squeezing = a1 < phi and a2 < phi
        expanding = math.pi - a1 < phi and math.pi - a2 < phi
        closed = force_closure_test(ContactSet((c1, c2)), mu)
        assert closed == (squeezing or expanding), (c1, c2, mu)
        # the closed form decides most pairs: keep the enumeration checked too
        rows = grasp._cone_wrenches([c1, c2], mu)
        assert _origin_strictly_inside(rows) == (squeezing or expanding), (c1, c2, mu)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(cset=_contact_sets(), mu=st.one_of(st.just(0.0), _MU))
    # a pair 1e-8 rad inside and outside a cone edge, 0.5 mm apart at 10 mm
    # from the origin: for both the origin lies within the hull margin
    @example(cset=ContactSet((_contact(10.0, 0.0, 0.0),
                              _contact(10.5, 0.0, math.pi - math.atan(0.5) + 1e-8))), mu=0.5)
    @example(cset=ContactSet((_contact(10.0, 0.0, 0.0),
                              _contact(10.5, 0.0, math.pi - math.atan(0.5) - 1e-8))), mu=0.5)
    # contacts closer than 1e-6 mm: as a pair, and beside a pair that closes
    @example(cset=ContactSet((_contact(0.0, 0.0, 0.0), _contact(5e-7, 0.0, math.pi))), mu=0.5)
    @example(cset=ContactSet((_contact(-5.0, 0.0, 0.0), _contact(-5.0, 5e-7, 0.0),
                              Contact((5.0, 0.0), (-1.0, 0.0), "4S"))), mu=0.5)
    # the same line of action 1e-8 mm apart: the pair closes, and the exact
    # enumeration agrees (a float slack on the short normal read no closure)
    @example(cset=ContactSet((_contact(-5.0, 0.0, 0.0), _contact(-5.0 + 1e-8, 0.0, 0.0),
                              Contact((5.0, 0.0), (-1.0, 0.0), "4S"))), mu=0.01)
    # exactly antiparallel normals, frictionless
    @example(cset=ContactSet(tuple(Contact(p, n, "3S") for p, n in [
        ((-5.0, -8.0), (0.6, 0.8)), ((-5.0, 8.0), (0.6, 0.8)),
        ((5.0, 8.0), (-0.6, -0.8)), ((5.0, -8.0), (-0.6, -0.8))])), mu=0.0)
    def test_closed_forms_agree_with_the_enumeration(self, cset, mu):
        """Whenever a closed form decides, the hull enumeration on the full
        wrench set gives the same verdict."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateContactWarning)
            contacts = grasp._effective_contacts(cset)
        enumerated = []
        original = grasp._origin_strictly_inside
        with mock.patch.object(grasp, "_origin_strictly_inside",
                               lambda points: enumerated.append(1) or original(points)):
            closed = grasp._closes(contacts, False, mu)
        if not enumerated:
            full = _origin_strictly_inside(grasp._cone_wrenches(contacts, mu))
            assert closed == full, (contacts, mu)


class TestCaging:
    def test_small_circle_in_closed_pockets(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        positions, _ = closure_separation(SMALL, lp, rp)
        assert caging_test(SMALL, lp, rp, positions) is True

    def test_circle_between_flats_escapes_sideways(self):
        lp = rp = surface_profile(flat(), 20.0)
        assert caging_test(SMALL, lp, rp, (-6.0, 6.0)) is False

    def test_form_closed_configuration_is_caged(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        positions, _ = closure_separation(BIG, lp, rp)
        assert caging_test(BIG, lp, rp, positions) is True

    def test_box_caging_with_rotation_grid(self):
        # a box in deep pockets cannot escape even allowing rotation
        small_box = ObjectSpec(Box(8.0, 8.0), mu=0.5)
        lp = rp = surface_profile(concave(10.0), 20.0)
        positions, _ = closure_separation(small_box, lp, rp)
        assert caging_test(small_box, lp, rp, positions, cell=1.0,
                           angle_cell_deg=30.0) is True

    def test_box_escape_with_rotation_grid(self):
        small_box = ObjectSpec(Box(6.0, 6.0), mu=0.5)
        lp = rp = surface_profile(flat(), 20.0)
        assert caging_test(small_box, lp, rp, (-7.0, 7.0), cell=1.0,
                           angle_cell_deg=30.0) is False

    @pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["cell", "angle_cell_deg"])
    def test_grid_arguments_out_of_domain_rejected(self, name, value):
        lp = rp = surface_profile(flat(), 20.0)
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            caging_test(BOX, lp, rp, (-12.0, 12.0), **{name: value})

    @pytest.mark.parametrize("angle_cell_deg, n", [(5.0, 72), (7.0, 51), (200.0, 2)])
    def test_rotation_slices_divide_the_turn_evenly(self, monkeypatch, angle_cell_deg, n):
        # a 6 mm box between flats 0.4 mm off each side: no wide escape at
        # rest, so every slice is built; footprints are the 4-vertex polygons
        box = ObjectSpec(Box(6.0, 6.0), mu=0.5)
        lp = rp = surface_profile(flat(), 20.0)
        builds, footprints = [], []
        build, runs = grasp._cspace_obstacle, grasp._polygon_runs
        monkeypatch.setattr(grasp, "_cspace_obstacle", lambda *a: builds.append(1) or build(*a))
        monkeypatch.setattr(grasp, "_polygon_runs",
                            lambda p, *a: (len(p) == 4 and footprints.append(p)) or runs(p, *a))
        with pytest.warns(CagingResolutionWarning):
            assert caging_test(box, lp, rp, (-3.4, 3.4), angle_cell_deg=angle_cell_deg) is False
        rest = math.atan2(-3.0, -3.0)   # first vertex, (-w/2, -h/2)
        angles = [math.degrees(math.atan2(p[0][1], p[0][0]) - rest) % 360.0 for p in footprints]
        assert len(builds) == n
        assert angles == pytest.approx([k * 360.0 / n for k in range(n)], abs=1e-9)

    @pytest.mark.parametrize("value", [1e-6, 5e-324])
    @pytest.mark.parametrize("obj, name", [(SMALL, "cell"), (BOX, "cell"),
                                           (BOX, "angle_cell_deg")])
    def test_grid_too_fine_to_build_rejected(self, obj, name, value):
        # refused from the axis lengths, before any axis or slice is built
        lp = rp = surface_profile(flat(), 20.0)
        with pytest.raises(ValueError, match=f"^{name} {re.escape(repr(value))} .* "
                                             "more than 2,000,000,000 cells in all$"):
            caging_test(obj, lp, rp, (-12.0, 12.0), **{name: value})

    @pytest.mark.parametrize("angle_cell_deg", [1e-6, 5e-324])
    def test_disk_has_one_slice_at_any_rotation_step(self, angle_cell_deg):
        lp = rp = surface_profile(concave(10.0), 20.0)
        positions, _ = closure_separation(SMALL, lp, rp)
        assert caging_test(SMALL, lp, rp, positions, angle_cell_deg=angle_cell_deg) is True

    @pytest.mark.parametrize("obj, positions, angle_cell_deg, searches", [
        (SMALL, (-5.4, 5.4), 5.0, 1),
        (ObjectSpec(Box(6.0, 6.0), mu=0.5), (-3.4, 3.4), 360.0, 1),
        (ObjectSpec(Box(6.0, 6.0), mu=0.5), (-3.4, 3.4), 5.0, 2)])
    def test_one_slice_runs_the_eroded_search_once(self, monkeypatch, obj, positions,
                                                  angle_cell_deg, searches):
        # with one slice the eroded search at the rest slice is the last one
        eroded, original = [], grasp._erode_xy_from
        monkeypatch.setattr(grasp, "_erode_xy_from",
                            lambda *a: eroded.append(1) or original(*a))
        lp = rp = surface_profile(flat(), 20.0)
        with pytest.warns(CagingResolutionWarning):
            assert caging_test(obj, lp, rp, positions, angle_cell_deg=angle_cell_deg) is False
        assert len(eroded) == searches

    def test_coarse_grid_reported(self):
        lp = rp = surface_profile(flat(), 20.0)
        with pytest.warns(CagingResolutionWarning):
            caging_test(SMALL, lp, rp, (-5.4, 5.4), cell=0.5)

    def test_cspace_obstacle_matches_exact_collision(self):
        # the rasterized configuration-space obstacle must agree with exact
        # collision except within a cell of the boundary, for a polygon and
        # for a disk (whose exact test is a centre-to-polygon distance)
        import random

        cell = 1.0
        lp = surface_profile(concave(10.0), 20.0)
        poly = np.array(_finger_polygon(lp, -6.0, -1))
        xs = np.arange(-30.0, 30.0 + cell, cell)
        ys = np.arange(-25.0, 25.0 + cell, cell)
        fingers = _polygon_runs(poly.tolist(), xs.tolist(), ys.tolist())
        m = int(math.ceil(6.0 / cell)) + 1
        local = (np.arange(-m, m + 1) * cell).tolist()

        def clear_of_boundary(outline, centres):
            # whether each posed object's boundary stays 1.5 cells from the
            # finger's; it does if the centre is that much farther than the
            # object's reach, since no boundary point strays farther from it
            # (the 1e-9 leaves round-off ties to the full check)
            reach = np.hypot(*outline.T).max()
            far = points_to_polygon_distance(centres, poly) > reach + 1.5 * cell + 1e-9
            outlines = outline + centres[~far, None]
            ahead = np.roll(outlines, -1, axis=1)
            edge_pts = np.concatenate([
                outlines + t * (ahead - outlines)
                for t in np.linspace(0.0, 1.0, 8, endpoint=False)], axis=1)
            dist = points_to_polygon_distance(edge_pts.reshape(-1, 2), poly)
            clear = far.copy()
            clear[~far] = dist.reshape(edge_pts.shape[:2]).min(axis=1) > 1.5 * cell
            return clear

        def disk_hits(centres, r=5.0):
            return (points_in_polygon(centres, poly)
                    | (points_to_polygon_distance(centres, poly) < r))

        def box_hits(centres):
            return np.array([polygons_intersect(np.array(object_polygon(box)) + c, poly)
                             for c in centres])

        box = ObjectSpec(Box(6.0, 9.0), mu=0.5)
        disk = ObjectSpec(Circle(5.0), mu=0.5)
        for obj, oracle in [(box, box_hits), (disk, disk_hits)]:
            footprint = _polygon_runs(object_polygon(obj), local, local)
            blocked = _obstacle([fingers], footprint, m, (len(xs), len(ys)))
            rng = random.Random(3)
            i, j = np.array([(rng.randrange(len(xs)), rng.randrange(len(ys)))
                             for _ in range(400)]).T
            centres = np.column_stack([xs[i], ys[j]])
            # skip poses within rasterization uncertainty of the boundary
            clear = clear_of_boundary(np.array(object_polygon(obj)), centres)
            wrong = blocked[i, j][clear] != oracle(centres[clear])
            assert not wrong.any(), (obj, centres[clear][wrong])
            assert clear.sum() > 100, obj

    def test_disk_with_room_escapes_without_warning(self):
        # 2 mm of clearance on each side is four cells: not resolution-limited
        lp = rp = surface_profile(flat(), 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CagingResolutionWarning)
            assert caging_test(SMALL, lp, rp, (-7.0, 7.0), cell=0.5) is False

    def test_polygon_escape_through_narrow_passage_reported(self):
        # 0.4 mm on each side of the box, below two 0.5 mm cells
        lp = rp = surface_profile(flat(), 20.0)
        small_box = ObjectSpec(Box(6.0, 6.0), mu=0.5)
        with pytest.warns(CagingResolutionWarning, match="two grid cells"):
            assert caging_test(small_box, lp, rp, (-3.4, 3.4), cell=0.5) is False

    def test_wide_escape_at_rest_angle_builds_one_slice(self, monkeypatch):
        # a box with 2 mm of room each side slides out at its rest angle, so
        # the other 71 rotation slices are never built
        from multigrip import grasp

        builds = []
        original = grasp._cspace_obstacle
        monkeypatch.setattr(grasp, "_cspace_obstacle",
                            lambda *a: builds.append(1) or original(*a))
        lp = rp = surface_profile(flat(), 20.0)
        small_box = ObjectSpec(Box(6.0, 6.0), mu=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CagingResolutionWarning)
            assert caging_test(small_box, lp, rp, (-5.0, 5.0), cell=0.5) is False
        assert len(builds) == 1
        builds.clear()
        with pytest.warns(CagingResolutionWarning):
            assert caging_test(small_box, lp, rp, (-3.4, 3.4), cell=0.5) is False
        assert len(builds) == 72

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rasterizer_matches_crossing_number_oracle(self, data):
        # cell for cell, on grids built as caging builds them, for random
        # polygons, vertices on cell centres and horizontal edges
        xs, ys = _caging_grid(data)
        polygon = _random_polygon(data, xs, ys, 10.0)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        expected = points_in_polygon(np.column_stack([gx.ravel(), gy.ravel()]),
                                     polygon).reshape(len(xs), len(ys))
        runs = np.array(_polygon_runs(polygon.tolist(), xs.tolist(), ys.tolist()),
                        dtype=int).reshape(-1, 3)
        np.testing.assert_array_equal(runs_to_mask(runs, expected.shape), expected)
        # no run is empty; each row's runs are sorted and disjoint
        row, i0, i1 = runs.T
        assert (i0 < i1).all()
        assert (np.diff(row) >= 0).all()
        same_row = row[1:] == row[:-1]
        assert (i0[1:][same_row] >= i1[:-1][same_row]).all()


def _runs(polygon: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> list[tuple[int, int, int]]:
    return _polygon_runs(np.asarray(polygon).tolist(), np.asarray(xs).tolist(),
                         np.asarray(ys).tolist())


def _mask(runs: list[tuple[int, int, int]], shape: tuple[int, int]) -> np.ndarray:
    return runs_to_mask(np.array(runs, dtype=int).reshape(-1, 3), shape)


def _obstacle(fingers: list[list[tuple[int, int, int]]],
              footprint: list[tuple[int, int, int]], centre: int,
              shape: tuple[int, int]) -> np.ndarray:
    """The kernel's obstacle for each finger's runs and the footprint runs,
    as a boolean grid."""
    grid = _BitGrid(*shape)
    return unpack_bits(_cspace_obstacle(_Dilations(grid, *fingers), footprint, centre, grid),
                       shape)


def _slices(free: np.ndarray) -> tuple[list[int], _BitGrid]:
    return [pack_bits(f) for f in free], _BitGrid(*free.shape[1:])


def _escapes(free: np.ndarray, seed: tuple[int, int, int]) -> bool:
    return _escapes_from(*_slices(free), seed)


def _eroded(free: np.ndarray) -> np.ndarray:
    slices, grid = _slices(free)
    return np.array([unpack_bits(_erode_xy(f, grid), free.shape[1:]) for f in slices])


def _eroded_from(free: np.ndarray, seed: tuple[int, int, int]) -> np.ndarray:
    slices, grid = _slices(free)
    return np.array([unpack_bits(f, free.shape[1:])
                     for f in _erode_xy_from(slices, grid, seed)])


def _caging_grid(data) -> tuple[np.ndarray, np.ndarray]:
    """Cell centres along x and y, spaced and offset as a caging grid."""
    cell = data.draw(st.sampled_from([0.25, 0.3, 0.5, 1.0]), label="cell")
    x_lo = data.draw(st.floats(-9.0, -3.0), label="x_lo")
    y_lo = data.draw(st.floats(-9.0, -3.0), label="y_lo")
    return (np.arange(x_lo, 6.0 + cell, cell), np.arange(y_lo, 6.0 + cell, cell))


def _random_polygon(data, xs, ys, bound: float) -> np.ndarray:
    """Random, mostly non-convex vertices within the bound or on cell
    centres, with some edges horizontal."""
    anywhere = st.floats(-bound, bound, allow_subnormal=False)
    x_of = st.one_of(anywhere, st.sampled_from(xs.tolist()))
    y_of = st.one_of(anywhere, st.sampled_from(ys.tolist()))
    vertices = [(data.draw(x_of), data.draw(y_of))]
    for _ in range(data.draw(st.integers(2, 11), label="extra vertices")):
        horizontal = data.draw(st.booleans(), label="horizontal edge")
        y = vertices[-1][1] if horizontal else data.draw(y_of)
        vertices.append((data.draw(x_of), y))
    return np.array(vertices)


def _sliver(data, xs, ys, bound: float) -> np.ndarray:
    """A slanted quadrilateral narrower than a cell along x: many of its
    rows have both crossings between the same two cell centres."""
    cell = xs[1] - xs[0]
    x0 = data.draw(st.floats(-bound, bound), label="sliver x")
    ends = st.one_of(st.floats(-bound, bound), st.sampled_from(ys.tolist()))
    y0, y1 = data.draw(ends, label="sliver y0"), data.draw(ends, label="sliver y1")
    width = data.draw(st.floats(0.01, 0.99), label="sliver width") * cell
    slant = data.draw(st.floats(-3.0, 3.0), label="sliver slant")
    return np.array([(x0, y0), (x0 + width, y0),
                     (x0 + slant + width, y1), (x0 + slant, y1)])


class TestObstacleDilation:
    """The run dilation against an FFT convolution of the painted runs."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_fft_convolution(self, data):
        xs, ys = _caging_grid(data)
        m = data.draw(st.integers(1, 8), label="footprint half-width")
        local = np.arange(-m, m + 1) * (xs[1] - xs[0])
        shapes = st.sampled_from([_random_polygon, _sliver])
        fingers = [_runs(data.draw(shapes, label="finger")(data, xs, ys, 10.0), xs, ys)
                   for _ in range(data.draw(st.integers(1, 2), label="fingers"))]
        footprint = _runs(data.draw(shapes, label="footprint")(
            data, local, local, local[-1] + 0.5), local, local)
        shape = (len(xs), len(ys))
        expected = cspace_obstacle_by_fft(_mask(sum(fingers, []), shape),
                                          _mask(footprint, (len(local),) * 2))
        np.testing.assert_array_equal(_obstacle(fingers, footprint, m, shape), expected)

    def test_every_slice_of_a_fixture_search(self, monkeypatch):
        # the box fixture at half size, caged in mode 3, runs the full
        # 72-slice polygon search
        from multigrip import grasp

        cfg = default_config()
        pair = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s).entry(3)
        box = ObjectSpec(Box(10.0, 12.5), mu=0.5)
        original = grasp._cspace_obstacle
        matches = []

        def checked(fingers, footprint, centre, grid):
            blocked = original(fingers, footprint, centre, grid)
            shape = (grid.nx, grid.ny)
            expected = cspace_obstacle_by_fft(unpack_bits(fingers[1], shape),
                                              _mask(footprint, (2 * centre + 1,) * 2))
            matches.append(np.array_equal(unpack_bits(blocked, shape), expected))
            return blocked

        monkeypatch.setattr(grasp, "_cspace_obstacle", checked)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CagingResolutionWarning)
            result = classify_grasp(box, pair, face_width=cfg.face_width,
                                    thin_threshold=cfg.thin_object,
                                    stroke=cfg.stroke_limit)
        assert result.outcome is GraspOutcome.CAGING
        assert len(result.contacts) == 0
        assert matches == [True] * 72


class TestKernelMatchesReference:
    """The bit-mask caging kernel against its earlier numpy form (the
    `reference_*` oracles), cell for cell: grid values, runs, obstacle,
    erosion and the escape verdict."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(start=st.floats(-60.0, -1.0), stop=st.floats(1.0, 60.0),
           step=st.one_of(st.sampled_from([0.25, 0.3, 0.5, 1.0]), st.floats(0.05, 2.0)))
    def test_grid_values(self, start, stop, step):
        assert _arange(start, stop, step) == np.arange(start, stop, step).tolist()
        for num in (129, 64):
            assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_cell_for_cell(self, data):
        xs, ys = _caging_grid(data)
        m = data.draw(st.integers(1, 8), label="footprint half-width")
        local = np.arange(-m, m + 1) * (xs[1] - xs[0])
        shapes = st.sampled_from([_random_polygon, _sliver])
        polygons = [data.draw(shapes, label="finger")(data, xs, ys, 10.0)
                    for _ in range(data.draw(st.integers(1, 2), label="fingers"))]
        outline = data.draw(shapes, label="footprint")(data, local, local, local[-1] + 0.5)
        fingers = [_runs(p, xs, ys) for p in polygons]
        reference = [reference_polygon_runs(p, xs, ys) for p in polygons]
        assert fingers == [list(map(tuple, r.tolist())) for r in reference]
        footprint, reference_footprint = (_runs(outline, local, local),
                                          reference_polygon_runs(outline, local, local))
        assert footprint == list(map(tuple, reference_footprint.tolist()))

        shape = (len(xs), len(ys))
        grid = _BitGrid(*shape)
        blocked = _cspace_obstacle(_Dilations(grid, *fingers), footprint, m, grid)
        expected = reference_cspace_obstacle(np.vstack(reference), reference_footprint, m, shape)
        np.testing.assert_array_equal(unpack_bits(blocked, shape), expected)
        free, eroded = grid.valid ^ blocked, _erode_xy(grid.valid ^ blocked, grid)
        expected_eroded = reference_erode_xy(~expected[None], _ERODE_CELLS)
        np.testing.assert_array_equal(unpack_bits(eroded, shape), expected_eroded[0])
        seed = (0, data.draw(st.integers(0, shape[0] - 1), label="seed x"),
                data.draw(st.integers(0, shape[1] - 1), label="seed y"))
        assert _escapes_from([free], grid, seed) == escapes_by_label(~expected[None], seed)
        assert _escapes_from([eroded], grid, seed) == escapes_by_label(expected_eroded, seed)


def _random_grid(data) -> tuple[np.ndarray, tuple[int, int, int]]:
    """A random (angles, nx, ny) free grid and a seed cell, free or not."""
    shape = (data.draw(st.integers(1, 8), label="angles"),
             data.draw(st.integers(1, 12), label="nx"),
             data.draw(st.integers(1, 12), label="ny"))
    fill = data.draw(st.floats(0.2, 0.9), label="fill")
    grid_seed = data.draw(st.integers(0, 2**32 - 1), label="grid seed")
    free = np.random.default_rng(grid_seed).random(shape) < fill
    seed = tuple(data.draw(st.integers(0, n - 1), label="seed") for n in shape)
    free[seed] = data.draw(st.booleans(), label="seed free")
    return free, seed


class TestEscapeFill:
    """The run-graph flood fill and the x-y erosion against `scipy.ndimage`."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_labelling_oracle(self, data):
        free, seed = _random_grid(data)
        assert _escapes(free, seed) == escapes_by_label(free, seed)
        narrowed = _eroded(free)
        np.testing.assert_array_equal(narrowed, erode_xy(free))
        assert _escapes(narrowed, seed) == escapes_by_label(narrowed, seed)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_cells_put_back_around_the_seed_are_sound(self, data):
        # seeds at the border clip the window
        free, seed = _random_grid(data)
        patched = _eroded_from(free, seed)
        added = patched & ~_eroded(free)
        assert not (added & ~seed_region_by_label(free, seed)).any()
        if _escapes(patched, seed):
            assert escapes_by_label(free, seed)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_cells_put_back_are_the_seed_component_in_the_window(self, data):
        # seeds at the border clip the window
        free, seed = _random_grid(data)
        np.testing.assert_array_equal(
            _eroded_from(free, seed),
            erode_xy(free) | window_region_by_label(free, seed, _ERODE_CELLS))

    def test_escape_only_across_the_rotation_seam(self):
        # the seed in the last slice reaches x = 0 only through slice 0
        free = np.zeros((3, 5, 5), dtype=bool)
        free[2, 2, 2] = True
        free[0, :3, 2] = True
        assert _escapes(free, (2, 2, 2)) is True
        assert escapes_by_label(free, (2, 2, 2)) is True
        free[0, 2, 2] = False
        assert _escapes(free, (2, 2, 2)) is False

    def test_one_slice_grid(self):
        free = np.ones((1, 5, 5), dtype=bool)
        free[0, 1:4, 1:4] = False
        free[0, 2, 2] = True   # enclosed by a ring of blocked cells
        assert _escapes(free, (0, 2, 2)) is False
        free[0, 1, 2] = True   # a gap in the ring
        assert _escapes(free, (0, 2, 2)) is True

    @pytest.mark.parametrize("run", [slice(0, 3), slice(2, 5)])
    def test_seed_run_touching_the_y_border(self, run):
        # the blocked seed counts as free and joins a run along y to the border
        free = np.zeros((2, 5, 5), dtype=bool)
        free[1, 2, run] = True
        free[1, 2, 2] = False
        assert _escapes(free, (1, 2, 2)) is True
        assert escapes_by_label(free, (1, 2, 2)) is True
        free[1, 2, :] = False
        assert _escapes(free, (1, 2, 2)) is False


class TestClassify:
    def test_acceptance_fixture_outcomes(self):
        assert classify_grasp(BIG, CC).outcome is GraspOutcome.FORM_CLOSURE
        assert classify_grasp(SMALL, CC).outcome is GraspOutcome.CAGING
        for obj in FIXTURES:
            assert classify_grasp(obj, FF).outcome is GraspOutcome.FORCE_CLOSURE
        plate_deformable = classify_grasp(PLATE, (flat(), deformable_flat()))
        assert plate_deformable.outcome is GraspOutcome.FAIL

    def test_form_closure_has_four_contacts(self):
        result = classify_grasp(BIG, CC)
        assert len(result.contacts) == 4

    def test_deformable_on_bulky_object_behaves_flat(self):
        result = classify_grasp(BOX, (flat(), deformable_flat()))
        assert result.outcome is GraspOutcome.FORCE_CLOSURE

    def test_thin_plate_pocket_rim_posture_flag(self):
        result = classify_grasp(PLATE, CC)
        assert result.outcome is GraspOutcome.CAGING
        assert result.posture_uncertain

    def test_precedence_form_beats_force(self):
        result = classify_grasp(BIG, CC, mu=1.0)
        assert result.outcome is GraspOutcome.FORM_CLOSURE

    def test_stroke_check(self):
        with pytest.raises(ValueError, match="stroke"):
            classify_grasp(BIG, FF, stroke=25.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: surface_profile(flat(), math.inf), "face width must be positive and finite"),
        (lambda: surface_profile(concave(10.0), math.nan),
         "face width must be positive and finite"),
        (lambda: classify_grasp(BOX, FF, face_width=math.inf),
         "face width must be positive and finite"),
        (lambda: classify_grasp(PLATE, (flat(), deformable_flat()), thin_threshold=math.nan),
         "thin_threshold must be finite"),
        (lambda: classify_grasp(BOX, FF, thin_threshold=-math.inf),
         "thin_threshold must be finite"),
        (lambda: classify_grasp(ObjectSpec(Box(50.0, 50.0)), FF, stroke=math.nan),
         "stroke must be finite"),
        (lambda: BOX.check_stroke(math.inf), "stroke must be finite"),
    ], ids=["profile-inf-width", "profile-nan-width", "classify-inf-width",
            "nan-thin-threshold", "neg-inf-thin-threshold", "nan-stroke", "inf-stroke"])
    def test_non_finite_argument_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("width, height", [
        (20.0, 25.0), (8.0, 30.0), (40.0, 12.0), (3.0, 6.0), (30.0, 30.0)])
    def test_flat_composite_classifies_like_its_box(self, width, height):
        # the modes that FAIL run the caging search on the composite's outline
        cfg = default_config()
        table = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
        box = ObjectSpec(Box(width, height))
        composite = ObjectSpec(CompositeFaces(FaceArc("flat"), FaceArc("flat"),
                                              width, height))
        for mode in range(1, len(table) + 1):
            seen = []
            for spec in (box, composite):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = classify_grasp(spec, table.entry(mode))
                seen.append((result, [(w.category, str(w.message)) for w in caught]))
            assert seen[0] == seen[1], mode

    def test_frictionless_flat_grasp_fails(self):
        # at mu = 0 the box slides out between the flats, along a channel
        # of zero clearance
        with pytest.warns(CagingResolutionWarning):
            result = classify_grasp(BOX, FF, mu=0.0)
        assert result.outcome is GraspOutcome.FAIL

    def test_full_outcome_matrix_stays_stable(self):
        # frozen behavior table over the four reference modes
        modes = {
            "GC1": FF,
            "GC2": (convex(10.0), convex(10.0)),
            "GC3": CC,
            "GC4": (flat(), deformable_flat()),
        }
        expected = {
            ("large", "GC1"): GraspOutcome.FORCE_CLOSURE,
            ("large", "GC2"): GraspOutcome.FORCE_CLOSURE,
            ("large", "GC3"): GraspOutcome.FORM_CLOSURE,
            ("large", "GC4"): GraspOutcome.FORCE_CLOSURE,
            ("small", "GC1"): GraspOutcome.FORCE_CLOSURE,
            ("small", "GC2"): GraspOutcome.FORCE_CLOSURE,
            ("small", "GC3"): GraspOutcome.CAGING,
            ("small", "GC4"): GraspOutcome.FORCE_CLOSURE,
            ("box", "GC1"): GraspOutcome.FORCE_CLOSURE,
            # the pocket rims pinch the 20 mm box's flat faces
            ("box", "GC3"): GraspOutcome.FORCE_CLOSURE,
            ("box", "GC4"): GraspOutcome.FORCE_CLOSURE,
            ("plate", "GC1"): GraspOutcome.FORCE_CLOSURE,
            ("plate", "GC3"): GraspOutcome.CAGING,  # rim pinch, posture flag
            ("plate", "GC4"): GraspOutcome.FAIL,
        }
        objects = {"large": BIG, "small": SMALL, "box": BOX, "plate": PLATE}
        for (obj_name, mode_name), outcome in expected.items():
            result = classify_grasp(objects[obj_name], modes[mode_name])
            assert result.outcome is outcome, (obj_name, mode_name, result)


def _scaled(spec: ObjectSpec, scale: float) -> ObjectSpec:
    """The object with every length of its box, plate or circle scaled."""
    shape = spec.shape
    return ObjectSpec(type(shape)(*(v * scale for v in dataclasses.astuple(shape))), spec.mu)


def _classify_by_stages(obj: ObjectSpec, pair, face_width: float, thin_threshold: float):
    """classify_grasp's rules composed from the public stage functions:
    (outcome, contacts, separation repr, posture_uncertain)."""
    left, right = (surface_profile(s, face_width) for s in pair)
    if (left.deformable or right.deformable) and obj.closing_extent < thin_threshold:
        return GraspOutcome.FAIL, ContactSet((), obj.rotation_symmetric), "nan", False
    positions, touched = closure_separation(obj, left, right)
    contacts = compute_contacts(obj, left, right, positions)
    separation = repr(positions[1] - positions[0])
    if isinstance(obj.shape, ThinPlate) and any(s.kind is SurfaceKind.CONCAVE for s in pair):
        return GraspOutcome.CAGING, contacts, separation, True
    if touched and len(contacts) > 0:
        if form_closure_test(contacts):
            return GraspOutcome.FORM_CLOSURE, contacts, separation, False
        if obj.mu > 0 and force_closure_test(contacts, obj.mu):
            return GraspOutcome.FORCE_CLOSURE, contacts, separation, False
    caged = caging_test(obj, left, right, positions)
    return (GraspOutcome.CAGING if caged else GraspOutcome.FAIL), contacts, separation, False


class TestOnePass:
    """classify_grasp searches each finger once and de-duplicates once, and
    agrees with the stage functions run one after another."""

    @pytest.fixture
    def fixture_calls(self, fixtures_dir):
        cfg = default_config()
        table = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
        specs = [load_object_file(path).spec
                 for path in sorted((fixtures_dir / "objects").glob("*.object"))]
        return cfg, [(spec, table.entry(mode)) for spec in specs
                     for mode in range(1, len(table) + 1)]

    @pytest.mark.parametrize("scale", [1.0, 0.9, 1.1])
    def test_matches_the_stage_functions(self, fixture_calls, scale):
        cfg, calls = fixture_calls
        assert len(calls) == 5 * 12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CagingResolutionWarning)
            for spec, pair in calls:
                obj = _scaled(spec, scale)
                result = classify_grasp(obj, pair, face_width=cfg.face_width,
                                        thin_threshold=cfg.thin_object)
                got = (result.outcome, result.contacts, repr(result.separation),
                       result.posture_uncertain)
                assert got == _classify_by_stages(obj, pair, cfg.face_width,
                                                  cfg.thin_object), (obj, pair)

    def test_one_search_per_finger_and_one_deduplication(self, fixture_calls, monkeypatch):
        cfg, calls = fixture_calls
        counts = Counter()
        for name in ("_lateral_search", "_effective_contacts"):
            original = getattr(grasp, name)
            monkeypatch.setattr(grasp, name, lambda *a, _name=name, _f=original:
                                counts.update([_name]) or _f(*a))

        def enumerate_hull(points, _f=grasp._origin_strictly_inside):
            n, dim = np.shape(points)
            counts.update(["enumerations"] if n >= dim + 1 else [])
            return _f(points)

        monkeypatch.setattr(grasp, "_origin_strictly_inside", enumerate_hull)
        disk_force_closures = enumerations = 0
        for spec, pair in calls:
            counts.clear()
            result = classify_grasp(spec, pair, face_width=cfg.face_width,
                                    thin_threshold=cfg.thin_object)
            thin_rule = math.isnan(result.separation)
            assert counts["_lateral_search"] == (0 if thin_rule else 2)
            assert counts["_effective_contacts"] <= 1
            enumerations += counts["enumerations"]
            disk_force_closures += (spec.rotation_symmetric
                                    and result.outcome is GraspOutcome.FORCE_CLOSURE)
        assert disk_force_closures > 0
        # closed forms decide all but the disk held in form closure by its
        # four normals spanning the plane
        assert enumerations == 1

    def test_rounding_and_arc_evaluation_counts(self, fixture_calls, monkeypatch):
        # the search evaluates one end of the even clearance for both and hands
        # its flank values to the contact set, and the dedupe rounds only
        # near-duplicate points; with cold caches the count includes the finger
        # separations and the faces' caging outlines
        cfg, calls = fixture_calls
        counts, x_of = Counter(), Arc.x_of
        monkeypatch.setattr(grasp, "round", lambda *a: counts.update(["round"]) or round(*a),
                            raising=False)
        monkeypatch.setattr(Arc, "x_of", lambda arc, y: counts.update(["x_of"]) or x_of(arc, y))
        _clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CagingResolutionWarning)
            for spec, pair in calls:
                classify_grasp(spec, pair, face_width=cfg.face_width,
                               thin_threshold=cfg.thin_object)
        assert counts == {"round": 12, "x_of": 1020}

    def test_wrenches_and_flanks_built_only_when_needed(self, fixture_calls, monkeypatch):
        cfg, calls = fixture_calls
        counts, flank_builds = Counter(), Counter()
        wrenches, enumerate_hull = grasp._cone_wrenches, grasp._origin_strictly_inside
        monkeypatch.setattr(grasp, "_cone_wrenches", lambda *a: counts.update(["wrenches"])
                            or wrenches(*a))
        monkeypatch.setattr(grasp, "_origin_strictly_inside", lambda points: counts.update(
            [f"{len(points[0])}-D enumerations"]) or enumerate_hull(points))
        build = ObjectSpec.flanks.func
        flanks = functools.cached_property(lambda spec: flank_builds.update([spec]) or build(spec))
        flanks.__set_name__(ObjectSpec, "flanks")
        monkeypatch.setattr(ObjectSpec, "flanks", flanks)
        for spec, pair in calls:
            classify_grasp(spec, pair, face_width=cfg.face_width, thin_threshold=cfg.thin_object)
        # the one enumeration is a disk's four normals in 2-D: no wrench set
        # is enumerated, so no cone wrenches are built
        assert counts == {"2-D enumerations": 1}
        # each object's flanks are built once across its 12 modes
        assert {flank_builds[spec] for spec, _ in calls} == {1}

    def test_outline_built_once_per_object(self, fixture_calls, monkeypatch):
        # 29 of the 60 classifications reach the caging search, and each of
        # the five objects builds its outline for the first of them only
        cfg, calls = fixture_calls
        builds, cagings, build = Counter(), Counter(), objects.object_polygon
        monkeypatch.setattr(objects, "object_polygon",
                            lambda spec: builds.update([spec]) or build(spec))
        search = grasp.caging_test
        monkeypatch.setattr(grasp, "caging_test",
                            lambda obj, *a: cagings.update([obj]) or search(obj, *a))
        _clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CagingResolutionWarning)
            for spec, pair in calls:
                classify_grasp(spec, pair, face_width=cfg.face_width,
                               thin_threshold=cfg.thin_object)
        assert cagings.total() == 29 and len(cagings) == 5
        assert builds == dict.fromkeys(cagings, 1)


def _clear_caches():
    for cached in (grasp._finger_pair, grasp._face_outline, surface_profile):
        cached.cache_clear()


class TestSearchOnce:
    """Face geometry is cached per face, and no result depends on the
    state of those caches."""

    def test_cached_arrays_are_read_only(self):
        with pytest.raises(TypeError, match="does not support item assignment"):
            _face_outline(surface_profile(concave(10.0), 20.0))[0] = (0.0, 0.0)

    def test_results_do_not_depend_on_cache_state(self, fixtures_dir):
        # two face widths, so a cache key without the width would show
        cfg = default_config()
        table = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
        specs = [load_object_file(path).spec
                 for path in sorted((fixtures_dir / "objects").glob("*.object"))]
        calls = [(spec, mode, width) for spec in specs
                 for mode in range(1, len(table) + 1) for width in (cfg.face_width, 16.0)]

        def classify(spec, mode, width):
            return repr(classify_grasp(spec, table.entry(mode), face_width=width,
                                       thin_threshold=cfg.thin_object,
                                       stroke=cfg.stroke_limit))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CagingResolutionWarning)
            cold = {}
            for call in calls:
                _clear_caches()
                cold[call] = classify(*call)
            random.Random(5).shuffle(calls)
            assert {call: classify(*call) for call in calls} == cold
        assert len(cold) == 5 * 12 * 2
