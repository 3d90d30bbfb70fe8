import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from multigrip import grasp
from multigrip.config import default_config
from multigrip.grasp import (_CONTACT_TOL, _ERODE_CELLS, _HULL_MARGIN, _MERGE_RADIUS,
                             CagingResolutionWarning, Contact,
                             ContactSet, DegenerateContactWarning, GraspOutcome,
                             _cspace_obstacle, _erode_xy, _erode_xy_from,
                             _escapes_from, _finger_polygon, _origin_strictly_inside,
                             _polygon_runs, caging_test, classify_grasp,
                             closure_separation, compute_contacts,
                             force_closure_test, form_closure_test,
                             surface_profile)
from multigrip.modes import (build_mode_table, concave, convex, deformable_flat,
                             flat)
from multigrip.objects import (Box, Circle, CompositeFaces, FaceArc, ObjectSpec, ThinPlate,
                               load_object_file, object_polygon)
from oracles import (cspace_obstacle_by_fft, erode_xy, escapes_by_label,
                     grid_contact_ys, grid_finger_separation, grid_lateral_search,
                     hull_origin_inside, oracle_positive_span, oracle_wrenches,
                     points_in_polygon, points_to_polygon_distance,
                     polygons_intersect, runs_to_mask, seed_region_by_label,
                     window_region_by_label)

CC = (concave(10.0), concave(10.0))
FF = (flat(), flat())

BIG = ObjectSpec(Circle(15.0), mu=0.5)
SMALL = ObjectSpec(Circle(5.0), mu=0.5)
BOX = ObjectSpec(Box(20.0, 25.0), mu=0.5)
PLATE = ObjectSpec(ThinPlate(30.0, 1.0), mu=0.5)
FIXTURES = [BIG, SMALL, BOX, PLATE]


class TestSurfaceProfile:
    def test_flat_segment(self):
        p = surface_profile(flat(), 20.0)
        assert p.polyline[:, 0] == pytest.approx(0.0)
        assert p.polyline[0, 1] == -10.0 and p.polyline[-1, 1] == 10.0

    def test_convex_semicircle_sagitta(self):
        p = surface_profile(convex(10.0), 20.0)
        assert p.height(np.array([0.0]))[0] == pytest.approx(10.0)
        assert p.height(np.array([10.0]))[0] == pytest.approx(0.0)

    def test_concave_sagitta_partial_arc(self):
        p = surface_profile(concave(10.0), 16.0)
        assert p.height(np.array([0.0]))[0] == pytest.approx(-4.0)

    def test_width_exceeding_arc_diameter(self):
        with pytest.raises(ValueError, match="cannot span"):
            surface_profile(convex(10.0), 21.0)

    def test_arc_spanning_its_diameter(self):
        # (w / 2) ** 2 rounds one ulp above r * r for this radius
        r = 15.179190192080124
        assert surface_profile(convex(r), 2 * r).height(np.array([0.0]))[0] == r
        half_disk = CompositeFaces(FaceArc("convex", r), FaceArc("flat"), 5.0, 2 * r)
        assert ObjectSpec(half_disk).closing_extent == 5.0 + r

    def test_deformable_is_geometrically_flat(self):
        p = surface_profile(deformable_flat(), 20.0)
        assert p.deformable
        assert p.height(np.array([3.0]))[0] == 0.0


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
            compute_contacts(BOX, lp, rp, gap=19.0)

    def test_explicit_gap_apart_gives_no_contacts(self):
        lp = rp = surface_profile(flat(), 20.0)
        cs = compute_contacts(BOX, lp, rp, gap=25.0)
        assert len(cs) == 0


class TestClosureSeparation:
    def test_large_circle_touches_before_fingers_meet(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        sep, touched = closure_separation(BIG, lp, rp)
        assert touched
        assert sep == pytest.approx(2 * math.sqrt(125.0), rel=1e-9)

    def test_small_circle_fingers_meet_first(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        sep, touched = closure_separation(SMALL, lp, rp)
        assert not touched
        assert sep == pytest.approx(0.0, abs=1e-9)

    def test_box_between_flats(self):
        lp = rp = surface_profile(flat(), 20.0)
        sep, touched = closure_separation(BOX, lp, rp)
        assert touched and sep == pytest.approx(20.0)


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
            _, ref, _, clearance = grasp._lateral_search(spec, profile, side)
            refs.append(grid_lateral_search(spec, profile, side)[0])
            assert _same_extremum(ref, refs[-1], clearance), (profile, side)
            exact &= ref == refs[-1]

        ys = np.array([-1.0, 0.0, 1.0]) * min(left.width, right.width) / 2.0
        sep_fingers = grasp._finger_separation((left.shape, left.width),
                                               (right.shape, right.width))
        grid_fingers = grid_finger_separation(left, right)
        assert _same_extremum(sep_fingers, grid_fingers, left.height(ys) + right.height(ys))
        exact &= sep_fingers == grid_fingers
        separation, _ = closure_separation(spec, left, right)
        grid_separation = max(-2.0 * refs[0], 2.0 * refs[1], grid_fingers, 0.0)
        assert separation == grid_separation or (
            not exact and abs(separation - grid_separation) <= 2 * _ROUNDING)

        for gap in (None, separation):
            contacts = compute_contacts(spec, left, right, gap=gap)
            for (profile, side, finger), ref in zip(sides, refs):
                x_ref = ref if gap is None else side * gap / 2.0
                points = np.array([c.point for c in contacts if c.finger == finger])
                xs, ys = points.reshape(-1, 2).T
                # each contact's clearance: the flank's x plus the face height
                assert np.all(abs(xs + side * profile.height(ys) - x_ref) <= _CONTACT_TOL)
                old = grid_contact_ys(spec, profile, side, None if gap is None else x_ref)
                assert _same_up_to_named_changes(ys.tolist(), old), (profile, side, gap, ys, old)


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
        with pytest.warns(DegenerateContactWarning):
            assert form_closure_test(cs) is False

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


class TestHullTest:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(points=_hull_inputs())
    def test_matches_qhull(self, points):
        assert (_origin_strictly_inside(points)
                == hull_origin_inside(points, _HULL_MARGIN)), points.tolist()

    def test_known_interiors(self):
        square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert _origin_strictly_inside(square)
        assert not _origin_strictly_inside(square + [1.0, 0.0])   # a vertex
        assert not _origin_strictly_inside(square[:3])            # on an edge
        assert not _origin_strictly_inside(square * [1.0, 0.0])   # collinear
        tetra = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                          [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        assert _origin_strictly_inside(tetra)
        assert not _origin_strictly_inside(tetra * [1.0, 1.0, 0.0])  # coplanar
        # the facet opposite vertex 0 lies 1/sqrt(3) from the origin
        toward = tetra[0] / np.linalg.norm(tetra[0])
        gap = 1.0 / math.sqrt(3.0)
        assert _origin_strictly_inside(tetra + toward * (gap - 2 * _HULL_MARGIN))
        assert not _origin_strictly_inside(tetra + toward * (gap - 0.5 * _HULL_MARGIN))


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

    def test_negative_mu_rejected(self):
        cs = ContactSet(contacts=(Contact((1.0, 0.0), (-1.0, 0.0), "3S"),))
        with pytest.raises(ValueError):
            force_closure_test(cs, -0.1)


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


class TestCaging:
    def test_small_circle_in_closed_pockets(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        sep, _ = closure_separation(SMALL, lp, rp)
        assert caging_test(SMALL, lp, rp, sep) is True

    def test_circle_between_flats_escapes_sideways(self):
        lp = rp = surface_profile(flat(), 20.0)
        assert caging_test(SMALL, lp, rp, 12.0) is False

    def test_form_closed_configuration_is_caged(self):
        lp = rp = surface_profile(concave(10.0), 20.0)
        sep, _ = closure_separation(BIG, lp, rp)
        assert caging_test(BIG, lp, rp, sep) is True

    def test_box_caging_with_rotation_grid(self):
        # a box in deep pockets cannot escape even allowing rotation
        small_box = ObjectSpec(Box(8.0, 8.0), mu=0.5)
        lp = rp = surface_profile(concave(10.0), 20.0)
        sep, _ = closure_separation(small_box, lp, rp)
        assert caging_test(small_box, lp, rp, sep, cell=1.0,
                           angle_cell_deg=30.0) is True

    def test_box_escape_with_rotation_grid(self):
        small_box = ObjectSpec(Box(6.0, 6.0), mu=0.5)
        lp = rp = surface_profile(flat(), 20.0)
        assert caging_test(small_box, lp, rp, 14.0, cell=1.0,
                           angle_cell_deg=30.0) is False

    def test_coarse_grid_reported(self):
        lp = rp = surface_profile(flat(), 20.0)
        with pytest.warns(CagingResolutionWarning):
            caging_test(SMALL, lp, rp, 10.8, cell=0.5)

    def test_cspace_obstacle_matches_exact_collision(self):
        # the rasterized configuration-space obstacle must agree with exact
        # collision except within a cell of the boundary, for a polygon and
        # for a disk (whose exact test is a centre-to-polygon distance)
        import random

        cell = 1.0
        lp = surface_profile(concave(10.0), 20.0)
        poly = _finger_polygon(lp, -6.0, -1, 15.0)
        xs = np.arange(-30.0, 30.0 + cell, cell)
        ys = np.arange(-25.0, 25.0 + cell, cell)
        fingers = _polygon_runs(poly, xs, ys)
        m = int(math.ceil(6.0 / cell)) + 1
        local = np.arange(-m, m + 1) * cell

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
            return np.array([polygons_intersect(object_polygon(box) + c, poly)
                             for c in centres])

        box = ObjectSpec(Box(6.0, 9.0), mu=0.5)
        disk = ObjectSpec(Circle(5.0), mu=0.5)
        for obj, oracle in [(box, box_hits), (disk, disk_hits)]:
            footprint = _polygon_runs(object_polygon(obj), local, local)
            blocked = _cspace_obstacle(fingers, footprint, m, (len(xs), len(ys)))
            rng = random.Random(3)
            i, j = np.array([(rng.randrange(len(xs)), rng.randrange(len(ys)))
                             for _ in range(400)]).T
            centres = np.column_stack([xs[i], ys[j]])
            # skip poses within rasterization uncertainty of the boundary
            clear = clear_of_boundary(object_polygon(obj), centres)
            wrong = blocked[i, j][clear] != oracle(centres[clear])
            assert not wrong.any(), (obj, centres[clear][wrong])
            assert clear.sum() > 100, obj

    def test_disk_with_room_escapes_without_warning(self):
        # 2 mm of clearance on each side is four cells: not resolution-limited
        lp = rp = surface_profile(flat(), 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CagingResolutionWarning)
            assert caging_test(SMALL, lp, rp, 14.0, cell=0.5) is False

    def test_polygon_escape_through_narrow_passage_reported(self):
        # 0.4 mm on each side of the box, below two 0.5 mm cells
        lp = rp = surface_profile(flat(), 20.0)
        small_box = ObjectSpec(Box(6.0, 6.0), mu=0.5)
        with pytest.warns(CagingResolutionWarning, match="two grid cells"):
            assert caging_test(small_box, lp, rp, 6.8, cell=0.5) is False

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
            assert caging_test(small_box, lp, rp, 10.0, cell=0.5) is False
        assert len(builds) == 1
        builds.clear()
        with pytest.warns(CagingResolutionWarning):
            assert caging_test(small_box, lp, rp, 6.8, cell=0.5) is False
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
        runs = _polygon_runs(polygon, xs, ys)
        np.testing.assert_array_equal(runs_to_mask(runs, expected.shape), expected)
        # no run is empty; each row's runs are sorted and disjoint
        row, i0, i1 = runs.T
        assert (i0 < i1).all()
        assert (np.diff(row) >= 0).all()
        same_row = row[1:] == row[:-1]
        assert (i0[1:][same_row] >= i1[:-1][same_row]).all()


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
        fingers = np.vstack([
            _polygon_runs(data.draw(shapes, label="finger")(data, xs, ys, 10.0), xs, ys)
            for _ in range(data.draw(st.integers(1, 2), label="fingers"))])
        footprint = _polygon_runs(data.draw(shapes, label="footprint")(
            data, local, local, local[-1] + 0.5), local, local)
        shape = (len(xs), len(ys))
        expected = cspace_obstacle_by_fft(runs_to_mask(fingers, shape),
                                          runs_to_mask(footprint, (len(local),) * 2))
        np.testing.assert_array_equal(_cspace_obstacle(fingers, footprint, m, shape),
                                      expected)

    def test_every_slice_of_a_fixture_search(self, monkeypatch):
        # the box fixture at half size, caged in mode 3, runs the full
        # 72-slice polygon search
        from multigrip import grasp

        cfg = default_config()
        pair = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s).entry(3)
        box = ObjectSpec(Box(10.0, 12.5), mu=0.5)
        original = grasp._cspace_obstacle
        matches = []

        def checked(fingers, footprint, centre, shape):
            blocked = original(fingers, footprint, centre, shape)
            expected = cspace_obstacle_by_fft(
                runs_to_mask(fingers, shape),
                runs_to_mask(footprint, (2 * centre + 1,) * 2))
            matches.append(np.array_equal(blocked, expected))
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
        assert _escapes_from(free, seed) == escapes_by_label(free, seed)
        narrowed = _erode_xy(free)
        np.testing.assert_array_equal(narrowed, erode_xy(free))
        assert _escapes_from(narrowed, seed) == escapes_by_label(narrowed, seed)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_cells_put_back_around_the_seed_are_sound(self, data):
        # seeds at the border clip the window
        free, seed = _random_grid(data)
        patched = _erode_xy_from(free, seed)
        added = patched & ~_erode_xy(free)
        assert not (added & ~seed_region_by_label(free, seed)).any()
        if _escapes_from(patched, seed):
            assert escapes_by_label(free, seed)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_cells_put_back_are_the_seed_component_in_the_window(self, data):
        # seeds at the border clip the window
        free, seed = _random_grid(data)
        np.testing.assert_array_equal(
            _erode_xy_from(free, seed),
            erode_xy(free) | window_region_by_label(free, seed, _ERODE_CELLS))

    def test_escape_only_across_the_rotation_seam(self):
        # the seed in the last slice reaches x = 0 only through slice 0
        free = np.zeros((3, 5, 5), dtype=bool)
        free[2, 2, 2] = True
        free[0, :3, 2] = True
        assert _escapes_from(free, (2, 2, 2)) is True
        assert escapes_by_label(free, (2, 2, 2)) is True
        free[0, 2, 2] = False
        assert _escapes_from(free, (2, 2, 2)) is False

    def test_one_slice_grid(self):
        free = np.ones((1, 5, 5), dtype=bool)
        free[0, 1:4, 1:4] = False
        free[0, 2, 2] = True   # enclosed by a ring of blocked cells
        assert _escapes_from(free, (0, 2, 2)) is False
        free[0, 1, 2] = True   # a gap in the ring
        assert _escapes_from(free, (0, 2, 2)) is True

    @pytest.mark.parametrize("run", [slice(0, 3), slice(2, 5)])
    def test_seed_run_touching_the_y_border(self, run):
        # the blocked seed counts as free and joins a run along y to the border
        free = np.zeros((2, 5, 5), dtype=bool)
        free[1, 2, run] = True
        free[1, 2, 2] = False
        assert _escapes_from(free, (1, 2, 2)) is True
        assert escapes_by_label(free, (1, 2, 2)) is True
        free[1, 2, :] = False
        assert _escapes_from(free, (1, 2, 2)) is False


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


def _clear_caches():
    for cached in (grasp._finger_separation, surface_profile):
        cached.cache_clear()


class TestSearchOnce:
    """Face geometry is cached per face, and no result depends on the
    state of those caches."""

    def test_cached_arrays_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            surface_profile(concave(10.0), 20.0).polyline[0] = 0.0

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
