"""Planar contact computation and grasp classification.

The grasp plane has the closing axis along x; the object sits centered on
the origin with the left finger approaching from -x and the right finger
from +x, a pose given by their reference positions (x_left, x_right).  In
the default pairing the 3S finger is the left one.

Classification runs the closure tests in precedence order (form closure,
then force closure, then caging) on the contact configuration the
mechanism can physically reach: both fingers advance symmetrically until
either one touches the object or the fingers touch each other.  One search
per finger gives the stop and the contacts; form and force closure share a core.

The contact search is exact.  Every object flank and finger face is an
`Arc`, a line or a circular arc centred on y = 0, so the clearance between
a flank and a face takes its extremes at the centre or the ends of their
lateral overlap.  It is even in y, so two evaluations in plain floats per
finger, at the centre and at one end, find each first contact, and the
search hands the flank's values there to the contact set.  Closed forms
decide closure where the physics gives one: too few wrenches or
frictionless parallel normals never close, and two contacts each inside the
other's friction cone (or negated cone) do.  A hull enumeration decides the
rest, every sign in integers.  Caging works on bit masks held in Python ints.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .modes import (DEFAULT_FACE_WIDTH, DEFAULT_THIN_THRESHOLD, SurfaceKind,
                    SurfaceShape)
from .objects import Arc, ObjectSpec, ThinPlate, check_friction, face_arc, linspace

__all__ = [
    "SurfaceProfile",
    "Contact",
    "ContactSet",
    "GraspOutcome",
    "GraspResult",
    "DegenerateContactWarning",
    "CagingResolutionWarning",
    "DEFAULT_FACE_WIDTH",
    "DEFAULT_THIN_THRESHOLD",
    "surface_profile",
    "compute_contacts",
    "closure_separation",
    "form_closure_test",
    "force_closure_test",
    "caging_test",
    "classify_grasp",
    "write_contacts_csv",
]

_CONTACT_TOL = 1e-6     # mm; how closely a point must sit on both boundaries
_MERGE_RADIUS = 0.1     # mm; closer contact points collapse to one
_HULL_MARGIN = 1e-9     # strict-interior margin for positive-span tests
_PAIR_CLEARANCE = 4e-4  # x rho / cos(phi): least cone-edge clearance of a Nguyen pair
_PROFILE_POINTS = 129   # vertices of a finger face's outline in caging
_CORNER_TOL = 1e-9      # mm; how close to a corner a contact counts as at it
_BODY_DEPTH = 15.0      # mm; finger body behind the face, for caging
_ERODE_CELLS = 2        # x-y erosion depth of the caging resolution check
_MAX_CAGING_CELLS = 2 * 10**9   # cells summed over the bit masks one caging search holds


class DegenerateContactWarning(UserWarning):
    """Coincident contacts collapsed to fewer effective wrenches."""


class CagingResolutionWarning(UserWarning):
    """An escape exists only through a gap at most two caging cells wide."""


@dataclass(frozen=True)
class SurfaceProfile:
    """One finger face in the finger frame: x is protrusion toward the object,
    zero at the rims, and `arc` is the face as a curve x(y)."""

    shape: SurfaceShape
    width: float
    arc: Arc

    @property
    def deformable(self) -> bool:
        return self.shape.kind is SurfaceKind.DEFORMABLE_FLAT

    def height(self, y: float) -> float:
        """Signed protrusion toward the object at lateral position y."""
        return self.arc.x_of(y)


@lru_cache(maxsize=16)
def surface_profile(shape: SurfaceShape,
                    width: float = DEFAULT_FACE_WIDTH) -> SurfaceProfile:
    """A finger surface as an `Arc` spanning the face width.

    Flat and deformable-flat faces are straight segments; convex and
    concave faces are circular arcs whose chord is the face width, bulging
    toward and away from the object respectively.  The width must be
    positive and finite.
    """
    if not (width > 0 and math.isfinite(width)):
        raise ValueError("face width must be positive and finite")
    curved = shape.kind in (SurfaceKind.CONVEX, SurfaceKind.CONCAVE)
    if curved and width > 2 * shape.radius:
        raise ValueError(
            f"face width {width:g} mm exceeds the arc diameter "
            f"{2 * shape.radius:g} mm; the arc cannot span the face")
    arc = face_arc(shape.kind.value if curved else "flat", shape.radius, width / 2.0, 0.0, 1)
    return SurfaceProfile(shape=shape, width=width, arc=arc)


@dataclass(frozen=True)
class Contact:
    point: tuple[float, float]
    normal: tuple[float, float]   # unit, pointing into the object
    finger: str                   # "3S" (left) or "4S" (right)


@dataclass(frozen=True)
class ContactSet:
    contacts: tuple[Contact, ...]
    rotation_free: bool = False   # rotations about the origin are symmetries

    def __len__(self) -> int:
        return len(self.contacts)

    def __iter__(self):
        return iter(self.contacts)


class GraspOutcome(Enum):
    FORM_CLOSURE = "form_closure"
    FORCE_CLOSURE = "force_closure"
    CAGING = "caging"
    FAIL = "fail"


@dataclass(frozen=True)
class GraspResult:
    outcome: GraspOutcome
    contacts: ContactSet
    separation: float
    posture_uncertain: bool = False
    reason: str = ""


# ---------------------------------------------------------------------------
# Contact computation

def _lateral_search(spec: ObjectSpec, profile: SurfaceProfile, side: int
                    ) -> tuple[Arc, float, float, float, float, float, float]:
    """One finger's contact search: the object's flank, the finger reference
    at first contact, the overlap's end hi, the clearances at the end and at
    the centre, and the flank's x there, (flank, ref, hi, end, mid, x_end, x_mid).

    The clearance c(y) between flank and finger front does not depend on
    the finger position: the left finger at reference x_ref has clearance
    c(y) - x_ref, the right finger x_ref - c(y).  The flank and the face are
    both `Arc`s, so over the lateral overlap [lo, hi] = [-hi, hi] c is even
    in y and monotone in |y|.  Its extremes lie at the centre or the ends,
    and the positions within a tolerance of an extreme are the whole
    overlap, one band around the centre or two bands at the ends.
    """
    flank, face = spec.flanks[side > 0], profile.arc
    hi = min(flank.half, face.half)
    x_end, x_mid = flank.x_of(hi), flank.x_of(0.0)   # x_end is bit for bit the value at -hi
    end, mid = x_end + side * face.x_of(hi), x_mid + side * face.x_of(0.0)
    return flank, (min(end, mid) if side < 0 else max(end, mid)), hi, end, mid, x_end, x_mid


def _at_corner(arc: Arc, y: float) -> bool:
    for corner in arc.corners:
        if abs(y - corner) <= _CORNER_TOL:
            return True
    return False


def _contact_normals(flank: Arc, face: Arc, ys: tuple[float, ...], side: int
                     ) -> list[tuple[float, float]]:
    """Unit normals into the object at lateral positions ys of one |y|: the
    flank's, the face's at an object corner, or along the closing axis where a
    corner meets a face rim.  Corners sit at +-half, so one y decides for all."""
    if not _at_corner(flank, ys[0]):
        return [flank.normal(y, -side) for y in ys]
    if not _at_corner(face, ys[0]):   # finger frame: mirror x for the right finger
        return [(-side * nx, ny) for nx, ny in (face.normal(y, 1.0) for y in ys)]
    return [(-side * 1.0, 0.0)] * len(ys)


def _contact_set(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile,
                 searches: tuple, positions: tuple[float, float] | None) -> ContactSet:
    """Both fingers' contacts from their `_lateral_search`es (see compute_contacts)."""
    contacts = []
    for (flank, _, hi, end, mid, x_end, x_mid), face, side, x_ref, finger in zip(
            searches, (left.arc, right.arc), (-1, 1),
            [s[1] for s in searches] if positions is None else positions, ("3S", "4S")):
        at_end, at_mid = side * (x_ref - end), side * (x_ref - mid)
        worst = min(at_end, at_mid)
        if worst < -_CONTACT_TOL:
            raise ValueError(f"finger penetrates the object by {-worst:.3g} mm at the "
                             "requested finger position")
        if at_end > _CONTACT_TOL and at_mid > _CONTACT_TOL:
            continue
        # a band at each end or at the centre; a whole-overlap contact at its ends or best point
        if at_end <= _CONTACT_TOL and (at_mid > _CONTACT_TOL or hi + hi > _MERGE_RADIUS):
            ys, x = (-hi, hi), x_end
        elif at_end > _CONTACT_TOL or at_mid < at_end:
            ys, x = (0.0,), x_mid
        else:
            ys, x = (-hi,), x_end
        contacts += [Contact((x, y), normal, finger)
                     for y, normal in zip(ys, _contact_normals(flank, face, ys, side))]
    return ContactSet(tuple(contacts), obj.rotation_symmetric)


def compute_contacts(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile,
                     positions: tuple[float, float] | None = None) -> ContactSet:
    """Contact points between the object and the two opposed finger faces.

    With positions=None each finger advances along the closing axis to its
    own first contact with the object.  With positions (x_left, x_right)
    the finger reference planes sit there, and only points within the
    contact tolerance count (a finger with no contacts does not touch the
    object there).  Contacts sit at the centre or the ends of the lateral
    overlap of flank and face.  A contact along the whole overlap is
    reported at its two ends, or at its best point if the overlap is no
    wider than the merge radius.  Positions must be finite.
    """
    if positions is not None:
        _check_positions(positions)
    return _contact_set(obj, left, right,
                        _closing(obj, left, right, _finger_separation(left, right))[0], positions)


def _check_positions(positions: tuple[float, float]) -> None:
    if not all(map(math.isfinite, positions)):
        raise ValueError(f"positions must be finite, got {positions!r}")


def _finger_separation(left: SurfaceProfile, right: SurfaceProfile) -> float:
    """Separation at which two finger faces touch each other.

    Both faces are lines or circular arcs centred on y = 0, so the sum of
    their heights is even in y and monotone in |y|: it peaks at the centre
    or at the rims of the narrower face, both rims alike."""
    half = min(left.width, right.width) / 2.0
    return max(left.height(y) + right.height(y) for y in (half, 0.0))


@lru_cache(maxsize=64)
def _finger_pair(left: SurfaceShape, right: SurfaceShape, width: float
                 ) -> tuple[SurfaceProfile, SurfaceProfile, float, bool, bool]:
    """A mode's two finger faces, the `_finger_separation` where they touch,
    whether either face is deformable, and whether either is concave."""
    profiles = surface_profile(left, width), surface_profile(right, width)
    return (*profiles, _finger_separation(*profiles), any(p.deformable for p in profiles),
            SurfaceKind.CONCAVE in (left.kind, right.kind))


def _closing(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile,
             sep_fingers: float) -> tuple:
    """Both fingers' `_lateral_search`es, then closure_separation's result."""
    searches = (_lateral_search(obj, left, -1), _lateral_search(obj, right, +1))
    sep_obj = max(-2.0 * searches[0][1], 2.0 * searches[1][1])
    separation = max(0.0, sep_obj, sep_fingers)   # ties keep +0.0
    touched = sep_obj >= sep_fingers - _CONTACT_TOL
    return searches, (-separation / 2.0, separation / 2.0), touched


def closure_separation(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile
                       ) -> tuple[tuple[float, float], bool]:
    """Finger positions (x_left, x_right) where symmetric closing stops, and
    whether the object is touched there.

    They are (-s/2, s/2) for the separation s at the first contact of
    either finger with the object or of the fingers with each other,
    whichever happens at the larger separation.  Small objects nested in
    deep pockets can leave the fingers touching each other with the object
    untouched.
    """
    return _closing(obj, left, right, _finger_separation(left, right))[1:]


# ---------------------------------------------------------------------------
# Closure tests

def _effective_contacts(cset: ContactSet) -> list[Contact]:
    """The contacts less repeats, those whose point and normal round to one
    key at 1e-9 mm, with a DegenerateContactWarning if any collapsed.

    round(v, 9) moves a value at most 1e-9, so points whose x or y differ by
    more than 1e-8 never share a key: a set of such points is returned as it
    is, unrounded.  NaN and a -0.0 against 0.0 fail the test and round."""
    if all(abs(p[0] - q[0]) > 1e-8 or abs(p[1] - q[1]) > 1e-8
           for p, q in combinations([c.point for c in cset.contacts], 2)):
        return list(cset.contacts)
    seen = {}
    for c in cset.contacts:
        key = (round(c.point[0], 9), round(c.point[1], 9),
               round(c.normal[0], 9), round(c.normal[1], 9))
        seen.setdefault(key, c)
    if len(seen) < len(cset.contacts):
        warnings.warn(
            f"{len(cset.contacts) - len(seen)} coincident contact(s) collapsed; "
            "the effective wrench set is smaller than the contact count",
            DegenerateContactWarning, stacklevel=3)
    return list(seen.values())


def _plane(first, second, third, points):
    """The plane through three points: its normal n, offset first . n, and
    p . n for each of points; exact on integers."""
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = first, second, third
    ax, ay, az, bx, by, bz = x1 - x0, y1 - y0, z1 - z0, x2 - x0, y2 - y0, z2 - z0
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    offset = x0 * nx + y0 * ny + z0 * nz
    return (nx, ny, nz), offset, [x * nx + y * ny + z * nz for x, y, z in points]


def _origin_strictly_inside(points: list[tuple[float, ...]]) -> bool:
    """Whether the origin lies at least _HULL_MARGIN inside the hull of 2-D or 3-D points.

    Exact facet enumeration: every plane through dim of the points with all
    points on one side supports the hull, and the facet planes are among
    them.  A set of less than full dimension has none, or one with points on
    both sides: no interior.  Every float is an integer over a power of two,
    so scaled by the largest of those powers each sign is decided in integers."""
    dim = len(points[0]) if points else 0
    if len(points) < dim + 1 or not all(math.isfinite(v) for p in points for v in p):
        return False
    ratios = [[v.as_integer_ratio() for v in p] for p in points]
    den = max(q for r in ratios for _, q in r)
    # a 2-D set in the plane z = 0: a line is the plane through it along +z
    points = [[n * (den // q) for n, q in r] + [0] * (3 - dim) for r in ratios]
    planes = combinations(points, 3) if dim == 3 else (
        (p, q, (p[0], p[1], den)) for p, q in combinations(points, 2))
    num, div = _HULL_MARGIN.as_integer_ratio()
    margin_sq = (num * den) ** 2   # side >= _HULL_MARGIN * den * |n|, times div, squared
    supported = False
    for plane in planes:
        n, offset, dots = _plane(*plane, points)
        above, below = max(dots) > offset, min(dots) < offset
        if above and below or not any(n):
            continue
        if above == below:
            return False   # every point on the plane: no interior
        side = -offset if above else offset   # the origin's depth on the points' side
        if side < 0 or (side * div) ** 2 < margin_sq * sum(v * v for v in n):
            return False
        supported = True   # a point off the plane: the hull has full dimension
    return supported


def _cone_wrenches(contacts: list[Contact], mu: float) -> list[tuple[float, float, float]]:
    """The friction-cone edge wrenches, a contact's normal at mu = 0, with
    moments about the origin over rho, the farthest contact's distance."""
    phi = math.atan(mu)
    cos_p, sin_p = math.cos(phi), math.sin(phi)
    rho = max(max((math.hypot(*c.point) for c in contacts), default=0.0), 1e-9)
    rows = []
    for c in contacts:
        (px, py), (nx, ny) = c.point, c.normal
        edges = (((nx, ny),) if phi == 0.0 else
                 ((nx * cos_p - ny * sin_p, nx * sin_p + ny * cos_p),
                  (nx * cos_p + ny * sin_p, -nx * sin_p + ny * cos_p)))
        rows += [(dx, dy, (px * dy - py * dx) / rho) for dx, dy in edges]
    return rows


def _nguyen_pair(contacts: list[Contact], mu: float) -> bool:
    """Whether two contacts close with a margin (Nguyen, IJRR 1988): each lies
    inside the other's friction cone, or each inside the other's negated cone,
    at least _PAIR_CLEARANCE rho / cos(phi) from its edges."""
    rho = max(max(math.hypot(*c.point) for c in contacts), 1e-9)
    margin = _PAIR_CLEARANCE * rho * (1.0 + mu * mu)   # / cos(phi) ** 2
    for a, b in combinations(contacts, 2):
        dx, dy = b.point[0] - a.point[0], b.point[1] - a.point[1]
        (ax, ay), (bx, by) = a.normal, b.normal
        # each normal's component toward the other contact (u) and across (v):
        # the other contact lies cos(phi) (mu |u| - v) inside the nearer cone edge
        ua, ub = dx * ax + dy * ay, -dx * bx - dy * by
        va, vb = abs(dx * ay - dy * ax), abs(dx * by - dy * bx)
        if ua * ub > 0.0 and min(mu * abs(ua) - va, mu * abs(ub) - vb) >= margin:
            return True
    return False


def _closes(contacts: list[Contact], rotation_free: bool, mu: float) -> bool:
    """Force closure of effective contacts at a checked mu, form closure at
    mu = 0: the `_cone_wrenches` must positively span the wrench space.
    Where rotation is a symmetry, normals spanning the plane close the grasp
    at any mu, even one whose friction torques fit in the hull margin.

    Closed forms decide first.  Fewer wrenches than dim + 1 never span, nor
    do frictionless contacts with parallel normals, whose wrenches lie in a
    plane through the origin (Mishra, Schwartz & Sharir, Algorithmica 1987).
    A `_nguyen_pair` closes, and more contacts only grow the hull.  Its margin
    keeps the pair at least 4e-4 rho apart and 2e-4 rad inside the cones, and
    so the origin 1e-4 deep in the hull, far past the exact enumeration's
    1e-9 margin and the wrenches' rounding: the two agree.  The enumeration
    decides the rest: three or more contacts and pairs inside the margin."""
    if rotation_free:
        spans = len(contacts) > 2 and _origin_strictly_inside([c.normal for c in contacts])
        if spans or mu == 0.0:
            return spans
    if len(contacts) < (4 if mu == 0.0 else 2):   # fewer wrenches than dim + 1
        return False
    ax, ay = contacts[0].normal
    if mu == 0.0 and all(ax * ny == ay * nx for nx, ny in (c.normal for c in contacts)):
        return False
    return (mu > 0.0 and _nguyen_pair(contacts, mu)
            or _origin_strictly_inside(_cone_wrenches(contacts, mu)))


def _check_contacts(cset: ContactSet, test: str) -> None:
    """Refuse an empty set, or a contact whose point or normal is not finite."""
    if len(cset) == 0:
        raise ValueError(f"{test} test needs at least one contact")
    for i, c in enumerate(cset.contacts):
        if not all(map(math.isfinite, (*c.point, *c.normal))):
            raise ValueError(f"{test} test: contact {i} is not finite: {c}")


def form_closure_test(cset: ContactSet) -> bool:
    """First-order form closure from frictionless contact normals alone.

    The normal wrenches must positively span the planar wrench space,
    checked as the origin lying strictly inside their convex hull.  For
    rotationally symmetric objects rotation about the origin is a
    symmetry, not a mobility, so the test reduces to the force components
    spanning the translation plane.  That is force closure at mu = 0,
    whose friction cones collapse to the normals.
    """
    _check_contacts(cset, "form closure")
    return _closes(_effective_contacts(cset), cset.rotation_free, 0.0)


def force_closure_test(cset: ContactSet, mu: float) -> bool:
    """Planar force closure with Coulomb friction at every contact.

    Each contact contributes its two friction-cone edge directions; the
    edge wrenches must positively span the wrench space.  Frictionless
    cones collapse to the contact normals.
    """
    check_friction(mu)
    _check_contacts(cset, "force closure")
    return _closes(_effective_contacts(cset), cset.rotation_free, mu)


# ---------------------------------------------------------------------------
# Caging

@lru_cache(maxsize=16)
def _face_outline(profile: SurfaceProfile) -> tuple[tuple[float, float], ...]:
    """The face as _PROFILE_POINTS vertices (x, y) across it; cached."""
    half = profile.arc.half
    return tuple((profile.arc.x_of(y), y) for y in linspace(-half, half, _PROFILE_POINTS))


def _finger_polygon(profile: SurfaceProfile, x_ref: float, side: int
                    ) -> list[tuple[float, float]]:
    """The finger body at reference x_ref: its face, and _BODY_DEPTH behind it."""
    back_x, w = x_ref + side * _BODY_DEPTH, profile.width / 2.0
    return ([(x_ref - side * x, y) for x, y in _face_outline(profile)]
            + [(back_x, w), (back_x, -w)])


def _arange(start: float, stop: float, step: float) -> list[float]:
    """Values from start up to stop, exclusive, as an array range makes them:
    start + i * ((start + step) - start)."""
    delta = (start + step) - start
    return [start + i * delta for i in range(max(math.ceil((stop - start) / step), 0))]


def _polygon_runs(polygon: list[tuple[float, float]], xs: list[float],
                  ys: list[float]) -> list[tuple[int, int, int]]:
    """Cells (xs[i], ys[j]) whose centres lie inside the polygon, as sorted
    runs (j, i0, i1) with i0 <= i < i1, none empty; xs and ys increasing.

    Crossing-number test: an edge from ya to yb crosses row j iff min(ya, yb)
    <= ys[j] < max(ya, yb) (half-open: a vertex on a row counts once), the
    rows between those bisected at its ends.  A centre is inside iff an odd
    number of its row's crossings have insertion points above i, so the
    sorted insertion points k1 <= k2 <= ... pair into [k1, k2), [k3, k4),
    ...; an empty pair is dropped, as a dilation would paint cells for it."""
    span, cuts = len(xs) + 1, []
    (xa, ya), ja = polygon[-1], bisect_left(ys, polygon[-1][1])
    for xb, yb in polygon:   # the edge from (xa, ya) to (xb, yb)
        jb = bisect_left(ys, yb)
        if ja != jb:
            dx, dy = xb - xa, yb - ya
            cuts += [j * span + bisect_left(xs, xa + (ys[j] - ya) * dx / dy)
                     for j in range(min(ja, jb), max(ja, jb))]
        xa, ya, ja = xb, yb, jb
    cuts.sort()
    return [(k0 // span, k0 % span, k1 % span)
            for k0, k1 in zip(cuts[::2], cuts[1::2]) if k0 < k1]


def _repunit(n: int, stride: int) -> int:
    """n one bits, stride bits apart from bit 0."""
    return ((1 << n * stride) - 1) // ((1 << stride) - 1)


class _BitGrid:
    """An (nx, ny) cell grid whose masks are Python ints: cell (x, y) is bit
    (x + 1) * stride + 1 + y, stride = ny + 2, so zero guard bits fence each
    column and the grid, and a one-cell shift never carries a cell into
    another column.  `ring` is the guard cells touching the grid, `border`
    the grid cells on its edge."""

    def __init__(self, nx: int, ny: int):
        self.nx, self.ny, self.stride = nx, ny, ny + 2
        column, every = (1 << ny) - 1 << 1, _repunit(nx, ny + 2) << ny + 2
        self.valid = column * every
        self.border = (column | column << (nx - 1) * self.stride) << self.stride | (
            (2 | 1 << ny) * every)
        self.ring = column | column << (nx + 1) * self.stride | (1 | 2 << ny) * every

    def rows(self, y0: int, y1: int, columns: int) -> int:
        """Grid rows y0 <= y < y1 in columns -1 .. columns - 2."""
        y0, y1 = max(y0, 0), min(y1, self.ny)
        return ((1 << max(y1 - y0, 0)) - 1 << y0 + 1) * _repunit(columns, self.stride)


class _Dilations(dict):
    """The fingers' runs, a list per finger, or'd into one mask self[1]: a
    finger's mask is the parity along x of a mark at both ends of each run.
    self[length] is that mask dilated along +x by length cells, built from
    the longest one so far or from halves; `rows` spans the fingers' rows."""

    def __init__(self, grid: _BitGrid, *fingers: list[tuple[int, int, int]]):
        super().__init__({1: 0})
        s = self.stride = grid.stride
        for runs in fingers:
            marks = bytearray(((grid.nx + 2) * s + 7) // 8)
            for bit in ((i + 1) * s + 1 + j for j, *ends in runs for i in ends):
                marks[bit >> 3] ^= 1 << (bit & 7)
            parity, shift = int.from_bytes(marks, "little"), s
            while shift <= grid.nx * s:
                parity, shift = parity ^ parity << shift, 2 * shift
            self[1] |= parity & grid.valid
        rows = [j for runs in fingers for j, _, _ in runs] or [0]
        self.rows = (min(rows), max(rows))

    def __missing__(self, length: int) -> int:
        base = max(max(k for k in self if k < length), length // 2)
        self[length] = self[base] | self[length - base] << base * self.stride
        return self[length]


def _cspace_obstacle(fingers: _Dilations, footprint: list[tuple[int, int, int]],
                     centre: int, grid: _BitGrid) -> int:
    """Configuration-space obstacle on the grid: the finger mask dilated by
    the footprint runs, whose grid has the reference cell (centre, centre).

    A footprint run [u0, u1) in row centre + dv meets a finger cell (a, j)
    when the object sits in row j - dv with its reference cell in
    [a - (u1 - 1 - centre), a - (u0 - centre)]: the fingers dilated along +x
    by u1 - u0 cells, shifted down u1 - 1 - centre columns and dv rows, less
    the rows that would leave the grid, and so enter another column."""
    s, ny, (lo, hi) = grid.stride, grid.ny, fingers.rows
    blocked = 0
    for v, u0, u1 in footprint:
        dilated, dv = fingers[u1 - u0], v - centre
        if lo - dv < 0 or hi - dv >= ny:
            dilated &= grid.rows(dv, ny + dv, dilated.bit_length() // s + 1)
        shift = (u1 - 1 - centre) * s + dv
        blocked |= dilated >> shift if shift >= 0 else dilated << -shift
    return blocked & grid.valid


def _erode_xy(free: int, grid: _BitGrid) -> int:
    """Free space eroded _ERODE_CELLS times by the x-y plane cross, with the
    guard ring counted free, so that a cell has no neighbour past the border."""
    s = grid.stride
    for _ in range(_ERODE_CELLS):
        ringed = free | grid.ring
        free &= ringed << 1 & ringed >> 1 & ringed << s & ringed >> s
    return free


def _fill(cells: int, grown: int, stride: int, border: int = 0) -> int:
    """The cells connected in x-y to grown, a subset of them, or those found
    when they first meet the border.  A pass grows the region R by a cell along
    x and down y, and up y to the top of each y-run: cells & ~(cells + R) holds
    each run from R's lowest cell in it up, as the carry passes the run's top."""
    while True:
        carry = cells + grown
        region = ((cells | carry) ^ carry | grown
                  | grown >> 1 | grown << stride | grown >> stride) & cells
        if region == grown or region & border:
            return region
        grown = region


def _erode_xy_from(free: list[int], grid: _BitGrid, seed: tuple[int, int, int]) -> list[int]:
    """`_erode_xy` of each slice plus the cells the seed, counted free,
    reaches in `free` without leaving its rotation slice or the x-y window of
    the erosion depth around it, clipped at the grid border.  A seed touching
    a finger at rest would otherwise be an island of one cell, read as an
    escape through a narrow gap.  Each cell put back lies in the seed's
    component of `free`, so an escape from the result is one from `free`."""
    narrowed, (a, x, y), d = [_erode_xy(f, grid) for f in free], seed, _ERODE_CELLS
    x0 = max(x - d, 0)
    base = (x0 + 1) * grid.stride   # moves the window's first column x0 to -1
    window = grid.rows(y - d, y + d + 1, min(x + d, grid.nx - 1) - x0 + 1)
    seed_bit = 1 << (x - x0) * grid.stride + 1 + y
    narrowed[a] |= _fill(free[a] >> base & window | seed_bit, seed_bit, grid.stride) << base
    return narrowed


def _escapes_from(free: list[int], grid: _BitGrid, seed: tuple[int, int, int]) -> bool:
    """Whether a pose reached from the seed, which counts as free, lies on
    the border of the workspace box; free holds one mask per rotation slice.
    Each slice is filled in x-y; one that has grown hands its cells on to
    the slices next to it, the last and the first being neighbours."""
    n, a, x, y = len(free), *seed
    free, reached, todo = list(free), [0] * n, {a}
    reached[a] = 1 << (x + 1) * grid.stride + 1 + y
    free[a] |= reached[a]
    while todo:
        a = todo.pop()
        reached[a] = _fill(free[a], reached[a], grid.stride, grid.border)
        if reached[a] & grid.border:
            return True
        for b in {(a - 1) % n, (a + 1) % n} - {a}:
            if reached[a] & free[b] & ~reached[b]:
                reached[b] |= reached[a] & free[b]
                todo.add(b)
    return False


def caging_test(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile,
                positions: tuple[float, float], *, cell: float = 0.5,
                angle_cell_deg: float = 5.0) -> bool:
    """Rasterized configuration-space check that the object cannot escape.

    The rotations are n = round(360 / angle_cell_deg) slices 360/n degrees
    apart, so the last slice is one step from the first; a rotation-symmetric
    object such as a disk has one slice.  In each slice, one bit mask, the
    obstacle is the finger bodies at positions (x_left, x_right) dilated by
    the rotated object footprint, a Minkowski sum (Lozano-Pérez, IEEE T-C
    1983) computed exactly on the grid from the x-runs of both rasterized
    shapes.  The object is caged iff the free region connected to the rest
    pose at the origin never reaches the border of the workspace box.  An
    escape that vanishes once free space is eroded by two cells in x-y runs
    through a gap at most two cells wide, which raises
    CagingResolutionWarning; the erosion keeps the cells the rest pose
    reaches within its depth, so a contact at rest is no such gap.  A wide
    escape in the rest-angle slice alone decides before the other slices are
    built.  The cell (mm) and the rotation step must be positive and finite,
    and fine enough that the masks held, one per rotation slice and one per
    footprint run length, span at most _MAX_CAGING_CELLS cells in all; the
    positions must be finite.
    """
    _check_positions(positions)
    for name, value in (("cell", cell), ("angle_cell_deg", angle_cell_deg)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite")
    polygons = [_finger_polygon(*finger) for finger in zip((left, right), positions, (-1, 1))]
    base, reach = obj.outline, obj.reach
    spans = [(min(c) - reach - 3 * cell, max(c) + reach + 3 * cell + cell)
             for c in zip(*polygons[0], *polygons[1])]
    # the search holds a grid mask per rotation slice and per footprint run
    # length, a run being at most 2m + 1 cells long (m as below)
    cells = math.prod((stop - start) / cell for start, stop in spans)
    lengths = 2 * (reach / cell + 2) + 1
    rotations = 1.0 if obj.rotation_symmetric else 360.0 / angle_cell_deg
    for masks, name in ((lengths + 1, f"cell {cell!r} mm"), (lengths + rotations,
                        f"angle_cell_deg {angle_cell_deg!r} at cell {cell!r} mm")):
        if masks * cells > _MAX_CAGING_CELLS:
            raise ValueError(f"{name} asks for {masks:.3g} caging masks of {cells:.3g} "
                             f"cells, more than {_MAX_CAGING_CELLS:,} cells in all")
    xs, ys = (_arange(start, stop, cell) for start, stop in spans)
    grid = _BitGrid(len(xs), len(ys))
    seed = (0, *(c.index(min(c, key=abs)) for c in (xs, ys)))   # the cell nearest the origin
    fingers = _Dilations(grid, *(_polygon_runs(polygon, xs, ys) for polygon in polygons))
    m = math.ceil(reach / cell) + 1
    local = [i * cell for i in range(-m, m + 1)]
    n_angles = 1 if obj.rotation_symmetric else max(round(360.0 / angle_cell_deg), 1)
    slices = []
    for ia in range(n_angles):
        a = math.radians(ia * 360.0 / n_angles)
        c, s = math.cos(a), math.sin(a)
        footprint = _polygon_runs([(x * c - y * s, x * s + y * c) for x, y in base], local, local)
        slices.append(grid.valid ^ _cspace_obstacle(fingers, footprint, m, grid))
        if ia == 0 and _escapes_from(_erode_xy_from(slices, grid, seed), grid, seed):
            return False
    if not _escapes_from(slices, grid, seed):
        return True
    # one slice: the rest-slice search above already found no narrow escape
    if n_angles == 1 or not _escapes_from(_erode_xy_from(slices, grid, seed), grid, seed):
        warnings.warn(
            "the escape path passes a gap at most two grid cells "
            f"({_ERODE_CELLS * cell:g} mm) wide; result may be resolution-limited",
            CagingResolutionWarning, stacklevel=2)
    return False


# ---------------------------------------------------------------------------
# Classification

def classify_grasp(obj: ObjectSpec, pair: tuple[SurfaceShape, SurfaceShape],
                   mu: float | None = None, *,
                   face_width: float = DEFAULT_FACE_WIDTH,
                   thin_threshold: float = DEFAULT_THIN_THRESHOLD,
                   stroke: float | None = None) -> GraspResult:
    """Classify the grasp of an object in a given surface-pair mode.

    Precedence: form closure > force closure > caging > fail.  Two rule
    overrides reflect how the surfaces behave rather than rigid geometry:
    a deformable face cannot hold an object thinner than the thin-object
    threshold (it deforms around it and the object slips out), and a thin
    plate met by a concave pocket is pinched at the pocket rim with an
    uncertain final posture, reported as caging with a warning flag.
    """
    if mu is None:
        mu = obj.mu
    check_friction(mu)
    if not math.isfinite(thin_threshold):
        raise ValueError(f"thin_threshold must be finite, got {thin_threshold!r}")
    if stroke is not None:
        obj.check_stroke(stroke)
    left, right, sep_fingers, deformable, concave = _finger_pair(pair[0], pair[1], face_width)
    if deformable and obj.closing_extent < thin_threshold:
        return GraspResult(GraspOutcome.FAIL, ContactSet((), obj.rotation_symmetric), math.nan,
                           reason="object is thinner than the deformable-surface limit; "
                                  "the face deforms around it and the object slips")

    searches, positions, touched = _closing(obj, left, right, sep_fingers)
    contacts = _contact_set(obj, left, right, searches, positions)
    separation = positions[1] - positions[0]

    if concave and isinstance(obj.shape, ThinPlate):
        return GraspResult(GraspOutcome.CAGING, contacts, separation, True,
                           "thin plate at a pocket rim: it may end up pinched at the "
                           "tip or tilted, so the final posture is uncertain")

    if touched and len(contacts) > 0:
        effective = _effective_contacts(contacts)
        if _closes(effective, contacts.rotation_free, 0.0):
            return GraspResult(GraspOutcome.FORM_CLOSURE, contacts, separation)
        # the normals' span has just failed: only the friction cones can close it
        if mu > 0 and _closes(effective, False, mu):
            return GraspResult(GraspOutcome.FORCE_CLOSURE, contacts, separation)

    if caging_test(obj, left, right, positions):
        return GraspResult(GraspOutcome.CAGING, contacts, separation,
                           reason="" if touched else
                           "fingers close on each other before reaching the "
                           "object; it is enclosed but untouched")
    return GraspResult(GraspOutcome.FAIL, contacts, separation,
                       reason="no closure and an escape path exists")


def write_contacts_csv(cset: ContactSet, stream) -> None:
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["x_mm", "y_mm", "nx", "ny", "finger"])
    for c in cset.contacts:
        writer.writerow([repr(c.point[0]), repr(c.point[1]),
                         repr(c.normal[0]), repr(c.normal[1]), c.finger])
