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
lateral overlap, and three evaluations in plain floats find each first
contact.  Closed forms decide closure where the physics gives one: too few
wrenches or frictionless parallel normals never close, and two contacts each
inside the other's friction cone (or negated cone) do.  numpy's hull
enumeration decides the rest; numpy also serves caging and the object outline.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

import numpy as np

from .modes import (DEFAULT_FACE_WIDTH, DEFAULT_THIN_THRESHOLD, SurfaceKind,
                    SurfaceShape)
from .objects import (Arc, ObjectSpec, ThinPlate, check_friction, face_arc,
                      object_polygon, side_boundary)

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
_CACHED_POINTS = 12     # largest point set whose facet maps are cached, 50 kB at most
_PAIR_CLEARANCE = 4e-4  # x rho / cos(phi): least cone-edge clearance of a Nguyen pair
_WRENCH_GAP = 1e-2      # least gap between unequal wrenches behind a Nguyen pair
_PROFILE_POINTS = 129   # vertices of a finger face's outline in caging
_CORNER_TOL = 1e-9      # mm; how close to a corner a contact counts as at it
_BODY_DEPTH = 15.0      # mm; finger body behind the face, for caging
_ERODE_CELLS = 2        # x-y erosion depth of the caging resolution check


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
                    ) -> tuple[Arc, float, tuple[float, float, float], list[float]]:
    """One finger's contact search: the object's flank, the finger reference
    at first contact, and the candidates (lo, 0, hi) with their clearances.

    The clearance c(y) between flank and finger front does not depend on
    the finger position: the left finger at reference x_ref has clearance
    c(y) - x_ref, the right finger x_ref - c(y).  The flank and the face are
    both `Arc`s, so over the lateral overlap [lo, hi] = [-hi, hi] c is even
    in y and monotone in |y|.  Its extremes lie at the centre or the ends,
    and the positions within a tolerance of an extreme are the whole
    overlap, one band around the centre or two bands at the ends.
    """
    flank = side_boundary(spec, side)
    hi = min(flank.half, profile.arc.half)
    ys = (-hi, 0.0, hi)
    c = [flank.x_of(y) + side * profile.height(y) for y in ys]
    return flank, (min(c) if side < 0 else max(c)), ys, c


def _at_corner(arc: Arc, y: float) -> bool:
    return any(abs(y - corner) <= _CORNER_TOL for corner in arc.corners)


def _contact_normal(flank: Arc, face: Arc, y: float, side: int) -> tuple[float, float]:
    """Unit normal into the object: the flank's, the face's at an object
    corner, or along the closing axis where a corner meets a face rim."""
    if not _at_corner(flank, y):
        return flank.normal(y, -side)
    if not _at_corner(face, y):
        nx, ny = face.normal(y, 1.0)   # finger frame: mirror x for the right finger
        return (-side * nx, ny)
    return (-side * 1.0, 0.0)


def _contact_set(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile,
                 searches: tuple, positions: tuple[float, float] | None) -> ContactSet:
    """Both fingers' contacts from their `_lateral_search`es (see compute_contacts)."""
    contacts = []
    for (flank, ref, ys, c), face, side, x_ref, finger in zip(
            searches, (left.arc, right.arc), (-1, 1),
            (None, None) if positions is None else positions, ("3S", "4S")):
        if x_ref is None:
            x_ref = ref
        residual = [side * (x_ref - ci) for ci in c]
        worst = min(residual)
        if worst < -_CONTACT_TOL:
            raise ValueError(
                f"finger penetrates the object by {-worst:.3g} mm at the "
                "requested finger position")
        contact_ys = [y for y, res in zip(ys, residual) if res <= _CONTACT_TOL]
        if len(contact_ys) == 3:   # else one contact per band: the centre or each end
            if ys[2] - ys[0] > _MERGE_RADIUS:   # an extended contact: its two ends
                contact_ys = [ys[0], ys[2]]
            else:   # a narrow one collapses to its best point
                contact_ys = [ys[residual.index(worst)]]
        contacts += [Contact(point=(flank.x_of(y), y),
                             normal=_contact_normal(flank, face, y, side), finger=finger)
                     for y in contact_ys]
    return ContactSet(contacts=tuple(contacts), rotation_free=obj.rotation_symmetric)


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
    wider than the merge radius.
    """
    return _contact_set(obj, left, right, _closing(obj, left, right)[0], positions)


@lru_cache(maxsize=64)
def _finger_separation(left: SurfaceProfile, right: SurfaceProfile) -> float:
    """Separation at which two finger faces touch each other.

    Both faces are lines or circular arcs centred on y = 0, so the sum of
    their heights is even in y and monotone in |y|: it peaks at the centre
    or at the rims of the narrower face."""
    half = min(left.width, right.width) / 2.0
    return max(left.height(y) + right.height(y) for y in (-half, 0.0, half))


def _closing(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile) -> tuple:
    """Both fingers' `_lateral_search`es, then closure_separation's result."""
    searches = (_lateral_search(obj, left, -1), _lateral_search(obj, right, +1))
    sep_obj = max(-2.0 * searches[0][1], 2.0 * searches[1][1])
    sep_fingers = _finger_separation(left, right)
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
    return _closing(obj, left, right)[1:]


# ---------------------------------------------------------------------------
# Closure tests

def _effective_contacts(cset: ContactSet) -> list[Contact]:
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


_CROSS = np.zeros((9, 3))   # np.outer(a, b).ravel() @ _CROSS == np.cross(a, b)
_CROSS[[5, 7, 6, 2, 1, 3], [0, 0, 1, 1, 2, 2]] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]


@lru_cache(maxsize=16)
def _facet_maps(n: int, dim: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Over every dim-subset of n points: edge map and (first point, subset) index."""
    subsets = np.array(list(combinations(range(n), dim))).reshape(-1, dim)
    to_edges = np.eye(n)[subsets[:, 1:]] - np.eye(n)[subsets[:, :1]]
    return (to_edges.transpose(1, 0, 2).reshape(-1, n),
            (subsets[:, 0], np.arange(len(subsets))))


def _origin_strictly_inside(points: np.ndarray) -> bool:
    """Whether the origin lies at least _HULL_MARGIN inside the hull of 2-D or 3-D points.

    Exact facet enumeration: every plane through dim of the points with all
    points on one side (up to round-off) supports the hull, and the facet
    planes are among them.  A set of less than full dimension has none, or
    one with points on both sides: no interior."""
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    if n < dim + 1:
        return False
    to_edges, first = (_facet_maps if n <= _CACHED_POINTS else _facet_maps.__wrapped__)(n, dim)
    edges = (to_edges @ points).reshape(dim - 1, -1, dim)
    normals = (edges[0][:, ::-1] * (1.0, -1.0) if dim == 2 else
               (edges[0][:, :, None] * edges[1][:, None, :]).reshape(-1, 9) @ _CROSS)
    length = np.sqrt(np.einsum("ij,ij->i", normals, normals))
    dots = points @ normals.T
    offsets = dots[first]
    scale = float(np.abs(points).max())
    spans = length > 1e-12 * scale ** (dim - 1)   # not (nearly) collinear
    # rounding in a normal grows with scale ** (dim - 1), not with its length
    slack = 1e-12 * scale * np.maximum(length, scale ** (dim - 1))
    below = spans & (dots.max(axis=0) - offsets <= slack)
    above = spans & (dots.min(axis=0) - offsets >= -slack)
    reach = _HULL_MARGIN * length
    return bool((below | above).any()) and not (
        (below & (offsets < reach)) | (above & (offsets > -reach))).any()


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


def _resolved(rows: list[tuple[float, float, float]]) -> bool:
    """Whether every two wrenches have equal forces or forces _WRENCH_GAP
    apart, and equal forces equal moments or moments _WRENCH_GAP apart."""
    for (ax, ay, at), (bx, by, bt) in combinations(rows, 2):
        gap = abs(at - bt) if ax == bx and ay == by else math.hypot(ax - bx, ay - by)
        if 0.0 < gap < _WRENCH_GAP:
            return False
    return True


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
    the origin 1e-4 deep in the hull.  The enumeration's slack on a plane
    whose normal has length l is up to 1e-12 / l, and `_resolved` wrenches
    give l = 0 or l >= _WRENCH_GAP ** 3 / 2, so it agrees.  It decides the
    rest: three or more contacts, pairs inside the margin, close wrenches."""
    if rotation_free:
        spans = len(contacts) > 2 and _origin_strictly_inside([c.normal for c in contacts])
        if spans or mu == 0.0:
            return spans
    if len(contacts) < (4 if mu == 0.0 else 2):   # fewer wrenches than dim + 1
        return False
    ax, ay = contacts[0].normal
    if mu == 0.0 and all(ax * ny == ay * nx for nx, ny in (c.normal for c in contacts)):
        return False
    rows = _cone_wrenches(contacts, mu)
    return (mu > 0.0 and _nguyen_pair(contacts, mu) and _resolved(rows)
            or _origin_strictly_inside(rows))


def form_closure_test(cset: ContactSet) -> bool:
    """First-order form closure from frictionless contact normals alone.

    The normal wrenches must positively span the planar wrench space,
    checked as the origin lying strictly inside their convex hull.  For
    rotationally symmetric objects rotation about the origin is a
    symmetry, not a mobility, so the test reduces to the force components
    spanning the translation plane.  That is force closure at mu = 0,
    whose friction cones collapse to the normals.
    """
    if len(cset) == 0:
        raise ValueError("form closure test needs at least one contact")
    return _closes(_effective_contacts(cset), cset.rotation_free, 0.0)


def force_closure_test(cset: ContactSet, mu: float) -> bool:
    """Planar force closure with Coulomb friction at every contact.

    Each contact contributes its two friction-cone edge directions; the
    edge wrenches must positively span the wrench space.  Frictionless
    cones collapse to the contact normals.
    """
    check_friction(mu)
    if len(cset) == 0:
        raise ValueError("force closure test needs at least one contact")
    return _closes(_effective_contacts(cset), cset.rotation_free, mu)


# ---------------------------------------------------------------------------
# Caging

@lru_cache(maxsize=16)
def _face_outline(profile: SurfaceProfile) -> np.ndarray:
    """The face as _PROFILE_POINTS vertices (x, y) across it; cached, so read-only."""
    half = profile.arc.half
    ys = np.linspace(-half, half, _PROFILE_POINTS).tolist()
    outline = np.array([(profile.arc.x_of(y), y) for y in ys])
    outline.flags.writeable = False
    return outline


def _finger_polygon(profile: SurfaceProfile, x_ref: float, side: int) -> np.ndarray:
    """The finger body at reference x_ref: its face, and _BODY_DEPTH behind it."""
    front = _face_outline(profile)
    back_x = x_ref + side * _BODY_DEPTH
    w = profile.width / 2.0
    return np.vstack([np.column_stack([x_ref - side * front[:, 0], front[:, 1]]),
                      [[back_x, w], [back_x, -w]]])


def _polygon_runs(polygon: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray) -> np.ndarray:
    """Cells (xs[i], ys[j]) whose centres lie inside the polygon, as rows
    (j, i0, i1) with i0 <= i < i1, none empty; xs increasing.

    Crossing-number test, with the work proportional to the edge crossings.
    An edge from ya to yb crosses grid row j iff min(ya, yb) <= ys[j] <
    max(ya, yb) (half-open, so a vertex on a row counts once); ys is
    increasing, so those rows form one range per edge, found by binary
    search.  A centre is inside iff an odd number of its row's crossings
    lie strictly to its right, i.e. have insertion points above i, so the
    row's sorted insertion points k1 <= k2 <= ... pair into [k1, k2),
    [k3, k4), ...  A pair with no centre between its crossings is empty
    and is dropped, since a dilation would paint cells for it."""
    a = np.asarray(polygon, dtype=float)
    b = np.concatenate([a[1:], a[:1]])
    first = np.searchsorted(ys, np.minimum(a[:, 1], b[:, 1]))
    n = np.searchsorted(ys, np.maximum(a[:, 1], b[:, 1])) - first
    e = np.repeat(np.arange(len(a)), n)
    row = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - first, n)
    x_cross = a[e, 0] + (ys[row] - a[e, 1]) * (b[e, 0] - a[e, 0]) / (b[e, 1] - a[e, 1])
    span = len(xs) + 1
    row, cut = np.divmod(np.sort(row * span + np.searchsorted(xs, x_cross)), span)
    runs = np.column_stack([row[::2], cut[::2], cut[1::2]])
    return runs[runs[:, 1] < runs[:, 2]]


def _reachable_region(free: np.ndarray, seed: tuple[int, ...]) -> np.ndarray:
    """Free runs along y connected to the seed cell, which counts as free.

    Rows (line, y0, y1) with line = angle * nx + x and y1 exclusive.  Runs
    are joined when their y-intervals overlap and they lie in neighbouring
    x lines or rotation slices; axis 0 (rotation) wraps around.  Components
    come from a vectorized union-find: hook the two roots of every edge to
    the lesser one, then jump pointers until each run points at its root."""
    na, nx, ny = free.shape
    w = ny + 1
    padded = np.zeros((na, nx, ny + 2), dtype=bool)
    padded[..., 1:-1] = free
    padded[seed[0], seed[1], seed[2] + 1] = True
    # transitions at line * w + y alternate: run start, run end (exclusive)
    start, end = np.flatnonzero(padded[..., 1:] != padded[..., :-1]).reshape(-1, 2).T
    line = start // w
    neighbours = [(line + 1, line % nx < nx - 1)]   # next x, same slice
    if na > 1:
        neighbours.append(((line + nx) % (na * nx), True))   # next slice
    edges = []
    for target, ok in neighbours:
        offset = (target - line) * w   # its runs lo .. lo + n - 1 overlap this one
        lo = np.searchsorted(end, start + offset, side="right")
        n = np.where(ok, np.searchsorted(start, end + offset) - lo, 0)
        edges.append([np.repeat(np.arange(len(start)), n),
                      np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n)])
    edges = np.concatenate(edges, axis=1)
    parent = np.arange(len(start))
    while edges.size:
        roots = parent[edges]
        # flat values: numpy 2.4's ufunc.at misreads broadcast ones
        np.minimum.at(parent, roots.ravel(), np.tile(roots.min(axis=0), 2))
        while ((jump := parent[parent]) != parent).any():
            parent = jump
        edges = edges[:, parent[edges[0]] != parent[edges[1]]]
    past_seed = np.searchsorted(start, np.ravel_multi_index(seed, (na, nx, w)), "right")
    return np.column_stack([line, start % w, end % w])[parent == parent[past_seed - 1]]


def _escapes_from(free: np.ndarray, seed: tuple[int, ...]) -> bool:
    """Whether a pose reached from the seed lies on the border of the workspace box."""
    _, nx, ny = free.shape
    line, y0, y1 = _reachable_region(free, seed).T
    x = line % nx
    return bool((x == 0).any() or (x == nx - 1).any()
                or (y0 == 0).any() or (y1 == ny).any())


def _erode_xy(free: np.ndarray) -> np.ndarray:
    """Free space eroded _ERODE_CELLS times by the x-y plane cross, the
    border counting as free."""
    for _ in range(_ERODE_CELLS):
        eroded = free.copy()   # a border cell has no neighbour to clear it
        eroded[:, 1:] &= free[:, :-1]
        eroded[:, :-1] &= free[:, 1:]
        eroded[:, :, 1:] &= free[:, :, :-1]
        eroded[:, :, :-1] &= free[:, :, 1:]
        free = eroded
    return free


def _erode_xy_from(free: np.ndarray, seed: tuple[int, ...]) -> np.ndarray:
    """`_erode_xy(free)` plus the cells the seed, counted free, reaches in
    `free` without leaving its rotation slice or the x-y window of the
    erosion depth around it, clipped at the grid border.

    A seed touching a finger at rest would otherwise be left an island of
    one cell, which reads as an escape through a narrow gap.  Each cell put
    back lies in the seed's component of `free`, so an escape from the
    result is an escape from `free`."""
    narrowed = _erode_xy(free)
    a, x, y = seed
    x0, y0 = max(x - _ERODE_CELLS, 0), max(y - _ERODE_CELLS, 0)
    window = free[a, x0:x + _ERODE_CELLS + 1, y0:y + _ERODE_CELLS + 1]
    allowed = set(map(tuple, np.argwhere(window).tolist()))
    reached = grown = {(x - x0, y - y0)}
    while grown:   # grow by free 4-neighbours in the window until nothing changes
        grown = {(i + di, j + dj) for i, j in grown
                 for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))} & (allowed - reached)
        reached |= grown
    for i, j in reached:
        narrowed[a, x0 + i, y0 + j] = True
    return narrowed


def _cspace_obstacle(fingers: np.ndarray, footprint: np.ndarray, centre: int,
                     shape: tuple[int, int]) -> np.ndarray:
    """Configuration-space obstacle on the (nx, ny) grid: the finger runs
    dilated by the footprint runs, whose grid has the reference cell
    (centre, centre).

    A footprint run [u0, u1) in footprint row centre + dv meets a finger run
    [a0, a1) in grid row j when the object sits in row j - dv with its
    reference cell in [a0 - (u1 - centre) + 1, a1 - (u0 - centre)): each
    pair paints one interval, as +1/-1 steps of a difference array along x.
    This is fftconvolve(fingers, footprint[::-1, ::-1], mode="same") > 0 in
    whole cells."""
    nx, ny = shape
    j, a0, a1 = fingers.T[:, :, None]
    v, u0, u1 = footprint.T[:, None, :]
    row = j - (v - centre)
    lo = np.maximum(a0 - (u1 - centre) + 1, 0)
    hi = np.minimum(a1 - (u0 - centre), nx)
    keep = (row >= 0) & (row < ny) & (lo < hi)
    row = row[keep]
    # in place and summed in int32: fewer and smaller temporaries per slice
    steps = np.bincount(lo[keep] * ny + row, minlength=(nx + 1) * ny)
    steps -= np.bincount(hi[keep] * ny + row, minlength=(nx + 1) * ny)
    return np.cumsum(steps.reshape(nx + 1, ny)[:nx], axis=0, dtype=np.int32) > 0


def caging_test(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile,
                positions: tuple[float, float], *, cell: float = 0.5,
                angle_cell_deg: float = 5.0) -> bool:
    """Rasterized configuration-space check that the object cannot escape.

    The rotations are n = round(360 / angle_cell_deg) slices 360/n degrees
    apart, so the last slice is one step from the first; a rotation-symmetric
    object such as a disk has one slice.  In each slice the obstacle is the
    finger bodies at positions (x_left, x_right) dilated by the rotated
    object footprint, a Minkowski sum (Lozano-Pérez, IEEE T-C 1983) computed
    exactly on the grid from the x-runs of both rasterized shapes.  The
    object is caged iff the free region connected to the rest pose at the
    origin never reaches the border of the workspace box; the region is a
    flood fill over the graph of free y-runs.  An escape that vanishes once
    free space is eroded by two cells in x-y runs through a gap at most two
    cells wide, so the verdict may depend on the grid: that raises
    CagingResolutionWarning.  The erosion keeps the cells the rest pose
    reaches within its depth, so a contact at rest is not taken for such a
    gap.  A wide escape within the rest-angle slice alone, a subset of the
    full search, decides the test before the other slices are built or
    stored.  The cell (mm) and the rotation step must be positive and finite.
    """
    for name, value in (("cell", cell), ("angle_cell_deg", angle_cell_deg)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite")
    poly_left = _finger_polygon(left, positions[0], -1)
    poly_right = _finger_polygon(right, positions[1], +1)
    vertices = np.vstack([poly_left, poly_right])
    base = object_polygon(obj)
    reach = float(np.max(np.hypot(base[:, 0], base[:, 1])))
    xs, ys = (np.arange(c.min() - reach - 3 * cell,
                        c.max() + reach + 3 * cell + cell, cell) for c in vertices.T)
    seed = (0, int(np.argmin(np.abs(xs))), int(np.argmin(np.abs(ys))))

    finger_runs = np.vstack([_polygon_runs(poly_left, xs, ys),
                             _polygon_runs(poly_right, xs, ys)])
    m = int(math.ceil(reach / cell)) + 1
    local = np.arange(-m, m + 1) * cell
    n_angles = (1 if obj.rotation_symmetric
                else max(int(round(360.0 / angle_cell_deg)), 1))
    for ia in range(n_angles):
        a = math.radians(ia * 360.0 / n_angles)
        rot = np.array([[math.cos(a), -math.sin(a)],
                        [math.sin(a), math.cos(a)]])
        footprint = _polygon_runs(base @ rot.T, local, local)
        free = ~_cspace_obstacle(finger_runs, footprint, m, (len(xs), len(ys)))
        if ia == 0:
            if _escapes_from(_erode_xy_from(free[None], seed), seed):
                return False
            free3 = np.empty((n_angles, *free.shape), dtype=bool)
        free3[ia] = free

    if not _escapes_from(free3, seed):
        return True
    if not _escapes_from(_erode_xy_from(free3, seed), seed):
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
    left = surface_profile(pair[0], face_width)
    right = surface_profile(pair[1], face_width)
    empty = ContactSet(contacts=(), rotation_free=obj.rotation_symmetric)

    deformable = left.deformable or right.deformable
    if deformable and obj.closing_extent < thin_threshold:
        return GraspResult(
            outcome=GraspOutcome.FAIL, contacts=empty, separation=math.nan,
            reason="object is thinner than the deformable-surface limit; the "
                   "face deforms around it and the object slips")

    searches, positions, touched = _closing(obj, left, right)
    contacts = _contact_set(obj, left, right, searches, positions)
    separation = positions[1] - positions[0]

    concave_involved = any(s.kind is SurfaceKind.CONCAVE for s in pair)
    if isinstance(obj.shape, ThinPlate) and concave_involved:
        return GraspResult(
            outcome=GraspOutcome.CAGING, contacts=contacts,
            separation=separation, posture_uncertain=True,
            reason="thin plate at a pocket rim: it may end up pinched at the "
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
