"""Planar contact computation and grasp classification.

The grasp plane has the closing axis along x; the object sits centered on
the origin with the left finger approaching from -x and the right finger
from +x.  In the default pairing the 3S finger is the left one.

Classification runs the closure tests in precedence order (form closure,
then force closure, then caging) on the contact configuration the
mechanism can physically reach: both fingers advance symmetrically until
either one touches the object or the fingers touch each other.

The contact search is exact.  Every object flank and finger face is a line
or a circular arc centred on y = 0, so the clearance between a flank and a
face takes its extremes at the centre or the ends of their lateral overlap,
and three evaluations find each first contact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

import numpy as np

from .modes import SurfaceKind, SurfaceShape
from .objects import (ObjectSpec, SideBoundary, ThinPlate, object_polygon,
                      side_boundary)

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

DEFAULT_FACE_WIDTH = 20.0
DEFAULT_THIN_THRESHOLD = 3.0    # mm; thinner objects slip out of a deformable pad
_CONTACT_TOL = 1e-6     # mm; how closely a point must sit on both boundaries
_MERGE_RADIUS = 0.1     # mm; closer contact points collapse to one
_HULL_MARGIN = 1e-9     # strict-interior margin for positive-span tests
_PROFILE_POINTS = 129   # vertices of a finger-face polyline
_CORNER_TOL = 1e-9      # mm; how close to a corner a contact counts as at it
_BODY_DEPTH = 15.0      # mm; finger body behind the face, for caging
_ERODE_CELLS = 2        # x-y erosion depth of the caging resolution check


class DegenerateContactWarning(UserWarning):
    """Coincident contacts collapsed to fewer effective wrenches."""


class CagingResolutionWarning(UserWarning):
    """An escape exists only through a gap at most two caging cells wide."""


@dataclass(frozen=True)
class SurfaceProfile:
    """One finger face in the finger frame: x is protrusion toward the object."""

    shape: SurfaceShape
    width: float
    polyline: np.ndarray

    @property
    def deformable(self) -> bool:
        return self.shape.kind is SurfaceKind.DEFORMABLE_FLAT

    def height(self, y: np.ndarray) -> np.ndarray:
        """Signed protrusion toward the object at lateral position y."""
        kind = self.shape.kind
        if kind in (SurfaceKind.FLAT, SurfaceKind.DEFORMABLE_FLAT):
            return np.zeros_like(np.asarray(y, dtype=float))
        r = self.shape.radius
        c = math.sqrt(max(r * r - (self.width / 2.0) ** 2, 0.0))
        bulge = np.sqrt(np.maximum(r * r - np.square(y), 0.0)) - c
        return bulge if kind is SurfaceKind.CONVEX else -bulge

    def outward_normal(self, y: float) -> tuple[float, float]:
        """Unit normal of the face pointing toward the object (finger frame)."""
        kind = self.shape.kind
        if kind in (SurfaceKind.FLAT, SurfaceKind.DEFORMABLE_FLAT):
            return (1.0, 0.0)
        r = self.shape.radius
        nx = math.sqrt(max(r * r - y * y, 0.0)) / r
        ny = y / r
        return (nx, ny) if kind is SurfaceKind.CONVEX else (nx, -ny)


@lru_cache(maxsize=16)
def surface_profile(shape: SurfaceShape,
                    width: float = DEFAULT_FACE_WIDTH) -> SurfaceProfile:
    """Discretize a finger surface into a polyline spanning the face width.

    Flat and deformable-flat faces are straight segments; convex and
    concave faces are circular arcs whose chord is the face width, bulging
    toward and away from the object respectively.  Cached per face, so the
    polyline is read-only.
    """
    if not width > 0:
        raise ValueError("face width must be positive")
    if shape.kind in (SurfaceKind.CONVEX, SurfaceKind.CONCAVE):
        if width > 2 * shape.radius:
            raise ValueError(
                f"face width {width:g} mm exceeds the arc diameter "
                f"{2 * shape.radius:g} mm; the arc cannot span the face")
    ys = np.linspace(-width / 2.0, width / 2.0, _PROFILE_POINTS)
    probe = SurfaceProfile(shape=shape, width=width, polyline=np.empty((0, 2)))
    polyline = np.column_stack([probe.height(ys), ys])
    polyline.flags.writeable = False
    return SurfaceProfile(shape=shape, width=width, polyline=polyline)


@dataclass(frozen=True)
class Contact:
    point: tuple[float, float]
    normal: tuple[float, float]   # unit, pointing into the object
    finger: str                   # "3S" (left) or "4S" (right)


@dataclass(frozen=True)
class ContactSet:
    contacts: tuple[Contact, ...]
    rotation_free: bool = False   # rotations about the centroid are symmetries
    centroid: tuple[float, float] = (0.0, 0.0)

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

def _lateral_search(spec: ObjectSpec, profile: SurfaceProfile,
                    side: int) -> tuple[SideBoundary, float, np.ndarray, np.ndarray]:
    """One finger's contact search: the object's flank, the finger reference
    at first contact, and the candidates (lo, 0, hi) with their clearances.

    The clearance c(y) between flank and finger front does not depend on
    the finger position: the left finger at reference x_ref has clearance
    c(y) - x_ref, the right finger x_ref - c(y).  Every flank and every face
    is a line or a circular arc centred on y = 0, so over the lateral
    overlap [lo, hi] = [-hi, hi] c is even in y and monotone in |y|.  Its
    extremes lie at the centre or the ends, and the positions within a
    tolerance of an extreme are the whole overlap, one band around the
    centre or two bands at the ends.  Any new shape must keep this.
    """
    boundary = side_boundary(spec, side)
    ys = np.array([max(boundary.lo, -profile.width / 2.0), 0.0,
                   min(boundary.hi, profile.width / 2.0)])
    c = boundary.x_of(ys) + side * profile.height(ys)
    return boundary, (float(c.min()) if side < 0 else float(c.max())), ys, c


def _contact_normal(boundary: SideBoundary, profile: SurfaceProfile,
                    y: float, side: int) -> tuple[float, float]:
    at_obj_corner = any(abs(y - cy) <= _CORNER_TOL for cy in boundary.corner_ys)
    at_rim = abs(abs(y) - profile.width / 2.0) <= _CORNER_TOL
    if not at_obj_corner:
        return boundary.normal_of(y)
    if not at_rim:
        nx, ny = profile.outward_normal(y)
        return (nx, ny) if side < 0 else (-nx, ny)
    return (1.0, 0.0) if side < 0 else (-1.0, 0.0)


def _side_contacts(spec: ObjectSpec, profile: SurfaceProfile, side: int,
                   x_ref: float | None, finger: str) -> list[Contact]:
    boundary, ref, ys, c = _lateral_search(spec, profile, side)
    if x_ref is None:
        x_ref = ref
    residual = (c - x_ref) if side < 0 else (x_ref - c)
    if residual.min() < -_CONTACT_TOL:
        raise ValueError(
            f"finger penetrates the object by {-residual.min():.3g} mm at the "
            "requested separation")
    touching = residual <= _CONTACT_TOL
    if not touching.all():   # one contact per band: the centre or each end
        contact_ys = ys[touching]
    elif ys[2] - ys[0] > _MERGE_RADIUS:   # an extended contact: its two ends
        contact_ys = ys[::2]
    else:   # a narrow one collapses to its best point
        contact_ys = ys[[np.argmin(residual)]]
    contacts = []
    for y in contact_ys.tolist():
        point = (float(boundary.x_of(np.array([y]))[0]), y)
        normal = _contact_normal(boundary, profile, y, side)
        contacts.append(Contact(point=point, normal=normal, finger=finger))
    return contacts


def compute_contacts(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile,
                     gap: float | None = None) -> ContactSet:
    """Contact points between the object and the two opposed finger faces.

    With gap=None each finger advances along the closing axis to its own
    first contact with the object.  With an explicit gap the finger
    reference planes sit symmetrically about the origin, gap apart, and
    only points within the contact tolerance count (an empty set means the
    object is not touched at that separation).  Contacts sit at the centre
    or the ends of the lateral overlap of flank and face.  A contact along
    the whole overlap is reported at its two ends, or at its best point if
    the overlap is no wider than the merge radius.
    """
    x_left = None if gap is None else -gap / 2.0
    x_right = None if gap is None else gap / 2.0
    left_contacts = _side_contacts(obj, left, -1, x_left, "3S")
    right_contacts = _side_contacts(obj, right, +1, x_right, "4S")
    return ContactSet(contacts=tuple(left_contacts + right_contacts),
                      rotation_free=obj.rotation_symmetric,
                      centroid=(0.0, 0.0))


@lru_cache(maxsize=64)
def _finger_separation(left_face: tuple[SurfaceShape, float],
                       right_face: tuple[SurfaceShape, float]) -> float:
    """Separation at which two (shape, width) faces touch each other.

    Both faces are lines or circular arcs centred on y = 0, so the sum of
    their heights is even in y and monotone in |y|: it peaks at the centre
    or at the rims of the narrower face."""
    left, right = surface_profile(*left_face), surface_profile(*right_face)
    half = min(left.width, right.width) / 2.0
    ys = np.array([-half, 0.0, half])
    return float((left.height(ys) + right.height(ys)).max())


def closure_separation(obj: ObjectSpec, left: SurfaceProfile,
                       right: SurfaceProfile) -> tuple[float, bool]:
    """Separation at which symmetric closing stops, and whether the object
    is touched there.

    Closing stops at the first contact of either finger with the object or
    of the fingers with each other, whichever happens at the larger
    separation.  Small objects nested in deep pockets can leave the fingers
    touching each other with the object untouched.
    """
    _, ref_l, _, _ = _lateral_search(obj, left, -1)
    _, ref_r, _, _ = _lateral_search(obj, right, +1)
    sep_obj = max(-2.0 * ref_l, 2.0 * ref_r)
    sep_fingers = _finger_separation((left.shape, left.width),
                                     (right.shape, right.width))
    separation = max(sep_obj, sep_fingers, 0.0)
    touched = sep_obj >= sep_fingers - _CONTACT_TOL
    return separation, touched


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


@lru_cache(maxsize=None)
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
    to_edges, first = _facet_maps(n, dim)
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


def _wrench_rows(contacts: list[Contact], centroid: tuple[float, float],
                 directions_per_contact) -> np.ndarray:
    arms = [math.hypot(c.point[0] - centroid[0], c.point[1] - centroid[1])
            for c in contacts]
    rho = max(max(arms, default=0.0), 1e-9)
    rows = []
    for c in contacts:
        px = c.point[0] - centroid[0]
        py = c.point[1] - centroid[1]
        for dx, dy in directions_per_contact(c):
            rows.append((dx, dy, (px * dy - py * dx) / rho))
    return np.array(rows)


def form_closure_test(cset: ContactSet) -> bool:
    """First-order form closure from frictionless contact normals alone.

    The normal wrenches must positively span the planar wrench space,
    checked as the origin lying strictly inside their convex hull.  For
    rotationally symmetric objects rotation about the centroid is a
    symmetry, not a mobility, so the test reduces to the force components
    spanning the translation plane.  That is force closure at mu = 0,
    whose friction cones collapse to the normals.
    """
    if len(cset) == 0:
        raise ValueError("form closure test needs at least one contact")
    return force_closure_test(cset, 0.0)


def force_closure_test(cset: ContactSet, mu: float) -> bool:
    """Planar force closure with Coulomb friction at every contact.

    Each contact contributes its two friction-cone edge directions; the
    edge wrenches must positively span the wrench space.  Frictionless
    cones collapse to the contact normals.
    """
    if mu < 0:
        raise ValueError("friction coefficient must be >= 0")
    if len(cset) == 0:
        raise ValueError("force closure test needs at least one contact")
    contacts = _effective_contacts(cset)
    if cset.rotation_free:
        # rotation is a symmetry: normals spanning the plane close the grasp
        # at any mu, even one whose friction torques fit in the hull margin
        spans = _origin_strictly_inside(np.array([c.normal for c in contacts]))
        if spans or mu == 0.0:
            return spans
    phi = math.atan(mu)

    def edges(c: Contact):
        nx, ny = c.normal
        if phi == 0.0:
            return ((nx, ny),)
        cos_p, sin_p = math.cos(phi), math.sin(phi)
        return ((nx * cos_p - ny * sin_p, nx * sin_p + ny * cos_p),
                (nx * cos_p + ny * sin_p, -nx * sin_p + ny * cos_p))

    wrenches = _wrench_rows(contacts, cset.centroid, edges)
    return _origin_strictly_inside(wrenches)


# ---------------------------------------------------------------------------
# Caging

def _finger_polygon(profile: SurfaceProfile, x_ref: float, side: int,
                    body_depth: float) -> np.ndarray:
    front = profile.polyline
    back_x = x_ref + side * body_depth
    w = profile.width / 2.0
    return np.vstack([np.column_stack([x_ref - side * front[:, 0], front[:, 1]]),
                      [[back_x, w], [back_x, -w]]])


def _polygon_runs(polygon: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray) -> np.ndarray:
    """Cells (xs[i], ys[j]) whose centres lie inside the polygon, as rows
    (j, i0, i1) with i0 <= i < i1, none empty; xs increasing.

    Crossing-number test with each edge's crossing computed once per grid
    row: a centre is inside iff an odd number of its row's crossings lie
    strictly to its right, i.e. have insertion points above i, so the
    row's sorted insertion points k1 <= k2 <= ... pair into [k1, k2),
    [k3, k4), ...  A pair with no centre between its crossings is empty
    and is dropped, since a dilation would paint cells for it."""
    a = np.asarray(polygon, dtype=float)
    b = np.roll(a, -1, axis=0)
    row, e = np.nonzero((a[:, 1] <= ys[:, None]) != (b[:, 1] <= ys[:, None]))
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
    padded = np.pad(free, ((0, 0), (0, 0), (1, 1)))
    padded[seed[0], seed[1], seed[2] + 1] = True
    # transitions at line * w + y alternate: run start, run end (exclusive)
    start, end = np.flatnonzero(padded[..., 1:] != padded[..., :-1]).reshape(-1, 2).T
    line = start // w
    edges = []
    for target, ok in ((line + 1, line % nx < nx - 1),   # next x, same slice
                       ((line + nx) % (na * nx), na > 1)):   # next slice
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
    return bool(np.isin(line % nx, (0, nx - 1)).any()
                or (y0 == 0).any() or (y1 == ny).any())


def _erode_xy(free: np.ndarray) -> np.ndarray:
    """Free space eroded _ERODE_CELLS times by the x-y plane cross, the
    border counting as free."""
    for _ in range(_ERODE_CELLS):
        p = np.pad(free, ((0, 0), (1, 1), (1, 1)), constant_values=True)
        free = free & p[:, :-2, 1:-1] & p[:, 2:, 1:-1] & p[:, 1:-1, :-2] & p[:, 1:-1, 2:]
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
    steps = (np.bincount(lo[keep] * ny + row, minlength=(nx + 1) * ny)
             - np.bincount(hi[keep] * ny + row, minlength=(nx + 1) * ny))
    return np.cumsum(steps.reshape(nx + 1, ny)[:nx], axis=0) > 0


def caging_test(obj: ObjectSpec, left: SurfaceProfile, right: SurfaceProfile,
                separation: float, *, cell: float = 0.5,
                angle_cell_deg: float = 5.0) -> bool:
    """Rasterized configuration-space check that the object cannot escape.

    For each rotation slice (one for a rotation-symmetric object such as a
    disk) the obstacle is the finger bodies at the given separation dilated
    by the rotated object footprint, a Minkowski sum (Lozano-Pérez, IEEE
    T-C 1983) computed exactly on the grid from the x-runs of both
    rasterized shapes.  The object is caged iff the free region connected to
    the rest pose never reaches the border of the workspace box; the region
    is a flood fill over the graph of free y-runs.  An escape that vanishes
    once free space is eroded by two cells in x-y runs through a gap at most
    two cells wide, so the verdict may depend on the grid: that raises
    CagingResolutionWarning.  The erosion keeps the cells the rest pose
    reaches within its depth, so a contact at rest is not taken for such a
    gap.  A wide escape within the rest-angle slice alone, a subset of the
    full search, decides the test before the other slices are built.
    """
    poly_left = _finger_polygon(left, -separation / 2.0, -1, _BODY_DEPTH)
    poly_right = _finger_polygon(right, separation / 2.0, +1, _BODY_DEPTH)
    fingers = np.vstack([poly_left, poly_right])
    base = object_polygon(obj)
    reach = float(np.max(np.hypot(base[:, 0], base[:, 1])))
    xs, ys = (np.arange(c.min() - reach - 3 * cell,
                        c.max() + reach + 3 * cell + cell, cell) for c in fingers.T)
    seed = (0, int(np.argmin(np.abs(xs))), int(np.argmin(np.abs(ys))))

    finger_runs = np.vstack([_polygon_runs(poly_left, xs, ys),
                             _polygon_runs(poly_right, xs, ys)])
    m = int(math.ceil(reach / cell)) + 1
    local = np.arange(-m, m + 1) * cell
    n_angles = (1 if obj.rotation_symmetric
                else max(int(round(360.0 / angle_cell_deg)), 1))
    free3 = np.zeros((n_angles, len(xs), len(ys)), dtype=bool)
    for ia in range(n_angles):
        a = math.radians(ia * angle_cell_deg)
        rot = np.array([[math.cos(a), -math.sin(a)],
                        [math.sin(a), math.cos(a)]])
        footprint = _polygon_runs(base @ rot.T, local, local)
        free3[ia] = ~_cspace_obstacle(finger_runs, footprint, m, free3.shape[1:])
        if ia == 0 and _escapes_from(_erode_xy_from(free3[:1], seed), seed):
            return False

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
    if stroke is not None and obj.closing_extent > stroke:
        raise ValueError(
            f"object extent {obj.closing_extent:g} mm exceeds the stroke "
            f"{stroke:g} mm")
    left = surface_profile(pair[0], face_width)
    right = surface_profile(pair[1], face_width)
    empty = ContactSet(contacts=(), rotation_free=obj.rotation_symmetric)

    deformable = left.deformable or right.deformable
    if deformable and obj.closing_extent < thin_threshold:
        return GraspResult(
            outcome=GraspOutcome.FAIL, contacts=empty, separation=math.nan,
            reason="object is thinner than the deformable-surface limit; the "
                   "face deforms around it and the object slips")

    separation, touched = closure_separation(obj, left, right)
    contacts = compute_contacts(obj, left, right, gap=separation)

    concave_involved = any(s.kind is SurfaceKind.CONCAVE for s in pair)
    if isinstance(obj.shape, ThinPlate) and concave_involved:
        return GraspResult(
            outcome=GraspOutcome.CAGING, contacts=contacts,
            separation=separation, posture_uncertain=True,
            reason="thin plate at a pocket rim: it may end up pinched at the "
                   "tip or tilted, so the final posture is uncertain")

    if touched and len(contacts) > 0:
        if form_closure_test(contacts):
            return GraspResult(GraspOutcome.FORM_CLOSURE, contacts, separation)
        if mu > 0 and force_closure_test(contacts, mu):
            return GraspResult(GraspOutcome.FORCE_CLOSURE, contacts, separation)

    if caging_test(obj, left, right, separation):
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
