"""Independent oracles used to cross-check the library's answers.

Everything here deliberately avoids the code paths under test: peaks come
from plain dense sweeps, positive span from an LP plus randomized
certificates, hull interiors from Qhull and from a facet enumeration in
`fractions.Fraction`, caging escapes from
`scipy.ndimage` labelling and erosion, configuration-space obstacles from an
FFT convolution, the caging kernel cell for cell from its earlier numpy
form (`reference_*`), cycle periods from literal sequence enumeration,
simulator traces from the public one-increment `step`, simulator run
lengths from a vectorized scan of every plain-step condition, and contact
searches from a dense lateral grid, and contact de-duplication from
rounding every contact.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import ndimage
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from multigrip.control import Direction, PositionMove
from multigrip.grasp import _CONTACT_TOL, _MERGE_RADIUS, ContactSet
from multigrip.mechanics import MagnetDetent, detent_torque
from multigrip.objects import ObjectSpec
from multigrip.sim import (_EPS_LANDING, _EPS_TRAVEL, EVENT_DETENT_REENGAGE,
                           GripperState, Phase, Scenario, ScenarioError,
                           SimError, SimEvent, SimTrace, TraceRow, _motion,
                           initial_state, step)


def sweep_peak(magnet: MagnetDetent, hi_deg: float = 60.0,
               step_deg: float = 0.001) -> tuple[float, float]:
    """Brute-force argmax of the detent torque on a fixed fine grid (degrees)."""
    best_angle = 0.0
    best_torque = -math.inf
    n = int(round(hi_deg / step_deg))
    for i in range(1, n + 1):
        a = math.radians(i * step_deg)
        t = detent_torque(a, magnet)
        if t > best_torque:
            best_angle, best_torque = a, t
    return best_angle, best_torque


def pair_sequence_period(n_a: int, n_b: int, limit: int = 1000) -> int:
    """Period of i -> (i mod n_b, i mod n_a) by literal enumeration."""
    first = (0, 0)
    for period in range(1, limit + 1):
        if (period % n_b, period % n_a) == first:
            return period
    raise AssertionError("no period found")


def oracle_wrenches(cset: ContactSet, mu: float) -> np.ndarray:
    """Build the contact wrench set from scratch (no shared helpers).

    Frictionless contacts contribute their normal; frictional ones the two
    cone edges.  Rotationally symmetric objects are tested in the 2D force
    space because spinning about the origin changes nothing.
    """
    rows = []
    for c in cset.contacts:
        nx, ny = c.normal
        px, py = c.point
        if mu == 0.0:
            dirs = [(nx, ny)]
        else:
            phi = math.atan(mu)
            cp, sp = math.cos(phi), math.sin(phi)
            dirs = [(nx * cp - ny * sp, nx * sp + ny * cp),
                    (nx * cp + ny * sp, -nx * sp + ny * cp)]
        for dx, dy in dirs:
            if cset.rotation_free and mu == 0.0:
                rows.append((dx, dy))
            else:
                rows.append((dx, dy, px * dy - py * dx))
    if cset.rotation_free and mu == 0.0:
        return np.array(rows).reshape(-1, 2)
    return np.array(rows).reshape(-1, 3)


def rounding_dedupe(cset: ContactSet) -> tuple[list, int]:
    """The contacts less those whose point and normal, each rounded to 1e-9,
    repeat an earlier one's, and how many collapsed: every contact rounded."""
    seen = {}
    for c in cset.contacts:
        seen.setdefault(tuple(round(v, 9) for v in (*c.point, *c.normal)), c)
    return list(seen.values()), len(cset.contacts) - len(seen)


def hull_origin_inside(points: np.ndarray, margin: float) -> bool:
    """Is the origin at least `margin` inside the points' Qhull convex hull?

    A set Qhull rejects (too few points, or spanning less than full
    dimension) has no interior.
    """
    points = np.asarray(points, dtype=float)
    if len(points) < points.shape[1] + 1:
        return False
    try:
        hull = ConvexHull(points)
    except QhullError:
        return False
    return bool(np.all(hull.equations[:, -1] <= -margin))


def hull_origin_inside_exact(points, margin: float) -> bool:
    """Is the origin at least `margin` inside the convex hull of 2-D or 3-D points?

    Rational facet enumeration, with no scaling and no float arithmetic:
    each plane through dim of the points (a 2-D line taken as the plane
    through it along +z) with a nonzero normal and no points on both sides
    supports the hull.  All points on one such plane leave no interior, and
    none at all means less than full dimension.  Otherwise the origin must
    lie on the points' side of every supporting plane, at least `margin`
    from it.
    """
    if not points or len(points) < len(points[0]) + 1:
        return False
    if not all(math.isfinite(v) for p in points for v in p):
        return False
    pts = [[Fraction(v) for v in p] + [Fraction(0)] * (3 - len(p)) for p in points]
    planes = (combinations(pts, 3) if len(points[0]) == 3 else
              ((p, q, [p[0], p[1], Fraction(1)]) for p, q in combinations(pts, 2)))
    margin, supported = Fraction(margin), False
    for a, b, c in planes:
        u, v = [b[i] - a[i] for i in range(3)], [c[i] - a[i] for i in range(3)]
        n = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        if not any(n):
            continue
        heights = [sum((p[i] - a[i]) * n[i] for i in range(3)) for p in pts]
        if max(heights) > 0 > min(heights):
            continue
        if max(heights) == 0 == min(heights):
            return False
        # the origin's signed height over the plane, positive on the points' side
        origin = -sum(a[i] * n[i] for i in range(3)) * (1 if max(heights) > 0 else -1)
        if origin < 0 or origin * origin < margin * margin * sum(x * x for x in n):
            return False
        supported = True
    return supported


def oracle_positive_span(vectors: np.ndarray, n_random: int = 50,
                         seed: int = 0) -> bool:
    """Do the vectors positively span their whole space?

    Checks rank, then LP feasibility of a strictly positive combination
    summing to zero, then confirms a sample of random unit targets is
    reachable with nonnegative combinations.
    """
    vectors = np.asarray(vectors, dtype=float)
    if len(vectors) == 0:
        return False
    dim = vectors.shape[1]
    if np.linalg.matrix_rank(vectors, tol=1e-9) < dim:
        return False
    res = linprog(c=np.zeros(len(vectors)), A_eq=vectors.T,
                  b_eq=np.zeros(dim), bounds=(1.0, None), method="highs")
    if not res.success:
        return False
    rng = random.Random(seed)
    for _ in range(n_random):
        t = np.array([rng.gauss(0, 1) for _ in range(dim)])
        norm = np.linalg.norm(t)
        if norm < 1e-12:
            continue
        t /= norm
        res = linprog(c=np.zeros(len(vectors)), A_eq=vectors.T, b_eq=t,
                      bounds=(0.0, None), method="highs")
        if not res.success:
            return False
    return True


# The simulator's landing and travel tolerance (rad and mm).
_SIM_EPS = 1e-9


def _command_done(state, cmd, reengaged: bool) -> bool:
    if isinstance(cmd, PositionMove):
        return abs(state.theta_m - cmd.target_angle) <= _SIM_EPS
    if cmd.direction is Direction.CLOSE:
        return (state.phase is Phase.GRASPING
                and state.tau_m >= cmd.target_torque - _SIM_EPS)
    return reengaged or (state.phase is not Phase.ROTATING
                         and state.tau_m >= cmd.target_torque - _SIM_EPS)


def replay_by_steps(scenario: Scenario) -> SimTrace:
    """Replay a scenario through the public `step`, one increment per call.

    The reference for `run_scenario`: each command runs until complete, one
    row per step, and a failing step or a step past `max_steps` raises
    ScenarioError with the same step and command indices.
    """
    radius = scenario.gears.input_sprocket_radius

    def row(n, s):
        f_g = s.tau_m / radius if s.phase is Phase.GRASPING else 0.0
        return TraceRow(n, s.theta_m, s.tau_m, s.d_f_3s, s.d_f_4s,
                        s.theta_fb_3s, s.theta_fb_4s, f_g, s.phase)

    state = initial_state(scenario)
    rows, events, n = [row(0, state)], [], 0
    for ci, cmd in enumerate(scenario.commands):
        reengaged = False
        while not _command_done(state, cmd, reengaged):
            try:
                state, raised = step(state, cmd, scenario)
            except SimError as exc:
                raise ScenarioError(n + 1, ci, exc) from exc
            n += 1
            if n > scenario.max_steps:
                raise ScenarioError(n, ci, SimError("max step count exceeded"))
            rows.append(row(n, state))
            for kind, detail in raised:
                events.append(SimEvent(n, kind, detail))
                reengaged = reengaged or kind == EVENT_DETENT_REENGAGE
    return SimTrace(rows=tuple(rows), events=tuple(events), final_state=state)


def plain_run_scan(state: GripperState, cmd, scenario: Scenario,
                   n: int) -> tuple[int, int]:
    """Check every plain-step condition on n pre-step states at once.

    The states are numpy running sums of the increments from `state`.
    Returns how many leading states pass every condition, and the index of
    the first state whose 3S switch count differs from the first one's (n
    when none does).  Translations keep the switch count.
    """
    kin = scenario._kin
    d_inc, r = kin.d_inc, kin.radius
    kind, _ = _motion(state, cmd, scenario)
    sign = -1.0 if kind == "close" else 1.0

    def ramp(start, inc):
        col = np.full(n + 1, inc)
        col[0] = start
        return np.add.accumulate(col)

    theta = ramp(state.theta_m, sign * d_inc)
    pre = theta[:-1]
    ok = np.ones(n, dtype=bool)
    k = np.zeros(n)
    if isinstance(cmd, PositionMove):
        # full increment left in the move, and the move not yet complete
        ok &= sign * (cmd.target_angle - pre) >= d_inc
        ok &= np.abs(pre - cmd.target_angle) > _EPS_LANDING
    if kind == "rotate":
        fb3 = ramp(state.theta_fb_3s, kin.ratio_3s * d_inc)
        fb4 = ramp(state.theta_fb_4s, kin.ratio_4s * d_inc)
        k = np.floor(fb3[:-1] / kin.pitch_3s + 1e-9)
        fb_bind = fb3[:-1] if kin.bind_3s else fb4[:-1]
        offset = np.maximum(fb_bind - k * kin.pitch_bind, 0.0) / kin.ratio_bind
        ok &= d_inc < (kin.interval - offset) - _EPS_LANDING
    else:
        d = ramp(state.d_f_3s, -sign * (r * d_inc))  # closing adds travel
        d_pre = d[:-1]
        contact = scenario.object_contact
        if kind == "open":
            ok &= d_pre > _EPS_TRAVEL
            ok &= d_inc < d_pre / r - _EPS_LANDING
        else:
            if contact is not None:
                if not isinstance(cmd, PositionMove):
                    ok &= d_pre < contact - _EPS_TRAVEL
                ok &= d_inc < (contact - d_pre) / r - _EPS_LANDING
            ok &= d[1:] <= scenario.stroke_limit + _EPS_TRAVEL
    bad = np.flatnonzero(~ok)
    switched = np.flatnonzero(k != k[0])
    return (int(bad[0]) if bad.size else n,
            int(switched[0]) if switched.size else n)


# Exact planar containment, distance and overlap tests; the caging grid is
# checked against them.


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Crossing-number containment test, vectorized over points."""
    points = np.asarray(points, dtype=float)
    a = np.asarray(polygon, dtype=float)
    b = np.roll(a, -1, axis=0)
    x = points[:, 0][:, None]
    y = points[:, 1][:, None]
    ya, yb = a[:, 1][None, :], b[:, 1][None, :]
    xa, xb = a[:, 0][None, :], b[:, 0][None, :]
    straddles = (ya <= y) != (yb <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = xa + (y - ya) * (xb - xa) / (yb - ya)
    crossings = np.sum(straddles & (x < x_cross), axis=1)
    return crossings % 2 == 1


def point_segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray,
                            block: int = 256) -> np.ndarray:
    """Distance from each point to the nearest of the segments (a[i], b[i]).

    points: (N, 2); a, b: (M, 2).  Returns (N,) minimum distances.  Points
    go in blocks so that the (block, M) temporaries stay small.
    """
    points = np.asarray(points, dtype=float)
    ax, ay = a[:, 0], a[:, 1]
    dx, dy = b[:, 0] - ax, b[:, 1] - ay
    length_sq = dx * dx + dy * dy
    length_sq = np.where(length_sq == 0.0, 1.0, length_sq)
    out = np.empty(len(points))
    for start in range(0, len(points), block):
        px = points[start:start + block, 0, None]
        py = points[start:start + block, 1, None]
        t = ((px - ax) * dx + (py - ay) * dy) / length_sq
        t = np.clip(t, 0.0, 1.0)
        ex = px - (ax + t * dx)
        ey = py - (ay + t * dy)
        out[start:start + block] = np.sqrt(ex * ex + ey * ey).min(axis=1)
    return out


def _polygon_edges(polygon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    polygon = np.asarray(polygon, dtype=float)
    return polygon, np.roll(polygon, -1, axis=0)


def points_to_polygon_distance(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Distance from each point to the polygon boundary."""
    a, b = _polygon_edges(polygon)
    return point_segment_distances(points, a, b)


def _orient(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))


def segments_intersect(a1: np.ndarray, a2: np.ndarray,
                       b1: np.ndarray, b2: np.ndarray) -> bool:
    """True if any segment (a1[i], a2[i]) crosses any segment (b1[j], b2[j])."""
    a1 = a1[:, None, :]
    a2 = a2[:, None, :]
    b1 = b1[None, :, :]
    b2 = b2[None, :, :]
    d1 = _orient(a1, a2, b1)
    d2 = _orient(a1, a2, b2)
    d3 = _orient(b1, b2, a1)
    d4 = _orient(b1, b2, a2)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    return bool(np.any(proper))


def polygons_intersect(poly_a: np.ndarray, poly_b: np.ndarray) -> bool:
    """Overlap test: edge crossings or full containment either way."""
    a1, a2 = _polygon_edges(poly_a)
    b1, b2 = _polygon_edges(poly_b)
    if segments_intersect(a1, a2, b1, b2):
        return True
    if points_in_polygon(poly_a[:1], poly_b)[0]:
        return True
    if points_in_polygon(poly_b[:1], poly_a)[0]:
        return True
    return False


def seed_region_by_label(free: np.ndarray, seed: tuple[int, ...]) -> np.ndarray:
    """The free region connected to the seed, as a mask of free's shape.

    6-connected `ndimage.label` of the free cells (the seed forced free),
    then a merge of the components that touch across the rotation seam
    (axis 0 wraps around when it has more than one slice)."""
    allowed = free.copy()
    allowed[seed] = True
    labels, n_labels = ndimage.label(
        allowed, structure=ndimage.generate_binary_structure(3, 1))
    reached = np.zeros(n_labels + 1, dtype=bool)  # label 0 (blocked) stays out
    reached[labels[seed]] = True
    if allowed.shape[0] > 1:
        # follow components that touch across the rotation seam
        both = (labels[0] > 0) & (labels[-1] > 0)
        top, bottom = labels[0][both], labels[-1][both]
        while (new := reached[top] != reached[bottom]).any():
            reached[top[new]] = reached[bottom[new]] = True
    return reached[labels]


def window_region_by_label(free: np.ndarray, seed: tuple[int, ...],
                           depth: int) -> np.ndarray:
    """The seed's 4-connected component of free (the seed forced free) in
    its rotation slice and the x-y window `depth` cells around it, clipped
    at the grid border, as a mask of free's shape."""
    a, x, y = seed
    window = (a, slice(max(x - depth, 0), x + depth + 1),
              slice(max(y - depth, 0), y + depth + 1))
    allowed = free[window].copy()
    local = (x - window[1].start, y - window[2].start)
    allowed[local] = True
    labels, _ = ndimage.label(allowed, structure=ndimage.generate_binary_structure(2, 1))
    region = np.zeros_like(free)
    region[window] = labels == labels[local]
    return region


def escapes_by_label(free: np.ndarray, seed: tuple[int, ...]) -> bool:
    """Does the free region connected to the seed touch the x-y border?"""
    region = seed_region_by_label(free, seed)
    return bool(region[:, 0, :].any() or region[:, -1, :].any()
                or region[:, :, 0].any() or region[:, :, -1].any())


def erode_xy(free: np.ndarray) -> np.ndarray:
    """Two erosions by the x-y plane cross; cells past the border count as free."""
    plane = ndimage.generate_binary_structure(2, 1)[None]
    return ndimage.binary_erosion(free, structure=plane, iterations=2,
                                  border_value=1)


def runs_to_mask(runs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Paint runs (j, i0, i1), one at a time, into an (nx, ny) mask."""
    mask = np.zeros(shape, dtype=bool)
    for j, i0, i1 in runs:
        mask[i0:i1, j] = True
    return mask


def pack_bits(mask: np.ndarray) -> int:
    """An (nx, ny) boolean grid as the caging kernel's bit mask: cell (x, y)
    is bit (x + 1) * (ny + 2) + 1 + y, with zero guard bits around the grid."""
    nx, ny = mask.shape
    padded = np.zeros((nx + 2, ny + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    return int.from_bytes(np.packbits(padded.ravel(), bitorder="little").tobytes(), "little")


def unpack_bits(bits: int, shape: tuple[int, int]) -> np.ndarray:
    """The (nx, ny) boolean grid of a bit mask; any bit outside it is an error."""
    nx, ny = shape
    size = (nx + 2) * (ny + 2)
    assert 0 <= bits < 1 << size, "bits past the last guard column"
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    padded = np.unpackbits(raw, bitorder="little")[:size].reshape(nx + 2, ny + 2).astype(bool)
    inside = np.zeros_like(padded)
    inside[1:-1, 1:-1] = True
    assert not (padded & ~inside).any(), "a guard bit is set"
    return padded[1:-1, 1:-1]


# The caging kernel as it was in numpy, kept as the cell-for-cell reference
# of the bit-mask kernel: rasterization, obstacle dilation and erosion.

def reference_polygon_runs(polygon: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Cells (xs[i], ys[j]) whose centres lie inside the polygon, as rows
    (j, i0, i1) with i0 <= i < i1, none empty; per edge, one range of rows by
    binary search, crossings paired along each row."""
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


def reference_cspace_obstacle(fingers: np.ndarray, footprint: np.ndarray, centre: int,
                              shape: tuple[int, int]) -> np.ndarray:
    """The finger runs dilated by the footprint runs on the (nx, ny) grid:
    each pair of runs paints one x-interval, as +1/-1 steps summed along x."""
    nx, ny = shape
    j, a0, a1 = np.asarray(fingers).reshape(-1, 3).T[:, :, None]
    v, u0, u1 = np.asarray(footprint).reshape(-1, 3).T[:, None, :]
    row = j - (v - centre)
    lo = np.maximum(a0 - (u1 - centre) + 1, 0)
    hi = np.minimum(a1 - (u0 - centre), nx)
    keep = (row >= 0) & (row < ny) & (lo < hi)
    row = row[keep]
    steps = np.bincount(lo[keep] * ny + row, minlength=(nx + 1) * ny)
    steps -= np.bincount(hi[keep] * ny + row, minlength=(nx + 1) * ny)
    return np.cumsum(steps.reshape(nx + 1, ny)[:nx], axis=0, dtype=np.int32) > 0


def reference_erode_xy(free: np.ndarray, depth: int) -> np.ndarray:
    """Free space eroded depth times by the x-y plane cross, by in-place
    shifts; a border cell has no neighbour to clear it."""
    for _ in range(depth):
        eroded = free.copy()
        eroded[:, 1:] &= free[:, :-1]
        eroded[:, :-1] &= free[:, 1:]
        eroded[:, :, 1:] &= free[:, :, :-1]
        eroded[:, :, :-1] &= free[:, :, 1:]
        free = eroded
    return free


@lru_cache(maxsize=None)
def _fft_shape(shape: tuple[int, ...], kernel_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per axis, the least 2·3·5-smooth (fast) FFT length m with
    m >= s + q - 1 - c, c = (q - 1) // 2: the terms of the circular
    convolution that wrap around land below c, outside the mode="same"
    crop [c, c + s)."""
    k = range(max(shape + kernel_shape).bit_length() + 2)
    smooth = sorted(2**a * 3**b * 5**c for a in k for b in k for c in k)
    return tuple(next(m for m in smooth if m >= s + q - 1 - (q - 1) // 2)
                 for s, q in zip(shape, kernel_shape))


def _blocked_by_convolution(finger_spectrum: np.ndarray, shape: tuple[int, int],
                            footprint: np.ndarray) -> np.ndarray:
    """Configuration-space obstacle: fingers dilated by the reflected footprint.

    `finger_spectrum` is the rfft2 of the finger mask (of the given shape)
    at `_fft_shape(shape, footprint.shape)`.  The overlap counts are cropped
    to fftconvolve's mode="same" window; being whole numbers, round-off
    cannot move one across the 0.5 threshold."""
    fft_shape = _fft_shape(shape, footprint.shape)
    kernel = np.fft.rfft2(footprint[::-1, ::-1], fft_shape)
    overlap = np.fft.irfft2(finger_spectrum * kernel, fft_shape)
    i, j = ((k - 1) // 2 for k in footprint.shape)
    return overlap[i:i + shape[0], j:j + shape[1]] > 0.5


def cspace_obstacle_by_fft(finger_mask: np.ndarray, footprint: np.ndarray) -> np.ndarray:
    """The finger mask dilated by the footprint mask, whose centre cell is
    the object's reference point, as an FFT convolution."""
    spectrum = np.fft.rfft2(finger_mask, _fft_shape(finger_mask.shape, footprint.shape))
    return _blocked_by_convolution(spectrum, finger_mask.shape, footprint)


# ---------------------------------------------------------------------------
# Contact search on a dense lateral grid, the library's search before its
# three-candidate closed form.  The flanks' feature positions were all y = 0,
# which the grid always holds, so they are not listed.  Each curve is
# evaluated from its arc parameters by the oracle's own array expression,
# not by `Arc.x_of`.

GRID = 4001   # lateral samples per contact search


def arc_xs(arc, ys: np.ndarray) -> np.ndarray:
    """x of the line or circular arc (x0, sign, r) at each lateral position."""
    return arc.x0 + arc.sign * np.sqrt(np.maximum(arc.r * arc.r - np.square(ys), 0.0))


def grid_candidate_ys(flank, profile) -> np.ndarray | None:
    lo = max(-flank.half, -profile.width / 2.0)
    hi = min(flank.half, profile.width / 2.0)
    if hi <= lo:
        return None
    ys = [np.linspace(lo, hi, GRID)]
    extras = [*flank.corners,
              -flank.half, flank.half,
              -profile.width / 2.0, profile.width / 2.0, 0.0]
    extras = [y for y in extras if lo <= y <= hi]
    if extras:
        ys.append(np.array(extras))
    return np.unique(np.concatenate(ys))


def grid_lateral_search(spec: ObjectSpec, profile,
                        side: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The finger reference at first contact, the grid, and its clearances."""
    flank = spec.flanks[side > 0]
    ys = grid_candidate_ys(flank, profile)
    c = arc_xs(flank, ys) + side * arc_xs(profile.arc, ys)
    return (float(c.min()) if side < 0 else float(c.max())), ys, c


def grid_cluster_contacts(ys: np.ndarray, residual: np.ndarray) -> list[float]:
    """Pick representative contact positions from near-zero residuals.

    Contiguous runs wider than the merge radius are extended contacts and
    contribute their two endpoints; narrow runs collapse to their best
    point.
    """
    mask = residual <= _CONTACT_TOL
    if not mask.any():
        return []
    ys_hit = ys[mask]
    res_hit = residual[mask]
    gaps = np.diff(ys_hit)
    typical = max(np.median(np.diff(ys)) if len(ys) > 1 else _MERGE_RADIUS, 1e-9)
    breaks = np.nonzero(gaps > max(3.0 * typical, 1e-6))[0]
    runs = np.split(np.arange(len(ys_hit)), breaks + 1)
    points: list[float] = []
    for run in runs:
        span = ys_hit[run[-1]] - ys_hit[run[0]]
        if span <= _MERGE_RADIUS:
            best = run[np.argmin(res_hit[run])]
            points.append(float(ys_hit[best]))
        else:
            points.extend([float(ys_hit[run[0]]), float(ys_hit[run[-1]])])
    return points


def grid_contact_ys(spec: ObjectSpec, profile, side: int,
                    x_ref: float | None) -> list[float]:
    """Lateral positions of one finger's contacts, at its first contact
    when x_ref is None."""
    ref, ys, c = grid_lateral_search(spec, profile, side)
    if x_ref is None:
        x_ref = ref
    return grid_cluster_contacts(ys, (c - x_ref) if side < 0 else (x_ref - c))


def grid_finger_separation(left, right) -> float:
    """Separation at which two finger faces touch each other."""
    half = min(left.width, right.width) / 2.0
    ys = np.linspace(-half, half, GRID)
    return float((arc_xs(left.arc, ys) + arc_xs(right.arc, ys)).max())
