"""Rotated-rectangle geometry: polygons, exact IoU, a raster oracle, NMS.

:func:`iou_pairs` is the one exact IoU route: a batched kernel that clips
arrays of (subject, clipper) polygon pairs (Sutherland-Hodgman) and
measures each intersection with the shoelace formula, in coordinates
local to the pair. :func:`rotated_nms`, :func:`iou_matrix` (which AP
matching and scene placement use) and the one-pair :func:`rotated_iou`
run on it; they first drop pairs whose circumscribed circles do not
overlap, whose IoU is exactly 0. NMS, which needs only whether an IoU
exceeds its threshold, also drops the pairs whose exact IoU bound
m / (A + B - m) does not, where m is the least of the two polygons'
areas and their bounding boxes' overlap. Those polygon areas are the
stacked polygons' shoelace areas, which the kernel measures, not w * h:
far from the origin the rounded polygon of a small box can be larger
than w * h (see :func:`_may_exceed`). NMS runs in waves: the first
NMS_BLOCK boxes that no kept box suppresses are resolved against each
other, and their survivors then filter every later box in one kernel
call, so a wave that clears many boxes still costs two calls.

The kernel is checked against a scalar clip in the tests and against the
independent raster oracle, which rates a pair by the share of a
uniform grid's points that lie in both boxes. It counts those points row
by row: along a grid row a box's points form one run of columns, whose
ends a binary search finds with the arithmetic of :func:`points_in_box`.
Its counts are those of testing every grid point, in O(grid) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# largest |cx|, |cy|, w or h a box may have: the clipping and shoelace
# arithmetic squares coordinates, which overflows not far above 1e150
MAX_BOX_COORD = 1e100


@dataclass(frozen=True)
class OrientedBox:
    """Rotated rectangle (cx, cy, w, h, theta) with class id and score.

    Construction canonicalizes: theta is wrapped into [0, 2*pi) and the
    (w, h, theta) <-> (h, w, theta + pi/2) ambiguity is resolved by
    preferring w >= h. Both raw forms describe the same polygon.
    """

    cx: float
    cy: float
    w: float
    h: float
    theta: float
    class_id: int = 0
    score: float = 1.0

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "theta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"box {name} must be finite, got {value}")
            if name != "theta" and abs(value) > MAX_BOX_COORD:
                raise ValueError(
                    f"box {name} must be at most {MAX_BOX_COORD:g} in magnitude, "
                    f"got {value}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extents must be positive: w={self.w}, h={self.h}")
        w, h, theta = self.w, self.h, self.theta
        if w < h:
            w, h = h, w
            theta += 0.5 * math.pi
        theta %= TWO_PI
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "h", float(h))
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "cx", float(self.cx))
        object.__setattr__(self, "cy", float(self.cy))


def box_polygons(boxes: list[OrientedBox]) -> np.ndarray:
    """Four CCW vertices of each box, shape (N, 4, 2); a box's row does not
    depend on the other boxes in the list."""
    p = np.array([(b.cx, b.cy, 0.5 * b.w, 0.5 * b.h, math.cos(b.theta),
                   math.sin(b.theta)) for b in boxes]).reshape(len(boxes), 6)
    local = np.empty((len(boxes), 4, 2))
    local[..., 0] = p[:, 2:3] * np.array([-1.0, 1.0, 1.0, -1.0])
    local[..., 1] = p[:, 3:4] * np.array([-1.0, -1.0, 1.0, 1.0])
    rot_t = np.empty((len(boxes), 2, 2))  # transposed rotation by theta
    rot_t[:, 0, 0], rot_t[:, 0, 1] = p[:, 4], p[:, 5]
    rot_t[:, 1, 0], rot_t[:, 1, 1] = -p[:, 5], p[:, 4]
    return local @ rot_t + p[:, np.newaxis, :2]


def _box_frame(px, py, b: OrientedBox):
    """Coordinates (u, v) of the points (px, py) along the box's w and h
    axes, from its center."""
    c, s = math.cos(b.theta), math.sin(b.theta)
    dx, dy = px - b.cx, py - b.cy
    return c * dx + s * dy, -s * dx + c * dy


def points_in_box(px: np.ndarray, py: np.ndarray, b: OrientedBox) -> np.ndarray:
    """Which points (px, py) lie in the box, edges included."""
    u, v = _box_frame(px, py, b)
    return (np.abs(u) <= 0.5 * b.w) & (np.abs(v) <= 0.5 * b.h)


def _row_spans(xs: np.ndarray, ys: np.ndarray, b: OrientedBox):
    """Per row y of the grid xs x ys (xs non-decreasing), the columns
    [start, stop) whose points :func:`points_in_box` counts as inside.

    Along a row, dy is fixed and dx = x - cx rises with the column. Every
    IEEE operation is monotone in each argument, so u = c*dx + s*dy rises
    (c >= 0) or falls (c < 0) with the column, and v = -s*dx + c*dy rises
    (s <= 0) or falls (s > 0). As abs and negation are exact,
    points_in_box's test is the conjunction of u <= w/2, -u <= w/2,
    v <= h/2 and -v <= h/2, and each of the four holds on a prefix or on
    a suffix of the row. A binary search per row and test finds where it
    flips, evaluating _box_frame at single columns.
    """
    n = len(xs)
    hw, hh = 0.5 * b.w, 0.5 * b.h
    c, s = math.cos(b.theta), math.sin(b.theta)
    sign = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    half = np.array([[hw], [hw], [hh], [hh]])
    prefix = np.array([[c >= 0.0], [c < 0.0], [s <= 0.0], [s > 0.0]])
    # first[k, r]: how many leading columns of row r pass test k (a prefix
    # test) or fail it (a suffix test), found one bit at a time.
    first = np.zeros((4, len(ys)), dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        probe = first + (step - 1)
        u, v = _box_frame(xs[np.minimum(probe, n - 1)], ys, b)
        holds = sign * np.concatenate((u[:2], v[2:])) <= half
        first += step * ((holds == prefix) & (probe < n))
        step >>= 1
    return (np.where(prefix, 0, first).max(axis=0),
            np.where(prefix, first, n).min(axis=0))


def _raster_counts(a: OrientedBox, b: OrientedBox, grid: int):
    """Grid points in a, in b and in both, over a grid x grid lattice
    spanning both boxes' corners."""
    corners = box_polygons([a, b]).reshape(8, 2)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    xs = np.linspace(lo[0], hi[0], grid)
    ys = np.linspace(lo[1], hi[1], grid)
    start_a, stop_a = _row_spans(xs, ys, a)
    start_b, stop_b = _row_spans(xs, ys, b)
    both = np.minimum(stop_a, stop_b) - np.maximum(start_a, start_b)
    return (int(np.maximum(stop_a - start_a, 0).sum()),
            int(np.maximum(stop_b - start_b, 0).sum()),
            int(np.maximum(both, 0).sum()))


def raster_iou_oracle(a: OrientedBox, b: OrientedBox, grid: int = 1024) -> float:
    """Brute-force IoU over a uniform grid covering both boxes' extent: the
    share of the grid points in either box that lie in both.

    The points are counted per grid row, not tested one by one. Along a
    row, each coordinate points_in_box compares is monotone in the column,
    because every IEEE operation is monotone in each argument; so a box
    covers one run of columns, and a binary search with points_in_box's
    own arithmetic finds its ends (see :func:`_row_spans`). The counts are
    therefore exactly those of testing every grid point, and the memory
    is O(grid) instead of O(grid**2).
    """
    if grid < 256:
        raise ValueError("grid must be at least 256")
    in_a, in_b, inter = _raster_counts(a, b, grid)
    union = in_a + in_b - inter
    if union == 0:
        return 0.0
    return inter / union


# -- batched IoU kernel -------------------------------------------------------
# Design after the CPU ``box_iou_rotated`` kernels of detectron2 and mmcv
# (https://github.com/facebookresearch/detectron2,
# https://github.com/open-mmlab/mmcv): fixed-width vertex slots with a
# per-pair vertex count instead of per-pair Python lists.

IOU_CHUNK = 1024  # pairs per kernel pass; bounds the temporaries' memory
NMS_BLOCK = 64  # score-ordered candidates resolved per NMS wave


def _ring(counts: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per polygon row: which slots hold vertices, and each slot's next
    vertex slot (the last vertex wraps to slot 0)."""
    slot = np.arange(width)
    return (slot < counts[:, np.newaxis],
            np.where(slot + 1 < counts[:, np.newaxis], slot + 1, 0))


def _clip_pairs(subject: np.ndarray, clipper: np.ndarray):
    """Sutherland-Hodgman clip of each subject (P, 4, 2) by its clipper.

    Returns (vertices, counts): slot j of row p is a vertex while
    j < counts[p]. Each clipper edge keeps the part of the subject on its
    left, points on the edge included, so touching boxes give zero-area
    intersections instead of degenerate geometry. One half-plane adds at
    most one vertex to a convex polygon, so rows stay within 8 slots; the
    width follows the largest count all the same, since rounding can
    cross a near-collinear edge more than twice.
    """
    verts = subject
    counts = np.full(len(subject), subject.shape[1])
    rows = np.arange(len(subject))[:, np.newaxis]
    for i in range(clipper.shape[1]):
        a = clipper[:, i]
        b = clipper[:, (i + 1) % clipper.shape[1]]
        ex = (b[:, 0] - a[:, 0])[:, np.newaxis]
        ey = (b[:, 1] - a[:, 1])[:, np.newaxis]
        valid, nxt = _ring(counts, verts.shape[1])
        dp = (ex * (verts[..., 1] - a[:, 1:2])
              - ey * (verts[..., 0] - a[:, 0:1]))
        dq = dp[rows, nxt]
        p_in = dp >= 0.0
        emit_p = valid & p_in
        cross = valid & (p_in != (dq >= 0.0))
        # dp and dq straddle zero where cross holds, so dp - dq != 0 there
        t = dp / np.where(cross, dp - dq, 1.0)
        hit = verts + t[..., np.newaxis] * (verts[rows, nxt] - verts)
        emitted = emit_p.astype(np.intp) + cross
        counts = emitted.sum(axis=1)
        pos = np.cumsum(emitted, axis=1) - emitted
        out = np.zeros((len(verts), int(counts.max(initial=0)), 2))
        r, j = np.nonzero(emit_p)
        out[r, pos[r, j]] = verts[r, j]
        r, j = np.nonzero(cross)
        out[r, pos[r, j] + emit_p[r, j]] = hit[r, j]
        verts = out
    return verts, counts


def _shoelace(verts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Signed shoelace area of each row's first counts[p] vertex slots.

    The formula's two sums are taken slot by slot, so a row's area does
    not depend on the slot width of the array it sits in.
    """
    valid, nxt = _ring(counts, verts.shape[1])
    x, y = verts[..., 0], verts[..., 1]
    rows = np.arange(len(verts))[:, np.newaxis]
    xy = np.where(valid, x * y[rows, nxt], 0.0)
    yx = np.where(valid, y * x[rows, nxt], 0.0)
    s1 = s2 = np.zeros(len(verts))
    for j in range(verts.shape[1]):
        s1, s2 = s1 + xy[:, j], s2 + yx[:, j]
    return 0.5 * (s1 - s2)


def iou_pairs(polys: np.ndarray, areas: np.ndarray, subj: np.ndarray,
              clip: np.ndarray) -> np.ndarray:
    """Exact IoU of box pairs (subj[k], clip[k]), indices into the stacked
    (N, 4, 2) CCW polygons ``polys`` with box areas ``areas`` (w * h).

    The subject polygon is clipped by the clipper's, both moved first
    so that the clipper's first vertex is the origin: in absolute
    coordinates a small box far from the origin would lose its area to
    cancellation in the shoelace sum. Pairs are processed IOU_CHUNK at a
    time.
    """
    out = np.empty(len(subj))
    for s in range(0, len(subj), IOU_CHUNK):
        si, ci = subj[s:s + IOU_CHUNK], clip[s:s + IOU_CHUNK]
        origin = polys[ci, :1]
        verts, counts = _clip_pairs(polys[si] - origin, polys[ci] - origin)
        area = _shoelace(verts, counts)
        inter = np.where(counts >= 3, np.abs(area), 0.0)
        union = areas[si] + areas[ci] - inter
        pos = union > 0.0
        iou = np.where(pos, inter / np.where(pos, union, 1.0), 0.0)
        out[s:s + IOU_CHUNK] = np.minimum(np.maximum(iou, 0.0), 1.0)
    return out


def _stack(boxes: list[OrientedBox]):
    """Polygons, areas, centers and circumscribed radii of the boxes."""
    n = len(boxes)
    params = np.array([(b.cx, b.cy, b.w, b.h) for b in boxes]).reshape(n, 4)
    w, h = params[:, 2], params[:, 3]
    return box_polygons(boxes), w * h, params[:, :2], 0.5 * np.hypot(w, h)


def _near_pairs(centers: np.ndarray, radii: np.ndarray, rows: np.ndarray,
                cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) positions in ``rows`` x ``cols`` whose boxes' circumscribed
    circles overlap; every other pair has IoU exactly 0."""
    d = centers[rows][:, np.newaxis] - centers[cols][np.newaxis]
    reach = radii[rows][:, np.newaxis] + radii[cols][np.newaxis]
    return np.nonzero(d[..., 0] ** 2 + d[..., 1] ** 2 <= reach ** 2)


def _overlap_caps(polys: np.ndarray):
    """Per box: the corners lo and hi of its polygon's axis-aligned
    bounding box, and the polygon's shoelace area taken from its first
    vertex, as the kernel takes areas in coordinates local to a pair."""
    own = _shoelace(polys - polys[:, :1], np.full(len(polys), polys.shape[1]))
    return polys.min(axis=1), polys.max(axis=1), np.abs(own)


def _may_exceed(caps, areas: np.ndarray, a: np.ndarray, b: np.ndarray,
                threshold) -> np.ndarray:
    """Which pairs (a[k], b[k]) an exact upper bound on their kernel IoU
    cannot rule out above the threshold, which is at most 1.

    The intersection lies in both polygons and in the overlap of their
    bounding boxes, so its area is at most m = min(P_a, P_b, overlap
    area), and the IoU at most m / (A + B - m), A and B being the areas
    (w * h) the kernel's union uses. A pair passes when the bound exceeds
    the threshold less 1e-9, which covers the rounding in the kernel's
    own intersection area. P_a and P_b are the stacked polygons' shoelace
    areas, not w * h: far from the origin a small box's polygon is
    rounded coarsely, and its area, which the kernel measures, can exceed
    w * h by far more than 1e-9 of the IoU (by 8e-2 at 1e12).
    """
    lo, hi, own = caps
    side = np.maximum(np.minimum(hi[a], hi[b]) - np.maximum(lo[a], lo[b]), 0.0)
    m = np.minimum(np.minimum(own[a], own[b]), side[:, 0] * side[:, 1])
    # At threshold 0 a pair with m = 0 still passes: the kernel can rate
    # boxes that only touch above 0.
    return m > (threshold - 1e-9) * (areas[a] + areas[b] - m)


def iou_matrix(subjects: list[OrientedBox],
               clippers: list[OrientedBox]) -> np.ndarray:
    """IoU of every subject with every clipper box, shape (S, C)."""
    polys, areas, centers, radii = _stack(list(subjects) + list(clippers))
    rows = np.arange(len(subjects))
    cols = np.arange(len(subjects), len(polys))
    i, j = _near_pairs(centers, radii, rows, cols)
    out = np.zeros((len(rows), len(cols)))
    out[i, j] = iou_pairs(polys, areas, rows[i], cols[j])
    return out


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Exact intersection-over-union of two rotated rectangles, in [0, 1]:
    the kernel on the one pair, ``a`` clipped by ``b``."""
    return float(iou_matrix([a], [b])[0, 0])


def rotated_nms(boxes: list[OrientedBox], iou_threshold: float) -> list[OrientedBox]:
    """Greedy descending-score suppression with a stable tie-break.

    Ordering key: score desc, then class_id asc, cx asc, cy asc. A box is
    dropped when its IoU with an already kept box exceeds the threshold.
    Candidates are resolved in waves: the first NMS_BLOCK boxes that no
    kept box suppresses are resolved in order against each other, their
    survivors are kept, and one kernel call drops every later box that a
    survivor suppresses. Each kept box comes before every remaining box,
    so the kept list is the greedy one, and each pair reaches the kernel
    as (later box, kept box), as in a one-by-one loop. Only pairs whose
    circles overlap and whose IoU bound (:func:`_may_exceed`) exceeds the
    threshold reach the kernel; no other pair can suppress. No kernel IoU
    exceeds 1, so at a threshold of 1 or more the ordered list returns at
    once.
    """
    ordered = sorted(boxes, key=lambda b: (-b.score, b.class_id, b.cx, b.cy))
    if not iou_threshold >= 0.0:
        return ordered[:1]  # every IoU, 0 included, exceeds it
    if iou_threshold >= 1.0:
        return ordered
    polys, areas, centers, radii = _stack(ordered)
    caps = _overlap_caps(polys)

    def candidates(rows, cols):
        i, j = _near_pairs(centers, radii, rows, cols)
        keep = _may_exceed(caps, areas, rows[i], cols[j], iou_threshold)
        return i[keep], j[keep]

    kept = []
    rest = np.arange(len(ordered))  # in order; no kept box suppresses one
    while len(rest):
        block, rest = rest[:NMS_BLOCK], rest[NMS_BLOCK:]
        i, j = candidates(block, block)
        later = i > j
        i, j = i[later], j[later]
        over = iou_pairs(polys, areas, block[i], block[j]) > iou_threshold
        hits = np.zeros((len(block), len(block)), dtype=bool)
        hits[i[over], j[over]] = True  # hits[l, c]: kept c would drop l
        dropped = np.zeros(len(block), dtype=bool)
        for c in range(len(block)):
            if not dropped[c]:
                dropped |= hits[:, c]
        survivors = block[~dropped]
        kept.extend(survivors)
        i, j = candidates(rest, survivors)
        over = iou_pairs(polys, areas, rest[i], survivors[j]) > iou_threshold
        rest = rest[np.bincount(i[over], minlength=len(rest)) == 0]
    return [ordered[k] for k in kept]


# -- annotation files, as gen-data writes them --------------------------------


def save_annotations(path, boxes: list[OrientedBox]) -> None:
    with open(path, "w") as fh:
        fh.write("# cx cy w h theta class_id\n")
        for b in boxes:
            fh.write(f"{b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f} "
                     f"{b.theta:.9f} {b.class_id}\n")

