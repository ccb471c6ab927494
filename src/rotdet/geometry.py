"""Rotated-rectangle geometry: polygons, exact IoU, a raster oracle, NMS.

A box list is read into arrays once, by :func:`_columns`; a
:class:`BoxTable`, what decode gives, holds boxes as those rows from the
start. The one exact IoU route is :func:`iou_pairs`, a batched
Sutherland-Hodgman clip with a shoelace area. :func:`rotated_nms`,
:func:`iou_matrices` (which AP matching uses, one call for all images),
scene placement and the one-pair :func:`rotated_iou` run on it, after
dropping pairs whose circumscribed circles are apart (IoU 0). NMS (in
score order) and scene placement (in draw order) share one greedy loop,
:func:`_greedy`.

The tests check the kernel against a scalar clip, against the interleaved
(..., 2) vertex layout that its x and y arrays replaced (every candidate
pair, vertex and IoU bit for bit), and against :func:`raster_iou_oracle`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .angle import wrap

# largest |cx|, |cy|, w or h a box may have, and 1 / it the least w or h:
# the clipping and shoelace arithmetic squares coordinates, which overflows
# not far above 1e150 and leaves w * h = 0 not far below 1e-150
MAX_BOX_COORD = 1e100
# (test, what the value must be) rules of a box field, each test taking an
# int, a float or an array; FINITE_RULE compares without converting, so an
# int past float range fails it
LEAST_SIDE_RULE = (lambda v: v >= 1 / MAX_BOX_COORD,
                   f"at least {1 / MAX_BOX_COORD:g}")
FINITE_RULE = (lambda v: abs(v) <= sys.float_info.max, "finite")
_BOUNDED = (lambda v: abs(v) <= MAX_BOX_COORD,
            f"at most {MAX_BOX_COORD:g} in magnitude")
BOX_RULES = {  # per field, in order
    "cx": (FINITE_RULE, _BOUNDED), "cy": (FINITE_RULE, _BOUNDED),
    "w": (FINITE_RULE, _BOUNDED, LEAST_SIDE_RULE),
    "h": (FINITE_RULE, _BOUNDED, LEAST_SIDE_RULE),
    "theta": (FINITE_RULE,), "score": (FINITE_RULE,)}


def _canonical(w, h, theta):
    """The same rectangle with w >= h: where w < h, w and h swap and theta
    gains pi/2; then :func:`rotdet.angle.wrap`. Floats or arrays alike, by
    operators only, so a float calls no NumPy ufunc."""
    swap = w < h
    return ((w >= h) * w + swap * h, swap * w + (w >= h) * h,
            wrap(theta + swap * (0.5 * math.pi)))


@dataclass(frozen=True)
class OrientedBox:
    """Rotated rectangle (cx, cy, w, h, theta) with class id and score.

    Construction raises ``ValueError`` on the first field, in order, that
    fails a :data:`BOX_RULES` rule, and canonicalizes by :func:`_canonical`:
    theta in [0, 2*pi) and w >= h. Both raw forms describe the same polygon.
    """

    cx: float
    cy: float
    w: float
    h: float
    theta: float
    class_id: int = 0
    score: float = 1.0

    def __post_init__(self):
        for name, rules in BOX_RULES.items():
            value = getattr(self, name)
            for test, what in rules:
                if not test(value):
                    raise ValueError(f"box {name} must be {what}, got {value}")
        w, h, theta = _canonical(self.w, self.h, self.theta)
        self.__dict__.update(cx=float(self.cx), cy=float(self.cy), w=float(w),
                             h=float(h), theta=float(theta))  # past frozen


class BoxTable(Sequence):
    """Read-only boxes as :func:`_columns` rows plus their angles.

    Built from raw fields, it keeps the boxes that pass every
    :data:`BOX_RULES` rule, in order, canonicalized by :func:`_canonical`.
    Its rows' cos and sin are ``math.cos`` and ``math.sin`` of theta, as
    :func:`_columns` takes them, so ``_columns(table)`` equals
    ``_columns(list(table))`` bit for bit, and reads no box. Indexing, and
    so iteration, builds an ``OrientedBox`` per row on demand, which leaves
    its fields as they are; a slice gives a list of them.
    """

    def __init__(self, cx, cy, w, h, theta, score, class_id):
        fields = np.array([cx, cy, w, h, theta, score], dtype=np.float64)
        fits = np.all([test(v) for v, rules in zip(fields, BOX_RULES.values())
                       for test, _ in rules], axis=0)
        cx, cy, w, h, theta, score = fields[:, fits]
        w, h, theta = _canonical(w, h, theta)
        rows = np.empty((len(theta), 8))
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = cx, cy, w, h
        angles = theta.tolist()
        rows[:, 4] = list(map(math.cos, angles))
        rows[:, 5] = list(map(math.sin, angles))
        rows[:, 6], rows[:, 7] = score, np.asarray(class_id, np.float64)[fits]
        rows.flags.writeable = False
        self.rows, self._theta = rows, angles

    def __len__(self) -> int:
        return len(self._theta)

    def __getitem__(self, k) -> OrientedBox | list[OrientedBox]:
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        cx, cy, w, h, _, _, score, cls = self.rows[k].tolist()
        return OrientedBox(cx, cy, w, h, self._theta[k], class_id=int(cls),
                           score=score)


def _columns(boxes: Sequence[OrientedBox]) -> np.ndarray:
    """The one read of boxes into arrays: float64 rows (cx, cy, w, h,
    cos theta, sin theta, score, class id), shape (N, 8); a
    :class:`BoxTable`'s own rows. Class ids are exact in float64 up to
    2**53 in magnitude."""
    if isinstance(boxes, BoxTable):
        return boxes.rows
    return np.array([(b.cx, b.cy, b.w, b.h, math.cos(b.theta),
                      math.sin(b.theta), b.score, b.class_id) for b in boxes],
                    dtype=np.float64).reshape(len(boxes), 8)


def box_polygons(cols: np.ndarray) -> np.ndarray:
    """Four CCW vertices of each :func:`_columns` row's box about its own
    center, shape (N, 4, 2); a row's does not depend on the other rows."""
    local = np.empty((len(cols), 4, 2))
    local[..., 0] = 0.5 * cols[:, 2:3] * np.array([-1.0, 1.0, 1.0, -1.0])
    local[..., 1] = 0.5 * cols[:, 3:4] * np.array([-1.0, -1.0, 1.0, 1.0])
    rot_t = np.empty((len(cols), 2, 2))  # transposed rotation by theta
    rot_t[:, 0, 0], rot_t[:, 0, 1] = cols[:, 4], cols[:, 5]
    rot_t[:, 1, 0], rot_t[:, 1, 1] = -cols[:, 5], cols[:, 4]
    return local @ rot_t


def _box_frame(px, py, row: np.ndarray):
    """Coordinates (u, v) of the points (px, py) along the w and h axes of
    a :func:`_columns` row's box, from its center."""
    cx, cy, _, _, c, s = row[:6].tolist()
    dx, dy = px - cx, py - cy
    return c * dx + s * dy, -s * dx + c * dy


def points_in_box(px: np.ndarray, py: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Which points (px, py) lie in the row's box, edges included: the one
    point-in-box test. It reads the box's frame from the row, so cos and
    sin of theta are taken only where rows are built."""
    u, v = _box_frame(px, py, row)
    return (np.abs(u) <= 0.5 * row[2]) & (np.abs(v) <= 0.5 * row[3])


def _row_spans(xs: np.ndarray, ys: np.ndarray, row: np.ndarray):
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
    _, _, w, h, c, s = row[:6].tolist()
    sign = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    half = 0.5 * np.array([[w], [w], [h], [h]])
    prefix = np.array([[c >= 0.0], [c < 0.0], [s <= 0.0], [s > 0.0]])
    # first[k, r]: how many leading columns of row r pass test k (a prefix
    # test) or fail it (a suffix test), found one bit at a time.
    first = np.zeros((4, len(ys)), dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        probe = first + (step - 1)
        u, v = _box_frame(xs[np.minimum(probe, n - 1)], ys, row)
        holds = sign * np.concatenate((u[:2], v[2:])) <= half
        first += step * ((holds == prefix) & (probe < n))
        step >>= 1
    return (np.where(prefix, 0, first).max(axis=0),
            np.where(prefix, first, n).min(axis=0))


def _raster_counts(a: OrientedBox, b: OrientedBox, grid: int):
    """Grid points in a, in b and in both, over a grid x grid lattice
    spanning both boxes' corners."""
    cols = _columns([a, b])
    corners = (box_polygons(cols) + cols[:, np.newaxis, :2]).reshape(8, 2)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    xs = np.linspace(lo[0], hi[0], grid)
    ys = np.linspace(lo[1], hi[1], grid)
    start_a, stop_a = _row_spans(xs, ys, cols[0])
    start_b, stop_b = _row_spans(xs, ys, cols[1])
    both = np.minimum(stop_a, stop_b) - np.maximum(start_a, start_b)
    return (int(np.maximum(stop_a - start_a, 0).sum()),
            int(np.maximum(stop_b - start_b, 0).sum()),
            int(np.maximum(both, 0).sum()))


def raster_iou_oracle(a: OrientedBox, b: OrientedBox, grid: int) -> float:
    """Brute-force IoU over a uniform grid covering both boxes' extent: the
    share of the grid points in either box that lie in both. The points
    are counted per grid row (:func:`_row_spans`), with the counts of
    testing every grid point, in O(grid) instead of O(grid**2) memory.
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
    """Per polygon row of ``width`` slots: which slots hold vertices, and
    the flat index (row * width + slot) of each slot's next vertex slot;
    the last vertex wraps to slot 0."""
    slot = np.arange(width)
    held = counts[:, np.newaxis]
    return (slot < held, np.where(slot + 1 < held, slot + 1, 0)
            + width * np.arange(len(counts))[:, np.newaxis])


def _clip_pairs(sx: np.ndarray, sy: np.ndarray, cx: np.ndarray,
                cy: np.ndarray):
    """Sutherland-Hodgman clip of each subject by its clipper, both given
    as (P, 4) arrays of vertex x and of vertex y.

    Returns (x, y, counts): slot j of row p is a vertex while
    j < counts[p]. Each clipper edge keeps the part of the subject on its
    left, points on the edge included, so touching boxes give zero-area
    intersections instead of degenerate geometry. One half-plane adds at
    most one vertex to a convex polygon, so rows stay within 8 slots; the
    width follows the largest count all the same, since rounding can
    cross a near-collinear edge more than twice. Vertices are gathered and
    placed by flat index.
    """
    x, y = sx, sy
    counts = np.full(len(sx), sx.shape[1])
    ex = np.roll(cx, -1, axis=1) - cx
    ey = np.roll(cy, -1, axis=1) - cy
    for i in range(cx.shape[1]):
        width = x.shape[1]
        valid, nxt = _ring(counts, width)
        dp = (ex[:, i:i + 1] * (y - cy[:, i:i + 1])
              - ey[:, i:i + 1] * (x - cx[:, i:i + 1]))
        dq = dp.ravel()[nxt]
        p_in = dp >= 0.0
        emit_p = valid & p_in
        cross = valid & (p_in != (dq >= 0.0))
        emitted = emit_p.astype(np.intp) + cross
        counts = emitted.sum(axis=1)
        pos = (np.cumsum(emitted, axis=1) - emitted).ravel()
        new_width = int(counts.max(initial=0))
        fp, fc = np.flatnonzero(emit_p), np.flatnonzero(cross)
        at_p = fp // width * new_width + pos[fp]
        at_c = fc // width * new_width + pos[fc] + emit_p.ravel()[fc]
        # dp and dq straddle zero where cross holds, so dp - dq != 0 there
        dp, dq = dp.ravel()[fc], dq.ravel()[fc]
        t = dp / (dp - dq)
        nc = nxt.ravel()[fc]
        out = []
        for v in (x.ravel(), y.ravel()):
            o = np.zeros(len(counts) * new_width)
            o[at_p] = v[fp]
            o[at_c] = v[fc] + t * (v[nc] - v[fc])
            out.append(o.reshape(len(counts), new_width))
        x, y = out
    return x, y, counts


def _shoelace(x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Signed shoelace area of each row's first counts[p] vertex slots.

    The formula's two sums are taken slot by slot, so a row's area does
    not depend on the slot width of the arrays it sits in. A row of 0, 1
    or 2 vertices needs no guard: its two sums add the same products in
    swapped order, so its area is exactly 0.
    """
    valid, nxt = _ring(counts, x.shape[1])
    xy = np.where(valid, x * y.ravel()[nxt], 0.0)
    yx = np.where(valid, y * x.ravel()[nxt], 0.0)
    s1 = s2 = np.zeros(len(x))
    for j in range(x.shape[1]):
        s1, s2 = s1 + xy[:, j], s2 + yx[:, j]
    return 0.5 * (s1 - s2)


def iou_pairs(polys: np.ndarray, centers: np.ndarray, areas: np.ndarray,
              subj: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Exact IoU of box pairs (subj[k], clip[k]), indices into the stacked
    (N, 4, 2) CCW polygons ``polys`` about ``centers``, with box areas
    ``areas`` (w * h).

    As in detectron2's ``single_box_iou_rotated``, each pair is measured in
    its own frame: the clipper about the origin, the subject about the
    centers' difference, so no vertex is rounded at a far center's scale:
    a small box far from the origin keeps its area, and a shift that keeps
    the centers' difference exact keeps the IoU bit for bit. Pairs are
    processed IOU_CHUNK at a time, on x and y arrays apart.
    """
    px, py = polys[..., 0], polys[..., 1]
    cx, cy = centers[:, 0], centers[:, 1]
    out = np.empty(len(subj))
    for s in range(0, len(subj), IOU_CHUNK):
        si, ci = subj[s:s + IOU_CHUNK], clip[s:s + IOU_CHUNK]
        x, y, counts = _clip_pairs(
            px[si] + (cx[si] - cx[ci])[:, np.newaxis],
            py[si] + (cy[si] - cy[ci])[:, np.newaxis], px[ci], py[ci])
        area = _shoelace(x, y, counts)
        inter = np.abs(area)
        union = areas[si] + areas[ci] - inter
        pos = union > 0.0
        iou = np.where(pos, inter / np.where(pos, union, 1.0), 0.0)
        out[s:s + IOU_CHUNK] = np.minimum(iou, 1.0)
    return out


def _stack(cols: np.ndarray):
    """Polygons, w * h areas, centers and circumscribed radii of the
    :func:`_columns` rows."""
    w, h = cols[:, 2], cols[:, 3]
    return box_polygons(cols), w * h, cols[:, :2], 0.5 * np.hypot(w, h)


def _near_pairs(centers: np.ndarray, radii: np.ndarray, rows: np.ndarray,
                cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) positions in ``rows`` x ``cols`` whose boxes' circumscribed
    circles overlap; every other pair has IoU exactly 0."""
    cx, cy = centers[:, 0], centers[:, 1]
    dx = cx[rows][:, np.newaxis] - cx[cols]
    dy = cy[rows][:, np.newaxis] - cy[cols]
    reach = radii[rows][:, np.newaxis] + radii[cols]
    return np.nonzero(dx * dx + dy * dy <= reach * reach)


def _may_exceed(half: np.ndarray, centers: np.ndarray, areas: np.ndarray,
                a: np.ndarray, b: np.ndarray, threshold) -> np.ndarray:
    """Which pairs (a[k], b[k]) an exact upper bound on their kernel IoU
    cannot rule out above the threshold, which is at most 1.

    The intersection lies in both boxes and in the overlap of their
    bounds, min(ha + hb - |ca - cb|, 2 * min(ha, hb)) per axis from the
    polygons' half-extents ``half``, so its area is at most m = min(A, B,
    overlap area), and the IoU at most m / (A + B - m), A and B being the
    areas (w * h) the kernel's union uses. A pair passes when the bound
    exceeds the threshold less 1e-9, which covers the kernel's rounding.
    """
    side = []
    for axis in (0, 1):
        h, c = half[:, axis], centers[:, axis]
        ha, hb = h[a], h[b]
        reach = ha + hb - np.abs(c[a] - c[b])
        side.append(np.maximum(np.minimum(reach, 2.0 * np.minimum(ha, hb)),
                               0.0))
    area_a, area_b = areas[a], areas[b]
    m = np.minimum(np.minimum(area_a, area_b), side[0] * side[1])
    # At threshold 0 a pair with m = 0 still passes: the kernel can rate
    # boxes that only touch above 0.
    return m > (threshold - 1e-9) * (area_a + area_b - m)


def iou_matrices(subjects: Sequence[Sequence[OrientedBox]],
                 clippers: Sequence[Sequence[OrientedBox]]
                 ) -> list[np.ndarray]:
    """Per image k, the IoU of every box of ``subjects[k]`` with every box
    of ``clippers[k]``, shape (S_k, C_k): one :func:`_columns` and one
    :func:`_stack` over all images, :func:`_near_pairs` within each, and
    one :func:`iou_pairs` call, which rates each pair apart, for the pairs
    of all images. Only the circle test skips pairs: AP matching reads the
    values, not just whether they exceed a threshold."""
    polys, areas, centers, radii = _stack(_columns([
        b for s, c in zip(subjects, clippers, strict=True) for b in (*s, *c)]))
    at, near = 0, []  # per image: its rows, its columns, their near pairs
    for s, c in zip(subjects, clippers):
        rows, cols = at + np.arange(len(s)), at + len(s) + np.arange(len(c))
        near.append((rows, cols, *_near_pairs(centers, radii, rows, cols)))
        at += len(s) + len(c)
    subj = [np.empty(0, np.intp)] + [rows[i] for rows, _, i, _ in near]
    clip = [np.empty(0, np.intp)] + [cols[j] for _, cols, _, j in near]
    ious = iou_pairs(polys, centers, areas, np.concatenate(subj),
                     np.concatenate(clip))
    out = [np.zeros((len(rows), len(cols))) for rows, cols, _, _ in near]
    ends = np.cumsum([len(i) for _, _, i, _ in near], dtype=np.intp)
    for m, (_, _, i, j), values in zip(out, near, np.split(ious, ends)):
        m[i, j] = values
    return out


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Exact intersection-over-union of two rotated rectangles, in [0, 1]:
    the kernel on the one pair, ``a`` clipped by ``b``."""
    return float(iou_matrices([[a]], [[b]])[0][0, 0])


def _greedy(cols: np.ndarray, threshold: float, lead: int) -> np.ndarray:
    """Indices of the :func:`_columns` rows that greedy suppression keeps,
    in the given order, at a threshold in [0, 1): a row goes when its IoU
    with a kept row, clipped by it, exceeds the threshold. Rows resolve in
    waves: the first NMS_BLOCK rows no kept row suppresses are resolved in
    order against each other, and their survivors are kept and drop every
    later row they suppress in one kernel call. So each pair reaches the
    kernel as (later row, kept row), as in a one-by-one loop; pairs that
    cannot suppress (:func:`_near_pairs`, :func:`_may_exceed`) skip it, and
    so do pairs of the first ``lead`` rows, which the caller knows to be
    kept. The wave that takes the last rows makes no filtering call.
    """
    polys, areas, centers, radii = _stack(cols)
    half = np.abs(polys).max(axis=1)

    def candidates(subj, clip):  # (later row, kept row) pairs to rate
        i, j = _near_pairs(centers, radii, subj, clip)
        rated = (subj[i] > clip[j]) & (subj[i] >= lead)
        i, j = i[rated], j[rated]
        keep = _may_exceed(half, centers, areas, subj[i], clip[j], threshold)
        return i[keep], j[keep]

    kept = []
    rest = np.arange(len(cols))  # in order; no kept row suppresses one
    while len(rest):
        block, rest = rest[:NMS_BLOCK], rest[NMS_BLOCK:]
        i, j = candidates(block, block)
        over = iou_pairs(polys, centers, areas, block[i], block[j]) > threshold
        hits = np.zeros((len(block), len(block)), dtype=bool)
        hits[i[over], j[over]] = True  # hits[l, c]: kept c would drop l
        dropped = np.zeros(len(block), dtype=bool)
        for c in range(len(block)):
            if not dropped[c]:
                dropped |= hits[:, c]
        survivors = block[~dropped]
        kept.extend(survivors)
        if len(rest):
            i, j = candidates(rest, survivors)
            over = iou_pairs(polys, centers, areas, rest[i],
                             survivors[j]) > threshold
            rest = rest[np.bincount(i[over], minlength=len(rest)) == 0]
    return np.array(kept, dtype=np.intp)


def rotated_nms(boxes: Sequence[OrientedBox],
                iou_threshold: float) -> list[OrientedBox]:
    """Greedy descending-score suppression with a stable tie-break.

    The boxes, a list or a :class:`BoxTable`, are read once into
    :func:`_columns` rows and ordered by one stable ``np.lexsort``: score
    desc, then class_id asc, cx asc, cy asc, and input order among rows
    equal in all four, as ``sorted`` would order them. Outside [0, 1) the
    order decides alone: every IoU, 0 included, exceeds a negative
    threshold, so only the first box stays, and no kernel IoU exceeds 1 or
    more, or NaN, so every box does. Otherwise the boxes go through
    :func:`_greedy` in that order. Only the kept boxes are taken from
    ``boxes`` by index, so a table builds no other box.
    """
    cols = _columns(boxes)
    order = np.lexsort((cols[:, 1], cols[:, 0], cols[:, 7], -cols[:, 6]))
    if not 0.0 <= iou_threshold < 1.0:
        return [boxes[k] for k in order[:1 if iou_threshold < 0.0 else None]]
    return [boxes[k] for k in order[_greedy(cols[order], iou_threshold, 0)]]


# -- annotation files, as gen-data writes them --------------------------------


def save_annotations(path, boxes: list[OrientedBox]) -> None:
    """The annotation text ``gen-data`` writes: a ``# cx cy w h theta
    class_id`` header, then one line per box in that order, theta to 9
    decimals and the other floats to 6."""
    with open(path, "w") as fh:
        fh.write("# cx cy w h theta class_id\n")
        for b in boxes:
            fh.write(f"{b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f} "
                     f"{b.theta:.9f} {b.class_id}\n")

