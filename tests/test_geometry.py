"""Rotated-box geometry: polygons, IoU routes, NMS, annotations."""

import itertools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rotdet import angle, geometry
from rotdet.config import load_config
from rotdet.geometry import (OrientedBox, box_polygons, iou_matrix,
                             iou_pairs, points_in_box, raster_iou_oracle,
                             rotated_iou, rotated_nms, save_annotations)
from rotdet.pyramid import NetworkWeights, assemble_forward, decode_boxes
from rotdet.scenes import gen_scene
from rotdet.tensor import Tensor, no_recording

# The batched kernel guards its divisions; a warning here is a defect.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

KERNEL_TOL = 1e-12  # kernel vs scalar IoU differ only in shoelace rounding

SCORES = st.sampled_from([0.25, 0.5, 0.75, 1.0])  # few values: many ties
# signed coordinates across magnitudes 1e-100 to 1e100
MAGNITUDES = st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
                       st.floats(1, 10, exclude_max=True),
                       st.integers(-100, 99), st.sampled_from([-1.0, 1.0]))
box_st = st.builds(
    OrientedBox,
    cx=st.floats(-8, 8), cy=st.floats(-8, 8),
    w=st.floats(0.5, 6), h=st.floats(0.5, 6),
    theta=st.floats(0, 2 * math.pi),
    class_id=st.integers(0, 1),
    score=SCORES)


@st.composite
def box_lists(draw, max_size=14):
    """Boxes with some exact duplicates among them."""
    boxes = draw(st.lists(box_st, max_size=max_size))
    if boxes:
        boxes += draw(st.lists(st.sampled_from(boxes), max_size=3))
    return draw(st.permutations(boxes))


def polygons(boxes):
    """Absolute corners of the boxes, shape (N, 4, 2): box_polygons of
    their columns, about each center, moved to the center."""
    cols = geometry._columns(boxes)
    return box_polygons(cols) + cols[:, np.newaxis, :2]


def stack(boxes):
    """geometry._stack of the boxes' columns."""
    return geometry._stack(geometry._columns(boxes))


def box_to_polygon(b):
    """Four CCW vertices of one box, shape (4, 2)."""
    return polygons([b])[0]


def polygon_area(poly):
    """Shoelace area; positive for CCW vertex order."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_convex(subject, clipper):
    """Sutherland-Hodgman clip of a convex CCW subject by a convex CCW
    clipper, one vertex at a time in Python lists.

    Collinear and touching edges count as inside, which yields zero-area
    intersections instead of degenerate geometry.
    """
    output = [tuple(p) for p in subject]
    m = len(clipper)
    for i in range(m):
        if not output:
            break
        a = clipper[i]
        b = clipper[(i + 1) % m]
        ex, ey = b[0] - a[0], b[1] - a[1]
        inputs = output
        output = []
        for j in range(len(inputs)):
            p = inputs[j]
            q = inputs[(j + 1) % len(inputs)]
            dp = ex * (p[1] - a[1]) - ey * (p[0] - a[0])
            dq = ex * (q[1] - a[1]) - ey * (q[0] - a[0])
            p_in = dp >= 0.0
            q_in = dq >= 0.0
            if p_in:
                output.append(p)
            if p_in != q_in:
                t = dp / (dp - dq)
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return np.array(output) if output else np.empty((0, 2))


def _reference_iou(a, b):
    """The scalar clipping IoU the batched kernel replaced, kept as its
    oracle: a's polygon clipped by b's, in absolute coordinates."""
    pa, pb = polygons([a, b])
    inter_poly = clip_convex(pa, pb)
    inter = abs(polygon_area(inter_poly)) if len(inter_poly) >= 3 else 0.0
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def _score_order(boxes):
    """The Python sort rotated_nms's lexsort replaced, kept as its oracle."""
    return sorted(boxes, key=lambda b: (-b.score, b.class_id, b.cx, b.cy))


def _reference_nms(boxes, iou_threshold):
    """The scalar greedy loop rotated_nms replaced, kept as its oracle."""
    ordered = _score_order(boxes)
    kept = []
    for cand in ordered:
        if all(_reference_iou(cand, k) <= iou_threshold for k in kept):
            kept.append(cand)
    return kept


def _blocked_nms(boxes, iou_threshold, bound=True):
    """rotated_nms before its waves, kept as their oracle: each block of
    NMS_BLOCK candidates is tested against every box kept so far, then
    resolved in order against itself, two kernel calls per block. With
    bound=False every pair whose circumscribed circles overlap goes
    through the kernel, as before the IoU bound."""
    ordered = _score_order(boxes)
    if iou_threshold < 0.0:
        return ordered[:1]
    polys, areas, centers, radii = stack(ordered)
    half = np.abs(polys).max(axis=1)

    def candidates(rows, cols):
        i, j = geometry._near_pairs(centers, radii, rows, cols)
        if not bound:
            return i, j
        keep = geometry._may_exceed(half, centers, areas, rows[i], cols[j],
                                    iou_threshold)
        return i[keep], j[keep]

    kept = np.empty(0, dtype=np.intp)
    for start in range(0, len(ordered), geometry.NMS_BLOCK):
        block = np.arange(start, min(start + geometry.NMS_BLOCK, len(ordered)))
        i, j = candidates(block, kept)
        over = geometry.iou_pairs(polys, centers, areas, block[i],
                                  kept[j]) > iou_threshold
        alive = block[np.bincount(i[over], minlength=len(block)) == 0]
        i, j = candidates(alive, alive)
        later = i > j
        i, j = i[later], j[later]
        over = geometry.iou_pairs(polys, centers, areas, alive[i],
                                  alive[j]) > iou_threshold
        hits = np.zeros((len(alive), len(alive)), dtype=bool)
        hits[i[over], j[over]] = True
        dropped = np.zeros(len(alive), dtype=bool)
        for c in range(len(alive)):
            if not dropped[c]:
                dropped |= hits[:, c]
        kept = np.concatenate([kept, alive[~dropped]])
    return [ordered[k] for k in kept]


def _unpruned_nms(boxes, iou_threshold):
    """rotated_nms before the IoU bound, kept as its oracle."""
    return _blocked_nms(boxes, iou_threshold, bound=False)


def _pair_ring(counts, width):
    """geometry._ring as it was before flat indices, for the oracles
    below: per row, which slots hold vertices and each slot's next one."""
    slot = np.arange(width)
    return (slot < counts[:, np.newaxis],
            np.where(slot + 1 < counts[:, np.newaxis], slot + 1, 0))


def _pair_clip_pairs(subject, clipper):
    """geometry._clip_pairs on interleaved (P, 4, 2) vertex arrays, as it
    was before its x and y arrays, kept as its oracle."""
    verts = subject
    counts = np.full(len(subject), subject.shape[1])
    rows = np.arange(len(subject))[:, np.newaxis]
    for i in range(clipper.shape[1]):
        a = clipper[:, i]
        b = clipper[:, (i + 1) % clipper.shape[1]]
        ex = (b[:, 0] - a[:, 0])[:, np.newaxis]
        ey = (b[:, 1] - a[:, 1])[:, np.newaxis]
        valid, nxt = _pair_ring(counts, verts.shape[1])
        dp = (ex * (verts[..., 1] - a[:, 1:2])
              - ey * (verts[..., 0] - a[:, 0:1]))
        dq = dp[rows, nxt]
        p_in = dp >= 0.0
        emit_p = valid & p_in
        cross = valid & (p_in != (dq >= 0.0))
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


def _pair_shoelace(verts, counts):
    """geometry._shoelace on interleaved vertex arrays, kept as its
    oracle."""
    valid, nxt = _pair_ring(counts, verts.shape[1])
    x, y = verts[..., 0], verts[..., 1]
    rows = np.arange(len(verts))[:, np.newaxis]
    xy = np.where(valid, x * y[rows, nxt], 0.0)
    yx = np.where(valid, y * x[rows, nxt], 0.0)
    s1 = s2 = np.zeros(len(verts))
    for j in range(verts.shape[1]):
        s1, s2 = s1 + xy[:, j], s2 + yx[:, j]
    return 0.5 * (s1 - s2)


def _pair_near_pairs(centers, radii, rows, cols):
    """geometry._near_pairs on (N, 2) center pairs, kept as its oracle."""
    d = centers[rows][:, np.newaxis] - centers[cols][np.newaxis]
    reach = radii[rows][:, np.newaxis] + radii[cols][np.newaxis]
    return np.nonzero(d[..., 0] ** 2 + d[..., 1] ** 2 <= reach ** 2)


def _pair_may_exceed(half, centers, areas, a, b, threshold):
    """geometry._may_exceed on (P, 2) half-extent and center pairs, kept as
    its oracle."""
    ha, hb, area_a, area_b = half[a], half[b], areas[a], areas[b]
    reach = ha + hb - np.abs(centers[a] - centers[b])
    side = np.maximum(np.minimum(reach, 2.0 * np.minimum(ha, hb)), 0.0)
    m = np.minimum(np.minimum(area_a, area_b), side[:, 0] * side[:, 1])
    return m > (threshold - 1e-9) * (area_a + area_b - m)


def decisive(pairs, threshold):
    """True when rounding in the last bits cannot decide any pair: no pair
    touches with a zero-area (but >= 3 vertex) clip, and no nonzero IoU
    lies within KERNEL_TOL of the threshold (IoU never exceeds 1)."""
    for a, b in pairs:
        poly = clip_convex(box_to_polygon(a), box_to_polygon(b))
        if len(poly) >= 3 and abs(polygon_area(poly)) <= 1e-9:
            return False
        iou = _reference_iou(a, b)
        if (iou > 0.0 and threshold < 1.0
                and abs(iou - threshold) <= KERNEL_TOL):
            return False
    return True


def _poly_set(poly, tol=1e-9):
    return sorted((round(x / tol) * tol, round(y / tol) * tol) for x, y in poly)


class TestBoxToPolygon:
    def test_unit_square(self):
        poly = box_to_polygon(OrientedBox(0, 0, 1, 1, 0))
        assert _poly_set(poly) == [(-0.5, -0.5), (-0.5, 0.5),
                                   (0.5, -0.5), (0.5, 0.5)]

    def test_quarter_turn_swaps_extents(self):
        a = box_to_polygon(OrientedBox(1, 2, 4, 2, math.pi / 2))
        b = box_to_polygon(OrientedBox(1, 2, 2, 4, 0))
        assert _poly_set(a) == pytest.approx(_poly_set(b))

    def test_diamond(self):
        s = math.sqrt(2)
        poly = box_to_polygon(OrientedBox(0, 0, s, s, math.pi / 4))
        assert _poly_set(poly) == pytest.approx(
            [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)], abs=1e-12)

    def test_ccw_and_centroid(self):
        b = OrientedBox(3, -2, 5, 2, 0.7)
        poly = box_to_polygon(b)
        assert polygon_area(poly) > 0  # CCW by the shoelace sign
        np.testing.assert_allclose(poly.mean(axis=0), [3, -2], atol=1e-9)

    def test_area_matches_extents(self):
        b = OrientedBox(1, 1, 3.5, 2.25, 1.1)
        assert polygon_area(box_to_polygon(b)) == pytest.approx(
            3.5 * 2.25, abs=1e-9)

    def test_wh_swap_same_polygon(self):
        raw = OrientedBox(0, 0, 2, 4, 0.3)  # canonicalized at construction
        alt = OrientedBox(0, 0, 4, 2, 0.3 + math.pi / 2)
        assert _poly_set(box_to_polygon(raw)) == pytest.approx(
            _poly_set(box_to_polygon(alt)))

    def test_theta_rounding_onto_period_is_zero(self):
        # -1e-20 modulo 2*pi rounds onto 2*pi itself, which is the angle 0
        box = OrientedBox(0, 0, 2, 1, -1e-20)
        assert box == OrientedBox(0, 0, 2, 1, 0.0)
        assert float.hex(box.theta) == float.hex(0.0)

    def test_invalid_extents(self):
        with pytest.raises(ValueError):
            OrientedBox(0, 0, 0, 1, 0)

    # a NaN score would make rotated_nms's kept list depend on input order
    @pytest.mark.parametrize("field", ["cx", "cy", "w", "h", "theta", "score"])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf,
        pytest.param(10 ** 400, id="int-past-float-range"),
        pytest.param(-10 ** 400, id="negative-int-past-float-range")])
    def test_non_finite_field_rejected(self, field, value):
        kwargs = dict(cx=0.0, cy=0.0, w=2.0, h=1.0, theta=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"box {field} must be finite"):
            OrientedBox(**kwargs)

    @pytest.mark.parametrize("field", ["cx", "cy", "w", "h"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_field_past_magnitude_bound_rejected(self, field, sign):
        kwargs = dict(cx=0.0, cy=0.0, w=2.0, h=1.0, theta=0.0)
        kwargs[field] = sign * math.nextafter(geometry.MAX_BOX_COORD, math.inf)
        with pytest.raises(ValueError, match=f"box {field} must be at most"):
            OrientedBox(**kwargs)

    @pytest.mark.parametrize("field", ["w", "h"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, 5e-324, 1e-200,
                                       math.nextafter(1e-100, 0.0)])
    def test_extent_below_least_rejected(self, field, value):
        """1 / MAX_BOX_COORD is the least w or h: below it w * h can
        underflow to 0, and a box would rate 0 against itself."""
        kwargs = dict(cx=0.0, cy=0.0, w=2.0, h=1.0, theta=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"box {field} must be at least"):
            OrientedBox(**kwargs)
        kwargs[field] = 1 / geometry.MAX_BOX_COORD
        OrientedBox(**kwargs)

    def test_huge_box_at_bound_is_clean(self):
        # at the bound the squared coordinates stay finite: the scalar
        # oracle and the kernel rate a box against itself 1, NMS keeps one
        big = geometry.MAX_BOX_COORD
        b = OrientedBox(big, -big, big, big, 0.3)
        twin = OrientedBox(big, -big, big, big, 0.3, score=0.5)
        assert _reference_iou(b, b) == pytest.approx(1.0, abs=1e-12)
        assert rotated_iou(b, b) == pytest.approx(1.0, abs=1e-12)
        assert iou_matrix([b], [b])[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert rotated_nms([b, twin], 0.5) == [b]


class TestRotatedIou:
    def test_identical(self):
        b = OrientedBox(2, 3, 4, 2, 0.5)
        assert rotated_iou(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert rotated_iou(OrientedBox(0, 0, 1, 1, 0),
                           OrientedBox(10, 10, 1, 1, 0)) == 0.0

    def test_offset_squares_one_third(self):
        a = OrientedBox(0, 0, 1, 1, 0)
        b = OrientedBox(0.5, 0, 1, 1, 0)
        assert abs(rotated_iou(a, b) - 1.0 / 3.0) <= 1e-9

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = _random_box(rng)
            b = _random_box(rng)
            iab = rotated_iou(a, b)
            assert 0.0 <= iab <= 1.0
            assert iab == pytest.approx(rotated_iou(b, a), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = _random_box(rng)
            b = _random_box(rng)
            base = rotated_iou(a, b)
            phi = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(phi), math.sin(phi)

            def rot(box):
                cx = c * box.cx - s * box.cy
                cy = s * box.cx + c * box.cy
                return OrientedBox(cx, cy, box.w, box.h, box.theta + phi,
                                   box.class_id, box.score)

            assert abs(rotated_iou(rot(a), rot(b)) - base) <= 1e-9

    def test_touching_edges_zero_area(self):
        a = OrientedBox(0, 0, 2, 2, 0)
        b = OrientedBox(2, 0, 2, 2, 0)
        assert rotated_iou(a, b) == pytest.approx(0.0, abs=1e-12)


def _random_box(rng):
    return OrientedBox(rng.uniform(-5, 5), rng.uniform(-5, 5),
                       rng.uniform(0.5, 6), rng.uniform(0.5, 6),
                       rng.uniform(0, 2 * math.pi))


def _reference_raster_counts(a, b, grid):
    """Grid points in a, in b and in both, by testing every point of the
    grid x grid mesh: the mask the row count replaced, kept as its oracle."""
    corners = polygons([a, b]).reshape(8, 2)
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    xs = np.linspace(lo[0], hi[0], grid)
    ys = np.linspace(lo[1], hi[1], grid)
    px, py = np.meshgrid(xs, ys)
    rows = geometry._columns([a, b])
    in_a = points_in_box(px, py, rows[0])
    in_b = points_in_box(px, py, rows[1])
    return (np.count_nonzero(in_a), np.count_nonzero(in_b),
            np.count_nonzero(in_a & in_b))


def _criterion_8_pairs(count):
    """The first ``count`` box pairs acceptance criterion 8 draws."""
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(count):
        a, b = [OrientedBox(rng.uniform(-4, 4), rng.uniform(-4, 4),
                            rng.uniform(0.5, 6), rng.uniform(0.5, 6),
                            rng.uniform(0, 2 * math.pi)) for _ in range(2)]
        pairs.append((a, b))
    return pairs


# Quarter turns put cos or sin at exactly 0 or at about 6e-17.
QUARTER = st.integers(0, 3).map(lambda k: 0.5 * math.pi * k)
# Multiples of 1/8: sums of centers and half extents stay exact, so boxes
# built to touch do touch, and grid points land on their edges.
EIGHTHS = st.integers(-32, 32).map(lambda k: k / 8.0)
SIZES = st.integers(2, 40).map(lambda k: k / 8.0)


def _quarter_box(cx, cy, span_x, span_y, turn):
    """Box with world extents span_x by span_y, turned a multiple of pi/2."""
    if turn in (0.0, math.pi):
        return OrientedBox(cx, cy, span_x, span_y, turn)
    return OrientedBox(cx, cy, span_y, span_x, turn)


@st.composite
def raster_pairs(draw):
    """Free pairs, plus boxes that share an edge, touch at a corner, are
    identical, or nest, with quarter-turn angles among the draws."""
    kind = draw(st.sampled_from(["free", "same", "inside", "edge", "corner"]))
    cx, cy, span_x, span_y = (draw(EIGHTHS), draw(EIGHTHS), draw(SIZES),
                              draw(SIZES))
    if kind in ("edge", "corner") or draw(st.booleans()):
        a = _quarter_box(cx, cy, span_x, span_y, draw(QUARTER))
    else:
        theta = draw(st.one_of(QUARTER, st.floats(0, 2 * math.pi)))
        a = draw(box_st.map(lambda b: OrientedBox(b.cx, b.cy, b.w, b.h, theta)))
    if kind == "same":
        return a, a
    if kind == "inside":
        fw, fh = draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0))
        return a, OrientedBox(a.cx, a.cy, fw * a.w, fh * a.h, a.theta)
    if kind == "free":
        return a, draw(box_st)
    span_xb, span_yb = draw(SIZES), draw(SIZES)
    dx = 0.5 * (span_x + span_xb)
    dy = 0.5 * (span_y + span_yb) * (1 if kind == "corner"
                                     else draw(st.integers(-3, 3)) / 4)
    sx, sy = draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1]))
    return a, _quarter_box(cx + sx * dx, cy + sy * dy, span_xb, span_yb,
                           draw(QUARTER))


class TestRasterOracle:
    @given(raster_pairs())
    @settings(max_examples=200, deadline=None)
    def test_row_counts_match_mask(self, pair):
        a, b = pair
        assert (geometry._raster_counts(a, b, 256)
                == _reference_raster_counts(a, b, 256))

    def test_same_bits_as_mask_on_criterion_8_draws(self):
        for a, b in _criterion_8_pairs(50):
            in_a, in_b, inter = _reference_raster_counts(a, b, 1024)
            assert raster_iou_oracle(a, b, 1024) == inter / (in_a + in_b - inter)

    def test_memory_linear_in_grid(self):
        """One float64 grid x grid array alone would take 8 MiB."""
        a, b = _criterion_8_pairs(1)[0]
        raster_iou_oracle(a, b, 1024)  # first-call allocations aside
        tracemalloc.start()
        try:
            raster_iou_oracle(a, b, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_identical(self):
        b = OrientedBox(0, 0, 3, 2, 0.4)
        assert raster_iou_oracle(b, b, 256) == 1.0

    def test_one_third_case(self):
        a = OrientedBox(0, 0, 1, 1, 0)
        b = OrientedBox(0.5, 0, 1, 1, 0)
        assert abs(raster_iou_oracle(a, b, 1024) - 1.0 / 3.0) <= 5e-3

    def test_cross_check_clipping(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = _random_box(rng)
            b = _random_box(rng)
            assert abs(rotated_iou(a, b) -
                       raster_iou_oracle(a, b, 512)) <= 1e-2

    def test_grid_floor(self):
        b = OrientedBox(0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            raster_iou_oracle(b, b, 128)


class TestClipConvex:
    @given(st.floats(0, 2 * math.pi), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_intersection_bounded(self, theta, dx, dy):
        a = OrientedBox(0, 0, 2, 1, theta % (2 * math.pi))
        b = OrientedBox(dx, dy, 1.5, 1.5, 0)
        poly = clip_convex(box_to_polygon(a), box_to_polygon(b))
        if len(poly) >= 3:
            inter = abs(polygon_area(poly))
            assert inter <= min(a.w * a.h, b.w * b.h) + 1e-9


class TestRotatedNms:
    def test_single_box_kept(self):
        b = OrientedBox(0, 0, 1, 1, 0, score=0.7)
        assert rotated_nms([b], 0.5) == [b]

    def test_duplicate_suppressed(self):
        hi = OrientedBox(0, 0, 2, 1, 0.3, score=0.9)
        lo = OrientedBox(0, 0, 2, 1, 0.3, score=0.4)
        kept = rotated_nms([lo, hi], 0.5)
        assert kept == [hi]

    def test_chain_of_three(self):
        # IoU(1,2) and IoU(2,3) over threshold, IoU(1,3) under it
        b1 = OrientedBox(0.0, 0, 4, 2, 0, score=0.9)
        b2 = OrientedBox(1.0, 0, 4, 2, 0, score=0.8)
        b3 = OrientedBox(2.0, 0, 4, 2, 0, score=0.7)
        assert rotated_iou(b1, b2) > 0.5
        assert rotated_iou(b2, b3) > 0.5
        assert rotated_iou(b1, b3) < 0.5
        kept = rotated_nms([b1, b2, b3], 0.5)
        assert kept == [b1, b3]

    def test_properties(self):
        rng = np.random.default_rng(3)
        boxes = [OrientedBox(rng.uniform(0, 20), rng.uniform(0, 20),
                             rng.uniform(1, 5), rng.uniform(1, 5),
                             rng.uniform(0, 2 * math.pi),
                             score=float(rng.uniform(0, 1)))
                 for _ in range(40)]
        kept = rotated_nms(boxes, 0.3)
        assert all(k in boxes for k in kept)
        scores = [k.score for k in kept]
        assert scores == sorted(scores, reverse=True)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert rotated_iou(a, b) <= 0.3


def test_annotation_round_trip(tmp_path):
    # gen-data's annotation lines carry each field at its printed precision
    boxes = [OrientedBox(10.5, 20.25, 8, 4, 1.25, class_id=1),
             OrientedBox(100, 50, 30, 12, 5.5, class_id=0)]
    path = tmp_path / "scene.txt"
    save_annotations(path, boxes)
    assert path.read_text().splitlines() == [
        "# cx cy w h theta class_id",
        "10.500000 20.250000 8.000000 4.000000 1.250000000 1",
        "100.000000 50.000000 30.000000 12.000000 5.500000000 0"]


def _all_pairs(boxes):
    i, j = np.meshgrid(np.arange(len(boxes)), np.arange(len(boxes)),
                       indexing="ij")
    return i.ravel(), j.ravel()


def _kernel(boxes, subj, clip):
    polys, areas, centers, _ = stack(boxes)
    return iou_pairs(polys, centers, areas, subj, clip)


class TestIouKernel:
    @given(st.lists(box_st, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_box_polygons_bitwise(self, boxes):
        """A box's row does not depend on the other boxes in the list."""
        want = np.reshape([box_to_polygon(b) for b in boxes], (-1, 4, 2))
        assert np.array_equal(polygons(boxes), want)

    @given(st.lists(box_st, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar(self, boxes):
        i, j = _all_pairs(boxes)
        want = [_reference_iou(boxes[a], boxes[b]) for a, b in zip(i, j)]
        np.testing.assert_allclose(_kernel(boxes, i, j), want,
                                   rtol=0, atol=KERNEL_TOL)

    @given(box_st, box_st)
    @settings(max_examples=40, deadline=None)
    def test_matches_raster_oracle(self, a, b):
        got = _kernel([a, b], np.array([0]), np.array([1]))[0]
        assert abs(got - raster_iou_oracle(a, b, 256)) <= 1e-2

    @given(st.lists(box_st, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_pair_independent_of_chunk(self, boxes):
        i, j = _all_pairs(boxes)
        whole = _kernel(boxes, i, j)
        with mock.patch.object(geometry, "IOU_CHUNK", 3):
            chunked = _kernel(boxes, i, j)
        single = [_kernel(boxes, i[k:k + 1], j[k:k + 1])[0]
                  for k in range(len(i))]
        assert np.array_equal(whole, chunked)
        assert np.array_equal(whole, single)

    @given(st.lists(box_st, max_size=6), st.lists(box_st, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_iou_matrix_matches_scalar(self, subjects, clippers):
        got = iou_matrix(subjects, clippers)
        assert got.shape == (len(subjects), len(clippers))
        want = [[_reference_iou(s, c) for c in clippers] for s in subjects]
        np.testing.assert_allclose(got, np.reshape(want, got.shape),
                                   rtol=0, atol=KERNEL_TOL)

    @given(box_st, box_st, st.sampled_from([1e4, 1e6, 1e8]),
           st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_far_from_origin(self, a, b, t, sx, sy):
        """Moving a pair far from the origin keeps its IoU: the kernel
        clips each pair in its own frame, so a small box's area does not
        cancel away. NMS keeps one of two identical far boxes."""
        def moved(box, score=1.0):
            return OrientedBox(box.cx + sx * t, box.cy + sy * t, box.w,
                               box.h, box.theta, score=score)

        assert abs(rotated_iou(moved(a), moved(b))
                   - _reference_iou(a, b)) <= 1e-6
        far = moved(a)
        assert rotated_iou(far, far) == pytest.approx(1.0, abs=1e-6)
        assert rotated_nms([moved(a, 0.5), far], 0.5) == [far]

    @given(box_st, box_st, st.sampled_from([1e4, 1e8, 1e12]),
           st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_exact_shift_keeps_bits(self, a, b, t, sx, sy):
        """Centers that are integer multiples of ulp(t) move by t exactly
        and keep their difference exactly, so the pair's IoU and NMS's
        kept list are bit for bit those near the origin."""
        u = math.ulp(t)

        def snapped(box, dx=0.0, dy=0.0, score=1.0):
            cx, cy = round(box.cx / u) * u, round(box.cy / u) * u
            assert (cx + dx) - dx == cx and (cy + dy) - dy == cy
            return OrientedBox(cx + dx, cy + dy, box.w, box.h, box.theta,
                               score=score)

        near = [snapped(a), snapped(b, score=0.5)]
        far = [snapped(a, sx * t, sy * t), snapped(b, sx * t, sy * t, 0.5)]
        assert np.array_equal(iou_matrix(far, far), iou_matrix(near, near))
        for threshold in (0.0, 0.3, 0.7):
            assert [far.index(k) for k in rotated_nms(far, threshold)] == \
                [near.index(k) for k in rotated_nms(near, threshold)]

    @pytest.mark.parametrize("center", [(10.0, 10.0), (1e6, -1e6)])
    @pytest.mark.parametrize("size", [1e-15, 1e-30, 1e-50, 1e-100])
    def test_tiny_box_against_itself(self, center, size):
        """A box whose sides are far below its center's ulp rates 1
        against itself, and NMS drops its duplicate: absolute corners
        collapsed such a box to a point, which rated 0."""
        box = OrientedBox(*center, 2 * size, size, 0.3)
        twin = OrientedBox(*center, 2 * size, size, 0.3, score=0.5)
        assert rotated_iou(box, box) == pytest.approx(1.0, abs=1e-12)
        assert rotated_nms([twin, box], 0.5) == [box]

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0.5, 100),
           st.floats(0.5, 100), st.floats(0, 2 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_one_ulp_neighbours_rate_one(self, cx, cy, w, h, theta):
        """A box rates at least 1 - 1e-9 against each box one ulp away, in
        both orders: cx or cy moved by nextafter, theta by one ulp, w or h
        scaled by 1 +- 2**-52. Their edges are near-parallel and all but
        coincide, and a kernel that classifies each such edge in or out on
        its own can count the shared boundary twice or not at all."""
        box = OrientedBox(cx, cy, w, h, theta)
        cx, cy, w, h, theta = box.cx, box.cy, box.w, box.h, box.theta
        neighbours = []
        for to in (-np.inf, np.inf):
            neighbours += [
                OrientedBox(float(np.nextafter(cx, to)), cy, w, h, theta),
                OrientedBox(cx, float(np.nextafter(cy, to)), w, h, theta),
                OrientedBox(cx, cy, w, h, float(np.nextafter(theta, to)))]
        for scale in (1 - 2.0**-52, 1 + 2.0**-52):
            neighbours += [OrientedBox(cx, cy, w * scale, h, theta),
                           OrientedBox(cx, cy, w, h * scale, theta)]
        for near in neighbours:
            assert rotated_iou(box, near) >= 1 - 1e-9, near
            assert rotated_iou(near, box) >= 1 - 1e-9, near

    @given(st.integers(2, 8), st.lists(
        st.tuples(st.integers(0, 2), st.lists(MAGNITUDES, min_size=4,
                                              max_size=4)),
        min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_shoelace_zero_below_three_vertices(self, width, rows):
        """A row of 0, 1 or 2 vertices, its unused slots zero as
        _clip_pairs leaves them, has area exactly 0: the formula's two
        sums add the same products in swapped order. iou_pairs takes the
        area of every row with no vertex-count guard."""
        x, y = np.zeros((len(rows), width)), np.zeros((len(rows), width))
        for p, (count, v) in enumerate(rows):
            x[p, :count], y[p, :count] = v[:count], v[2:2 + count]
        counts = np.array([count for count, _ in rows])
        assert geometry._shoelace(x, y, counts).tolist() == [0.0] * len(rows)

    def test_identical_and_disjoint(self):
        a = OrientedBox(2, 3, 4, 2, 0.5)
        b = OrientedBox(20, 3, 4, 2, 0.5)
        got = iou_matrix([a, b], [a, b])
        assert got[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert got[0, 1] == 0.0 and got[1, 0] == 0.0

    def test_empty(self):
        assert iou_matrix([], []).shape == (0, 0)
        assert _kernel([], np.array([], dtype=int),
                       np.array([], dtype=int)).shape == (0,)


THRESHOLDS = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0])


def _scattered_boxes():
    """200 boxes over a 60 x 60 field: NMS runs four blocks of 64."""
    rng = np.random.default_rng(11)
    return [OrientedBox(rng.uniform(0, 60), rng.uniform(0, 60),
                        rng.uniform(4, 16), rng.uniform(4, 16),
                        rng.uniform(0, 2 * math.pi),
                        class_id=int(rng.integers(2)),
                        score=float(rng.uniform()))
            for _ in range(200)]


class TestBatchedNms:
    @pytest.mark.parametrize("block", [1, 3, 64])
    @given(box_lists(), THRESHOLDS)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, block, boxes, threshold):
        assume(decisive(itertools.permutations(boxes, 2), threshold))
        with mock.patch.object(geometry, "NMS_BLOCK", block):
            assert rotated_nms(boxes, threshold) == \
                _reference_nms(boxes, threshold)

    def test_matches_reference_many_blocks(self):
        boxes = _scattered_boxes()
        assert rotated_nms(boxes, 0.3) == _reference_nms(boxes, 0.3)

    @given(box_lists(), THRESHOLDS)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, boxes, threshold):
        kept = rotated_nms(boxes, threshold)
        assert rotated_nms(kept, threshold) == kept

    @given(box_lists(), THRESHOLDS, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_input_order_independent(self, boxes, threshold, rnd):
        # the tie-break key orders boxes fully unless two distinct boxes
        # share it
        key = {(b.score, b.class_id, b.cx, b.cy) for b in boxes}
        assume(len(key) == len(set(boxes)))
        shuffled = list(boxes)
        rnd.shuffle(shuffled)
        assert rotated_nms(shuffled, threshold) == \
            rotated_nms(boxes, threshold)

    def test_empty(self):
        assert rotated_nms([], 0.5) == []

    def test_threshold_one_keeps_everything(self):
        b = OrientedBox(0, 0, 2, 1, 0.3, score=0.9)
        kept = rotated_nms([b, b, OrientedBox(0.1, 0, 2, 1, 0.3, score=0.5)],
                           1.0)
        assert len(kept) == 3

    @pytest.mark.parametrize("threshold", [1.0, 2.0, 1e308, math.inf])
    def test_threshold_above_one_keeps_everything(self, threshold):
        """No kernel IoU exceeds 1, so the ordered list returns without a
        kernel call."""
        boxes = [OrientedBox(0, 0, 2, 2, 0), OrientedBox(0.5, 0, 2, 2, 0)]
        calls = []

        def counting(polys, centers, areas, subj, clip):
            calls.append(len(subj))
            return iou_pairs(polys, centers, areas, subj, clip)

        with mock.patch.object(geometry, "iou_pairs", counting):
            assert rotated_nms(boxes, threshold) == boxes
        assert calls == []

    def test_threshold_zero_drops_any_overlap(self):
        a = OrientedBox(0, 0, 2, 2, 0, score=0.9)
        overlapping = OrientedBox(1.9, 0, 2, 2, 0.2, score=0.8)
        apart = OrientedBox(10, 0, 2, 2, 0, score=0.7)
        assert rotated_nms([apart, overlapping, a], 0.0) == [a, apart]

    def test_equal_scores_break_ties_by_class_then_position(self):
        boxes = [OrientedBox(cx, 0, 2, 2, 0, class_id=cls, score=0.5)
                 for cx, cls in ((20, 0), (10, 1), (0, 1), (30, 0))]
        assert [(b.class_id, b.cx) for b in rotated_nms(boxes, 0.5)] == \
            [(0, 20.0), (0, 30.0), (1, 0.0), (1, 10.0)]

    def test_negative_threshold_keeps_only_the_first(self):
        boxes = [OrientedBox(0, 0, 1, 1, 0, score=0.4),
                 OrientedBox(50, 0, 1, 1, 0, score=0.8)]
        assert rotated_nms(boxes, -0.1) == [boxes[1]]

    def test_nan_threshold_keeps_everything(self):
        """No IoU exceeds NaN, so even a box's exact copy survives; a
        negative threshold, which every IoU exceeds, keeps only the top.
        Neither calls the kernel."""
        b = OrientedBox(0, 0, 2, 2, 0.3, score=0.5)
        boxes = [b, OrientedBox(0.5, 0, 2, 2, 0, score=0.9), b,
                 OrientedBox(50, 0, 1, 1, 0, score=0.7)]
        ordered = [boxes[1], boxes[3], b, b]
        with mock.patch.object(geometry, "iou_pairs",
                               side_effect=AssertionError("kernel called")):
            assert rotated_nms(boxes, math.nan) == ordered
            assert rotated_nms(boxes, -0.1) == ordered[:1]


# Distances from the origin and box scales at which absolute corners of
# small boxes would be rounded coarsely (at 1e12 a coordinate's ulp is
# 1.2e-4); the kernel and the bound measure each pair in its own frame.
FAR = st.sampled_from([1e4, 1e8, 1e12])
SCALES = st.sampled_from([1e-3, 1e-2, 1.0, 10.0])
SIGNS = st.sampled_from([-1.0, 1.0])


@st.composite
def far_box_lists(draw):
    """box_lists() plus narrowed copies of some of its boxes, whose IoU
    bound is tight, scaled down or up and moved far from the origin."""
    t, s, sx, sy = draw(FAR), draw(SCALES), draw(SIGNS), draw(SIGNS)
    boxes = draw(box_lists())
    if boxes:
        boxes += [OrientedBox(b.cx, b.cy, b.w * draw(st.floats(0.2, 1.0)),
                              b.h, b.theta, b.class_id, draw(SCORES))
                  for b in draw(st.lists(st.sampled_from(boxes), max_size=4))]
    return [OrientedBox(sx * t + s * b.cx, sy * t + s * b.cy, s * b.w,
                        s * b.h, b.theta, b.class_id, b.score)
            for b in boxes]


@st.composite
def far_near_duplicates(draw):
    """A box and a copy of it moved, resized and turned by up to 5%, both
    far from the origin, with sizes down to 1e-3."""
    t, s, sx, sy = draw(FAR), draw(SCALES), draw(SIGNS), draw(SIGNS)
    b = draw(box_st)
    a = OrientedBox(sx * t + s * b.cx, sy * t + s * b.cy, s * b.w, s * b.h,
                    b.theta)
    d = [draw(st.floats(-0.05, 0.05)) for _ in range(5)]
    return a, OrientedBox(a.cx + s * d[0], a.cy + s * d[1], a.w * (1 + d[2]),
                          a.h * (1 + d[3]), a.theta + d[4])


@st.composite
def tied_box_lists(draw):
    """box_lists() or far_box_lists() rebuilt with ties in NMS's sort key:
    scores from four values, 0.0 and -0.0 among them, class ids 0 or 1,
    and each center's x drawn from the list's own."""
    boxes = draw(st.one_of(box_lists(), far_box_lists()))
    xs = st.sampled_from([b.cx for b in boxes] or [0.0])
    scores = st.sampled_from([0.0, -0.0, 0.5, 1.0])
    return [OrientedBox(draw(xs), b.cy, b.w, b.h, b.theta,
                        draw(st.integers(0, 1)), draw(scores))
            for b in boxes]


def _bound_holds(boxes, subj, clip):
    """Per pair with a nonzero kernel IoU: whether the NMS bound lets it
    through at the largest threshold below that IoU, which holds while
    the bound is at least the kernel IoU less 1e-9."""
    polys, areas, centers, _ = stack(boxes)
    iou = iou_pairs(polys, centers, areas, subj, clip)
    pos = iou > 0.0
    below = np.nextafter(iou[pos], -1.0)
    return geometry._may_exceed(np.abs(polys).max(axis=1), centers, areas,
                                subj[pos], clip[pos], below)


class TestNmsBound:
    @given(st.one_of(raster_pairs(), far_near_duplicates()))
    @settings(max_examples=300, deadline=None)
    def test_bound_covers_kernel(self, pair):
        """Touching, quarter-turned, identical and nested pairs, and near
        duplicates far from the origin, in both clip orders."""
        assert _bound_holds(list(pair), np.array([0, 1]),
                            np.array([1, 0])).all()

    @pytest.mark.parametrize("t", [1e4, 1e8, 1e12])
    def test_bound_covers_kernel_seeded_sweep(self, t):
        rng = np.random.default_rng(int(math.log10(t)))
        boxes = []
        for _ in range(1000):
            s = 10 ** rng.uniform(-3, 1)
            a = OrientedBox(t + s * rng.uniform(-1, 1),
                            -t + s * rng.uniform(-1, 1),
                            s * rng.uniform(0.5, 2), s * rng.uniform(0.5, 2),
                            rng.uniform(0, 2 * math.pi))
            d = rng.uniform(-0.05, 0.05, 5)
            boxes += [a, OrientedBox(a.cx + s * d[0], a.cy + s * d[1],
                                     a.w * (1 + d[2]), a.h * (1 + d[3]),
                                     a.theta + d[4])]
        first = np.arange(0, len(boxes), 2)
        subj = np.concatenate([first, first + 1])
        clip = np.concatenate([first + 1, first])
        assert _bound_holds(boxes, subj, clip).all()

    def test_far_pair_rated_exactly(self):
        """Two 1e-3 boxes at 1e12 whose IoU is 5/6: absolute corners there
        are rounded at 1.2e-4, which rated the pair 0.9446 and let NMS at
        0.9 drop one box. In the pair's own frame it rates 5/6, the bound
        covers it, and NMS keeps both."""
        a = OrientedBox(1e12, 0, 1e-3, 1e-3, 0.5)
        b = OrientedBox(1e12, 0, 1.2e-3, 1e-3, 0.5, score=0.5)
        assert rotated_iou(b, a) == pytest.approx(5 / 6, rel=0, abs=1e-12)
        assert rotated_iou(a, b) == pytest.approx(5 / 6, rel=0, abs=1e-12)
        assert _bound_holds([a, b], np.array([1, 0]), np.array([0, 1])).all()
        assert rotated_nms([a, b], 0.9) == [a, b]

    @pytest.mark.parametrize("block", [1, 3, 64])
    @given(st.one_of(box_lists(), far_box_lists()),
           st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_unpruned(self, block, boxes, threshold):
        """Both paths share the kernel, so the bound may only skip pairs
        that would not suppress: the kept lists are identical."""
        with mock.patch.object(geometry, "NMS_BLOCK", block):
            assert rotated_nms(boxes, threshold) == \
                _unpruned_nms(boxes, threshold)

    @pytest.mark.parametrize("threshold", [0.3, 0.5])
    def test_matches_unpruned_far_seeded(self, threshold):
        """Boxes of 1e-3 at 1e12 with narrowed copies: their bounds are
        tight, and absolute corners there would be rounded at 1.2e-4."""
        rng = np.random.default_rng(5)
        for _ in range(150):
            boxes = [OrientedBox(rng.uniform(-8, 8), rng.uniform(-8, 8),
                                 rng.uniform(0.5, 6), rng.uniform(0.5, 6),
                                 rng.uniform(0, 2 * math.pi),
                                 score=float(rng.uniform()))
                     for _ in range(rng.integers(1, 8))]
            boxes += [OrientedBox(b.cx, b.cy, b.w * rng.uniform(0.2, 1),
                                  b.h, b.theta, score=float(rng.uniform()))
                      for b in boxes]
            boxes = [OrientedBox(1e12 + 1e-3 * b.cx, 1e12 + 1e-3 * b.cy,
                                 1e-3 * b.w, 1e-3 * b.h, b.theta,
                                 score=b.score) for b in boxes]
            assert rotated_nms(boxes, threshold) == \
                _unpruned_nms(boxes, threshold)

    def test_bound_skips_pairs(self):
        """The kernel sees fewer pairs than the circle test passes: a bound
        that let every pair through would still pass the tests above."""
        boxes = _scattered_boxes()
        sent = []

        def counting(polys, centers, areas, subj, clip):
            sent.append(len(subj))
            return iou_pairs(polys, centers, areas, subj, clip)

        with mock.patch.object(geometry, "iou_pairs", counting):
            kept = rotated_nms(boxes, 0.3)
            pruned = sum(sent)
            sent.clear()
            assert _unpruned_nms(boxes, 0.3) == kept
            unpruned = sum(sent)
        assert pruned < unpruned


# The boxes rotated_nms keeps at 0.3 from the decoded boxes of the
# benchmark's seed-1 `detect` scenes, recorded with OpenBLAS's SkylakeX
# kernel at 2 threads. The head convs' bits move with the BLAS kernel and
# thread count: against that record, the largest field drift was 7.6e-7
# at 1 thread and 1.8e-5 under OPENBLAS_CORETYPE=Haswell, and the IoU of
# a pair near the threshold moved by at most 8.3e-7. Fields are compared
# within PIN_FIELD_TOL (px, rad and score), and no pair that decides the
# kept set may have an IoU within PIN_IOU_MARGIN of the threshold, so a
# pin that passes holds under any of those settings. The smallest margin
# of a deciding pair recorded is 1.8e-5; scene 100000 also has a pair at
# 0.3 - 3.9e-6 whose box another kept box suppresses at IoU 0.54.
PINNED_DETECT = Path(__file__).parent / "data" / "detect_kept.txt"
PIN_FIELD_TOL = 1e-4
PIN_IOU_MARGIN = 5e-6


def _pinned_detect() -> dict[int, np.ndarray]:
    rows = np.loadtxt(PINNED_DETECT)
    return {int(seed): rows[rows[:, 0] == seed, 1:]
            for seed in np.unique(rows[:, 0])}


def _near_deciding_pairs(iou, later):
    """The (box, kept box) pairs, as row and column indices of ``iou``
    (boxes in score order by kept boxes), whose IoU lies within
    PIN_IOU_MARGIN of 0.3 while no earlier kept box suppresses the box by
    more than the margin. Taking the boxes in score order, a box suppressed
    by more than the margin stays suppressed, and one with no pair within
    the margin keeps its decision, so while no such pair exists every
    IoU may move by less than the margin and NMS keeps the same set."""
    suppressed = (later & (iou > 0.3 + PIN_IOU_MARGIN)).any(axis=1)
    near = later & (abs(iou - 0.3) <= PIN_IOU_MARGIN)
    return np.nonzero(near & ~suppressed[:, np.newaxis])


class TestNmsWaves:
    @pytest.mark.parametrize("block", [1, 3, 64])
    @given(st.one_of(box_lists(), far_box_lists()),
           st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, math.nan, -0.5]))
    @settings(max_examples=60, deadline=None)
    def test_matches_blocked(self, block, boxes, threshold):
        """Waves and blocks send each pair to the kernel in the same
        order, so the kept lists are identical, not merely close."""
        with mock.patch.object(geometry, "NMS_BLOCK", block):
            assert rotated_nms(boxes, threshold) == \
                _blocked_nms(boxes, threshold)

    @given(tied_box_lists())
    @settings(max_examples=150, deadline=None)
    def test_order_matches_python_sort(self, boxes):
        """At threshold 1 NMS returns its lexsort order: box for box the
        Python sort's, boxes equal in the whole key included, which both
        leave in input order."""
        assert list(map(id, rotated_nms(boxes, 1.0))) == \
            list(map(id, _score_order(boxes)))

    def test_fewer_kernel_calls(self):
        """A wave's survivors filter every later box in one call, where
        the blocks made two calls per block of 64."""
        boxes = _scattered_boxes()
        calls = []

        def counting(polys, centers, areas, subj, clip):
            calls.append(len(subj))
            return iou_pairs(polys, centers, areas, subj, clip)

        with mock.patch.object(geometry, "iou_pairs", counting):
            kept = rotated_nms(boxes, 0.3)
            waves = len(calls)
            calls.clear()
            assert _blocked_nms(boxes, 0.3) == kept
            blocks = len(calls)
        assert waves < blocks

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_no_kernel_call_on_an_empty_rest(self, n):
        """A wave that takes the last rows leaves no later row to filter,
        and makes no call for it: one wave of n <= NMS_BLOCK boxes makes
        the one call within its block."""
        boxes = _scattered_boxes()[:n]
        calls = []

        def counting(polys, centers, areas, subj, clip):
            calls.append(len(subj))
            return iou_pairs(polys, centers, areas, subj, clip)

        with mock.patch.object(geometry, "iou_pairs", counting):
            rotated_nms(boxes, 0.3)
        assert len(calls) == 1

    @pytest.mark.parametrize("block", [1, 64])
    def test_touching_pair_with_no_box_overlap(self, block):
        """A pair whose bounding boxes do not overlap rates 0 in both clip
        orders. Absolute corners rated this touching pair 5e-20 in one
        order, and NMS at threshold 0 dropped a box for it. Now it keeps
        both, whether the pair meets inside a wave (block 64) or in a
        wave's filter (block 1); the bound still passes m = 0 pairs at
        threshold 0."""
        a = OrientedBox(-28.12128217765281, -4.174785503512246,
                        12.434099597092574, 9.282443245683297, math.pi / 2,
                        score=0.5)
        b = OrientedBox(-33.513628247351335, -11.999210336674352,
                        16.727495476791763, 1.2471457941228206,
                        4.697129181944884)
        polys, areas, centers, _ = stack([a, b])
        half = np.abs(polys).max(axis=1)
        d = np.abs(centers[0] - centers[1])
        assert half[0][0] + half[1][0] <= d[0]
        subj, clip = np.array([0]), np.array([1])
        assert iou_pairs(polys, centers, areas, subj, clip)[0] == 0.0
        assert iou_pairs(polys, centers, areas, clip, subj)[0] == 0.0
        assert geometry._may_exceed(half, centers, areas, subj, clip,
                                    0.0).all()
        with mock.patch.object(geometry, "NMS_BLOCK", block):
            assert rotated_nms([a, b], 0.0) == [b, a]

    def test_detect_kept_boxes_pinned(self):
        """The kept set of each pinned scene: its count, class ids and
        fields, matched as a set, since near ties may swap places."""
        cfg = load_config()
        weights = NetworkWeights.create(np.random.default_rng(cfg.data_seed),
                                        cfg.network, dtype=np.float32)
        for seed, want in _pinned_detect().items():
            image, _ = gen_scene(seed, cfg.scene, cfg.canvas)
            with no_recording():
                _, head = assemble_forward(
                    Tensor(image.data[np.newaxis], dtype=np.float32), weights)
            boxes = list(decode_boxes(head, cfg.network,
                                      cfg.score_threshold))
            kept = rotated_nms(boxes, 0.3)
            ordered = _score_order(boxes)
            rank = {id(b): k for k, b in enumerate(ordered)}
            kept_rank = np.array([rank[id(b)] for b in kept])
            iou = iou_matrix(ordered, kept)
            later = np.arange(len(ordered))[:, np.newaxis] > kept_rank
            near = _near_deciding_pairs(iou, later)
            assert not len(near[0]), (
                f"scene {seed}: (box, kept box) pairs in score order "
                f"{list(zip(near[0].tolist(), kept_rank[near[1]].tolist()))} "
                f"have IoU "
                f"{iou[near]} within {PIN_IOU_MARGIN} of 0.3")
            got = np.array([(b.cx, b.cy, b.w, b.h, b.theta, b.score,
                             b.class_id) for b in kept]).reshape(-1, 7)
            assert len(got) == len(want), f"scene {seed}"
            assert sorted(got[:, 6]) == sorted(want[:, 6]), f"scene {seed}"
            d = abs(want[:, np.newaxis, :6] - got[:, :6])
            d[..., 4] = np.minimum(d[..., 4], 2 * math.pi - d[..., 4])
            close = ((d <= PIN_FIELD_TOL).all(axis=2)
                     & (want[:, np.newaxis, 6] == got[:, 6]))
            unmatched = np.nonzero(close.sum(axis=1) != 1)[0]
            assert not len(unmatched) and (close.sum(axis=0) == 1).all(), (
                f"scene {seed}: pinned boxes {unmatched} do not match "
                f"exactly one kept box within {PIN_FIELD_TOL}")

    @pytest.mark.parametrize("n, kept_rank, pairs, flagged", [
        # box 1 kept, or suppressed, by 3.9e-6: the pair decides
        (2, [0, 1], {(1, 0): 0.3 - 3.9e-6}, [(1, 0)]),
        (2, [0], {(1, 0): 0.3 + 3.9e-6}, [(1, 0)]),
        # box 2 is suppressed by kept box 1 whatever its IoU with box 0
        (3, [0, 1], {(2, 0): 0.3 - 3.9e-6, (2, 1): 0.3 + 2 * PIN_IOU_MARGIN},
         []),
        # ... but not at the margin itself
        (3, [0, 1], {(2, 0): 0.3 - 3.9e-6, (2, 1): 0.3 + PIN_IOU_MARGIN},
         [(2, 0), (2, 1)]),
        # a kept box after box 1 suppresses nothing of it
        (3, [0, 2], {(1, 0): 0.3 + 3.9e-6, (1, 1): 0.9}, [(1, 0)]),
    ])
    def test_near_pair_guard(self, n, kept_rank, pairs, flagged):
        """The detect pin's guard flags a near pair exactly when it can
        decide whether its box is kept."""
        iou = np.zeros((n, len(kept_rank)))
        for at, value in pairs.items():
            iou[at] = value
        later = np.arange(n)[:, np.newaxis] > np.array(kept_rank)
        rows, cols = _near_deciding_pairs(iou, later)
        assert list(zip(rows.tolist(), cols.tolist())) == flagged

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="OPENBLAS_CORETYPE=Haswell names an x86-64 "
                               "kernel")
    @pytest.mark.parametrize("env", [{"OPENBLAS_NUM_THREADS": "1"},
                                     {"OPENBLAS_CORETYPE": "Haswell"}],
                             ids=["1-thread", "haswell"])
    def test_detect_pin_holds_under_other_blas(self, env):
        """The detect pin, the small-forward pins and the reference-ops
        comparison in a child process whose BLAS runs on one thread, or on
        the kernel an AVX2-only CPU gets; OpenBLAS reads both variables only
        when it loads."""
        tests = [f"tests/{Path(__file__).name}::TestNmsWaves::"
                 "test_detect_kept_boxes_pinned",
                 "tests/test_pyramid.py::test_seeded_small_forward_pinned",
                 "tests/test_pyramid.py::"
                 "test_forward_and_gradients_match_reference_ops"]
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *tests],
            cwd=Path(__file__).parents[1], env={**os.environ, **env},
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0 and "\n4 passed " in proc.stdout, \
            proc.stdout[-4000:] + proc.stderr[-2000:]


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


class TestAxisLayouts:
    """The candidate tests and the clip kernel compute on x and y arrays
    apart, element for element as the pair layouts did: the same bytes."""

    LISTS = st.one_of(box_lists(), far_box_lists(), raster_pairs().map(list))

    @given(LISTS, st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_candidate_tests_match_pair_layout(self, boxes, threshold):
        polys, areas, centers, radii = stack(boxes)
        half = np.abs(polys).max(axis=1)
        rows = np.arange(len(boxes))
        for got, want in zip(
                geometry._near_pairs(centers, radii, rows, rows[::-1]),
                _pair_near_pairs(centers, radii, rows, rows[::-1])):
            assert _same_bytes(got, want)
        a, b = _all_pairs(boxes)
        assert _same_bytes(
            geometry._may_exceed(half, centers, areas, a, b, threshold),
            _pair_may_exceed(half, centers, areas, a, b, threshold))

    @given(LISTS)
    @settings(max_examples=150, deadline=None)
    def test_clip_and_shoelace_match_pair_layout(self, boxes):
        polys, _, centers, _ = stack(boxes)
        a, b = _all_pairs(boxes)
        subject = polys[a] + (centers[a] - centers[b])[:, np.newaxis]
        verts, counts = _pair_clip_pairs(subject, polys[b])
        x, y, got_counts = geometry._clip_pairs(
            subject[..., 0], subject[..., 1], polys[b][..., 0],
            polys[b][..., 1])
        assert _same_bytes(got_counts, counts)
        assert _same_bytes(x, verts[..., 0]) and _same_bytes(y, verts[..., 1])
        assert _same_bytes(geometry._shoelace(x, y, got_counts),
                           _pair_shoelace(verts, counts))


# Raw field values OrientedBox accepts or rejects: signed zeros, the least
# and largest magnitudes and the floats just past them, far centers and
# angles, and non-finite values; RAW_VALUES adds ints no float holds, which
# a BoxTable, built from float arrays, never meets.
RAW_FLOATS = st.sampled_from([
    0.0, -0.0, 1e-100, math.nextafter(1e-100, 0.0), 1e100, -1e100,
    math.nextafter(1e100, math.inf), -1.5e100, 1e12, -1e-20, 2 * math.pi, 1e6,
    math.inf, -math.inf, math.nan])
RAW_VALUES = RAW_FLOATS | st.sampled_from([10 ** 400, -10 ** 400])


@st.composite
def raw_rows(draw, raw=RAW_VALUES):
    """Rows (cx, cy, w, h, theta, score, class id) of raw box fields, each
    ordinary or drawn from ``raw``; about half have w < h."""
    value = st.one_of(st.floats(-10, 10), raw)
    return [[draw(value) for _ in range(6)] + [draw(st.integers(0, 3))]
            for _ in range(draw(st.integers(0, 8)))]


def _table(rows):
    """A BoxTable of raw (cx, cy, w, h, theta, score, class id) rows."""
    return geometry.BoxTable(*np.reshape(rows, (-1, 7)).astype(float).T)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int no float holds
        return False


def _reference_box(cx, cy, w, h, theta, score, class_id):
    """The box rule and canonical form as OrientedBox.__post_init__ stated
    them before geometry.BOX_RULES and _canonical, kept as their oracle:
    the canonical fields, or the ValueError naming the first failing field
    in field order. An int past float range is not finite."""
    bound = geometry.MAX_BOX_COORD
    for name, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h),
                        ("theta", theta), ("score", score)):
        if not _finite(value):
            raise ValueError(f"box {name} must be finite, got {value}")
        if name not in ("theta", "score") and abs(value) > bound:
            raise ValueError(f"box {name} must be at most {bound:g} in "
                             f"magnitude, got {value}")
        if name in ("w", "h") and value < 1 / bound:
            raise ValueError(f"box {name} must be at least {1 / bound:g}, "
                             f"got {value}")
    if w < h:
        w, h = h, w
        theta += 0.5 * math.pi
    return SimpleNamespace(cx=float(cx), cy=float(cy), w=float(w),
                           h=float(h), theta=float(angle.wrap(theta)),
                           class_id=class_id, score=score)


def _accepted(rows):
    """The reference box of each raw row that the reference accepts."""
    out = []
    for row in rows:
        try:
            out.append(_reference_box(*row))
        except ValueError:
            pass
    return out


def _records(boxes):
    """Every field of each box, floats as float.hex."""
    return [(b.cx.hex(), b.cy.hex(), b.w.hex(), b.h.hex(), b.theta.hex(),
             float(b.score).hex(), b.class_id) for b in boxes]


class TestBoxRules:
    @given(raw_rows())
    @example([[math.nan, 1e101, -1.0, math.inf, math.nan, math.inf, 0],
              [0.0, -1e101, 0.0, 5e-324, 1e6, math.nan, 1],
              [1.0, 2.0, 1e-200, -math.inf, 0.5, 0.5, 2],
              [1.0, 2.0, 3.0, 4.0, -1e-20, math.inf, 3],
              [1.0, 2.0, -1.5e100, -1.5e100, 0.0, 0.5, 0]])
    @settings(max_examples=300, deadline=None)
    def test_oriented_box_matches_reference(self, rows):
        """OrientedBox keeps exactly the raw rows the reference keeps, with
        its fields bit for bit, and rejects the others with its message,
        however many of their fields are bad."""
        for cx, cy, w, h, theta, score, cls in rows:
            try:
                want = _reference_box(cx, cy, w, h, theta, score, cls)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    OrientedBox(cx, cy, w, h, theta, cls, score)
                assert str(got.value) == str(exc)
            else:
                assert _records([OrientedBox(cx, cy, w, h, theta, cls,
                                             score)]) == _records([want])

    @pytest.mark.parametrize("field", ["cx", "cy", "w", "h", "theta", "score"])
    def test_int_past_float_range_overflows(self, field):
        """An int field that overflows a float fails the finite rule with
        the reference's ValueError, which names the field, and not with
        float()'s bare OverflowError. An int too long for Python to print
        ends in a ValueError too."""
        kwargs = dict(cx=0.0, cy=0.0, w=2.0, h=1.0, theta=0.0, score=1.0,
                      class_id=0)
        kwargs[field] = 10 ** 400
        with pytest.raises(ValueError) as want:
            _reference_box(**kwargs)
        with pytest.raises(ValueError) as got:
            OrientedBox(**kwargs)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"box {field} must be finite, got ")
        kwargs[field] = -10 ** 5000
        with pytest.raises(ValueError):
            OrientedBox(**kwargs)


class TestBoxTable:
    @given(raw_rows(RAW_FLOATS))
    @settings(max_examples=300, deadline=None)
    def test_keeps_and_canonicalizes_as_oriented_box(self, rows):
        """The table keeps the rows the reference box rule accepts, in
        order, with its canonical fields, and its rows are those boxes'
        _columns rows."""
        table, want = _table(rows), _accepted(rows)
        assert _records(table) == _records(want)
        assert _same_bytes(geometry._columns(table), geometry._columns(want))

    @given(box_lists(), st.sampled_from([0.0, 0.3, 0.5, 1.0, -0.5]))
    @settings(max_examples=100, deadline=None)
    def test_nms_on_table_matches_list(self, boxes, threshold):
        table = _table([(b.cx, b.cy, b.w, b.h, b.theta, b.score, b.class_id)
                        for b in boxes])
        assert list(table) == boxes
        assert _records(rotated_nms(table, threshold)) == \
            _records(rotated_nms(list(table), threshold))

    @given(raw_rows(RAW_FLOATS), st.none() | st.integers(-10, 10),
           st.none() | st.integers(-10, 10),
           st.none() | st.integers(-4, 4).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_slices_as_its_list(self, rows, start, stop, step):
        table = _table(rows)
        got = table[start:stop:step]
        assert isinstance(got, list)
        assert _records(got) == _records(list(table)[start:stop:step])

    def test_nms_on_detect_tables(self):
        """On the pinned detect scenes NMS keeps the same records from the
        decoded table as from its boxes, at 0.3, at 1 (every row) and below
        0 (the first row); an empty table keeps nothing."""
        cfg = load_config()
        weights = NetworkWeights.create(np.random.default_rng(cfg.data_seed),
                                        cfg.network, dtype=np.float32)
        for seed in _pinned_detect():
            image, _ = gen_scene(seed, cfg.scene, cfg.canvas)
            with no_recording():
                _, head = assemble_forward(
                    Tensor(image.data[np.newaxis], dtype=np.float32), weights)
            table = decode_boxes(head, cfg.network, cfg.score_threshold)
            for threshold in (0.3, 1.0, -0.1):
                assert _records(rotated_nms(table, threshold)) == \
                    _records(rotated_nms(list(table), threshold)), seed
        empty = decode_boxes(head, cfg.network, 1.0)
        assert len(empty) == 0 and rotated_nms(empty, 0.3) == []
