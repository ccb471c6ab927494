"""Average-precision evaluator against hand-traced fixtures."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rotdet import evalmap
from rotdet.evalmap import (_ap_from_pr, _match_tables, eval_map,
                            eval_map_sweep)
from rotdet.geometry import OrientedBox
from test_geometry import _reference_iou, decisive, iou_matrix


def _box(cx, cy=0.0, cls=0, score=1.0):
    return OrientedBox(cx, cy, 4, 2, 0, class_id=cls, score=score)


def test_perfect_predictions():
    truth = [[_box(0), _box(20, cls=1)], [_box(40)]]
    preds = [[b for b in img] for img in truth]
    mean_ap, per_class = eval_map(preds, truth, 0.5)
    assert mean_ap == pytest.approx(1.0)
    assert per_class == {0: pytest.approx(1.0), 1: pytest.approx(1.0)}


def test_no_images():
    assert eval_map([], []) == (0.0, {})


def test_image_count_checked_before_any_kernel_call():
    with mock.patch.object(evalmap, "iou_matrices") as matrices:
        with pytest.raises(ValueError, match="cover the same images"):
            eval_map([[_box(0)]], [[_box(0)], [_box(1)]])
    matrices.assert_not_called()


def test_no_predictions():
    truth = [[_box(0)], [_box(20)]]
    mean_ap, per_class = eval_map([[], []], truth, 0.5)
    assert mean_ap == 0.0
    assert per_class == {0: 0.0}


def test_hand_traced_five_sixths():
    # 1 class, 2 truths; preds by score: 0.9 TP, 0.8 FP, 0.7 TP
    truth = [[_box(0), _box(50)]]
    preds = [[_box(0, score=0.9), _box(25, score=0.8), _box(50, score=0.7)]]
    mean_ap, per_class = eval_map(preds, truth, 0.5)
    assert per_class[0] == pytest.approx(5.0 / 6.0)
    assert mean_ap == pytest.approx(5.0 / 6.0)


def test_truthless_class_excluded():
    truth = [[_box(0, cls=0)]]
    preds = [[_box(0, cls=0, score=0.9), _box(50, cls=1, score=0.8)]]
    _, per_class = eval_map(preds, truth, 0.5)
    assert set(per_class) == {0}


def test_each_truth_matched_once():
    truth = [[_box(0)]]
    preds = [[_box(0, score=0.9), _box(0.1, score=0.8)]]
    _, per_class = eval_map(preds, truth, 0.5)
    # second detection of the same truth is a false positive: AP stays 1
    # until recall saturates at the first hit
    assert per_class[0] == pytest.approx(1.0)


def test_image_permutation_invariance():
    rng = np.random.default_rng(0)
    truth = [[_box(rng.uniform(0, 100), cls=int(rng.integers(2)))
              for _ in range(3)] for _ in range(4)]
    preds = [[OrientedBox(b.cx + rng.uniform(-1, 1), b.cy, b.w, b.h, b.theta,
                          b.class_id, float(rng.uniform(0.2, 1)))
              for b in img] for img in truth]
    base, _ = eval_map(preds, truth, 0.5)
    perm = [2, 0, 3, 1]
    shuffled, _ = eval_map([preds[i] for i in perm],
                           [truth[i] for i in perm], 0.5)
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_monotone_in_threshold():
    rng = np.random.default_rng(1)
    truth = [[_box(rng.uniform(0, 100)) for _ in range(3)] for _ in range(3)]
    preds = [[OrientedBox(b.cx + rng.uniform(-1.5, 1.5), b.cy, b.w, b.h,
                          b.theta, b.class_id, float(rng.uniform(0.2, 1)))
              for b in img] for img in truth]
    values = [eval_map(preds, truth, t)[0]
              for t in (0.3, 0.5, 0.7, 0.9)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12


def test_sweep_between_extremes():
    truth = [[_box(0), _box(50)]]
    preds = [[_box(0.2, score=0.9), _box(50.1, score=0.8)]]
    swept = eval_map_sweep(preds, truth)
    single, _ = eval_map(preds, truth, 0.5)
    assert 0.0 <= swept <= single


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        eval_map([[]], [[], []], 0.5)


def _reference_eval_map(preds, truth, iou_thresh):
    """The scalar-IoU matching loop eval_map replaced, kept as its oracle."""
    classes = sorted({b.class_id for img in truth for b in img})
    per_class = {}
    for cls in classes:
        n_truth = sum(1 for img in truth for b in img if b.class_id == cls)
        records = [(b.score, idx, b) for idx, img in enumerate(preds)
                   for b in img if b.class_id == cls]
        records.sort(key=lambda r: (-r[0], r[1], r[2].cx, r[2].cy))
        matched = {i: set() for i in range(len(truth))}
        flags = np.zeros(len(records), dtype=np.int64)
        for i, (_, idx, pred) in enumerate(records):
            best_iou, best_j = 0.0, -1
            for j, t in enumerate(truth[idx]):
                if t.class_id != cls or j in matched[idx]:
                    continue
                iou = _reference_iou(pred, t)
                if iou > best_iou:
                    best_iou, best_j = iou, j
            if best_j >= 0 and best_iou >= iou_thresh:
                matched[idx].add(best_j)
                flags[i] = 1
        per_class[cls] = _ap_from_pr(flags, n_truth)
    if not per_class:
        return 0.0, {}
    return float(np.mean(list(per_class.values()))), per_class


@pytest.mark.parametrize("left_first", [True, False])
def test_tie_claims_lower_index(left_first):
    # the first prediction's IoU with either truth is 6 / 10; it claims the
    # first truth in the list, so the second prediction, a copy of that
    # truth, is left only the other at IoU 4 / 12 and misses
    left, right = _box(-1), _box(1)
    truth = [[left, right] if left_first else [right, left]]
    preds = [[_box(0, score=0.9), _box(truth[0][0].cx, score=0.8)]]
    ious = iou_matrix(preds[0][:1], truth[0])
    assert ious[0, 0] == ious[0, 1] == 0.6
    result = eval_map(preds, truth, 0.5)
    assert result == _reference_eval_map(preds, truth, 0.5)
    assert result[1] == {0: 0.5}


def test_zero_iou_claims_nothing_at_threshold_zero():
    # every IoU of the first prediction is 0, which meets the threshold 0.0
    # yet claims nothing; the second then takes the truth it covers
    truth = [[_box(0), _box(20)]]
    preds = [[_box(100, score=0.9), _box(20, score=0.8)]]
    assert not iou_matrix(preds[0][:1], truth[0]).any()
    result = eval_map(preds, truth, 0.0)
    assert result == _reference_eval_map(preds, truth, 0.0)
    assert result[1] == {0: pytest.approx(0.25)}


_scene_box = st.builds(
    OrientedBox, cx=st.floats(0, 30), cy=st.floats(0, 30),
    w=st.floats(2, 10), h=st.floats(2, 10), theta=st.floats(0, 2 * math.pi),
    class_id=st.integers(0, 1), score=st.sampled_from([0.3, 0.6, 0.9]))
_images = st.lists(st.tuples(st.lists(_scene_box, max_size=6),
                             st.lists(_scene_box, max_size=6)),
                   min_size=1, max_size=3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(_images, st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.95]))
@settings(max_examples=100, deadline=None)
def test_matches_scalar_reference(images, iou_thresh):
    preds = [p for p, _ in images]
    truth = [t for _, t in images]
    assume(decisive(((a, b) for p, t in images for a in p for b in t),
                    iou_thresh))
    assert eval_map(preds, truth, iou_thresh) == \
        _reference_eval_map(preds, truth, iou_thresh)


def _reference_match_tables(preds, truth):
    """The table builder _match_tables replaced, kept as its oracle: one
    one-image iou_matrix per image and class, records ordered by a Python
    sort key."""
    classes = sorted({b.class_id for img in truth for b in img})
    tables = {}
    for cls in classes:
        records = []  # (score, image index, IoU row, box)
        widths = []  # per image: its class-cls truth count
        for idx, (img_preds, img_truth) in enumerate(zip(preds, truth)):
            cls_preds = [b for b in img_preds if b.class_id == cls]
            cls_truth = [b for b in img_truth if b.class_id == cls]
            widths.append(len(cls_truth))
            rows = iou_matrix(cls_preds, cls_truth).tolist()
            records += [(b.score, idx, row, b)
                        for row, b in zip(rows, cls_preds)]
        records.sort(key=lambda r: (-r[0], r[1], r[3].cx, r[3].cy))
        order = [(idx, row) for _, idx, row, _ in records]
        tables[cls] = (order, widths)
    return tables


# Few distinct centres, scores and sizes: ties in every sort key, boxes at
# one centre with different IoU rows, and images with no predictions or
# no truths of a class.
_tied_box = st.builds(
    OrientedBox, cx=st.sampled_from([0.0, 3.0, 8.0]),
    cy=st.sampled_from([0.0, 3.0]), w=st.sampled_from([4.0, 6.0]),
    h=st.sampled_from([2.0, 4.0]), theta=st.sampled_from([0.0, 0.5, 2.0]),
    class_id=st.integers(0, 2), score=st.sampled_from([0.0, 0.5, 0.9]))
_tied_images = st.lists(st.tuples(st.lists(_tied_box, max_size=8),
                                  st.lists(_tied_box, max_size=5)),
                        min_size=1, max_size=4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.one_of(_images, _tied_images))
@example([([_box(0, cls=1, score=0.5), _box(0, cls=0), _box(3, cls=1)],
           [_box(0, cls=1), _box(1, cls=0)]),
          ([], [_box(0, cls=1)]), ([_box(0, cls=0)], [])])
@settings(max_examples=200, deadline=None)
def test_match_tables_equal_reference(images):
    preds = [p for p, _ in images]
    truth = [t for _, t in images]
    assert _match_tables(preds, truth) == _reference_match_tables(preds,
                                                                  truth)


def _jittered_images():
    """Three images of four truths, each predicted about a pixel off: mAP
    falls from 1 to near 0 across the 0.50:0.95 sweep."""
    rng = np.random.default_rng(2)
    truth = [[_box(rng.uniform(0, 100), cls=int(rng.integers(2)))
              for _ in range(4)] for _ in range(3)]
    preds = [[OrientedBox(b.cx + rng.uniform(-1, 1), b.cy, b.w, b.h, b.theta,
                          b.class_id, float(rng.uniform(0.2, 1)))
              for b in img] for img in truth]
    return list(zip(preds, truth))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(_images)
@example(_jittered_images())
@settings(max_examples=100, deadline=None)
def test_sweep_is_mean_of_single_thresholds(images):
    # one set of IoU matrices for the whole 0.50:0.95 sweep; the mean is
    # bit-identical
    preds = [p for p, _ in images]
    truth = [t for _, t in images]
    want = float(np.mean([eval_map(preds, truth, float(t))[0]
                          for t in np.arange(0.5, 1.0, 0.05)]))
    assert eval_map_sweep(preds, truth).hex() == want.hex()


def test_sweep_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        eval_map_sweep([[]], [[], []])
