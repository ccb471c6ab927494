"""Average-precision evaluator against hand-traced fixtures."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rotdet.evalmap import _ap_from_pr, eval_map, eval_map_sweep
from rotdet.geometry import OrientedBox
from test_geometry import _reference_iou, decisive


def _box(cx, cy=0.0, cls=0, score=1.0):
    return OrientedBox(cx, cy, 4, 2, 0, class_id=cls, score=score)


def test_perfect_predictions():
    truth = [[_box(0), _box(20, cls=1)], [_box(40)]]
    preds = [[b for b in img] for img in truth]
    mean_ap, per_class = eval_map(preds, truth, 0.5)
    assert mean_ap == pytest.approx(1.0)
    assert per_class == {0: pytest.approx(1.0), 1: pytest.approx(1.0)}


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
