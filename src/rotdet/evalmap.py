"""Average-precision evaluation for oriented boxes.

Per class, predictions across all images are sorted by score and matched
greedily against ground truth using rotated IoU, read from one pred x
truth IoU matrix per image, sliced by class; each truth box can be
claimed once. AP is the area under the all-point-interpolated
precision-recall curve. mAP averages over classes that appear in the
truth; classes with no truth are excluded from the mean. The matrices do
not depend on the threshold, so an IoU sweep builds them once, in one IoU
kernel call for all images, and matches them at every threshold. Matching
walks their rows as Python lists: a prediction meets only its image's
truths of its class, too few for a NumPy call per prediction to pay.
"""

from __future__ import annotations

import numpy as np

from .geometry import OrientedBox, iou_matrices
# unused here; benchmarks/tracer.py wraps this binding by name
from .geometry import rotated_iou  # noqa: F401

# the COCO IoU sweep, 0.50:0.95 in steps of 0.05
COCO_THRESHOLDS = tuple(float(t) for t in np.arange(0.5, 1.0, 0.05))


def _ap_from_pr(tp_flags: np.ndarray, n_truth: int) -> float:
    """All-point AP of ranked match flags against ``n_truth >= 1`` truths;
    no predictions give 0.0."""
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(1 - tp_flags)
    recall = tp / n_truth
    precision = tp / (tp + fp)
    # all-point interpolation: running max of precision from the right
    prec_env = np.maximum.accumulate(precision[::-1])[::-1]
    recall = np.concatenate([[0.0], recall])
    prec_env = np.concatenate([prec_env[:1], prec_env])
    return float(np.sum((recall[1:] - recall[:-1]) * prec_env[1:]))


def _match_tables(preds: list[list[OrientedBox]],
                  truth: list[list[OrientedBox]]) -> dict[int, tuple]:
    """Per truth class: its predictions in matching order as (image index,
    IoU row) pairs, each row a list of the prediction's IoU with the
    image's truths of the class; and the truth count per image. Matching
    order is one stable ``np.lexsort`` on (-score, image, cx, cy), as NMS
    orders its rows. Each image's pred x truth matrix, from one
    ``iou_matrices`` call, is sliced by class id: the kernel rates each
    pair apart from its batch.
    """
    if len(preds) != len(truth):
        raise ValueError("preds and truth must cover the same images")
    classes = sorted({b.class_id for img in truth for b in img})
    ious = iou_matrices(preds, truth)
    tables = {}
    for cls in classes:
        records = []  # (box, image index, IoU row)
        widths = []  # per image: its class-cls truth count
        for idx, (img_preds, img_truth) in enumerate(zip(preds, truth)):
            r = [k for k, b in enumerate(img_preds) if b.class_id == cls]
            c = [j for j, b in enumerate(img_truth) if b.class_id == cls]
            widths.append(len(c))
            records += zip([img_preds[k] for k in r], [idx] * len(r),
                           ious[idx][np.ix_(r, c)].tolist())
        keys = [(b.cy, b.cx, idx, -b.score) for b, idx, _ in records]
        order = np.lexsort(np.array(keys).reshape(-1, 4).T).tolist()
        tables[cls] = ([records[k][1:] for k in order], widths)
    return tables


def _match_ap(order, widths, iou_thresh: float) -> float:
    """AP of one class: greedy matching of ``order`` at ``iou_thresh``.

    Each prediction takes the first unclaimed truth of highest IoU, if
    that IoU is > 0: the first strictly larger IoU along the row, as
    ``argmax(where(free, row, 0)) > 0`` would find it.
    """
    free = [[True] * n for n in widths]
    flags = np.zeros(len(order), dtype=np.int64)
    for i, (idx, row) in enumerate(order):
        is_free = free[idx]
        best, best_j = 0.0, -1
        for j, iou in enumerate(row):
            if iou > best and is_free[j]:
                best, best_j = iou, j
        if best_j >= 0 and best >= iou_thresh:
            is_free[best_j] = False
            flags[i] = 1
    return _ap_from_pr(flags, sum(widths))


def _map_at(tables: dict[int, tuple],
            iou_thresh: float) -> tuple[float, dict[int, float]]:
    per_class = {cls: _match_ap(*table, iou_thresh)
                 for cls, table in tables.items()}
    if not per_class:
        return 0.0, {}
    return float(np.mean(list(per_class.values()))), per_class


def eval_map(preds: list[list[OrientedBox]], truth: list[list[OrientedBox]],
             iou_thresh: float = 0.5) -> tuple[float, dict[int, float]]:
    """Mean AP and per-class AP at a single IoU matching threshold.

    ``preds`` and ``truth`` are parallel per-image box lists.
    """
    return _map_at(_match_tables(preds, truth), iou_thresh)


def eval_map_sweep(preds, truth) -> float:
    """COCO-style mean of single-threshold mAP over COCO_THRESHOLDS."""
    tables = _match_tables(preds, truth)
    return float(np.mean([_map_at(tables, t)[0] for t in COCO_THRESHOLDS]))
