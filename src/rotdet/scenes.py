"""Seeded synthetic scenes of filled rotated rectangles on a noise background."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError
from .geometry import OrientedBox, box_polygons, iou_matrix, points_in_box
# unused here; benchmarks/tracer.py wraps this binding by name
from .geometry import rotated_iou  # noqa: F401
from .tensor import Tensor

MAX_PLACEMENT_TRIES = 200


@dataclass(frozen=True)
class SceneSpec:
    """What to draw: object count, class count, and size range in pixels."""

    objects: int = 3
    classes: int = 2
    min_size: float = 20.0
    max_size: float = 60.0
    max_overlap: float = 0.05
    noise_level: float = 0.1

    def class_intensity(self, class_id: int) -> float:
        if self.classes == 1:
            return 0.9
        return 0.35 + 0.6 * class_id / (self.classes - 1)


def _render_boxes(canvas: np.ndarray, boxes: list[OrientedBox],
                  spec: SceneSpec) -> None:
    """Set pixels whose centers lie in a box to its class intensity."""
    h, w = canvas.shape
    for box, poly in zip(boxes, box_polygons(boxes)):
        x0 = max(int(math.floor(poly[:, 0].min())), 0)
        x1 = min(int(math.ceil(poly[:, 0].max())) + 1, w)
        y0 = max(int(math.floor(poly[:, 1].min())), 0)
        y1 = min(int(math.ceil(poly[:, 1].max())) + 1, h)
        if x0 >= x1 or y0 >= y1:
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        inside = points_in_box(xs + 0.5, ys + 0.5, box)
        canvas[y0:y1, x0:x1][inside] = spec.class_intensity(box.class_id)


def gen_scene(seed: int, spec: SceneSpec,
              canvas: int = 256) -> tuple[Tensor, list[OrientedBox]]:
    """Render a seeded scene; identical seeds give bit-identical output.

    Returns a (3, H, W) float32 image tensor (grayscale replicated across
    channels) and the ground-truth box list. Raises
    :class:`GenerationError` when a non-overlapping layout cannot be found
    within the retry budget.
    """
    rng = np.random.default_rng(seed)
    img = rng.uniform(0.0, spec.noise_level, size=(canvas, canvas))
    boxes: list[OrientedBox] = []
    for _ in range(spec.objects):
        for _ in range(MAX_PLACEMENT_TRIES):
            w = rng.uniform(spec.min_size, spec.max_size)
            h = rng.uniform(spec.min_size, w)  # canonical w >= h
            theta = rng.uniform(0.0, 2.0 * math.pi)
            radius = 0.5 * math.hypot(w, h)
            if 2 * radius >= canvas:
                continue
            cx = rng.uniform(radius, canvas - radius)
            cy = rng.uniform(radius, canvas - radius)
            cls = int(rng.integers(0, spec.classes))
            cand = OrientedBox(cx, cy, w, h, theta, class_id=cls)
            if (not boxes or
                    iou_matrix([cand], boxes).max() <= spec.max_overlap):
                boxes.append(cand)
                break
        else:
            raise GenerationError(
                f"could not place object {len(boxes) + 1} of {spec.objects} "
                f"within {MAX_PLACEMENT_TRIES} tries")
    _render_boxes(img, boxes, spec)
    image = Tensor(np.repeat(img[np.newaxis].astype(np.float32), 3, axis=0))
    return image, boxes
