"""Seeded synthetic scenes of filled rotated rectangles on a noise background.

A scene's generator first draws the canvas² noise floor, then places the
boxes in rounds of NMS's greedy loop (:func:`_place`), then renders them;
:func:`scene_boxes` gives the boxes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError
from .geometry import (OrientedBox, _columns, _greedy, box_polygons,
                       points_in_box)
# unused here; benchmarks/tracer.py wraps this binding by name
from .geometry import rotated_iou  # noqa: F401
from .tensor import Tensor

MAX_PLACEMENT_TRIES = 200
MAX_OVERLAP = 0.05  # largest kernel IoU of a new box with those placed
NOISE_LEVEL = 0.1  # background pixels are uniform in [0, NOISE_LEVEL)


@dataclass(frozen=True)
class SceneSpec:
    """What to draw: object count, class count, and size range in pixels."""

    objects: int = 3
    classes: int = 2
    min_size: float = 20.0
    max_size: float = 60.0

    def class_intensity(self, class_id: int) -> float:
        if self.classes == 1:
            return 0.9
        return 0.35 + 0.6 * class_id / (self.classes - 1)


def _place(rng: np.random.Generator, spec: SceneSpec,
           canvas: int) -> list[OrientedBox]:
    """Draw boxes until ``spec.objects`` are placed. A candidate is placed
    when its kernel IoU with each placed box, the candidate clipped by it,
    is at most MAX_OVERLAP; each object gets MAX_PLACEMENT_TRIES tries,
    and a try too large for the canvas draws nothing more.

    That is greedy suppression in draw order: each round runs
    :func:`rotdet.geometry._greedy` over the placed boxes (kept again),
    then the round's fitting tries. A round of min(objects left, tries
    left) tries meets neither the last object nor the budget's end before
    its last try, so no draw is replayed: the generator state is the loop's.
    """
    boxes: list[OrientedBox] = []
    misses = 0  # tries since the last box was placed
    while len(boxes) < spec.objects:
        drawn = []  # per try: its box, or None when it cannot fit
        for _ in range(min(spec.objects - len(boxes),
                           MAX_PLACEMENT_TRIES - misses)):
            w = rng.uniform(spec.min_size, spec.max_size)
            h = rng.uniform(spec.min_size, w)  # canonical w >= h
            theta = rng.uniform(0.0, 2.0 * math.pi)
            radius = 0.5 * math.hypot(w, h)
            if 2 * radius >= canvas:
                drawn.append(None)
                continue
            cx = rng.uniform(radius, canvas - radius)
            cy = rng.uniform(radius, canvas - radius)
            cls = int(rng.integers(0, spec.classes))
            drawn.append(OrientedBox(cx, cy, w, h, theta, class_id=cls))
        rows = boxes + [b for b in drawn if b is not None]
        kept = {id(rows[k]) for k in _greedy(_columns(rows), MAX_OVERLAP)}
        for cand in drawn:
            if id(cand) in kept:
                boxes.append(cand)
                misses = 0
            else:
                misses += 1
        if misses >= MAX_PLACEMENT_TRIES:
            raise GenerationError(
                f"could not place object {len(boxes) + 1} of objects = "
                f"{spec.objects} on a {canvas}² canvas within "
                f"{MAX_PLACEMENT_TRIES} tries")
    return boxes


def _render_boxes(canvas: np.ndarray, boxes: list[OrientedBox],
                  spec: SceneSpec) -> None:
    """Set pixels whose centers lie in a box to its class intensity. Each
    box must overlap the canvas, as the boxes :func:`_place` places do."""
    h, w = canvas.shape
    cols = _columns(boxes)
    corners = box_polygons(cols) + cols[:, np.newaxis, :2]
    for box, row, poly in zip(boxes, cols, corners):
        x0 = max(int(math.floor(poly[:, 0].min())), 0)
        x1 = min(int(math.ceil(poly[:, 0].max())) + 1, w)
        y0 = max(int(math.floor(poly[:, 1].min())), 0)
        y1 = min(int(math.ceil(poly[:, 1].max())) + 1, h)
        xs = np.arange(x0, x1) + 0.5
        ys = np.arange(y0, y1)[:, np.newaxis] + 0.5
        inside = points_in_box(xs, ys, row)
        canvas[y0:y1, x0:x1][inside] = spec.class_intensity(box.class_id)


def gen_scene(seed: int, spec: SceneSpec,
              canvas: int) -> tuple[Tensor, list[OrientedBox]]:
    """Render a seeded scene; identical seeds give bit-identical output.

    Returns a (3, H, W) float32 image tensor (grayscale replicated across
    channels) and the ground-truth box list. Raises
    :class:`GenerationError` when a non-overlapping layout cannot be found
    within the retry budget.
    """
    rng = np.random.default_rng(seed)
    img = rng.random((canvas, canvas))  # uniform(0, b) is b * random()
    img *= NOISE_LEVEL
    boxes = _place(rng, spec, canvas)
    _render_boxes(img, boxes, spec)
    image = np.empty((3, canvas, canvas), dtype=np.float32)
    image[0] = img
    image[1:] = image[0]
    return Tensor(image), boxes


def scene_boxes(seed: int, spec: SceneSpec,
                canvas: int) -> list[OrientedBox]:
    """The boxes of ``gen_scene(seed, spec, canvas)``, bit for bit, with
    no image drawn: PCG64 spends one 64-bit output per uniform double, so
    advancing a fresh generator by canvas² outputs skips the noise draw."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(canvas * canvas)
    return _place(rng, spec, canvas)
