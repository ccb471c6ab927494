"""Synthetic scene generation: determinism, rendering, failure modes."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from rotdet import scenes
from rotdet.config import load_config
from rotdet.errors import GenerationError
from rotdet.geometry import OrientedBox, _columns, box_polygons
from rotdet.scenes import (SceneSpec, _place, _render_boxes, gen_scene,
                           scene_boxes)
from rotdet.tensor import Tensor
from test_geometry import iou_matrix

# Placement runs the batched IoU kernel; a warning here is a defect.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_CFG = load_config()
# The scenes of the benchmark's `match` workload (dense 512² scenes).
MATCH_SPEC = SceneSpec(objects=16, classes=_CFG.network.classes,
                       min_size=_CFG.scene.min_size,
                       max_size=_CFG.scene.max_size)
# At 128² with CROWDED_TRIES tries per object, most candidates are
# rejected and about one seed in six runs out of tries.
CROWDED = SceneSpec(objects=6, min_size=20, max_size=60)
CROWDED_TRIES = 25
# At 64², about one try in ten draws a box whose circumscribed circle is
# wider than the canvas, which then cannot fit; no seed below 200 fails.
UNFIT = SceneSpec(objects=3, min_size=2, max_size=62)
# At 64² with sizes 20-60, about one try in six cannot fit, and with
# CROWDED_TRIES tries per object about two seeds in three fail.
UNFIT_CROWDED = SceneSpec(objects=2, min_size=20, max_size=60)

# gen_scene output the benchmarks and `eval` are fed: (spec, canvas, seed,
# SHA-256 of the image bytes, SHA-256 of the boxes as float.hex lines).
# Seeds 28 and 5 each place a box whose largest IoU with the boxes before
# it is within [0.8, 1] x MAX_OVERLAP, so a change to the overlap test shows.
PINNED = [
    (SceneSpec(), 256, 0,
     "ea29991e48f18fc657754142809837bacce03b695fbd56b3232d33ebd2ef128d",
     "b88a6383a34f72ca1cdc438b5ea05d2845376a0eaa35a2fbc75ec417b9fc0e94"),
    (SceneSpec(), 256, 1,
     "b0b091921a16525a83792f8d295e3502c67c66539d7434277a368dd66c5ec425",
     "e14b5523b70b10778179ebb31d48a40d3a892b1ef6c50c514fd546d190d15ac3"),
    (SceneSpec(), 256, 28,
     "230419eb9c1a6bace66b5fa1b2d72bd9a0f2c4b2cd7bcf556fc14cfadfb44b86",
     "32189c5cab50ab0745d454bd83bcf0856e2e031b7d8c50c1815728ae2f7e9976"),
    (MATCH_SPEC, 512, 5,
     "2424b07733f5021c386135eb88e7cea6fd1a0b3055f0a43e40521bd1f3a6ebe9",
     "db6095d3c536a341f9d1479a37910c6aa7cd03eeedd30824b7fb1de8b3833bc6"),
    (MATCH_SPEC, 512, 100000,
     "739d1d1e36492d3ce8176d067ea0b9e1c8096124e2c005962c8cb8a56b418a74",
     "660011067ad32c7c30175dde900d2a670eb9b85cada68aa78c67e98773afed1e"),
]


def _boxes_hex(boxes):
    return "\n".join(
        " ".join(float(v).hex() for v in (b.cx, b.cy, b.w, b.h, b.theta))
        + f" {b.class_id}" for b in boxes)


@pytest.mark.parametrize("spec,canvas,seed,image_sha,boxes_sha", PINNED)
def test_pinned_scenes(spec, canvas, seed, image_sha, boxes_sha):
    image, boxes = gen_scene(seed, spec, canvas)
    assert hashlib.sha256(image.data.tobytes()).hexdigest() == image_sha
    assert hashlib.sha256(_boxes_hex(boxes).encode()).hexdigest() == boxes_sha
    alone = scene_boxes(seed, spec, canvas)
    assert hashlib.sha256(_boxes_hex(alone).encode()).hexdigest() == boxes_sha


@pytest.mark.parametrize("canvas,seeds", [
    *((canvas, [seed]) for _, canvas, seed, _, _ in PINNED),
    (256, range(1000, 1100)), (512, range(2000, 2100))])
def test_advance_skips_the_noise_draw(canvas, seeds):
    """scene_boxes relies on PCG64 spending one output per uniform double:
    advancing by canvas² outputs must leave the state the noise draw does."""
    for seed in seeds:
        drawn = np.random.default_rng(seed)
        drawn.random((canvas, canvas))
        skipped = np.random.default_rng(seed)
        skipped.bit_generator.advance(canvas * canvas)
        assert skipped.bit_generator.state == drawn.bit_generator.state, seed


def _reference_gen_scene(seed, spec, canvas):
    """The generator gen_scene replaced, kept as its oracle: one canvas²
    float64 noise draw, scaled and rendered in float64, then copied into
    the float32 image."""
    rng = np.random.default_rng(seed)
    img = rng.random((canvas, canvas))  # uniform(0, b) is b * random()
    img *= scenes.NOISE_LEVEL
    boxes = _place(rng, spec, canvas)
    _render_boxes(img, boxes, spec)
    image = np.empty((3, canvas, canvas), dtype=np.float32)
    image[0] = img
    image[1:] = image[0]
    return Tensor(image), boxes


# 192 rows is not a multiple of a noise block's 8192 // 192 = 42 rows.
@pytest.mark.parametrize("spec,canvas,seeds", [
    (SceneSpec(objects=0), 64, range(8)), (UNFIT, 64, range(8)),
    *((spec, canvas, seeds)
      for spec in (SceneSpec(), MATCH_SPEC, SceneSpec(classes=1), UNFIT)
      for canvas, seeds in ((128, range(8)), (192, range(8)),
                            (256, range(6)), (512, range(3)),
                            (1024, range(2))))])
def test_gen_scene_matches_reference(spec, canvas, seeds):
    for seed in seeds:
        try:
            want_image, want_boxes = _reference_gen_scene(seed, spec, canvas)
        except GenerationError:
            with pytest.raises(GenerationError):
                gen_scene(seed, spec, canvas)
            continue
        image, boxes = gen_scene(seed, spec, canvas)
        assert image.data.tobytes() == want_image.data.tobytes(), seed
        assert boxes == want_boxes, seed
        assert scene_boxes(seed, spec, canvas) == want_boxes, seed


@pytest.mark.parametrize("spec,canvas", [(MATCH_SPEC, 512),
                                         (SceneSpec(), 1024)])
def test_gen_scene_memory_is_bounded_by_its_image(spec, canvas):
    """Beyond the image, a scene allocates a noise block and the Tensor
    check's bool temporary (a quarter of the image), not a canvas² float64
    plane."""
    gen_scene(5, spec, canvas)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        image, _ = gen_scene(5, spec, canvas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= image.data.nbytes * 1.25 + 2**19


def _reference_place(rng, spec, canvas):
    """The placement loop _place replaced, kept as its oracle: each
    candidate is rated by the one-image iou_matrix oracle against every
    placed box."""
    boxes = []
    for _ in range(spec.objects):
        for _ in range(scenes.MAX_PLACEMENT_TRIES):
            w = rng.uniform(spec.min_size, spec.max_size)
            h = rng.uniform(spec.min_size, w)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            radius = 0.5 * math.hypot(w, h)
            if 2 * radius >= canvas:
                continue
            cx = rng.uniform(radius, canvas - radius)
            cy = rng.uniform(radius, canvas - radius)
            cls = int(rng.integers(0, spec.classes))
            cand = OrientedBox(cx, cy, w, h, theta, class_id=cls)
            if (not boxes or
                    iou_matrix([cand], boxes).max() <= scenes.MAX_OVERLAP):
                boxes.append(cand)
                break
        else:
            raise GenerationError("no room")
    return boxes


def _placement(place, seed, spec, canvas):
    """The boxes as float.hex lines (None when placement fails) and the
    generator state after it."""
    rng = np.random.default_rng(seed)
    try:
        boxes = _boxes_hex(place(rng, spec, canvas))
    except GenerationError:
        boxes = None
    return boxes, rng.bit_generator.state


@pytest.mark.parametrize("spec,canvas", [
    (SceneSpec(), 256), (MATCH_SPEC, 512), (CROWDED, 128), (UNFIT, 64),
    (SceneSpec(objects=0), 256)])
def test_placement_matches_reference(monkeypatch, spec, canvas):
    if spec is CROWDED:
        monkeypatch.setattr(scenes, "MAX_PLACEMENT_TRIES", CROWDED_TRIES)
    failed = []
    for seed in range(200):
        got = _placement(_place, seed, spec, canvas)
        assert got == _placement(_reference_place, seed, spec, canvas), seed
        failed.append(got[0] is None)
    assert any(failed) == (spec is CROWDED) and not all(failed)


def test_placement_matches_reference_when_crowded_tries_cannot_fit(
        monkeypatch):
    monkeypatch.setattr(scenes, "MAX_PLACEMENT_TRIES", CROWDED_TRIES)
    failed = []
    for seed in range(100):
        got = _placement(_place, seed, UNFIT_CROWDED, 64)
        assert got == _placement(_reference_place, seed, UNFIT_CROWDED,
                                 64), seed
        failed.append(got[0] is None)
    assert any(failed) and not all(failed)


class _CountingRng:
    """A generator that counts the tries drawn (each starts with a size
    drawn from the spec's range) and the tries that fit (each ends with a
    class draw), and fails a test that draws more than ``limit`` tries."""

    def __init__(self, seed, spec, limit=math.inf):
        self.rng = np.random.default_rng(seed)
        self.size_range = (spec.min_size, spec.max_size)
        self.limit = limit
        self.tries = self.fits = 0

    def uniform(self, low, high):
        self.tries += (low, high) == self.size_range
        assert self.tries <= self.limit, "too many tries drawn"
        return self.rng.uniform(low, high)

    def integers(self, low, high):
        self.fits += 1
        return self.rng.integers(low, high)


@pytest.mark.parametrize("spec,canvas", [(UNFIT, 64), (UNFIT_CROWDED, 64)])
def test_unfit_specs_draw_tries_that_cannot_fit(monkeypatch, spec, canvas):
    monkeypatch.setattr(scenes, "MAX_PLACEMENT_TRIES", CROWDED_TRIES)
    unfit = 0
    for seed in range(20):
        rng = _CountingRng(seed, spec)
        try:
            _reference_place(rng, spec, canvas)
        except GenerationError:
            pass
        unfit += rng.tries - rng.fits
    assert unfit > 0


def test_placement_rounds_are_capped_by_the_try_budget():
    # A round draws at most the tries left in the current object's budget,
    # so a spec with far more objects than fit fails after the draws the
    # one-by-one loop takes, instead of drawing 10**12 tries in one round.
    spec = SceneSpec(objects=10**12, min_size=20, max_size=60)
    want = _CountingRng(0, spec)
    with pytest.raises(GenerationError):
        _reference_place(want, spec, 64)
    got = _CountingRng(0, spec, limit=want.tries)
    message = f"could not place object .* of objects = {10**12} "
    with pytest.raises(GenerationError, match=message) as err:
        _place(got, spec, 64)
    placed = int(str(err.value).split()[4]) - 1
    assert got.tries == want.tries
    assert got.tries <= (placed + 1) * scenes.MAX_PLACEMENT_TRIES
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


def test_placement_reads_max_overlap(monkeypatch):
    monkeypatch.setattr(scenes, "MAX_PLACEMENT_TRIES", CROWDED_TRIES)
    seeds = range(20)
    default = [_placement(_place, seed, CROWDED, 128) for seed in seeds]
    monkeypatch.setattr(scenes, "MAX_OVERLAP", 0.0)
    strict = [_placement(_place, seed, CROWDED, 128) for seed in seeds]
    assert strict != default
    assert strict == [_placement(_reference_place, seed, CROWDED, 128)
                      for seed in seeds]


def test_zero_objects_pure_noise():
    image, truth = gen_scene(0, SceneSpec(objects=0), canvas=64)
    assert truth == []
    assert image.shape == (3, 64, 64)
    assert image.data.max() <= 0.1  # only the noise floor


def test_seed_determinism():
    spec = SceneSpec(objects=3, classes=2)
    img_a, truth_a = gen_scene(42, spec, canvas=128)
    img_b, truth_b = gen_scene(42, spec, canvas=128)
    assert np.array_equal(img_a.data, img_b.data)
    assert truth_a == truth_b


def test_different_seeds_differ():
    spec = SceneSpec(objects=3)
    img_a, _ = gen_scene(1, spec, canvas=128)
    img_b, _ = gen_scene(2, spec, canvas=128)
    assert not np.array_equal(img_a.data, img_b.data)


def test_axis_aligned_box_renders_inside_polygon():
    spec = SceneSpec(objects=1, classes=1)
    canvas = np.zeros((64, 64))
    box = OrientedBox(32, 32, 20, 10, 0.0)
    _render_boxes(canvas, [box], spec)
    poly = box_polygons(_columns([box]))[0] + (box.cx, box.cy)
    ys, xs = np.nonzero(canvas)
    assert len(xs) == pytest.approx(20 * 10, rel=0.1)
    assert xs.min() + 0.5 >= poly[:, 0].min()
    assert xs.max() + 0.5 <= poly[:, 0].max()
    assert ys.min() + 0.5 >= poly[:, 1].min()
    assert ys.max() + 0.5 <= poly[:, 1].max()


def test_truth_boxes_lie_in_canvas():
    _, truth = gen_scene(7, SceneSpec(objects=4), canvas=256)
    for b in truth:
        poly = box_polygons(_columns([b]))[0] + (b.cx, b.cy)
        assert poly.min() >= 0.0
        assert poly.max() <= 256.0


def test_class_intensities_distinct():
    spec = SceneSpec(classes=3)
    vals = [spec.class_intensity(c) for c in range(3)]
    assert len(set(vals)) == 3


def test_overcrowded_spec_fails(monkeypatch):
    monkeypatch.setattr(scenes, "MAX_OVERLAP", 0.0)
    spec = SceneSpec(objects=50, min_size=60, max_size=60)
    with pytest.raises(GenerationError, match="of objects = 50 "):
        gen_scene(0, spec, canvas=128)
