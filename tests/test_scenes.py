"""Synthetic scene generation: determinism, rendering, failure modes."""

import hashlib

import numpy as np
import pytest

from rotdet.config import load_config
from rotdet.errors import GenerationError
from rotdet.geometry import OrientedBox, box_polygons
from rotdet.scenes import SceneSpec, _render_boxes, gen_scene

# Placement runs the batched IoU kernel; a warning here is a defect.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_CFG = load_config()
# The scenes of the benchmark's `match` workload (dense 512² scenes).
MATCH_SPEC = SceneSpec(objects=16, classes=_CFG.network.classes,
                       min_size=_CFG.scene.min_size,
                       max_size=_CFG.scene.max_size)

# gen_scene output the benchmarks and `eval` are fed: (spec, canvas, seed,
# SHA-256 of the image bytes, SHA-256 of the boxes as float.hex lines).
# Seeds 28 and 5 each place a box whose largest IoU with the boxes before
# it is within [0.8, 1] x max_overlap, so a change to the overlap test shows.
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
    spec = SceneSpec(objects=1, classes=1, noise_level=0.0)
    canvas = np.zeros((64, 64))
    box = OrientedBox(32, 32, 20, 10, 0.0)
    _render_boxes(canvas, [box], spec)
    poly = box_polygons([box])[0]
    ys, xs = np.nonzero(canvas)
    assert len(xs) == pytest.approx(20 * 10, rel=0.1)
    assert xs.min() + 0.5 >= poly[:, 0].min()
    assert xs.max() + 0.5 <= poly[:, 0].max()
    assert ys.min() + 0.5 >= poly[:, 1].min()
    assert ys.max() + 0.5 <= poly[:, 1].max()


def test_truth_boxes_lie_in_canvas():
    _, truth = gen_scene(7, SceneSpec(objects=4), canvas=256)
    for b in truth:
        poly = box_polygons([b])[0]
        assert poly.min() >= 0.0
        assert poly.max() <= 256.0


def test_class_intensities_distinct():
    spec = SceneSpec(classes=3)
    vals = [spec.class_intensity(c) for c in range(3)]
    assert len(set(vals)) == 3


def test_overcrowded_spec_fails():
    spec = SceneSpec(objects=50, min_size=60, max_size=60, max_overlap=0.0)
    with pytest.raises(GenerationError):
        gen_scene(0, spec, canvas=128)
