"""Network assembly: bottom-up recursion, shapes, determinism, decode."""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rotdet import angle, mdcaa, msk, pyramid
from rotdet.config import load_config
from rotdet.errors import ContractError, ShapeError
from rotdet.geometry import MAX_BOX_COORD, OrientedBox, _columns, rotated_nms
from rotdet.msk import ConvParams
from rotdet.pyramid import (HeadOutputs, NetworkConfig, NetworkWeights,
                            MAX_LOG_RATIO, assemble_forward, bottom_up,
                            decode_boxes, detect)
from rotdet.scenes import gen_scene
from rotdet.tensor import (Tensor, add, backward, gradients, named_parameters,
                           sigmoid, smooth_l1, sum_all)
from test_tensor import (_buffered_conv2d, _reference_avg_pool,
                         _reference_conv2d, assert_walk_covers_graph)


def _dirac_identity(conv):
    conv.kernel.data[:] = 0.0
    c = conv.kernel.shape[0]
    kh, kw = conv.kernel.shape[2:]
    conv.kernel.data[np.arange(c), np.arange(c), (kh - 1) // 2,
                     (kw - 1) // 2] = 1.0
    conv.bias.data[:] = 0.0


def _tower(rng, c=4, base=16):
    return [Tensor(rng.standard_normal((1, c, base >> i, base >> i)))
            for i in range(4)]


class TestBottomUp:
    def _convs(self, rng, c=4):
        down = [ConvParams.create(rng, c, c, 3, 3, stride=(2, 2))
                for _ in range(3)]
        fuse = [ConvParams.create(rng, c, c, 3, 3) for _ in range(3)]
        return down, fuse

    def test_extent_recursion(self):
        rng = np.random.default_rng(0)
        down, fuse = self._convs(rng)
        levels = bottom_up(_tower(rng), down, fuse)
        assert [t.shape[2] for t in levels] == [8, 4, 2]

    def test_dirac_oracle(self):
        # center-tap identity convs turn the recursion into
        # N_{l+1} = M_{l+1} + N_l[::2, ::2]
        rng = np.random.default_rng(1)
        down, fuse = self._convs(rng)
        for conv in down + fuse:
            _dirac_identity(conv)
        m = _tower(rng)
        levels = bottom_up(m, down, fuse)
        prev = m[0].data
        for l in range(3):
            want = m[l + 1].data + prev[:, :, ::2, ::2]
            np.testing.assert_allclose(levels[l].data, want, atol=1e-6)
            prev = levels[l].data

    def test_wrong_level_count(self):
        rng = np.random.default_rng(2)
        down, fuse = self._convs(rng)
        with pytest.raises(ShapeError):
            bottom_up(_tower(rng)[:3], down, fuse)

    def test_extent_mismatch(self):
        rng = np.random.default_rng(3)
        down, fuse = self._convs(rng)
        m = _tower(rng)
        m[1] = Tensor(rng.standard_normal((1, 4, 5, 5)))
        with pytest.raises(ShapeError):
            bottom_up(m, down, fuse)


class TestAssemble:
    def test_documented_shapes(self):
        cfg = NetworkConfig()
        rng = np.random.default_rng(4)
        w = NetworkWeights.create(rng, cfg, np.float32)
        image = Tensor(rng.standard_normal((1, 3, 128, 128)).astype(np.float32))
        feats, head = assemble_forward(image, w)
        shapes = {k: v.shape for k, v in feats.items()}
        assert shapes["C3"] == (1, 16, 16, 16)
        assert shapes["C4"] == (1, 16, 8, 8)
        assert shapes["C5"] == (1, 16, 4, 4)
        assert shapes["M1"] == (1, 40, 64, 64)
        assert shapes["M4"] == (1, 40, 8, 8)
        assert shapes["CP2"] == (1, 40, 32, 32)
        assert shapes["N5"] == (1, 40, 8, 8)
        assert shapes["fused_s8"] == (1, 56, 16, 16)
        assert shapes["fused_s16"] == (1, 56, 8, 8)
        assert shapes["fused_s32"] == (1, 96, 4, 4)
        out = head.named()
        assert out["logits_s8"].shape == (1, 2, 16, 16)
        assert out["boxes_s32"].shape == (1, 6, 4, 4)

    def test_extent_not_divisible_by_64(self):
        """The whole input rule is checked before any conv: an empty batch,
        a zero side or one past MAX_CANVAS (4160) raises too."""
        cfg = NetworkConfig()
        w = NetworkWeights.create(np.random.default_rng(5), cfg, np.float32)
        for shape in ((1, 3, 96, 96), (1, 4, 64, 64), (3, 64, 64),
                      (0, 3, 64, 64), (1, 3, 0, 64), (1, 3, 64, 0),
                      (1, 3, 64, 4160), (1, 3, 4160, 64)):
            with pytest.raises(ShapeError):
                assemble_forward(Tensor(np.zeros(shape)), w)
        feats, head = assemble_forward(Tensor(np.zeros((2, 3, 64, 64))), w)
        assert feats["C3"].shape == (2, 16, 8, 8)
        assert head.named()["boxes_s32"].shape == (2, 6, 2, 2)

    def test_seeded_weights_deterministic(self):
        cfg = NetworkConfig()
        wa = NetworkWeights.create(np.random.default_rng(6), cfg, np.float32)
        wb = NetworkWeights.create(np.random.default_rng(6), cfg, np.float32)
        x = Tensor(np.random.default_rng(7).standard_normal(
            (1, 3, 64, 64)).astype(np.float32))
        _, ha = assemble_forward(x, wa)
        _, hb = assemble_forward(x, wb)
        for a, b in zip(ha.logits + ha.boxes, hb.logits + hb.boxes):
            assert np.array_equal(a.data, b.data)

    def test_zero_weights_decode_to_priors(self):
        cfg = NetworkConfig()
        w = NetworkWeights.create(np.random.default_rng(8), cfg, np.float32)
        for p in w.parameters():
            p.data[:] = 0.0
        _, head = assemble_forward(Tensor(np.zeros((1, 3, 64, 64))), w)
        for lg in head.logits:
            np.testing.assert_array_equal(lg.data, 0.0)
        boxes = decode_boxes(head, cfg, 0.05)
        # every cell survives at sigmoid(0) = 0.5 and decodes to its anchor
        assert len(boxes) == 8 * 8 + 4 * 4 + 2 * 2
        b = boxes[0]
        assert (b.cx, b.cy) == (4.0, 4.0)
        assert b.w == b.h == 8 * cfg.anchor_scale
        assert b.score == 0.5
        # all-zero angle channels: every box at the prior angle
        assert {b.theta for b in boxes} == {0.0}
        # no level has a cell over the threshold
        assert list(decode_boxes(head, cfg, score_threshold=1.0)) == []


def test_parameter_walk_covers_network_graph():
    w = NetworkWeights.create(np.random.default_rng(9), NetworkConfig(),
                              np.float32)
    image = Tensor(np.random.default_rng(10).standard_normal((1, 3, 64, 64)))
    _, head = assemble_forward(image, w)
    assert_walk_covers_graph(w, image, head.logits + head.boxes, 204)


def _head_loss(head):
    loss = sum_all(smooth_l1(head.boxes[0]))
    for t in head.boxes[1:] + head.logits:
        loss = add(loss, sum_all(smooth_l1(t)))
    return loss


def _default_weights():
    cfg = load_config()
    return NetworkWeights.create(np.random.default_rng(cfg.data_seed),
                                 cfg.network, dtype=np.float32)


def _scenes(batch):
    """A float32 batch of seeded default-canvas scenes."""
    cfg = load_config()
    return Tensor(np.stack([gen_scene(11 + i, cfg.scene, cfg.canvas)[0].data
                            for i in range(batch)]), dtype=np.float32)


def _forward_and_gradients():
    """Named tensors of one seeded 256² batch-1 forward of the default
    network, then the parameter gradients of a Smooth-L1 loss on its head."""
    w = _default_weights()
    feats, head = assemble_forward(_scenes(1), w)
    named = {**feats, **head.named()}
    loss = _head_loss(head)
    params = named_parameters(w)
    grads = gradients(loss, list(params.values()))
    return ({k: t.data for k, t in named.items()},
            {k: g for k, g in zip(params, grads)})


# How far, relative to each tensor's largest magnitude, the f32 forward and
# gradients of the matmul ops may lie from the einsum / im2col reference
# ops. The two hand the BLAS differently laid-out products, so their bits
# agree only on some kernels: 0 with OpenBLAS's SkylakeX kernel, at most
# 8.6e-7 (features) and 1.5e-6 (gradients) under OPENBLAS_CORETYPE=Haswell.
REFERENCE_OPS_TOL = 1e-5


def test_forward_and_gradients_match_reference_ops(monkeypatch):
    # The matmul conv2d and strided-add avg_pool must reproduce the seeded
    # forward dumps and gradients of the einsum / im2col ops within
    # REFERENCE_OPS_TOL; test_gradients_bit_equal_to_buffered_conv is the
    # byte-for-byte guard.
    feats, grads = _forward_and_gradients()
    monkeypatch.setattr(msk, "conv2d", _reference_conv2d)
    monkeypatch.setattr(mdcaa, "avg_pool", _reference_avg_pool)
    ref_feats, ref_grads = _forward_and_gradients()
    assert feats["M1"].shape == (1, 40, 128, 128)
    for got, want in ((feats, ref_feats), (grads, ref_grads)):
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].shape == want[name].shape, name
            g, w = got[name].astype(np.float64), want[name].astype(np.float64)
            assert abs(g - w).max() <= REFERENCE_OPS_TOL * abs(w).max(), name


def test_gradients_bit_equal_to_buffered_conv(monkeypatch):
    # A backward that copies each conv's patches again gives every parameter
    # gradient of the network byte for byte.
    def digest():
        _, grads = _forward_and_gradients()
        h = hashlib.sha256()
        for name, g in grads.items():
            h.update(name.encode())
            h.update(g.tobytes())
        return h.hexdigest()

    got = digest()
    # ConvParams.apply looks conv2d up in msk, its only caller
    monkeypatch.setattr(msk, "conv2d", _buffered_conv2d)
    assert digest() == got


def test_backward_reads_the_data_the_forward_read():
    # conv2d's backward copies its patches from x.data again, so backward
    # must leave every recorded tensor's data as the forward made it: the
    # same array object with the same bytes.
    cfg = NetworkConfig(stem_channels=4, branch_out=2, backbone_channels=4,
                        strip_len=3, pool_window=3)
    w = NetworkWeights.create(np.random.default_rng(0), cfg,
                              dtype=np.float64)
    image = Tensor(np.random.default_rng(1).standard_normal((1, 3, 64, 64)))
    loss = _head_loss(assemble_forward(image, w)[1])
    nodes, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = (t, t.data, t.data.tobytes())
            stack.extend(t._parents)
    assert len(nodes) > 100
    backward(loss)
    for t, data, raw in nodes.values():
        assert t.data is data
        assert t.data.tobytes() == raw


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGraphMemory:
    """A recorded forward keeps no conv patch buffers alive."""

    def test_tracked_forward_peak(self):
        w, image = _default_weights(), _scenes(1)
        # about 42 MiB; 226 MiB when each conv kept its patch buffer
        assert _traced_peak(lambda: assemble_forward(image, w)) < 64 * 2**20

    def test_train_step_peak(self):
        w, images = _default_weights(), _scenes(2)
        # about 171 MiB; 539 MiB when each conv kept its patch buffer
        peak = _traced_peak(
            lambda: backward(_head_loss(assemble_forward(images, w)[1])))
        assert peak < 256 * 2**20
        assert all(p.grad is not None for p in w.parameters())


class TestDecodeBoxes:
    def _head(self, logits, deltas):
        return HeadOutputs(logits=[Tensor(np.array(logits, dtype=np.float64))],
                           boxes=[Tensor(np.array(deltas, dtype=np.float64))])

    def test_known_deltas(self):
        cfg = NetworkConfig()
        code = angle.encode(1.0, cfg.omega)
        logits = np.zeros((1, 2, 1, 1))
        logits[0, 1, 0, 0] = 4.0
        deltas = np.zeros((1, 6, 1, 1))
        deltas[0, :, 0, 0] = [0.25, -0.25, math.log(2.0), 0.0, code.x, code.y]
        boxes = decode_boxes(self._head(logits, deltas), cfg, 0.05)
        assert len(boxes) == 1
        b = boxes[0]
        assert b.class_id == 1
        assert b.score == pytest.approx(1.0 / (1.0 + math.exp(-4.0)))
        assert b.cx == pytest.approx(0.5 * 8 + 0.25 * 32)
        assert b.cy == pytest.approx(0.5 * 8 - 0.25 * 32)
        assert b.w == pytest.approx(64.0)
        assert b.h == pytest.approx(32.0)
        assert b.theta == pytest.approx(1.0, abs=1e-9)

    def test_score_threshold_filters(self):
        cfg = NetworkConfig()
        logits = np.full((1, 2, 1, 1), -10.0)
        boxes = decode_boxes(self._head(logits, np.zeros((1, 6, 1, 1))), cfg,
                             0.05)
        assert list(boxes) == []

    @pytest.mark.parametrize("dw", [300.0, -300.0, 800.0, -800.0])
    def test_extent_deltas_clamped(self, dw):
        """Huge extent deltas decode to a box 1000/16 or 16/1000 times
        its anchor instead of failing in exp or in OrientedBox."""
        cfg = NetworkConfig()
        deltas = np.zeros((1, 6, 1, 1))
        deltas[0, 2:4, 0, 0] = dw, -dw
        boxes = decode_boxes(self._head(np.zeros((1, 2, 1, 1)), deltas), cfg,
                             0.05)
        anchor = 8 * cfg.anchor_scale
        clip = math.copysign(MAX_LOG_RATIO, dw)
        assert len(boxes) == 1
        assert sorted((boxes[0].w, boxes[0].h)) == sorted(
            (anchor * math.exp(clip), anchor * math.exp(-clip)))

    @pytest.mark.parametrize("delta", [1e99, -1e99, 1e307, -1e307])
    def test_out_of_range_centers_dropped(self, delta):
        """A center delta that puts the center past MAX_BOX_COORD, or
        overflows, drops its cell as a low score would; the rest decode."""
        cfg = NetworkConfig()
        deltas = np.zeros((1, 6, 1, 3))
        deltas[0, 0, 0, 0] = delta
        deltas[0, 1, 0, 1] = delta
        boxes = decode_boxes(self._head(np.zeros((1, 2, 1, 3)), deltas), cfg,
                             0.05)
        assert [(b.cx, b.cy) for b in boxes] == [(2.5 * 8, 0.5 * 8)]

    @pytest.mark.parametrize("scale,dw", [(1e99, 1.0), (1e-100, -10.0)])
    def test_out_of_range_extents_dropped(self, scale, dw):
        """An anchor of 8e99 grows past MAX_BOX_COORD at exp(1); one of
        8e-100 shrinks below 1 / MAX_BOX_COORD at the clamp. Either drops
        the cell."""
        cfg = NetworkConfig(anchor_scale=scale)
        deltas = np.zeros((1, 6, 1, 2))
        deltas[0, 2, 0, 1] = dw
        boxes = decode_boxes(self._head(np.zeros((1, 2, 1, 2)), deltas), cfg,
                             0.05)
        assert [(b.cx, b.w) for b in boxes] == [(0.5 * 8, 8 * scale)]

    def test_degenerate_angle_vector_falls_back(self):
        cfg = NetworkConfig()
        deltas = np.zeros((1, 6, 1, 1))
        deltas[0, 4:, 0, 0] = 1e-9
        boxes = decode_boxes(self._head(np.zeros((1, 2, 1, 1)), deltas), cfg,
                             0.05)
        assert boxes[0].theta == 0.0


def _reference_decode(head, config, score_threshold, image_index=0):
    """The per-cell loop decode_boxes replaced, kept as its oracle: one
    OrientedBox per cell over the threshold, from extent deltas clamped as
    decode_boxes clamps them, and none where OrientedBox rejects the
    cell's fields."""
    out = []
    for stride, logits, deltas in zip(config.strides, head.logits, head.boxes):
        scores = sigmoid(logits).data[image_index]
        raw = deltas.data[image_index]
        _, hh, ww = scores.shape
        anchor_size = stride * config.anchor_scale
        for r in range(hh):
            for c in range(ww):
                cls_id = int(np.argmax(scores[:, r, c]))
                score = float(scores[cls_id, r, c])
                if score < score_threshold:
                    continue
                dcx, dcy, dw, dh, ax, ay = (float(v) for v in raw[:, r, c])
                dw, dh = (min(max(v, -MAX_LOG_RATIO), MAX_LOG_RATIO)
                          for v in (dw, dh))
                if math.hypot(ax, ay) < 1e-6:
                    theta = 0.0
                else:
                    theta = angle.decode(
                        angle.normalize((ax, ay), config.omega))
                try:
                    out.append(OrientedBox(
                        (c + 0.5) * stride + dcx * anchor_size,
                        (r + 0.5) * stride + dcy * anchor_size,
                        anchor_size * math.exp(dw), anchor_size * math.exp(dh),
                        theta, class_id=cls_id, score=score))
                except ValueError:  # the center or an extent is out of range
                    pass
    return out


def _hex_rows(boxes):
    """float.hex of each box's _columns row and of its theta."""
    return [[v.hex() for v in row] + [b.theta.hex()]
            for row, b in zip(_columns(boxes).tolist(), boxes)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("omega", [1.0, 2.0])
def test_decode_matches_per_cell_loop(dtype, omega):
    cfg = NetworkConfig(classes=3, omega=omega)
    rng = np.random.default_rng(4)
    logits, boxes = [], []
    for cells in (8, 4, 2):
        logits.append(Tensor(rng.normal(size=(2, 3, cells, cells)),
                             dtype=dtype))
        deltas = rng.normal(scale=0.5, size=(2, 6, cells, cells))
        deltas[:, 4:6, 0, :] = 0.0  # degenerate angle vectors: prior angle
        boxes.append(Tensor(deltas, dtype=dtype))
    head = HeadOutputs(logits=logits, boxes=boxes)
    for image in (0, 1):
        got = decode_boxes(head, cfg, 0.6, image_index=image)
        want = _reference_decode(head, cfg, 0.6, image_index=image)
        assert len(got) > 10
        assert list(got) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_detect_matches_the_three_calls(monkeypatch, dtype):
    """On a two-image batch of seeded scenes, detect keeps for each image
    what NMS keeps of its decoded table, the forward, decode and NMS
    called apart, and none of its op outputs records a parent."""
    cfg = load_config()
    weights = NetworkWeights.create(np.random.default_rng(cfg.data_seed),
                                    cfg.network, dtype=dtype)
    batch = Tensor(np.stack([gen_scene(seed, cfg.scene, cfg.canvas)[0].data
                             for seed in (1, 2)]), dtype=dtype)
    outputs = []
    from_op = Tensor._from_op

    def spy(data, parents, backward):
        outputs.append(from_op(data, parents, backward))
        return outputs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "_from_op", staticmethod(spy))
        got = detect(batch, weights, cfg.network, cfg.score_threshold,
                     cfg.nms_threshold)
    assert outputs
    assert all(t._parents == () and t._backward is None for t in outputs)
    _, head = assemble_forward(batch, weights)
    assert len(got) == 2
    for i in (0, 1):
        want = rotated_nms(decode_boxes(head, cfg.network,
                                        cfg.score_threshold, i),
                           cfg.nms_threshold)
        assert want
        assert _hex_rows(got[i]) == _hex_rows(want)


def test_detect_squashes_each_image_once(monkeypatch):
    """decode_boxes takes the sigmoid of its own image's logits only: a
    two-image detect takes one per level and image, each over one image."""
    cfg = NetworkConfig()
    weights = NetworkWeights.create(np.random.default_rng(3), cfg, np.float32)
    batch = Tensor(np.random.default_rng(4).random((2, 3, 64, 64)),
                   dtype=np.float32)
    shapes = []

    def spy(x):
        shapes.append(x.shape)
        return sigmoid(x)

    monkeypatch.setattr(pyramid, "sigmoid", spy)
    detect(batch, weights, cfg, 0.05, 0.1)
    assert shapes == [(cfg.classes, 64 // s, 64 // s)
                      for _ in range(2) for s in cfg.strides]


@st.composite
def encoded_heads(draw):
    """Known boxes at chosen cells of a 64² image's head, and the f64 head
    tensors that encode them: center and log-extent deltas against the
    cell's anchor, the unit-circle angle code, and logits high at the box's
    class and low everywhere else."""
    cfg = NetworkConfig(classes=draw(st.integers(1, 3)),
                        omega=draw(st.sampled_from([0.5, 1.0, 2.0])),
                        anchor_scale=draw(st.floats(1.0, 8.0)))
    sizes = [64 // stride for stride in cfg.strides]
    logits = [np.full((1, cfg.classes, n, n), -20.0) for n in sizes]
    deltas = [np.zeros((1, 6, n, n)) for n in sizes]
    boxes = {}
    for _ in range(draw(st.integers(1, 6))):
        level = draw(st.integers(0, 2))
        r, c = (draw(st.integers(0, sizes[level] - 1)) for _ in range(2))
        stride = cfg.strides[level]
        anchor = stride * cfg.anchor_scale
        cx, cy = ((i + 0.5) * stride + draw(st.floats(-1.0, 1.0)) * anchor
                  for i in (c, r))
        w, h = (anchor * math.exp(draw(st.floats(-2.0, 2.0)))
                for _ in range(2))
        theta = draw(st.floats(0.0, angle.period(cfg.omega),
                               exclude_max=True))
        cls = draw(st.integers(0, cfg.classes - 1))
        code = angle.encode(theta, cfg.omega)
        # a cell drawn twice keeps only its last box
        logits[level][0, :, r, c] = -20.0
        logits[level][0, cls, r, c] = 20.0
        deltas[level][0, :, r, c] = (
            (cx - (c + 0.5) * stride) / anchor,
            (cy - (r + 0.5) * stride) / anchor,
            math.log(w / anchor), math.log(h / anchor), code.x, code.y)
        boxes[level, r, c] = OrientedBox(cx, cy, w, h, theta, class_id=cls)
    head = HeadOutputs(logits=[Tensor(t) for t in logits],
                       boxes=[Tensor(t) for t in deltas])
    # decode_boxes walks levels, then rows and columns
    return cfg, head, [boxes[key] for key in sorted(boxes)]


@settings(max_examples=60, deadline=None)
@given(encoded_heads())
def test_decode_inverts_encode(case):
    cfg, head, want = case
    got = decode_boxes(head, cfg, score_threshold=0.5)
    assert len(got) == len(want)
    for g, b in zip(got, want):
        assert g.class_id == b.class_id
        assert g.score > 0.5
        for field in ("cx", "cy", "w", "h"):
            assert getattr(g, field) == pytest.approx(getattr(b, field),
                                                      rel=0, abs=1e-9)
        assert angle.circular_error(g.theta, b.theta, cfg.omega) <= 1e-9


def _fits_mask_decode(head, config, score_threshold):
    """(cx, cy, smaller extent, larger extent, score) of each cell that
    decode_boxes kept when it filtered cells with a mask of its own: every
    center and extent at most MAX_BOX_COORD in magnitude (so finite), and
    both extents at least 1 / MAX_BOX_COORD."""
    out = []
    for stride, logits, deltas in zip(config.strides, head.logits, head.boxes):
        score = sigmoid(logits).data[0].max(axis=0)
        r, c = np.nonzero(score >= score_threshold)
        d = deltas.data[0][:, r, c].T
        anchor = stride * config.anchor_scale
        dw, dh = np.clip(d[:, 2:4], -MAX_LOG_RATIO, MAX_LOG_RATIO).T.tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            box = np.array([(c + 0.5) * stride + d[:, 0] * anchor,
                            (r + 0.5) * stride + d[:, 1] * anchor,
                            [anchor * math.exp(v) for v in dw],
                            [anchor * math.exp(v) for v in dh]])
        fits = (np.all(np.abs(box) <= MAX_BOX_COORD, axis=0)
                & (np.minimum(box[2], box[3]) >= 1 / MAX_BOX_COORD))
        out += [(x, y, *sorted((w, h)), s) for x, y, w, h, s in
                zip(*box[:, fits].tolist(), score[r, c][fits].tolist())]
    return out


# hostile and ordinary center and extent deltas
HOSTILE_DELTAS = [0.0, 0.5, -0.5, 1e99, -1e99, 1e307, -1e307]


@st.composite
def hostile_heads(draw):
    """An f64 head of a 64² image whose delta channels take hostile
    values, under an anchor scale that may underflow or overflow a box."""
    cfg = NetworkConfig(classes=draw(st.integers(1, 2)),
                        anchor_scale=draw(st.sampled_from(
                            [4.0, 5e-324, 1e99, 1e308])))
    logits, boxes = [], []
    for n in (8, 4, 2):
        logits.append(Tensor(draw(hnp.arrays(
            np.float64, (1, cfg.classes, n, n),
            elements=st.sampled_from([-20.0, 0.0, 20.0])))))
        boxes.append(Tensor(draw(hnp.arrays(
            np.float64, (1, 6, n, n),
            elements=st.sampled_from(HOSTILE_DELTAS)))))
    return cfg, HeadOutputs(logits=logits, boxes=boxes)


@settings(max_examples=60, deadline=None)
@given(hostile_heads())
def test_decode_keeps_the_cells_the_fits_mask_kept(case):
    """OrientedBox's range check drops exactly the cells a mask over the
    decoded centers and extents dropped."""
    cfg, head = case
    got = [(b.cx, b.cy, *sorted((b.w, b.h)), b.score)
           for b in decode_boxes(head, cfg, 0.05)]
    assert got == _fits_mask_decode(head, cfg, 0.05)


@st.composite
def seeded_heads(draw):
    """A head of two 64² images at f32 or f64, omega 1 or 2, with normal
    deltas, degenerate angle vectors in each level's first row, and the
    centers moved far from the origin or not; an image index and a
    threshold that passes about a third of the cells."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    cfg = NetworkConfig(classes=3, omega=draw(st.sampled_from([1.0, 2.0])))
    far = draw(st.sampled_from([0.0, 1e4, 1e8, 1e12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits, boxes = [], []
    for cells in (8, 4, 2):
        logits.append(Tensor(rng.normal(size=(2, 3, cells, cells)),
                             dtype=dtype))
        deltas = rng.normal(scale=0.5, size=(2, 6, cells, cells))
        deltas[:, 4:6, 0, :] = 0.0
        deltas[:, :2] += far * rng.choice([-1.0, 1.0], size=(2, 2, 1, 1))
        boxes.append(Tensor(deltas, dtype=dtype))
    return (cfg, HeadOutputs(logits=logits, boxes=boxes),
            draw(st.sampled_from([0, 1])), 0.6)


@settings(max_examples=80, deadline=None)
@given(st.one_of(seeded_heads(),
                 hostile_heads().map(lambda case: (*case, 0, 0.05))))
def test_table_rows_match_per_cell_loop(case):
    """The table's own rows, and the boxes it builds on demand read back
    through _columns, carry the per-cell oracle's bits, field by field."""
    cfg, head, image, threshold = case
    table = decode_boxes(head, cfg, threshold, image_index=image)
    want = _reference_decode(head, cfg, threshold, image_index=image)
    assert _hex_rows(table) == _hex_rows(list(table)) == _hex_rows(want)


# -- seeded pins: the draw order of every weight and a small forward ----------

SMALL = NetworkConfig(stem_channels=4, branch_out=4, backbone_channels=8)
CONFIGS = {"default": NetworkConfig(), "small": SMALL}
DTYPES = {"f32": np.float32, "f64": np.float64}
PINNED_WEIGHTS = {
    ("default", "f32"):
        "50c15d36d2db415f6dd56e3f76c3195fb68a9886f0002127d152636249274353",
    ("default", "f64"):
        "410384aa789fe10b05f223f3d9650b65195804c7cbb169077f24ed0a2b740e4f",
    ("small", "f32"):
        "3c146ba3d2d8317788f3c1e6f97445a0f7e61b3a4954e53c7a292c5fc1dc667b",
    ("small", "f64"):
        "26217572d3ac91e3ff4519834b859e0c6f5ef18c5a431c36edf49efa62c4ab0a",
}
PINNED_MSK = (
    "302fcdb40e187c4a591b017c93b141f45630aa35ef99914f15571827103419e2")
PINNED_MDCAA = (
    "3df9349f842347d5463280fc3e9c00d46c9ead846ae4824c200b153dfa51fe5a")
# Statistics of each named tensor of a 64² forward, not its bytes, which
# move with the BLAS kernel. Recorded with OpenBLAS's SkylakeX kernel at 2
# threads; under OPENBLAS_CORETYPE=Haswell a sum moved by at most 5.8e-7 of
# max(|sum|, sqrt(sum of squares)), a sum of squares by 2.3e-7 and a largest
# magnitude by 1.1e-6 of their values at f32, and every statistic by at most
# 9.4e-16 at f64; at 1 thread nothing moved. Reading diag_main's taps
# unreversed moves a statistic by 1.3e-5 at both dtypes. FORWARD_STAT_TOL
# leaves a margin of 2.7x to the BLAS drift at f32 and 1,000x at f64; the
# f32 pin catches that misreading by 4.4x, the f64 pin by seven orders of
# magnitude.
PINNED_SMALL_FORWARD = Path(__file__).parent / "data" / "small_forward_stats.txt"
FORWARD_STAT_TOL = {"f32": 3e-6, "f64": 1e-12}


def _sha(named):
    """SHA-256 over each tensor's name, dtype and bytes, in order."""
    h = hashlib.sha256()
    for name, t in named.items():
        h.update(f"{name} {t.dtype} ".encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("cfg_name, dt", list(PINNED_WEIGHTS))
def test_seeded_network_weights_pinned(cfg_name, dt):
    w = NetworkWeights.create(np.random.default_rng(0), CONFIGS[cfg_name],
                              dtype=DTYPES[dt])
    assert _sha(named_parameters(w)) == PINNED_WEIGHTS[cfg_name, dt]


def test_seeded_module_weights_pinned():
    w = msk.MskModuleWeights.create(np.random.default_rng(0), 4, 3,
                                    downsample=True)
    assert _sha(named_parameters(w)) == PINNED_MSK
    w = mdcaa.MdcaaWeights.create(np.random.default_rng(0), 3, strip_len=5,
                                  pool_window=3)
    assert _sha(named_parameters(w)) == PINNED_MDCAA


def _pinned_forward(dt) -> dict[str, tuple]:
    """name -> (dtype, shape, sum, sum of squares, largest magnitude)."""
    rows = [line.split() for line in PINNED_SMALL_FORWARD.read_text()
            .splitlines() if not line.startswith("#")]
    return {name: (dtype, tuple(map(int, shape.split("x"))),
                   *map(float, stats))
            for run, name, dtype, shape, *stats in rows if run == dt}


@pytest.mark.parametrize("dt", list(DTYPES))
def test_seeded_small_forward_pinned(dt):
    """Names, dtypes and shapes exactly; each sum within FORWARD_STAT_TOL
    of max(|sum|, sqrt(sum of squares)), the other statistics within it
    relative."""
    w = NetworkWeights.create(np.random.default_rng(0), SMALL,
                              dtype=DTYPES[dt])
    image = np.random.default_rng(1).standard_normal((1, 3, 64, 64))
    feats, head = assemble_forward(Tensor(image, dtype=DTYPES[dt]), w)
    named = {**feats, **head.named()}
    want = _pinned_forward(dt)
    assert [(n, str(t.dtype), t.shape) for n, t in named.items()] == \
        [(n, dtype, shape) for n, (dtype, shape, *_) in want.items()]
    tol = FORWARD_STAT_TOL[dt]
    for name, t in named.items():
        v = t.data.astype(np.float64)
        got = (float(v.sum()), float((v * v).sum()), float(abs(v).max()))
        total, sq, peak = want[name][2:]
        scales = (max(abs(total), math.sqrt(sq)), sq, peak)
        off = [abs(g - x) / s for g, x, s in zip(got, (total, sq, peak),
                                                 scales)]
        assert max(off) <= tol, (
            f"{name}: (sum, sum of squares, largest magnitude) {got} is off "
            f"{want[name][2:]} by {off} of scale, over {tol}")


@pytest.mark.parametrize("dtype", [np.int64, np.float16])
def test_network_dtype_must_be_float(dtype):
    with pytest.raises(ContractError, match=np.dtype(dtype).name):
        NetworkWeights.create(np.random.default_rng(0), SMALL, dtype=dtype)


def test_weight_sets_are_built_complete():
    for cls in (msk.MskModuleWeights, mdcaa.MdcaaWeights, NetworkWeights):
        with pytest.raises(TypeError):
            cls()
