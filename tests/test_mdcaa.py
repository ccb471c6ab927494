"""Directional attention: range contract, linear oracles, and the
quarter-turn sandwich the diagonal branches once ran, kept as their oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotdet import pyramid
from rotdet.config import load_config
from rotdet.errors import ContractError, ShapeError
from rotdet.geometry import rotated_nms
from rotdet.mdcaa import MdcaaWeights, mdcaa_apply, mdcaa_weights
from rotdet.msk import ConvParams
from rotdet.pyramid import NetworkWeights, decode_boxes
from rotdet.scenes import gen_scene
from rotdet.tensor import (Tensor, avg_pool, concat_channels, gradients, mul,
                           rot90, sigmoid, sum_all)
from test_tensor import assert_walk_covers_graph


def _zero(w):
    for p in w.parameters():
        p.data[:] = 0.0


def _dirac(conv):
    """Center-tap depthwise identity; zero bias."""
    conv.kernel.data[:] = 0.0
    kh, kw = conv.kernel.shape[2:]
    conv.kernel.data[:, 0, (kh - 1) // 2, (kw - 1) // 2] = 1.0
    conv.bias.data[:] = 0.0


def _passthrough(w):
    """Configure weights so the pre-sigmoid map equals the input."""
    c = w.pointwise.kernel.shape[0]
    _zero(w)
    w.pointwise.kernel.data[:, :, 0, 0] = np.eye(c)
    for conv in (w.seq_vertical, w.seq_horizontal, w.diag_main, w.diag_anti):
        _dirac(conv)
    # fusion selects the main-diagonal slot of [main, anti, H, V]
    w.fusion.kernel.data[np.arange(c), np.arange(c), 0, 0] = 1.0


def test_parameter_walk_covers_attention_graph():
    rng = np.random.default_rng(13)
    w = MdcaaWeights.create(rng, 3, strip_len=5, pool_window=3)
    f = Tensor(rng.standard_normal((1, 3, 8, 8)))
    assert_walk_covers_graph(w, f, [mdcaa_apply(f, w)], 16)


class TestAttentionMap:
    def test_zero_weights_half_everywhere(self):
        rng = np.random.default_rng(0)
        w = MdcaaWeights.create(rng, 3, strip_len=5, pool_window=3)
        _zero(w)
        f = Tensor(rng.standard_normal((1, 3, 10, 10)))
        a = mdcaa_weights(f, w)
        assert a.shape == f.shape
        np.testing.assert_array_equal(a.data, 0.5)

    def test_open_interval_even_when_saturated(self):
        rng = np.random.default_rng(1)
        w = MdcaaWeights.create(rng, 2, strip_len=5, pool_window=3)
        for p in w.parameters():
            p.data *= 100.0
        f = Tensor(100.0 * rng.standard_normal((1, 2, 8, 8)))
        a = mdcaa_weights(f, w).data
        assert np.all(a > 0.0)
        assert np.all(a < 1.0)

    def test_passthrough_sigmoid_oracle(self):
        rng = np.random.default_rng(2)
        w = MdcaaWeights.create(rng, 3, strip_len=5, pool_window=1)
        _passthrough(w)
        x = rng.standard_normal((1, 3, 9, 9))
        a = mdcaa_weights(Tensor(x, dtype=np.float64), w).data
        assert np.max(np.abs(a - 1.0 / (1.0 + np.exp(-x)))) <= 1e-6

    def test_shape_contracts(self):
        rng = np.random.default_rng(3)
        w = MdcaaWeights.create(rng, 3, strip_len=5, pool_window=3)
        with pytest.raises(ShapeError):
            mdcaa_weights(Tensor(np.zeros((1, 4, 8, 8))), w)
        with pytest.raises(ShapeError):
            mdcaa_weights(Tensor(np.zeros((3, 8, 8))), w)

    def test_strip_len_validated(self):
        rng = np.random.default_rng(4)
        for m in (4, 1):
            msg = f"strip_len must be odd and >= 3, got {m}$"
            with pytest.raises(ContractError, match=msg):
                MdcaaWeights.create(rng, 3, strip_len=m, pool_window=7)
        for pw in (4, 0, -1):
            with pytest.raises(ContractError, match="pool_window"):
                MdcaaWeights.create(rng, 3, strip_len=11, pool_window=pw)


def _sandwich_create(rng, channels, strip_len=11, pool_window=7):
    """Weights as the quarter-turn sandwich drew them: the same RNG draws
    as ``MdcaaWeights.create``, but both diagonal strips are 1xm and main's
    taps are stored in draw order."""
    c, m = channels, strip_len
    return MdcaaWeights(
        pool_window=pool_window,
        pointwise=ConvParams.create(rng, c, c, 1, 1),
        seq_vertical=ConvParams.create(rng, c, c, m, 1, groups=c),
        seq_horizontal=ConvParams.create(rng, c, c, 1, m, groups=c),
        horizontal=ConvParams.create(rng, c, c, 1, m, groups=c),
        vertical=ConvParams.create(rng, c, c, m, 1, groups=c),
        diag_main=ConvParams.create(rng, c, c, 1, m, groups=c),
        diag_anti=ConvParams.create(rng, c, c, 1, m, groups=c),
        fusion=ConvParams.create(rng, c, 4 * c, 1, 1))


def _sandwich_anti(hv, w):
    return rot90(w.diag_anti(rot90(hv, "ccw")), "cw")


def _sandwich_weights(f, w):
    """The attention map as the diagonal branches once computed it, each a
    1xm strip between two quarter turns: the oracle of ``mdcaa_weights``,
    over weights from ``_sandwich_create``."""
    pw = w.pool_window
    pooled = avg_pool(f, (pw, pw), padding=((pw - 1) // 2, (pw - 1) // 2))
    pooled = w.pointwise(pooled)
    hv = w.seq_horizontal(w.seq_vertical(pooled))
    chv = concat_channels([w.horizontal(pooled), w.vertical(pooled)])
    main = rot90(w.diag_main(rot90(hv, "cw")), "ccw")
    fused = w.fusion(concat_channels([main, _sandwich_anti(hv, w), chv]))
    return sigmoid(fused)


def _sandwich_apply(f, w):
    return mul(f, _sandwich_weights(f, w))


def _weighted_sum(out, upstream):
    return sum_all(mul(out, Tensor(upstream)))


@st.composite
def _attention_case(draw):
    c = draw(st.integers(1, 4))
    h = draw(st.integers(1, 13))
    wd = draw(st.integers(1, 13))
    m = draw(st.sampled_from([3, 5, 7, 11]))
    pw = draw(st.sampled_from([1, 3, 5]))
    seed = draw(st.integers(0, 2**32 - 1))
    return c, h, wd, m, pw, seed


class TestSandwichOracle:
    @given(_attention_case())
    @settings(max_examples=60, deadline=None)
    def test_map_and_gradients_match_sandwich(self, case):
        c, h, wd, m, pw, seed = case
        w = MdcaaWeights.create(np.random.default_rng(seed), c, m, pw)
        old = _sandwich_create(np.random.default_rng(seed), c, m, pw)
        rng = np.random.default_rng([seed, 1])
        params, old_params = w.parameters(), old.parameters()
        for p, q in zip(params, old_params):
            if p.ndim == 1:  # biases start at zero; give them values
                p.data[:] = q.data[:] = rng.uniform(-1.0, 1.0, p.shape)
        f = Tensor(rng.standard_normal((1, c, h, wd)), dtype=np.float64)
        upstream = rng.standard_normal((1, c, h, wd))

        got = mdcaa_weights(f, w)
        got_grads = gradients(_weighted_sum(got, upstream), params)
        want = _sandwich_weights(f, old)
        want_grads = gradients(_weighted_sum(want, upstream), old_params)
        # map the (C, 1, 1, m) sandwich gradients onto the (C, 1, m, 1)
        # strips: main's reversed along m, both reshaped
        main, anti = (params.index(w.diag_main.kernel),
                      params.index(w.diag_anti.kernel))
        want_grads[main] = want_grads[main][..., ::-1].reshape(c, 1, m, 1)
        want_grads[anti] = want_grads[anti].reshape(c, 1, m, 1)

        assert np.max(np.abs(got.data - want.data)) <= 1e-12
        for g, ref in zip(got_grads, want_grads):
            assert g.shape == ref.shape
            assert np.max(np.abs(g - ref)) <= 1e-12

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([3, 5, 7, 11]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_anti_branch_bit_identical(self, c, h4, w4, m, seed):
        # Both paths take the same m products in the same order, but the
        # BLAS matmul may round its tail lanes differently (fused or not)
        # when H*W is not a multiple of its vector width; sides that are
        # multiples of 4, as on every pyramid level, leave no tail.
        h, wd = 4 * h4, 4 * w4
        w = MdcaaWeights.create(np.random.default_rng(seed), c, m, 7)
        old = _sandwich_create(np.random.default_rng(seed), c, m)
        rng = np.random.default_rng([seed, 1])
        w.diag_anti.bias.data[:] = old.diag_anti.bias.data[:] = (
            rng.standard_normal(c))
        hv = Tensor(rng.standard_normal((1, c, h, wd)), dtype=np.float64)
        assert np.array_equal(w.diag_anti(hv).data,
                              _sandwich_anti(hv, old).data)

    def test_both_branches_are_vertical_strips(self):
        # a ones-kernel responds to a spike along a vertical segment only
        rng = np.random.default_rng(8)
        w = MdcaaWeights.create(rng, 1, strip_len=5, pool_window=3)
        spike = np.zeros((1, 1, 11, 11))
        spike[0, 0, 5, 5] = 1.0
        for conv in (w.diag_main, w.diag_anti):
            conv.kernel.data[:] = 1.0
            ys, xs = np.nonzero(conv(Tensor(spike)).data[0, 0])
            assert set(xs) == {5}
            assert set(ys) == set(range(3, 8))

    def test_detect_pipeline_keeps_the_sandwich_boxes(self, monkeypatch):
        # seeded 256² forward, decode and NMS, as ``rotdet eval --mode
        # model`` runs them, against the same with the sandwich patched in
        cfg = load_config()
        images = [Tensor(gen_scene(seed, cfg.scene, cfg.canvas)[0]
                         .data[np.newaxis], dtype=np.float32)
                  for seed in (1, 2, 3)]

        def detect():
            w = NetworkWeights.create(np.random.default_rng(cfg.data_seed),
                                      cfg.network, dtype=np.float32)
            kept = []
            for image in images:
                _, head = pyramid.assemble_forward(image, w)
                raw = decode_boxes(head, cfg.network, cfg.score_threshold)
                kept.append(rotated_nms(raw, cfg.nms_threshold))
            return kept

        got = detect()
        monkeypatch.setattr(MdcaaWeights, "create",
                            staticmethod(_sandwich_create))
        monkeypatch.setattr(pyramid, "mdcaa_apply", _sandwich_apply)
        want = detect()
        assert sum(map(len, got)) > 0
        fields = ("cx", "cy", "w", "h", "theta", "score")
        for boxes, ref in zip(got, want):
            assert len(boxes) == len(ref)
            for a, b in zip(boxes, ref):
                assert a.class_id == b.class_id
                np.testing.assert_allclose(
                    [getattr(a, k) for k in fields],
                    [getattr(b, k) for k in fields], rtol=0, atol=1e-6)


class TestApply:
    def test_zero_weights_halves_input(self):
        rng = np.random.default_rng(9)
        w = MdcaaWeights.create(rng, 3, strip_len=5, pool_window=3)
        _zero(w)
        f = Tensor(rng.standard_normal((1, 3, 8, 8)))
        out = mdcaa_apply(f, w)
        np.testing.assert_allclose(out.data, 0.5 * f.data, atol=1e-7)

    def test_attenuates_everywhere(self):
        rng = np.random.default_rng(10)
        w = MdcaaWeights.create(rng, 4, strip_len=7, pool_window=5)
        for _ in range(5):
            f = Tensor(rng.standard_normal((1, 4, 12, 12)))
            out = mdcaa_apply(f, w).data
            assert np.all(np.abs(out) <= np.abs(f.data))
            assert np.all(np.sign(out) == np.sign(f.data))
