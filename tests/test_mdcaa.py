"""Directional attention: range contract, linear oracles, rotation paths."""

import numpy as np
import pytest

from rotdet.errors import ContractError, ShapeError
from rotdet.mdcaa import (MdcaaWeights, diagonal_branch, mdcaa_apply,
                          mdcaa_weights)
from rotdet.tensor import Tensor, conv2d, rot90
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
    c = w.channels
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
    assert_walk_covers_graph(w, [mdcaa_apply(f, w)], 16)


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
        w = MdcaaWeights.create(rng, 3, strip_len=5, pool_window=1,
                                dtype=np.float64)
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
        with pytest.raises(ContractError):
            MdcaaWeights.create(rng, 3, strip_len=4)
        with pytest.raises(ContractError):
            MdcaaWeights.create(rng, 3, strip_len=1)


class TestDiagonalBranch:
    def test_dirac_identity_bit_exact(self):
        rng = np.random.default_rng(5)
        w = MdcaaWeights.create(rng, 2, strip_len=5, pool_window=3)
        _dirac(w.diag_main)
        _dirac(w.diag_anti)
        hv = Tensor(rng.standard_normal((1, 2, 7, 7)))
        for which in ("main", "anti"):
            out = diagonal_branch(hv, w, which)
            assert np.array_equal(out.data, hv.data)

    def test_main_equals_rotated_kernel_conv(self):
        # rot_cw -> 1xm depthwise conv -> rot_ccw collapses to a direct
        # depthwise conv with the quarter-turned (mx1) kernel
        rng = np.random.default_rng(6)
        w = MdcaaWeights.create(rng, 2, strip_len=5, pool_window=3,
                                dtype=np.float64)
        w.diag_main.bias.data[:] = 0.0
        hv = Tensor(rng.standard_normal((1, 2, 9, 9)), dtype=np.float64)
        got = diagonal_branch(hv, w, "main").data
        turned = rot90(w.diag_main.kernel, "ccw")
        want = conv2d(hv, turned, padding=(2, 0), groups=2).data
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_unknown_branch_rejected(self):
        rng = np.random.default_rng(7)
        w = MdcaaWeights.create(rng, 2, strip_len=5)
        with pytest.raises(ContractError):
            diagonal_branch(Tensor(np.zeros((1, 2, 8, 8))), w, "other")

    def test_diagonal_support_is_turned(self):
        # a ones-strip main-diagonal kernel responds along a vertical
        # segment, not the horizontal one the unrotated conv would give
        rng = np.random.default_rng(8)
        w = MdcaaWeights.create(rng, 1, strip_len=5, pool_window=3)
        w.diag_main.kernel.data[:] = 1.0
        w.diag_main.bias.data[:] = 0.0
        spike = np.zeros((1, 1, 11, 11))
        spike[0, 0, 5, 5] = 1.0
        out = diagonal_branch(Tensor(spike), w, "main").data[0, 0]
        ys, xs = np.nonzero(out)
        assert set(xs) == {5}
        assert set(ys) == set(range(3, 8))


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
