"""Five-branch separable-kernel module and its parameter model."""

from fractions import Fraction

import numpy as np
import pytest

from rotdet.errors import ContractError, ShapeError
from rotdet.msk import (STRIP_SIZES, MskModuleWeights, count_params,
                        msk_block_forward, msk_module_forward)
from rotdet.tensor import Tensor, conv2d
from test_tensor import assert_walk_covers_graph


def _zero_biases(weights):
    for conv in ([weights.identity_reduce, weights.identity_conv]
                 + [c for branch in weights.branches for c in branch]):
        conv.bias.data[:] = 0.0


def full_kernel_oracle(x, w):
    """Each branch's depthwise strip pair collapsed into its equivalent
    grouped mxm conv."""
    parts = []
    for m, (reduce, row, col) in zip(STRIP_SIZES, w.branches):
        reduced = conv2d(x, reduce.kernel, stride=reduce.stride)
        # K[c, 0, i, j] = col[c, 0, i, 0] * row[c, 0, 0, j]
        full = np.einsum("ci,cj->cij", col.kernel.data[:, 0, :, 0],
                         row.kernel.data[:, 0, 0, :])[:, np.newaxis]
        pad = (m - 1) // 2
        parts.append(conv2d(reduced, Tensor(full), padding=(pad, pad),
                            groups=len(full)).data)
    ident = conv2d(conv2d(x, w.identity_reduce.kernel,
                          stride=w.identity_reduce.stride),
                   w.identity_conv.kernel, padding=(1, 1)).data
    parts.append(ident)
    return np.concatenate(parts, axis=1)


class TestMskModule:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(0)
        w = MskModuleWeights.create(rng, 4, 3)
        for p in w.parameters():
            p.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 4, 8, 8)))
        out = msk_module_forward(x, w)
        assert out.shape == (1, 15, 8, 8)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_shapes(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 8, 32, 32)))
        w = MskModuleWeights.create(rng, 8, 8)
        assert msk_module_forward(x, w).shape == (1, 40, 32, 32)
        wd = MskModuleWeights.create(rng, 8, 8, downsample=True)
        assert msk_module_forward(x, wd).shape == (1, 40, 16, 16)

    def test_branch_kernel_sizes(self):
        rng = np.random.default_rng(2)
        w = MskModuleWeights.create(rng, 6, 3, downsample=True)
        sizes = [branch[1].kernel.shape[3] for branch in w.branches]
        assert sizes == [5, 7, 9, 11]
        for m, (reduce, row, col) in zip(STRIP_SIZES, w.branches):
            assert (reduce.kernel.shape, reduce.stride) == ((3, 6, 1, 1),
                                                            (2, 2))
            assert (row.kernel.shape, row.groups) == ((3, 1, 1, m), 3)
            assert (col.kernel.shape, col.groups) == ((3, 1, m, 1), 3)

    def test_matches_full_kernel_oracle(self):
        rng = np.random.default_rng(3)
        w = MskModuleWeights.create(rng, 4, 3)
        _zero_biases(w)
        x = Tensor(rng.standard_normal((1, 4, 12, 12)), dtype=np.float64)
        got = msk_module_forward(x, w).data
        want = full_kernel_oracle(x, w)
        assert np.max(np.abs(got - want)) <= 1e-5

    def test_branch_slices_stable_under_reorder(self):
        rng = np.random.default_rng(4)
        w = MskModuleWeights.create(rng, 4, 3)
        x = Tensor(rng.standard_normal((1, 4, 8, 8)))
        base = msk_module_forward(x, w).data
        w.branches = w.branches[::-1]
        swapped = msk_module_forward(x, w).data
        bo = w.identity_conv.kernel.shape[0]
        for i in range(4):
            np.testing.assert_array_equal(
                swapped[:, i * bo:(i + 1) * bo],
                base[:, (3 - i) * bo:(4 - i) * bo])
        np.testing.assert_array_equal(swapped[:, 4 * bo:], base[:, 4 * bo:])

    def test_channel_mismatch(self):
        rng = np.random.default_rng(5)
        w = MskModuleWeights.create(rng, 4, 3)
        with pytest.raises(ShapeError):
            msk_module_forward(Tensor(np.zeros((1, 5, 8, 8))), w)


def test_parameter_walk_covers_module_graph():
    # identity 1x1 + 3x3 and four (1x1, 1xm, mx1) branches: 14 convs
    rng = np.random.default_rng(12)
    w = MskModuleWeights.create(rng, 4, 2, downsample=True)
    x = Tensor(rng.standard_normal((1, 4, 8, 8)))
    assert_walk_covers_graph(w, x, [msk_module_forward(x, w)], 28)


class TestMskBlock:
    def _weights(self, rng, stem=8, bo=8):
        w = [MskModuleWeights.create(rng, stem, bo)]
        for _ in range(3):
            w.append(MskModuleWeights.create(rng, 5 * bo, bo, downsample=True))
        return w

    def test_extent_halving(self):
        rng = np.random.default_rng(6)
        weights = self._weights(rng)
        x = Tensor(rng.standard_normal((1, 8, 64, 64)))
        levels = msk_block_forward(x, weights)
        assert [m.shape[2] for m in levels] == [64, 32, 16, 8]

    def test_zero_input_zero_levels(self):
        rng = np.random.default_rng(7)
        weights = self._weights(rng)
        for w in weights:
            for p in w.parameters():
                p.data[:] = 0.0
        levels = msk_block_forward(Tensor(np.zeros((1, 8, 32, 32))), weights)
        for m in levels:
            np.testing.assert_array_equal(m.data, 0.0)

    def test_composition(self):
        rng = np.random.default_rng(8)
        weights = self._weights(rng)
        x = Tensor(rng.standard_normal((1, 8, 32, 32)))
        levels = msk_block_forward(x, weights)
        cur = x
        for w, level in zip(weights, levels):
            cur = msk_module_forward(cur, w)
            assert np.array_equal(cur.data, level.data)

    def test_wrong_count_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ContractError):
            msk_block_forward(Tensor(np.zeros((1, 4, 8, 8))),
                              [MskModuleWeights.create(rng, 4, 2)] * 3)

    def test_downsample_pattern_enforced(self):
        rng = np.random.default_rng(10)
        bad = [MskModuleWeights.create(rng, 4, 2, downsample=True)] * 4
        with pytest.raises(ContractError):
            msk_block_forward(Tensor(np.zeros((1, 4, 8, 8))), bad)


class TestParamCount:
    def test_c64_m5(self):
        report = count_params(64)
        row = report.per_m[5]
        assert row["full"] == 1600
        assert row["separable"] == 640
        assert row["ratio"] == Fraction(2, 5)

    @pytest.mark.parametrize("c, b", [(4, 3), (8, 8), (40, 8)])
    def test_counts_the_module_strips(self, c, b):
        w = MskModuleWeights.create(np.random.default_rng(13), c, b)
        strips = sum(conv.kernel.data.size
                     for _, row, col in w.branches for conv in (row, col))
        assert strips == count_params(b).total_separable

    def test_unit_channel_m7(self):
        row = count_params(1).per_m[7]
        assert (row["full"], row["separable"]) == (49, 14)
        assert row["ratio"] == Fraction(2, 7)

    def test_ratio_is_two_over_m(self):
        for c in range(1, 65):
            report = count_params(c)
            for m, row in report.per_m.items():
                assert row["ratio"] == Fraction(2, m)

    def test_separable_smaller_for_m_at_least_3(self):
        report = count_params(16, strip_sizes=(3, 5, 7, 9, 11))
        for row in report.per_m.values():
            assert row["separable"] - row["full"] < 0

    def test_positive_channels_required(self):
        with pytest.raises(ContractError):
            count_params(0)
