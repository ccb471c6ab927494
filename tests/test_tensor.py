"""Tensor engine: op contracts, invariants, gradients."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotdet.errors import ContractError, ShapeError
from rotdet.tensor import (Tensor, WeightSet, _as_pair, _col2im, _im2col,
                           _padded, add, avg_pool, backward, concat_channels,
                           conv2d, gradcheck, gradients, mul, named_parameters,
                           rot90, sigmoid, sum_all)

# Convolution and pooling copy into preallocated buffers; a warning here
# (overflow, invalid cast) is a defect.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# -- the einsum / im2col implementations conv2d and avg_pool replaced --------


def _reference_im2col(xp, kh, kw, sh, sw, oh, ow):
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols


def _reference_col2im(gcols, xp_shape, kh, kw, sh, sw, oh, ow):
    gxp = np.zeros(xp_shape, dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += gcols[:, :, i, j]
    return gxp


def _reference_conv2d(x, kernel, stride=(1, 1), padding=(0, 0), groups=1,
                      bias=None):
    """conv2d as an einsum over an (N, C, kh, kw, oh, ow) im2col buffer,
    with the bias added in a node of its own."""
    n, c, h, w = x.shape
    oc, cg, kh, kw = kernel.shape
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = _reference_im2col(xp, kh, kw, sh, sw, oh, ow)
    colsr = cols.reshape(n, groups, cg * kh * kw, oh * ow)
    wr = kernel.data.reshape(groups, oc // groups, cg * kh * kw)
    out = np.einsum("gok,ngkl->ngol", wr, colsr, optimize=True)
    out = np.ascontiguousarray(out.reshape(n, oc, oh, ow))

    def bwd(g):
        go = g.reshape(n, groups, oc // groups, oh * ow)
        gw = np.einsum("ngol,ngkl->gok", go, colsr, optimize=True)
        kernel._accumulate(gw.reshape(kernel.shape))
        gcols = np.einsum("gok,ngol->ngkl", wr, go, optimize=True)
        gcols = gcols.reshape(n, c, kh, kw, oh, ow)
        gxp = _reference_col2im(gcols, xp.shape, kh, kw, sh, sw, oh, ow)
        x._accumulate(gxp[:, :, ph:ph + h, pw:pw + w])

    out_t = Tensor._from_op(out, (x, kernel), bwd)
    if bias is None:
        return out_t

    def bias_bwd(g):
        out_t._accumulate(g)
        bias._accumulate(g.sum(axis=(0, 2, 3)))

    return Tensor._from_op(out_t.data + bias.data.reshape(1, -1, 1, 1),
                           (out_t, bias), bias_bwd)


def _buffered_conv2d(x, kernel, stride=(1, 1), padding=(0, 0), groups=1,
                     bias=None):
    """conv2d as it was when its backward closure kept the forward's patch
    buffer instead of copying the patches again (shape checks left out)."""
    n, c, h, w = x.shape
    oc, cg, kh, kw = kernel.shape
    sh, sw = _as_pair(stride)
    ph, pw = _as_pair(padding)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    xp = _padded(x.data, ph, pw)
    xp_shape = xp.shape
    cols = _im2col(xp, groups, kh, kw, sh, sw, oh, ow)
    wr = kernel.data.reshape(groups, oc // groups, cg * kh * kw)
    out = np.matmul(wr, cols).reshape(oc, n, oh, ow).transpose(1, 0, 2, 3)
    out = np.ascontiguousarray(out)
    parents = (x, kernel)
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1)
        parents += (bias,)

    def bwd(g):
        go = g.reshape(n, oc, oh * ow).transpose(1, 0, 2)
        go = np.ascontiguousarray(go).reshape(groups, oc // groups, n * oh * ow)
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        kernel._accumulate(
            np.matmul(go, cols.transpose(0, 2, 1)).reshape(kernel.shape))
        gcols = np.matmul(wr.transpose(0, 2, 1), go)
        gxp = _col2im(gcols, xp_shape, groups, kh, kw, sh, sw, oh, ow)
        x._accumulate(gxp[:, :, ph:ph + h, pw:pw + w])

    return Tensor._from_op(out, parents, bwd)


def _reference_avg_pool(x, window, stride=None, padding=(0, 0)):
    """avg_pool as a sum over an (N, C, kh, kw, oh, ow) im2col buffer."""
    kh, kw = _as_pair(window)
    sh, sw = _as_pair(stride if stride is not None else window)
    ph, pw = _as_pair(padding)
    n, c, h, w = x.shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = _reference_im2col(xp, kh, kw, sh, sw, oh, ow)
    inv = 1.0 / (kh * kw)
    out = cols.sum(axis=(2, 3)) * inv

    def bwd(g):
        gcols = np.broadcast_to(
            (g * inv)[:, :, None, None], (n, c, kh, kw, oh, ow))
        gxp = _reference_col2im(np.ascontiguousarray(gcols), xp.shape, kh, kw,
                                sh, sw, oh, ow)
        x._accumulate(gxp[:, :, ph:ph + h, pw:pw + w])

    return Tensor._from_op(np.ascontiguousarray(out), (x,), bwd)


def naive_conv2d(x, k, stride=(1, 1), padding=(0, 0), groups=1):
    """Scalar-loop convolution oracle, independent of the library path."""
    n, c, h, w = x.shape
    oc, cg, kh, kw = k.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, oc, oh, ow), dtype=x.dtype)
    ocg = oc // groups
    for b in range(n):
        for o in range(oc):
            g = o // ocg
            for p in range(oh):
                for q in range(ow):
                    acc = 0.0
                    for ci in range(cg):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[b, g * cg + ci, p * sh + i, q * sw + j] \
                                    * k[o, ci, i, j]
                    out[b, o, p, q] = acc
    return out


class TestConv2d:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        eye = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        out = conv2d(x, eye)
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_field(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, k)
        assert out.shape == (1, 1, 3, 3)
        np.testing.assert_allclose(out.data, 9.0)

    def test_rank1_kernel_separates(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        full = Tensor(np.outer(u, v).reshape(1, 1, 5, 5), dtype=np.float64)
        x = Tensor(rng.standard_normal((1, 1, 16, 16)), dtype=np.float64)
        direct = conv2d(x, full, padding=(2, 2))
        strips = conv2d(conv2d(x, Tensor(v.reshape(1, 1, 1, 5)),
                               padding=(0, 2)),
                        Tensor(u.reshape(1, 1, 5, 1)), padding=(2, 0))
        assert np.max(np.abs(direct.data - strips.data)) <= 1e-5

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 7, 6))
        k = rng.standard_normal((6, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(k), stride=(2, 1), padding=(1, 2),
                     groups=2)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, k, (2, 1), (1, 2), 2), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 8, 8))
        y = rng.standard_normal((1, 2, 8, 8))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        lhs = conv2d(Tensor(2.0 * x - 3.0 * y), k, padding=(1, 1)).data
        rhs = 2.0 * conv2d(Tensor(x), k, padding=(1, 1)).data \
            - 3.0 * conv2d(Tensor(y), k, padding=(1, 1)).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-12)

    def test_shape_errors(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        with pytest.raises(ShapeError):
            conv2d(x, Tensor(np.zeros((2, 2, 3, 3))))  # channel mismatch
        with pytest.raises(ShapeError):
            conv2d(x, Tensor(np.zeros((2, 3, 5, 5))))  # empty output
        with pytest.raises(ShapeError):
            conv2d(x, Tensor(np.zeros((3, 3, 1, 1))), groups=2)


class TestRot90:
    def test_single_cell_fixed_point(self):
        x = Tensor(np.arange(6.0).reshape(1, 6, 1, 1))
        np.testing.assert_array_equal(rot90(x, "ccw").data, x.data)

    def test_inverse_pair_bit_exact(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 5, 7)))
        back = rot90(rot90(x, "ccw"), "cw")
        assert np.array_equal(back.data, x.data)

    def test_2x2_ccw(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = rot90(x, "ccw")
        np.testing.assert_array_equal(
            out.data[0, 0], np.array([[2.0, 4.0], [1.0, 3.0]]))

    def test_index_permutation_oracle(self):
        # ccw sends input (r, c) to output (W-1-c, r)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 1, 3, 4))
        out = rot90(Tensor(x), "ccw").data
        h, w = 3, 4
        for r in range(h):
            for c in range(w):
                assert out[0, 0, w - 1 - c, r] == x[0, 0, r, c]

    def test_four_times_identity(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        cur = x
        for _ in range(4):
            cur = rot90(cur, "cw")
        assert np.array_equal(cur.data, x.data)

    def test_conv_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 2, 9, 9)), dtype=np.float64)
        k = Tensor(rng.standard_normal((3, 2, 3, 3)), dtype=np.float64)
        lhs = rot90(conv2d(x, k, padding=(1, 1)), "cw").data
        rhs = conv2d(rot90(x, "cw"), rot90(k, "cw"), padding=(1, 1)).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-12)

    def test_non_4d_rejected(self):
        with pytest.raises(ShapeError):
            rot90(Tensor(np.zeros((3, 3))), "ccw")


class TestAvgPool:
    def test_window_1_identity(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        np.testing.assert_array_equal(avg_pool(x, (1, 1)).data, x.data)

    def test_constant_field(self):
        x = Tensor(np.full((1, 1, 6, 6), 3.5))
        out = avg_pool(x, (3, 3), stride=(1, 1))
        np.testing.assert_allclose(out.data, 3.5)

    def test_direct_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = avg_pool(x, (2, 2), stride=(1, 1))
        np.testing.assert_allclose(out.data, [[[[2.5]]]])

    def test_count_include_pad(self):
        # padded cells are zeros and stay in the divisor
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = avg_pool(x, (3, 3), stride=(1, 1), padding=(1, 1))
        assert out.data[0, 0, 0, 0] == pytest.approx(4.0 / 9.0)

    def test_empty_output_rejected(self):
        with pytest.raises(ShapeError):
            avg_pool(Tensor(np.zeros((1, 1, 2, 2))), (5, 5))


# f64 differs from the einsum path only in summation order; f32 likewise,
# at single precision
REFERENCE_TOL = {np.float64: 1e-12, np.float32: 1e-5}


def _assert_rel_close(got, want, tol):
    assert got.dtype == want.dtype and got.shape == want.shape
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-30)
    assert float(np.max(np.abs(got - want), initial=0.0)) <= tol * scale


def _out_and_grads(op, leaves, seed):
    """Output of ``op`` and the gradients w.r.t. ``leaves`` of sum(out * r),
    with r a seeded standard-normal array."""
    out = op(*leaves)
    r = np.random.default_rng(seed).standard_normal(out.shape)
    loss = sum_all(mul(out, Tensor(r.astype(out.dtype))))
    return [out.data] + gradients(loss, list(leaves))


@st.composite
def conv_cases(draw):
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    depthwise = draw(st.booleans())
    groups = c if depthwise else 1
    oc = c * draw(st.integers(1, 2)) if depthwise else draw(st.integers(1, 4))
    m = draw(st.sampled_from([3, 5]))
    kh, kw = draw(st.sampled_from([(1, 1), (3, 3), (1, m), (m, 1)]))
    stride = (draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2])))
    same = draw(st.booleans())
    padding = ((kh - 1) // 2, (kw - 1) // 2) if same else (0, 0)
    h = draw(st.integers(kh, 9))
    w = draw(st.integers(kw, 9))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    with_bias = draw(st.booleans())
    seed = draw(st.integers(0, 2**31))
    return (n, c, h, w, oc, groups, kh, kw, stride, padding, dtype,
            with_bias, seed)


def _conv_out_and_grads(op, case):
    """``_out_and_grads`` of the conv ``op`` on one ``conv_cases`` draw."""
    (n, c, h, w, oc, groups, kh, kw, stride, padding, dtype, with_bias,
     seed) = case
    rng = np.random.default_rng(seed)
    leaves = [rng.standard_normal((n, c, h, w)),
              rng.standard_normal((oc, c // groups, kh, kw))]
    if with_bias:
        leaves.append(rng.standard_normal(oc))

    def run(x, k, b=None):
        return op(x, k, stride=stride, padding=padding, groups=groups, bias=b)

    return _out_and_grads(
        run, [Tensor(d.astype(dtype), requires_grad=True) for d in leaves],
        seed + 1)


class TestAgainstReference:
    """conv2d and avg_pool against the einsum / im2col code they replaced."""

    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_conv2d_output_and_gradients(self, case):
        results = [_conv_out_and_grads(op, case)
                   for op in (conv2d, _reference_conv2d)]
        for got, want in zip(*results):
            _assert_rel_close(got, want, REFERENCE_TOL[want.dtype.type])

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9),
           st.integers(1, 9), st.sampled_from([1, 2, 3, 5, 7]),
           st.sampled_from([None, 1, 2]), st.booleans(),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**31))
    @settings(max_examples=150, deadline=None)
    def test_avg_pool_output_and_gradient(self, n, c, h, w, k, stride, same,
                                          dtype, seed):
        pad = (k - 1) // 2 if same else 0
        assume(min(h, w) + 2 * pad >= k)  # a non-empty output
        xd = np.random.default_rng(seed).standard_normal(
            (n, c, h, w)).astype(dtype)
        results = [
            _out_and_grads(lambda x, op=op: op(x, k, stride=stride,
                                               padding=pad),
                           [Tensor(xd, requires_grad=True)], seed + 1)
            for op in (avg_pool, _reference_avg_pool)]
        for got, want in zip(*results):
            _assert_rel_close(got, want, REFERENCE_TOL[dtype])

    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_conv2d_bit_equal_to_buffered(self, case):
        # copying the patches again in the backward pass changes no bit of
        # the output or of any gradient
        results = [_conv_out_and_grads(op, case)
                   for op in (conv2d, _buffered_conv2d)]
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_bias_is_one_node(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        out = conv2d(x, k, padding=(1, 1), bias=b)
        assert out._parents == (x, k, b)

    def test_bias_shape_checked(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        k = Tensor(np.zeros((3, 2, 1, 1)))
        with pytest.raises(ShapeError, match="bias"):
            conv2d(x, k, bias=Tensor(np.zeros(2)))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(Tensor(np.array(0.0))).item() == 0.5

    def test_symmetry(self):
        v = np.linspace(-20, 20, 41)
        s = sigmoid(Tensor(v)).data + sigmoid(Tensor(-v)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_large_input_stays_inside_open_interval(self):
        hi = sigmoid(Tensor(np.array(40.0), dtype=np.float64)).item()
        assert hi < 1.0
        assert hi > 1.0 - 1e-12
        lo = sigmoid(Tensor(np.array(-1000.0), dtype=np.float64)).item()
        assert 0.0 < lo < 1e-12


class TestConcatAndAdd:
    def test_single_part(self):
        x = Tensor(np.random.default_rng(9).standard_normal((1, 2, 3, 3)))
        np.testing.assert_array_equal(concat_channels([x]).data, x.data)

    def test_slices_equal_inputs(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.standard_normal((1, 2, 3, 3)))
        b = Tensor(rng.standard_normal((1, 3, 3, 3)))
        out = concat_channels([a, b])
        assert out.shape[1] == 5
        np.testing.assert_array_equal(out.data[:, :2], a.data)
        np.testing.assert_array_equal(out.data[:, 2:], b.data)

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(11)
        parts = [Tensor(rng.standard_normal((2, c, 4, 4)))
                 for c in (1, 3, 2, 4)]
        out = concat_channels(parts)
        start = 0
        for p in parts:
            stop = start + p.shape[1]
            assert np.array_equal(out.data[:, start:stop], p.data)
            start = stop

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            concat_channels([Tensor(np.zeros((1, 1, 3, 3))),
                             Tensor(np.zeros((1, 1, 4, 4)))])

    def test_add_zero_and_negation(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 3))
        np.testing.assert_array_equal(
            add(Tensor(a), Tensor(np.zeros((2, 3)))).data, a)
        np.testing.assert_array_equal(
            add(Tensor(a), Tensor(-a)).data, np.zeros((2, 3)))

    def test_add_scalar_loop_oracle(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 2, 2))
        b = rng.standard_normal((2, 2, 2))
        out = add(Tensor(a), Tensor(b)).data
        for idx in np.ndindex(a.shape):
            assert out[idx] == a[idx] + b[idx]

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(14).standard_normal((3, 4)),
                   requires_grad=True)
        (g,) = gradients(sum_all(x), [x])
        np.testing.assert_array_equal(g, np.ones((3, 4)))

    def test_sigmoid_gradient_quarter_at_zero(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        (g,) = gradients(sum_all(sigmoid(x)), [x])
        np.testing.assert_allclose(g, 0.25)

    def test_unused_leaf_gets_zero(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        (gx, gy) = gradients(sum_all(x), [x, y])
        np.testing.assert_array_equal(gx, np.ones(3))
        np.testing.assert_array_equal(gy, np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            backward(mul(x, x))

    def test_repeated_backward_bit_identical(self):
        rng = np.random.default_rng(15)
        xd = rng.standard_normal((1, 2, 5, 5))
        kd = rng.standard_normal((2, 2, 3, 3))

        def run():
            x = Tensor(xd, requires_grad=True)
            k = Tensor(kd, requires_grad=True)
            loss = sum_all(sigmoid(conv2d(x, k, padding=(1, 1))))
            return gradients(loss, [x, k])

        g1 = run()
        g2 = run()
        assert np.array_equal(g1[0], g2[0])
        assert np.array_equal(g1[1], g2[1])


class TestGradcheck:
    def test_linear_fn_tight(self):
        x = Tensor(np.random.default_rng(16).standard_normal((3, 3)),
                   dtype=np.float64)
        assert gradcheck(lambda a: sum_all(a), x) <= 1e-10

    def test_conv_sigmoid_chain(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)), dtype=np.float64)
        k = Tensor(rng.standard_normal((2, 2, 3, 3)), dtype=np.float64)
        err = gradcheck(
            lambda a, b: sum_all(sigmoid(conv2d(a, b, padding=(1, 1)))),
            [x, k], eps=1e-5)
        assert err <= 1e-6

    def test_conv_with_bias(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((2, 2, 5, 4)), dtype=np.float64)
        k = Tensor(rng.standard_normal((3, 2, 3, 1)), dtype=np.float64)
        b = Tensor(rng.standard_normal(3), dtype=np.float64)
        err = gradcheck(
            lambda a, c, d: sum_all(sigmoid(
                conv2d(a, c, stride=(2, 1), padding=(1, 0), bias=d))),
            [x, k, b], eps=1e-5)
        assert err <= 1e-6

    def test_bad_eps_rejected(self):
        with pytest.raises(ContractError):
            gradcheck(lambda a: sum_all(a), Tensor(np.ones(2)), eps=0.0)


def graph_leaves(out: Tensor) -> set[int]:
    """Ids of the grad-requiring leaves reachable from ``out``."""
    leaves, seen, stack = set(), set(), [out]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            stack.extend(t._parents)
        elif t.requires_grad:
            leaves.add(id(t))
    return leaves


def assert_walk_covers_graph(weights, outputs, count):
    """The walk names each parameter once, and a loss over ``outputs`` reaches
    exactly the walked tensors and gives each a gradient."""
    params = weights.parameters()
    assert len(named_parameters(weights)) == len(params) == count
    assert len(set(map(id, params))) == count
    loss = sum_all(outputs[0])
    for t in outputs[1:]:
        loss = add(loss, sum_all(t))
    assert graph_leaves(loss) == set(map(id, params))
    backward(loss)
    assert all(p.grad is not None for p in params)


@dataclass
class _Leafy(WeightSet):
    w: Tensor
    size: int = 3


@dataclass
class _Nested(WeightSet):
    inner: _Leafy
    pair: tuple
    table: dict
    items: list


class TestNamedParameters:
    def test_walks_fields_items_and_keys(self):
        t = [Tensor(np.full(2, float(i)), requires_grad=True) for i in range(5)]
        w = _Nested(inner=_Leafy(t[0]), pair=(t[1], _Leafy(t[2], 7)),
                    table={"a": t[3], "b": "not a tensor"},
                    items=[None, [t[4]]])
        named = named_parameters(w)
        assert list(named) == ["inner.w", "pair.0", "pair.1.w", "table.a",
                               "items.1.0"]
        assert [id(v) for v in named.values()] == list(map(id, t))
        assert w.parameters() == list(named.values())
        assert named_parameters(w.inner, "net") == {"net.w": t[0]}

    def test_tensor_and_plain_values(self):
        t = Tensor(np.ones(1))
        assert named_parameters(t, "x") == {"x": t}
        assert named_parameters(3) == {}
        assert named_parameters("text") == {}


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Tensor(np.array([1.0, np.nan]))


def test_forward_determinism():
    rng = np.random.default_rng(18)
    xd = rng.standard_normal((1, 3, 8, 8))
    kd = rng.standard_normal((4, 3, 3, 3))
    a = conv2d(Tensor(xd), Tensor(kd), padding=(1, 1)).data
    b = conv2d(Tensor(xd), Tensor(kd), padding=(1, 1)).data
    assert np.array_equal(a, b)
