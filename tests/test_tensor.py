"""Tensor engine: op contracts, invariants, gradients."""

import math
import os
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rotdet import tensor as tensor_module
from rotdet.errors import ContractError, ShapeError
from rotdet.tensor import (Tensor, WeightSet, _col2im, _im2col, _padded, add,
                           avg_pool, backward, concat_channels, conv2d,
                           gradcheck, gradients, mean_all, mul,
                           named_parameters, no_recording, normalize_vec,
                           rot90, scale, sigmoid, smooth_l1, sub, sum_all)

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
    sh, sw = stride
    ph, pw = padding
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


def _looped_im2col(xp, groups, kh, kw, sh, sw, oh, ow):
    """``_im2col`` as one slice copy per kernel tap, in the same grouped
    (G, Cg*kh*kw, N*oh*ow) layout."""
    n, c = xp.shape[:2]
    cg = c // groups
    cols = np.empty((groups, cg, kh, kw, n, oh, ow), dtype=xp.dtype)
    # (N, C, ...) viewed as (G, Cg, N, ...): the copy does the transpose
    src = xp.reshape(n, groups, cg, *xp.shape[2:]).transpose(1, 2, 0, 3, 4)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = src[..., i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols.reshape(groups, cg * kh * kw, n * oh * ow)


def _clipped_sigmoid(v):
    """sigmoid as it was when it computed its bounds on every call and
    clipped with ``np.clip``."""
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0, e)
    out /= 1.0 + e
    tiny = np.nextafter(v.dtype.type(0), v.dtype.type(1))
    below_one = np.nextafter(v.dtype.type(1), v.dtype.type(0))
    np.clip(out, tiny, below_one, out=out)
    return out


def _masked_sigmoid(v):
    """The logistic function as boolean-mask gathers and scatters of the two
    stable forms, clipped to the open interval."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    tiny = np.nextafter(v.dtype.type(0), v.dtype.type(1))
    below_one = np.nextafter(v.dtype.type(1), v.dtype.type(0))
    return np.clip(out, tiny, below_one)


def _buffered_conv2d(x, kernel, stride=(1, 1), padding=(0, 0), groups=1,
                     bias=None):
    """conv2d as it was when its backward closure kept the forward's patch
    buffer instead of copying the patches again, and the buffer was filled
    one kernel tap at a time (shape checks left out)."""
    n, c, h, w = x.shape
    oc, cg, kh, kw = kernel.shape
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    xp = _padded(x.data, ph, pw)
    xp_shape = xp.shape
    cols = _looped_im2col(xp, groups, kh, kw, sh, sw, oh, ow)
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


def _reference_avg_pool(x, window, padding=(0, 0)):
    """avg_pool as a sum over an (N, C, kh, kw, oh, ow) im2col buffer."""
    kh, kw = window
    ph, pw = padding
    n, c, h, w = x.shape
    oh = h + 2 * ph - kh + 1
    ow = w + 2 * pw - kw + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = _reference_im2col(xp, kh, kw, 1, 1, oh, ow)
    inv = 1.0 / (kh * kw)
    out = cols.sum(axis=(2, 3)) * inv

    def bwd(g):
        gcols = np.broadcast_to(
            (g * inv)[:, :, None, None], (n, c, kh, kw, oh, ow))
        gxp = _reference_col2im(np.ascontiguousarray(gcols), xp.shape, kh, kw,
                                1, 1, oh, ow)
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
        out = avg_pool(x, (1, 1), (0, 0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_field(self):
        x = Tensor(np.full((1, 1, 6, 6), 3.5))
        out = avg_pool(x, (3, 3), (0, 0))
        np.testing.assert_allclose(out.data, 3.5)

    def test_direct_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = avg_pool(x, (2, 2), (0, 0))
        np.testing.assert_allclose(out.data, [[[[2.5]]]])

    def test_count_include_pad(self):
        # padded cells are zeros and stay in the divisor
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = avg_pool(x, (3, 3), padding=(1, 1))
        assert out.data[0, 0, 0, 0] == pytest.approx(4.0 / 9.0)

    def test_empty_output_rejected(self):
        with pytest.raises(ShapeError):
            avg_pool(Tensor(np.zeros((1, 1, 2, 2))), (5, 5), (0, 0))


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
        run, [Tensor(d.astype(dtype)) for d in leaves],
        seed + 1)


def _bytes_differ(got, want) -> list[str]:
    """Which of two ``_conv_out_and_grads`` results differ in any byte."""
    names = ("output", "input grad", "kernel grad", "bias grad")
    return [name for name, a, b in zip(names, got, want)
            if (a.dtype, a.shape) != (b.dtype, b.shape)
            or a.tobytes() != b.tobytes()]


def _blas_vars() -> str:
    return ", ".join(f"{v}={os.environ.get(v)}" for v in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_CORETYPE"))


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
           st.integers(1, 9), st.sampled_from([1, 2, 3, 5, 7]), st.booleans(),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**31))
    @settings(max_examples=150, deadline=None)
    def test_avg_pool_output_and_gradient(self, n, c, h, w, k, same, dtype,
                                          seed):
        pad = (k - 1) // 2 if same else 0
        assume(min(h, w) + 2 * pad >= k)  # a non-empty output
        xd = np.random.default_rng(seed).standard_normal(
            (n, c, h, w)).astype(dtype)
        results = [
            _out_and_grads(
                lambda x, op=op: op(x, (k, k), padding=(pad, pad)),
                [Tensor(xd)], seed + 1)
            for op in (avg_pool, _reference_avg_pool)]
        for got, want in zip(*results):
            _assert_rel_close(got, want, REFERENCE_TOL[dtype])

    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_conv2d_bit_equal_to_buffered(self, case):
        # copying the patches again in the backward pass, in one strided copy,
        # changes no bit of the output or of any gradient
        differ = _bytes_differ(*(_conv_out_and_grads(op, case)
                                 for op in (conv2d, _buffered_conv2d)))
        assert not differ, (f"conv2d and _buffered_conv2d differ in {differ} "
                            f"on case {case}; {_blas_vars()}")

    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_conv2d_bit_equal_to_itself(self, case):
        """Two runs on one draw give the same bytes, so a failure of the
        test above tells whether conv2d disagreed with itself."""
        differ = _bytes_differ(*(_conv_out_and_grads(conv2d, case)
                                 for _ in range(2)))
        assert not differ, (f"two conv2d runs differ in {differ} on case "
                            f"{case}; {_blas_vars()}")

    def test_bias_is_one_node(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        out = conv2d(x, k, padding=(1, 1), bias=b)
        assert out._parents == (x, k, b)

    def test_bias_shape_checked(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        k = Tensor(np.zeros((3, 2, 1, 1)))
        with pytest.raises(ShapeError, match="bias"):
            conv2d(x, k, bias=Tensor(np.zeros(2)))


def _assert_im2col_bit_equal(xp, groups, kh, kw, sh, sw):
    oh = (xp.shape[2] - kh) // sh + 1
    ow = (xp.shape[3] - kw) // sw + 1
    got = _im2col(xp, groups, kh, kw, sh, sw, oh, ow)
    want = _looped_im2col(xp, groups, kh, kw, sh, sw, oh, ow)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# an input array's memory order is not C order after a channel slice, a
# transpose or a strided slice, as a rebound ``.data`` may be
NON_CONTIGUOUS = {
    "channel_slice": lambda a: a[:, 1:-1],
    "spatial_transpose": lambda a: a.transpose(0, 1, 3, 2),
    "batch_channel_transpose": lambda a: a.transpose(1, 0, 2, 3),
    "column_step": lambda a: a[..., ::2],
    "reversed_rows": lambda a: a[:, :, ::-1],
    "fortran_order": np.asfortranarray,
}


# (n, c, groups, h, w, kh, kw, sh, sw, dtype) of patch copies that must land
# in a fresh buffer: first 1x1 stride-1 kernels over one image, whose windows
# already lie in patch order, then other layouts
FRESH_BUFFER_CASES = [
    pytest.param(1, c, groups, h, w, 1, 1, 1, 1, dtype,
                 id=f"{c}-{groups}-{h}-{w}-{dtype.__name__}")
    for c, groups, h, w in [(1, 1, 1, 1), (3, 1, 5, 7), (4, 2, 8, 8),
                            (6, 6, 4, 9), (40, 1, 64, 64)]
    for dtype in (np.float32, np.float64)] + [
    pytest.param(n, 3, 1, 6, 6, kh, kw, sh, sw, np.float64,
                 id=f"{n}-{kh}-{kw}-{sh}-{sw}")
    for n, kh, kw, sh, sw in [(2, 1, 1, 1, 1), (1, 1, 1, 2, 1),
                              (1, 3, 3, 1, 1), (1, 1, 3, 1, 1)]]


class TestIm2col:
    """The one-copy strided view against the per-tap loop it replaced."""

    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_to_looped(self, case):
        (n, c, h, w, _, groups, kh, kw, (sh, sw), (ph, pw), dtype, _,
         seed) = case
        x = np.random.default_rng(seed).standard_normal((n, c, h, w))
        _assert_im2col_bit_equal(_padded(x.astype(dtype), ph, pw), groups,
                                 kh, kw, sh, sw)

    @pytest.mark.parametrize("layout", NON_CONTIGUOUS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups,kh,kw,sh,sw", [
        (1, 3, 3, 1, 1), (2, 1, 3, 2, 1), (4, 3, 1, 1, 2), (1, 1, 1, 1, 1)])
    def test_non_contiguous_input(self, layout, dtype, groups, kh, kw, sh,
                                  sw):
        base = np.random.default_rng(21).standard_normal((6, 6, 7, 8))
        xp = NON_CONTIGUOUS[layout](base.astype(dtype))
        assert not xp.flags.c_contiguous
        _assert_im2col_bit_equal(xp[:, :4], groups, kh, kw, sh, sw)

    def test_conv2d_on_rebound_data(self):
        rng = np.random.default_rng(22)
        x = Tensor(np.zeros((2, 4, 5, 6)))
        x.data = rng.standard_normal((2, 6, 6, 5)).transpose(0, 1, 3, 2)[:, 1:5]
        k = Tensor(rng.standard_normal((3, 4, 3, 3)))
        got = conv2d(x, k)
        want = conv2d(Tensor(np.ascontiguousarray(x.data)), k)
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("n,c,groups,h,w,kh,kw,sh,sw,dtype",
                             FRESH_BUFFER_CASES)
    def test_other_layouts_copy(self, n, c, groups, h, w, kh, kw, sh, sw,
                                dtype):
        xp = np.random.default_rng(24).standard_normal((n, c, h, w)).astype(
            dtype)
        oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
        got = _im2col(xp, groups, kh, kw, sh, sw, oh, ow)
        assert not np.shares_memory(got, xp)
        want = _looped_im2col(xp, groups, kh, kw, sh, sw, oh, ow)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_allocates_only_its_buffer(self):
        # a 40-channel 1x11 strip at 64x64, padded to 64x74 beforehand: the
        # patch buffer is the only allocation, so a temporary copy of the
        # strided view (a reshape, say) would more than double the peak
        xp = _padded(np.ones((1, 40, 64, 64), dtype=np.float32), 0, 5)
        buffer_bytes = 40 * 11 * 64 * 64 * 4
        tracemalloc.start()
        try:
            cols = _im2col(xp, 40, 1, 11, 1, 1, 64, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cols.nbytes == buffer_bytes
        assert peak <= buffer_bytes + 64 * 1024


# where exp(-|v|) leaves the normal range (about 88.7 in float32, 709 in
# float64) and where it rounds to zero (about 104 and 745)
EXP_SATURATION = {np.float32: [88.5, 88.72, 88.73, 103.0, 103.97, 103.98,
                               104.0, 105.0],
                  np.float64: [708.0, 709.78, 709.79, 744.0, 744.44, 745.13,
                               745.14, 746.0]}


def _sigmoid_edges(dtype):
    info = np.finfo(dtype)
    tiny = float(np.nextafter(dtype(0), dtype(1)))
    saturation = EXP_SATURATION[dtype]
    return [0.0, -0.0, tiny, -tiny, 1e4, -1e4, float(info.max),
            -float(info.max)] + saturation + [-v for v in saturation]


@st.composite
def sigmoid_inputs(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(st.sampled_from([(), (1,), (7,), (2, 3, 4, 5)]))
    elements = (st.floats(allow_nan=False, allow_infinity=False,
                          width=np.finfo(dtype).bits)
                | st.sampled_from(_sigmoid_edges(dtype)))
    return draw(hnp.arrays(dtype, shape, elements=elements))


class TestSigmoid:
    @given(sigmoid_inputs())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_masked(self, v):
        got = sigmoid(Tensor(v)).data
        want = _masked_sigmoid(Tensor(v).data)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(sigmoid_inputs())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_clipped(self, v):
        got = sigmoid(Tensor(v)).data
        want = _clipped_sigmoid(Tensor(v).data)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturation_bit_equal_to_clipped(self, dtype):
        edges = np.array(EXP_SATURATION[dtype], dtype=dtype)
        v = np.concatenate([edges, -edges])
        # every value around each edge, a few ulps either way
        v = np.concatenate([v + k * np.spacing(v) for k in range(-4, 5)])
        assert sigmoid(Tensor(v)).data.tobytes() == \
            _clipped_sigmoid(v).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edges_bit_equal_to_masked(self, dtype):
        v = np.array(_sigmoid_edges(dtype), dtype=dtype)
        got = sigmoid(Tensor(v)).data
        assert got.tobytes() == _masked_sigmoid(v).tobytes()

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
        x = Tensor(np.random.default_rng(14).standard_normal((3, 4)))
        (g,) = gradients(sum_all(x), [x])
        np.testing.assert_array_equal(g, np.ones((3, 4)))

    def test_sigmoid_gradient_quarter_at_zero(self):
        x = Tensor(np.zeros((2, 2)))
        (g,) = gradients(sum_all(sigmoid(x)), [x])
        np.testing.assert_allclose(g, 0.25)

    def test_unused_leaf_gets_zero(self):
        x = Tensor(np.ones(3))
        y = Tensor(np.ones(3))
        (gx, gy) = gradients(sum_all(x), [x, y])
        np.testing.assert_array_equal(gx, np.ones(3))
        np.testing.assert_array_equal(gy, np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ContractError):
            backward(mul(x, x))

    def test_repeated_backward_bit_identical(self):
        rng = np.random.default_rng(15)
        xd = rng.standard_normal((1, 2, 5, 5))
        kd = rng.standard_normal((2, 2, 3, 3))

        def run():
            x = Tensor(xd)
            k = Tensor(kd)
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
        assert gradcheck(lambda a: sum_all(a), [x]) <= 1e-10

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
            gradcheck(lambda a: sum_all(a), [Tensor(np.ones(2))], eps=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ContractError, match="eps"):
            gradcheck(lambda a: sum_all(a), [Tensor(np.ones(2))], eps=eps)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    @pytest.mark.parametrize("coord_limit", [None, 1])
    def test_non_finite_gradient_fails(self, factor, coord_limit):
        # max(0.0, nan) is 0.0, so a NaN error must not reach the maximum;
        # a bad coordinate the sample leaves out fails too
        def skewed_sum(a):
            out = sum_all(a)
            correct = out._backward
            if correct is not None:
                out._backward = lambda g: correct(g * np.array([1.0, factor]))
            return out

        err = gradcheck(skewed_sum, [Tensor(np.ones(2))],
                        coord_limit=coord_limit)
        assert err == math.inf

    def test_differences_record_nothing(self):
        # the analytic pass records its graph; every finite-difference
        # forward runs with recording off
        rng = np.random.default_rng(25)
        k = Tensor(rng.standard_normal((2, 2, 3, 3)))
        outs = []

        def fn(a):
            out = sum_all(sigmoid(conv2d(a, k, padding=(1, 1))))
            outs.append(out)
            return out

        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        assert gradcheck(fn, [x]) <= 1e-6
        assert len(outs) == 1 + 2 * x.data.size
        assert outs[0]._parents and outs[0]._backward is not None
        assert all(o._parents == () and o._backward is None
                   for o in outs[1:])
        # and recording is back on afterwards
        assert sum_all(x)._parents == (x,)

    def test_inputs_left_as_they_were(self):
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        k = Tensor(rng.standard_normal((2, 2, 3, 3)))
        k.grad = np.full(k.shape, 7.0)
        before = [([getattr(t, a) for a in Tensor.__slots__], t.data.tobytes())
                  for t in (x, k)]
        assert gradcheck(lambda a, b: sum_all(conv2d(a, b, padding=(1, 1))),
                         [x, k]) <= 1e-6
        for t, (attrs, data) in zip((x, k), before):
            assert all(getattr(t, a) is v
                       for a, v in zip(Tensor.__slots__, attrs))
            assert t.data.tobytes() == data
        assert (k.grad == 7.0).all()


def graph_leaves(out: Tensor) -> set[int]:
    """Ids of the nodes without parents reachable from ``out``."""
    leaves, seen, stack = set(), set(), [out]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            stack.extend(t._parents)
        else:
            leaves.add(id(t))
    return leaves


def assert_walk_covers_graph(weights, image, outputs, count):
    """The walk names each parameter once, and a loss over ``outputs`` reaches
    exactly the walked tensors and the input ``image`` as leaves, and gives
    each parameter a gradient."""
    params = weights.parameters()
    assert len(named_parameters(weights)) == len(params) == count
    assert len(set(map(id, params))) == count
    loss = sum_all(outputs[0])
    for t in outputs[1:]:
        loss = add(loss, sum_all(t))
    assert graph_leaves(loss) == {*map(id, params), id(image)}
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
        t = [Tensor(np.full(2, float(i))) for i in range(5)]
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


@pytest.mark.parametrize("dtype", [np.int64, np.float16])
def test_non_float_dtype_rejected(dtype):
    # an int64 tensor once failed only in save_tensor, with a bare KeyError
    with pytest.raises(ContractError, match=np.dtype(dtype).name):
        Tensor([1, 2], dtype=dtype)
    assert Tensor(np.array([1, 2], dtype=dtype)).dtype == np.float64


def test_second_positional_argument_is_dtype():
    x32 = np.ones(3, np.float32)
    assert Tensor(x32, np.float64).dtype == np.float64
    assert Tensor(x32).dtype == np.float32


def test_forward_determinism():
    rng = np.random.default_rng(18)
    xd = rng.standard_normal((1, 3, 8, 8))
    kd = rng.standard_normal((4, 3, 3, 3))
    a = conv2d(Tensor(xd), Tensor(kd), padding=(1, 1)).data
    b = conv2d(Tensor(xd), Tensor(kd), padding=(1, 1)).data
    assert np.array_equal(a, b)


class TestNoRecording:
    def test_block_records_nothing(self):
        x = Tensor(np.ones((1, 2, 3, 3)))
        with no_recording():
            out = sigmoid(avg_pool(x, (3, 3), padding=(1, 1)))
        assert (out._parents, out._backward, out.grad) == ((), None, None)
        assert sigmoid(x)._parents == (x,)

    def test_same_values_as_recorded(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        recorded = sigmoid(conv2d(x, k, padding=(1, 1)))
        with no_recording():
            unrecorded = sigmoid(conv2d(x, k, padding=(1, 1)))
        assert recorded._parents
        assert unrecorded.data.tobytes() == recorded.data.tobytes()

    def test_restored_after_nesting(self):
        x = Tensor(np.ones(2))
        with no_recording():
            with no_recording():
                assert add(x, x)._parents == ()
            assert add(x, x)._parents == ()
        assert add(x, x)._parents == (x, x)

    def test_restored_after_raise(self):
        x = Tensor(np.ones(2))
        with pytest.raises(ShapeError):
            with no_recording():
                add(x, Tensor(np.ones(3)))
        assert add(x, x)._parents == (x, x)

    def test_restored_after_fn_raises_in_gradcheck(self):
        def fn(a):  # fails on a perturbed input only
            if a.data[0] != 1.0:
                raise ShapeError("perturbed")
            return sum_all(a)

        x = Tensor(np.ones(2))
        with pytest.raises(ShapeError, match="perturbed"):
            gradcheck(fn, [x])
        assert add(x, x)._parents == (x, x)
        # and the perturbed coordinate is put back
        assert x.data.tolist() == [1.0, 1.0]

    def test_plain_tensors_record(self):
        # outside the block every op records, whatever its inputs are
        x, y = Tensor(np.ones(2)), Tensor(np.ones(2))
        out = mul(x, y)
        assert out._parents == (x, y) and out._backward is not None


def _constructor_from_op(data, parents, backward):
    """``Tensor._from_op`` as it was: every output through the full
    constructor, recorded when recording is on."""
    out = Tensor(data)
    if tensor_module._recording:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _rebound(a):
    """A tensor whose ``.data`` is ``a`` as a non-contiguous view, as a
    rebound ``.data`` may be."""
    t = Tensor(np.zeros(a.shape, a.dtype))
    t.data = np.repeat(a, 2, axis=-1)[..., ::2]
    assert not t.data.flags.c_contiguous
    return t


def _transposed(a):
    """A tensor whose ``.data`` is ``a`` in Fortran order, the transpose of
    a C-order array, as a rebound ``.data`` may be."""
    t = Tensor(np.zeros(a.shape, a.dtype))
    t.data = np.ascontiguousarray(a.T).T
    assert t.data.flags.f_contiguous
    return t


# every op on small inputs: name -> (op, input shapes)
OPS = {
    "add": (add, [(2, 3), (2, 3)]),
    "sub": (sub, [(2, 3), (1, 3)]),
    "mul": (mul, [(2, 3), (2, 1)]),
    "scale": (lambda a: scale(a, 10.0), [(2, 3)]),
    "sigmoid": (sigmoid, [(2, 3)]),
    "smooth_l1": (lambda a: smooth_l1(scale(a, 2.0)), [(2, 3)]),
    "sum_all": (sum_all, [(2, 3)]),
    "mean_all": (mean_all, [(2, 3)]),
    "normalize_vec": (normalize_vec, [(4,)]),
    "concat_channels": (lambda a, b: concat_channels([a, b]),
                        [(2, 1, 3, 3), (2, 2, 3, 3)]),
    "rot90": (lambda a: rot90(a, "ccw"), [(2, 2, 3, 4)]),
    "conv2d": (lambda a, b, c: conv2d(a, b, padding=(1, 1), bias=c),
               [(2, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    "conv2d_pointwise": (conv2d, [(1, 3, 4, 4), (2, 3, 1, 1)]),
    "avg_pool": (lambda a: avg_pool(a, (3, 3), padding=(1, 1)),
                 [(2, 2, 4, 4)]),
}


class TestFromOpContract:
    """Every op's output is what the full constructor made of it."""

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", OPS)
    def test_same_node_as_constructor(self, monkeypatch, name, dtype,
                                      contiguous):
        self._same_node(monkeypatch, name, dtype,
                        Tensor if contiguous else _rebound)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", OPS)
    def test_same_node_from_fortran_order_leaves(self, monkeypatch, name,
                                                 dtype):
        self._same_node(monkeypatch, name, dtype, _transposed)

    @pytest.mark.parametrize("name", ["sum_all", "mean_all"])
    def test_reductions_are_1d(self, name):
        # a 0-d sum is stored as the constructor stores it, in shape (1,)
        out = OPS[name][0](Tensor(np.ones((2, 3))))
        assert out.shape == (1,) and out.data.flags.c_contiguous
        assert out.item() == (6.0 if name == "sum_all" else 1.0)

    @staticmethod
    def _same_node(monkeypatch, name, dtype, leaf):
        op, shapes = OPS[name]
        rng = np.random.default_rng(27)
        arrays = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        got = op(*map(leaf, arrays))
        with monkeypatch.context() as m:
            m.setattr(Tensor, "_from_op", staticmethod(_constructor_from_op))
            want = op(*map(leaf, arrays))
        assert got.data.dtype == want.data.dtype == dtype
        assert got.shape == want.shape and got.ndim >= 1
        assert got.data.flags.c_contiguous
        assert got.data.tobytes() == want.data.tobytes()
        assert (bool(got._parents), len(got._parents)) == \
            (bool(want._parents), len(want._parents)) == (True, len(shapes))

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["add", "sub", "mul", "scale", "sum_all",
                                      "mean_all", "conv2d", "avg_pool"])
    def test_overflow_rejected(self, name, dtype, contiguous):
        op, shapes = OPS[name]
        big = 0.75 * float(np.finfo(dtype).max)
        signs = [1.0, -1.0 if name == "sub" else 1.0, 1.0]
        leaf = Tensor if contiguous else _rebound
        inputs = [leaf(np.full(shape, sign * big, dtype))
                  for shape, sign in zip(shapes, signs)]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="^tensor values must be "
                                                "finite$"):
            op(*inputs)
