"""Minimal dense-tensor engine with reverse-mode differentiation.

Tensors wrap contiguous numpy arrays (float32 or float64). Every operation
keeps a backward closure and its parents while recording is on, so
:func:`backward` of a scalar result accumulates gradients into every leaf it
reaches, and :func:`gradients` returns those of the leaves asked for.
``no_recording()`` is the one switch that turns recording off, as
``torch.no_grad`` does; the CLI's inference forwards and ``gradcheck``'s
finite-difference forwards run inside it. The op set is what the feature
blocks need: conv2d (with groups and stride), average pooling, sigmoid,
channel concat, and elementwise arithmetic; ``rot90`` serves the rotation
contracts of acceptance criterion 7 and the gradcheck battery.

A convolution is one ``np.matmul`` per direction: every window of the
padded input is one 7-D strided view, copied once into a new (groups,
Cg*kH*kW, N*oH*oW) patch buffer; the kernel multiplies it in the forward
pass, and the backward pass multiplies by its transpose and adds the patch
gradients back into place, one kernel tap at a time since windows overlap.
The optional bias is added in the same node.

A recorded convolution does not keep its patch buffer, which holds kH*kW
copies of the input: the backward pass copies the patches again from the
input's ``.data``. So no code may write into a recorded tensor's ``.data``,
or rebind it, between the forward pass that read it and the ``backward``
over that graph; gradients would silently describe the new values.

All forward math is plain numpy in a fixed order, so two identical runs
produce bit-identical outputs and gradients.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# sigmoid's outputs stay in the open interval: (least value above 0, greatest
# value below 1) per dtype
_OPEN_UNIT = {d: (np.nextafter(d.type(0), d.type(1)),
                  np.nextafter(d.type(1), d.type(0))) for d in FLOAT_DTYPES}
# read by Tensor._from_op; only no_recording() sets it
_recording = True


@contextlib.contextmanager
def no_recording():
    """Ops inside the block record no graph: their outputs have no parents
    and no backward closure. The previous state comes back on exit, also
    when the block raises, so blocks nest."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """Dense N-d array node in a dynamically built computation graph.

    ``Tensor(data, dtype=None)`` holds float32 or float64: an explicit
    ``dtype`` of any other kind raises ``ContractError``, and data of any
    other kind without one is read as float64.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in FLOAT_DTYPES else np.float64
        elif np.dtype(dtype) not in FLOAT_DTYPES:
            raise ContractError(f"tensor dtype must be float32 or float64, "
                                f"got {np.dtype(dtype)}")
        arr = np.ascontiguousarray(arr, dtype=dtype)
        if not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        """An op's output (float32 or float64) stored as the constructor
        stores data: C order, at least 1-D (a 0-d sum gets shape (1,)), and
        finite, so an op may pass a view. It records ``parents`` and
        ``backward`` if recording is on."""
        data = np.ascontiguousarray(data)
        if not np.isfinite(data).all():
            raise ValueError("tensor values must be finite")
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._parents = tuple(parents) if _recording else ()
        out._backward = backward if _recording else None
        return out

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"

    # -- autograd -------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=g.dtype)
        self.grad += g


def backward(loss: Tensor) -> None:
    """Reverse-mode accumulation from a scalar loss over its recorded graph.

    Gradients land in ``.grad`` of every reachable node, as no tensor has a
    requires-grad flag; leaves that never contributed keep ``grad is None``
    (read as zero via :func:`gradients`).
    """
    if loss.data.size != 1:
        raise ContractError("backward requires a scalar loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def gradients(loss: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient of ``loss`` w.r.t. each leaf; zeros for unused leaves."""
    for leaf in leaves:
        leaf.grad = None
    backward(loss)
    return [leaf.grad if leaf.grad is not None
            else np.zeros_like(leaf.data) for leaf in leaves]


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise ops ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of identically shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def bwd(g):
        a._accumulate(g)
        b._accumulate(g)

    return Tensor._from_op(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting elementwise difference."""
    def bwd(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(-g, b.shape))

    return Tensor._from_op(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting elementwise product."""
    ad, bd = a.data, b.data

    def bwd(g):
        a._accumulate(_unbroadcast(g * bd, a.shape))
        b._accumulate(_unbroadcast(g * ad, b.shape))

    return Tensor._from_op(ad * bd, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    def bwd(g):
        x._accumulate(g * c)

    return Tensor._from_op(x.data * c, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function, outputs strictly in (0, 1).

    One ``exp(-|v|)``, never above 1, and ``np.where`` picks each lane's
    numerator: 1 / (1 + exp(-v)) or exp(v) / (1 + exp(v)), no boolean mask.
    """
    v = x.data
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0, e)
    out /= 1.0 + e
    # keep the open-interval contract even where rounding would hit 0 or 1
    tiny, below_one = _OPEN_UNIT[v.dtype]
    np.maximum(out, tiny, out=out)
    np.minimum(out, below_one, out=out)

    def bwd(g):
        x._accumulate(g * out * (1.0 - out))

    return Tensor._from_op(out, (x,), bwd)


def smooth_l1(x: Tensor) -> Tensor:
    """Huber-style loss (beta 1) applied elementwise to a residual tensor."""
    v = x.data
    absv = np.abs(v)
    out = np.where(absv < 1.0, 0.5 * v * v, absv - 0.5)

    def bwd(g):
        x._accumulate(g * np.where(absv < 1.0, v, np.sign(v)))

    return Tensor._from_op(out, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def bwd(g):
        x._accumulate(np.broadcast_to(g, shape).astype(x.data.dtype))

    return Tensor._from_op(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    return scale(sum_all(x), 1.0 / n)


def normalize_vec(v: Tensor) -> Tensor:
    """Project a flat vector onto the unit sphere, with gradient."""
    norm = float(np.linalg.norm(v.data))
    if norm <= 1e-12:
        raise ContractError("cannot normalize a (near-)zero vector")
    u = v.data / norm

    def bwd(g):
        v._accumulate((g - u * float(np.dot(u.ravel(), g.ravel()))) / norm)

    return Tensor._from_op(u, (v,), bwd)


# -- structural ops -----------------------------------------------------------


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 4-D tensors along the channel axis, order preserved."""
    if not parts:
        raise ShapeError("concat_channels needs at least one part")
    first = parts[0]
    for p in parts:
        if p.ndim != 4:
            raise ShapeError("concat_channels expects 4-D tensors")
        if p.shape[0] != first.shape[0] or p.shape[2:] != first.shape[2:]:
            raise ShapeError(
                f"concat_channels batch/spatial mismatch: {p.shape} vs {first.shape}")
    splits = np.cumsum([p.shape[1] for p in parts])[:-1]

    def bwd(g):
        for p, gp in zip(parts, np.split(g, splits, axis=1)):
            p._accumulate(gp)

    return Tensor._from_op(
        np.concatenate([p.data for p in parts], axis=1), tuple(parts), bwd)


def rot90(x: Tensor, direction: str) -> Tensor:
    """Quarter rotation of the spatial plane of a 4-D tensor.

    ``ccw`` sends input cell (r, c) to output cell (W-1-c, r); ``cw`` is the
    exact inverse. Values are moved, never interpolated, so the op is
    bit-exact and four applications are the identity.
    """
    if x.ndim != 4:
        raise ShapeError("rot90 expects a 4-D tensor")
    if direction not in ("ccw", "cw"):
        raise ContractError(f"unknown rotation direction {direction!r}")
    k = 1 if direction == "ccw" else -1

    def bwd(g):
        x._accumulate(np.rot90(g, k=-k, axes=(2, 3)))

    return Tensor._from_op(np.rot90(x.data, k=k, axes=(2, 3)), (x,), bwd)


# -- convolution and pooling --------------------------------------------------


def _padded(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """``x`` with ``ph`` zero rows and ``pw`` zero columns on each side."""
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def _windows(kh: int, kw: int, sh: int, sw: int, oh: int, ow: int):
    """Kernel offset (i, j) with the row and column slices of the padded
    input it reads, in row-major (i, j) order."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, slice(i, i + sh * oh, sh), slice(j, j + sw * ow, sw)


def _im2col(xp: np.ndarray, groups: int, kh: int, kw: int, sh: int, sw: int,
            oh: int, ow: int) -> np.ndarray:
    """Patches of ``xp`` laid out as (G, Cg*kh*kw, N*oh*ow) for matmul, in
    a new buffer."""
    xp = np.ascontiguousarray(xp)  # the view below assumes C order
    n, c = xp.shape[:2]
    cg = c // groups
    s_n, s_c, s_h, s_w = xp.strides
    shape = (groups, cg, kh, kw, n, oh, ow)
    # every window at once: [g, ci, i, j, b, p, q] reads
    # xp[b, g*cg + ci, i + p*sh, j + q*sw]; the copy does the transpose
    windows = np.ndarray(shape, xp.dtype, buffer=xp, offset=0,
                         strides=(cg * s_c, s_c, s_h, s_w, s_n, sh * s_h,
                                  sw * s_w))
    cols = np.empty(shape, dtype=xp.dtype)
    np.copyto(cols, windows)
    return cols.reshape(groups, cg * kh * kw, n * oh * ow)


def _col2im(gcols: np.ndarray, xp_shape, groups, kh, kw, sh, sw, oh,
            ow) -> np.ndarray:
    """Adjoint of :func:`_im2col`: sums patch gradients back into place."""
    n, c = xp_shape[:2]
    cg = c // groups
    gxp = np.zeros(xp_shape, dtype=gcols.dtype)
    dst = gxp.reshape(n, groups, cg, *xp_shape[2:]).transpose(1, 2, 0, 3, 4)
    gc = gcols.reshape(groups, cg, kh, kw, n, oh, ow)
    for i, j, rs, cs in _windows(kh, kw, sh, sw, oh, ow):
        dst[..., rs, cs] += gc[:, :, i, j]
    return gxp


def conv2d(x: Tensor, kernel: Tensor, stride=(1, 1), padding=(0, 0),
           groups: int = 1, bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation over NCHW input with grouped channels.

    Kernel layout is (out_channels, in_channels // groups, kH, kW);
    ``groups == in_channels`` gives a depthwise convolution. ``stride`` and
    ``padding`` are (h, w) pairs; the output extent per axis is
    floor((H + 2*padH - kH) / strideH) + 1 and must be positive.
    The optional per-channel ``bias`` is added in the same graph node.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and kernel")
    n, c, h, w = x.shape
    oc, cg, kh, kw = kernel.shape
    sh, sw = stride
    ph, pw = padding
    if groups < 1 or c % groups != 0 or oc % groups != 0:
        raise ShapeError(f"groups={groups} incompatible with C={c}, outC={oc}")
    if cg != c // groups:
        raise ShapeError(
            f"kernel expects {cg} channels per group, input supplies {c // groups}")
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d output would be empty: ({oh}, {ow})")
    if bias is not None and (bias.ndim != 1 or bias.shape[0] != oc):
        raise ShapeError(f"bias {bias.shape} does not match channels of "
                         f"{(n, oc, oh, ow)}")

    xp = _padded(x.data, ph, pw)
    xp_shape = xp.shape
    cols = _im2col(xp, groups, kh, kw, sh, sw, oh, ow)
    wr = kernel.data.reshape(groups, oc // groups, cg * kh * kw)
    # (G, OCg, K) @ (G, K, N*oh*ow) -> (N, OC, oh, ow)
    out = np.matmul(wr, cols).reshape(oc, n, oh, ow).transpose(1, 0, 2, 3)
    parents = (x, kernel)
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1)
        parents += (bias,)

    def bwd(g):
        go = g.reshape(n, oc, oh * ow).transpose(1, 0, 2)
        go = np.ascontiguousarray(go).reshape(groups, oc // groups, n * oh * ow)
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        # the patches again, from x.data as the forward read it
        patches = _im2col(_padded(x.data, ph, pw), groups, kh, kw, sh, sw,
                          oh, ow)
        kernel._accumulate(
            np.matmul(go, patches.transpose(0, 2, 1)).reshape(kernel.shape))
        gcols = np.matmul(wr.transpose(0, 2, 1), go)
        gxp = _col2im(gcols, xp_shape, groups, kh, kw, sh, sw, oh, ow)
        x._accumulate(gxp[:, :, ph:ph + h, pw:pw + w])

    return Tensor._from_op(out, parents, bwd)


def avg_pool(x: Tensor, window, padding) -> Tensor:
    """Mean pooling at stride 1 with zero padding over (h, w) ``window`` and
    ``padding`` pairs; the divisor always counts padded cells.

    The output is the sum of kh*kw shifted views of the padded input, added
    in row-major window order, times 1/(kh*kw); the backward pass adds the
    scaled gradient the same way. The forward adds each view as one flat
    run of the padded (Hp, Wp) planes: output (p, q) sits at p*Wp + q, so
    window (i, j) adds the run from i*Wp + j, the same adds in the same
    order; lanes past the output's columns hold sums no output reads.
    """
    if x.ndim != 4:
        raise ShapeError("avg_pool expects a 4-D tensor")
    kh, kw = window
    if kh < 1 or kw < 1:
        raise ContractError("pool window must be >= 1 per axis")
    ph, pw = padding
    n, c, h, w = x.shape
    oh = h + 2 * ph - kh + 1
    ow = w + 2 * pw - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"avg_pool output would be empty: ({oh}, {ow})")

    xp = _padded(x.data, ph, pw)
    xp_shape, wp = xp.shape, xp.shape[3]
    run = xp.size - (kh - 1) * wp - (kw - 1)  # the last window's run fits
    acc = np.zeros(xp.size, dtype=x.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # unread lanes
        for i, j, _, _ in _windows(kh, kw, 1, 1, oh, ow):
            acc[:run] += xp.ravel()[i * wp + j:][:run]
    inv = 1.0 / (kh * kw)
    out = acc.reshape(xp_shape)[..., :oh, :ow] * inv

    def bwd(g):
        gi = g * inv
        gxp = np.zeros(xp_shape, dtype=gi.dtype)
        for _, _, rs, cs in _windows(kh, kw, 1, 1, oh, ow):
            gxp[..., rs, cs] += gi
        x._accumulate(gxp[:, :, ph:ph + h, pw:pw + w])

    return Tensor._from_op(out, (x,), bwd)


# -- gradient checking --------------------------------------------------------


def gradcheck(fn, inputs, eps: float = 1e-5, coord_limit: int | None = None,
              seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps the tensors of the list ``inputs`` to a scalar tensor. Every
    coordinate of every input is perturbed by ±eps (or a seeded subset of
    ``coord_limit`` coordinates when the input is large). The error at one
    coordinate is |analytic - numeric| / max(1, |analytic|). A non-finite
    analytic gradient anywhere gives ``inf``. The analytic pass records its
    graph; the finite-difference forwards run with recording off. The inputs
    keep their values and their ``.grad``, also when ``fn`` raises.
    ``eps`` must be finite and positive.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ContractError(f"eps must be finite and positive, got {eps}")
    out = fn(*inputs)
    if out.data.size != 1:
        raise ContractError("gradcheck target must return a scalar")
    held = [t.grad for t in inputs]
    grads = gradients(out, inputs)
    for t, g in zip(inputs, held):
        t.grad = g
    # max() below would pass over the NaN error of a NaN gradient; with the
    # gradient finite, the error is finite or inf
    if not all(np.isfinite(g).all() for g in grads):
        return math.inf

    rng = np.random.default_rng(seed)
    worst = 0.0
    with no_recording():
        for t, analytic in zip(inputs, grads):
            flat = t.data.reshape(-1)
            n = flat.size
            if coord_limit is not None and n > coord_limit:
                idx = rng.choice(n, size=coord_limit, replace=False)
            else:
                idx = np.arange(n)
            aflat = analytic.reshape(-1)
            for i in idx:
                keep = flat[i]
                try:
                    flat[i] = keep + eps
                    hi = fn(*inputs).item()
                    flat[i] = keep - eps
                    lo = fn(*inputs).item()
                finally:
                    flat[i] = keep
                numeric = (hi - lo) / (2.0 * eps)
                err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]))
                worst = max(worst, err)
    return worst


# -- weight sets --------------------------------------------------------------


def named_parameters(obj, prefix: str = "") -> dict[str, Tensor]:
    """Every tensor reachable from ``obj``, keyed by its attribute path.

    The walk descends dataclass fields in declaration order, list and tuple
    items by index and dict items by key, so a network's tensors get names
    such as ``mdcaa.0.diag_main.kernel``. Anything else is a leaf with no
    tensors.
    """
    if isinstance(obj, Tensor):
        return {prefix: obj}
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif isinstance(obj, dict):
        items = obj.items()
    else:
        return {}
    named = {}
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        named.update(named_parameters(value, path))
    return named


class WeightSet:
    """Base of the weight dataclasses: their parameters are the tensors
    :func:`named_parameters` finds by walking their fields."""

    def parameters(self) -> list[Tensor]:
        return list(named_parameters(self).values())
