"""Multi-scale separable-kernel feature block.

Each module runs five parallel branches over the same input: an identity
branch (1x1 then 3x3) and four scale branches (1x1, then a 1xm strip,
then an mx1 strip) for m in {5, 7, 9, 11}. The strip pair emulates an
mxm receptive field at 2/m of the parameters of the full kernel. Branch
outputs are concatenated along channels in the fixed order
[m=5, m=7, m=9, m=11, identity].

A block stacks four modules; the first keeps resolution and the other
three halve it via stride 2 in each branch's leading 1x1 convolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor, WeightSet, concat_channels, conv2d, uniform_init

STRIP_SIZES = (5, 7, 9, 11)


def _same_pad(kh: int, kw: int) -> tuple[int, int]:
    return ((kh - 1) // 2, (kw - 1) // 2)


@dataclass
class ConvParams(WeightSet):
    """One convolution layer: kernel, per-channel bias, geometry."""

    kernel: Tensor
    bias: Tensor
    stride: tuple[int, int] = (1, 1)
    groups: int = 1

    @staticmethod
    def create(rng: np.random.Generator, out_c: int, in_c: int, kh: int, kw: int,
               stride=(1, 1), groups: int = 1, dtype=np.float32) -> "ConvParams":
        fan_in = (in_c // groups) * kh * kw
        kernel = uniform_init(rng, (out_c, in_c // groups, kh, kw), fan_in, dtype)
        bias = Tensor(np.zeros(out_c, dtype=dtype), requires_grad=True)
        return ConvParams(kernel, bias, tuple(stride), groups)

    def __call__(self, x: Tensor) -> Tensor:
        kh, kw = self.kernel.shape[2:]
        return conv2d(x, self.kernel, stride=self.stride,
                      padding=_same_pad(kh, kw), groups=self.groups,
                      bias=self.bias)


@dataclass
class MskModuleWeights(WeightSet):
    """Weights of one five-branch module."""

    in_channels: int
    mid_channels: int
    branch_out: int
    downsample: bool
    identity_reduce: ConvParams = field(repr=False, default=None)
    identity_conv: ConvParams = field(repr=False, default=None)
    branches: list[tuple[ConvParams, ConvParams, ConvParams]] = field(
        repr=False, default_factory=list)

    @property
    def out_channels(self) -> int:
        return 5 * self.branch_out

    @staticmethod
    def create(rng: np.random.Generator, in_channels: int, branch_out: int,
               mid_channels: int | None = None, downsample: bool = False,
               dtype=np.float32) -> "MskModuleWeights":
        mid = mid_channels if mid_channels is not None else in_channels
        stride = (2, 2) if downsample else (1, 1)
        w = MskModuleWeights(in_channels, mid, branch_out, downsample)
        w.identity_reduce = ConvParams.create(rng, mid, in_channels, 1, 1,
                                              stride=stride, dtype=dtype)
        w.identity_conv = ConvParams.create(rng, branch_out, mid, 3, 3, dtype=dtype)
        for m in STRIP_SIZES:
            reduce = ConvParams.create(rng, mid, in_channels, 1, 1,
                                       stride=stride, dtype=dtype)
            row = ConvParams.create(rng, mid, mid, 1, m, dtype=dtype)
            col = ConvParams.create(rng, branch_out, mid, m, 1, dtype=dtype)
            w.branches.append((reduce, row, col))
        return w


def msk_module_forward(x: Tensor, w: MskModuleWeights) -> Tensor:
    """Five-branch forward; output has 5 * branch_out channels."""
    if x.ndim != 4 or x.shape[1] != w.in_channels:
        raise ShapeError(
            f"input has {x.shape[1] if x.ndim == 4 else '?'} channels, "
            f"weights expect {w.in_channels}")
    parts = []
    for reduce, row, col in w.branches:
        parts.append(col(row(reduce(x))))
    parts.append(w.identity_conv(w.identity_reduce(x)))
    return concat_channels(parts)


def msk_block_forward(x: Tensor, weights: list[MskModuleWeights]) -> list[Tensor]:
    """Four chained modules; returns [M1, M2, M3, M4].

    The first module must keep resolution and the remaining three must
    downsample, so M_{l+1} has half the spatial extent of M_l.
    """
    if len(weights) != 4:
        raise ContractError(f"expected 4 module weight sets, got {len(weights)}")
    if weights[0].downsample or not all(w.downsample for w in weights[1:]):
        raise ContractError(
            "module 1 must keep resolution; modules 2-4 must downsample")
    levels = []
    cur = x
    for w in weights:
        cur = msk_module_forward(cur, w)
        levels.append(cur)
    return levels


# -- closed-form parameter model ----------------------------------------------


@dataclass(frozen=True)
class ParamCountReport:
    """Separable vs full-kernel parameter arithmetic (bias-free)."""

    in_channels: int
    mid_channels: int
    out_channels: int
    per_m: dict[int, dict[str, object]]
    total_full: int
    total_separable: int


def count_params(in_channels: int, mid_channels: int | None = None,
                 out_channels: int | None = None,
                 strip_sizes=STRIP_SIZES) -> ParamCountReport:
    """Exact kernel-parameter counts for full mxm vs strip-pair branches.

    Full kernel: in*out*m^2. Strip pair: in*mid*m + mid*out*m. With all
    channel counts equal this reduces to C^2 m^2 vs 2 C^2 m, a ratio of
    exactly 2/m.
    """
    if in_channels < 1:
        raise ContractError("channel counts must be positive")
    mid = mid_channels if mid_channels is not None else in_channels
    out = out_channels if out_channels is not None else in_channels
    per_m = {}
    total_full = 0
    total_sep = 0
    for m in strip_sizes:
        full = in_channels * out * m * m
        sep = in_channels * mid * m + mid * out * m
        per_m[m] = {"full": full, "separable": sep,
                    "ratio": Fraction(sep, full)}
        total_full += full
        total_sep += sep
    return ParamCountReport(in_channels, mid, out, per_m, total_full, total_sep)
