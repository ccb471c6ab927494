"""Multi-scale separable-kernel feature block.

Each module runs five parallel branches over the same input: an identity
branch (1x1 then 3x3) and four scale branches for m in {5, 7, 9, 11}. A
scale branch is a 1x1 conv to branch_out channels, then a depthwise 1xm
strip, then a depthwise mx1 strip. The strip pair emulates a depthwise
mxm receptive field at 2/m of that kernel's parameters. The depthwise
form follows PKINet, whose multi-size kernels run depthwise between
pointwise convs; it is a choice made for speed, as the source paper's
abstract does not say which form its blocks use. Branch outputs are
concatenated along channels in the fixed order
[m=5, m=7, m=9, m=11, identity].

A block stacks four modules; the first keeps resolution and the other
three halve it via stride 2 in each branch's leading 1x1 convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ContractError
from .tensor import Tensor, WeightSet, concat_channels, conv2d

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
               stride=(1, 1), groups: int = 1) -> "ConvParams":
        """Every weight is drawn here, in float64, within ±1/sqrt(fan_in)."""
        shape = (out_c, in_c // groups, kh, kw)
        bound = 1.0 / math.sqrt(math.prod(shape[1:]))
        kernel = Tensor(rng.uniform(-bound, bound, shape))
        bias = Tensor(np.zeros(out_c))
        return ConvParams(kernel, bias, tuple(stride), groups)

    def __call__(self, x: Tensor) -> Tensor:
        kh, kw = self.kernel.shape[2:]
        return conv2d(x, self.kernel, stride=self.stride,
                      padding=_same_pad(kh, kw), groups=self.groups,
                      bias=self.bias)


@dataclass
class MskModuleWeights(WeightSet):
    """Weights of one five-branch module. Widths and strides live in the
    kernels: the input width is any reduce kernel's, branch_out any last
    conv's, and the module downsamples when its reduce convs have stride 2."""

    identity_reduce: ConvParams = field(repr=False)
    identity_conv: ConvParams = field(repr=False)
    branches: list[tuple[ConvParams, ConvParams, ConvParams]] = field(
        repr=False)

    @staticmethod
    def create(rng: np.random.Generator, in_channels: int, branch_out: int,
               downsample: bool = False) -> "MskModuleWeights":
        c, b = in_channels, branch_out
        stride = (2, 2) if downsample else (1, 1)
        return MskModuleWeights(
            identity_reduce=ConvParams.create(rng, c, c, 1, 1, stride=stride),
            identity_conv=ConvParams.create(rng, b, c, 3, 3),
            branches=[(ConvParams.create(rng, b, c, 1, 1, stride=stride),
                       ConvParams.create(rng, b, b, 1, m, groups=b),
                       ConvParams.create(rng, b, b, m, 1, groups=b))
                      for m in STRIP_SIZES])


def msk_module_forward(x: Tensor, w: MskModuleWeights) -> Tensor:
    """Five-branch forward; output has 5 * branch_out channels."""
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
    strides = [w.identity_reduce.stride for w in weights]
    if strides != [(1, 1)] + [(2, 2)] * 3:
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

    per_m: dict[int, dict[str, object]]
    total_full: int
    total_separable: int


def count_params(channels: int, strip_sizes=STRIP_SIZES) -> ParamCountReport:
    """Exact kernel-parameter counts for full mxm vs strip-pair branches.

    Over C channels, a depthwise mxm kernel has C m^2 parameters and a
    depthwise strip pair (1xm then mx1) 2 C m, a ratio of exactly 2/m.
    """
    if channels < 1:
        raise ContractError("channel counts must be positive")
    per_m = {}
    total_full = 0
    total_sep = 0
    for m in strip_sizes:
        full = channels * m * m
        sep = 2 * channels * m
        per_m[m] = {"full": full, "separable": sep,
                    "ratio": Fraction(sep, full)}
        total_full += full
        total_sep += sep
    return ParamCountReport(per_m, total_full, total_sep)
