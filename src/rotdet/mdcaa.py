"""Multi-directional contextual attention.

Pipeline: average pool (stride 1, same padding) -> pointwise conv -> a fan
of depthwise strip convolutions. One path applies a vertical (mx1) strip
then a horizontal (1xm) strip, giving the combined HV map. Two single-
direction paths give the H-only (1xm) and V-only (mx1) maps over the pooled
features. The ``diag_main`` and ``diag_anti`` paths are, today, two more
vertical (mx1) depthwise strips, both over the HV map; their names mark the
slots a diagonal realization would fill. The four maps are concatenated as
[main, anti, H, V], mixed by a 1x1 conv, and squashed by a sigmoid into an
attention map strictly inside (0, 1) with the same extents as the input.
Applying the module multiplies the input by that map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError
from .msk import ConvParams
from .tensor import Tensor, WeightSet, avg_pool, concat_channels, mul, sigmoid


@dataclass
class MdcaaWeights(WeightSet):
    """Per-level attention weights; all strip convs are depthwise."""

    channels: int
    pool_window: int = 7
    pointwise: ConvParams = field(repr=False, default=None)
    seq_vertical: ConvParams = field(repr=False, default=None)
    seq_horizontal: ConvParams = field(repr=False, default=None)
    horizontal: ConvParams = field(repr=False, default=None)
    vertical: ConvParams = field(repr=False, default=None)
    diag_main: ConvParams = field(repr=False, default=None)
    diag_anti: ConvParams = field(repr=False, default=None)
    fusion: ConvParams = field(repr=False, default=None)

    @staticmethod
    def create(rng: np.random.Generator, channels: int, strip_len: int = 11,
               pool_window: int = 7, dtype=np.float32) -> "MdcaaWeights":
        if strip_len < 3 or strip_len % 2 == 0:
            raise ContractError("strip length must be odd and >= 3")
        if pool_window < 1 or pool_window % 2 == 0:
            raise ContractError(
                f"pool_window must be odd and >= 1, got {pool_window}")
        c = channels
        w = MdcaaWeights(c, pool_window)
        m = strip_len
        w.pointwise = ConvParams.create(rng, c, c, 1, 1, dtype=dtype)
        w.seq_vertical = ConvParams.create(rng, c, c, m, 1, groups=c, dtype=dtype)
        w.seq_horizontal = ConvParams.create(rng, c, c, 1, m, groups=c, dtype=dtype)
        w.horizontal = ConvParams.create(rng, c, c, 1, m, groups=c, dtype=dtype)
        w.vertical = ConvParams.create(rng, c, c, m, 1, groups=c, dtype=dtype)
        w.diag_main = ConvParams.create(rng, c, c, m, 1, groups=c, dtype=dtype)
        # reversed along m: these draws were first read bottom to top (through
        # a quarter turn), and seeded outputs must not change
        w.diag_main.kernel.data[:] = w.diag_main.kernel.data[:, :, ::-1]
        w.diag_anti = ConvParams.create(rng, c, c, m, 1, groups=c, dtype=dtype)
        # fusion mixes concat(main, anti, H, V): 4C channels down to C
        w.fusion = ConvParams.create(rng, c, 4 * c, 1, 1, dtype=dtype)
        return w


def mdcaa_weights(f: Tensor, w: MdcaaWeights) -> Tensor:
    """Attention map with the same extents as ``f``, values in (0, 1)."""
    if f.ndim != 4:
        raise ShapeError("attention input must be 4-D")
    if f.shape[1] != w.channels:
        raise ShapeError(
            f"input has {f.shape[1]} channels, weights expect {w.channels}")
    pw = w.pool_window
    pooled = avg_pool(f, (pw, pw), stride=(1, 1),
                      padding=((pw - 1) // 2, (pw - 1) // 2))
    pooled = w.pointwise(pooled)
    hv = w.seq_horizontal(w.seq_vertical(pooled))
    fused = w.fusion(concat_channels([w.diag_main(hv), w.diag_anti(hv),
                                      w.horizontal(pooled),
                                      w.vertical(pooled)]))
    return sigmoid(fused)


def mdcaa_apply(f: Tensor, w: MdcaaWeights) -> Tensor:
    """Re-weight the input by its attention map, elementwise."""
    return mul(f, mdcaa_weights(f, w))
