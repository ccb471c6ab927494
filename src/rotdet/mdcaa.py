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

from .errors import ContractError
from .msk import ConvParams, _same_pad
from .tensor import Tensor, WeightSet, avg_pool, concat_channels, mul, sigmoid

# (test, what) of each window size, which the config's two rows share
WINDOW_RULES = {key: (lambda v, m=m: v >= m and v % 2 == 1, f"odd and >= {m}")
                for key, m in (("strip_len", 3), ("pool_window", 1))}


@dataclass
class MdcaaWeights(WeightSet):
    """Per-level attention weights; all strip convs are depthwise. The
    channel count lives in the kernels."""

    pool_window: int
    pointwise: ConvParams = field(repr=False)
    seq_vertical: ConvParams = field(repr=False)
    seq_horizontal: ConvParams = field(repr=False)
    horizontal: ConvParams = field(repr=False)
    vertical: ConvParams = field(repr=False)
    diag_main: ConvParams = field(repr=False)
    diag_anti: ConvParams = field(repr=False)
    fusion: ConvParams = field(repr=False)

    @staticmethod
    def create(rng: np.random.Generator, channels: int, strip_len: int,
               pool_window: int) -> "MdcaaWeights":
        """Checks both windows by WINDOW_RULES, then draws the convs in
        field order. The windows have no default: their home is
        ``NetworkConfig``."""
        for key, size in zip(WINDOW_RULES, (strip_len, pool_window)):
            test, what = WINDOW_RULES[key]
            if not test(size):
                raise ContractError(f"{key} must be {what}, got {size}")
        c, m = channels, strip_len
        w = MdcaaWeights(
            pool_window=pool_window,
            pointwise=ConvParams.create(rng, c, c, 1, 1),
            seq_vertical=ConvParams.create(rng, c, c, m, 1, groups=c),
            seq_horizontal=ConvParams.create(rng, c, c, 1, m, groups=c),
            horizontal=ConvParams.create(rng, c, c, 1, m, groups=c),
            vertical=ConvParams.create(rng, c, c, m, 1, groups=c),
            diag_main=ConvParams.create(rng, c, c, m, 1, groups=c),
            diag_anti=ConvParams.create(rng, c, c, m, 1, groups=c),
            # fusion mixes concat(main, anti, H, V): 4C channels down to C
            fusion=ConvParams.create(rng, c, 4 * c, 1, 1))
        # reversed along m: these draws were first read bottom to top (through
        # a quarter turn), and seeded outputs must not change
        w.diag_main.kernel.data[:] = w.diag_main.kernel.data[:, :, ::-1]
        return w


def mdcaa_weights(f: Tensor, w: MdcaaWeights) -> Tensor:
    """Attention map with the same extents as ``f``, values in (0, 1)."""
    pw = w.pool_window
    pooled = avg_pool(f, (pw, pw), padding=_same_pad(pw, pw))
    pooled = w.pointwise(pooled)
    hv = w.seq_horizontal(w.seq_vertical(pooled))
    fused = w.fusion(concat_channels([w.diag_main(hv), w.diag_anti(hv),
                                      w.horizontal(pooled),
                                      w.vertical(pooled)]))
    return sigmoid(fused)


def mdcaa_apply(f: Tensor, w: MdcaaWeights) -> Tensor:
    """Re-weight the input by its attention map, elementwise."""
    return mul(f, mdcaa_weights(f, w))
