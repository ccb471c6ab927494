"""Multi-directional contextual attention.

Pipeline: average pool (stride 1, same padding) -> pointwise conv -> a fan
of depthwise strip convolutions. One path applies a vertical (mx1) strip
then a horizontal (1xm) strip, giving the combined HV map. Two single-
direction paths give H-only and V-only maps, concatenated into CHV. Two
diagonal paths rotate the HV map a quarter turn (clockwise for the main
diagonal, counterclockwise for the anti diagonal), run a depthwise strip
conv, and rotate back. Everything is concatenated, mixed by a 1x1 conv,
and squashed by a sigmoid into an attention map strictly inside (0, 1)
with the same extents as the input. Applying the module multiplies the
input by that map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError
from .msk import ConvParams
from .tensor import (Tensor, WeightSet, avg_pool, concat_channels, mul,
                     rot90, sigmoid)


@dataclass
class MdcaaWeights(WeightSet):
    """Per-level attention weights; all strip convs are depthwise."""

    channels: int
    strip_len: int = 11
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
        c = channels
        w = MdcaaWeights(c, strip_len, pool_window)
        m = strip_len
        w.pointwise = ConvParams.create(rng, c, c, 1, 1, dtype=dtype)
        w.seq_vertical = ConvParams.create(rng, c, c, m, 1, groups=c, dtype=dtype)
        w.seq_horizontal = ConvParams.create(rng, c, c, 1, m, groups=c, dtype=dtype)
        w.horizontal = ConvParams.create(rng, c, c, 1, m, groups=c, dtype=dtype)
        w.vertical = ConvParams.create(rng, c, c, m, 1, groups=c, dtype=dtype)
        w.diag_main = ConvParams.create(rng, c, c, 1, m, groups=c, dtype=dtype)
        w.diag_anti = ConvParams.create(rng, c, c, 1, m, groups=c, dtype=dtype)
        # fusion mixes main + anti + concat(H, V): 4C channels down to C
        w.fusion = ConvParams.create(rng, c, 4 * c, 1, 1, dtype=dtype)
        return w


def diagonal_branch(hv: Tensor, w: MdcaaWeights, which: str) -> Tensor:
    """Rotate, run the branch's depthwise strip conv, rotate back.

    ``main`` uses a clockwise quarter turn, ``anti`` a counterclockwise
    one; the inverse rotation restores the original orientation so output
    extents equal input extents.
    """
    if which == "main":
        forward, back, conv = "cw", "ccw", w.diag_main
    elif which == "anti":
        forward, back, conv = "ccw", "cw", w.diag_anti
    else:
        raise ContractError(f"unknown diagonal branch {which!r}")
    return rot90(conv(rot90(hv, forward)), back)


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
    h_only = w.horizontal(pooled)
    v_only = w.vertical(pooled)
    chv = concat_channels([h_only, v_only])
    main = diagonal_branch(hv, w, "main")
    anti = diagonal_branch(hv, w, "anti")
    fused = w.fusion(concat_channels([main, anti, chv]))
    return sigmoid(fused)


def mdcaa_apply(f: Tensor, w: MdcaaWeights) -> Tensor:
    """Re-weight the input by its attention map, elementwise."""
    return mul(f, mdcaa_weights(f, w))
