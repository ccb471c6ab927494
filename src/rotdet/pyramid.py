"""Network assembly: stub backbone, feature tower, bottom-up path, head.

Layout for an (N, 3, H, W) input, N >= 1, with H and W each passing
SIDE_RULE (a multiple of 64 in [64, MAX_CANVAS]):

* stub backbone: stride-2 stem plus stride-2 stages giving C3 (stride 8),
  C4 (stride 16), C5 (stride 32);
* feature tower: a stride-2 stem feeds the four-module MSK block, so
  M1..M4 sit at strides 2/4/8/16;
* attention: CP_k = mdcaa_apply(M_k) for k = 2..4 (M1 only seeds the
  bottom-up path);
* bottom-up path: N = Conv3x3(M_{l+1} + Down(N_prev)) for l = 1..3 with
  N_prev starting at M1; the last level is N5 (stride 16);
* fusion (all sources brought to the target stride by stride-2 3x3
  convolutions): [C3 | CP2] at stride 8, [C4 | CP3] at stride 16,
  [C5 | CP4 | N5] at stride 32;
* head: per fused level, a 3x3 conv to classes logits and a 3x3 conv to 6
  box channels (dcx, dcy, dw, dh, angle x, angle y): one prediction per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import angle as eaem
from .errors import ShapeError
from .geometry import BoxTable
from .mdcaa import MdcaaWeights, mdcaa_apply
from .msk import ConvParams, MskModuleWeights, msk_block_forward
from .tensor import Tensor, WeightSet, add, concat_channels, sigmoid

# bound on the extent deltas decode_boxes exponentiates, as mmrotate's
# wh_ratio_clip: a decoded w or h lies within [16/1000, 1000/16] anchor sides
MAX_LOG_RATIO = abs(math.log(16 / 1000))
# strides of the three fused levels, the head outputs and their anchors
STRIDES = (8, 16, 32)
# the largest input side: forward memory grows with the pixel count, about
# 0.3 GiB at 1024², so about 5 GB at 4096² and 20 GB at 8192²
MAX_CANVAS = 4096
# the one rule on an input side, (test, text), for [data] canvas too
SIDE_RULE = (lambda s: 64 <= s <= MAX_CANVAS and s % 64 == 0,
             f"a multiple of 64 in [64, {MAX_CANVAS}]")


@dataclass(frozen=True)
class NetworkConfig:
    """The ``[network]`` config keys: channel widths, MDCAA strip and pool
    sizes, the angle codec's omega, and the head's classes logits and 6 box
    channels per cell, decoded against one square anchor of side stride *
    anchor_scale. ``strides`` are those of the fused levels."""

    stem_channels: int = 8
    branch_out: int = 8
    backbone_channels: int = 16
    strip_len: int = 11
    pool_window: int = 7
    omega: float = 1.0
    classes: int = 2
    anchor_scale: float = 4.0

    @property
    def strides(self) -> tuple[int, int, int]:
        return STRIDES


@dataclass
class HeadOutputs:
    """Per-level classes logits and 6 box channels, one prediction per cell."""

    logits: list[Tensor]
    boxes: list[Tensor]

    def named(self) -> dict[str, Tensor]:
        out = {}
        for stride, lg, bx in zip(STRIDES, self.logits, self.boxes):
            out[f"logits_s{stride}"] = lg
            out[f"boxes_s{stride}"] = bx
        return out


@dataclass
class NetworkWeights(WeightSet):
    backbone: list[ConvParams]
    tower_stem: ConvParams
    msk: list[MskModuleWeights]
    mdcaa: list[MdcaaWeights]
    bottom_up_down: list[ConvParams]
    bottom_up_fuse: list[ConvParams]
    fusion_adjust: dict[str, ConvParams]
    head_cls: list[ConvParams]
    head_box: list[ConvParams]

    @staticmethod
    def create(rng: np.random.Generator, config: NetworkConfig,
               dtype=np.float32) -> "NetworkWeights":
        """The seeded network at ``dtype``. The draw order is the seeded
        contract: backbone, tower stem, the four MSK modules; mdcaa,
        bottom_up_down and bottom_up_fuse per level; fusion_adjust CP2, CP3,
        CP4, N5; head_cls and head_box per level. Each weight is drawn in
        float64 and cast to ``dtype`` once, after the last draw."""
        cfg = config
        bc, tc = cfg.backbone_channels, 5 * cfg.branch_out
        # stem (stride 2) + four stride-2 stages; the last three are C3/C4/C5
        chain = [(bc, 3)] + [(bc, bc)] * 4
        backbone = [ConvParams.create(rng, oc, ic, 3, 3, stride=(2, 2))
                    for oc, ic in chain]
        tower_stem = ConvParams.create(rng, cfg.stem_channels, 3, 3, 3,
                                       stride=(2, 2))
        # an MSK module concatenates four strip branches and the identity
        msk = [MskModuleWeights.create(rng, tc if level else cfg.stem_channels,
                                       cfg.branch_out, downsample=level > 0)
               for level in range(4)]
        per_level = [(MdcaaWeights.create(rng, tc, cfg.strip_len,
                                          cfg.pool_window),
                      ConvParams.create(rng, tc, tc, 3, 3, stride=(2, 2)),
                      ConvParams.create(rng, tc, tc, 3, 3))
                     for _ in range(3)]
        fusion_adjust = {
            name: ConvParams.create(rng, tc, tc, 3, 3, stride=(2, 2))
            for name in ("CP2", "CP3", "CP4", "N5")}
        # [C3 | CP2], [C4 | CP3], [C5 | CP4 | N5]
        heads = [(ConvParams.create(rng, cfg.classes, fc, 3, 3),
                  ConvParams.create(rng, 6, fc, 3, 3))
                 for fc in (bc + tc, bc + tc, bc + 2 * tc)]
        w = NetworkWeights(backbone, tower_stem, msk, *map(list, zip(*per_level)),
                           fusion_adjust, *map(list, zip(*heads)))
        for p in w.parameters():
            p.data = Tensor(p.data, dtype=dtype).data
        return w


def bottom_up(m_levels: list[Tensor], down_convs: list[ConvParams],
              fuse_convs: list[ConvParams]) -> list[Tensor]:
    """Downsample-add recursion over the tower levels; the last is N5.

    N_prev starts at M1; each step computes
    Conv3x3(M_{l+1} + Down(N_prev)) where Down is a stride-2 convolution.
    """
    if len(m_levels) != 4:
        raise ShapeError("bottom_up expects the four tower levels")
    levels = []
    prev = m_levels[0]
    for l in range(3):
        prev = fuse_convs[l](add(m_levels[l + 1], down_convs[l](prev)))
        levels.append(prev)
    return levels


def assemble_forward(image: Tensor,
                     w: NetworkWeights) -> tuple[dict[str, Tensor], HeadOutputs]:
    """Full forward pass from image to head outputs. An image that breaks
    the input rule in the module docstring raises ShapeError before any
    convolution runs.

    The dict holds every named intermediate in dump order: C3-C5, M1-M4,
    CP2-CP4, N5, then the fused levels by stride.
    """
    if image.ndim != 4 or image.shape[0] < 1 or image.shape[1] != 3:
        raise ShapeError(f"expected an (N, 3, H, W) image with N >= 1, got "
                         f"shape {image.shape}")
    h, width = image.shape[2:]
    side_ok, side_text = SIDE_RULE
    if not (side_ok(h) and side_ok(width)):
        raise ShapeError(f"input extent {h}x{width} must be {side_text} per side")

    cur = image
    stages = []
    for conv in w.backbone:
        cur = conv(cur)
        stages.append(cur)
    c_levels = stages[2:]  # strides 8, 16, 32

    stem = w.tower_stem(image)
    m_levels = msk_block_forward(stem, w.msk)
    cp_levels = [mdcaa_apply(m_levels[k], w.mdcaa[k - 1]) for k in (1, 2, 3)]
    n5 = bottom_up(m_levels, w.bottom_up_down, w.bottom_up_fuse)[-1]

    adj = w.fusion_adjust
    fused = [
        concat_channels([c_levels[0], adj["CP2"](cp_levels[0])]),
        concat_channels([c_levels[1], adj["CP3"](cp_levels[1])]),
        concat_channels([c_levels[2], adj["CP4"](cp_levels[2]),
                         adj["N5"](n5)]),
    ]
    logits = [conv(f) for conv, f in zip(w.head_cls, fused)]
    boxes = [conv(f) for conv, f in zip(w.head_box, fused)]
    feats = {**{f"C{i + 3}": t for i, t in enumerate(c_levels)},
             **{f"M{i + 1}": t for i, t in enumerate(m_levels)},
             **{f"CP{i + 2}": t for i, t in enumerate(cp_levels)},
             "N5": n5,
             **{f"fused_s{s}": t for s, t in zip(STRIDES, fused)}}
    return feats, HeadOutputs(logits=logits, boxes=boxes)


def decode_boxes(head: HeadOutputs, config: NetworkConfig,
                 score_threshold: float = 0.05,
                 image_index: int = 0) -> BoxTable:
    """Anchor-relative decode of head outputs into a table of oriented
    boxes, level by level, then row by row.

    Centers move by delta*anchor_size, extents scale by exp(delta) with
    delta clamped to +-MAX_LOG_RATIO. A cell gives no box, like a cell
    under the score threshold, where :class:`BoxTable`, whose rule is
    ``OrientedBox``'s, rejects its center or an extent; its angle and score
    are always finite. The angle comes from the unit-circle decode of the
    normalized (x, y) channels. Degenerate (near-zero) angle vectors fall
    back to the prior angle 0, so a zero-weight network decodes every cell
    to its anchor.
    """
    levels = []
    for stride, logits, deltas in zip(config.strides, head.logits, head.boxes):
        scores = sigmoid(logits).data[image_index]
        cls_id = np.argmax(scores, axis=0)
        score = scores.max(axis=0)
        r, c = np.nonzero(score >= score_threshold)
        d = deltas.data[image_index][:, r, c].T.astype(np.float64)
        anchor_size = stride * config.anchor_scale
        # math.exp, not np.exp: the two differ in the last bit on a few
        # percent of inputs, and kept boxes must not move.
        dw, dh = np.clip(d[:, 2:4], -MAX_LOG_RATIO, MAX_LOG_RATIO).T.tolist()
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: dropped
            box = np.array([(c + 0.5) * stride + d[:, 0] * anchor_size,
                            (r + 0.5) * stride + d[:, 1] * anchor_size,
                            [anchor_size * math.exp(v) for v in dw],
                            [anchor_size * math.exp(v) for v in dh]])
        live = np.array([math.hypot(x, y) >= 1e-6
                         for x, y in d[:, 4:].tolist()], dtype=bool)
        theta = np.zeros(len(r))
        theta[live] = eaem.decode(eaem.normalize(d[live][:, 4:], config.omega))
        levels.append(np.vstack([box, theta, score[r, c], cls_id[r, c]]))
    return BoxTable(*np.concatenate(levels, axis=1))
