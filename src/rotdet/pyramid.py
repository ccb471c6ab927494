"""Network assembly: stub backbone, feature tower, bottom-up path, head.

Layout for an (N, 3, H, W) input with H and W divisible by 64:

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
* head: per fused level, a 3x3 conv to anchors*classes logits and a 3x3
  conv to anchors*6 box channels (dcx, dcy, dw, dh, angle x, angle y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import angle as eaem
from .errors import ShapeError
from .geometry import MAX_BOX_COORD, OrientedBox
from .mdcaa import MdcaaWeights, mdcaa_apply
from .msk import ConvParams, MskModuleWeights, msk_block_forward
from .tensor import Tensor, WeightSet, add, concat_channels, sigmoid

# bound on the extent deltas decode_boxes exponentiates, as mmrotate's
# wh_ratio_clip: a decoded w or h lies within [16/1000, 1000/16] anchors
MAX_LOG_RATIO = abs(math.log(16 / 1000))
# strides of the three fused levels, the head outputs and their anchors
STRIDES = (8, 16, 32)


@dataclass(frozen=True)
class NetworkConfig:
    """The ``[network]`` config keys: channel widths, MDCAA strip and pool
    sizes, the angle codec's omega, and the head's anchors, classes and
    anchor scale. ``strides`` are those of the fused levels."""

    stem_channels: int = 8
    branch_out: int = 8
    backbone_channels: int = 16
    strip_len: int = 11
    pool_window: int = 7
    omega: float = 1.0
    anchors: int = 1
    classes: int = 2
    anchor_scale: float = 4.0

    @property
    def strides(self) -> tuple[int, int, int]:
        return STRIDES


@dataclass
class HeadOutputs:
    """Per-level logits (A*K channels) and box regression (A*6 channels)."""

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
    backbone: list[ConvParams] = field(default_factory=list)
    tower_stem: ConvParams = None
    msk: list[MskModuleWeights] = field(default_factory=list)
    mdcaa: list[MdcaaWeights] = field(default_factory=list)
    bottom_up_down: list[ConvParams] = field(default_factory=list)
    bottom_up_fuse: list[ConvParams] = field(default_factory=list)
    fusion_adjust: dict[str, ConvParams] = field(default_factory=dict)
    head_cls: list[ConvParams] = field(default_factory=list)
    head_box: list[ConvParams] = field(default_factory=list)

    @staticmethod
    def create(rng: np.random.Generator, config: NetworkConfig,
               dtype=np.float32) -> "NetworkWeights":
        cfg = config
        w = NetworkWeights()
        bc = cfg.backbone_channels
        # stem (stride 2) + four stride-2 stages; the last three are C3/C4/C5
        chain = [(bc, 3)] + [(bc, bc)] * 4
        w.backbone = [ConvParams.create(rng, oc, ic, 3, 3, stride=(2, 2),
                                        dtype=dtype) for oc, ic in chain]
        w.tower_stem = ConvParams.create(rng, cfg.stem_channels, 3, 3, 3,
                                         stride=(2, 2), dtype=dtype)
        # an MSK module concatenates four strip branches and the identity
        tc = 5 * cfg.branch_out
        for level in range(4):
            in_c = tc if level else cfg.stem_channels
            w.msk.append(MskModuleWeights.create(
                rng, in_c, cfg.branch_out, downsample=level > 0, dtype=dtype))
        for _ in range(3):
            w.mdcaa.append(MdcaaWeights.create(rng, tc, cfg.strip_len,
                                               cfg.pool_window, dtype=dtype))
            w.bottom_up_down.append(ConvParams.create(rng, tc, tc, 3, 3,
                                                      stride=(2, 2), dtype=dtype))
            w.bottom_up_fuse.append(ConvParams.create(rng, tc, tc, 3, 3,
                                                      dtype=dtype))
        for name in ("CP2", "CP3", "CP4", "N5"):
            w.fusion_adjust[name] = ConvParams.create(rng, tc, tc, 3, 3,
                                                      stride=(2, 2), dtype=dtype)
        # [C3 | CP2], [C4 | CP3], [C5 | CP4 | N5]
        for fc in (bc + tc, bc + tc, bc + 2 * tc):
            w.head_cls.append(ConvParams.create(
                rng, cfg.anchors * cfg.classes, fc, 3, 3, dtype=dtype))
            w.head_box.append(ConvParams.create(
                rng, cfg.anchors * 6, fc, 3, 3, dtype=dtype))
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
    """Full forward pass from image to head outputs.

    The dict holds every named intermediate in dump order: C3-C5, M1-M4,
    CP2-CP4, N5, then the fused levels by stride.
    """
    if image.ndim != 4 or image.shape[1] != 3:
        raise ShapeError("expected an (N, 3, H, W) image")
    h, width = image.shape[2:]
    if h % 64 or width % 64:
        raise ShapeError(f"input extent {h}x{width} not divisible by 64")

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
                 image_index: int = 0) -> list[OrientedBox]:
    """Anchor-relative decode of head outputs into oriented boxes.

    Centers move by delta*anchor_size, extents scale by exp(delta) with
    delta clamped to +-MAX_LOG_RATIO. A cell gives no box, like a cell
    under the score threshold, where its center or an extent is not finite
    or exceeds MAX_BOX_COORD in magnitude, or an extent is not positive.
    The angle comes from the unit-circle decode of the normalized (x, y)
    channels. Degenerate (near-zero) angle vectors fall back to the prior
    angle 0, so a zero-weight network decodes every cell to its anchor.
    """
    out: list[OrientedBox] = []
    a, k = config.anchors, config.classes
    for stride, logits, deltas in zip(config.strides, head.logits, head.boxes):
        scores = sigmoid(logits).data[image_index]
        _, hh, ww = scores.shape
        scores = scores.reshape(a, k, hh, ww)
        cls_id = np.argmax(scores, axis=1)
        score = scores.max(axis=1)
        ai, r, c = np.nonzero(score >= score_threshold)
        d = deltas.data[image_index].reshape(a, 6, hh, ww)
        d = d[ai, :, r, c].astype(np.float64)
        anchor_size = stride * config.anchor_scale
        # math.exp, not np.exp: the two differ in the last bit on a few
        # percent of inputs, and kept boxes must not move.
        dw, dh = np.clip(d[:, 2:4], -MAX_LOG_RATIO, MAX_LOG_RATIO).T.tolist()
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: dropped
            box = np.array([(c + 0.5) * stride + d[:, 0] * anchor_size,
                            (r + 0.5) * stride + d[:, 1] * anchor_size,
                            [anchor_size * math.exp(v) for v in dw],
                            [anchor_size * math.exp(v) for v in dh]])
        fits = (np.all(np.abs(box) <= MAX_BOX_COORD, axis=0)
                & (np.minimum(box[2], box[3]) > 0))
        ai, r, c, d, box = ai[fits], r[fits], c[fits], d[fits], box[:, fits]
        ax, ay = d[:, 4].tolist(), d[:, 5].tolist()
        live = np.array([math.hypot(x, y) >= 1e-6 for x, y in zip(ax, ay)],
                        dtype=bool)
        theta = np.zeros(len(ai))
        theta[live] = eaem.decode(eaem.normalize(d[live][:, 4:], config.omega))
        out += [OrientedBox(*b, class_id=cid, score=sc) for *b, cid, sc in
                zip(*box.tolist(), theta.tolist(),
                    cls_id[ai, r, c].tolist(), score[ai, r, c].tolist())]
    return out
