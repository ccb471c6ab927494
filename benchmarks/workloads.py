"""The four benchmark workloads, driven through rotdet's public functions.

Module attributes are looked up at call time (``pyramid.assemble_forward``
rather than an imported name) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import math

import numpy as np

from rotdet import (angle, boundary, config, evalmap, geometry, gradsuite,
                    pyramid, scenes, tensor)
from rotdet.geometry import OrientedBox
from rotdet.scenes import SceneSpec
from rotdet.tensor import Tensor

SEED_STRIDE = 100_000  # more inputs than one run of any workload uses


def _hex(v: float) -> str:
    return float(v).hex()


def _box_record(b: OrientedBox) -> str:
    return " ".join(_hex(v) for v in (b.cx, b.cy, b.w, b.h, b.theta, b.score)) \
        + f" {b.class_id}"


def _sample_pairs(rng, n: int, limit: int):
    if n < 2:
        return []
    i = rng.integers(0, n, size=limit)
    j = rng.integers(0, n, size=limit)
    return [(a, b) for a, b in zip(i, j) if a != b]


def _weights(cfg):
    """The network every run uses: seeded from the config, not from the
    benchmark seed, which picks only the inputs. Like ``rotdet eval`` with
    its default seed."""
    return pyramid.NetworkWeights.create(
        np.random.default_rng(cfg.data_seed), cfg.network, dtype=np.float32)


class Workload:
    """``setup(seed)`` is timed as set-up and repeated; ``op(i)`` is the
    timed unit of work, whose inputs depend only on the seed and ``i``;
    ``check(i, out)`` runs outside the op timer and returns failure
    messages; ``record(i, out)`` gives the exact outputs for the behaviour
    digest; ``finish(outs)`` runs after the timed loop and returns failure
    messages. Seeds of per-op inputs are ``seed * SEED_STRIDE + ...``, so
    that different benchmark seeds give disjoint inputs."""

    def finish(self, outs) -> list[str]:
        return []


class Detect(Workload):
    """``rotdet eval --mode model`` at 256², batch 1: one op is one image."""

    name = "detect"
    check_pairs = 64

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cfg = config.load_config()
        self.weights = _weights(self.cfg)
        size = self.cfg.canvas
        pyramid.assemble_forward(
            Tensor(np.zeros((1, 3, size, size), np.float32)), self.weights)

    def op(self, i: int):
        cfg = self.cfg
        image, truth = scenes.gen_scene(
            self.seed * SEED_STRIDE + i, cfg.scene, cfg.canvas)
        batch = Tensor(image.data[np.newaxis], dtype=np.float32)
        _, head = pyramid.assemble_forward(batch, self.weights)
        raw = pyramid.decode_boxes(head, cfg.network, cfg.score_threshold)
        kept = geometry.rotated_nms(raw, cfg.nms_threshold)
        return truth, raw, kept

    def check(self, i: int, out) -> list[str]:
        _, raw, kept = out
        fails = []
        decoded = {_box_record(b) for b in raw}
        if not all(_box_record(b) in decoded for b in kept):
            fails.append("kept boxes are not a subset of the decoded boxes")
        rng = np.random.default_rng([self.seed, i])
        for a, b in _sample_pairs(rng, len(kept), self.check_pairs):
            iou = geometry.rotated_iou(kept[a], kept[b])
            if iou > self.cfg.nms_threshold:
                fails.append(f"kept pair ({a}, {b}) has IoU {iou:.4f}")
                break
        return fails

    def record(self, i: int, out) -> str:
        truth, _, kept = out
        ap, per_class = evalmap.eval_map([kept], [truth],
                                         self.cfg.iou_threshold)
        return "\n".join([_box_record(b) for b in kept] + [
            _hex(ap), *(f"{c} {_hex(v)}" for c, v in sorted(per_class.items()))])

    def finish(self, outs) -> list[str]:
        truths = [o[0] for o in outs]
        preds = [o[2] for o in outs]
        mean_ap, _ = evalmap.eval_map(preds, truths, self.cfg.iou_threshold)
        if not 0.0 <= mean_ap <= 1.0:
            return [f"mAP {mean_ap} outside [0, 1]"]
        return []


class Train(Workload):
    """One SGD step per op at 256², batch 2, graph kept for backward."""

    name = "train"
    batch = 2
    pool = 4  # distinct batches, cycled
    lr = 1e-3

    def setup(self, seed: int) -> None:
        self.seed = seed
        cfg = self.cfg = config.load_config()
        self.weights = _weights(cfg)
        self.params = self.weights.parameters()
        self.batches = []
        for p in range(self.pool):
            scenes_ = [scenes.gen_scene(
                seed * SEED_STRIDE + p * self.batch + b, cfg.scene, cfg.canvas)
                       for b in range(self.batch)]
            images = np.stack([img.data for img, _ in scenes_])
            self.batches.append((images, self._targets([t for _, t in scenes_])))
        pyramid.assemble_forward(Tensor(self.batches[0][0]), self.weights)

    def _targets(self, truths):
        """Per level: one-hot class map at each object's center cell, and
        the anchor-relative box code there (zeros elsewhere)."""
        net = self.cfg.network
        size = self.cfg.canvas
        out = []
        for stride in net.strides:
            cells = size // stride
            cls = np.zeros((self.batch, net.classes, cells, cells), np.float32)
            box = np.zeros((self.batch, 6, cells, cells), np.float32)
            anchor = stride * net.anchor_scale
            for n, truth in enumerate(truths):
                for t in truth:
                    r, c = int(t.cy // stride), int(t.cx // stride)
                    code = angle.encode(t.theta % angle.period(net.omega),
                                        net.omega)
                    cls[n, t.class_id, r, c] = 1.0
                    box[n, :, r, c] = ((t.cx - (c + 0.5) * stride) / anchor,
                                       (t.cy - (r + 0.5) * stride) / anchor,
                                       math.log(t.w / anchor),
                                       math.log(t.h / anchor), code.x, code.y)
            out.append((Tensor(cls), Tensor(box)))
        return out

    def op(self, i: int):
        images, targets = self.batches[i % self.pool]
        for p in self.params:
            p.grad = None
        _, head = pyramid.assemble_forward(Tensor(images), self.weights)
        loss = None
        for logits, boxes, (cls_t, box_t) in zip(head.logits, head.boxes,
                                                 targets):
            term = tensor.add(
                tensor.mean_all(tensor.smooth_l1(
                    tensor.sub(tensor.sigmoid(logits), cls_t))),
                tensor.mean_all(tensor.smooth_l1(tensor.sub(boxes, box_t))))
            loss = term if loss is None else tensor.add(loss, term)
        tensor.backward(loss)
        for p in self.params:
            p.data = p.data - self.lr * p.grad
        return loss.item()

    def check(self, i: int, out) -> list[str]:
        fails = [] if math.isfinite(out) else [f"loss {out} is not finite"]
        if not all(p.grad is not None and np.all(np.isfinite(p.grad))
                   for p in self.params):
            fails.append("a parameter gradient is missing or not finite")
        return fails

    def record(self, i: int, out) -> str:
        return _hex(out)


class Match(Workload):
    """Dense 512² scenes with jittered and false-positive predictions,
    scored at IoU 0.5 and over the 0.50:0.95 sweep."""

    name = "match"
    images = 4
    canvas = 512
    false_positives = 8

    def setup(self, seed: int) -> None:
        self.seed = seed
        cfg = config.load_config()
        self.spec = SceneSpec(objects=16, classes=cfg.network.classes,
                              min_size=cfg.scene.min_size,
                              max_size=cfg.scene.max_size)
        _, truth = scenes.gen_scene(seed * SEED_STRIDE, self.spec,
                                    self.canvas)
        evalmap.eval_map([truth], [truth])

    def _predict(self, rng, truth) -> list[OrientedBox]:
        preds = []
        for t in truth:
            for _ in range(int(rng.integers(1, 3))):
                preds.append(OrientedBox(
                    t.cx + rng.normal(0.0, 0.1 * t.h),
                    t.cy + rng.normal(0.0, 0.1 * t.h),
                    t.w * math.exp(rng.normal(0.0, 0.1)),
                    t.h * math.exp(rng.normal(0.0, 0.1)),
                    t.theta + rng.normal(0.0, 0.1),
                    class_id=t.class_id, score=float(rng.uniform(0.3, 1.0))))
        for _ in range(self.false_positives):
            w = rng.uniform(self.spec.min_size, self.spec.max_size)
            preds.append(OrientedBox(
                rng.uniform(0, self.canvas), rng.uniform(0, self.canvas),
                w, rng.uniform(self.spec.min_size, w),
                rng.uniform(0, 2 * math.pi),
                class_id=int(rng.integers(0, self.spec.classes)),
                score=float(rng.uniform(0.0, 0.6))))
        return preds

    def op(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        truths, preds = [], []
        for b in range(self.images):
            _, truth = scenes.gen_scene(
                self.seed * SEED_STRIDE + i * self.images + b, self.spec,
                self.canvas)
            truths.append(truth)
            preds.append(self._predict(rng, truth))
        ap50, per_class = evalmap.eval_map(preds, truths, 0.5)
        sweep = evalmap.eval_map_sweep(preds, truths)
        return truths, ap50, per_class, sweep

    def check(self, i: int, out) -> list[str]:
        truths, ap50, _, sweep = out
        fails = []
        oracle, _ = evalmap.eval_map(truths, truths, 0.5)
        if oracle != 1.0:
            fails.append(f"oracle predictions give mAP {oracle!r}, not 1.0")
        if not 0.0 <= sweep <= ap50 <= 1.0:
            fails.append(f"mAP@0.5 {ap50} and sweep {sweep} out of order")
        return fails

    def record(self, i: int, out) -> str:
        _, ap50, per_class, sweep = out
        return " ".join([_hex(ap50), _hex(sweep)] + [
            f"{c}:{_hex(v)}" for c, v in sorted(per_class.items())])


class Verify(Workload):
    """One pass of the oracle checks: the gradcheck battery, the boundary
    experiment and exact IoU against the raster oracle."""

    name = "verify"
    pairs = 8
    grid = 1024
    # Set-up warms the oracle at the smallest grid it takes: the same code,
    # without 1024² of fresh pages per set-up, whose cost follows the host's
    # memory system more than the host-speed probe.
    warmup_grid = 256
    raster_tol = 5e-3

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.omega = config.load_config().network.omega
        a, b = self._pairs(np.random.default_rng(seed))[0]
        geometry.raster_iou_oracle(a, b, self.warmup_grid)

    def _pairs(self, rng):
        def box():
            return OrientedBox(rng.uniform(-4, 4), rng.uniform(-4, 4),
                               rng.uniform(0.5, 6), rng.uniform(0.5, 6),
                               rng.uniform(0, 2 * math.pi))
        return [(box(), box()) for _ in range(self.pairs)]

    def op(self, i: int):
        sub_seed = self.seed * SEED_STRIDE + i
        checks = gradsuite.full_suite(seed=sub_seed)
        report = boundary.compare_methods(seed=sub_seed, omega=self.omega)
        ious = [(geometry.rotated_iou(a, b),
                 geometry.raster_iou_oracle(a, b, self.grid))
                for a, b in self._pairs(np.random.default_rng([self.seed, i]))]
        return checks, report, ious

    def check(self, i: int, out) -> list[str]:
        checks, report, ious = out
        fails = [f"gradcheck {c.name}: {c.max_rel_error:.3e} > {c.bound:.0e}"
                 for c in checks if not c.passed]
        worst = max(abs(e - r) for e, r in ious)
        if worst > self.raster_tol:
            fails.append(f"exact vs raster IoU differ by {worst:.2e}")
        direct = report.results["direct_smoothl1"]
        chord = report.results["eaem_chord"]
        if not chord.final_error < direct.final_error:
            fails.append(f"chord error {chord.final_error} not below direct "
                         f"error {direct.final_error}")
        return fails

    def record(self, i: int, out) -> str:
        checks, report, ious = out
        lines = [f"{c.name} {_hex(c.max_rel_error)}" for c in checks]
        for method, res in sorted(report.results.items()):
            lines.append(f"{method} {res.status} {_hex(res.final_error)} "
                         + " ".join(_hex(v) for v in res.loss_trace))
        lines += [f"{_hex(e)} {_hex(r)}" for e, r in ious]
        return "\n".join(lines)


WORKLOADS = {w.name: w for w in (Detect, Train, Match, Verify)}
