"""Span tracing from outside the rotdet package.

rotdet modules look names up at call time (``rotdet.msk.conv2d`` inside
``ConvParams.__call__``, ``rotdet.geometry.rotated_iou`` inside
``rotated_nms``), so replacing those module attributes with timing
wrappers catches every call without touching the package source. The
wrappers are installed only around traced ops and removed afterwards, so
untraced ops run the original functions.

Each call becomes one span (name, start, end, parent, op id, counts) kept
in memory; :meth:`Tracer.layer_metrics` folds them into per-op means and
:meth:`Tracer.write_spans` dumps them when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

from rotdet import (angle, boundary, evalmap, geometry, gradsuite, mdcaa, msk,
                    pyramid, scenes, tensor)


def _conv_label(args, kwargs, out):
    """Kind, computed flops and computed im2col bytes of one conv2d call."""
    x, kernel = args[0], args[1]
    groups = kwargs.get("groups", args[4] if len(args) > 4 else 1)
    n, c = x.shape[:2]
    oc, cg, kh, kw = kernel.shape
    oh, ow = out.shape[2:]
    if groups > 1 and cg == 1:
        kind = "depthwise"
    elif kh == kw == 1:
        kind = "pointwise"
    else:
        kind = "dense"
    return f"tensor.conv2d.{kind}", (
        2 * n * oc * oh * ow * cg * kh * kw,
        n * c * kh * kw * oh * ow * x.data.itemsize)


def _pool_label(args, kwargs, out):
    x = args[0]
    n, c = x.shape[:2]
    window = args[1] if len(args) > 1 else kwargs["window"]
    kh, kw = (window, window) if isinstance(window, int) else window
    oh, ow = out.shape[2:]
    return "tensor.avg_pool", (n * c * kh * kw * oh * ow * x.data.itemsize,)


def _nms_label(args, kwargs, out):
    return "geometry.rotated_nms", (len(args[0]), len(out))


def _iou_label(args, kwargs, out):
    return "geometry.rotated_iou", (out > 0.0,)


def _decode_boxes_label(args, kwargs, out):
    return "pyramid.decode_boxes", (len(out),)


# Names of the counts a labelling function returns, per span name.
COUNTS = {
    **{f"tensor.conv2d.{k}": ("flops", "im2col_bytes")
       for k in ("dense", "depthwise", "pointwise")},
    "tensor.avg_pool": ("im2col_bytes",),
    "geometry.rotated_nms": ("boxes_in", "boxes_kept"),
    "geometry.rotated_iou": ("overlaps",),
    "pyramid.decode_boxes": ("boxes_out",),
}

# (module, attribute, span name or labelling function). Where a function is
# imported into several modules, each binding that callers use is listed,
# and all of them feed the same span name.
HOOKS = [
    (geometry, "rotated_nms", _nms_label),
    (geometry, "rotated_iou", _iou_label),
    (evalmap, "rotated_iou", _iou_label),
    (scenes, "rotated_iou", _iou_label),
    (geometry, "raster_iou_oracle", "geometry.raster_iou_oracle"),
    (msk, "conv2d", _conv_label),
    (mdcaa, "avg_pool", _pool_label),
    (pyramid, "msk_block_forward", "msk.msk_block_forward"),
    (pyramid, "mdcaa_apply", "mdcaa.mdcaa_apply"),
    (gradsuite, "mdcaa_apply", "mdcaa.mdcaa_apply"),
    (pyramid, "assemble_forward", "pyramid.assemble_forward"),
    (gradsuite, "assemble_forward", "pyramid.assemble_forward"),
    (pyramid, "decode_boxes", _decode_boxes_label),
    (angle, "decode", "angle.decode"),
    (tensor, "backward", "tensor.backward"),
    (gradsuite, "gradcheck", "tensor.gradcheck"),
    (gradsuite, "full_suite", "gradsuite.full_suite"),
    (boundary, "compare_methods", "boundary.compare_methods"),
    (evalmap, "eval_map", "evalmap.eval_map"),
    (evalmap, "eval_map_sweep", "evalmap.eval_map_sweep"),
    (scenes, "gen_scene", "scenes.gen_scene"),
]

LAYERS = sorted({label for _, _, label in HOOKS if isinstance(label, str)}
                | set(COUNTS))


class Tracer:
    """Collects spans while installed; folds them into layer metrics.

    Spans live in parallel lists of strings and numbers rather than one
    container per span, so recording a span allocates nothing the cyclic
    garbage collector has to scan.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list = []
        self.counts: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = None
        self.origin = time.perf_counter()
        self._originals = [(mod, attr, getattr(mod, attr))
                           for mod, attr, _ in HOOKS]

    def _wrap(self, fn, label):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, counts, stack = (self.parents, self.ops, self.counts,
                                       self.stack)
        clock = time.perf_counter
        fixed = isinstance(label, str)
        op = self.op

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(label if fixed else "")
            parents.append(stack[-1] if stack else -1)
            ops.append(op)
            ends.append(0.0)
            counts.append(None)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if not fixed:
                names[idx], counts[idx] = label(args, kwargs, out)
            return out

        return wrapper

    def install(self, op) -> None:
        self.op = op
        for (mod, attr, label), (_, _, fn) in zip(HOOKS, self._originals):
            setattr(mod, attr, self._wrap(fn, label))

    def uninstall(self) -> None:
        for mod, attr, fn in self._originals:
            setattr(mod, attr, fn)
        self.op = None

    def layer_metrics(self, op_times: dict, scale: dict) -> dict[str, float]:
        """Per-op means over the traced ops in ``op_times`` (op -> seconds).

        Span times of op ``i`` are multiplied by ``scale[i]``, the op's
        host-speed correction, so they add up with the corrected op time.
        ``busy_s`` is a span's duration; ``self_s`` subtracts its direct
        children, which nest strictly because the run is single-threaded.
        Children are recorded after their parent, so one backward pass
        over the spans has every child's time before it reaches the parent.
        """
        busy = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        totals = defaultdict(int)
        child = defaultdict(float)
        for idx in range(len(self.names) - 1, -1, -1):
            op = self.ops[idx]
            if op not in op_times:
                continue
            name = self.names[idx]
            dur = (self.ends[idx] - self.starts[idx]) * scale[op]
            busy[name] += dur
            self_time[name] += dur - child[idx]
            calls[name] += 1
            if self.parents[idx] >= 0:
                child[self.parents[idx]] += dur
            if self.counts[idx] is not None:
                for key, value in zip(COUNTS[name], self.counts[idx]):
                    totals[f"{name}.{key}"] += value
        n = len(op_times)
        m: dict[str, float] = {}
        for name in LAYERS:
            m[f"{name}.calls"] = calls[name] / n
            m[f"{name}.busy_s"] = busy[name] / n
            m[f"{name}.self_s"] = self_time[name] / n
            for key in COUNTS.get(name, ()):
                m[f"{name}.{key}"] = totals[f"{name}.{key}"] / n
        iou_calls = calls["geometry.rotated_iou"]
        m["geometry.rotated_iou.overlap_ratio"] = (
            totals["geometry.rotated_iou.overlaps"] / iou_calls
            if iou_calls else 0.0)
        m["trace.self_share"] = (sum(self_time.values()) / sum(
            t * scale[op] for op, t in op_times.items()))
        return m

    def write_spans(self, path) -> None:
        """One TSV line per span; ``parent`` is a line index (0-based,
        header excluded) and -1 for a top-level span."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.ops):
                name, start, end, parent, op = row
                fh.write(f"{name}\t{start - self.origin:.7f}\t"
                         f"{end - self.origin:.7f}\t{parent}\t{op}\n")
