"""Command-line surface: parameter audits, forward dumps, gradient checks,
angle codec tools, the boundary experiment, synthetic data, and evaluation.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np

from . import angle as eaem
from . import boundary, gradsuite
from .config import NON_NEGATIVE, Config, load_config
from .errors import (ConfigError, DegenerateInputError, FormatError,
                     GenerationError, ShapeError)
from .evalmap import eval_map, eval_map_sweep
from .geometry import FINITE_RULE, save_annotations
from .msk import STRIP_SIZES, count_params
from .pyramid import NetworkWeights, assemble_forward, detect
from .scenes import gen_scene, scene_boxes
from .tensor import Tensor, no_recording
from .tensorio import load_pgm, load_tensor, save_pgm, save_tensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


DTYPES = {"f32": np.float32, "f64": np.float64}  # --dtype: name -> type


def _ruled(parse, *rules):
    """An argparse type: ``parse`` the text, then reject it on the first
    (test, what) rule, in order, that the value fails. It bears ``parse``'s
    name, which argparse shows for a text ``parse`` rejects."""
    def convert(text: str):
        value = parse(text)
        for test, what in rules:
            if not test(value):
                raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    convert.__name__ = parse.__name__
    return convert


def cmd_param_count(cfg: Config, args) -> int:
    c = cfg.network.branch_out
    report = count_params(c)
    print(f"depthwise strip channels C = branch_out = {c}, per module")
    print(f"{'m':>3} {'full':>12} {'separable':>12} {'ratio':>8}")
    for m, row in report.per_m.items():
        print(f"{m:>3} {row['full']:>12} {row['separable']:>12} "
              f"{str(row['ratio']):>8}")
    print("ratios " + " ".join(str(report.per_m[m]["ratio"])
                               for m in STRIP_SIZES))
    delta = report.total_separable - report.total_full
    print(f"totals full={report.total_full} separable={report.total_separable} "
          f"delta={delta}")
    return EXIT_OK


def cmd_forward(cfg: Config, args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dtype = DTYPES[args.dtype]
    if not args.image:
        img = np.zeros((1, 3, cfg.canvas, cfg.canvas))
    elif Path(args.image).suffix == ".pgm":
        gray = load_pgm(args.image)
        img = np.broadcast_to(gray, (1, 3, *gray.shape))  # Tensor copies it
    else:
        img = load_tensor(args.image).data
        if img.ndim == 3:
            img = img[np.newaxis]
    weights = NetworkWeights.create(np.random.default_rng(cfg.data_seed),
                                    cfg.network, dtype)
    # every Tensor rejects a non-finite value, so numpy's overflow warnings
    # would only repeat the error below
    try:
        with no_recording(), np.errstate(over="ignore", invalid="ignore"):
            feats, head = assemble_forward(Tensor(img, dtype=dtype), weights)
    except ShapeError as exc:  # the image breaks the forward's input rule
        raise FormatError(f"{args.image}: {exc}") from None
    except ValueError as exc:
        # the weights come from a checked config, so this is Tensor's
        # finiteness check: a value of the image, or one computed from it,
        # overflows the dtype
        raise FormatError(f"{args.image}: {exc}: the image overflows the "
                          f"{args.dtype} forward pass") from None
    named = {**feats, **head.named()}
    lines = []
    for name, tensor in named.items():
        save_tensor(out_dir / f"{name}.rmkt", tensor)
        lines.append(f"{name} " + "x".join(str(d) for d in tensor.shape))
    (out_dir / "shapes.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(named)} tensors to {out_dir}")
    return EXIT_OK


def cmd_gradcheck(cfg: Config, args) -> int:
    results = gradsuite.full_suite(seed=cfg.data_seed)
    ok = True
    print(f"{'check':<20} {'max rel err':>14} {'bound':>10} {'status':>8}")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        ok &= r.passed
        print(f"{r.name:<20} {r.max_rel_error:>14.3e} {r.bound:>10.0e} "
              f"{status:>8}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_angle_codec(cfg: Config, args) -> int:
    omega = cfg.network.omega
    if args.out is not None and args.input is None:
        raise ConfigError("angle-codec --out needs --input")
    if args.encode is not None:
        code = eaem.encode(eaem.wrap(args.encode, omega), omega)
        print(f"theta={args.encode:.9f} omega={omega} -> "
              f"x={code.x:.12f} y={code.y:.12f}")
        return EXIT_OK
    if args.decode is not None:
        x, y = args.decode
        theta = eaem.decode(eaem.normalize((x, y), omega))
        print(f"x={x} y={y} omega={omega} -> theta={theta:.12f}")
        return EXIT_OK
    thetas = load_tensor(args.input).data.astype(np.float64).ravel()
    if thetas.size == 0:
        raise FormatError(f"{args.input} holds no angles")
    thetas = eaem.wrap(thetas, omega)
    code = eaem.encode(thetas, omega)
    err = eaem.circular_error(eaem.decode(code), thetas, omega)
    if args.out:
        save_tensor(Path(args.out), Tensor(code.as_array()))
    print(f"n={thetas.size} max_roundtrip_err={err.max():.3e} "
          f"mean_roundtrip_err={err.mean():.3e}")
    return EXIT_OK


def cmd_boundary_exp(cfg: Config, args) -> int:
    omega, seed = cfg.network.omega, cfg.data_seed
    with np.errstate(over="ignore", invalid="ignore"):  # tiny omega diverges
        report = boundary.compare_methods(seed, omega, args.steps, args.lr)
        print(f"seed={seed} omega={omega} steps={args.steps} "
              f"lr={args.lr} targets={boundary.TARGET_COUNT}")
        for target in (0.01, np.pi / omega):
            for method in boundary.METHODS:
                trace = boundary.loss_landscape(method, target, omega)
                jumps = boundary.count_jumps(trace)
                print(f"landscape target={target:.4f} method={method} "
                      f"jumps={jumps}")
    for method, result in report.results.items():
        print(f"regression method={method} status={result.status} "
              f"final_angular_error={result.final_error:.6f}")
    if args.csv:
        csv_dir = Path(args.csv)
        csv_dir.mkdir(parents=True, exist_ok=True)
        for method, result in report.results.items():
            lines = ["step,loss"] + [f"{i},{v:.12g}"
                                     for i, v in enumerate(result.loss_trace)]
            (csv_dir / f"{method}_trace.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote traces to {csv_dir}")
    direct = report.results["direct_smoothl1"].final_error
    circ = report.results["eaem_chord"].final_error
    return EXIT_OK if circ < direct else EXIT_CHECK_FAILED


def cmd_eval(cfg: Config, args) -> int:
    truths = []
    preds = []
    dtype = DTYPES[args.dtype]
    weights = None
    if args.mode == "model":
        weights = NetworkWeights.create(
            np.random.default_rng(cfg.data_seed), cfg.network, dtype)
    for i in range(cfg.images):
        if args.mode == "model":
            image, truth = gen_scene(cfg.data_seed + i, cfg.scene, cfg.canvas)
            batch = Tensor(image.data[np.newaxis], dtype=dtype)
            preds.extend(detect(batch, weights, cfg.network,
                                cfg.score_threshold, cfg.nms_threshold))
        else:  # the oracle and empty predictions need no image
            truth = scene_boxes(cfg.data_seed + i, cfg.scene, cfg.canvas)
            preds.append(list(truth) if args.mode == "oracle" else [])
        truths.append(truth)
    mean_ap, per_class = eval_map(preds, truths, cfg.iou_threshold)
    for cls, ap in sorted(per_class.items()):
        print(f"class {cls}: AP = {ap:.4f}")
    print(f"mAP@{cfg.iou_threshold} = {mean_ap:.4f}")
    if cfg.coco_sweep:
        print(f"mAP@[0.50:0.95] = {eval_map_sweep(preds, truths):.4f}")
    return EXIT_OK


def cmd_gen_data(cfg: Config, args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(cfg.images):
        image, truth = gen_scene(cfg.data_seed + i, cfg.scene, cfg.canvas)
        save_pgm(out_dir / f"scene_{i:03d}.pgm", image.data[0])
        save_tensor(out_dir / f"scene_{i:03d}.rmkt", image)
        save_annotations(out_dir / f"scene_{i:03d}.txt", truth)
    print(f"wrote {cfg.images} scenes to {out_dir}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads every negative decimal literal as a
    value: argparse's own pattern takes ``-1e308`` for an option string,
    though no option here starts with a dash and a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rotdet",
        description="Oriented-detection building blocks: audits, forwards, "
                    "checks, codec tools, synthetic evaluation.")
    parser.add_argument("--config", help="path to a config file")
    parser.add_argument("--seed", type=_ruled(int, NON_NEGATIVE), default=None,
                        help="master seed (default: the config's data seed)")
    parser.add_argument("--dtype", choices=DTYPES, default="f32")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("param-count", help="separable vs full parameter audit")
    p.set_defaults(run=cmd_param_count)

    p = sub.add_parser("forward", help="run the network, dump intermediates")
    p.set_defaults(run=cmd_forward)
    p.add_argument("--image", help="input image (.pgm or .rmkt); default zeros")
    p.add_argument("--out", required=True, help="dump directory")

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.set_defaults(run=cmd_gradcheck)

    p = sub.add_parser("angle-codec", help="encode/decode orientations")
    p.set_defaults(run=cmd_angle_codec)
    mode = p.add_mutually_exclusive_group(required=True)
    finite = _ruled(float, FINITE_RULE)
    mode.add_argument("--encode", type=finite, help="angle in radians")
    mode.add_argument("--decode", type=finite, nargs=2, metavar=("X", "Y"))
    mode.add_argument("--input", help="RMKT tensor of angles")
    p.add_argument("--out", help="RMKT file for the codes; needs --input")

    p = sub.add_parser("boundary-exp", help="periodic-boundary loss experiment")
    p.set_defaults(run=cmd_boundary_exp)
    p.add_argument("--steps", type=_ruled(int, NON_NEGATIVE),
                   default=boundary.STEPS)
    p.add_argument("--lr", type=_ruled(float, FINITE_RULE,
                                       (lambda v: v > 0.0, "> 0")),
                   default=boundary.LR)
    p.add_argument("--csv", help="directory for per-step loss traces")

    p = sub.add_parser("eval", help="synthetic-scene detection evaluation")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--mode", choices=("model", "oracle", "empty"),
                   default="model")

    p = sub.add_parser("gen-data", help="write synthetic scenes to disk")
    p.set_defaults(run=cmd_gen_data)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    """Run one command. argparse exits 2 on a bad command line itself; every
    other bad input, a config value or a file, is reported here."""
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, data_seed=args.seed)
        return args.run(cfg, args)
    except (ConfigError, FormatError, ShapeError, GenerationError,
            DegenerateInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
