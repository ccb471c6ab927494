"""Finite-difference verification suite shared by the CLI and the tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdcaa import MdcaaWeights, mdcaa_apply
from .msk import MskModuleWeights, msk_module_forward
from .pyramid import NetworkConfig, NetworkWeights, assemble_forward
from .tensor import (Tensor, add, avg_pool, concat_channels, conv2d, gradcheck,
                     mul, normalize_vec, rot90, sigmoid, smooth_l1, sum_all)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.bound


def _rand(rng, shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def per_op_checks(seed: int = 0) -> list[CheckResult]:
    """Gradcheck every differentiable op in 64-bit."""
    rng = np.random.default_rng(seed)
    rng.standard_normal((1, 2, 6, 6))  # draws no check reads: see below
    rng.standard_normal((3, 2, 3, 3))
    kd = _rand(rng, (2, 1, 1, 3))
    results = [
        ("conv2d", gradcheck(
            lambda a, b: sum_all(sigmoid(conv2d(a, b, padding=(1, 1)))),
            [_rand(rng, (1, 2, 6, 6)), _rand(rng, (3, 2, 3, 3))]), 1e-6),
        ("conv2d_strided", gradcheck(
            lambda a, b: sum_all(sigmoid(conv2d(a, b, stride=(2, 2)))),
            [_rand(rng, (1, 2, 7, 7)), _rand(rng, (2, 2, 3, 3))]), 1e-6),
        ("conv2d_depthwise", gradcheck(
            lambda a, b: sum_all(sigmoid(conv2d(a, b, padding=(0, 1), groups=2))),
            [_rand(rng, (1, 2, 5, 5)), kd]), 1e-6),
        ("rot90", gradcheck(
            lambda a: sum_all(sigmoid(rot90(a, "ccw"))), _rand(rng, (1, 2, 4, 5))),
         1e-6),
        ("avg_pool", gradcheck(
            lambda a: sum_all(sigmoid(avg_pool(a, (2, 2), padding=(1, 1)))),
            _rand(rng, (1, 2, 5, 5))), 1e-6),
        ("sigmoid", gradcheck(
            lambda a: sum_all(sigmoid(a)), _rand(rng, (2, 3))), 1e-6),
        ("concat_channels", gradcheck(
            lambda a, b: sum_all(sigmoid(concat_channels([a, b]))),
            [_rand(rng, (1, 2, 3, 3)), _rand(rng, (1, 3, 3, 3))]), 1e-6),
    ]
    # A draw no check reads, like the first two: each keeps the inputs of
    # the checks after it what they are for this seed.
    rng.standard_normal((1, 4, 3, 3))
    eye = Tensor(np.eye(3).reshape(3, 3, 1, 1))  # conv2d(a, eye) is a
    results += [
        ("add", gradcheck(
            lambda a, b: sum_all(sigmoid(add(a, b))),
            [_rand(rng, (2, 3)), _rand(rng, (2, 3))]), 1e-6),
        ("mul", gradcheck(
            lambda a, b: sum_all(mul(a, b)),
            [_rand(rng, (2, 3)), _rand(rng, (2, 3))]), 1e-6),
        ("conv2d_bias", gradcheck(
            lambda a, b: sum_all(sigmoid(conv2d(a, eye, bias=b))),
            [_rand(rng, (1, 3, 2, 2)), _rand(rng, (3,))]), 1e-6),
        ("smooth_l1", gradcheck(
            lambda a: sum_all(smooth_l1(a)), _rand(rng, (8,))), 1e-6),
        ("normalize_vec", gradcheck(
            lambda a: sum_all(mul(normalize_vec(a), normalize_vec(a))),
            _rand(rng, (2,))), 1e-6),
        # sum_all is linear, so a central difference has no truncation
        # error at any step; a large step shrinks its rounding error below
        # the tight bound.
        ("sum_linear", gradcheck(
            lambda a: sum_all(a), _rand(rng, (3, 3)), eps=1e-2), 1e-10),
    ]
    return [CheckResult(name, err, bound) for name, err, bound in results]


def block_checks(seed: int = 0) -> list[CheckResult]:
    """Gradcheck the feature modules end to end on tiny inputs."""
    rng = np.random.default_rng(seed)
    msk_w = MskModuleWeights.create(rng, 4, 2)
    x = _rand(rng, (1, 4, 8, 8))
    msk_err = gradcheck(
        lambda a: sum_all(sigmoid(msk_module_forward(a, msk_w))), x,
        coord_limit=64, seed=seed)

    att_w = MdcaaWeights.create(rng, 4, strip_len=3, pool_window=3)
    f = _rand(rng, (1, 4, 8, 8))
    att_err = gradcheck(lambda a: sum_all(mdcaa_apply(a, att_w)), f,
                        coord_limit=64, seed=seed)
    return [CheckResult("msk_module", msk_err, 1e-5),
            CheckResult("mdcaa_apply", att_err, 1e-5)]


def assembly_check(seed: int = 0) -> CheckResult:
    """Finite differences through the whole network on a 64x64 input."""
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(stem_channels=4, branch_out=2, backbone_channels=4,
                        strip_len=3, pool_window=3)
    weights = NetworkWeights.create(rng, cfg, dtype=np.float64)

    def fn(img):
        _, head = assemble_forward(img, weights)
        total = None
        for t in head.logits + head.boxes:
            s = sum_all(sigmoid(t))
            total = s if total is None else add(total, s)
        return total

    img = _rand(rng, (1, 3, 64, 64))
    err = gradcheck(fn, img, eps=1e-5, coord_limit=24, seed=seed)
    return CheckResult("full_assembly", err, 1e-4)


def full_suite(seed: int = 0) -> list[CheckResult]:
    return per_op_checks(seed) + block_checks(seed) + [assembly_check(seed)]
