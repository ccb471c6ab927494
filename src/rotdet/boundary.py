"""Controlled comparison of angle-regression losses near the period wrap.

Two parameterizations regress a fixed set of target angles concentrated
next to the period boundary: a single raw-angle parameter trained with
Smooth-L1 on the angle difference, and a 2-parameter unit-circle code
trained with squared chord distance after projection onto the circle.
The swept loss landscapes and the seeded gradient-descent runs expose the
wrap-around jump of the raw parameterization and the smoothness of the
circular one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import angle as eaem
from .tensor import (Tensor, mean_all, mul, no_recording, normalize_vec,
                     scale, smooth_l1, sub, sum_all)

METHODS = ("direct_smoothl1", "eaem_chord")
JUMP_THRESHOLD = 0.5
TARGET_COUNT = 32
TARGET_DELTA = 0.05
LANDSCAPE_SAMPLES = 4096  # predicted angles per swept period
STEPS, LR = 500, 0.1  # the experiment's descent steps and rate


def loss_landscape(method: str, target_theta: float,
                   omega: float) -> np.ndarray:
    """Loss over LANDSCAPE_SAMPLES predicted angles swept uniformly across
    one period."""
    p = eaem.period(omega)
    thetas = np.arange(LANDSCAPE_SAMPLES) * (p / LANDSCAPE_SAMPLES)
    if method == "direct_smoothl1":
        with no_recording():
            return smooth_l1(Tensor(thetas - target_theta)).data
    if method == "eaem_chord":
        target = eaem.encode(eaem.wrap(target_theta, omega), omega)
        return eaem.code_distance(eaem.encode(thetas, omega), target)
    raise ValueError(f"unknown method {method!r}")


def count_jumps(trace: np.ndarray) -> int:
    """Adjacent-sample jumps above JUMP_THRESHOLD, counting the wrap pair."""
    diffs = np.abs(np.diff(np.concatenate([trace, trace[:1]])))
    return int(np.count_nonzero(diffs > JUMP_THRESHOLD))


def boundary_targets(omega: float, seed: int) -> np.ndarray:
    """TARGET_COUNT angles within TARGET_DELTA of the wrap, half each side."""
    rng = np.random.default_rng(seed)
    p = eaem.period(omega)
    low = rng.uniform(0.0, TARGET_DELTA, size=TARGET_COUNT // 2)
    high = rng.uniform(p - TARGET_DELTA, p, size=TARGET_COUNT // 2)
    return np.concatenate([low, high])


@dataclass
class MethodResult:
    status: str  # "ok" or "diverged"
    final_error: float
    loss_trace: list[float] = field(repr=False, default_factory=list)


@dataclass
class ExperimentReport:
    """Side-by-side regression outcome, keyed by method."""

    results: dict[str, MethodResult] = field(default_factory=dict)


def _initial_theta(seed: int, omega: float) -> float:
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.0, eaem.period(omega)))


def run_regression(method: str, targets: np.ndarray, steps: int, lr: float,
                   seed: int, omega: float) -> MethodResult:
    """Full-batch gradient descent on the chosen loss, seed-pinned.

    Both methods start from the same seeded initial angle, so a zero-step
    run reports identical errors. Divergence (non-finite loss) is reported
    in the status, not raised.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    theta0 = _initial_theta(seed, omega)
    targets = np.asarray(targets, dtype=np.float64)
    trace: list[float] = []
    try:
        if method == "direct_smoothl1":
            param = Tensor(np.array([theta0]))
            target_t = Tensor(targets)

            def loss_of(p):
                return mean_all(smooth_l1(sub(p, target_t)))
        else:
            code0 = eaem.encode(theta0, omega)
            param = Tensor(np.array([code0.x, code0.y]))
            target_codes = Tensor(eaem.encode(targets, omega).as_array())

            def loss_of(p):
                diff = sub(normalize_vec(p), target_codes)
                return scale(sum_all(mul(diff, diff)), 1.0 / len(targets))
        for _ in range(steps):
            loss = loss_of(param)
            trace.append(loss.item())
            param.grad = None
            loss.backward()
            param.data = param.data - lr * param.grad
        if method == "direct_smoothl1":
            pred_theta = eaem.wrap(float(param.data[0]), omega)
        else:
            pred_theta = eaem.decode(eaem.normalize(param.data, omega))
    except ValueError:
        return MethodResult("diverged", float("nan"), trace)
    if steps == 0:
        pred_theta = theta0
    err = float(np.mean(eaem.circular_error(pred_theta, targets, omega)))
    return MethodResult("ok", err, trace)


def compare_methods(seed: int, omega: float, steps: int = STEPS,
                    lr: float = LR) -> ExperimentReport:
    targets = boundary_targets(omega, seed)
    report = ExperimentReport()
    for method in METHODS:
        report.results[method] = run_regression(method, targets, steps, lr,
                                                seed, omega)
    return report
