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
from .tensor import (Tensor, mean_all, mul, normalize_vec, scale, smooth_l1,
                     sub, sum_all)

METHODS = ("direct_smoothl1", "eaem_chord")
SMOOTH_L1_BETA = 1.0
JUMP_THRESHOLD = 0.5


def loss_landscape(method: str, target_theta: float, omega: float = 1.0,
                   samples: int = 4096) -> np.ndarray:
    """Loss over predicted angles swept uniformly across one period."""
    if samples < 16:
        raise ValueError("need at least 16 samples")
    p = eaem.period(omega)
    thetas = np.arange(samples) * (p / samples)
    if method == "direct_smoothl1":
        return smooth_l1(Tensor(thetas - target_theta), SMOOTH_L1_BETA).data
    if method == "eaem_chord":
        pred = eaem.encode(thetas, omega)
        target = eaem.encode(target_theta % p, omega)
        return eaem.code_distance(
            pred, eaem.AngleCode(np.full(samples, target.x),
                                 np.full(samples, target.y), omega))
    raise ValueError(f"unknown method {method!r}")


def count_jumps(trace: np.ndarray, threshold: float = JUMP_THRESHOLD) -> int:
    """Adjacent-sample jumps above threshold, counting the wrap pair."""
    diffs = np.abs(np.diff(np.concatenate([trace, trace[:1]])))
    return int(np.count_nonzero(diffs > threshold))


def boundary_targets(omega: float = 1.0, count: int = 32, delta: float = 0.05,
                     seed: int = 0) -> np.ndarray:
    """Target angles concentrated in [0, delta] and [period - delta, period)."""
    rng = np.random.default_rng(seed)
    p = eaem.period(omega)
    low = rng.uniform(0.0, delta, size=count // 2)
    high = rng.uniform(p - delta, p, size=count - count // 2)
    return np.concatenate([low, high])


@dataclass
class MethodResult:
    method: str
    status: str  # "ok" or "diverged"
    final_error: float
    loss_trace: list[float] = field(repr=False, default_factory=list)


@dataclass
class ExperimentReport:
    """Side-by-side regression outcome plus config echo."""

    seed: int
    omega: float
    steps: int
    lr: float
    targets: np.ndarray = field(repr=False, default=None)
    results: dict[str, MethodResult] = field(default_factory=dict)


def _initial_theta(seed: int, omega: float) -> float:
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.0, eaem.period(omega)))


def run_regression(method: str, targets: np.ndarray, steps: int = 500,
                   lr: float = 0.1, seed: int = 7,
                   omega: float = 1.0) -> MethodResult:
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
            param = Tensor(np.array([theta0]), requires_grad=True)
            target_t = Tensor(targets)
            for _ in range(steps):
                loss = mean_all(smooth_l1(sub(param, target_t),
                                          SMOOTH_L1_BETA))
                trace.append(loss.item())
                param.grad = None
                loss.backward()
                param.data = param.data - lr * param.grad
            pred_theta = float(param.data[0]) % eaem.period(omega)
        else:
            code0 = eaem.encode(theta0, omega)
            param = Tensor(np.array([code0.x, code0.y]), requires_grad=True)
            target_codes = Tensor(eaem.encode(targets, omega).as_array())
            for _ in range(steps):
                diff = sub(normalize_vec(param), target_codes)
                loss = scale(sum_all(mul(diff, diff)), 1.0 / len(targets))
                trace.append(loss.item())
                param.grad = None
                loss.backward()
                param.data = param.data - lr * param.grad
            pred_theta = eaem.decode(eaem.normalize(param.data, omega))
    except ValueError:
        return MethodResult(method, "diverged", float("nan"), trace)
    if steps == 0:
        pred_theta = theta0
    err = float(np.mean(eaem.circular_error(pred_theta, targets, omega)))
    return MethodResult(method, "ok", err, trace)


def compare_methods(steps: int = 500, lr: float = 0.1, seed: int = 7,
                    omega: float = 1.0, count: int = 32,
                    delta: float = 0.05) -> ExperimentReport:
    targets = boundary_targets(omega, count, delta, seed)
    report = ExperimentReport(seed=seed, omega=omega, steps=steps, lr=lr,
                              targets=targets)
    for method in METHODS:
        report.results[method] = run_regression(method, targets, steps, lr,
                                                seed, omega)
    return report
