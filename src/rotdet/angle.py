"""Invertible unit-circle angle codec.

An orientation theta is stored as the point (cos(omega*theta),
sin(omega*theta)) on the unit circle. Because the representation is
periodic, regression targets that sit on opposite sides of the angular
wrap-around are close in the code plane, which removes the loss jumps a
raw-angle parameterization suffers at the period boundary. The decoder is
a six-case piecewise argument function mapping the circle back to
[0, 2*pi), scaled by 1/omega.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError

AXIS_TOL = 1e-12  # |x| at or below this routes to the x == 0 cases


def _check_omega(omega: float) -> float:
    omega = float(omega)
    if not (0.0 < omega <= 2.0):
        raise ContractError(f"omega must lie in (0, 2], got {omega}")
    return omega


def period(omega: float) -> float:
    """Length of the decodable angle range [0, 2*pi/omega)."""
    return 2.0 * math.pi / _check_omega(omega)


@dataclass(frozen=True)
class AngleCode:
    """Point (x, y) on the unit circle plus its angular frequency."""

    x: float | np.ndarray
    y: float | np.ndarray
    omega: float = 1.0

    def as_array(self) -> np.ndarray:
        return np.stack([np.asarray(self.x), np.asarray(self.y)], axis=-1)


def encode(theta, omega: float = 1.0) -> AngleCode:
    """Map angles in [0, 2*pi/omega) to unit-circle codes."""
    omega = _check_omega(omega)
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(theta < 0.0) or np.any(theta >= 2.0 * np.pi / omega):
        raise ContractError(
            "theta outside [0, 2*pi/omega); reduce modulo the period first")
    phase = omega * theta
    x, y = np.cos(phase), np.sin(phase)
    if theta.ndim == 0:
        return AngleCode(float(x), float(y), omega)
    return AngleCode(x, y, omega)


def normalize(xy, omega: float = 1.0) -> AngleCode:
    """Project a raw 2-vector (or (..., 2) array) onto the unit circle."""
    omega = _check_omega(omega)
    arr = np.asarray(xy, dtype=np.float64)
    if arr.shape[-1] != 2:
        raise ContractError(f"expected trailing extent 2, got shape {arr.shape}")
    with np.errstate(over="ignore"):
        sq = arr[..., 0] ** 2 + arr[..., 1] ** 2
    big = ~np.isfinite(sq)
    if np.any(big):  # the squares overflowed: scale by the larger component
        arr = arr / np.where(big, np.abs(arr).max(axis=-1), 1.0)[..., np.newaxis]
        sq = arr[..., 0] ** 2 + arr[..., 1] ** 2
    norm = np.sqrt(sq)
    if np.any(norm <= 1e-12):
        raise DegenerateInputError("zero-length vector has no direction")
    x = arr[..., 0] / norm
    y = arr[..., 1] / norm
    if arr.ndim == 1:
        return AngleCode(float(x), float(y), omega)
    return AngleCode(x, y, omega)


def arg_unit(x, y):
    """Piecewise argument of a unit-circle point, in [0, 2*pi).

    Cases: x>0, y>=0 -> arctan(y/x); x>0, y<0 -> arctan(y/x)+2*pi;
    x<0 -> arctan(y/x)+pi; x=0, y>0 -> pi/2; x=0, y<0 -> 3*pi/2;
    the origin is undefined. Exact zero of x is detected with a 1e-12
    tolerance since float inputs never land on the axis exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    on_axis = np.abs(x) <= AXIS_TOL
    if np.any(on_axis & (np.abs(y) <= AXIS_TOL)):
        raise DegenerateInputError("argument of the origin is undefined")

    out = np.empty(np.broadcast(x, y).shape, dtype=np.float64)
    xs = np.where(on_axis, 1.0, x)  # keep the ratio finite off the used lanes
    ratio = np.arctan(y / xs)
    pos = ~on_axis & (x > 0)
    neg = ~on_axis & (x < 0)
    out[pos & (y >= 0)] = ratio[pos & (y >= 0)]
    out[pos & (y < 0)] = ratio[pos & (y < 0)] + 2.0 * np.pi
    out[neg] = ratio[neg] + np.pi
    out[on_axis & (y > 0)] = 0.5 * np.pi
    out[on_axis & (y < 0)] = 1.5 * np.pi
    return float(out[0]) if scalar else out


def decode(code: AngleCode):
    """Inverse of :func:`encode`: theta = arg(x, y) / omega."""
    omega = _check_omega(code.omega)
    theta = arg_unit(code.x, code.y)
    return theta / omega


def code_distance(a: AngleCode, b: AngleCode):
    """Euclidean distance between two codes in the (x, y) plane.

    Equals 2*|sin(omega*(theta_a - theta_b)/2)|: continuous across the
    period boundary and bounded by the chord diameter 2.
    """
    if a.omega != b.omega:
        raise ContractError(
            f"codes use different frequencies: {a.omega} vs {b.omega}")
    d = np.hypot(np.asarray(a.x) - np.asarray(b.x),
                 np.asarray(a.y) - np.asarray(b.y))
    return float(d) if d.ndim == 0 else d


def circular_error(theta_a, theta_b, omega: float = 1.0):
    """Shortest angular distance on the circle of period 2*pi/omega."""
    p = period(omega)
    d = np.abs(np.asarray(theta_a) - np.asarray(theta_b)) % p
    d = np.minimum(d, p - d)
    return float(d) if d.ndim == 0 else d
