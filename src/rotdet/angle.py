"""Invertible unit-circle angle codec.

An orientation theta is stored as the point (cos(omega*theta),
sin(omega*theta)) on the unit circle. Because the representation is
periodic, regression targets that sit on opposite sides of the angular
wrap-around are close in the code plane, which removes the loss jumps a
raw-angle parameterization suffers at the period boundary. The decoder is
a six-case piecewise argument function mapping the circle back to
[0, 2*pi), scaled by 1/omega. Only :func:`wrap` reduces an angle by its period,
and only :func:`omega_ok` states the range of omega, for the config too.

All functions are pure and take scalars or numpy arrays by one route; a
scalar comes back as a numpy float64 (a float). Non-finite angles and
vectors are rejected; a NaN reaching :func:`arg_unit` gives NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError

AXIS_TOL = 1e-12  # |x| at or below this routes to the x == 0 cases
OMEGA_RANGE = "in (0, 2] with a finite period 2*pi/omega"  # omega_ok's rule


def omega_ok(omega: float) -> bool:
    """The one range rule of omega: 2*pi/omega is finite from ~3.495e-308."""
    return 0.0 < omega <= 2.0 and math.isfinite(2.0 * math.pi / omega)


def _check_omega(omega: float) -> float:
    omega = float(omega)
    if not omega_ok(omega):
        raise ContractError(f"omega must be {OMEGA_RANGE}, got {omega}")
    return omega


def period(omega: float) -> float:
    """Length of the decodable angle range [0, 2*pi/omega)."""
    return 2.0 * math.pi / _check_omega(omega)


def wrap(theta, omega: float = 1.0):
    """theta (a float or an array) reduced into [0, period(omega)). Rounding
    can land a tiny negative angle on the period itself, which is angle 0."""
    p = period(omega)
    r = theta % p
    return r - p * (r >= p)


@dataclass(frozen=True)
class AngleCode:
    """Point (x, y) on the unit circle plus its angular frequency."""

    x: float | np.ndarray
    y: float | np.ndarray
    omega: float = 1.0

    def as_array(self) -> np.ndarray:
        return np.stack([np.asarray(self.x), np.asarray(self.y)], axis=-1)


def encode(theta, omega: float = 1.0) -> AngleCode:
    """Map angles in wrap's range [0, period(omega)) to unit-circle codes."""
    omega = _check_omega(omega)
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all((theta >= 0.0) & (theta < period(omega))):
        raise ContractError(
            "theta outside [0, 2*pi/omega); reduce it with wrap first")
    phase = omega * theta
    return AngleCode(np.cos(phase), np.sin(phase), omega)


def normalize(xy, omega: float = 1.0) -> AngleCode:
    """Project a raw 2-vector (or (..., 2) array) onto the unit circle."""
    omega = _check_omega(omega)
    arr = np.asarray(xy, dtype=np.float64)
    if arr.shape[-1:] != (2,):
        raise ContractError(f"expected trailing extent 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError("non-finite vector has no direction")
    with np.errstate(over="ignore"):
        sq = arr[..., 0] ** 2 + arr[..., 1] ** 2
    big = ~np.isfinite(sq)
    if np.any(big):  # the squares overflowed: scale by the larger component
        arr = arr / np.where(big, np.abs(arr).max(axis=-1), 1.0)[..., np.newaxis]
        sq = arr[..., 0] ** 2 + arr[..., 1] ** 2
    norm = np.sqrt(sq)
    if np.any(norm <= 1e-12):
        raise DegenerateInputError("zero-length vector has no direction")
    return AngleCode(arr[..., 0] / norm, arr[..., 1] / norm, omega)


def arg_unit(x, y):
    """Piecewise argument of a unit-circle point, in [0, 2*pi).

    Cases: x>0, y>=0 -> arctan(y/x); x>0, y<0 -> wrap(arctan(y/x));
    x<0 -> arctan(y/x)+pi; x=0, y>0 -> pi/2; x=0, y<0 -> 3*pi/2;
    the origin is undefined. Exact zero of x is detected with a 1e-12
    tolerance since float inputs never land on the axis exactly. A NaN
    in x or y gives NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    on_axis = np.abs(x) <= AXIS_TOL
    if np.any(on_axis & (np.abs(y) <= AXIS_TOL)):
        raise DegenerateInputError("argument of the origin is undefined")
    # the ratio stays finite on the axis, whose lanes it does not decide
    ratio = np.arctan(y / np.where(on_axis, 1.0, x))
    return np.select(
        [on_axis & (y > 0), on_axis & (y < 0), x < 0, y < 0],
        [0.5 * np.pi, 1.5 * np.pi, ratio + np.pi, wrap(ratio)],
        ratio)[()]


def decode(code: AngleCode):
    """Inverse of :func:`encode`: wrap(arg(x, y) / omega), in [0, period)."""
    omega = _check_omega(code.omega)
    return wrap(arg_unit(code.x, code.y) / omega, omega)


def code_distance(a: AngleCode, b: AngleCode):
    """Euclidean distance between two codes in the (x, y) plane.

    Equals 2*|sin(omega*(theta_a - theta_b)/2)|: continuous across the
    period boundary and bounded by the chord diameter 2.
    """
    if a.omega != b.omega:
        raise ContractError(
            f"codes use different frequencies: {a.omega} vs {b.omega}")
    return np.hypot(np.asarray(a.x) - np.asarray(b.x),
                    np.asarray(a.y) - np.asarray(b.y))


def circular_error(theta_a, theta_b, omega: float = 1.0):
    """Shortest angular distance on the circle of period 2*pi/omega."""
    p = period(omega)
    d = np.abs(np.asarray(theta_a) - np.asarray(theta_b)) % p
    return np.minimum(d, p - d)
