"""Lines in the plane, their parameter space, and renormalization by IFS maps.

A line is (theta, t) with theta in [0, pi): the set of p with
<p, nu(theta)> = t, where nu(theta) = (-sin theta, cos theta). The pair
(theta + pi, -t) names the same set; the constructor canonicalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ifs import MapArrays


def canonical_angle(theta_raw: float) -> tuple[float, int]:
    """Reduce an angle mod pi; the fold count parity flips the offset sign."""
    k = math.floor(theta_raw / math.pi)
    theta = theta_raw - k * math.pi
    if theta < 0:  # theta_raw / pi underflowed to -0.0 from a tiny negative angle
        theta += math.pi
        k -= 1
    if theta >= math.pi:  # representation edge when theta_raw is just below k*pi
        theta -= math.pi
        k += 1
    return theta, k


@dataclass(frozen=True)
class Line:
    """An unoriented line, canonicalized to theta in [0, pi)."""

    theta: float
    t: float

    def __post_init__(self):
        theta, k = canonical_angle(float(self.theta))
        t = float(self.t) if k % 2 == 0 else -float(self.t)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "t", t)


def renormalize_affine(
    f: MapArrays,
    thetas: np.ndarray,
    sincos: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_f = f^{-1} on lines of the given angles, for a forward map f (one
    map, or one per angle).

    Returns canonical theta' and the affine offset map of each angle:
    T_f(theta, t) = (theta', sign * (t - shift) / f.ratio). shift is the
    translation's projection; sign is -1 for a reflection, flipped once per
    fold of the angle into [0, pi). sincos, when given, is
    (np.sin(thetas), np.cos(thetas)) computed by the caller, for callers
    that renormalize the same angles under many maps.
    """
    thetas = np.asarray(thetas, dtype=float)
    tx, ty = f.translation
    sin, cos = (np.sin(thetas), np.cos(thetas)) if sincos is None else sincos
    shift = -tx * sin + ty * cos
    theta_raw = np.where(f.reflect, f.angle - thetas, thetas - f.angle)
    k = np.floor(theta_raw / math.pi)
    theta_p = theta_raw - k * math.pi
    under = theta_p < 0  # theta_raw / pi underflowed to -0.0 from a tiny negative angle
    if under.any():
        theta_p = np.where(under, theta_p + math.pi, theta_p)
        k = k - under
    edge = theta_p >= math.pi
    if edge.any():
        theta_p = np.where(edge, theta_p - math.pi, theta_p)
        k = k + edge
    flip = (k.astype(np.int64) % 2 == 1) ^ f.reflect
    return theta_p, np.where(flip, -1.0, 1.0), shift


def renormalize_arrays(
    f: MapArrays,
    thetas: np.ndarray,
    ts: np.ndarray,
    sincos: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized renormalization of many lines by one forward map f, or by
    one map per line: the closed form of `renormalize_affine` (which takes
    sincos) applied to each offset. Returns canonical (theta', t') arrays of
    the input shape."""
    theta_p, sign, shift = renormalize_affine(f, thetas, sincos)
    return theta_p, sign * ((np.asarray(ts, dtype=float) - shift) / f.ratio)

