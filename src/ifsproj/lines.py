"""Lines in the plane, their parameter space, and renormalization by IFS maps.

A line is (theta, t) with theta in [0, pi): the set of p with
<p, nu(theta)> = t, where nu(theta) = (-sin theta, cos theta). The pair
(theta + pi, -t) names the same set; the constructor canonicalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .ifs import Similarity


def canonical_angle(theta_raw: float) -> tuple[float, int]:
    """Reduce an angle mod pi; the fold count parity flips the offset sign."""
    k = math.floor(theta_raw / math.pi)
    theta = theta_raw - k * math.pi
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


class MapArrays(NamedTuple):
    """The fields of `Similarity` as arrays, one forward map per element;
    translation is the pair (x, y) of arrays. `renormalize_affine` and
    `renormalize_arrays` take it wherever they take a Similarity and
    broadcast it against the lines."""

    ratio: np.ndarray
    angle: np.ndarray
    reflect: np.ndarray
    translation: tuple[np.ndarray, np.ndarray]

    @classmethod
    def of(cls, maps: Sequence[Similarity]) -> "MapArrays":
        return cls(
            np.array([f.ratio for f in maps], dtype=float),
            np.array([f.angle for f in maps], dtype=float),
            np.array([f.reflect for f in maps], dtype=bool),
            (
                np.array([f.translation[0] for f in maps], dtype=float),
                np.array([f.translation[1] for f in maps], dtype=float),
            ),
        )

    def take(self, idx: np.ndarray) -> "MapArrays":
        """The maps at the given indices."""
        tx, ty = self.translation
        return MapArrays(self.ratio[idx], self.angle[idx], self.reflect[idx], (tx[idx], ty[idx]))


def renormalize_affine(
    f: Similarity | MapArrays, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_f = f^{-1} on lines of the given angles, for a forward map f (one
    map, or one per angle).

    Returns canonical theta' and the affine offset map of each angle:
    T_f(theta, t) = (theta', sign * (t - shift) / f.ratio). shift is the
    translation's projection; sign is -1 for a reflection, flipped once per
    fold of the angle into [0, pi).
    """
    thetas = np.asarray(thetas, dtype=float)
    tx, ty = f.translation
    shift = -tx * np.sin(thetas) + ty * np.cos(thetas)
    theta_raw = np.where(f.reflect, f.angle - thetas, thetas - f.angle)
    k = np.floor(theta_raw / math.pi)
    theta_p = theta_raw - k * math.pi
    edge = theta_p >= math.pi
    if edge.any():
        theta_p = np.where(edge, theta_p - math.pi, theta_p)
        k = k + edge
    flip = (k.astype(np.int64) % 2 == 1) ^ f.reflect
    return theta_p, np.where(flip, -1.0, 1.0), shift


def renormalize_arrays(
    f: Similarity | MapArrays, thetas: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized renormalization of many lines by one forward map f, or by
    one map per line: the closed form of `renormalize_affine` applied to each
    offset. Returns canonical (theta', t') arrays of the input shape."""
    theta_p, sign, shift = renormalize_affine(f, thetas)
    return theta_p, sign * ((np.asarray(ts, dtype=float) - shift) / f.ratio)

