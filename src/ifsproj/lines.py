"""Lines in the plane, their parameter space, and renormalization by IFS maps.

A line is (theta, t) with theta in [0, pi): the set of p with
<p, nu(theta)> = t, where nu(theta) = (-sin theta, cos theta). The pair
(theta + pi, -t) names the same set; the constructor canonicalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ifs import IfsSpec, Similarity, Square, compose_word


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

    def carrier_point(self) -> np.ndarray:
        return self.t * normal(self.theta)

    def direction(self) -> np.ndarray:
        return np.array([math.cos(self.theta), math.sin(self.theta)])


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def normal(theta: float) -> np.ndarray:
    return np.array([-math.sin(theta), math.cos(theta)])


def project_point(theta: float, p) -> float | np.ndarray:
    """Signed offset of p along nu(theta); accepts a point or (n, 2) array."""
    pts = np.asarray(p, dtype=float)
    out = -pts[..., 0] * math.sin(theta) + pts[..., 1] * math.cos(theta)
    if out.ndim == 0:
        return float(out)
    return out


def project_square(theta: float, sq: Square) -> Interval:
    """The interval swept by the square's projection offsets."""
    vals = project_point(theta, sq.corners())
    return Interval(float(vals.min()), float(vals.max()))


def line_from_two_points(p, q, tol: float = 1e-12) -> Line:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    n = float(np.hypot(d[0], d[1]))
    if n < tol:
        raise ValueError("points are too close to define a line")
    theta_raw = math.atan2(d[1], d[0])
    return Line(theta_raw, float(project_point(theta_raw % math.pi, p)))


def line_square_intersects(line: Line, sq: Square, tol: float = 0.0) -> bool:
    """Does the line meet the (closed) square, with tol of slack?"""
    return project_square(line.theta, sq).contains(line.t, tol=tol)


def renormalize_arrays(
    f: Similarity, thetas: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized renormalization of many lines by one forward map f.

    The closed form of T_f = f^{-1} on line parameters: shift the offset by
    the translation's projection, scale by 1/ratio, negate it for a
    reflection and once per fold of the angle into [0, pi). Returns canonical
    (theta', t') arrays of the input shape.
    """
    thetas = np.asarray(thetas, dtype=float)
    shift = -f.translation[0] * np.sin(thetas) + f.translation[1] * np.cos(thetas)
    t_raw = (np.asarray(ts, dtype=float) - shift) / f.ratio
    if f.reflect:
        theta_raw = f.angle - thetas
        t_raw = -t_raw
    else:
        theta_raw = thetas - f.angle
    k = np.floor(theta_raw / math.pi)
    theta_p = theta_raw - k * math.pi
    edge = theta_p >= math.pi
    if edge.any():
        theta_p = np.where(edge, theta_p - math.pi, theta_p)
        k = k + edge
    t_p = np.where(k.astype(np.int64) % 2 == 0, t_raw, -t_raw)
    return theta_p, t_p


def renormalize_map(f: Similarity, line: Line) -> Line:
    """The image of a line under f^{-1}, for a forward similarity f."""
    theta, t = renormalize_arrays(f, np.array([line.theta]), np.array([line.t]))
    return Line(float(theta[0]), float(t[0]))


def renormalize_word(ifs: IfsSpec, w: str | Iterable[str], line: Line) -> Line:
    """T_w = T_{w_k} o ... o T_{w_1}, computed as (f_{w_1} o ... o f_{w_k})^{-1}."""
    return renormalize_map(compose_word(ifs, w), line)
