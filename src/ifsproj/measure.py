"""Projected densities of the uniform self-similar measure and word statistics.

The stationary measure assigns mass ratio(w)^d to the cylinder f_w(I); its
projection onto direction theta is estimated by a histogram of cylinder-center
deposits at the stopping-word scale. The direction set E keeps the angles
whose estimated L2 density norm stays below a threshold c5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ifs import IfsSpec, stopping_batches, stopping_cover


def stopping_cylinders(
    ifs: IfsSpec,
    rho: float,
    budget: int | None = None,
    point: tuple[float, float] = (0.5, 0.5),
) -> tuple[np.ndarray, np.ndarray]:
    """The points f_w(point) and ratios of the stopping words w at scale
    rho, in the words' lexicographic (alphabet-rank) order: one row or
    element per map of ifs.stopping_cover. Both arrays are allocated once,
    from the count, and filled batch by batch from ifs.stopping_batches, so
    the cover's maps are never held whole.

    The default point is the square center; passing an attractor point makes
    every f_w(point) an attractor point too.
    """
    count, batches = stopping_batches(ifs, rho, budget=budget)
    points, ratios = np.empty((count, 2)), np.empty(count)
    lo = 0
    for maps in batches:
        hi = lo + len(maps.ratio)
        points[lo:hi] = maps.images(point)
        ratios[lo:hi] = maps.ratio
        lo = hi
    return points, ratios


def _deposits(ifs: IfsSpec, rho: float, budget: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The stopping words' centers and masses ratio^d."""
    centers, ratios = stopping_cylinders(ifs, rho, budget=budget)
    return centers, ratios**ifs.dimension


@dataclass(frozen=True)
class ProjectedHistogram:
    """Piecewise-constant estimate of the projected density at angle theta.

    Bins have width bin_width and are aligned to multiples of it; origin is
    the left edge of masses[0].
    """

    theta: float
    bin_width: float
    origin: float
    masses: np.ndarray


def projected_histogram(
    ifs: IfsSpec,
    theta: float,
    rho: float,
    delta: float,
    cylinders=None,
    budget: int | None = None,
) -> ProjectedHistogram:
    """Deposit cylinder masses at projected centers into width-delta bins.
    cylinders, when given, is the stopping words' centers and masses
    ratio^d at scale rho, computed by the caller, for callers that project
    the same cover at many angles.

    Center deposits are off by at most the cylinder diameter (~rho), which is
    why delta should stay at the rho^(1/2) scale.
    """
    if not (delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    centers, masses = _deposits(ifs, rho, budget) if cylinders is None else cylinders
    pos = centers @ np.array([-math.sin(theta), math.cos(theta)])
    idx = np.floor(pos / delta).astype(np.int64)
    lo = int(idx.min())
    binned = np.bincount(idx - lo, weights=masses)
    return ProjectedHistogram(theta=theta, bin_width=delta, origin=lo * delta, masses=binned)


def l2_norm_estimate(h: ProjectedHistogram) -> float:
    """Squared L2 norm of the histogram's density: sum of mass^2 / bin width."""
    return float(np.dot(h.masses, h.masses) / h.bin_width)


@dataclass(frozen=True)
class DirectionSet:
    """Membership of the uniform theta-grid in E = {theta : l2 < c5}."""

    theta_grid: np.ndarray
    l2: np.ndarray
    c5: float
    member: np.ndarray
    excluded_fraction: float

    def member_rows(self) -> np.ndarray:
        return np.flatnonzero(self.member)


def select_c5(l2_values: np.ndarray, epsilon: float) -> float:
    """Smallest observed-quantile threshold excluding less than epsilon/2.

    Membership is strict (l2 < c5), so candidate thresholds are the observed
    values themselves plus one value just above the maximum (excludes none).
    """
    vals = np.unique(l2_values)
    candidates = np.append(vals, np.nextafter(vals[-1], np.inf))
    n = len(l2_values)
    for c in candidates:
        if np.count_nonzero(l2_values >= c) / n < epsilon / 2.0:
            return float(c)
    raise AssertionError("unreachable: the last candidate excludes nothing")


def build_E(
    ifs: IfsSpec,
    grid_size: int,
    rho: float,
    delta: float,
    c5: float | None = None,
    epsilon: float = 0.3,
    budget: int | None = None,
) -> DirectionSet:
    """Evaluate the L2 estimate on theta_j = j*pi/grid_size and threshold it.

    With c5 absent, the threshold is auto-selected as the smallest grid
    quantile whose excluded fraction stays below epsilon/2.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    cylinders = _deposits(ifs, rho, budget)
    thetas = np.arange(grid_size) * (math.pi / grid_size)
    l2 = np.array(
        [
            l2_norm_estimate(projected_histogram(ifs, theta, rho, delta, cylinders=cylinders))
            for theta in thetas
        ]
    )
    if c5 is None:
        c5 = select_c5(l2, epsilon)
    member = l2 < c5
    return DirectionSet(
        theta_grid=thetas,
        l2=l2,
        c5=float(c5),
        member=member,
        excluded_fraction=float(np.count_nonzero(~member) / grid_size),
    )


def measured_c9(ifs: IfsSpec, rho: float) -> float:
    """Smallest constant making the cylinder-measure and projected-length
    sandwiches hold for every stopping word at scale rho^(1/2).

    Projected lengths of a square of side r lie in [r, sqrt(2) r] over all
    angles, so the angle sup is exact without scanning theta.
    """
    d = ifs.dimension
    half = math.sqrt(rho)
    c9 = 1.0
    # the max over words only depends on the distinct word ratios
    for r in np.unique(stopping_cover(ifs, half).ratio).tolist():
        mu = r**d
        c9 = max(c9, mu / rho ** (0.5 * d), rho ** (0.5 * d) / mu)
        c9 = max(c9, math.sqrt(2.0) * r / half, half / r)
    return c9
