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

from .ifs import IfsSpec, stopping_batches
from .lines import offsets


def stopping_cylinders(
    ifs: IfsSpec,
    rho: float,
    budget: int | None = None,
    point: tuple[float, float] = (0.5, 0.5),
    with_ratios: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The points f_w(point) and ratios of the stopping words w at scale
    rho (see `ifs.stopping_batches`), in the words' lexicographic
    (alphabet-rank) order. This is the one gatherer of the stopping words:
    both arrays are allocated once, from the count, and filled batch by
    batch, so the words' maps are never held whole. Ratios are the
    products of the letters' ratios taken left to right; with_ratios false
    gives None in their place, for a caller that reads only the points. The
    points are column-major, so that `lines.offsets` reads each coordinate
    contiguously.

    The default point is the square center; passing an attractor point makes
    every f_w(point) an attractor point too.
    """
    count, batches = stopping_batches(ifs, rho, budget=budget)
    points = np.empty((count, 2), order="F")
    ratios = np.empty(count) if with_ratios else None
    lo = 0
    for maps in batches:
        hi = lo + len(maps.ratio)
        points[lo:hi] = maps.images(point)
        if with_ratios:
            ratios[lo:hi] = maps.ratio
        lo = hi
    return points, ratios


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
    cylinders: tuple[np.ndarray, np.ndarray], theta: float, delta: float
) -> ProjectedHistogram:
    """Deposit cylinder masses at projected centers into width-delta bins.
    cylinders is the stopping words' centers and masses ratio^d at scale
    rho (`stopping_cylinders`), computed once by the caller for all its
    angles.

    Center deposits are off by at most the cylinder diameter (~rho), which is
    why delta should stay at the rho^(1/2) scale.
    """
    if not (delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    centers, masses = cylinders
    pos = offsets(centers[:, 0], centers[:, 1], math.sin(theta), math.cos(theta))
    idx = np.floor(pos / delta).astype(np.int64)
    lo = int(idx.min())
    binned = np.bincount(idx - lo, weights=masses)
    return ProjectedHistogram(theta=theta, bin_width=delta, origin=lo * delta, masses=binned)


def l2_norm_estimate(h: ProjectedHistogram) -> float:
    """Squared L2 norm of the histogram's density: sum of mass^2 / bin width.
    The sum is exactly rounded (`math.fsum`), so no summation order, and no
    BLAS kernel, can change it."""
    return math.fsum((h.masses * h.masses).tolist()) / h.bin_width


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
    centers, ratios = stopping_cylinders(ifs, rho, budget=budget)
    cylinders = (centers, ratios**ifs.dimension)
    thetas = np.arange(grid_size) * (math.pi / grid_size)
    l2 = np.array([l2_norm_estimate(projected_histogram(cylinders, th, delta)) for th in thetas])
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


def measured_c9(ifs: IfsSpec, rho: float, budget: int | None = None) -> float:
    """Smallest constant making the cylinder-measure and projected-length
    sandwiches hold for every stopping word at scale rho^(1/2); a cover of
    more than budget words raises BudgetExceeded.

    Projected lengths of a square of side r lie in [r, sqrt(2) r] over all
    angles, so the angle sup is exact without scanning theta.
    """
    d = ifs.dimension
    half = math.sqrt(rho)
    c9 = 1.0
    # the max over words only depends on the distinct word ratios
    for r in np.unique(stopping_cylinders(ifs, half, budget=budget)[1]).tolist():
        mu = r**d
        c9 = max(c9, mu / rho ** (0.5 * d), rho ** (0.5 * d) / mu)
        c9 = max(c9, math.sqrt(2.0) * r / half, half / r)
    return c9
