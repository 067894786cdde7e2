"""Projected densities of the uniform self-similar measure and word statistics.

The stationary measure assigns mass ratio(w)^d to the cylinder f_w(I); its
projection onto direction theta is estimated by a histogram of cylinder-center
deposits at the stopping-word scale. The direction set E keeps the angles
whose estimated L2 density norm stays below a threshold c5.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .ifs import IfsSpec, MapArrays, stopping_batches, stopping_ratios
from .lines import offsets


def stopping_cylinders(
    ifs: IfsSpec,
    rho: float,
    budget: int | None = None,
    point: tuple[float, float] = (0.5, 0.5),
    with_ratios: bool = True,
    consume: Callable[[np.ndarray], None] | None = None,
    prune: Callable[[MapArrays], np.ndarray] | None = None,
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

    consume, given, streams the points instead: it is called once per
    batch with the batch's points, an array (m, 2) from the same
    `MapArrays.images` call, and nothing is kept. The points
    returned then have no columns, their length still the count, and the
    ratios are None. prune, for that streamed route, goes to
    `ifs.stopping_batches`; the count still includes the words it drops.

    The default point is the square center; passing an attractor point makes
    every f_w(point) an attractor point too.
    """
    count, batches = stopping_batches(ifs, rho, budget=budget, prune=prune)
    if consume is not None:
        for maps in batches:
            consume(maps.images(point))
        return np.empty((count, 0)), None
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


def projected_histogram(cylinders: tuple[np.ndarray, np.ndarray], theta: float, delta: float) -> np.ndarray:
    """The masses of the projected density's estimate at angle theta in
    bins of width delta, aligned to multiples of it, from the first
    nonempty bin: cylinder masses deposited at their projected centers.
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
    return np.bincount(idx - int(idx.min()), weights=masses)


def l2_norm_estimate(masses: np.ndarray, delta: float) -> float:
    """Squared L2 norm of the density whose bins of width delta hold
    masses: sum of mass^2 / delta. The sum is exactly rounded
    (`math.fsum`), so no summation order, and no BLAS kernel, can change
    it."""
    return math.fsum((masses * masses).tolist()) / delta


@dataclass(frozen=True)
class DirectionSet:
    """Membership of the uniform theta-grid theta_j = j*pi/n (n the length
    of l2) in E = {theta : l2 < c5}."""

    l2: np.ndarray
    c5: float
    member: np.ndarray

    @property
    def theta_grid(self) -> np.ndarray:
        return np.arange(len(self.l2)) * (math.pi / len(self.l2))

    @property
    def excluded_fraction(self) -> float:
        return float(np.count_nonzero(~self.member) / len(self.member))


def select_c5(l2_values: np.ndarray, epsilon: float) -> float:
    """Smallest observed-quantile threshold excluding less than epsilon/2.

    Membership is strict (l2 < c5), so candidate thresholds are the observed
    values themselves plus one value just above the maximum (excludes none).
    A value excludes those at or above it, so the excluded fractions fall
    along the sorted values: the threshold is the first value v of the sorted
    array x whose count of entries x >= v, read off one `searchsorted`, is
    small enough.
    """
    x = np.sort(l2_values)
    n = len(x)
    candidates = np.append(x, np.nextafter(x[-1], np.inf))
    excluded = n - np.searchsorted(x, candidates, "left")
    return float(candidates[np.argmax(excluded / n < epsilon / 2.0)])


def build_E(
    ifs: IfsSpec,
    grid_size: int,
    rho: float,
    delta: float,
    c5: float | None,
    epsilon: float,
    budget: int | None = None,
) -> DirectionSet:
    """Evaluate the L2 estimate on theta_j = j*pi/grid_size and threshold it.

    With c5 None, the threshold is auto-selected as the smallest grid
    quantile whose excluded fraction stays below epsilon/2.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    centers, ratios = stopping_cylinders(ifs, rho, budget=budget)
    cylinders = (centers, ratios**ifs.dimension)
    thetas = np.arange(grid_size) * (math.pi / grid_size)
    l2 = np.array([l2_norm_estimate(projected_histogram(cylinders, th, delta), delta) for th in thetas])
    if c5 is None:
        c5 = select_c5(l2, epsilon)
    return DirectionSet(l2=l2, c5=float(c5), member=l2 < c5)


def measured_c9(ifs: IfsSpec, rho: float, budget: int | None = None) -> float:
    """Smallest constant making the cylinder-measure and projected-length
    sandwiches hold for every stopping word at scale rho^(1/2); a cover of
    more than budget words raises BudgetExceeded.

    Projected lengths of a square of side r lie in [r, sqrt(2) r] over all
    angles, so the angle sup is exact without scanning theta. The max over
    words depends only on the distinct word ratios (`ifs.stopping_ratios`),
    so no map is composed.
    """
    d = ifs.dimension
    half = math.sqrt(rho)
    c9 = 1.0
    for r in sorted(stopping_ratios(ifs, half, budget)):
        mu = r**d
        c9 = max(c9, mu / rho ** (0.5 * d), rho ** (0.5 * d) / mu)
        c9 = max(c9, math.sqrt(2.0) * r / half, half / r)
    return c9
