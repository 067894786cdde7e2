"""Cylinder-counting line certificate, kept as a test oracle: criterion 3
checks its verdicts against a point cloud of the attractor. It works one
square at a time, with none of the package's array routes.

Also the recurrence row of an angle as the point route computes it
(`point_route_row`), the route `recurrence_rows` took before it read the
row route's witnesses, and `_longest_run`, the run selector it and the
sort-and-diff certificate oracle read, kept here so that neither reads the
selector of the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ifsproj.errors import BudgetExceeded
from ifsproj.ifs import IfsSpec
from ifsproj.recurrence import (
    _MIN_LENGTH_FACTOR,
    GridMembership,
    RecurrentCandidate,
    first_witness,
    two_letter_words,
)
from map_oracle import IDENTITY, Word, compose, square_corners
from renormalize_oracle import Line, project_point


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def project_square(theta: float, corners: np.ndarray) -> Interval:
    """The interval swept by the projection offsets of a square, given by
    its corners."""
    vals = project_point(theta, corners)
    return Interval(float(vals.min()), float(vals.max()))


def line_square_intersects(line: Line, corners: np.ndarray, tol: float = 0.0) -> bool:
    """Does the line meet the (closed) square with the given corners, with
    tol of slack?"""
    return project_square(line.theta, corners).contains(line.t, tol=tol)


@dataclass
class SurvivalReport:
    """Cylinder-counting certificate for K intersect a line."""

    line: Line
    surviving_counts: list[int]
    verdict: str  # "certified_empty" | "surviving_at_depth"
    survivors: list[Word]


_SQUARE_TOL = 1e-12  # inflation of cylinder squares in the line test
_MAX_SURVIVORS = 1000  # surviving words listed in a survival report


def certify_line(
    ifs: IfsSpec,
    line: Line,
    max_depth: int,
    budget: int | None = None,
) -> SurvivalReport:
    """Breadth-first survival of cylinders meeting the line.

    An empty level certifies K does not meet the line (squares are inflated
    by _SQUARE_TOL, so the verdict survives roundoff). A nonempty front at
    max_depth is only evidence of intersection, not proof. budget caps the
    population of any single level.
    """
    front = [((), IDENTITY)]
    if not line_square_intersects(line, square_corners(IDENTITY), tol=_SQUARE_TOL):
        front = []
    counts = [len(front)]
    for _ in range(max_depth):
        if not front:
            break
        nxt = []
        for w, g in front:
            for a in ifs.alphabet:
                child = compose(g, ifs.maps[a])
                if line_square_intersects(line, square_corners(child), tol=_SQUARE_TOL):
                    nxt.append((w + (a,), child))
            if budget is not None and len(nxt) > budget:
                raise BudgetExceeded(
                    f"budget exceeded: level population passed {budget}",
                    partial=SurvivalReport(
                        line=line,
                        surviving_counts=counts,
                        verdict="budget_exhausted",
                        survivors=[w for w, _ in nxt[:_MAX_SURVIVORS]],
                    ),
                )
        front = nxt
        counts.append(len(front))
    verdict = "certified_empty" if not front else "surviving_at_depth"
    return SurvivalReport(
        line=line,
        surviving_counts=counts,
        verdict=verdict,
        survivors=[w for w, _ in front[:_MAX_SURVIVORS]],
    )


def _longest_run(breaks: np.ndarray, coords: np.ndarray) -> tuple[int, int]:
    """(start, stop) of the run [start, stop) of the len(coords) - 1 steps
    between consecutive coords that holds none of the break indices
    (ascending) and has the largest measure coords[stop] - coords[start];
    the first such run wins. (0, 0) when every step is a break."""
    starts = np.concatenate(([0], breaks + 1))
    stops = np.append(breaks, len(coords) - 1)
    runs = stops > starts
    if not runs.any():
        return 0, 0
    starts, stops = starts[runs], stops[runs]
    k = int(np.argmax(coords[stops] - coords[starts]))
    return int(starts[k]), int(stops[k])


def point_route_row(ifs: IfsSpec, cand: RecurrentCandidate, theta: float, resolution: float) -> dict:
    """The JSON fields recurrence_interval, recurrence_length and
    recurrence_certified of the recurrence row at theta: the L cells of the
    row nearest theta go through `first_witness` one by one against the L
    membership at the check slack, and the first longest run of recurring
    columns is reported in theta's own offsets (t negated an odd number of
    half-turns away)."""
    geom = cand.geom
    turns, row = divmod(int(round(theta / geom.pitch)), geom.n_theta)
    ptr, start, stop = cand.L
    cols = np.array(
        [c for k in range(ptr[row], ptr[row + 1]) for c in range(start[k], stop[k])], dtype=np.int64
    )
    if len(cols):
        membership = GridMembership(geom, cand.L, cand.check_slack)
        words = two_letter_words(ifs.letter_maps()).reshape(1, -1)
        th = np.full(len(cols), row * geom.pitch)
        tt = (cols - geom.m) * geom.pitch
        cols = cols[first_witness(words, th, tt, membership)[0] >= 0]
    interval, length = None, 0.0
    if len(cols):
        first, last = _longest_run(np.flatnonzero(np.diff(cols) != 1), cols)
        length = (last - first + 1) * geom.pitch
        lo_t = (cols[first] - geom.m) * geom.pitch
        interval = [float(lo_t), float(lo_t + length)]
        if turns % 2:
            interval = [-interval[1], -interval[0]]
    return {
        "recurrence_interval": interval,
        "recurrence_length": float(length),
        "recurrence_certified": length >= _MIN_LENGTH_FACTOR * resolution,
    }
