"""Cylinder-counting line certificate, kept as a test oracle: criterion 3
checks its verdicts against a point cloud of the attractor. It works one
square at a time, with none of the package's array routes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ifsproj.errors import BudgetExceeded
from ifsproj.ifs import IfsSpec, Similarity, Square, Word, compose, map_square
from ifsproj.lines import Line
from renormalize_oracle import project_point


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def project_square(theta: float, sq: Square) -> Interval:
    """The interval swept by the square's projection offsets."""
    vals = project_point(theta, sq.corners())
    return Interval(float(vals.min()), float(vals.max()))


def line_square_intersects(line: Line, sq: Square, tol: float = 0.0) -> bool:
    """Does the line meet the (closed) square, with tol of slack?"""
    return project_square(line.theta, sq).contains(line.t, tol=tol)


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
    identity = Similarity(ratio=1.0, angle=0.0, reflect=False, translation=(0.0, 0.0))
    front: list[tuple[Word, Similarity]] = [((), identity)]
    if not line_square_intersects(line, map_square(identity), tol=_SQUARE_TOL):
        front = []
    counts = [len(front)]
    for _ in range(max_depth):
        if not front:
            break
        nxt = []
        for w, g in front:
            for a in ifs.alphabet:
                child = compose(g, ifs.maps[a])
                if line_square_intersects(line, map_square(child), tol=_SQUARE_TOL):
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
