"""Reference renormalization routes, kept as test oracles for
`ifsproj.lines.renormalize_arrays`, the closed form the package uses.

Neither follows the closed form's sign bookkeeping: the carrier route folds
the angle and then projects the mapped carrier point, and the two-point route
takes the direction out of atan2.
"""

from __future__ import annotations

from typing import Iterable

from ifsproj.ifs import IfsSpec, Similarity, apply_similarity, compose_word, invert_map
from ifsproj.lines import Line, canonical_angle, line_from_two_points, project_point


def renormalize_via_carrier(f: Similarity, line: Line) -> Line:
    """The image of a line under f^{-1}, for a forward similarity f.

    The angle comes from folding theta - angle (or angle - theta when f
    reflects) into [0, pi); the offset is then recomputed by projecting the
    mapped carrier point, which avoids tracking sign flips symbolically.
    """
    theta_raw = f.angle - line.theta if f.reflect else line.theta - f.angle
    theta_p, _ = canonical_angle(theta_raw)
    p = apply_similarity(invert_map(f), line.carrier_point())
    return Line(theta_p, float(project_point(theta_p, p)))


def renormalize_via_points(ifs: IfsSpec, w: str | Iterable[str], line: Line) -> Line:
    """T_w by pushing two points of the line through f_w^{-1}."""
    g = invert_map(compose_word(ifs, w))
    p = line.carrier_point()
    q = p + line.direction()
    return line_from_two_points(apply_similarity(g, p), apply_similarity(g, q))
