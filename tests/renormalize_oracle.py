"""Scalar renormalization of single lines, kept as test oracles for
`ifsproj.lines.renormalize_arrays`, the closed form the package uses.

`renormalize_map` is the closed form on one `Line`. The two reference routes
do not follow the closed form's sign bookkeeping: the carrier route folds
the angle and then projects the mapped carrier point, and the two-point route
takes the direction out of atan2.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ifsproj.ifs import IfsSpec, Similarity, apply_similarity, compose_word
from ifsproj.lines import Line, canonical_angle, renormalize_arrays


def carrier_point(line: Line) -> np.ndarray:
    """The point of the line nearest the origin."""
    return line.t * np.array([-math.sin(line.theta), math.cos(line.theta)])


def direction(line: Line) -> np.ndarray:
    return np.array([math.cos(line.theta), math.sin(line.theta)])


def project_point(theta: float, p) -> float | np.ndarray:
    """Signed offset of p along nu(theta); accepts a point or (n, 2) array."""
    pts = np.asarray(p, dtype=float)
    out = -pts[..., 0] * math.sin(theta) + pts[..., 1] * math.cos(theta)
    if out.ndim == 0:
        return float(out)
    return out


def line_from_two_points(p, q, tol: float = 1e-12) -> Line:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    n = float(np.hypot(d[0], d[1]))
    if n < tol:
        raise ValueError("points are too close to define a line")
    theta_raw = math.atan2(d[1], d[0])
    return Line(theta_raw, float(project_point(theta_raw % math.pi, p)))


def invert_map(f: Similarity) -> Similarity:
    """The inverse similarity f^{-1} (expanding when f contracts).

    For A = r R(a) M^m one has A^{-1} = (1/r) R(-a) without reflection and
    A^{-1} = (1/r) R(a) M with it, so the inverse stays in the same family.
    """
    angle = f.angle if f.reflect else -f.angle
    inv_lin = Similarity(1.0 / f.ratio, angle, f.reflect, (0.0, 0.0))
    tau = -apply_similarity(inv_lin, np.asarray(f.translation))
    return Similarity(1.0 / f.ratio, angle, f.reflect, (tau[0], tau[1]))


def renormalize_map(f: Similarity, line: Line) -> Line:
    """The image of a line under f^{-1}, for a forward similarity f."""
    theta, t = renormalize_arrays(f, np.array([line.theta]), np.array([line.t]))
    return Line(float(theta[0]), float(t[0]))


def renormalize_via_carrier(f: Similarity, line: Line) -> Line:
    """The image of a line under f^{-1}, for a forward similarity f.

    The angle comes from folding theta - angle (or angle - theta when f
    reflects) into [0, pi); the offset is then recomputed by projecting the
    mapped carrier point, which avoids tracking sign flips symbolically.
    """
    theta_raw = f.angle - line.theta if f.reflect else line.theta - f.angle
    theta_p, _ = canonical_angle(theta_raw)
    p = apply_similarity(invert_map(f), carrier_point(line))
    return Line(theta_p, float(project_point(theta_p, p)))


def renormalize_via_points(ifs: IfsSpec, w: str | Iterable[str], line: Line) -> Line:
    """T_w by pushing two points of the line through f_w^{-1}."""
    g = invert_map(compose_word(ifs, w))
    p = carrier_point(line)
    q = p + direction(line)
    return line_from_two_points(apply_similarity(g, p), apply_similarity(g, q))
