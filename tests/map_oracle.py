"""Scalar references for `ifsproj.ifs.MapArrays`: maps applied, composed
and turned one at a time, with the same elementwise formulas, so that the
array routes can be held to them bit for bit. A scalar map is a `MapArrays`
of Python scalars; a `Similarity` serves as one too. Composed and turned
angles are not reduced mod 2 pi, as in `MapArrays`.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable

import numpy as np

from ifsproj.ifs import IfsSpec, MapArrays, Similarity, make_ifs

Word = tuple[str, ...]

IDENTITY = MapArrays(1.0, 0.0, False, (0.0, 0.0))


def as_word(w: str | Iterable[str]) -> Word:
    """Normalize a word given as 'ab' or ('a', 'b') to a tuple of symbols."""
    return tuple(w)


def apply(f, p) -> np.ndarray:
    """f(p) for a point p = (x, y) or an array of points with last axis (x, y)."""
    pts = np.asarray(p, dtype=float)
    px, py = pts[..., 0], pts[..., 1]
    c, s = math.cos(f.angle), math.sin(f.angle)
    sy = -py if f.reflect else py
    tx, ty = f.translation
    return np.stack([f.ratio * (c * px - s * sy) + tx, f.ratio * (s * px + c * sy) + ty], axis=-1)


def square_corners(f) -> np.ndarray:
    """The corners of the square f(I), images of (0,0), (1,0), (1,1), (0,1)."""
    return apply(f, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def compose(f, g) -> MapArrays:
    """The map f o g."""
    c, s = math.cos(f.angle), math.sin(f.angle)
    sgn = -1.0 if f.reflect else 1.0
    gx, gy = g.translation
    py = sgn * gy
    tx, ty = f.translation
    return MapArrays(
        f.ratio * g.ratio,
        f.angle + sgn * g.angle,
        bool(f.reflect) ^ bool(g.reflect),
        (f.ratio * (c * gx - s * py) + tx, f.ratio * (s * gx + c * py) + ty),
    )


def compose_word(ifs: IfsSpec, w: str | Iterable[str]) -> MapArrays:
    """f_w = f_{w_1} o ... o f_{w_k}; the empty word gives the identity."""
    f = IDENTITY
    for a in as_word(w):
        f = compose(f, ifs.maps[a])
    return f


def turn(f, phi: float, shift: tuple[float, float] = (0.0, 0.0)) -> MapArrays:
    """f turned by phi about the center of its square f(I), then moved by shift."""
    cx, cy = (float(v) for v in apply(f, (0.5, 0.5)))
    tx, ty = f.translation
    dx, dy = tx - cx, ty - cy
    cp, sp = math.cos(phi), math.sin(phi)
    x = cp * dx - sp * dy + cx + shift[0]
    y = sp * dx + cp * dy + cy + shift[1]
    return MapArrays(f.ratio, f.angle + phi, f.reflect, (x, y))


def perturbed_maps(ifs: IfsSpec, omega: np.ndarray, c1: float, rho: float) -> list:
    """The letter maps of ifs under one assignment, a (part_one, 3) omega
    row, in alphabet order: each part_one letter turned by its phi and
    moved by gamma * c1 * rho, reading the row's entry j as part_one[j]'s."""
    maps = []
    for a in ifs.alphabet:
        f = ifs.maps[a]
        if a in ifs.part_one:
            phi, gx, gy = (float(v) for v in omega[ifs.part_one.index(a)])
            f = turn(f, phi, (gx * (c1 * rho), gy * (c1 * rho)))
        maps.append(f)
    return maps


def draw_assignment(rng: np.random.Generator, ifs: IfsSpec, epsilon: float) -> np.ndarray:
    """The uniform product draw one number at a time, as a (part_one, 3)
    omega row: rng.uniform for phi on (-epsilon, epsilon), then for gamma
    on (-1, 1)^2, for each part_one symbol in part_one order;
    `ifsproj.search.draw_omegas` draws the same doubles as arrays."""
    row = []
    for _ in ifs.part_one:
        phi = rng.uniform(-epsilon, epsilon)
        gx, gy = rng.uniform(-1.0, 1.0, size=2)
        row.append((float(phi), float(gx), float(gy)))
    return np.array(row)


def turned_four_corner() -> IfsSpec:
    """The turned and reflected four-corner set of ratio 1/3 that
    `scripts/compare_outputs.py` runs as its `*-turned` cases."""
    third = 1.0 / 3.0
    return make_ifs(
        {
            "a": Similarity(third, math.pi / 2, False, (third, 0.0)),
            "b": Similarity(third, 0.0, False, (2 * third, 0.0)),
            "c": Similarity(third, 0.0, False, (0.0, 2 * third)),
            "d": Similarity(third, 0.0, True, (2 * third, 1.0)),
        }
    )


def two_ratio_system() -> IfsSpec:
    """Ratios 1/2 and 0.3, so words of one length end at distinct ratios."""
    return make_ifs(
        {
            "a": Similarity(0.5, 0.0, False, (0.0, 0.0)),
            "b": Similarity(0.3, 0.0, False, (0.7, 0.7)),
        }
    )


def two_letter_words(alphabet, letters) -> list[tuple[Word, MapArrays]]:
    """(word, f_{b1} o f_{b2}) for every two-letter word over the letter
    maps (given in alphabet order), in alphabet-product order."""
    maps = dict(zip(alphabet, letters))
    return [((b1, b2), compose(maps[b1], maps[b2])) for b1, b2 in product(alphabet, repeat=2)]


def letters(ifs: IfsSpec) -> list:
    """The letter maps of ifs, in alphabet order."""
    return [ifs.maps[a] for a in ifs.alphabet]
