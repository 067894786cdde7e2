"""Reference stopping-word enumerators: the depth-first walkers that the
batched enumerator `ifsproj.ifs.stopping_batches` replaced, kept as test
oracles. Both walk the prefix tree one node at a time and sort the leaves
on tuple keys afterwards; they are also the test side's source of the
words themselves, which `stopping_batches` does not keep. `word_ratio` is the
ratio of one word, one letter at a time. `measured_c9` is the comparability
constant from the gathered walk's ratios, as `ifsproj.measure.measured_c9`
computed it before it read `ifsproj.ifs.stopping_ratios`.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ifsproj.errors import BudgetExceeded
from ifsproj.ifs import IfsSpec, MapArrays
from ifsproj.measure import stopping_cylinders as gathered_cylinders
from map_oracle import Word, as_word


def word_ratio(ifs: IfsSpec, w: str | Iterable[str]) -> float:
    r = 1.0
    for a in as_word(w):
        r *= ifs.maps[a].ratio
    return r


def stopping_words(ifs: IfsSpec, rho: float, budget: int | None = None) -> list[Word]:
    """Minimal words w with ratio(w) <= rho < ratio(parent of w).

    The result is a prefix-free cover of the symbol space, enumerated in
    depth-first lexicographic order (alphabet order as given). With equal
    ratios r this is just all words of the first length n with r^n <= rho.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    out: list[Word] = []
    # stack of (word, ratio) nodes still to expand, ratio > rho for each
    stack: list[tuple[Word, float]] = [((), 1.0)]
    while stack:
        w, r = stack.pop()
        for a in reversed(ifs.alphabet):
            ra = r * ifs.maps[a].ratio
            wa = w + (a,)
            if ra <= rho:
                out.append(wa)
                if budget is not None and len(out) > budget:
                    raise BudgetExceeded(
                        f"stopping word count exceeded budget {budget}", partial=out
                    )
            else:
                stack.append((wa, ra))
    # Leaves are emitted as soon as their parent expands, which breaks global
    # ordering once branches stop at different depths; sort by alphabet rank.
    rank = {a: i for i, a in enumerate(ifs.alphabet)}
    out.sort(key=lambda w: tuple(rank[a] for a in w))
    return out


def stopping_maps(
    ifs: IfsSpec, rho: float, budget: int | None = None
) -> tuple[list[Word], MapArrays]:
    """Stopping words at scale rho with their composed maps f_w.

    Same word set as stopping_words, but walks the prefix tree carrying
    the affine data numerically so large covers stay cheap. Output is sorted
    in lexicographic (alphabet-rank) order.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    letters = []
    for a in ifs.alphabet:
        f = ifs.maps[a]
        letters.append((a, f.ratio, f.angle, f.reflect, f.translation[0], f.translation[1]))

    words: list[Word] = []
    rows = []
    # node: (word, r, angle, reflect, tx, ty) for the composed map so far
    stack = [((), 1.0, 0.0, False, 0.0, 0.0)]
    while stack:
        w, r, ang, refl, tx, ty = stack.pop()
        cos_a, sin_a = math.cos(ang), math.sin(ang)
        sgn = -1.0 if refl else 1.0
        for a, rl, al, ml, lx, ly in letters:
            # compose (r, ang, refl, t) with the letter map
            px, py = lx, sgn * ly
            ntx = r * (cos_a * px - sin_a * py) + tx
            nty = r * (sin_a * px + cos_a * py) + ty
            nr = r * rl
            nang = ang + sgn * al
            nrefl = refl ^ ml
            nw = w + (a,)
            if nr <= rho:
                words.append(nw)
                rows.append((nr, nang, nrefl, ntx, nty))
                if budget is not None and len(words) > budget:
                    raise BudgetExceeded(
                        f"budget exceeded: {len(words)} stopping words > {budget}",
                        partial=len(words),
                    )
            else:
                stack.append((nw, nr, nang, nrefl, ntx, nty))

    rank = {a: i for i, a in enumerate(ifs.alphabet)}
    order = sorted(range(len(words)), key=lambda i: tuple(rank[a] for a in words[i]))
    words = [words[i] for i in order]
    arr = np.array([rows[i] for i in order], dtype=float)
    maps = MapArrays(arr[:, 0], arr[:, 1], arr[:, 2] > 0.5, (arr[:, 3], arr[:, 4]))
    return words, maps


def stopping_cylinders(
    ifs: IfsSpec,
    rho: float,
    budget: int | None = None,
    point: tuple[float, float] = (0.5, 0.5),
) -> tuple[np.ndarray, np.ndarray]:
    """The points f_w(point) and ratios of stopping_maps' words, in their
    order. The default point is the square center; passing an
    attractor point makes every f_w(point) an attractor point too.
    """
    _, maps = stopping_maps(ifs, rho, budget)
    ratios = maps.ratio
    tx, ty = maps.translation
    px, py = point
    cos_v, sin_v = np.cos(maps.angle), np.sin(maps.angle)
    sy = np.where(maps.reflect, -py, py)
    cx = ratios * (cos_v * px - sin_v * sy) + tx
    cy = ratios * (sin_v * px + cos_v * sy) + ty
    return np.column_stack([cx, cy]), ratios


def measured_c9(ifs: IfsSpec, rho: float, budget: int | None = None) -> float:
    """The sandwich constant over the distinct ratios of every stopping word
    at scale sqrt(rho), gathered by `ifsproj.measure.stopping_cylinders`."""
    d = ifs.dimension
    half = math.sqrt(rho)
    c9 = 1.0
    for r in np.unique(gathered_cylinders(ifs, half, budget=budget)[1]).tolist():
        mu = r**d
        c9 = max(c9, mu / rho ** (0.5 * d), rho ** (0.5 * d) / mu)
        c9 = max(c9, math.sqrt(2.0) * r / half, half / r)
    return c9
