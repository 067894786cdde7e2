"""Crowding count of projected cylinder centers, kept as a test oracle:
criterion 6 cross-checks the good/bad word split against an all-pairs count
and bounds the number of bad words by the configured-constant cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ifsproj.ifs import IfsSpec
from map_oracle import Word, apply, compose_word
from renormalize_oracle import project_point


@dataclass(frozen=True)
class WordClassification:
    """Good/bad split of a word family by projected-center crowding."""

    centers: np.ndarray
    good: np.ndarray
    radius: float
    count_cap: float

    @property
    def n_bad(self) -> int:
        return int(np.count_nonzero(~self.good))


def _assert_prefix_free(words: Sequence[Word]):
    if not words:
        raise ValueError("word list is empty")
    for u, v in zip(sorted(words), sorted(words)[1:]):
        if v[: len(u)] == u:
            raise ValueError(f"word list is not prefix-free: {u} prefixes {v}")


def classify_good_words(
    ifs: IfsSpec,
    theta: float,
    words: Sequence[Word],
    rho: float,
    c6: float,
    c9: float,
) -> WordClassification:
    """A word is good when at most c6^-1 rho^-(d-1)/2 centers crowd within
    c9^-1 rho^(1/2) of its projected center (strictly, counting itself).
    Counts come from one sort and two binary searches."""
    _assert_prefix_free(words)
    centers = np.array(
        [project_point(theta, apply(compose_word(ifs, w), (0.5, 0.5))) for w in words]
    )
    radius = math.sqrt(rho) / c9
    cap = (1.0 / c6) * rho ** (-0.5 * (ifs.dimension - 1.0))
    xs = np.sort(centers)
    counts = np.searchsorted(xs, centers + radius, side="left") - np.searchsorted(
        xs, centers - radius, side="right"
    )
    return WordClassification(
        centers=centers,
        good=counts <= cap,
        radius=radius,
        count_cap=cap,
    )


def bad_word_cap(c5: float, c6: float, c9: float, rho: float, d: float) -> float:
    """Configured-constant ceiling for the number of bad words at any good
    direction: 6 c5 c6 c9^3 rho^(-d/2)."""
    return 6.0 * c5 * c6 * c9**3 * rho ** (-0.5 * d)
