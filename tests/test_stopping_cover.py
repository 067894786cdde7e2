"""The level-by-level stopping-word enumerator against the depth-first
walkers it replaced (tests/stopping_oracle.py): same words in the same order,
and bit-identical centers, ratios and masses."""

import math

import numpy as np
import pytest
import stopping_oracle as oracle

from ifsproj import (
    BudgetExceeded,
    Similarity,
    build_perturbed_ifs,
    draw_assignment,
    get_builtin,
    make_ifs,
    measured_c9,
    stopping_cover,
    stopping_cylinders,
)


def _mixed_system():
    """Three maps with ratios 1/2, 0.3 and 0.4: b turns by 0.4 rad, c
    reflects, so words stop at different depths and interleave, and no
    ratio or rotation is exact enough to hide a change of operation order."""
    maps = {
        "a": Similarity(0.5, 0.0, False, (0.0, 0.0)),
        "b": Similarity(0.3, 0.4, False, (0.7, 0.0)),
        "c": Similarity(0.4, 0.0, True, (0.55, 0.95)),
    }
    return make_ifs(maps)


def _perturbed_four_corner():
    ifs = get_builtin("four_corner")
    omega = draw_assignment(np.random.default_rng(1), ifs, 0.3)
    return build_perturbed_ifs(ifs, omega, 8.0, 2.0**-7)


SYSTEMS = {
    "four_corner": lambda: get_builtin("four_corner"),
    "sierpinski": lambda: get_builtin("sierpinski"),
    "cantor_dust": lambda: get_builtin("cantor_dust"),
    "mixed": _mixed_system,
    "perturbed_four_corner": _perturbed_four_corner,
}
CASES = [(name, rho) for name in SYSTEMS for rho in (0.3, 0.1, 0.01, 0.004)]


def _assert_same(new, old):
    words, centers, ratios, masses = new
    assert len(words) == len(old[0])
    assert list(words) == old[0]
    assert [words[i] for i in range(len(words))] == old[0]
    for a, b in zip((centers, ratios, masses), old[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name,rho", CASES)
def test_cover_matches_depth_first_walkers(name, rho):
    ifs = SYSTEMS[name]()
    _assert_same(stopping_cylinders(ifs, rho), oracle.stopping_cylinders(ifs, rho))
    point = (0.1234, 0.7771)
    _assert_same(
        stopping_cylinders(ifs, rho, point=point),
        oracle.stopping_cylinders(ifs, rho, point=point),
    )
    assert list(stopping_cover(ifs, rho).words) == oracle.stopping_words(ifs, rho)


def test_mixed_system_interleaves_depths():
    ifs = _mixed_system()
    words = list(stopping_cover(ifs, 0.01).words)
    assert len({len(w) for w in words}) > 2
    assert words == sorted(words)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_ratios_are_left_to_right_products(name):
    ifs = SYSTEMS[name]()
    cover = stopping_cover(ifs, 0.01)
    assert cover.ratio.tolist() == [oracle.word_ratio(ifs, w) for w in cover.words]
    half = math.sqrt(0.01)
    c9 = 1.0
    for w in oracle.stopping_words(ifs, half):
        r = oracle.word_ratio(ifs, w)
        mu = r**ifs.dimension
        c9 = max(c9, mu / 0.01 ** (0.5 * ifs.dimension), 0.01 ** (0.5 * ifs.dimension) / mu)
        c9 = max(c9, math.sqrt(2.0) * r / half, half / r)
    assert measured_c9(ifs, 0.01) == c9


@pytest.mark.parametrize("name,rho", [("four_corner", 0.01), ("mixed", 0.01), ("mixed", 0.003)])
def test_budget_raises_exactly_when_count_exceeds_it(name, rho):
    ifs = SYSTEMS[name]()
    count = len(oracle.stopping_words(ifs, rho))
    walkers = (stopping_cylinders, oracle.stopping_words, oracle.stopping_cylinders)
    for enumerate_words in walkers:
        enumerate_words(ifs, rho, budget=count)
        with pytest.raises(BudgetExceeded):
            enumerate_words(ifs, rho, budget=count - 1)
    assert len(stopping_cover(ifs, rho, budget=count).words) == count
    with pytest.raises(BudgetExceeded) as ei:
        stopping_cover(ifs, rho, budget=count - 1)
    # the lower bound that tripped the check is the full count at the last level
    assert ei.value.partial == count


def test_word_sequence_reads():
    ifs = _mixed_system()
    words = stopping_cylinders(ifs, 0.1)[0]
    expected = oracle.stopping_words(ifs, 0.1)
    assert words[-1] == expected[-1]
    assert words[2:7] == expected[2:7]
    assert words[::-3] == expected[::-3]
    assert expected[4] in words
    with pytest.raises(IndexError):
        words[len(expected)]


def test_rho_out_of_range():
    for rho in (0.0, 1.0):
        with pytest.raises(ValueError):
            stopping_cover(get_builtin("sierpinski"), rho)
