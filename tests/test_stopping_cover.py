"""The batched stopping-word walk against the depth-first walkers it
replaced (tests/stopping_oracle.py): bit-identical maps in the order of the
walkers' words, and bit-identical points and ratios, at the default batch
size and at batch sizes small enough to split every level."""

import math
from collections import Counter

import numpy as np
import pytest
import stopping_oracle as oracle
from map_oracle import draw_assignment, turned_four_corner

import ifsproj.ifs
from ifsproj import (
    BudgetExceeded,
    MapArrays,
    Similarity,
    attractor_points,
    build_perturbed_ifs,
    get_builtin,
    make_ifs,
    measured_c9,
    stopping_cylinders,
)
from ifsproj.ifs import stopping_batches, stopping_ratios


def stopping_cover(ifs, rho, budget=None) -> MapArrays:
    """The stopping words' maps, every batch of `stopping_batches` joined
    into one `MapArrays`."""
    _, batches = stopping_batches(ifs, rho, budget)
    r, ang, refl, tx, ty = (np.concatenate(f) for f in zip(*(m.fields() for m in batches)))
    return MapArrays(r, ang, refl, (tx, ty))


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


def _two_ratio_system():
    """Ratios 1/2 and 0.3, so words of one length end at distinct ratios."""
    maps = {
        "a": Similarity(0.5, 0.0, False, (0.0, 0.0)),
        "b": Similarity(0.3, 0.0, False, (0.7, 0.7)),
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
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name,rho", CASES)
def test_cover_matches_depth_first_walkers(name, rho):
    ifs = SYSTEMS[name]()
    words, maps = oracle.stopping_maps(ifs, rho)
    assert words == oracle.stopping_words(ifs, rho)
    _assert_same(stopping_cover(ifs, rho).fields(), maps.fields())
    _assert_same(stopping_cylinders(ifs, rho), oracle.stopping_cylinders(ifs, rho))
    point = (0.1234, 0.7771)
    _assert_same(
        stopping_cylinders(ifs, rho, point=point),
        oracle.stopping_cylinders(ifs, rho, point=point),
    )
    points, ratios = stopping_cylinders(ifs, rho, point=point, with_ratios=False)
    assert ratios is None
    _assert_same([points], oracle.stopping_cylinders(ifs, rho, point=point)[:1])


def test_mixed_system_interleaves_depths():
    ifs = _mixed_system()
    words = oracle.stopping_words(ifs, 0.01)
    assert len({len(w) for w in words}) > 2
    assert words == sorted(words)
    assert len(stopping_cylinders(ifs, 0.01)[1]) == len(words)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_ratios_are_left_to_right_products(name):
    ifs = SYSTEMS[name]()
    ratios = stopping_cylinders(ifs, 0.01)[1]
    assert ratios.tolist() == [oracle.word_ratio(ifs, w) for w in oracle.stopping_words(ifs, 0.01)]
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
    walkers = (stopping_cylinders, oracle.stopping_words, oracle.stopping_maps)
    for enumerate_words in walkers:
        enumerate_words(ifs, rho, budget=count)
        with pytest.raises(BudgetExceeded):
            enumerate_words(ifs, rho, budget=count - 1)
    assert len(stopping_cover(ifs, rho, budget=count).ratio) == count
    with pytest.raises(BudgetExceeded) as ei:
        stopping_cover(ifs, rho, budget=count - 1)
    # the lower bound that tripped the check is the full count at the last level
    assert ei.value.partial == count


BATCHES = (1, 3, 7, 64)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("name", list(SYSTEMS))
def test_cover_does_not_depend_on_batch_size(name, batch, monkeypatch):
    ifs = SYSTEMS[name]()
    monkeypatch.setattr(ifsproj.ifs, "_BATCH", batch)
    for rho in (0.3, 0.05, 0.01):
        _, maps = oracle.stopping_maps(ifs, rho)
        _assert_same(stopping_cover(ifs, rho).fields(), maps.fields())
        point = (0.1234, 0.7771)
        _assert_same(
            stopping_cylinders(ifs, rho, point=point),
            oracle.stopping_cylinders(ifs, rho, point=point),
        )


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("name,rho", [("four_corner", 0.01), ("mixed", 0.003)])
def test_budget_at_count_minus_one_reports_the_count(name, rho, batch, monkeypatch):
    ifs = SYSTEMS[name]()
    monkeypatch.setattr(ifsproj.ifs, "_BATCH", batch)
    count = len(oracle.stopping_words(ifs, rho))
    for enumerate_words in (stopping_cover, stopping_cylinders):
        # the first field: the ratios of the cover, the points of the cylinders
        assert len(enumerate_words(ifs, rho, budget=count)[0]) == count
        with pytest.raises(BudgetExceeded) as ei:
            enumerate_words(ifs, rho, budget=count - 1)
        assert ei.value.partial == count


def test_attractor_points_hold_no_cover_sized_scratch(traced_peak):
    """attractor_points takes the points of stopping_cylinders without the
    ratios, so no ratio array is filled; the walk itself may add at most
    half the points' bytes."""
    ifs = get_builtin("four_corner")
    attractor_points(ifs, 2.0**-5)  # imports and caches stay outside the trace
    pts, peak = traced_peak(lambda: attractor_points(ifs, 2.0**-9))
    assert len(pts) == 4**9
    assert peak <= 1.5 * pts.nbytes


def test_budget_overrun_raises_before_composing_maps(traced_peak):
    ifs = get_builtin("four_corner")

    def overrun():
        with pytest.raises(BudgetExceeded) as ei:
            stopping_cylinders(ifs, 1e-12, budget=6_000_000)
        return ei.value.partial

    partial, peak = traced_peak(overrun)
    assert 6_000_000 < partial <= 4**40
    assert peak < 32 * 2**20


RATIO_SYSTEMS = {**SYSTEMS, "turned": turned_four_corner, "two_ratios": _two_ratio_system}


@pytest.mark.parametrize("name", list(RATIO_SYSTEMS))
def test_stopping_ratios_count_the_walked_ratios(name):
    """`stopping_ratios` holds every ratio of the walked cover
    (`stopping_cylinders`), bit for bit, with its number of words, and
    raises BudgetExceeded with the walk's partial count at every budget
    below the cover."""
    ifs = RATIO_SYSTEMS[name]()
    for rho in (0.3, 0.05, 0.004):
        ratios = stopping_cylinders(ifs, rho)[1]
        assert stopping_ratios(ifs, rho) == Counter(ratios.tolist())
        assert stopping_ratios(ifs, rho, budget=len(ratios)) == Counter(ratios.tolist())
        for budget in {1, len(ratios) // 3, len(ratios) - 1} - {0}:
            with pytest.raises(BudgetExceeded) as walked:
                stopping_cylinders(ifs, rho, budget=budget)
            with pytest.raises(BudgetExceeded) as counted:
                stopping_ratios(ifs, rho, budget=budget)
            # a lower bound on the count past the budget, as the walk reports it
            assert budget < counted.value.partial == walked.value.partial <= len(ratios)


@pytest.mark.parametrize("name", list(RATIO_SYSTEMS))
def test_measured_c9_matches_the_gathered_ratios(name):
    """`measured_c9` reads the cover's ratios from `stopping_ratios`; it
    equals, bit for bit, the constant over the walk's gathered ratios
    (tests/stopping_oracle.py), and raises at the same budget."""
    ifs = RATIO_SYSTEMS[name]()
    for rho in (0.3, 0.01, 1e-4):
        assert measured_c9(ifs, rho) == oracle.measured_c9(ifs, rho)
    count = len(stopping_cylinders(ifs, 0.01)[1])
    with pytest.raises(BudgetExceeded) as ei:
        measured_c9(ifs, 1e-4, budget=count - 1)
    with pytest.raises(BudgetExceeded) as oracle_ei:
        oracle.measured_c9(ifs, 1e-4, budget=count - 1)
    assert ei.value.partial == oracle_ei.value.partial


def test_rho_out_of_range():
    for rho in (0.0, 1.0):
        with pytest.raises(ValueError):
            stopping_cylinders(get_builtin("sierpinski"), rho)
        with pytest.raises(ValueError):
            stopping_ratios(get_builtin("sierpinski"), rho)
