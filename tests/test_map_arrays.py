"""`MapArrays`, the one arithmetic on maps, against the scalar references of
tests/map_oracle.py: applied, composed and perturbed maps bit for bit, field
by field and dtype for dtype, and a block of assignments perturbed at once
bit for bit as its assignments one at a time."""

import math

import numpy as np
import pytest

import map_oracle as oracle
from ifsproj import Similarity, build_perturbed_ifs, draw_assignment, get_builtin, make_ifs
from ifsproj.ifs import MapArrays
from ifsproj.recurrence import two_letter_words
from ifsproj.search import _IID_BLOCK, perturbed_letters
from test_recurrence import _turned_system

C1, RHO = 8.0, 2.0**-7


def _four_corner_turned():
    """Ratio 1/3 corners: a turns by a quarter turn, d reflects."""
    third = 1.0 / 3.0
    maps = {
        "a": Similarity(third, math.pi / 2, False, (third, 0.0)),
        "b": Similarity(third, 0.0, False, (2 * third, 0.0)),
        "c": Similarity(third, 0.0, False, (0.0, 2 * third)),
        "d": Similarity(third, 0.0, True, (2 * third, 1.0)),
    }
    return make_ifs(maps)


SYSTEMS = {
    "turned": lambda: _turned_system(("a", "b")),
    "turned_part_one_c": lambda: _turned_system(("c",)),
    "four_corner_turned": _four_corner_turned,
    "sierpinski": lambda: get_builtin("sierpinski"),
}


def _assert_maps_equal(got: MapArrays, want: list):
    """The maps of got, in order, are the scalar maps want, bit for bit."""
    fields = got.fields()
    dtypes = (np.float64, np.float64, np.bool_, np.float64, np.float64)
    ratio, angle, reflect, tx, ty = (
        [f.ratio for f in want],
        [f.angle for f in want],
        [bool(f.reflect) for f in want],
        [f.translation[0] for f in want],
        [f.translation[1] for f in want],
    )
    for field, dtype, values in zip(fields, dtypes, (ratio, angle, reflect, tx, ty)):
        assert field.dtype == dtype
        assert np.array_equal(field.reshape(-1), np.array(values, dtype=dtype))


@pytest.mark.parametrize("system", SYSTEMS)
def test_compose_matches_scalar_oracle(system):
    """Two- and three-letter words: the angles add unreduced, and the
    translations are the oracle's f(g's translation)."""
    ifs = SYSTEMS[system]()
    letters = ifs.letter_maps()
    scalar = oracle.letters(ifs)
    words = two_letter_words(letters)
    want = [g for _, g in oracle.two_letter_words(ifs.alphabet, scalar)]
    _assert_maps_equal(words, want)
    _assert_maps_equal(words.compose(letters), [oracle.compose(g, f) for g in want for f in scalar])


@pytest.mark.parametrize("system", SYSTEMS)
def test_images_match_scalar_oracle(system):
    """The images of points and of I's corners, through the in-place
    one-point route and the broadcasting route alike."""
    ifs = SYSTEMS[system]()
    words = two_letter_words(ifs.letter_maps())
    scalar = [g for _, g in oracle.two_letter_words(ifs.alphabet, oracle.letters(ifs))]
    points = np.array([[0.5, 0.5], [0.0, 0.0], [0.3, -0.7], [1.0, 1.0]])
    many = words.images(points)
    assert many.shape == (len(scalar), len(points), 2)
    for j, p in enumerate(points):
        one = words.images(tuple(p))
        assert np.array_equal(one, many[:, j])
        assert np.array_equal(one, np.array([oracle.apply(g, p) for g in scalar]))


@pytest.mark.parametrize("system", SYSTEMS)
def test_block_perturbation_matches_scalar_oracle(system):
    """40 seeded draws in blocks of _IID_BLOCK, the last one partial: each
    block's letters and two-letter words are the oracle's for each draw."""
    ifs = SYSTEMS[system]()
    rng = np.random.default_rng(11)
    draws = [draw_assignment(rng, ifs, 0.3) for _ in range(40)]
    for first in range(0, len(draws), _IID_BLOCK):
        block = draws[first : first + _IID_BLOCK]
        letters = perturbed_letters(ifs, block, C1, RHO)
        assert letters.ratio.shape == (len(block), len(ifs.alphabet))
        scalar = [oracle.perturbed_maps(ifs, a, C1, RHO) for a in block]
        _assert_maps_equal(letters, [f for maps in scalar for f in maps])
        words = [g for maps in scalar for _, g in oracle.two_letter_words(ifs.alphabet, maps)]
        _assert_maps_equal(two_letter_words(letters), words)
    assert len(block) < _IID_BLOCK


@pytest.mark.parametrize("system", SYSTEMS)
def test_block_equals_one_at_a_time(system):
    """A block of B assignments gives the letters and words of B
    perturbations made one at a time, and the perturbed system's records
    hold those letters (angles reduced mod 2 pi)."""
    ifs = SYSTEMS[system]()
    rng = np.random.default_rng(12)
    block = [draw_assignment(rng, ifs, 0.3) for _ in range(_IID_BLOCK + 3)]
    letters = perturbed_letters(ifs, block, C1, RHO)
    words = two_letter_words(letters)
    for b, assignment in enumerate(block):
        alone = perturbed_letters(ifs, [assignment], C1, RHO)
        for got, want in ((letters.take([b]), alone), (words.take([b]), two_letter_words(alone))):
            for x, y in zip(got.fields(), want.fields()):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        perturbed = build_perturbed_ifs(ifs, assignment, C1, RHO)
        record = perturbed.letter_maps()
        assert np.array_equal(record.translation[0], alone.translation[0][0])
        assert np.array_equal(record.translation[1], alone.translation[1][0])
        assert np.array_equal(record.angle, alone.angle[0] % (2 * math.pi))
