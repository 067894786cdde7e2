import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsproj import (
    BudgetExceeded,
    ConfigError,
    IfsSpec,
    RunConfig,
    Similarity,
    build_perturbed_ifs,
    check_osc_unit_square,
    epsilon_distance,
    get_builtin,
    ifs_from_json_dict,
    make_ifs,
    similarity_dimension,
    stopping_cylinders,
)
from ifsproj.ifs import MapArrays, _outside
from map_oracle import apply, compose_word, square_corners
from renormalize_oracle import invert_map
from stopping_oracle import stopping_words, word_ratio

similarities = st.builds(
    Similarity,
    ratio=st.floats(0.1, 0.9),
    angle=st.floats(-7.0, 7.0),
    reflect=st.booleans(),
    translation=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
points = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


def _images(f, p):
    """f(p) through `MapArrays.images`, for one map and one point."""
    return MapArrays.of([f]).images(p)[0]


def test_apply_rotation():
    f = Similarity(0.5, math.pi / 2, False, (0.25, 0.0))
    assert np.allclose(_images(f, (1.0, 0.0)), (0.25, 0.5))


def test_apply_reflection_flips_y_before_rotation():
    f = Similarity(1.0, 0.0, True, (0.0, 0.0))
    assert np.allclose(_images(f, (0.2, 0.7)), (0.2, -0.7))
    g = Similarity(1.0, math.pi / 2, True, (0.0, 0.0))
    # rotate the reflected point
    assert np.allclose(_images(g, (0.2, 0.7)), (0.7, 0.2))


@given(similarities, similarities, points)
@settings(max_examples=150, deadline=None)
def test_compose_matches_pointwise(f, g, p):
    h = MapArrays.of([f]).compose(MapArrays.of([g]))
    assert np.allclose(h.images(p)[0], apply(f, apply(g, p)), atol=1e-9)


@given(similarities, points)
@settings(max_examples=150, deadline=None)
def test_invert_roundtrip(f, p):
    assert np.allclose(apply(invert_map(f), apply(f, p)), p, atol=1e-8)


def test_compose_parameters():
    f = Similarity(0.5, 0.3, True, (0.1, 0.2))
    g = Similarity(0.4, 0.5, True, (0.0, 0.3))
    h = MapArrays.of([f]).compose(MapArrays.of([g])).take(0)
    assert h.ratio == pytest.approx(0.2)
    # reflection conjugates the inner angle, which is not reduced mod 2 pi
    assert h.angle == pytest.approx(0.3 - 0.5)
    assert not h.reflect
    assert np.allclose(h.translation, apply(f, (0.0, 0.3)))


def test_dimension_sierpinski():
    d = similarity_dimension([0.5, 0.5, 0.5])
    assert abs(d - math.log(3) / math.log(2)) < 1e-10


def test_dimension_needs_two_ratios():
    with pytest.raises(ValueError):
        similarity_dimension([0.5])
    with pytest.raises(ValueError):
        similarity_dimension([0.5, 1.2])


@given(st.lists(st.floats(0.05, 0.75), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_dimension_solves_moran_equation(ratios):
    d = similarity_dimension(ratios)
    assert abs(math.fsum(r**d for r in ratios) - 1.0) < 1e-12


def test_epsilon_distance_shift():
    base = get_builtin("sierpinski")
    maps = dict(base.maps)
    f = maps["a"]
    maps["a"] = Similarity(f.ratio, f.angle, f.reflect, (f.translation[0] + 0.01, f.translation[1]))
    other = make_ifs(maps, part_one=base.part_one, alphabet=base.alphabet)
    # sup deviation 0.01 normalized by the ratio 1/2
    assert epsilon_distance(base, other) == pytest.approx(0.02)


def test_epsilon_distance_requires_same_ratios():
    base = get_builtin("sierpinski")
    maps = dict(base.maps)
    f = maps["a"]
    maps["a"] = Similarity(0.4, f.angle, f.reflect, f.translation)
    other = make_ifs(maps, part_one=base.part_one, alphabet=base.alphabet)
    with pytest.raises(ValueError):
        epsilon_distance(base, other)


def test_osc_builtins():
    for name in ("sierpinski", "four_corner", "cantor_dust"):
        assert check_osc_unit_square(get_builtin(name)).ok


def test_osc_detects_overlap():
    maps = {
        "a": Similarity(0.5, 0.0, False, (0.0, 0.0)),
        "b": Similarity(0.5, 0.0, False, (0.1, 0.0)),
    }
    rep = check_osc_unit_square(make_ifs(maps))
    assert not rep.ok
    assert ("a", "b") in rep.overlapping_pairs


def test_stopping_words_counts():
    # r = 1/2 and rho = 2^-8: every word stops at depth exactly 8
    rho = 4.0**-4
    assert len(stopping_cylinders(get_builtin("four_corner"), rho)[1]) == 4**8
    assert len(stopping_cylinders(get_builtin("sierpinski"), rho)[1]) == 3**8


def test_stopping_words_prefix_free_and_sorted():
    # the oracle's words, against which test_stopping_cover checks the cover's maps
    words = stopping_words(get_builtin("sierpinski"), 0.1)
    as_str = ["".join(w) for w in words]
    assert as_str == sorted(as_str)
    ws = set(as_str)
    for w in as_str:
        for k in range(1, len(w)):
            assert w[:k] not in ws


def test_stopping_words_budget():
    with pytest.raises(BudgetExceeded) as ei:
        stopping_cylinders(get_builtin("four_corner"), 4.0**-4, budget=100)
    assert ei.value.partial is not None


def test_cylinder_square_matches_word_map():
    """The square f_ab(I) as `MapArrays` composes and maps it: the corners
    of the oracle's word map, bit for bit, with sides of the word's ratio."""
    ifs = get_builtin("sierpinski")
    letters = ifs.letter_maps()
    unit = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    corners = letters.take([0]).compose(letters.take([1])).images(unit)[0]
    f = compose_word(ifs, "ab")
    assert np.array_equal(corners, square_corners(f))
    side = np.hypot(*(corners[1] - corners[0]))
    assert side == pytest.approx(word_ratio(ifs, "ab"))
    assert np.allclose(corners.mean(axis=0), apply(f, (0.5, 0.5)))


def test_make_ifs_containment():
    """make_ifs rejects a map that sends I outside itself. A perturbed
    system may do so: `build_perturbed_ifs` builds its spec without the
    check and emits no Python warning, and `_outside`, the test make_ifs
    runs, names the maps for the CLI's note."""
    maps = {
        "a": Similarity(0.5, 0.0, False, (0.9, 0.0)),
        "b": Similarity(0.5, 0.0, False, (0.0, 0.0)),
    }
    with pytest.raises(ConfigError, match=r"^maps: \['a'\] send the unit square outside itself"):
        make_ifs(maps)
    assert _outside(IfsSpec(("a", "b"), maps, ("a",), ("b",))) == ["a"]
    four = get_builtin("four_corner")
    assert _outside(four) == []
    omega = np.array([[0.2, 0.0, 0.0], [0.0, 0.0, 0.0]])  # turns a's square past I
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perturbed = build_perturbed_ifs(four, omega, 8.0, 0.05)
    assert _outside(perturbed) == ["a"]
    assert (perturbed.part_one, perturbed.part_two) == (four.part_one, four.part_two)


def test_ifs_json_errors(tmp_path):
    with pytest.raises(ConfigError, match="maps: missing symbol 'c'"):
        ifs_from_json_dict(
            {
                "alphabet": ["a", "b", "c"],
                "maps": {
                    "a": {"r": 0.5, "tx": 0, "ty": 0},
                    "b": {"r": 0.5, "tx": 0.5, "ty": 0},
                },
            }
        )
    with pytest.raises(ConfigError, match="alphabet: missing"):
        ifs_from_json_dict({"maps": {}})
    p = tmp_path / "ifs.json"
    p.write_text(
        json.dumps(
            {
                "alphabet": ["a", "b"],
                "maps": {
                    "a": {"r": 0.5, "tx": 0, "ty": 0},
                    "b": {"r": 0.5, "tx": 0.5, "ty": 0.5},
                },
            }
        )
    )
    ifs = RunConfig(ifs=str(p)).load_ifs_spec()
    assert ifs.alphabet == ("a", "b")
    assert ifs.part_one == ("a",)  # default partition takes the first half
