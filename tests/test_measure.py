import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsproj import (
    build_E,
    get_builtin,
    l2_norm_estimate,
    projected_histogram,
    select_c5,
    stopping_cylinders,
)
from crowding_oracle import bad_word_cap, classify_good_words
from map_oracle import apply, compose_word
from stopping_oracle import measured_c9, stopping_words

RHO = 4.0**-4
DELTA = math.sqrt(RHO) / 8.0


def test_stopping_cylinders_four_corner():
    ifs = get_builtin("four_corner")
    centers, ratios = stopping_cylinders(ifs, RHO)
    masses = ratios**ifs.dimension
    assert len(centers) == 4**8
    assert np.all(ratios == 2.0**-8)
    # masses are r^d with d = 2, and they tile exactly
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert centers.min() >= 0.0 and centers.max() <= 1.0


def test_stopping_cylinders_match_word_enumeration():
    ifs = get_builtin("sierpinski")
    centers, ratios = stopping_cylinders(ifs, 0.1)
    words = stopping_words(ifs, 0.1)
    # each center and ratio against the composed map of its word
    maps = [compose_word(ifs, w) for w in words]
    assert np.allclose(centers, [apply(f, (0.5, 0.5)) for f in maps], rtol=0.0, atol=1e-14)
    assert np.allclose(ratios, [f.ratio for f in maps], rtol=1e-14, atol=0.0)


def test_histograms_sum_to_one(rng):
    for name in ("sierpinski", "four_corner", "cantor_dust"):
        ifs = get_builtin(name)
        centers, ratios = stopping_cylinders(ifs, 4.0**-3)
        data = (centers, ratios**ifs.dimension)
        for theta in rng.uniform(0, math.pi, size=12):
            masses = projected_histogram(data, float(theta), math.sqrt(4.0**-3) / 8)
            assert math.fsum(masses.tolist()) == pytest.approx(1.0, abs=1e-9)


def test_four_corner_l2_flat():
    # the full square projects to the uniform density; its L2 norm is 1
    ifs = get_builtin("four_corner")
    centers, ratios = stopping_cylinders(ifs, RHO)
    masses = projected_histogram((centers, ratios**ifs.dimension), 0.0, DELTA)
    assert l2_norm_estimate(masses, DELTA) == pytest.approx(1.0, rel=0.05)


def test_select_c5_threshold():
    l2 = np.array([1.0, 1.0, 2.0, 3.0, 10.0])
    c5 = select_c5(l2, epsilon=1.0)  # exclude strictly less than half
    assert c5 == 3.0  # excludes {3, 10}: 2/5 < 1/2; the next smaller choice hits 3/5
    assert np.count_nonzero(l2 >= c5) / len(l2) < 0.5


def _select_c5_by_scan(l2_values: np.ndarray, epsilon: float) -> float:
    """The threshold by one count over all values for each distinct value
    in turn, ascending, and a value just above the maximum last."""
    vals = np.unique(l2_values)
    n = len(l2_values)
    for c in np.append(vals, np.nextafter(vals[-1], np.inf)):
        if np.count_nonzero(l2_values >= c) / n < epsilon / 2.0:
            return float(c)
    raise AssertionError("unreachable: the last candidate excludes nothing")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0.5, 1.0, 1.0 + 2.0**-52, 2.0, 3.0, 10.0]), min_size=1, max_size=40),
    st.floats(min_value=1e-3, max_value=1.5),
)
def test_select_c5_matches_the_scan(values, epsilon):
    """The sorted search picks the scan's threshold on arrays full of ties,
    neighbouring doubles among them."""
    l2 = np.array(values)
    assert select_c5(l2, epsilon) == _select_c5_by_scan(l2, epsilon)


def test_build_E_shapes_and_exclusion():
    ifs = get_builtin("sierpinski")
    E = build_E(ifs, 64, RHO, DELTA, epsilon=0.3)
    assert len(E.theta_grid) == 64 and len(E.l2) == 64 and len(E.member) == 64
    assert E.excluded_fraction < 0.15  # strictly below epsilon/2


def brute_good(wc) -> np.ndarray:
    """Oracle for classify_good_words' count: every pair of projected
    centers compared directly."""
    gaps = np.abs(wc.centers[:, None] - wc.centers[None, :])
    return np.count_nonzero(gaps < wc.radius, axis=1) <= wc.count_cap


def test_classify_brute_equals_sweep(rng):
    ifs = get_builtin("sierpinski")
    words = stopping_words(ifs, math.sqrt(RHO))
    n_bad = 0
    for theta in rng.uniform(0, math.pi, size=10):
        for c6 in (0.05, 2.0):
            wc = classify_good_words(ifs, float(theta), words, RHO, c6=c6, c9=math.sqrt(2))
            assert np.array_equal(wc.good, brute_good(wc))
            n_bad += wc.n_bad
    assert 0 < n_bad < 20 * len(words)  # both verdicts occur


def test_classify_rejects_non_prefix_free():
    ifs = get_builtin("sierpinski")
    with pytest.raises(ValueError, match="prefix"):
        classify_good_words(ifs, 0.0, [("a",), ("a", "b")], RHO, c6=0.05, c9=math.sqrt(2))


def test_bad_word_cap_formula():
    assert bad_word_cap(1.5, 0.05, math.sqrt(2), RHO, 1.5) == pytest.approx(
        6 * 1.5 * 0.05 * 2**1.5 * RHO**-0.75
    )


def test_measured_c9():
    assert measured_c9(get_builtin("sierpinski"), RHO) == pytest.approx(math.sqrt(2))
    assert measured_c9(get_builtin("cantor_dust"), RHO) == pytest.approx(math.sqrt(2))
