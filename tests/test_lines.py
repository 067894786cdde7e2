import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifsproj import IfsSpec, Similarity, get_builtin, renormalize_arrays
from ifsproj.ifs import MapArrays
from ifsproj.lines import offsets
from certificate_oracle import line_square_intersects, project_square
from map_oracle import apply, compose_word, square_corners
from renormalize_oracle import (
    Line,
    canonical_angle,
    carrier_point,
    direction,
    invert_map,
    line_from_two_points,
    project_point,
    renormalize_map,
    renormalize_via_carrier,
    renormalize_via_points,
)

similarities = st.builds(
    Similarity,
    ratio=st.floats(0.15, 0.9),
    angle=st.floats(-7.0, 7.0),
    reflect=st.booleans(),
    translation=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)
lines = st.builds(Line, theta=st.floats(-9.0, 9.0), t=st.floats(-2.0, 2.0))


def line_close(u: Line, v: Line, tol: float = 1e-9) -> bool:
    """Equality of unoriented lines, allowing the representative to sit on
    either side of the theta wrap."""
    if abs(u.theta - v.theta) < tol and abs(u.t - v.t) < tol:
        return True
    wrap = math.pi - abs(u.theta - v.theta)
    return wrap < tol and abs(u.t + v.t) < tol


def test_canonical_angle():
    assert canonical_angle(0.0) == (0.0, 0)
    th, k = canonical_angle(3 * math.pi / 2)
    assert th == pytest.approx(math.pi / 2) and k == 1
    th, k = canonical_angle(-math.pi / 4)
    assert th == pytest.approx(3 * math.pi / 4) and k == -1
    # the representative never lands on pi itself
    th, k = canonical_angle(math.pi - 1e-18)
    assert 0.0 <= th < math.pi
    # -5e-324 / pi underflows to -0.0, whose floor is 0: the fold still
    # lands in [0, pi), here on 0 itself after the pi edge
    assert canonical_angle(-5e-324) == (0.0, 0)


def test_line_canonicalizes():
    u = Line(3 * math.pi / 2, 0.5)
    assert u.theta == pytest.approx(math.pi / 2)
    assert u.t == pytest.approx(-0.5)


def test_project_point_axes():
    assert project_point(0.0, (0.3, 0.8)) == pytest.approx(0.8)
    assert project_point(math.pi / 2, (0.3, 0.8)) == pytest.approx(-0.3)


def test_line_from_two_points():
    u = line_from_two_points((0.0, 0.5), (1.0, 0.5))
    assert line_close(u, Line(0.0, 0.5))
    v = line_from_two_points((0.25, 0.0), (0.25, 2.0))
    assert line_close(v, Line(math.pi / 2, -0.25))
    with pytest.raises(ValueError):
        line_from_two_points((0.1, 0.1), (0.1, 0.1))


def test_project_square_and_intersection():
    sq = square_corners(Similarity(0.5, 0.0, False, (0.25, 0.25)))
    iv = project_square(0.0, sq)
    assert (iv.lo, iv.hi) == (pytest.approx(0.25), pytest.approx(0.75))
    assert line_square_intersects(Line(0.0, 0.5), sq)
    assert not line_square_intersects(Line(0.0, 0.8), sq)
    # tol rescues a boundary graze
    assert line_square_intersects(Line(0.0, 0.75 + 1e-13), sq, tol=1e-9)


@given(similarities, lines, st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_renormalize_equivariance(f, u, s):
    """p on u iff f^-1(p) on T_f(u)."""
    p = carrier_point(u) + s * direction(u)
    v = renormalize_map(f, u)
    q = apply(invert_map(f), p)
    assert abs(project_point(v.theta, q) - v.t) < 1e-9


def test_renormalize_oracle_no_rotation():
    # f shrinks toward the origin by 1/2; a horizontal line at height t pulls
    # back to height 2t
    f = Similarity(0.5, 0.0, False, (0.0, 0.0))
    v = renormalize_map(f, Line(0.0, 0.3))
    assert line_close(v, Line(0.0, 0.6))


def test_renormalize_oracle_reflection():
    f = Similarity(0.5, 0.0, True, (0.0, 0.0))
    v = renormalize_map(f, Line(0.0, 0.3))
    # reflection in y negates the height
    assert line_close(v, Line(0.0, -0.6))


@given(similarities, lines)
@settings(max_examples=300, deadline=None)
def test_renormalize_routes_agree(f, u):
    v1 = renormalize_via_carrier(f, u)
    assert line_close(v1, renormalize_map(f, u), tol=1e-8)
    th3, t3 = renormalize_arrays(f, np.array([u.theta]), np.array([u.t]))
    assert line_close(v1, Line(float(th3[0]), float(t3[0])), tol=1e-8)


@given(lines, st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_via_points_reference_route(u, word_seed):
    ifs = get_builtin("sierpinski")
    words = ["ab", "bc", "ca", "cc", "aa", "ba", "cb", "ac", "bb"]
    w = words[word_seed]
    assert line_close(
        renormalize_map(compose_word(ifs, w), u), renormalize_via_points(ifs, w, u), tol=1e-8
    )


def test_composition_law_random_systems(rng):
    """T_{w_k}(...T_{w_1}(u)), one letter at a time, equals renormalizing by
    the composed map f_{w_1} o ... o f_{w_k}, for words of length 1-4."""
    for trial in range(100):
        maps = {
            a: Similarity(
                ratio=rng.uniform(0.2, 0.45),
                angle=rng.uniform(0, 2 * math.pi),
                reflect=bool(rng.integers(2)),
                translation=tuple(rng.uniform(0.1, 0.5, size=2)),
            )
            for a in "ab"
        }
        ifs = IfsSpec(("a", "b"), maps, ("a",), ("b",))  # the maps may leave I
        w = "".join(rng.choice(["a", "b"], size=rng.integers(1, 5)))
        u = Line(rng.uniform(0, math.pi), rng.uniform(-1.5, 1.5))
        folded = renormalize_map(compose_word(ifs, w), u)
        letterwise = u
        for a in w:
            letterwise = renormalize_map(ifs.maps[a], letterwise)
        assert line_close(folded, letterwise, tol=1e-10), (trial, w)


@given(similarities, st.floats(0.0, 3.1), st.floats(-2.0, 2.0))
@example(Similarity(0.5, 5e-324, False, (0.0, 0.0)), 0.0, 0.0)
@settings(max_examples=200, deadline=None)
def test_arrays_route_handles_wrap(f, theta, t):
    th, tt = renormalize_arrays(f, np.array([theta]), np.array([t]))
    assert 0.0 <= float(th[0]) < math.pi
    assert np.isfinite(tt).all()


def test_precomputed_trig_is_bit_identical(rng):
    """renormalize_arrays with the lines' sine and cosine passed in, computed
    over other lines and gathered as `first_witness` does, equals each line
    renormalized on its own, bit for bit: random maps (one per line, rotated
    and reflected) and angles, plus the wrap cases, an image angle of
    -5e-324 and angles just below k pi."""
    n = 400
    thetas = rng.uniform(0.0, 3.1, n)
    angle = rng.uniform(-7.0, 7.0, n)
    reflect = rng.random(n) < 0.5
    # theta' = -5e-324, then theta' = angle - 0 just below k pi
    thetas[:5] = 0.0
    angle[:5] = [5e-324] + [np.nextafter(k * math.pi, -np.inf) for k in (-1, 1, 2, 3)]
    reflect[:5] = [False, True, True, True, True]
    maps = MapArrays(
        rng.uniform(0.15, 0.9, n), angle, reflect, (rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n))
    )
    ts = rng.uniform(-2.0, 2.0, n)
    sin, cos = np.sin(thetas), np.cos(thetas)
    idx = np.concatenate([np.arange(n), rng.integers(n, size=n)])
    got_th, got_t = renormalize_arrays(maps.take(idx), thetas[idx], ts[idx], (sin[idx], cos[idx]))
    for j, i in enumerate(idx):
        th, tt = renormalize_arrays(maps.take([i]), thetas[[i]], ts[[i]])
        assert (got_th[j], got_t[j]) == (th[0], tt[0])
    assert ((got_th >= 0.0) & (got_th < math.pi)).all()
    assert got_th[0] == 0.0  # -5e-324 folds up to pi, which is the angle 0



def test_offsets_broadcast_bit_for_bit(rng):
    """`offsets` equals y cos - x sin in Python floats, entry by entry: a
    scalar point against angle arrays, a column of angles against more than
    2^15 points, and empty arrays."""

    def loop(x, y, sin, cos):
        return [[float(yj) * float(c) - float(xj) * float(s) for xj, yj in zip(x, y)] for s, c in zip(sin, cos)]

    thetas = rng.uniform(0.0, math.pi, 5)
    sin, cos = np.sin(thetas), np.cos(thetas)
    got = offsets(0.3, -1.7, sin, cos)
    assert got.shape == (5,) and got.tolist() == [row[0] for row in loop([0.3], [-1.7], sin, cos)]
    x, y = rng.uniform(-2.0, 2.0, (2, (1 << 15) + 7))
    got = offsets(x, y, sin[:3, None], cos[:3, None])
    assert got.shape == (3, len(x)) and got.tolist() == loop(x, y, sin[:3], cos[:3])
    empty = np.empty(0)
    assert offsets(empty, empty, empty, empty).shape == (0,)
    assert offsets(empty, empty, sin[:, None], cos[:, None]).shape == (5, 0)
