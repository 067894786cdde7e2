import math

import numpy as np
import pytest

from ifsproj import (
    BudgetExceeded,
    GridGeometry,
    GridMembership,
    Line,
    Perturbation,
    RecurrentCandidate,
    Similarity,
    SliceParams,
    build_E,
    build_slice,
    certify_line,
    certify_projection_interval,
    check_recurrence,
    compose,
    first_witness,
    get_builtin,
    invert_map,
    make_ifs,
    perturb_map,
    renormalize_arrays,
    renormalize_map,
    renormalize_word,
    stopping_cylinders,
    two_letter_words,
)
from ifsproj.recurrence import _longest_run
from renormalize_oracle import renormalize_via_carrier


def lines_meeting_unit_square(geom: GridGeometry) -> np.ndarray:
    """Grid mask of lines that hit [0,1]^2."""
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    member = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    for i, th in enumerate(geom.theta_values()):
        proj = corners @ np.array([-math.sin(th), math.cos(th)])
        member[i] = (geom.t_values() >= proj.min() - 1e-12) & (
            geom.t_values() <= proj.max() + 1e-12
        )
    return member


def _turned_system(part_one):
    """Three maps of the unit square into itself with disjoint images: a
    rotates by a quarter turn, b reflects, c does neither."""
    maps = {
        "a": Similarity(0.5, math.pi / 2, False, (0.5, 0.0)),
        "b": Similarity(0.5, 0.0, True, (0.5, 1.0)),
        "c": Similarity(0.4, 0.0, False, (0.0, 0.6)),
    }
    return make_ifs(maps, part_one=part_one)


def flat_candidate(geom: GridGeometry, rho: float, member: np.ndarray) -> RecurrentCandidate:
    """Candidate whose three layers coincide; enough for membership tests."""
    return RecurrentCandidate(
        geom=geom,
        rho=rho,
        L0=member,
        L=member,
        L1=member,
        r_cells=0,
        r1_cells=0,
        e_member=np.ones(geom.n_theta, dtype=bool),
        c5=1.0,
    )


# --- grids ---


def test_grid_geometry():
    geom = GridGeometry(100, t_max=1.0)
    assert geom.pitch == pytest.approx(math.pi / 100)
    assert geom.n_t == 2 * geom.m + 1
    assert geom.t_values()[geom.m] == 0.0
    assert geom.row_of(0.0) == 0
    assert geom.row_of(geom.pitch * 3.4) == 3
    assert geom.row_of(math.pi - 1e-9) == 0  # wraps


def test_membership_basic_window():
    geom = GridGeometry(50, t_max=1.0)
    grid = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    grid[10, geom.m + 4] = True
    mem = GridMembership(geom, grid)
    th = 10 * geom.pitch
    tt = 4 * geom.pitch
    assert mem.contains([th], [tt], geom.pitch / 2)[0]
    assert mem.contains([th + 0.4 * geom.pitch], [tt], geom.pitch / 2)[0]
    assert not mem.contains([th + 2.0 * geom.pitch], [tt], geom.pitch / 2)[0]
    # boundary is inclusive: a query exactly slack away still counts
    assert mem.contains([th], [tt + geom.pitch], geom.pitch)[0]


def test_membership_wraps_with_t_flip():
    geom = GridGeometry(40, t_max=1.0)
    grid = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    grid[0, geom.m + 7] = True  # theta = 0, t = 7h
    mem = GridMembership(geom, grid)
    # just below pi is the same line with t negated
    th = math.pi - 0.3 * geom.pitch
    assert mem.contains([th], [-7 * geom.pitch], geom.pitch)[0]
    assert not mem.contains([th], [7 * geom.pitch], geom.pitch)[0]


def test_slice_params_validation():
    with pytest.raises(ValueError):
        SliceParams(rho=0.01, epsilon=0.3, c7=1e-4, n_phi=10)
    p = SliceParams(rho=0.01, epsilon=0.3, c7=0.07, n_phi=9)
    w = 2 * 0.3 / 9
    assert p.phi_cell_width == pytest.approx(w)
    assert p.required_run == int(0.07 / w) + 1 == 2
    assert len(p.phi_centers()) == 9
    assert p.phi_centers()[4] == pytest.approx(0.0)  # odd count centers zero


# --- slice test against a direct reimplementation ---


def brute_slice_row(ifs, row, E, geom, params):
    theta = row * geom.pitch
    member = np.zeros(geom.n_t, dtype=bool)
    if not E.member[row]:
        return member
    for j, t in enumerate(geom.t_values()):
        qualifying = 0
        for a1 in ifs.part_one:
            run = best = 0
            for phi in params.phi_centers():
                f1 = perturb_map(ifs.maps[a1], Perturbation(phi, (0.0, 0.0)), 0.0, 1.0)
                hit = False
                for a2 in ifs.part_two:
                    g = compose(f1, ifs.maps[a2])
                    v = renormalize_via_carrier(g, Line(theta, t))
                    arg_row = int(round(v.theta / geom.pitch)) % geom.n_theta
                    if E.member[arg_row] and abs(v.t) <= 1.0 + 1e-6:
                        hit = True
                        break
                run = run + 1 if hit else 0
                best = max(best, run)
            if best >= params.required_run:
                qualifying += 1
        member[j] = qualifying >= params.n_required
    return member


@pytest.fixture(scope="module")
def coarse_four_corner():
    ifs = get_builtin("four_corner")
    rho = 0.05
    geom = GridGeometry(61, t_max=1.2)
    E = build_E(ifs, 61, rho, math.sqrt(rho) / 8, epsilon=0.3)
    return ifs, rho, geom, E


@pytest.fixture(scope="module")
def coarse_turned():
    """A rotated and a reflected first-block map: reaches the reflect branch
    of SliceBuilder."""
    ifs = _turned_system(("a", "b"))
    rho = 0.05
    geom = GridGeometry(61, t_max=1.2)
    E = build_E(ifs, 61, rho, math.sqrt(rho) / 8, epsilon=0.3)
    return ifs, rho, geom, E


@pytest.mark.parametrize("c7,n_phi", [(1e-3, 9), (0.07, 9)])
def test_slice_matches_brute_force(coarse_four_corner, coarse_turned, c7, n_phi):
    for ifs, rho, geom, E in (coarse_four_corner, coarse_turned):
        params = SliceParams(rho=rho, epsilon=0.3, c7=c7, n_phi=n_phi)
        for row in (0, 7, 23, 44):
            s = build_slice(ifs, row * geom.pitch, E, params, geom=geom, detail=False)
            brute = brute_slice_row(ifs, row, E, geom, params)
            assert s.member.any() or not E.member[row]
            assert np.array_equal(s.member, brute), f"row {row}"


def test_slice_monotone_in_c7(coarse_four_corner):
    ifs, rho, geom, E = coarse_four_corner
    loose = SliceParams(rho=rho, epsilon=0.3, c7=1e-4, n_phi=9)
    tight = SliceParams(rho=rho, epsilon=0.3, c7=0.12, n_phi=9)
    for row in (3, 19, 50):
        a = build_slice(ifs, row * geom.pitch, E, params=loose, geom=geom, detail=False)
        b = build_slice(ifs, row * geom.pitch, E, params=tight, geom=geom, detail=False)
        # decreasing c7 never removes members
        assert not np.any(b.member & ~a.member)


def test_slice_witnesses_and_phi_counts(coarse_four_corner):
    ifs, rho, geom, E = coarse_four_corner
    params = SliceParams(rho=rho, epsilon=0.3, c7=1e-3, n_phi=9)
    theta = float(np.flatnonzero(E.member)[3]) * geom.pitch
    s = build_slice(ifs, theta, E, params, geom=geom, detail=True)
    counts = s.phi_cell_counts()
    assert counts.shape == (len(ifs.part_one), geom.n_t)
    j = int(np.flatnonzero(s.member)[0])
    ws = s.witness_words(j)
    assert ws and all(len(angles) >= params.required_run for _, angles in ws)
    nodetail = build_slice(ifs, theta, E, params, geom=geom, detail=False)
    with pytest.raises(ValueError):
        nodetail.witness_words(j)


# --- candidate assembly and persistence ---


def test_candidate_layers_nest(desk):
    cand = desk.cand
    assert not np.any(cand.L0 & ~cand.L)
    assert not np.any(cand.L & ~cand.L1)
    assert cand.r_cells == 3 and cand.r1_cells == 5
    # delta points enumerate L1 exactly
    th, tt = cand.delta_points()
    assert len(th) == int(cand.L1.sum()) == cand.delta_count


def test_candidate_save_load_roundtrip(desk, tmp_path):
    p = tmp_path / "cand.npz"
    desk.cand.save(str(p))
    back = RecurrentCandidate.load(str(p))
    assert back.geom == desk.cand.geom
    assert back.rho == desk.cand.rho
    for name in ("L0", "L", "L1"):
        assert np.array_equal(getattr(back, name), getattr(desk.cand, name))
    assert np.array_equal(back.e_member, desk.cand.e_member)
    p2 = tmp_path / "cand2.npz"
    desk.cand.save(str(p2))
    assert p.read_bytes() == p2.read_bytes()


# --- recurrence ---


def test_all_lines_meeting_square_recur_four_corner():
    """Depth-2 squares tile I, so a line meeting I renormalizes to a line
    meeting I; on the grid every such cell recurs within the rho/2 slack."""
    ifs = get_builtin("four_corner")
    geom = GridGeometry(181, t_max=1.2)
    rho = 0.05
    cand = flat_candidate(geom, rho, lines_meeting_unit_square(geom))
    rep = check_recurrence(ifs, cand)
    assert rep.total > 10_000
    assert rep.all_recurred, f"failed on {rep.total - rep.recurred}"


def test_single_far_line_fails():
    ifs = get_builtin("four_corner")
    geom = GridGeometry(61, t_max=8.0)
    member = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    member[0, geom.m + int(6.0 / geom.pitch)] = True
    cand = flat_candidate(geom, 0.05, member)
    rep = check_recurrence(ifs, cand)
    assert rep.total == 1 and rep.recurred == 0
    assert rep.failures


def test_witnesses_reverify(desk):
    rep = check_recurrence(desk.ifs, desk.cand, max_witnesses=50)
    assert rep.witnesses
    mem = desk.cand.membership("L")
    for wit in rep.witnesses:
        v = renormalize_word(desk.ifs, wit["word"], Line(wit["theta"], wit["t"]))
        assert mem.contains([v.theta], [v.t], desk.cand.rho / 2.0)[0]
        assert v.theta == pytest.approx(wit["image"]["theta"])
        assert v.t == pytest.approx(wit["image"]["t"])


def brute_first_witness(words, thetas, ts, member, slack):
    """Every word on every line, one line at a time; the first hit wins."""
    out = np.full(len(thetas), -1)
    for i, (th, t) in enumerate(zip(thetas, ts)):
        for w_i, g in enumerate(words):
            th_hat, t_hat = renormalize_arrays(g, np.array([th]), np.array([t]))
            if member.contains(th_hat, t_hat, slack)[0]:
                out[i] = w_i
                break
    return out


def test_first_witness_matches_brute_loop(rng):
    """Lines near theta = 0 and pi, and lines that a word sends exactly the
    slack away from a set cell, under a rotated and a reflected map."""
    ifs = _turned_system(("a", "b"))
    words = [g for _, g in two_letter_words(ifs.alphabet, ifs.maps)]
    geom = GridGeometry(61, t_max=1.2)
    h, slack = geom.pitch, geom.pitch
    grid = rng.random((geom.n_theta, geom.n_t)) < 0.05
    member = GridMembership(geom, grid)

    n = 300
    thetas = np.concatenate([rng.uniform(0.0, 2 * h, n), rng.uniform(math.pi - 2 * h, math.pi, n)])
    ts = rng.uniform(-1.2, 1.2, 2 * n)
    # boundary lines: word k sends them to (theta_i + a slack, t_j + b slack)
    rows, cols = np.nonzero(grid[[0, 1, geom.n_theta - 2, geom.n_theta - 1]])
    rows = np.array([0, 1, geom.n_theta - 2, geom.n_theta - 1])[rows]
    bound_words = []
    for r, c in zip(rows, cols):
        k = int(rng.integers(len(words)))
        a, b = rng.choice([-1.0, 0.0, 1.0], size=2)
        image = Line(r * h + a * slack, (c - geom.m) * h + b * slack)
        source = renormalize_map(invert_map(words[k]), image)
        thetas = np.append(thetas, source.theta)
        ts = np.append(ts, source.t)
        bound_words.append(k)

    got = first_witness(words, thetas, ts, member, slack)
    assert got.dtype == np.int16
    assert np.array_equal(got, brute_first_witness(words, thetas, ts, member, slack))
    assert (got == -1).any() and (got > 0).any()
    on_boundary = got[2 * n :]
    assert len(on_boundary) > 10
    assert ((on_boundary >= 0) & (on_boundary <= bound_words)).all()


# --- line survival certificates ---


def test_certify_line_far_is_empty():
    dust = get_builtin("cantor_dust")
    rep = certify_line(dust, Line(0.0, 3.0), max_depth=4)
    assert rep.verdict == "certified_empty"
    assert rep.surviving_counts[-1] == 0


def test_certify_line_through_attractor_survives():
    dust = get_builtin("cantor_dust")
    # the origin is the fixed point of map a, so the diagonal line through it
    # meets the attractor at every depth
    rep = certify_line(dust, Line(math.pi / 4, 0.0), max_depth=8)
    assert rep.verdict == "surviving_at_depth"
    assert all(c > 0 for c in rep.surviving_counts)


def test_certify_line_monotone_and_sound(rng):
    """Empties stay empty at deeper depth, and no depth-(n+3) corner image
    comes near a certified-empty line."""
    dust = get_builtin("cantor_dust")
    clouds = {}

    def corner_cloud(depth):
        if depth not in clouds:
            _, pts, _, _ = stopping_cylinders(dust, 4.0**-depth, point=(0.0, 0.0))
            clouds[depth] = pts
        return clouds[depth]

    checked_empty = 0
    for _ in range(100):
        u = Line(rng.uniform(0, math.pi), rng.uniform(-1.5, 1.5))
        rep = certify_line(dust, u, max_depth=5)
        if rep.verdict != "certified_empty":
            continue
        checked_empty += 1
        deeper = certify_line(dust, u, max_depth=8)
        assert deeper.verdict == "certified_empty"
        n = len(rep.surviving_counts) - 1
        pts = corner_cloud(n + 3)
        dist = np.abs(
            pts @ np.array([-math.sin(u.theta), math.cos(u.theta)]) - u.t
        ).min()
        assert dist > 0.0
    assert checked_empty > 20  # the sample must actually exercise the branch


def test_certify_line_budget():
    four = get_builtin("four_corner")
    with pytest.raises(BudgetExceeded) as ei:
        certify_line(four, Line(0.0, 0.5), max_depth=10, budget=50)
    assert ei.value.partial.verdict == "budget_exhausted"


# --- projection interval certificates ---


def test_projection_interval_four_corner_full():
    four = get_builtin("four_corner")
    cert = certify_projection_interval(four, 0.0, 1e-3)
    assert cert.certified
    lo, hi = cert.interval
    assert lo == pytest.approx(0.0, abs=2e-3)
    assert hi == pytest.approx(1.0, abs=2e-3)


def test_projection_interval_dust_fails_with_half_gap():
    dust = get_builtin("cantor_dust")
    cert = certify_projection_interval(dust, 0.0, 1e-3)
    assert not cert.certified
    assert cert.largest_gap == pytest.approx(0.5, abs=0.02)


def test_projection_interval_sierpinski_y_axis():
    sier = get_builtin("sierpinski")
    cert = certify_projection_interval(sier, 0.0, 1e-3)
    assert cert.certified
    assert cert.length >= 0.9


def loop_longest_run(mask, coords):
    """One pass over mask; a run replaces the best only when strictly longer."""
    best, best_len, start = (0, 0), None, None
    for j, v in enumerate(list(mask) + [False]):
        if v and start is None:
            start = j
        elif not v and start is not None:
            if best_len is None or coords[j] - coords[start] > best_len:
                best, best_len = (start, j), coords[j] - coords[start]
            start = None
    return best


def test_longest_run_matches_loop(rng):
    masks = [np.zeros(0, bool), np.zeros(9, bool), np.ones(9, bool)]
    masks += [np.array([1, 1, 0, 1, 1, 0, 1], bool), np.array([0, 1, 0, 1, 0], bool)]
    masks += [rng.random(int(rng.integers(1, 40))) < p for p in rng.uniform(0.1, 0.9, 300)]
    for mask in masks:
        counts = np.arange(len(mask) + 1)
        spans = np.cumsum(np.concatenate([[0.0], rng.integers(0, 3, len(mask)) * 0.25]))
        for coords in (counts, spans):
            assert _longest_run(mask, coords) == loop_longest_run(mask, coords), (mask, coords)
    assert _longest_run(np.array([1, 1, 0, 1, 1], bool), np.arange(6)) == (0, 2)


def test_projection_interval_recurrence_route(desk):
    theta = float(np.flatnonzero(desk.E.member)[0]) * desk.geom.pitch
    cert = certify_projection_interval(
        desk.ifs, theta, 1e-3, candidate=desk.cand
    )
    assert cert.recurrence_certified is not None
    assert cert.recurrence_length > 0.0
    lo, hi = cert.recurrence_interval
    assert hi - lo == pytest.approx(cert.recurrence_length)
