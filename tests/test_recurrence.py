import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsproj import (
    BudgetExceeded,
    GridGeometry,
    GridMembership,
    RecurrentCandidate,
    RowRuns,
    RunConfig,
    Similarity,
    SliceBuilder,
    attractor_points,
    build_E,
    build_candidate,
    build_perturbed_ifs,
    build_pipeline,
    certify_projection_interval,
    certify_projection_intervals,
    check_recurrence,
    first_witness,
    first_witness_rows,
    get_builtin,
    make_ifs,
    recurrence_rows,
    renormalize_arrays,
    stopping_cylinders,
    two_letter_words,
)
import ifsproj.ifs
import ifsproj.recurrence
from ifsproj.ifs import MapArrays
from ifsproj.lines import offsets
from ifsproj.recurrence import (
    _MIN_LENGTH_FACTOR,
    _cover,
    _dilate,
    _first_true,
    _gap_scan,
    _pad_runs,
)
from ifsproj.search import omega_from_json
import certificate_oracle
import map_oracle as oracle
from map_oracle import draw_assignment
from certificate_oracle import certify_line
from dilation_oracle import _dilate_wrapped
from membership_oracle import ThreeRectMembership, _pad_wrapped, row_runs
from renormalize_oracle import Line, canonical_angle, invert_map, project_point, renormalize_map
from stopping_oracle import stopping_words


def lines_meeting_unit_square(geom: GridGeometry) -> np.ndarray:
    """Grid mask of lines that hit [0,1]^2."""
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    member = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    t_values = np.arange(-geom.m, geom.m + 1) * geom.pitch
    for i in range(geom.n_theta):
        th = i * geom.pitch
        proj = corners @ np.array([-math.sin(th), math.cos(th)])
        member[i] = (t_values >= proj.min() - 1e-12) & (t_values <= proj.max() + 1e-12)
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
    """Candidate whose three layers coincide, the row runs of the grid
    member; enough for membership tests."""
    runs = row_runs(member)
    cand = RecurrentCandidate(geom, rho, runs)
    cand.L = cand.L1 = runs
    return cand


def l_membership(cand: RecurrentCandidate) -> GridMembership:
    """The L membership at the check slack, as `check_recurrence` builds it."""
    return GridMembership(cand.geom, cand.L, cand.check_slack)


# --- grids ---


def test_grid_geometry():
    geom = GridGeometry(100, t_max=1.0)
    assert geom.pitch == pytest.approx(math.pi / 100)
    assert geom.n_t == 2 * geom.m + 1
    t_values = np.arange(-geom.m, geom.m + 1) * geom.pitch
    assert len(t_values) == geom.n_t and t_values[geom.m] == 0.0 and t_values[-1] < geom.t_max


def test_membership_basic_window():
    geom = GridGeometry(50, t_max=1.0)
    grid = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    grid[10, geom.m + 4] = True
    half = GridMembership(geom, row_runs(grid), geom.pitch / 2)
    th = 10 * geom.pitch
    tt = 4 * geom.pitch
    assert half.contains([th], [tt])[0]
    assert half.contains([th + 0.4 * geom.pitch], [tt])[0]
    assert not half.contains([th + 2.0 * geom.pitch], [tt])[0]
    # boundary is inclusive: a query exactly slack away still counts
    assert GridMembership(geom, row_runs(grid), geom.pitch).contains([th], [tt + geom.pitch])[0]


def test_membership_wraps_with_t_flip():
    geom = GridGeometry(40, t_max=1.0)
    grid = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    grid[0, geom.m + 7] = True  # theta = 0, t = 7h
    mem = GridMembership(geom, row_runs(grid), geom.pitch)
    # just below pi is the same line with t negated
    th = math.pi - 0.3 * geom.pitch
    assert mem.contains([th], [-7 * geom.pitch])[0]
    assert not mem.contains([th], [7 * geom.pitch])[0]


@pytest.mark.parametrize(
    "n_theta,t_max,density", [(61, 1.2, 0.05), (40, 1.0, 0.3), (37, 1.0, 0.9)]
)
def test_membership_matches_three_rect_oracle(rng, n_theta, t_max, density):
    """One padded rectangle per query answers as the unpadded grid with a
    mirrored second rectangle at the wrap did, at the slacks the pipeline
    uses (pitch, rho/2 = 2.0000003 pitch at the desk constants), beyond
    them, and below half a pitch, where a window can hold no row or column.
    The dense grid has long runs and full rows; an all-false grid holds no
    run and contains nothing."""
    geom = GridGeometry(n_theta, t_max=t_max)
    h, m = geom.pitch, geom.m
    grid = rng.random((geom.n_theta, geom.n_t)) < density
    n = 2000
    for slack in (0.4 * h, h / 2, h, 2.0000003 * h, 2.5 * h):
        thetas = np.concatenate(
            [rng.uniform(0.0, math.pi, n), rng.uniform(0.0, h, n), rng.uniform(math.pi - h, math.pi, n)]
        )
        ts = rng.uniform(-t_max - 3 * slack, t_max + 3 * slack, 3 * n)
        # exactly one slack (or none) from a set cell's center in each coordinate
        rows, cols = np.nonzero(grid)
        pick = rng.integers(len(rows), size=n)
        a, b = rng.choice([-1.0, 0.0, 1.0], size=(2, n))
        th_edge = rows[pick] * h + a * slack
        t_edge = (cols[pick] - m) * h + b * slack
        # canonical theta: below 0 is the line (theta + pi, -t)
        below = th_edge < 0
        th_edge[below] += math.pi
        t_edge[below] *= -1
        thetas, ts = np.concatenate([thetas, th_edge]), np.concatenate([ts, t_edge])

        got = GridMembership(geom, row_runs(grid), slack).contains(thetas, ts)
        want = ThreeRectMembership(geom, grid).contains(thetas, ts, slack)
        assert np.array_equal(got, want), slack
        assert got.any() and not got.all()
        assert not GridMembership(geom, row_runs(np.zeros_like(grid)), slack).contains(thetas, ts).any()


def test_row_bounds_decide_only_what_the_window_test_does(rng):
    """The row bounds of `GridMembership.contains` at their edges: in every
    row, points at the row's angle and one slack off it, at one slack
    beyond the row's first and last cell, at 1e-12, 1/2, 1, 3/2 and 2
    pitches further out and at 1/2 to 5/2 pitches further in (an empty row
    takes the grid's first and last column), answer as ThreeRectMembership,
    at slacks below, at and beyond the pipeline's. Rows hold several runs;
    empty rows include the wrap row 0 and a band of three. Some points are
    rejected and, from half a pitch of slack on, some accepted before the
    window test, so neither bound is a no-op."""
    geom = GridGeometry(40, t_max=1.0)
    h, m, n, n_t = geom.pitch, geom.m, geom.n_theta, geom.n_t
    grid = rng.random((n, n_t)) < 0.2
    grid[:, : m // 2] = False  # rows end at different columns
    grid[[0, 7, 8, 9, 25]] = False
    full = grid.any(axis=1)
    cols = np.flatnonzero(grid.any(axis=0))
    first = np.where(full, grid.argmax(axis=1), cols[0])
    last = np.where(full, n_t - 1 - grid[:, ::-1].argmax(axis=1), cols[-1])
    beyond = np.array([-2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 1e-12, 0.5, 1.0, 1.5, 2.0]) * h
    for slack in (0.4 * h, h / 2, h, 2.0000003 * h, 2.5 * h):
        th = (np.arange(n) * h + np.array([-slack, 0.0, slack])[:, None]).ravel()
        lo = ((first - m) * h - slack)[None, :] - beyond[:, None]
        hi = ((last - m) * h + slack)[None, :] + beyond[:, None]
        ts = np.concatenate([np.tile(lo, 3), np.tile(hi, 3)], axis=1).ravel()
        thetas = np.tile(th, 2 * len(beyond))
        below = thetas < 0  # canonical theta: below 0 is the line (theta + pi, -t)
        thetas[below] += math.pi
        ts[below] *= -1

        member = GridMembership(geom, row_runs(grid), slack)
        window_hit, passed, found = member._window_hit, [], []

        def counting(th, t):
            hit = window_hit(th, t)
            passed.append(len(th))
            found.append(np.count_nonzero(hit))
            return hit

        member._window_hit = counting
        got = member.contains(thetas, ts)
        assert np.array_equal(got, ThreeRectMembership(geom, grid).contains(thetas, ts, slack))
        assert got.any() and not got.all()
        accepted = np.count_nonzero(got) - sum(found)
        assert (accepted > 0) == (slack >= h / 2), slack
        assert sum(passed) > 0 and len(ts) - sum(passed) - accepted > 0, slack  # some rejected


def test_window_test_alone_matches_three_rect_oracle(rng):
    """`GridMembership._window_hit` on every point, not only those the row
    bounds leave undecided, answers as ThreeRectMembership at slacks from
    0.3 to 3.7 pitches. Rows hold several runs, are empty (the wrap row 0
    among them), or are full, so a full row's one run reaches the top
    column; points lie anywhere, near both wrap ends, exactly one slack
    from a set cell's center, and past the grid's last column, where a
    window's last column clipped at n_t - 1 keeps the lookup in its own
    row. Below half a pitch a window can fall between two columns and
    holds nothing."""
    geom = GridGeometry(40, t_max=1.0)
    h, m, n, n_t = geom.pitch, geom.m, geom.n_theta, geom.n_t
    grid = rng.random((n, n_t)) < 0.3
    grid[[0, 7, 8, 9, 25]] = False
    grid[[5, 18, 30, 39]] = True
    k = 3000
    for slack in np.array([0.3, 0.5, 1.0, 2.0000003, 2.5, 3.7]) * h:
        thetas = np.concatenate(
            [rng.uniform(0.0, math.pi, k), rng.uniform(0.0, 2 * h, k), rng.uniform(math.pi - 2 * h, math.pi, k)]
        )
        ts = rng.uniform(-1.0 - 3 * slack, 1.0 + 3 * slack, 3 * k)
        rows, cols = np.nonzero(grid)
        pick = rng.integers(len(rows), size=k)
        a, b = rng.choice([-1.0, 0.0, 1.0], size=(2, k))
        th_edge, t_edge = rows[pick] * h + a * slack, (cols[pick] - m) * h + b * slack
        below = th_edge < 0  # canonical theta: below 0 is the line (theta + pi, -t)
        th_edge[below] += math.pi
        t_edge[below] *= -1
        thetas, ts = np.concatenate([thetas, th_edge]), np.concatenate([ts, t_edge])

        got = GridMembership(geom, row_runs(grid), slack)._window_hit(thetas, ts)
        assert np.array_equal(got, ThreeRectMembership(geom, grid).contains(thetas, ts, slack)), slack
        assert got.any() and not got.all()


def phi_cells(n: int, epsilon: float = 0.3) -> np.ndarray:
    """The centers of n rotation cells tiling (-epsilon, epsilon)."""
    w = 2.0 * epsilon / n
    return -epsilon + (np.arange(n) + 0.5) * w


def test_resolve_gives_the_phi_centers():
    for epsilon in (0.3, 0.05, 1.5):
        phi = RunConfig(epsilon=epsilon).resolve()
        assert len(phi) == 33
        assert phi[16] == pytest.approx(0.0, abs=1e-15)  # an odd count centers zero
        # the cells tile (-epsilon, epsilon)
        assert np.diff(phi) == pytest.approx(np.full(32, 2 * epsilon / 33))
        assert np.array_equal(phi, phi_cells(33, epsilon))  # the formula, bit for bit


# --- slice test against a direct reimplementation ---


def brute_slice_row(ifs, row, E, geom, phis):
    """The slice test on one row: a column is a member when some
    (a1, phi, a2) passes, found by the carrier route on all the row's
    columns at once: fold the angle, map each line's carrier point (its
    point nearest the origin) through the inverse and project it."""
    member = np.zeros(geom.n_t, dtype=bool)
    if not E.member[row]:
        return member
    theta = row * geom.pitch
    t = (np.arange(geom.n_t) - geom.m) * geom.pitch
    carriers = t[:, None] * np.array([-math.sin(theta), math.cos(theta)])
    for a1, phi, a2 in product(ifs.part_one, phis, ifs.part_two):
        # the rotated f_{a1} composed with f_{a2}
        g = oracle.compose(oracle.turn(ifs.maps[a1], phi), ifs.maps[a2])
        theta_p, _ = canonical_angle(g.angle - theta if g.reflect else theta - g.angle)
        if E.member[int(round(theta_p / geom.pitch)) % geom.n_theta]:
            t_hat = project_point(theta_p, oracle.apply(invert_map(g), carriers))
            member |= np.abs(t_hat) <= 1.0 + 1e-6
    return member


@pytest.fixture(scope="module")
def coarse_four_corner():
    ifs = get_builtin("four_corner")
    rho = 0.05
    geom = GridGeometry(61, t_max=1.2)
    E = build_E(ifs, 61, rho, math.sqrt(rho) / 8, epsilon=0.3)
    return ifs, rho, geom, E


@pytest.fixture(scope="module")
def coarse_sierpinski():
    ifs = get_builtin("sierpinski")
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


def test_whole_grid_slice_matches_brute_force(coarse_four_corner, coarse_sierpinski, coarse_turned):
    """all_rows on every row, and row_member on a few, against the direct
    reimplementation."""
    phis = phi_cells(9)
    for ifs, rho, geom, E in (coarse_four_corner, coarse_sierpinski, coarse_turned):
        brute = np.array([brute_slice_row(ifs, row, E, geom, phis) for row in range(geom.n_theta)])
        assert brute[E.member].any() and not brute[E.member].all()
        builder = SliceBuilder(ifs, E, geom, phis)
        assert np.array_equal(builder.all_rows().grid(geom.n_t), brute)
        for row in (0, 23, 60):
            assert np.array_equal(builder.row_member(row), brute[row])


@pytest.mark.parametrize("rows_per_block", [1, 2, 7, None])
def test_slice_does_not_depend_on_block_size(
    monkeypatch, coarse_four_corner, coarse_sierpinski, coarse_turned, rows_per_block
):
    """all_rows with the E rows in blocks of 1, 2 or 7 rows, or all in one
    (None), is bit for bit all_rows on every row at once, on each coarse
    system."""
    for ifs, rho, geom, E in (coarse_four_corner, coarse_sierpinski, coarse_turned):
        builder = SliceBuilder(ifs, E, geom, phi_cells(33))
        monkeypatch.setattr(ifsproj.recurrence, "_SLICE_BLOCK", 1 << 62)
        whole = builder.all_rows()
        assert len(whole.start) > 0
        e_rows = np.count_nonzero(E.member)
        n_rows = e_rows if rows_per_block is None else rows_per_block
        assert n_rows < e_rows or rows_per_block is None
        monkeypatch.setattr(ifsproj.recurrence, "_SLICE_BLOCK", n_rows * builder.g.ratio.size)
        blocked = builder.all_rows()
        for a, b in zip(blocked, whole):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_slice_without_e_rows_is_an_empty_candidate(coarse_sierpinski):
    ifs, rho, geom, E = coarse_sierpinski
    no_rows = dataclasses.replace(E, c5=E.l2.min())  # membership is l2 < c5
    assert not no_rows.member.any()
    runs = SliceBuilder(ifs, no_rows, geom, phi_cells(33)).all_rows()
    assert not runs.ptr.any() and len(runs.ptr) == geom.n_theta + 1 and not len(runs.start)
    with pytest.raises(ValueError, match="empty candidate"):
        build_candidate(runs, rho, geom)


def test_desk_slice_holds_one_block_of_rows(desk, traced_peak):
    """all_rows on the desk's 2,735 E rows holds one block's phi tensor at a
    time: 1.5 MB measured, against 29.3 MB for all rows at once."""
    builder = SliceBuilder(desk.ifs, desk.E, desk.geom, desk.cfg.resolve())
    runs, peak = traced_peak(builder.all_rows)
    for a, b in zip(runs, desk.cand.L0):
        assert np.array_equal(a, b)
    assert peak <= 3 * 2**20


# --- candidate assembly and persistence ---


def test_candidate_layers_nest(desk):
    cand = desk.cand
    L0, L, L1 = (layer.grid(cand.geom.n_t) for layer in (cand.L0, cand.L, cand.L1))
    assert not np.any(L0 & ~L)
    assert not np.any(L & ~L1)
    assert cand.r_cells == 3 and cand.r1_cells == 5
    # the run lines enumerate L1 exactly
    th, tt = cand.L1.lines(cand.geom, np.arange(cand.delta_count))
    assert len(th) == int(L1.sum()) == cand.delta_count
    rows, cols = np.nonzero(L1)
    assert np.array_equal(th, rows * cand.geom.pitch)
    assert np.array_equal(tt, (cols - cand.geom.m) * cand.geom.pitch)


def test_candidate_layers_are_oracle_dilations(desk):
    cand = desk.cand
    n_t = cand.geom.n_t
    L0 = cand.L0.grid(n_t)
    assert np.array_equal(cand.L.grid(n_t), _dilate_wrapped(L0, cand.r_cells))
    assert np.array_equal(cand.L1.grid(n_t), _dilate_wrapped(L0, cand.r1_cells))
    # each layer as its maximal row runs, as row_runs finds them
    for layer in (cand.L0, cand.L, cand.L1):
        assert all(np.array_equal(a, b) for a, b in zip(layer, row_runs(layer.grid(n_t))))


def _wrap_grids(rng, n: int, n_t: int) -> list[np.ndarray]:
    """An empty and a full grid, and random grids whose runs touch both
    theta ends and both column ends."""
    grids = [np.zeros((n, n_t), dtype=bool), np.ones((n, n_t), dtype=bool)]
    for density in (0.05, 0.2, 0.5):
        for _ in range(10):
            grid = rng.random((n, n_t)) < density
            grid[0, :2] = grid[-1, -3:] = grid[1, -1] = grid[-2, 0] = True
            grids.append(grid)
    return grids


@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_run_dilation_matches_oracle(k, rng):
    n, n_t = 17, 13
    for grid in _wrap_grids(rng, n, n_t):
        runs = _dilate(row_runs(grid), n_t, k)
        assert np.array_equal(runs.grid(n_t), _dilate_wrapped(grid, k))
        # the maximal runs of the dilated grid, as row_runs finds them
        assert all(np.array_equal(a, b) for a, b in zip(runs, row_runs(runs.grid(n_t))))


@pytest.mark.parametrize("k", [1, 2, 3, 17, 20])
def test_run_padding_matches_oracle(k, rng):
    """_pad_runs gives the runs of the boolean-padded grid, on grids whose
    runs touch both theta ends and both column ends, for pads below, at and
    past the row count."""
    n, n_t = 17, 13
    for grid in _wrap_grids(rng, n, n_t):
        got = _pad_runs(row_runs(grid), n_t, k)
        assert all(np.array_equal(a, b) for a, b in zip(got, row_runs(_pad_wrapped(grid, k))))


def test_cover_counts_runs(rng):
    """_cover against counting each cell's runs, over several keys, with
    touching, nested and repeated runs: a cell is covered by at least one."""
    n_keys, width = 5, 30
    for _ in range(50):
        n = int(rng.integers(0, 40))
        keys = rng.integers(0, n_keys, n)
        start = rng.integers(0, width - 1, n)
        stop = start + rng.integers(1, 8, n)
        count = np.zeros((n_keys, width + 8), dtype=int)
        for key, a, b in zip(keys, start, stop):
            count[key, a:b] += 1
        key, a, b = _cover(keys, start, stop)
        got = RowRuns.from_rows(n_keys, key, a, b)
        assert np.array_equal(got.grid(width + 8), count >= 1)
        # maximal runs: none empty, none touching the next one of its key
        assert np.all(a < b) and not np.any((key[1:] == key[:-1]) & (a[1:] <= b[:-1]))


def test_candidate_save_load_roundtrip(desk, tmp_path):
    """candidate.npz holds every layer as its painted boolean grid, packed
    to bits, every scalar field, and E's membership and c5; a second save
    writes the same bytes."""
    cand, p = desk.cand, tmp_path / "cand.npz"
    cand.save(str(p), desk.E)
    n_t = cand.geom.n_t
    with np.load(p) as z:
        assert int(z["n_theta"]) == cand.geom.n_theta
        assert float(z["t_max"]) == cand.geom.t_max
        assert float(z["rho"]) == cand.rho
        assert int(z["r_cells"]) == cand.r_cells
        assert int(z["r1_cells"]) == cand.r1_cells
        assert float(z["c5"]) == desk.E.c5
        for name in ("L0", "L", "L1"):
            grid = np.unpackbits(z[name], axis=1, count=n_t).astype(bool)
            assert np.array_equal(grid, getattr(cand, name).grid(n_t))
        e_member = np.unpackbits(z["e_member"], count=cand.geom.n_theta).astype(bool)
        assert np.array_equal(e_member, desk.E.member)
    p2 = tmp_path / "cand2.npz"
    cand.save(str(p2), desk.E)
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
    assert rep.recurred == rep.total, f"failed on {rep.total - rep.recurred}"


def test_single_far_line_fails():
    ifs = get_builtin("four_corner")
    geom = GridGeometry(61, t_max=8.0)
    member = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    member[0, geom.m + int(6.0 / geom.pitch)] = True
    cand = flat_candidate(geom, 0.06, member)  # check slack 0.03, above half the pitch pi/61
    rep = check_recurrence(ifs, cand)
    assert rep.total == 1 and rep.recurred == 0
    assert rep.failures


def test_witnesses_reverify(desk):
    mem = l_membership(desk.cand)
    rep = check_recurrence(desk.ifs, desk.cand)
    assert len(rep.witnesses) == 20
    for wit in rep.witnesses:
        v = renormalize_map(oracle.compose_word(desk.ifs, wit["word"]), Line(wit["theta"], wit["t"]))
        assert mem.contains([v.theta], [v.t])[0]
        assert v.theta == pytest.approx(wit["image"]["theta"])
        assert v.t == pytest.approx(wit["image"]["t"])


def brute_first_witness(words, thetas, ts, member):
    """Every word on every line, one line at a time; the first hit wins."""
    out = np.full(len(thetas), -1)
    for i, (th, t) in enumerate(zip(thetas, ts)):
        for w_i, g in enumerate(words):
            th_hat, t_hat = renormalize_arrays(g, np.array([th]), np.array([t]))
            if member.contains(th_hat, t_hat)[0]:
                out[i] = w_i
                break
    return out


def test_first_witness_matches_brute_loop(rng):
    """Lines near theta = 0 and pi, and lines that a word sends exactly the
    slack away from a set cell, under a rotated and a reflected map."""
    ifs = _turned_system(("a", "b"))
    maps = two_letter_words(ifs.letter_maps())
    words = [maps.take(i) for i in range(len(maps.ratio))]
    geom = GridGeometry(61, t_max=1.2)
    h, slack = geom.pitch, geom.pitch
    grid = rng.random((geom.n_theta, geom.n_t)) < 0.05
    member = GridMembership(geom, row_runs(grid), slack)

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

    got = first_witness(maps.reshape(1, -1), thetas, ts, member)[0]
    assert got.dtype == np.int16
    assert np.array_equal(got, brute_first_witness(words, thetas, ts, member))
    assert (got == -1).any() and (got > 0).any()
    on_boundary = got[2 * n :]
    assert len(on_boundary) > 10
    assert ((on_boundary >= 0) & (on_boundary <= bound_words)).all()


def _run_grid(rng, geom: GridGeometry) -> np.ndarray:
    """Rows of zero to three random column runs; the theta-end rows and one
    row that reaches both t edges are never empty."""
    grid = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    for row in range(geom.n_theta):
        for _ in range(int(rng.integers(0, 4))):
            a, b = np.sort(rng.integers(0, geom.n_t + 1, size=2))
            grid[row, a:b] = True
    grid[[0, -1], geom.m - 3 : geom.m + 4] = True
    grid[geom.n_theta // 2] = True
    return grid


def _word_onto(theta, t, image_theta, image_t, ratio):
    """A similarity whose renormalization sends the line (theta, t) to
    (image_theta, image_t), an angle that may lie outside [0, pi)."""
    shift = t - ratio * image_t
    return Similarity(ratio, theta - image_theta, False, (-shift * math.sin(theta), shift * math.cos(theta)))


@pytest.mark.parametrize("slack_pitches", [1.0, 2.0000003, 2.5, 0.5])
def test_row_route_matches_point_route(rng, slack_pitches):
    """first_witness_rows equals first_witness on every cell of a source
    grid: rows of 0, 1 and 2+ runs in source and target, the rows at theta 0
    and pi - pitch, the rotated and reflected words of the turned system,
    words that send whole rows onto window edges (images on the grid or
    half grid), words that send a cell exactly one slack (or none) off a
    target cell, and images far beyond t_max. Slacks: one pitch (search
    rule), rho/2 = 2.0000003 pitch (desk check rule), 2.5 pitch, and half a
    pitch, the least slack the row route takes."""
    ifs = _turned_system(("a", "b"))
    geom = GridGeometry(61, t_max=1.2)
    h, m = geom.pitch, geom.m
    slack = slack_pitches * h
    source, target = _run_grid(rng, geom), _run_grid(rng, geom)
    member = GridMembership(geom, row_runs(target), slack)
    maps = two_letter_words(ifs.letter_maps())
    words = [maps.take(i) for i in range(len(maps.ratio))]
    words += [
        Similarity(r, a, f, (0.0, 0.0))
        for r in (0.5, 2 / 3)
        for a in (0.0, h / 2)
        for f in (False, True)
    ]
    rows, cols = np.nonzero(source)
    t_rows, t_cols = np.nonzero(target)
    for _ in range(12):
        i, k = rng.integers(len(rows)), rng.integers(len(t_rows))
        a, b = rng.choice([-1.0, 0.0, 1.0], size=2)
        image = (t_rows[k] * h + a * slack, (t_cols[k] - m) * h + b * slack)
        words.append(_word_onto(rows[i] * h, (cols[i] - m) * h, *image, ratio=0.3))

    runs = row_runs(source)
    per_row = np.diff(runs.ptr)
    assert {0, 1} <= set(per_row.tolist()) and per_row.max() >= 2
    assert (np.diff(row_runs(target).ptr) >= 2).any()
    thetas, ts = rows * h, (cols - m) * h
    assert all(np.array_equal(x, y) for x, y in zip(runs.lines(geom, np.arange(len(rows))), (thetas, ts)))
    far = np.abs(renormalize_arrays(words[9], thetas, ts)[1]) > geom.t_max + slack
    assert far.any()

    maps = MapArrays.of(words)
    got = first_witness_rows(maps, runs, member)
    assert got.dtype == np.int16
    assert np.array_equal(got, first_witness(maps.reshape(1, -1), thetas, ts, member)[0])
    assert (got == -1).any() and (got >= 9).any()
    # each word alone, so that no earlier word covers its boundary cells
    for w in range(len(words)):
        g = maps.take([w])
        assert np.array_equal(first_witness_rows(g, runs, member), first_witness(g.reshape(1, 1), thetas, ts, member)[0])
    empty = row_runs(np.zeros_like(source))
    assert len(first_witness_rows(maps, empty, member)) == 0


def test_row_route_refuses_a_sub_half_pitch_slack(rng):
    """Below half a pitch a slack window can fall between two cell
    centers, which the row route's pulled-back intervals do not allow for,
    so it refuses such a membership; the point route still answers."""
    ifs = _turned_system(("a", "b"))
    geom = GridGeometry(61, t_max=1.2)
    source, target = _run_grid(rng, geom), _run_grid(rng, geom)
    words = two_letter_words(ifs.letter_maps())
    rows, cols = np.nonzero(source)
    thetas, ts = rows * geom.pitch, (cols - geom.m) * geom.pitch
    for slack_pitches in (0.4, 0.499):
        member = GridMembership(geom, row_runs(target), slack_pitches * geom.pitch)
        with pytest.raises(ValueError, match="below half the pitch"):
            first_witness_rows(words, row_runs(source), member)
        got = first_witness(words.reshape(1, -1), thetas, ts, member)[0]
        assert len(got) == len(rows) and (got >= 0).any()


def test_witness_routes_refuse_word_lists_past_int16():
    """A witness is an int16 word index, so both routes refuse a list of
    more words than int16 holds instead of wrapping an index: with 40,000
    words of which only the last sends the line home, its index 39,999
    would read -25,537, uncovered. The longest list taken still names its
    last word."""
    geom = GridGeometry(61, t_max=1.2)
    grid = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    grid[30, geom.m] = True
    source = row_runs(grid)
    member = GridMembership(geom, source, geom.pitch)
    theta = 30 * geom.pitch
    miss, home = _word_onto(theta, 0.0, theta, 1.0, 0.3), _word_onto(theta, 0.0, theta, 0.0, 0.3)
    words = MapArrays.of([miss, home]).take(np.append(np.zeros(39_999, dtype=int), 1))
    with pytest.raises(ValueError, match="int16"):
        first_witness(words.reshape(1, -1), np.array([theta]), np.array([0.0]), member)
    with pytest.raises(ValueError, match="int16"):
        first_witness_rows(words, source, member)
    # the home word first in the line's order: one step, however long the list
    n = np.iinfo(np.int16).max
    last = words.take(np.s_[-n:]).reshape(1, -1)
    order = np.arange(n)[::-1, None]
    assert first_witness(last, np.array([theta]), np.array([0.0]), member, order)[0, 0] == n - 1


def _one_list_witness(words, thetas, ts, member):
    """One word list on its own, with scalar maps: each word on the lines
    that no earlier word has sent into member."""
    witness = np.full(len(thetas), -1, dtype=np.int16)
    rem = np.arange(len(thetas))
    for w_i, g in enumerate(words):
        th_hat, t_hat = renormalize_arrays(g, thetas[rem], ts[rem])
        hit = member.contains(th_hat, t_hat)
        witness[rem[hit]] = w_i
        rem = rem[~hit]
    return witness


@pytest.mark.parametrize("slack_pitches", [1.0, 2.5, 0.4])
def test_batched_first_witness_matches_per_set_loop(rng, slack_pitches):
    """first_witness on a block of word lists equals each list on its own,
    bit for bit: blocks of 1, 7 and 16 perturbed copies of the turned
    system's words (rotated and reflected maps, in a different order in
    each list); lines at theta 0, just below pi, on grid cells and anywhere;
    a target of rows with 0, 1 and 2+ runs; slacks of one pitch (search
    rule), 2.5 pitch and below half a pitch."""
    ifs = _turned_system(("a", "b"))
    geom = GridGeometry(61, t_max=1.2)
    h, m = geom.pitch, geom.m
    target = _run_grid(rng, geom)
    member = GridMembership(geom, row_runs(target), slack_pitches * h)
    rows, cols = np.nonzero(target)
    cells = rng.integers(len(rows), size=60)
    thetas = np.concatenate(
        [np.zeros(40), math.pi - rng.uniform(0.0, 2 * h, 40), rows[cells] * h, rng.uniform(0.0, math.pi, 200)]
    )
    ts = np.concatenate([rng.uniform(-1.3, 1.3, 80), (cols[cells] - m) * h, rng.uniform(-1.3, 1.3, 200)])

    def words():
        maps = {
            a: oracle.turn(f, rng.uniform(-0.3, 0.3), rng.uniform(-0.9, 0.9, 2) * (0.1 * 0.5))
            if a in ifs.part_one
            else f
            for a, f in ifs.maps.items()
        }
        words = [g for _, g in oracle.two_letter_words(ifs.alphabet, list(maps.values()))]
        # shuffled, so that one word index mixes reflected and turned maps
        return [words[i] for i in rng.permutation(len(words))]

    seen = set()
    for n_sets in (1, 7, 16):
        word_sets = [words() for _ in range(n_sets)]
        got = first_witness(MapArrays.of(sum(word_sets, [])).reshape(n_sets, -1), thetas, ts, member)
        assert got.shape == (n_sets, len(thetas)) and got.dtype == np.int16
        for ws, row in zip(word_sets, got):
            assert np.array_equal(row, _one_list_witness(ws, thetas, ts, member))
        seen |= set(got.ravel().tolist())
    assert len({row.tobytes() for row in got}) > 1  # the sets do differ
    assert -1 in seen and len(seen) > 5


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_first_true_matches_flatnonzero(monkeypatch, rng, chunk):
    monkeypatch.setattr(ifsproj.recurrence, "_CHUNK", chunk)
    for density in (0.0, 0.02, 0.5):
        mask = rng.random(500) < density
        for k in (1, 20, 100):
            got = _first_true(mask, k)
            assert got.dtype == np.int64 and np.array_equal(got, np.flatnonzero(mask)[:k])


def test_desk_check_holds_no_wide_copy_of_the_witnesses(desk, traced_peak):
    """check_recurrence on the desk's 2.6M L cells under one fixed draw. The
    first witnesses are int16, 2 bytes a cell; counting them word by word
    and finding the listed cells chunk by chunk keeps the peak below 6 bytes
    a cell (4.1 measured). An int64 bincount and an index of every
    recurring cell took it to 12.1."""
    cfg = desk.cfg
    omega = draw_assignment(np.random.default_rng(1), desk.ifs, cfg.epsilon)
    perturbed = build_perturbed_ifs(desk.ifs, omega, cfg.c1, cfg.rho)
    rep, peak = traced_peak(lambda: check_recurrence(perturbed, desk.cand))
    assert rep.total == desk.cand.L.before[-1] and 0 < rep.recurred < rep.total
    assert peak <= 6 * rep.total


def test_check_recurrence_matches_brute_first_witness(rng):
    """The report is the brute first-hit loop over the L cells: same recurred
    count, failures and witnesses, and witness_counts tallies first hits."""
    geom = GridGeometry(31, t_max=1.2)
    cases = [
        (_turned_system(("a", "b")), rng.random((geom.n_theta, geom.n_t)) < 0.3),
        (get_builtin("four_corner"), lines_meeting_unit_square(geom)),
    ]
    for ifs, grid in cases:
        cand = flat_candidate(geom, 0.15, grid)
        member = l_membership(cand)
        rep = check_recurrence(ifs, cand)
        words = oracle.two_letter_words(ifs.alphabet, oracle.letters(ifs))
        rows, cols = np.nonzero(cand.L.grid(geom.n_t))
        thetas, ts = rows * geom.pitch, (cols - geom.m) * geom.pitch
        brute = brute_first_witness([g for _, g in words], thetas, ts, member)

        assert rep.total == len(thetas) and rep.recurred == int((brute >= 0).sum())
        fails = np.flatnonzero(brute < 0)[:100]
        assert rep.failures == [{"theta": thetas[i], "t": ts[i]} for i in fails]
        wits = np.flatnonzero(brute >= 0)[:20]
        assert [(w["theta"], w["t"], w["word"]) for w in rep.witnesses] == [
            (thetas[i], ts[i], "".join(words[brute[i]][0])) for i in wits
        ]
        assert sum(rep.witness_counts.values()) == rep.recurred
        assert list(rep.witness_counts.values()) == np.bincount(
            brute[brute >= 0], minlength=len(words)
        ).tolist()
    assert rep.recurred == rep.total  # four_corner: every line meeting I recurs


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
            pts, _ = stopping_cylinders(dust, 4.0**-depth, point=(0.0, 0.0))
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
    (cert,) = certify_projection_intervals(get_builtin("four_corner"), [0.0], 1e-3)
    assert cert.certified
    lo, hi = cert.interval
    assert lo == pytest.approx(0.0, abs=2e-3)
    assert hi == pytest.approx(1.0, abs=2e-3)


def test_projection_interval_dust_fails_with_half_gap():
    (cert,) = certify_projection_intervals(get_builtin("cantor_dust"), [0.0], 1e-3)
    assert not cert.certified
    assert cert.largest_gap == pytest.approx(0.5, abs=0.02)


def test_projection_interval_sierpinski_y_axis():
    (cert,) = certify_projection_intervals(get_builtin("sierpinski"), [0.0], 1e-3)
    assert cert.certified
    assert cert.length >= 0.9


def test_cantor_dust_known_answers_need_no_candidate(monkeypatch):
    """The Cantor dust (d = 1, which `build_pipeline` refuses) projects at
    slope 1/2 onto an interval of length 3/sqrt(5), the projection of I,
    and on the diagonal onto a set whose largest gap is 1/4 of the sides'
    projection, 0.25/sqrt(2): both within 2 s of the certificates at
    resolution 1e-3 (scale s = 5e-4), which no `RecurrentCandidate` is
    built for."""

    def no_candidate(*args, **kwargs):
        raise AssertionError("a certificate built a candidate")

    monkeypatch.setattr(RecurrentCandidate, "__init__", no_candidate)
    s, dust = 5e-4, get_builtin("cantor_dust")
    slope, diagonal = certify_projection_intervals(dust, [math.atan(0.5), math.pi / 4], 2 * s)
    assert slope.certified and slope.length == pytest.approx(3 / math.sqrt(5), abs=2 * s)
    assert not diagonal.certified and diagonal.largest_gap == pytest.approx(0.25 / math.sqrt(2), abs=2 * s)


def cantor_product():
    """C3 = C x C: four maps of ratio 1/3 that move I into its corners."""
    third = 1.0 / 3.0
    corners = {"a": (0, 0), "b": (2, 0), "c": (0, 2), "d": (2, 2)}
    return make_ifs(
        {a: Similarity(third, 0.0, False, (x * third, y * third)) for a, (x, y) in corners.items()}
    )


# the omega `bench/run.py` draws for four-corner-verify at seed 1
BENCH_OMEGA = {
    "a": {"phi": -0.21938145353255928, "gamma": [0.6948674738744653, 0.5275492379532281]},
    "b": {"phi": -0.14695858455634697, "gamma": [-0.009129825816118098, -0.10101787042252375]},
}


def bench_system() -> ifsproj.IfsSpec:
    """The system of four-corner-verify: four_corner at rho 2^-7 perturbed
    by BENCH_OMEGA."""
    four = get_builtin("four_corner")
    return build_perturbed_ifs(four, omega_from_json(four, BENCH_OMEGA), RunConfig().c1, 2.0**-7)


def certificate_by_sorting(samples, theta, resolution) -> tuple[dict, np.ndarray]:
    """The JSON fields and the wide gaps of a gap certificate, from the
    sorted offsets of all samples, their differences and the oracle's
    `_longest_run`. A largest gap at or below the resolution, or none
    (fewer than two samples), is reported as None."""
    pos = np.sort(project_point(theta, samples))
    steps = np.diff(pos)
    wide = np.flatnonzero(steps > resolution)
    lo, hi = certificate_oracle._longest_run(wide, pos) if len(pos) else (0, 0)
    length = float(pos[hi] - pos[lo]) if len(pos) else 0.0
    interval = None
    if length >= _MIN_LENGTH_FACTOR * resolution:
        interval = [float(pos[lo]), float(pos[hi])]
    fields = {
        "theta": theta,
        "resolution": resolution,
        "n_samples": len(pos),
        "interval": interval,
        "length": length,
        "largest_gap": float(steps.max()) if len(wide) else None,
        "certified": interval is not None,
    }
    return fields, np.stack([pos[wide], pos[wide + 1]], axis=1)


def assert_certificate_by_sorting(cert, samples, theta, resolution) -> None:
    """cert's fields and wide gaps are those of `certificate_by_sorting`."""
    fields, gaps = certificate_by_sorting(samples, theta, resolution)
    assert cert.to_json_dict() == fields, (len(samples), theta, resolution)
    assert cert.gaps.shape == gaps.shape and np.array_equal(cert.gaps, gaps)


def bucket_certificate(samples, theta, resolution, low=None, high=None):
    """The certificate of any cloud of samples at one angle: `_Buckets` of
    the offsets [low, high], by default the projection of the samples'
    bounding box, which holds every rounded offset (a rounded offset is
    monotone in each coordinate), fed the samples and finished by
    `certify_projection_interval`."""
    sin, cos = math.sin(theta), math.cos(theta)
    if low is None:
        box = np.stack([samples.min(axis=0), samples.max(axis=0)]) if len(samples) else np.zeros((2, 2))
        corners = offsets(box[:, :1], box[:, 1], sin, cos)  # the four corners' offsets
        low, high = corners.min(), corners.max()
    buckets = ifsproj.recurrence._Buckets(
        np.array([sin]), np.array([cos]), resolution, np.array([low]), np.array([high])
    )
    buckets.add(samples)
    return certify_projection_interval(buckets.extremes(0), len(samples), theta, resolution)


def test_certificate_gaps_equal_sort_and_diff():
    """A certificate's fields and wide gaps equal those of sorting every
    sample offset (`certificate_by_sorting`). `certify_projection_intervals`:
    on the benchmark's system, on the Cantor sets' wide gaps, on
    unperturbed four_corner near an axis (whose largest gap, about 0.005
    resolutions, is None), with 2K buckets for 4^7 samples and with more
    buckets than samples. Buckets of a
    cloud's bounding box (`bucket_certificate`): for no sample, one, two,
    two coincident, and the Cantor sets' samples twice, the second time in
    reverse order."""
    four, c3, dust = get_builtin("four_corner"), cantor_product(), get_builtin("cantor_dust")
    systems = [
        (bench_system(), [0.0, 2.3], 1e-3),
        (c3, [0.0, 0.2], 1e-2),  # the Cantor set: wide gaps
        (c3, [0.0], 1e-3),  # 2K buckets for 4^7 samples
        (dust, [0.0, 0.4], 1e-2),  # gaps of half the projection
        (four, [0.01, 0.05], 2.0**-7),  # the largest gap 0.005 resolutions
        (dust, [1.0], 1e-5),  # more buckets than samples
    ]
    checked = []
    for ifs, thetas, resolution in systems:
        samples = attractor_points(ifs, resolution / 2)
        for theta, cert in zip(thetas, certify_projection_intervals(ifs, thetas, resolution)):
            assert_certificate_by_sorting(cert, samples, theta, resolution)
            checked.append(cert)
    c3_samples, dust_samples = attractor_points(c3, 5e-4), attractor_points(dust, 2e-5)
    clouds = [
        (np.zeros((0, 2)), 0.3, 1e-3),
        (np.array([[0.25, 0.5]]), 0.3, 1e-3),
        (np.array([[0.0, 0.0], [1.0, 1.0]]), 0.3, 1e-3),
        (np.array([[0.25, 0.5], [0.25, 0.5]]), 0.3, 1e-3),
        (np.concatenate([c3_samples, c3_samples[::-1]]), 0.0, 1e-2),
        (np.concatenate([dust_samples, dust_samples[::-1]]), 0.4, 1e-2),
    ]
    for samples, theta, resolution in clouds:
        cert = bucket_certificate(samples, theta, resolution)
        assert_certificate_by_sorting(cert, samples, theta, resolution)
        checked.append(cert)
    wide = sum(len(cert.gaps) > 0 for cert in checked)
    certified = sum(cert.certified for cert in checked)
    null = sum(cert.largest_gap is None for cert in checked)
    assert wide >= 6 and 0 < certified < len(checked) and 0 < null < len(checked)


coordinates = st.one_of(st.floats(-1.5, 1.5), st.integers(-48, 48).map(lambda k: k / 32))


@given(
    st.lists(st.tuples(coordinates, coordinates), max_size=500),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.floats(1e-4, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_certificate_equals_sorting_on_any_cloud(points, theta, resolution):
    """On any cloud of up to 500 points, some on a lattice of pitch 1/32
    (coincident offsets, and gaps at multiples of the pitch), at any angle
    and resolution, the certificate of its bounding box's buckets
    (`bucket_certificate`) is that of `certificate_by_sorting`."""
    samples = np.array(points, dtype=float).reshape(-1, 2)
    cert = bucket_certificate(samples, theta, resolution)
    assert_certificate_by_sorting(cert, samples, theta, resolution)


def test_bucket_edges_and_the_disk_rim(monkeypatch):
    """Offsets on bucket edges (the bucket origin plus k resolution/2, on it
    or one ulp either side, for a random half of the edges) and offsets one
    and four ulps past the invariant disk, which go to an end bucket, leave
    no bucket's extent above the resolution, and the certificate from the
    disk's buckets is that of `certificate_by_sorting`; at theta 0, where
    the offset is y exactly, gaps of two buckets fall within four ulps
    either side of the resolution. Buckets twice the resolution wide make
    C3's certificate at theta 0 raise, where sorting finds 15 wide gaps,
    rather than report wrong ones."""
    radius = ifsproj.recurrence._invariant_radius(get_builtin("four_corner"))
    rng = np.random.default_rng(5)
    for theta, resolution in ((0.0, 1e-2), (0.7, 1e-3), (2.0, 2.0**-7)):
        sin, cos = math.sin(theta), math.cos(theta)
        mid = 0.5 * cos - 0.5 * sin
        low, high = mid - radius, mid + radius
        n = int((high - low) / (resolution / 2))
        edges = low + np.sort(rng.choice(n, n // 2, replace=False)) * (resolution / 2)
        t = np.nextafter(edges, edges + rng.integers(-1, 2, len(edges)))  # on or one ulp off
        ulp_low, ulp_high = np.spacing(abs(low)), np.spacing(abs(high))
        t = np.concatenate([t, [low - ulp_low, low - 4 * ulp_low, high + ulp_high, high + 4 * ulp_high]])
        samples = np.stack([-t * sin, t * cos], axis=1)  # points of offset t, about
        cert = bucket_certificate(samples, theta, resolution, low, high)
        assert_certificate_by_sorting(cert, samples, theta, resolution)
        if theta == 0.0:
            steps = np.diff(np.sort(t)) - resolution
            close = np.abs(steps) <= 4 * np.spacing(high)
            assert (close & (steps > 0)).any() and (close & (steps <= 0)).any()

    c3 = cantor_product()
    assert len(certificate_by_sorting(attractor_points(c3, 5e-3), 0.0, 1e-2)[1]) == 15
    init = ifsproj.recurrence._Buckets.__init__

    def twice_as_wide(self, sin, cos, resolution, low, high):
        init(self, sin, cos, 4 * resolution, low, high)
        self.resolution = resolution

    monkeypatch.setattr(ifsproj.recurrence._Buckets, "__init__", twice_as_wide)
    with pytest.raises(ArithmeticError, match="exceeds the resolution"):
        certify_projection_intervals(c3, [0.0], 1e-2)


def coarse_lines_candidate() -> RecurrentCandidate:
    """The lines meeting I on a 61-row grid, as every layer of a candidate."""
    geom = GridGeometry(61, t_max=1.5)
    return flat_candidate(geom, 0.15, lines_meeting_unit_square(geom))


def test_streamed_certificates_hold_no_sample_sized_array(traced_peak):
    """`certify_projection_intervals` on four-corner-verify's system, at
    four angles and at ten, allocates under 6% of its samples' bytes (n x
    16): the samples are streamed, never held, and so are the first leaves
    (measured 0.036 and 0.035; the gathered samples alone are 1.0, and
    holding the 65,536 first leaves of the ten angles at once 0.088)."""
    perturbed = bench_system()
    for thetas in ([0.3, 1.2, 2.0, 2.9], [float(th) for th in np.arange(10) * (math.pi / 10) + 0.05]):
        certify_projection_intervals(perturbed, thetas, 1e-2)  # imports stay outside the trace
        certs, peak = traced_peak(lambda: certify_projection_intervals(perturbed, thetas, 1e-3))
        n = certs[0].n_samples
        assert n == 4**11 and all(cert.certified for cert in certs)
        assert peak < 0.06 * n * 16, len(thetas)


def test_streamed_certificates_walk_once(monkeypatch):
    """One `certify_projection_intervals` call on unperturbed four_corner
    walks the stopping words once, streamed, and gathers no samples, at
    resolution 2^-7 and at 0.2, where the buckets outnumber the samples,
    with the angles 0.01 and pi/2 + 0.01 near an axis among the others
    (their largest gaps, a few thousandths of a resolution, are None).
    Every certificate is that of sorting the offsets of `attractor_points`."""
    four = get_builtin("four_corner")
    thetas = [0.01, 0.05, 0.7, math.pi / 2 + 0.01]
    walks = []
    gather = ifsproj.recurrence.attractor_points

    def spy_gather(*args, consume=None, **kwargs):
        walks.append("streamed" if consume else "gathered")
        return gather(*args, consume=consume, **kwargs)

    monkeypatch.setattr(ifsproj.recurrence, "attractor_points", spy_gather)
    streamed = {}
    for resolution in (2.0**-7, 0.2):
        streamed[resolution] = certify_projection_intervals(four, thetas, resolution)
        assert walks == ["streamed"], resolution
        walks.clear()
    monkeypatch.undo()
    for resolution, certs in streamed.items():
        samples = attractor_points(four, resolution / 2)
        for theta, cert in zip(thetas, certs):
            assert_certificate_by_sorting(cert, samples, theta, resolution)
    fine = streamed[2.0**-7]
    assert all(cert.certified for cert in fine)
    assert fine[0].largest_gap is None and fine[3].largest_gap is None


def test_streamed_certificates_check_the_budget_first(monkeypatch):
    """A word budget below the cover raises BudgetExceeded from
    `certify_projection_intervals` with the partial count of
    `attractor_points` (4^5 words at the first level past 1000), before any
    map is composed and before any `_Buckets` is made."""
    four = get_builtin("four_corner")
    with pytest.raises(BudgetExceeded) as gathered:
        attractor_points(four, 5e-4, budget=1000)
    composed, made = [], []
    buckets = ifsproj.recurrence._Buckets
    compose, init = MapArrays.compose, buckets.__init__

    def spy(self, inner):
        composed.append(len(self.ratio))
        return compose(self, inner)

    def spy_init(self, *args):
        made.append(len(args[0]))
        init(self, *args)

    monkeypatch.setattr(MapArrays, "compose", spy)
    monkeypatch.setattr(buckets, "__init__", spy_init)
    with pytest.raises(BudgetExceeded) as streamed:
        certify_projection_intervals(four, [0.3, 0.7], 1e-3, budget=1000)
    assert streamed.value.partial == gathered.value.partial == 4**5
    assert composed == [] and made == []
    # within the budget, the spies see the walk: one row of buckets per angle
    certify_projection_intervals(four, [0.3, 0.7], 0.125, budget=1000)
    assert composed and made == [2]


def test_attractor_lies_in_the_invariant_disk():
    """At 20 angles k pi / 20 every attractor sample's offset lies within
    the invariant disk's radius of its centre's offset, up to the derived
    rounding margin (`_rounding_margin`, below 1e-12 on each of these), on
    every built-in, on the turned and reflected four-corner set and on
    four_corner under the benchmark's seed-1 omega. On four_corner the disk
    is the square's circumscribed disk, and some sample lies on its rim, so
    the band is tight there."""
    four = get_builtin("four_corner")
    systems = {
        "four_corner": (four, 2.0**-8),
        "sierpinski": (get_builtin("sierpinski"), 2.0**-8),
        "cantor_dust": (get_builtin("cantor_dust"), 4.0**-5),
        "turned": (oracle.turned_four_corner(), 3.0**-6),
        "four_corner_bench": (bench_system(), 2.0**-8),
    }
    for name, (ifs, scale) in systems.items():
        radius = ifsproj.recurrence._invariant_radius(ifs)
        margin = ifsproj.recurrence._rounding_margin(ifs, scale, radius)
        samples = attractor_points(ifs, scale)
        reach = 0.0
        for theta in np.arange(20) * (math.pi / 20):
            mid = 0.5 * math.cos(theta) - 0.5 * math.sin(theta)
            reach = max(reach, np.abs(project_point(theta, samples) - mid).max())
        assert 0 < margin < 1e-12 and reach <= radius + margin, name
        if name == "four_corner":
            assert radius == pytest.approx(math.sqrt(0.5), abs=1e-15)
            assert reach == pytest.approx(radius, abs=1e-12)


@pytest.fixture
def leaves_imaged(monkeypatch):
    """A list that gets, for each walk of the stopping words, the number of
    words whose maps the walk yields, plus the first leaves
    (`ifs.first_leaves`) imaged since the walk before: the samples that
    one `certify_projection_intervals` call images."""
    counts, leaves = [], [0]
    batches, first = ifsproj.measure.stopping_batches, ifsproj.recurrence.first_leaves

    def spy_leaves(*args):
        walk = first(*args)

        def counted():
            for maps in walk:
                leaves[0] += len(maps.ratio)
                yield maps

        return None if walk is None else counted()

    def spy(*args, **kwargs):
        count, walk = batches(*args, **kwargs)
        counts.append(leaves[0])
        leaves[0] = 0

        def counted():
            for maps in walk:
                counts[-1] += len(maps.ratio)
                yield maps

        return count, counted()

    monkeypatch.setattr(ifsproj.recurrence, "first_leaves", spy_leaves)
    monkeypatch.setattr(ifsproj.measure, "stopping_batches", spy)
    return counts


def _pruning_case(name):
    """A system, its angles in one call each, a resolution, and the
    greatest share of the words that the call images, first leaves
    included (None: all of them, as when one angle's projection has gaps,
    or when no level above the cover's last has as many nodes as there are
    buckets and the walk runs unpruned; `_Buckets.add` still drops samples
    at the angles where their buckets are interior)."""
    spread = [float(th) for th in np.arange(16) * (math.pi / 16) + 0.1]
    four, c3 = get_builtin("four_corner"), cantor_product()
    tenths = [float(th) for th in np.arange(10) * (math.pi / 10) + 0.05]
    slopes = [math.atan(q) for q in (1 / 3, 1 / 2, 1, 2, 3)]  # C + q C is an interval
    dust, turned, gasket = get_builtin("cantor_dust"), oracle.turned_four_corner(), get_builtin("sierpinski")
    return {
        # four-corner-verify's system at ten angles: 65,536 first leaves and
        # 30,496 words of the walk (0.023)
        "benchmark": (bench_system(), [tenths], 1e-3, 0.05),
        # the largest gaps near an axis are a few thousandths of a resolution
        "four_corner": (four, [[0.01, math.pi / 2 + 0.01, math.pi / 4, *spread]], 2.0**-7, 1.0),
        # 15 wide gaps at theta 0, among 64 angles so that a chunk is 512 of the 4^5 samples
        "c3": (c3, [[0.0, math.atan(0.25), *np.arange(62) * (math.pi / 62) + 0.02]], 1e-2, None),
        # two intervals at slope 1/4, one at each other slope; 104K buckets, and
        # only the last level's 4^9 nodes outnumber them
        "c3_slopes": (c3, [[math.atan(0.25), *slopes, *(math.pi - th for th in slopes)]], 3e-4, None),
        # one angle a call, where a prefix's disk alone decides
        "c3_one_angle": (c3, [[th] for th in (math.atan(0.25), *spread[::2])], 3e-4, 1.0),
        # one interval at slopes 1/2 and 2, dust on the diagonal, where the buckets'
        # edges fall on the corners' offsets; about one sample a bucket
        "cantor_dust": (dust, [[math.atan(0.5), math.atan(2), math.pi / 4, *spread]], 2**0.5 / 256, None),
        # 45K buckets against 4^7 words
        "turned": (turned, [spread], 1e-3, None),
        # 45K buckets against level 8's 4^8 nodes (measured 0.304)
        "turned_four": (turned, [spread[::4]], 2.5e-4, 0.4),
        # 22.7K buckets, and only the last level's 3^10 nodes outnumber them
        "gasket": (gasket, [spread], 2e-3, None),
        # 5.7K buckets against level 8's 3^8 nodes (measured 0.191)
        "gasket_four": (gasket, [spread[::4]], 2e-3, 0.25),
    }[name]


@pytest.mark.parametrize(
    "name",
    ["benchmark", "four_corner", "c3", "c3_slopes", "c3_one_angle", "cantor_dust"]
    + ["turned", "turned_four", "gasket", "gasket_four"],
)
def test_pruned_certificates_equal_gathered(name, leaves_imaged):
    """Pruning changes no certificate: on four-corner-verify's system, on
    unperturbed four_corner (with two angles near an axis), on C3 (wide
    gaps at theta 0, two intervals at slope 1/4; also one angle a call),
    on the Cantor dust, on the turned four-corner set and on the gasket,
    each certificate of one `certify_projection_intervals` call, which
    walks the stopping words once, is that of sorting the offsets of the
    gathered `attractor_points`. Where every angle's projection is an
    interval and a level above the last has a node per bucket, the call
    leaves words unimaged: on the benchmark's system, first leaves
    included, more than 95% of its 4^11."""
    ifs, calls, resolution, share = _pruning_case(name)
    samples = attractor_points(ifs, resolution / 2)
    for thetas in calls:
        before = len(leaves_imaged)
        certs = certify_projection_intervals(ifs, thetas, resolution)
        (imaged,) = leaves_imaged[before:]
        assert imaged == len(samples) if share is None else imaged < share * len(samples)
        for theta, cert in zip(thetas, certs):
            assert_certificate_by_sorting(cert, samples, theta, resolution)


def _leaf_case(name):
    """A system, a scale and a node count whose level lies above the last."""
    return {
        "benchmark": (bench_system(), 2.0**-8, 1000),
        "turned": (oracle.turned_four_corner(), 3.0**-6, 200),
        "c3": (cantor_product(), 3.0**-6, 200),
        "two_ratios": (oracle.two_ratio_system(), 1e-3, 100),
    }[name]


@pytest.mark.parametrize("batch", [None, 7])
@pytest.mark.parametrize("name", ["benchmark", "turned", "c3", "two_ratios"])
def test_first_leaves_are_exact_samples(name, batch, monkeypatch):
    """The first leaves (`ifs.first_leaves`), imaged at the first map's
    fixed point, are bit for bit the gathered `attractor_points` samples of
    the stopping words (`stopping_oracle.stopping_words`) whose letters
    past the level are all the first letter, each once: on four-corner-
    verify's system, on the turned and reflected four-corner set, on C3 and
    on a two-ratio system, at the default batch and at one that splits
    every level. The level is the coarsest whose prefixes of the words
    number at least the nodes asked for; asked for the whole cover, there
    are no first leaves."""
    ifs, scale, nodes = _leaf_case(name)
    if batch is not None:
        monkeypatch.setattr(ifsproj.ifs, "_BATCH", batch)
    words = stopping_words(ifs, scale)
    samples = attractor_points(ifs, scale)
    depth = next(j for j in range(1, 64) if len({w[:j] for w in words}) >= nodes)
    first = ifs.alphabet[0]
    expected = [i for i, w in enumerate(words) if set(w[depth:]) <= {first}]
    assert depth < max(map(len, words)) and len(expected) >= nodes
    p0 = ifsproj.recurrence._fixed_point(ifs.maps[first])
    leaves = np.concatenate([maps.images(p0) for maps in ifsproj.ifs.first_leaves(ifs, scale, nodes)])
    bits = sorted(row.tobytes() for row in np.ascontiguousarray(leaves))
    assert bits == sorted(row.tobytes() for row in np.ascontiguousarray(samples[expected]))
    assert ifsproj.ifs.first_leaves(ifs, scale, len(words)) is None


def test_pruning_keeps_a_sample_past_its_prefix_disk():
    """Rounding carries some of four_corner's samples past the projected
    disk of a prefix, f_u(c) +- r_u R: at 64 angles, some depth-9 sample
    (the maps composed letter by letter as the walk composes them, applied
    to the first map's fixed point (0, 0)) lies past its depth-4 prefix's
    disk. With buckets whose edge lies between the disk's end and that
    sample, and every bucket interior but the sample's, `_Buckets.interior`
    keeps the prefix: `_rounding_margin` covers the rounding. Without the
    margin it would drop the prefix and its sample."""
    four = get_builtin("four_corner")
    letters = four.letter_maps()
    (nodes,) = ifsproj.ifs.stopping_batches(four, 2.0**-4)[1]
    leaves = nodes
    for _ in range(5):
        leaves = leaves.compose(letters)
    points = leaves.images((0.0, 0.0)).reshape(len(nodes.ratio), -1, 2)
    radius = ifsproj.recurrence._invariant_radius(four)
    margin = ifsproj.recurrence._rounding_margin(four, 2.0**-9, radius)
    centre = nodes.images((0.5, 0.5))
    past = 0
    for theta in np.arange(64) * (math.pi / 64):
        sin, cos = math.sin(theta), math.cos(theta)
        end = offsets(centre[:, 0], centre[:, 1], sin, cos) + nodes.ratio * radius
        far = offsets(points[..., 0], points[..., 1], sin, cos).max(axis=1)
        for i in np.flatnonzero(far > end):
            past += 1
            step = far[i] - end[i]  # buckets of width step/2 from the disk's end
            buckets = ifsproj.recurrence._Buckets(
                np.array([sin]), np.array([cos]), step, end[i : i + 1], far[i : i + 1] + step
            )
            (k,) = buckets._index(np.array([[far[i]]]))[0]
            assert k > buckets._index(np.array([[end[i]]]))[0, 0]
            buckets.inner[:] = True
            buckets.inner[0, k] = False
            buckets.outer[1:] = np.cumsum(~buckets.inner.reshape(-1))
            node = nodes.take([i])
            assert not buckets.interior(node, radius, margin)[0], (theta, i)
            assert buckets.interior(node, radius, 0.0)[0], (theta, i)
    assert past > 0


def test_interior_needs_close_neighbours():
    """Rounding can put the extremes of two neighbouring buckets more than
    the resolution apart: at theta 0, where the offset is y, with buckets of
    5e-4 from 0.5 - R, the least offset p1 of some bucket and the greatest
    p2 of the next. A first chunk holds p1 and p2, a neighbour of each
    within a quarter resolution and copies to fill it; a second chunk adds
    an offset between p1 and p2. Neither bucket is interior, since their
    gap exceeds the resolution, so the second chunk's offset is kept: the
    certificate is that of sorting, with no wide gap."""
    resolution = 1e-3
    low = 0.5 - ifsproj.recurrence._invariant_radius(get_builtin("four_corner"))
    buckets = ifsproj.recurrence._Buckets(np.zeros(1), np.ones(1), resolution, np.array([low]), np.array([low + 1]))

    def least(k):  # the least offset of bucket k
        p = low + k * (resolution / 2)
        while buckets._index(np.array([[p]]))[0, 0] >= k:
            p = np.nextafter(p, -np.inf)
        while buckets._index(np.array([[p]]))[0, 0] < k:
            p = np.nextafter(p, np.inf)
        return p

    k = next(k for k in range(1, 1000) if np.nextafter(least(k + 2), -np.inf) - least(k) > resolution)
    p1, p2 = least(k), np.nextafter(least(k + 2), -np.inf)
    first = np.repeat([p1 - resolution / 4, p1, p2, p2 + resolution / 4], ifsproj.recurrence._CHUNK // 4)
    offsets_y = np.append(first, p1 + resolution / 4)
    samples = np.stack([np.zeros_like(offsets_y), offsets_y], axis=1)
    cert = bucket_certificate(samples, 0.0, resolution, low, low + 1.0)
    assert_certificate_by_sorting(cert, samples, 0.0, resolution)
    assert len(cert.gaps) == 0


def test_bucket_certificate_ignores_sample_order():
    """Buckets spanning the invariant disk, fed four_corner's 4^9 samples in
    a shuffled order, drop those that fall in interior buckets, chunk by
    chunk, and still give the certificate of sorting every offset: the
    first and the last nonempty bucket are never interior, so no later
    chunk's extreme there is dropped."""
    four = get_builtin("four_corner")
    radius = ifsproj.recurrence._invariant_radius(four)
    samples = attractor_points(four, 2.0**-9)
    samples = samples[np.random.default_rng(1).permutation(len(samples))]
    for theta in (0.3, 0.7, 1.2, 2.0):
        mid = 0.5 * math.cos(theta) - 0.5 * math.sin(theta)
        cert = bucket_certificate(samples, theta, 2.0**-8, mid - radius, mid + radius)
        assert_certificate_by_sorting(cert, samples, theta, 2.0**-8)


def test_marking_costs_no_more_than_the_offsets(monkeypatch):
    """On the Cantor dust at resolution 1e-5 and four angles, whose 1.1M
    buckets outnumber the offsets of a step of the walk many times over,
    `_Buckets` passes over its buckets to mark them no more often than
    the offsets it computes fill them: the buckets passed over in marking
    number no more than those offsets. The certificates are those of
    sorting the gathered samples."""
    dust = get_builtin("cantor_dust")
    thetas = [math.atan(0.5), 0.7, math.pi / 4, 2.5]
    computed, marked = [], []
    compute, mark = ifsproj.recurrence._Buckets._offsets, ifsproj.recurrence._Buckets._mark

    def spy_compute(self, points):
        pos = compute(self, points)
        computed.append(pos.size)
        return pos

    def spy_mark(self):
        unmarked = self.unmarked
        mark(self)
        if unmarked and not self.unmarked:
            marked.append(self.least.size)

    monkeypatch.setattr(ifsproj.recurrence._Buckets, "_offsets", spy_compute)
    monkeypatch.setattr(ifsproj.recurrence._Buckets, "_mark", spy_mark)
    certs = certify_projection_intervals(dust, thetas, 1e-5)
    assert sum(marked) <= sum(computed) and len(marked) < len(computed) / 10
    monkeypatch.undo()
    samples = attractor_points(dust, 5e-6)
    for theta, cert in zip(thetas, certs):
        assert_certificate_by_sorting(cert, samples, theta, 1e-5)


def test_no_angle_images_no_sample(leaves_imaged):
    """With no angle every prefix node prunes, the root first: no stopping
    word is imaged and there is no certificate."""
    assert certify_projection_intervals(get_builtin("four_corner"), [], 1e-3) == []
    assert leaves_imaged == [0]


def test_c3_gap_scan_over_lambda():
    """C3 projects at theta onto max(|cos|, |sin|) (C + lambda C) up to an
    affine move, lambda = min(|tan theta|, |cot theta|) (Newhouse 1979). For
    lambda < 1/3 its largest gap is the one between the images of the two
    columns of C, (1 - 3 lambda)/3 max(|cos|, |sin|) (the smaller copies of
    C + 3 lambda C are intervals or have narrower gaps); for lambda >= 1/3 it
    is the interval of length |cos| + |sin| that the unit square projects
    onto (C has thickness 1). The gap scan at scale s = 5e-4 and resolution
    1e-3 finds both within 2 s, at the angles k pi / 19, k = 1, ..., 18."""
    s, resolution = 5e-4, 1e-3
    thetas = np.arange(1, 19) * math.pi / 19
    thin = 0
    for theta, cert in zip(thetas, certify_projection_intervals(cantor_product(), thetas, resolution)):
        c, n = abs(math.cos(theta)), abs(math.sin(theta))
        lam = min(n, c) / max(n, c)
        if lam < 1.0 / 3.0:
            thin += 1
            assert cert.largest_gap == pytest.approx((1 - 3 * lam) / 3 * max(c, n), abs=2 * s)
        else:
            assert cert.certified and cert.length == pytest.approx(c + n, abs=2 * s)
    assert 0 < thin < 18
def loop_longest_run(least, greatest, resolution):
    """The gap route's rule in one pass over the buckets: a run ends at each
    gap wider than resolution, spans greatest[last] - least[first] (one
    bucket spans its extent), and replaces the best only when its span is
    strictly larger."""
    best, best_span, first = (0, 0), None, 0
    for i in range(len(least)):
        if i + 1 == len(least) or least[i + 1] - greatest[i] > resolution:
            span = greatest[i] - least[first]
            if best_span is None or span > best_span:
                best, best_span = (first, i), span
            first = i + 1
    return best


def test_longest_run_matches_loop(rng, monkeypatch):
    """`_gap_scan`, the one longest-run selector, picks the run of the loop
    oracle, with its wide gaps and largest gap, chunk by chunk (a chunk of
    3 buckets). Steps are quarters, so spans tie often (the first run wins);
    steps of 0 and of exactly the resolution join, and buckets with and
    without extent make one-bucket runs that win or lose. On strictly
    increasing columns at resolution 1, as the recurrence row calls it, it
    picks the run of the certificate oracle's `_longest_run`, whose rule
    drops one-column runs."""
    monkeypatch.setattr(ifsproj.recurrence, "_CHUNK", 3)
    masks = [np.zeros(0, bool), np.zeros(9, bool), np.ones(9, bool)]  # no step, all breaks, none
    masks += [np.array([1, 1, 0, 1, 1, 0, 1], bool), np.array([0, 1, 0, 1, 0], bool)]
    masks += [rng.random(int(rng.integers(1, 40))) < p for p in rng.uniform(0.1, 0.9, 300)]
    for mask in masks:  # mask[i]: the step after bucket i joins
        n = len(mask) + 1
        steps = np.where(mask, rng.integers(0, 3, len(mask)), rng.integers(5, 8, len(mask))) * 0.25
        for extent in (np.zeros(n), rng.integers(0, 3, n) * 0.25):
            least = np.cumsum(np.concatenate([[0.0], steps])) + np.cumsum(extent) - extent
            greatest = least + extent
            wide, largest, first, last = _gap_scan(least, greatest, 0.5)
            gaps = least[1:] - greatest[:-1]
            assert (first, last) == loop_longest_run(least, greatest, 0.5), (least, greatest)
            assert np.array_equal(wide, np.flatnonzero(~mask))
            assert largest == (gaps.max() if len(gaps) else math.inf)
        cols = np.cumsum(np.concatenate([[3], np.where(mask, 1, rng.integers(2, 5, len(mask)))]))
        start, stop = certificate_oracle._longest_run(np.flatnonzero(~mask), cols)
        assert _gap_scan(cols, cols, 1)[2:] == (start, stop), cols
    assert _gap_scan(np.zeros(0), np.zeros(0), 0.5)[2:] == (0, 0)
    pos = np.array([0.0, 1, 2, 4, 5, 6])
    assert _gap_scan(pos, pos, 1)[2:] == (0, 2)


def test_projection_interval_recurrence_route(desk):
    """The recurrence row of the desk candidate's first E row is a
    nonempty run of recurring cells."""
    theta = float(np.flatnonzero(desk.E.member)[0]) * desk.geom.pitch
    (row,) = recurrence_rows(desk.ifs, desk.cand, [theta], 1e-3)
    assert isinstance(row["recurrence_certified"], bool)
    assert row["recurrence_length"] > 0.0
    lo, hi = row["recurrence_interval"]
    assert hi - lo == pytest.approx(row["recurrence_length"])


def test_projection_intervals_mirror_under_half_turn():
    """theta and theta + pi name the same lines with t negated, so both the
    gap certificates and the recurrence rows come out mirrored; a theta
    just below pi reads row 0 with t negated."""
    four = get_builtin("four_corner")
    geom = GridGeometry(61, t_max=1.5)
    cand = flat_candidate(geom, 0.1, lines_meeting_unit_square(geom))
    theta = round(1.5 / geom.pitch) * geom.pitch
    thetas = [theta, theta + math.pi, 0.0, math.pi - geom.pitch / 4]
    a, b, _, near_pi = certify_projection_intervals(four, thetas, 1e-2)
    rows = recurrence_rows(four, cand, thetas, 1e-2)
    row_a, row_b, row0, row_near_pi = (row["recurrence_interval"] for row in rows)
    assert a.certified and b.certified and row_a is not None
    assert b.interval == pytest.approx((-a.interval[1], -a.interval[0]), abs=1e-12)
    assert row_b == [-row_a[1], -row_a[0]]

    assert cand.L.row_cells[0] > 0
    lo, hi = row_near_pi
    assert [lo, hi] == [-row0[1], -row0[0]]
    # and it sits on the point-gap interval of the same direction, [-1, 0]
    assert near_pi.interval[0] - geom.pitch <= lo < hi <= near_pi.interval[1] + geom.pitch


def _cert_cases():
    """(name, system, candidate): the lines meeting I on a coarse grid, some
    cells dropped and one row emptied, for four_corner, the gasket and the
    turned system; and the coarse four_corner pipeline's own candidate under
    a drawn perturbation."""
    geom = GridGeometry(61, t_max=1.5)
    grid = lines_meeting_unit_square(geom) & (np.random.default_rng(2).random((61, geom.n_t)) < 0.9)
    grid[7] = False
    systems = {
        "four_corner": get_builtin("four_corner"),
        "sierpinski": get_builtin("sierpinski"),
        "turned": _turned_system(("a", "b")),
    }
    cases = [(name, ifs, flat_candidate(geom, 0.15, grid)) for name, ifs in systems.items()]
    cfg = dataclasses.replace(RunConfig(ifs="four_corner"), rho=2.0**-4)
    ifs, _, cand = build_pipeline(cfg)
    omega = draw_assignment(np.random.default_rng(1), ifs, cfg.epsilon)
    cases.append(("four_corner_pipeline", build_perturbed_ifs(ifs, omega, cfg.c1, cfg.rho), cand))
    return cases


def test_certificate_row_equals_point_route():
    """The recurrence rows of `recurrence_rows` equal those of the point
    route (`certificate_oracle.point_route_row`), whether its row route
    runs on the rows of all the angles at once or on each angle's row
    alone: for rows in [0, pi), the same rows a half-turn on, negative
    angles, angles just below pi (row 0 with t negated) and rows with no L
    cells."""
    resolution = 0.05
    for name, ifs, cand in _cert_cases():
        geom = cand.geom
        rows = np.flatnonzero(np.diff(cand.L.ptr))[::5]
        thetas = np.concatenate([rows, rows + geom.n_theta, -rows - 0.3]) * geom.pitch
        thetas = [*thetas.tolist(), math.pi - geom.pitch / 4, math.nextafter(math.pi, 0.0)]
        empty = np.flatnonzero(np.diff(cand.L.ptr) == 0)
        thetas += (empty * geom.pitch).tolist()
        partial = certified = 0
        for theta, row in zip(thetas, recurrence_rows(ifs, cand, thetas, resolution)):
            want = certificate_oracle.point_route_row(ifs, cand, theta, resolution)
            assert row == want == recurrence_rows(ifs, cand, [theta], resolution)[0], (name, theta)
            certified += want["recurrence_certified"]
            _, r = geom.nearest_row(theta)
            partial += 0 < want["recurrence_length"] < cand.L.row_cells[r] * geom.pitch
        assert 0 < certified < len(thetas) and partial > 0 and len(empty) > 0, name
