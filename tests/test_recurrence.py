import dataclasses
import math

import numpy as np
import pytest

from ifsproj import (
    BudgetExceeded,
    GridGeometry,
    GridMembership,
    Line,
    RecurrentCandidate,
    RowRuns,
    Similarity,
    SliceBuilder,
    SliceParams,
    attractor_points,
    build_E,
    build_candidate,
    build_perturbed_ifs,
    certify_projection_interval,
    check_recurrence,
    draw_assignment,
    first_witness,
    first_witness_rows,
    get_builtin,
    make_ifs,
    renormalize_arrays,
    stopping_cylinders,
    two_letter_words,
)
import ifsproj.recurrence
from ifsproj.ifs import MapArrays
from ifsproj.recurrence import _cover, _dilate, _first_true, _longest_run, _pad_runs
import map_oracle as oracle
from certificate_oracle import certify_line
from dilation_oracle import _dilate_wrapped
from membership_oracle import ThreeRectMembership, _pad_wrapped, row_runs
from renormalize_oracle import invert_map, renormalize_map, renormalize_via_carrier


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
    return RecurrentCandidate(
        geom=geom,
        rho=rho,
        L0=runs,
        L=runs,
        L1=runs,
        r_cells=0,
        r1_cells=0,
        e_member=np.ones(geom.n_theta, dtype=bool),
        c5=1.0,
    )


def l_membership(cand: RecurrentCandidate) -> GridMembership:
    """The L membership at the check slack, as `check_recurrence` takes it."""
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


def test_slice_params_validation():
    with pytest.raises(ValueError):
        SliceParams(epsilon=0.3, c7=1e-4, n_phi=10)
    p = SliceParams(epsilon=0.3, c7=0.07, n_phi=9)
    w = 2 * 0.3 / 9
    assert p.phi_cell_width == pytest.approx(w)
    assert p.required_run == int(0.07 / w) + 1 == 2
    assert len(p.phi_centers()) == 9
    assert p.phi_centers()[4] == pytest.approx(0.0)  # odd count centers zero


# --- slice test against a direct reimplementation ---


def brute_best_runs(ifs, row, E, geom, phis):
    """Longest run of consecutive phi cells that pass, per first-block symbol
    and column of one row: one carrier-point renormalization per (column,
    a1, phi, a2)."""
    best = np.zeros((len(ifs.part_one), geom.n_t), dtype=int)
    if not E.member[row]:
        return best
    theta = row * geom.pitch
    maps = []  # maps[a1][phi][a2]: the rotated f_{a1} composed with f_{a2}
    for a1 in ifs.part_one:
        rotated = [oracle.turn(ifs.maps[a1], phi) for phi in phis]
        maps.append([[oracle.compose(f1, ifs.maps[a2]) for a2 in ifs.part_two] for f1 in rotated])
    for j in range(geom.n_t):
        t = (j - geom.m) * geom.pitch
        for i, per_phi in enumerate(maps):
            run = 0
            for per_a2 in per_phi:
                hit = False
                for g in per_a2:
                    v = renormalize_via_carrier(g, Line(theta, t))
                    arg_row = int(round(v.theta / geom.pitch)) % geom.n_theta
                    if E.member[arg_row] and abs(v.t) <= 1.0 + 1e-6:
                        hit = True
                        break
                run = run + 1 if hit else 0
                best[i, j] = max(best[i, j], run)
    return best


def brute_slice_row(ifs, row, E, geom, params):
    best = brute_best_runs(ifs, row, E, geom, params.phi_centers())
    return (best >= params.required_run).sum(axis=0) >= params.n_required


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


@pytest.mark.parametrize("c7,n_phi", [(1e-3, 9), (0.07, 9)])
def test_slice_matches_brute_force(coarse_four_corner, coarse_turned, c7, n_phi):
    for ifs, rho, geom, E in (coarse_four_corner, coarse_turned):
        params = SliceParams(epsilon=0.3, c7=c7, n_phi=n_phi)
        builder = SliceBuilder(ifs, E, geom, params)
        for row in (0, 7, 23, 44):
            member = builder.row_member(row)
            brute = brute_slice_row(ifs, row, E, geom, params)
            assert member.any() or not E.member[row]
            assert np.array_equal(member, brute), f"row {row}"


def test_whole_grid_slice_matches_brute_force(coarse_four_corner, coarse_sierpinski, coarse_turned):
    """all_rows on every row, and row_member on a few, against the direct
    reimplementation, for phi runs from one cell to more than n_phi and one
    or two qualifying first-block symbols."""
    n_phi = 9
    w = 0.6 / n_phi
    phis = SliceParams(epsilon=0.3, c7=w / 2, n_phi=n_phi).phi_centers()
    for ifs, rho, geom, E in (coarse_four_corner, coarse_sierpinski, coarse_turned):
        best = np.array([brute_best_runs(ifs, row, E, geom, phis) for row in range(geom.n_theta)])
        for run in (1, 2, 3, n_phi, n_phi + 1):
            for n_required in (1, 2):
                params = SliceParams(epsilon=0.3, c7=(run - 0.5) * w, n_phi=n_phi, n_required=n_required)
                assert params.required_run == run
                builder = SliceBuilder(ifs, E, geom, params)
                brute = (best >= run).sum(axis=1) >= n_required
                assert np.array_equal(builder.all_rows().grid(geom.n_t), brute), (run, n_required)
                for row in (0, 23, 60):
                    assert np.array_equal(builder.row_member(row), brute[row])
        assert best.max() == n_phi  # some column passes every phi cell


@pytest.mark.parametrize("rows_per_block", [1, 2, 7, None])
def test_slice_does_not_depend_on_block_size(
    monkeypatch, coarse_four_corner, coarse_sierpinski, coarse_turned, rows_per_block
):
    """all_rows with the E rows in blocks of 1, 2 or 7 rows, or all in one
    (None), is bit for bit all_rows on every row at once: on each coarse
    system, and on the gasket with c7 0.05, whose phi runs span 3 cells."""
    systems = (coarse_four_corner, coarse_sierpinski, coarse_turned)
    cases = [(system, SliceParams(epsilon=0.3, c7=1e-3)) for system in systems]
    cases.append((coarse_sierpinski, SliceParams(epsilon=0.3, c7=0.05)))
    assert cases[-1][1].required_run == 3
    for (ifs, rho, geom, E), params in cases:
        builder = SliceBuilder(ifs, E, geom, params)
        monkeypatch.setattr(ifsproj.recurrence, "_SLICE_BLOCK", 1 << 62)
        whole = builder.all_rows()
        assert len(whole.start) > 0
        n_rows = len(E.member_rows()) if rows_per_block is None else rows_per_block
        assert n_rows < len(E.member_rows()) or rows_per_block is None
        monkeypatch.setattr(ifsproj.recurrence, "_SLICE_BLOCK", n_rows * builder.angle_g.size)
        blocked = builder.all_rows()
        for a, b in zip(blocked, whole):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_slice_without_e_rows_is_an_empty_candidate(coarse_sierpinski):
    ifs, rho, geom, E = coarse_sierpinski
    no_rows = dataclasses.replace(E, member=np.zeros_like(E.member))
    runs = SliceBuilder(ifs, no_rows, geom, SliceParams(epsilon=0.3, c7=1e-3)).all_rows()
    assert not runs.ptr.any() and len(runs.ptr) == geom.n_theta + 1 and not len(runs.start)
    with pytest.raises(ValueError, match="empty candidate"):
        build_candidate(no_rows, runs, rho, geom)


def test_desk_slice_holds_one_block_of_rows(desk, traced_peak):
    """all_rows on the desk's 2,735 E rows holds one block's phi tensor at a
    time: 1.5 MB measured, against 29.3 MB for all rows at once."""
    builder = SliceBuilder(desk.ifs, desk.E, desk.geom, desk.res.slice_params)
    runs, peak = traced_peak(builder.all_rows)
    for a, b in zip(runs, desk.cand.L0):
        assert np.array_equal(a, b)
    assert peak <= 3 * 2**20


def test_slice_monotone_in_c7(coarse_four_corner):
    ifs, rho, geom, E = coarse_four_corner
    loose = SliceBuilder(ifs, E, geom, SliceParams(epsilon=0.3, c7=1e-4, n_phi=9))
    tight = SliceBuilder(ifs, E, geom, SliceParams(epsilon=0.3, c7=0.12, n_phi=9))
    for row in (3, 19, 50):
        # decreasing c7 never removes members
        assert not np.any(tight.row_member(row) & ~loose.row_member(row))


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
    touching, nested and repeated runs."""
    n_keys, width = 5, 30
    for _ in range(50):
        n = int(rng.integers(0, 40))
        keys = rng.integers(0, n_keys, n)
        start = rng.integers(0, width - 1, n)
        stop = start + rng.integers(1, 8, n)
        count = np.zeros((n_keys, width + 8), dtype=int)
        for key, a, b in zip(keys, start, stop):
            count[key, a:b] += 1
        for k in (1, 2, 3):
            key, a, b = _cover(keys, start, stop, k)
            got = RowRuns.from_rows(n_keys, key, a, b)
            assert np.array_equal(got.grid(width + 8), count >= k)
            # maximal runs: none empty, none touching the next one of its key
            assert np.all(a < b) and not np.any((key[1:] == key[:-1]) & (a[1:] <= b[:-1]))


def test_candidate_save_load_roundtrip(desk, tmp_path):
    """candidate.npz holds every layer as its painted boolean grid, packed
    to bits, and every scalar field; a second save writes the same bytes."""
    cand, p = desk.cand, tmp_path / "cand.npz"
    cand.save(str(p))
    n_t = cand.geom.n_t
    with np.load(p) as z:
        assert int(z["n_theta"]) == cand.geom.n_theta
        assert float(z["t_max"]) == cand.geom.t_max
        assert float(z["rho"]) == cand.rho
        assert int(z["r_cells"]) == cand.r_cells
        assert int(z["r1_cells"]) == cand.r1_cells
        assert float(z["c5"]) == cand.c5
        for name in ("L0", "L", "L1"):
            grid = np.unpackbits(z[name], axis=1, count=n_t).astype(bool)
            assert np.array_equal(grid, getattr(cand, name).grid(n_t))
        e_member = np.unpackbits(z["e_member"], count=cand.geom.n_theta).astype(bool)
        assert np.array_equal(e_member, cand.e_member)
    p2 = tmp_path / "cand2.npz"
    cand.save(str(p2))
    assert p.read_bytes() == p2.read_bytes()


# --- recurrence ---


def test_all_lines_meeting_square_recur_four_corner():
    """Depth-2 squares tile I, so a line meeting I renormalizes to a line
    meeting I; on the grid every such cell recurs within the rho/2 slack."""
    ifs = get_builtin("four_corner")
    geom = GridGeometry(181, t_max=1.2)
    rho = 0.05
    cand = flat_candidate(geom, rho, lines_meeting_unit_square(geom))
    rep = check_recurrence(ifs, cand, l_membership(cand))
    assert rep.total > 10_000
    assert rep.recurred == rep.total, f"failed on {rep.total - rep.recurred}"


def test_single_far_line_fails():
    ifs = get_builtin("four_corner")
    geom = GridGeometry(61, t_max=8.0)
    member = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    member[0, geom.m + int(6.0 / geom.pitch)] = True
    cand = flat_candidate(geom, 0.05, member)
    rep = check_recurrence(ifs, cand, l_membership(cand))
    assert rep.total == 1 and rep.recurred == 0
    assert rep.failures


def test_witnesses_reverify(desk):
    mem = l_membership(desk.cand)
    rep = check_recurrence(desk.ifs, desk.cand, mem)
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


@pytest.mark.parametrize("slack_pitches", [1.0, 2.0000003, 2.5, 0.4])
def test_row_route_matches_point_route(rng, slack_pitches):
    """first_witness_rows equals first_witness on every cell of a source
    grid: rows of 0, 1 and 2+ runs in source and target, the rows at theta 0
    and pi - pitch, the rotated and reflected words of the turned system,
    words that send whole rows onto window edges (images on the grid or
    half grid), words that send a cell exactly one slack (or none) off a
    target cell, and images far beyond t_max. Slacks: one pitch (search
    rule), rho/2 = 2.0000003 pitch (desk check rule), 2.5 pitch, and below
    half a pitch, where the point route answers for every cell."""
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
    member = l_membership(desk.cand)
    rep, peak = traced_peak(lambda: check_recurrence(perturbed, desk.cand, member))
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
        rep = check_recurrence(ifs, cand, member)
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


def test_projection_intervals_mirror_under_half_turn():
    """theta and theta + pi name the same lines with t negated, so both
    certificates come out mirrored; a theta just below pi reads row 0 with t
    negated."""
    four = get_builtin("four_corner")
    geom = GridGeometry(61, t_max=1.5)
    cand = flat_candidate(geom, 0.1, lines_meeting_unit_square(geom))
    pts = attractor_points(four, 5e-3)

    def cert(theta):
        return certify_projection_interval(four, theta, 1e-2, candidate=cand, points=pts)

    theta = round(1.5 / geom.pitch) * geom.pitch
    a, b = cert(theta), cert(theta + math.pi)
    assert a.certified and b.certified and a.recurrence_interval is not None
    assert b.interval == pytest.approx((-a.interval[1], -a.interval[0]), abs=1e-12)
    assert b.recurrence_interval == (-a.recurrence_interval[1], -a.recurrence_interval[0])

    assert cand.L.row_cells[0] > 0
    row0, near_pi = cert(0.0), cert(math.pi - geom.pitch / 4)
    lo, hi = near_pi.recurrence_interval
    assert (lo, hi) == (-row0.recurrence_interval[1], -row0.recurrence_interval[0])
    # and it sits on the point-gap interval of the same direction, [-1, 0]
    assert near_pi.interval[0] - geom.pitch <= lo < hi <= near_pi.interval[1] + geom.pitch
