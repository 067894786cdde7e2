from itertools import product

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import ifsproj
from ifsproj import (
    ConfigError,
    CoverageTester,
    GridGeometry,
    GridMembership,
    RunConfig,
    SearchOutcome,
    attractor_points,
    build_pipeline,
    build_perturbed_ifs,
    check_recurrence,
    closeness_report,
    get_builtin,
    hull_obstruction,
    invariant_polygon,
    make_ifs,
    omega_from_json,
    omega_to_json,
    renormalize_arrays,
    search_omega0,
    two_letter_words,
)
from ifsproj.search import _IID_BLOCK, _STALL_LIMIT, draw_omegas, omega_letters
import map_oracle as oracle
from map_oracle import draw_assignment
from test_acceptance import farthest_line, obstruction_faults, settlement_faults
from test_recurrence import _turned_system, flat_candidate, l_membership, lines_meeting_unit_square

RHO = 4.0**-4


@pytest.fixture(scope="module")
def recurrent_instance():
    """Four-corner system with the lines-meeting-I candidate: genuinely
    recurrent, so near-identity perturbations give full coverage."""
    ifs = get_builtin("four_corner")
    geom = GridGeometry(181, t_max=1.2)
    cand = flat_candidate(geom, 0.05, lines_meeting_unit_square(geom))
    return ifs, cand


def test_perturbation_validates_gamma():
    """`omega_from_json` takes gamma components just inside (-1, 1) and
    refuses one on or past the edge of the box."""
    ifs = get_builtin("sierpinski")

    def omega(gamma_b):
        return {"a": {"phi": 0.1, "gamma": [0.99, -0.99]}, "b": {"phi": 0.1, "gamma": gamma_b}}

    assert omega_from_json(ifs, omega([0.99, -0.99])).shape == (2, 3)
    for gamma in ([1.0, 0.0], [0.0, -1.3]):
        with pytest.raises(ConfigError, match=r"\(-1,1\)"):
            omega_from_json(ifs, omega(gamma))


def test_omega_json_reads_in_part_one_order():
    """On the gasket with part_one (b, a), out of alphabet order,
    `omega_from_json` lays each symbol's numbers out in part_one order, so
    the row's letters are each symbol's map turned by its own phi and moved
    by its own gamma c1 rho (`map_oracle.turn`, read off the JSON by
    symbol, and `map_oracle.perturbed_maps`), and `omega_to_json` gives
    float input back unchanged, symbols sorted."""
    gasket = get_builtin("sierpinski")
    ifs = make_ifs(gasket.maps, part_one=["b", "a"], alphabet=gasket.alphabet)
    data = {
        "a": {"phi": 0.123456789, "gamma": [0.25, -0.5]},
        "b": {"phi": -0.2, "gamma": [0.0, 0.875]},
    }
    omega = omega_from_json(ifs, data)
    assert omega.tolist() == [[-0.2, 0.0, 0.875], [0.123456789, 0.25, -0.5]]
    back = omega_to_json(ifs, omega)
    assert back == data and list(back) == ["a", "b"]
    shift = 8.0 * RHO
    by_symbol = [
        oracle.turn(f, data[a]["phi"], tuple(g * shift for g in data[a]["gamma"])) if a in data else f
        for a, f in zip(ifs.alphabet, oracle.letters(ifs))
    ]
    got = omega_letters(ifs, omega[None], 8.0, RHO).take(0)
    for want in (by_symbol, oracle.perturbed_maps(ifs, omega, 8.0, RHO)):
        fields = zip(*((f.ratio, f.angle, f.reflect, *f.translation) for f in want))
        for x, y in zip(got.fields(), fields):
            assert np.array_equal(x, np.array(y, dtype=x.dtype))


def test_perturb_map_geometry():
    """A perturbation turns b about the center of its square and then moves
    it by gamma c1 rho; the part_two letter c stays as it is."""
    ifs = get_builtin("sierpinski")
    f = ifs.maps["b"]
    center = ifs.letter_maps().images((0.5, 0.5))

    def perturbed(omega_b):
        return omega_letters(ifs, np.array([[(0.0, 0.0, 0.0), omega_b]]), 8.0, RHO).take(0)

    rotated = perturbed((0.3, 0.0, 0.0))
    # pure rotation about the image square center keeps the center put
    assert np.allclose(rotated.images((0.5, 0.5)), center)
    assert rotated.ratio[1] == f.ratio and rotated.reflect[1] == f.reflect
    assert rotated.angle[1] == pytest.approx(f.angle + 0.3)
    shifted = perturbed((0.0, 0.5, -0.25))
    assert np.allclose(shifted.images((0.5, 0.5))[1] - center[1], np.array([0.5, -0.25]) * 8.0 * RHO)
    for moved in (rotated, shifted):
        assert np.array_equal(moved.take([2]).images((0.3, 0.7)), ifs.letter_maps(["c"]).images((0.3, 0.7)))


def test_build_perturbed_requires_part_one_domain():
    """A row with one perturbation for the gasket's two part_one symbols is
    refused, not broadcast over both."""
    ifs = get_builtin("sierpinski")
    with pytest.raises(ValueError, match="part_one"):
        build_perturbed_ifs(ifs, np.zeros((1, 3)), 8.0, RHO)


def test_random_draws_stay_epsilon_close(rng):
    """With rho <= eps/(2 c1 c0) every admissible perturbation is eps-close."""
    ifs = get_builtin("sierpinski")
    worst = 0.0
    for _ in range(100):
        a = draw_assignment(rng, ifs, 0.3)
        pert = build_perturbed_ifs(ifs, a, 8.0, RHO)
        rep = closeness_report(ifs, pert, 0.3, 8.0, RHO)
        assert rep["epsilon_ok"], rep
        worst = max(worst, rep["epsilon_distance"])
    assert rep["sufficient_bound_ok"]
    assert worst < 0.3


def test_search_accepts_on_recurrent_instance(recurrent_instance):
    ifs, cand = recurrent_instance
    out = search_omega0(ifs, cand, budget=5, seed=0, mode="iid", c1=1e-9, epsilon=1e-9)
    assert out.omega0 is not None
    assert out.accepted_attempt == 0
    assert out.coverage == 1.0
    perturbed = build_perturbed_ifs(ifs, out.omega0, 1e-9, cand.rho)
    rep = check_recurrence(perturbed, cand)
    assert rep.recurred == rep.total


def test_per_symbol_accepts_on_recurrent_instance(recurrent_instance):
    ifs, cand = recurrent_instance
    out = search_omega0(
        ifs, cand, budget=10, seed=0, mode="per_symbol", c1=1e-9, epsilon=1e-9
    )
    assert out.omega0 is not None and out.coverage == 1.0


def _iid_one_by_one(ifs, cand, budget, seed, c1, epsilon) -> SearchOutcome:
    """The iid search written out one attempt at a time: the best probe
    fraction (strictly greater wins), a full evaluation for each probe-clean
    attempt, and the first fully covering attempt accepted."""
    tester = CoverageTester(ifs, cand, c1)
    best_frac, best = -1.0, None
    for k in range(budget):
        a = draw_assignment(np.random.default_rng([seed, k]), ifs, epsilon)
        probe, _ = tester.coverage(tester.words(a[None]), tester.probe_idx)
        frac = float(np.count_nonzero(probe) / len(probe))
        if frac > best_frac:
            best_frac, best = frac, a
        if probe.all() and tester.coverage(tester.words(a[None]))[0].all():
            return SearchOutcome(a, k + 1, k, a, 1.0, "iid")
    covered = tester.coverage(tester.words(best[None]))[0]
    coverage = float(np.count_nonzero(covered) / cand.delta_count)
    return SearchOutcome(None, budget, None, best, coverage, "iid")


def test_iid_blocks_match_one_attempt_at_a_time(recurrent_instance, monkeypatch):
    """Drawing and probing iid attempts in blocks, and dropping the draws
    that cannot beat the best, change no outcome. Cases (budget, c1,
    epsilon, accepted attempt) on four_corner: an acceptance at attempt 23,
    the eighth of its block; one at attempt 11 although attempt 13 of the
    same block passes too; and two failing searches whose budgets end inside
    a block, in the second of which attempts 11 and 13 tie at a clean probe
    and the first stays best. First the gasket on the same candidate, which
    no draw covers, over a budget ending inside its fourth block: `probe`
    drops most of its draws after the first block. The block is pinned to
    16 draws, the size these budgets and attempts are chosen for."""
    four_corner, cand = recurrent_instance
    block = 16
    monkeypatch.setattr(ifsproj.search, "_IID_BLOCK", block)
    dropped = []
    probe = CoverageTester.probe

    def counting(self, assignments, beat):
        counts = probe(self, assignments, beat)
        dropped.append(int(np.count_nonzero(counts == -1)))
        return counts

    monkeypatch.setattr(CoverageTester, "probe", counting)
    cases = (
        (get_builtin("sierpinski"), 3 * block + 5, 0.5, 0.3, None),
        (four_corner, 40, 0.3, 0.3, 23),
        (four_corner, 40, 0.3, 0.1, 11),
        (four_corner, 21, 0.3, 0.3, None),
        (four_corner, 21, 0.5, 0.2, None),
    )
    drops = []
    for ifs, budget, c1, epsilon, accepted in cases:
        dropped.clear()
        out = search_omega0(ifs, cand, budget=budget, seed=0, mode="iid", c1=c1, epsilon=epsilon)
        drops.append(sum(dropped))
        assert dropped[0] == 0
        assert out.accepted_attempt == accepted
        reference = _iid_one_by_one(ifs, cand, budget, 0, c1, epsilon)
        assert out.to_json_dict(ifs) == reference.to_json_dict(ifs)
    assert drops[0] > cases[0][1] // 2 and drops[1:] == [15, 0, 5, 5]
    assert 0 < 23 % block < block - 1 and budget % block
    best = draw_assignment(np.random.default_rng([0, 11]), ifs, epsilon)
    assert np.array_equal(out.best_assignment, best)
    assert 0.0 < out.coverage < 1.0


def _per_symbol_whole_net(ifs, cand, budget, seed, c1, epsilon):
    """The per_symbol search written out one attempt at a time: one draw
    per attempt from one stream; the first attempt and each one after
    _STALL_LIMIT rejections in a row take the draw whole, every other
    attempt k gives the draw's perturbation of symbol k mod |part_one| to the
    current assignment and keeps it when the whole net then has strictly
    fewer uncovered cells; the best assignment has the most covered cells,
    the first such wins. Returns the outcome and the attempts that took a
    fresh draw."""
    tester = CoverageTester(ifs, cand, c1)
    rng = np.random.default_rng([seed])
    fresh, best, best_covered, stall = [], None, None, _STALL_LIMIT
    for k in range(budget):
        draw = draw_assignment(rng, ifs, epsilon)
        if stall == _STALL_LIMIT:
            fresh.append(k)
            candidate = draw
        else:
            sym = k % len(ifs.part_one)
            candidate = current.copy()
            candidate[sym] = draw[sym]
        covered = tester.coverage(tester.words(candidate[None]))[0]
        if stall == _STALL_LIMIT or np.count_nonzero(~covered) < np.count_nonzero(~current_covered):
            current, current_covered, stall = candidate, covered, 0
            if best is None or np.count_nonzero(covered) > np.count_nonzero(best_covered):
                best, best_covered = current, covered
        else:
            stall += 1
        if best_covered.all():
            return SearchOutcome(best, k + 1, k, best, 1.0, "per_symbol"), fresh
    coverage = float(np.count_nonzero(best_covered) / cand.delta_count) if best is not None else 0.0
    return SearchOutcome(None, budget, None, best, coverage, "per_symbol"), fresh


def test_per_symbol_matches_whole_net_hill_climb(desk):
    """The per_symbol search is the hill climb of `_per_symbol_whole_net`,
    field for field: on the gasket over the coarse lines-meeting-I candidate
    (seed 0, budget 60), whose climb stalls and restarts at attempt 51; on
    four_corner there, which it accepts at attempt 23; with budget 0; and on
    the desk at the bench's budget 5 (seed 1)."""
    runs = [
        (*_coarse_candidate("sierpinski"), 60, 0, 0.5, 0.3),
        (*_coarse_candidate("four_corner"), 40, 0, 0.5, 0.3),
        (*_coarse_candidate("four_corner"), 0, 0, 0.5, 0.3),
        (desk.ifs, desk.cand, 5, 1, desk.cfg.c1, desk.cfg.epsilon),
    ]
    outs, fresh = [], []
    for ifs, cand, budget, seed, c1, epsilon in runs:
        out = search_omega0(ifs, cand, budget=budget, seed=seed, mode="per_symbol", c1=c1, epsilon=epsilon)
        reference, at = _per_symbol_whole_net(ifs, cand, budget, seed, c1, epsilon)
        assert out.to_json_dict(ifs) == reference.to_json_dict(ifs)
        outs.append(out)
        fresh.append(at)
    assert fresh == [[0, 51], [0], [], [0]]
    assert [o.accepted_attempt for o in outs] == [None, 23, None, None]
    assert out.attempts == 5 and 0.0 < out.coverage < 1.0


_SIZES_BUDGET = 2 * 64 + 9  # two blocks of 64 draws and a partial one
_SIZES_CASES = {  # system: (seed, accepted attempt) at c1 0.5, epsilon 0.3
    "sierpinski": [(0, None)],
    "four_corner": [(2, 125), (3, None)],
}


@pytest.fixture(scope="module")
def one_at_a_time():
    """Per system of _SIZES_CASES: the coarse candidate and
    `_iid_one_by_one`'s outcome of each case, computed once for every block
    size."""
    refs = {}
    for system, cases in _SIZES_CASES.items():
        ifs, cand = _coarse_candidate(system)
        outcomes = [
            _iid_one_by_one(ifs, cand, _SIZES_BUDGET, seed, 0.5, 0.3).to_json_dict(ifs)
            for seed, _ in cases
        ]
        refs[system] = ifs, cand, outcomes
    return refs


@pytest.mark.parametrize("block", [1, 16, 64])
@pytest.mark.parametrize("system", list(_SIZES_CASES))
def test_iid_block_size_changes_no_outcome(system, block, one_at_a_time, monkeypatch):
    """The iid search gives the one-at-a-time outcome whatever `_IID_BLOCK`
    is, over a budget of two 64-draw blocks and a partial one: on the gasket
    over the coarse lines-meeting-I candidate, which no draw covers, and on
    four_corner there, which accepts attempt 125 (in the second 64-draw
    block) at seed 2 and fails at seed 3."""
    ifs, cand, outcomes = one_at_a_time[system]
    monkeypatch.setattr(ifsproj.search, "_IID_BLOCK", block)
    for (seed, accepted), reference in zip(_SIZES_CASES[system], outcomes):
        out = search_omega0(ifs, cand, budget=_SIZES_BUDGET, seed=seed, mode="iid", c1=0.5, epsilon=0.3)
        assert out.accepted_attempt == accepted
        assert out.to_json_dict(ifs) == reference


def test_probe_is_consistent_with_full_eval(recurrent_instance, rng):
    ifs, cand = recurrent_instance
    tester = CoverageTester(ifs, cand, c1=0.5)
    a = draw_assignment(rng, ifs, 0.3)
    full, _ = tester.coverage(tester.words(a[None]))
    probe, _ = tester.coverage(tester.words(a[None]), tester.probe_idx)
    assert np.array_equal(full[tester.probe_idx], probe)


def test_whole_grid_evaluations_stay_row_wise(monkeypatch):
    """A full coverage and a recurrence check send at most 10% of their cells
    through the point route (counted at every binding of renormalize_arrays),
    so neither can quietly fall back to evaluating cell by cell. The tester
    is built before counting starts: its set-up renormalizes the probe points
    once under each unperturbed word (`probe_order`), a fixed cost of the
    probe size, not of a coverage evaluation."""
    cfg = RunConfig(ifs="sierpinski", rho=4.0**-3)
    ifs, _, cand = build_pipeline(cfg)
    tester = CoverageTester(ifs, cand, cfg.c1)
    points = []

    def counting(g, thetas, ts, sincos=None):
        points.append(len(thetas))
        return renormalize_arrays(g, thetas, ts, sincos)

    for mod in (ifsproj.lines, ifsproj.recurrence, ifsproj.search):
        if hasattr(mod, "renormalize_arrays"):
            monkeypatch.setattr(mod, "renormalize_arrays", counting)
    assignment = draw_assignment(np.random.default_rng(0), ifs, cfg.epsilon)
    covered, _ = tester.coverage(tester.words(assignment[None]))
    assert covered.any() and not covered.all()
    assert 0 < sum(points) <= 0.1 * len(covered)

    points.clear()
    perturbed = build_perturbed_ifs(ifs, assignment, cfg.c1, cfg.rho)
    rep = check_recurrence(perturbed, cand)
    assert 0 < rep.recurred < rep.total
    assert 0 < sum(points) <= 0.1 * rep.total


def test_coverage_witnesses_reverify(recurrent_instance, rng):
    ifs, cand = recurrent_instance
    tester = CoverageTester(ifs, cand, c1=0.5)
    a = draw_assignment(rng, ifs, 0.3)
    covered, witness = tester.coverage(tester.words(a[None]))
    maps = oracle.perturbed_maps(ifs, a, 0.5, cand.rho)
    words = [g for _, g in oracle.two_letter_words(ifs.alphabet, maps)]
    member0 = GridMembership(cand.geom, cand.L0, cand.search_slack)
    idx = np.flatnonzero(covered)[:: max(1, covered.sum() // 64)]
    for i in idx:
        g = words[witness[i]]
        th, tt = renormalize_arrays(g, *cand.L1.lines(cand.geom, np.array([i])))
        assert member0.contains(th, tt)[0]


def _coarse_candidate(system):
    """A system and the lines-meeting-I candidate on a coarse grid."""
    ifs = _turned_system(("a", "b")) if system == "turned" else get_builtin(system)
    geom = GridGeometry(181, t_max=1.2)
    return ifs, flat_candidate(geom, 0.05, lines_meeting_unit_square(geom))


@pytest.mark.parametrize("system", ["four_corner", "sierpinski", "turned"])
def test_ordered_probe_changes_no_flag(system):
    """Probing in the unperturbed system's word order gives the canonical
    order's covered flags, each witness it returns re-verifies, and `probe`
    with beat -1 counts the canonical flags of every draw: 2 * _IID_BLOCK + 8
    draws in blocks of _IID_BLOCK, the last one partial, on four_corner (4
    of its 16 words unperturbed), the gasket and the turned system (rotated
    and reflected maps)."""
    ifs, cand = _coarse_candidate(system)
    geom = cand.geom
    tester = CoverageTester(ifs, cand, c1=0.5)
    order = tester.probe_order
    assert (order != np.arange(len(order))[:, None]).any()
    assert all(np.array_equal(np.sort(col), np.arange(len(order))) for col in order.T)
    thetas, ts = cand.L1.lines(geom, tester.probe_idx)
    n = len(thetas)
    rng = np.random.default_rng(5)
    draws = draw_omegas(rng, ifs, 0.3, 2 * _IID_BLOCK + 8)
    reordered = False
    for first in range(0, len(draws), _IID_BLOCK):
        block = draws[first : first + _IID_BLOCK]
        counts = tester.probe(block, -1)
        covered, witness = tester.coverage(tester.words(block), tester.probe_idx, order)
        canonical, canonical_witness = tester.coverage(tester.words(block), tester.probe_idx)
        assert np.array_equal(counts, canonical.reshape(len(block), n).sum(axis=1))
        assert np.array_equal(covered, canonical)
        assert np.array_equal(witness >= 0, covered)
        reordered |= not np.array_equal(witness, canonical_witness)
        # renormalize each covered point by its witness word
        words = two_letter_words(omega_letters(ifs, block, 0.5, cand.rho))
        pair = np.flatnonzero(covered)
        b, i = np.divmod(pair, n)
        g = words.take((b, witness[pair]))
        assert tester.member0.contains(*renormalize_arrays(g, thetas[i], ts[i])).all()
    assert len(block) < _IID_BLOCK and reordered
    assert covered.any() and not covered.all()


@pytest.mark.parametrize("system", ["four_corner", "sierpinski", "turned"])
def test_probe_drops_only_draws_that_cannot_beat(system, monkeypatch):
    """`probe(block, beat)` is an exact search: each draw gets its count of
    covered probe points where that exceeds beat and -1 where it does not,
    for beat -1, 0, the median count, n - 1 and n (n probe points); the
    draws of `test_ordered_probe_changes_no_flag`. From the median up some
    draws are dropped before the last stage, so fewer (draw, point) pairs
    are evaluated than the probe has."""
    ifs, cand = _coarse_candidate(system)
    tester = CoverageTester(ifs, cand, c1=0.5)
    n = len(tester.probe_idx)
    assert len(tester.probe_stages) > 2
    assert np.array_equal(np.sort(np.concatenate(tester.probe_stages)), np.arange(n))
    rng = np.random.default_rng(5)
    draws = draw_omegas(rng, ifs, 0.3, 2 * _IID_BLOCK + 8)
    blocks = [draws[first : first + _IID_BLOCK] for first in range(0, len(draws), _IID_BLOCK)]
    exact = [
        tester.coverage(tester.words(b), tester.probe_idx)[0].reshape(len(b), n).sum(axis=1)
        for b in blocks
    ]
    pairs = []
    coverage = tester.coverage

    def counting(words, indices, order):
        pairs.append(len(words.ratio) * len(indices))
        return coverage(words, indices, order)

    monkeypatch.setattr(tester, "coverage", counting)
    median = int(np.median(np.concatenate(exact)))
    for beat in (-1, 0, median, n - 1, n):
        pairs.clear()
        for block, count in zip(blocks, exact):
            assert np.array_equal(tester.probe(block, beat), np.where(count > beat, count, -1))
        assert (sum(pairs) < len(draws) * n) == (beat >= median)


def test_desk_per_symbol_search_holds_no_stale_flags(desk, traced_peak):
    """The desk per_symbol search (budget 5, seed 1) holds no covered flags
    between full coverages, only uncovered counts: no witness array, no
    candidate's flags and no list of uncovered indices. Its peak stays
    under 5.5 bytes per probe-net cell, one full coverage's own scratch
    (int16 witnesses and their flags) included."""
    out, peak = traced_peak(
        lambda: search_omega0(
            desk.ifs, desk.cand, budget=5, seed=1, mode="per_symbol",
            c1=desk.cfg.c1, epsilon=desk.cfg.epsilon,
        )
    )
    assert out.attempts == 5 and 0.0 < out.coverage < 1.0
    assert peak < 5.5 * desk.cand.delta_count


def _held_bytes(obj) -> int:
    """Bytes of the arrays obj holds itself, in its row runs, and in the
    memberships it holds."""
    total = 0
    for v in vars(obj).values():
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += sum(a.nbytes for a in v if isinstance(a, np.ndarray))
        elif isinstance(v, GridMembership):
            total += _held_bytes(v)
    return total


def test_memberships_hold_no_per_cell_arrays():
    """The candidate, the probe net and the memberships are held as run
    lists: the candidate's layers, a CoverageTester with its L0 membership,
    and the L membership of the check hold fewer bytes than the grid has
    cells."""
    ifs, _, cand = build_pipeline(RunConfig(ifs="sierpinski", rho=4.0**-3))
    tester = CoverageTester(ifs, cand, 8.0)
    held = _held_bytes(cand) + _held_bytes(tester) + _held_bytes(l_membership(cand))
    assert held < cand.geom.n_theta * cand.geom.n_t


def test_search_is_deterministic(recurrent_instance):
    ifs, cand = recurrent_instance
    kw = dict(budget=6, seed=11, c1=0.5, epsilon=0.3)
    a = search_omega0(ifs, cand, mode="iid", **kw)
    b = search_omega0(ifs, cand, mode="iid", **kw)
    assert a.to_json_dict(ifs) == b.to_json_dict(ifs)
    c = search_omega0(ifs, cand, mode="per_symbol", **kw)
    d = search_omega0(ifs, cand, mode="per_symbol", **kw)
    assert c.to_json_dict(ifs) == d.to_json_dict(ifs)


def test_search_reports_best_on_failure(recurrent_instance):
    ifs, cand = recurrent_instance
    # c1 large enough that random translations break coverage
    out = search_omega0(
        ifs, cand, budget=4, seed=2, mode="iid", c1=2.0, epsilon=0.3
    )
    assert out.omega0 is None
    assert out.best_assignment is not None
    assert 0.0 < out.coverage < 1.0
    assert out.estimated_failure_prob == pytest.approx(1.0 - out.coverage)


def test_unknown_mode_rejected(recurrent_instance):
    ifs, cand = recurrent_instance
    with pytest.raises(ValueError, match="mode"):
        search_omega0(ifs, cand, budget=1, seed=0, mode="annealing", c1=8.0, epsilon=0.3)


# --- hull obstruction ---


def test_no_obstruction_on_recurrent_instance(recurrent_instance):
    ifs, cand = recurrent_instance
    assert search_omega0(ifs, cand, budget=1, seed=0, mode="iid", c1=1e-9, epsilon=1e-9).omega0 is not None
    assert hull_obstruction(ifs, cand, c1=1e-9, epsilon=1e-9) is None


@pytest.mark.parametrize("ifs", [get_builtin("four_corner"), _turned_system(("b", "c"))])
def test_obstruction_on_single_far_line(ifs):
    geom = GridGeometry(61, t_max=8.0)
    member = np.zeros((geom.n_theta, geom.n_t), dtype=bool)
    col = geom.m + int(6.0 / geom.pitch)
    member[0, col] = True
    cand = flat_candidate(geom, 0.05, member)
    obs = hull_obstruction(ifs, cand, c1=8.0, epsilon=0.3)
    assert obs is not None
    for rule in ("search", "check"):
        assert (obs[rule]["cell"]["row"], obs[rule]["cell"]["col"]) == (0, col)
        assert obs[rule]["distance"] > obs[rule]["bound"]
    assert obstruction_faults(obs, ifs, cand, 8.0, 0.3) == []
    assert search_omega0(ifs, cand, budget=3, seed=0, mode="iid", c1=8.0, epsilon=0.3).omega0 is None


@pytest.mark.parametrize("part_one", [("a", "b"), ("c",)])
def test_invariant_polygon_holds_perturbed_attractors(part_one, rng):
    ifs = _turned_system(part_one)
    c1, eps = 8.0, 0.3
    poly = invariant_polygon(ifs, c1, RHO, eps)
    assert poly is not None
    edges = np.roll(poly, -1, axis=0) - poly
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    offsets = (normals * poly).sum(axis=1)
    edge = 1.0 - 1e-12  # gamma must stay inside the open box
    corners = [
        np.array([(sp * eps, sx * edge, sy * edge)] * len(part_one))
        for sp, sx, sy in product((-1, 1), repeat=3)
    ]
    for assignment in corners + [draw_assignment(rng, ifs, eps) for _ in range(12)]:
        pts = attractor_points(build_perturbed_ifs(ifs, assignment, c1, RHO), 1e-2)
        assert (normals @ pts.T <= offsets[:, None] + 1e-12).all()


def test_verifier_rejects_tampered_certificate(desk):
    cfg = desk.cfg
    obs = hull_obstruction(desk.ifs, desk.cand, cfg.c1, cfg.epsilon)

    def faults(o):
        report = {"status": "no omega0 found", "obstruction": o}
        return settlement_faults(report, desk.ifs, desk.cand, cfg.c1, cfg.epsilon)

    assert faults(obs) == []
    assert faults(None) == ["no obstruction certificate"]
    # both rules' cells are the farthest of their layers
    poly = np.asarray(obs["polygon"])
    for rule in ("search", "check"):
        for key, layer in (("distance", obs[rule]["source"]), ("target_distance", obs[rule]["target"])):
            want = farthest_line(getattr(desk.cand, layer).grid(desk.geom.n_t), desk.geom, poly)[0]
            assert abs(obs[rule][key] - want) <= 1e-12, (rule, key)
    found = {"status": "omega0 found", "check": {"fraction": 1.0}, "obstruction": obs}
    assert settlement_faults(found, desk.ifs, desk.cand, cfg.c1, cfg.epsilon) == [
        "omega0 reported next to an obstruction"
    ]

    # move the search cell to the middle of its row, a line that crosses P
    row = obs["search"]["cell"]["row"]
    cols = np.flatnonzero(desk.cand.L1.grid(desk.geom.n_t)[row])
    cell = {**obs["search"]["cell"], "col": int(cols[len(cols) // 2])}
    inside = {**obs, "search": {**obs["search"], "cell": cell, "distance": 0.0}}
    assert [f.split(":")[0] for f in faults(inside)] == ["search"]
    assert "<= bound" in faults(inside)[0]

    inflated = {**obs, "check": {**obs["check"], "distance": 2 * obs["check"]["distance"]}}
    assert [f.split(" distance")[0] for f in faults(inflated)] == ["check: claimed"]

    shrunk = {**obs, "polygon": (0.95 * np.asarray(obs["polygon"])).tolist()}
    assert any("outside itself" in f for f in faults(shrunk))


def test_farthest_lines_stay_uncovered(desk):
    """The lemma behind hull_obstruction, seen through the evaluators: the
    probe-net line farthest from a perturbed attractor's hull is covered by
    no word, and neither is the farthest L line under the check rule."""
    cfg, cand, geom = desk.cfg, desk.cand, desk.geom
    tester = CoverageTester(desk.ifs, cand, cfg.c1)
    member = GridMembership(geom, cand.L, cand.check_slack)
    L, L1 = cand.L.grid(geom.n_t), cand.L1.grid(geom.n_t)
    rng = np.random.default_rng(8)
    for _ in range(2):
        assignment = draw_assignment(rng, desk.ifs, cfg.epsilon)
        perturbed = build_perturbed_ifs(desk.ifs, assignment, cfg.c1, cfg.rho)
        pts = attractor_points(perturbed, 2.0**-8)
        hull = pts[ConvexHull(pts).vertices]

        dist, row, col = farthest_line(L1, geom, hull)
        assert dist > 0.05
        i = int(np.count_nonzero(L1.ravel()[: row * geom.n_t + col]))
        th, tt = cand.L1.lines(geom, np.array([i]))
        assert (th[0], tt[0]) == (row * geom.pitch, (col - geom.m) * geom.pitch)
        covered, _ = tester.coverage(tester.words(assignment[None]), indices=np.array([i]))
        assert not covered[0]

        dist, row, col = farthest_line(L, geom, hull)
        assert dist > 0.05
        th, tt = np.array([row * geom.pitch]), np.array([(col - geom.m) * geom.pitch])
        words = two_letter_words(perturbed.letter_maps())
        for w in range(len(words.ratio)):
            assert not member.contains(*renormalize_arrays(words.take(w), th, tt))[0]
