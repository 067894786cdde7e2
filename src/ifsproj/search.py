"""Small perturbations of an IFS and the randomized search for a covering one.

A perturbation rotates one map's image square about its center and shifts it
by gamma * c1 * rho; ratios never change. An assignment gives one
perturbation per first-block symbol. An omega array holds n assignments as
an (n, part_one, 3) array: each part_one symbol's (phi, gamma_x, gamma_y),
symbols in part_one order; one assignment is a (part_one, 3) row. That is
the only form an assignment takes: `omega_from_json` and `omega_to_json`
read and write the omega file's JSON. The search draws assignments from a
deterministic stream and accepts the first whose two-letter renormalizations
send every probe-net point back into the candidate core (within grid pitch).

`hull_obstruction` proves, when it can, that no admissible assignment is ever
accepted: a convex polygon P mapped into itself by every perturbed map makes
each two-letter renormalization push lines away from P by the factor
1/r_max^2, so the candidate line farthest from P cannot come back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ifs import IfsSpec, MapArrays, Similarity, _finite_number, epsilon_distance
from .lines import offsets
from .recurrence import (
    GridGeometry,
    GridMembership,
    RecurrentCandidate,
    RowRuns,
    first_witness,
    first_witness_rows,
    two_letter_words,
)


def omega_letters(ifs: IfsSpec, omegas: np.ndarray, c1: float, rho: float) -> MapArrays:
    """The letter maps of ifs under each assignment of an omega array, as
    (assignments, letters) arrays in alphabet order: each part_one letter
    turned by its phi about the center of its square f_a(I) and moved by
    gamma * c1 * rho (`MapArrays.turned`), the part_two letters as they
    are."""
    n, alphabet = len(omegas), ifs.alphabet
    full = np.zeros((n, len(alphabet), 3))  # part_two letters: phi 0, gamma 0
    full[:, [alphabet.index(a) for a in ifs.part_one]] = omegas
    shift = full[..., 1:] * (c1 * rho)
    letters = ifs.letter_maps()
    r, ang, refl, (x, y) = letters.turned(full[..., 0], (shift[..., 0], shift[..., 1]))
    # turning a part_two letter by 0 need not give it back bit for bit: keep it
    one = np.isin(alphabet, ifs.part_one)
    _, ang0, _, (x0, y0) = letters
    x, y = np.where(one, x, x0), np.where(one, y, y0)
    return MapArrays(r, np.where(one, ang, ang0), refl, (x, y))


def build_perturbed_ifs(ifs: IfsSpec, omega: np.ndarray, c1: float, rho: float) -> IfsSpec:
    """Apply one assignment, a (part_one, 3) omega row, on part_one, keep
    part_two. The perturbed squares may leave I, so containment is not
    checked (`make_ifs` would reject them); the CLI notes it on stderr."""
    if omega.shape != (len(ifs.part_one), 3):
        raise ValueError(f"omega row shape {omega.shape} is not (len(part_one), 3)")
    r, ang, refl, (tx, ty) = omega_letters(ifs, omega[None], c1, rho).take(0)
    maps = {
        a: Similarity(float(r[i]), float(ang[i]), bool(refl[i]), (tx[i], ty[i]))
        for i, a in enumerate(ifs.alphabet)
    }
    return IfsSpec(alphabet=ifs.alphabet, maps=maps, part_one=ifs.part_one, part_two=ifs.part_two)


_C0 = 2.0  # c0 of the sufficient closeness bound rho <= epsilon / (2 c1 c0)


def closeness_report(base: IfsSpec, perturbed: IfsSpec, epsilon: float, c1: float, rho: float) -> dict:
    """Measured epsilon-distance plus the documented sufficient bound
    rho <= epsilon / (2 c1 c0); both reported, neither fatal."""
    dist = epsilon_distance(base, perturbed)
    bound = epsilon / (2.0 * c1 * _C0)
    return {
        "epsilon_distance": dist,
        "epsilon": epsilon,
        "epsilon_ok": dist < epsilon,
        "sufficient_bound": bound,
        "sufficient_bound_ok": rho <= bound,
    }


def _uniform_box(u: np.ndarray, epsilon: float) -> np.ndarray:
    """Uniforms on [0, 1) whose last axis has length 3 moved onto the box:
    phi on (-epsilon, epsilon), gamma on (-1, 1)^2. rng.uniform(low, high)
    is low + (high - low) * rng.random(), and so is each entry."""
    low, high = np.array([-epsilon, -1.0, -1.0]), np.array([epsilon, 1.0, 1.0])
    return low + (high - low) * u


def draw_omegas(rng: np.random.Generator, ifs: IfsSpec, epsilon: float, n: int) -> np.ndarray:
    """n uniform product draws in turn from rng, as an omega array: phi on
    (-epsilon, epsilon), then gamma on (-1, 1)^2, for each part_one symbol
    in part_one order; these are the doubles that rng.uniform, called once
    per number in that order, gives."""
    return _uniform_box(rng.random((n, len(ifs.part_one), 3)), epsilon)


def omega_from_json(ifs: IfsSpec, data) -> np.ndarray:
    """The (part_one, 3) omega row of the omega file's JSON: an object keyed
    by symbol, each entry a number phi and a pair of numbers gamma and no
    other key (as in the IFS file), every number finite by that file's rule
    (`_finite_number`) and each gamma component in (-1, 1). The entries are
    checked before the domain, which must be part_one; every fault is a
    ConfigError."""
    try:
        if not isinstance(data, dict):
            raise TypeError(f"expected an object keyed by symbol, got {type(data).__name__}")
        entries = {}
        for a, v in data.items():
            phi, gamma = v["phi"], tuple(v["gamma"])
            extra = sorted(set(v) - {"phi", "gamma"})
            if extra:
                raise ValueError(f"unknown key {extra[0]!r} in the entry for symbol {a!r}")
            if not all(_finite_number(x) for x in (phi, *gamma)):
                raise ValueError("phi and gamma must be finite numbers")
            gx, gy = gamma
            if not (abs(gx) < 1.0 and abs(gy) < 1.0):
                raise ValueError(f"gamma components must lie in (-1,1), got {gamma}")
            entries[a] = (phi, gx, gy)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"omega: malformed perturbation file: {exc}") from None
    if set(entries) != set(ifs.part_one):
        raise ConfigError(
            f"omega: assignment domain {sorted(entries)} != part_one {sorted(ifs.part_one)}"
        )
    return np.array([entries[a] for a in ifs.part_one], dtype=float)


def omega_to_json(ifs: IfsSpec, omega: np.ndarray) -> dict:
    """The omega file's JSON of one (part_one, 3) omega row, symbols sorted."""
    return {
        a: {"phi": phi, "gamma": [gx, gy]}
        for a, (phi, gx, gy) in sorted(zip(ifs.part_one, omega.tolist()))
    }


_PROBE_SIZE = 2048  # probe points checked before a full evaluation
_PROBE_STAGE = 256  # probe points in the first stage of `probe`; each later stage doubles
# iid draws evaluated in one call. Each probe call has a fixed cost, paid once
# per block; but the first block (beat -1) takes every draw through every
# stage, so its memory grows with the block.
_IID_BLOCK = 64
_STALL_LIMIT = 40  # per_symbol: rejections in a row before a fresh draw


class CoverageTester:
    """Membership of assignments in the intersection of the per-point witness
    sets over the probe net Delta.

    A point u is covered under an assignment when some two-letter word of the
    perturbed system renormalizes u to within the search rule's slack
    (`RecurrentCandidate.search_slack`) of an L0 cell. Probe points (an
    evenly strided subset of Delta) give an exact early rejection: an
    assignment that misses a probe point cannot cover Delta. Delta is the
    candidate's L1 row runs; subsets go through the point route, all of it
    through the row route (`first_witness`, `first_witness_rows`): same
    witnesses.
    The point route takes all the assignments of a call at once.

    `probe_order` lists, per probe point, first the words that send it home
    in the unperturbed system, then the others, each part in word order.
    Small perturbations mostly keep those hits, so `probe` tries fewer words
    per point; a witness index found in this order is the first hit in it,
    not the first in word order, and only counts leave `probe`.

    `probe_stages` cuts the probe points, ranked by how many unperturbed
    words send them home (fewest first), into stages of _PROBE_STAGE points,
    then twice as many at each further stage, each stage's positions in
    `probe_idx` sorted. Draws miss the points with few home words most often
    (on the desk, draws miss the points that no unperturbed word sends home
    77% of the time on average, and each group of points with two or more
    home words at most 3.4% of the time), so `probe` learns from the first
    stages which draws cannot beat a count.
    """

    def __init__(self, ifs: IfsSpec, cand: RecurrentCandidate, c1: float):
        self.ifs = ifs
        self.cand = cand
        self.c1 = c1
        self.member0 = GridMembership(cand.geom, cand.L0, cand.search_slack)
        n = cand.delta_count
        self.probe_idx = np.arange(0, n, max(1, n // _PROBE_SIZE))
        # each word as a list of its own: the (words, probes) hit table
        words = two_letter_words(ifs.letter_maps()).reshape(-1, 1)
        lines = cand.L1.lines(cand.geom, self.probe_idx)
        home = first_witness(words, *lines, self.member0) >= 0
        self.probe_order = np.argsort(~home, axis=0, kind="stable")
        rank = np.argsort(home.sum(axis=0), kind="stable")
        self.probe_stages = []
        lo, size = 0, _PROBE_STAGE
        while lo < len(rank):
            self.probe_stages.append(np.sort(rank[lo : lo + size]))
            lo, size = lo + size, 2 * size

    def words(self, omegas: np.ndarray) -> MapArrays:
        """The two-letter word maps of the perturbed system of each
        assignment of an omega array, as (assignments, words) arrays: what
        `coverage` takes."""
        return two_letter_words(omega_letters(self.ifs, omegas, self.c1, self.cand.rho))

    def coverage(
        self,
        words: MapArrays,
        indices: np.ndarray | None = None,
        order: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """covered flags and witness word indices (-1 where uncovered) under
        each word list of words (`words`, one per assignment) on the given
        subset of Delta (default: all of it), one list after the other: with
        n points, entry b * n + i belongs to list b and point i. order, for
        a subset only, is the per-point word order of `first_witness`; the
        witnesses are then the first hits in that order."""
        if indices is None:
            rows = [
                first_witness_rows(words.take(b), self.cand.L1, self.member0)
                for b in range(len(words.ratio))
            ]
            witness = rows[0] if len(rows) == 1 else np.concatenate(rows)  # one: no copy
        else:
            lines = self.cand.L1.lines(self.cand.geom, indices)
            witness = first_witness(words, *lines, self.member0, order).ravel()
        return witness >= 0, witness

    def probe(self, omegas: np.ndarray, beat: int) -> np.ndarray:
        """The number of covered probe points of each assignment of an
        omega array, where that exceeds beat, else -1: an exact search for
        the assignments that cover more than beat probe points (beat -1
        counts every assignment).

        The block's word maps are built once. The stages of `probe_stages`
        run in turn, each one call of `coverage` on its points, with the
        words in `probe_order`, for the rows of the assignments still in
        play. After each stage an assignment drops out once its
        misses so far leave it at most beat points. A count other than -1 is
        therefore the number of covered flags `coverage` gives on
        `probe_idx`, and -1 means at most beat of them.
        """
        n = len(self.probe_idx)
        words = self.words(omegas)
        live = np.arange(len(omegas))
        misses = np.zeros(len(omegas), dtype=np.intp)
        for stage in self.probe_stages:
            if not len(live):
                break
            order = self.probe_order[:, stage]
            covered = self.coverage(words.take(live), self.probe_idx[stage], order)[0]
            misses[live] += len(stage) - np.count_nonzero(covered.reshape(len(live), -1), axis=1)
            live = live[n - misses[live] > beat]
        counts = np.full(len(omegas), -1)
        counts[live] = n - misses[live]
        return counts


@dataclass
class SearchOutcome:
    """omega0 and best_assignment are (part_one, 3) omega rows or None."""

    omega0: np.ndarray | None
    attempts: int
    accepted_attempt: int | None
    best_assignment: np.ndarray | None
    coverage: float
    mode: str

    @property
    def estimated_failure_prob(self) -> float:
        return 1.0 - self.coverage

    def to_json_dict(self, ifs: IfsSpec) -> dict:
        """The outcome, its assignments as omega JSON (`omega_to_json`)."""
        best = self.best_assignment
        return {
            "omega0": None if self.omega0 is None else omega_to_json(ifs, self.omega0),
            "attempts": self.attempts,
            "accepted_attempt": self.accepted_attempt,
            "best_assignment": None if best is None else omega_to_json(ifs, best),
            "coverage": self.coverage,
            "estimated_failure_prob": self.estimated_failure_prob,
            "mode": self.mode,
        }


def search_omega0(
    ifs: IfsSpec,
    cand: RecurrentCandidate,
    budget: int,
    seed: int,
    mode: str,
    c1: float,
    epsilon: float,
) -> SearchOutcome:
    """Randomized search for an assignment covering the whole probe net.

    mode "iid": fresh assignment per attempt from per-index streams, so the
    outcome does not depend on how attempts are grouped. Attempts are drawn
    and probed _IID_BLOCK at a time, then walked in index order. An attempt
    is rejected exactly when it misses a probe point (probe misses are sound
    rejections); full-net evaluation only runs on probe-clean attempts,
    acceptance requires full coverage, and the lowest accepted index wins.
    The best attempt is the first with the most covered probe points. Each
    block is probed with beat = the best count before it (at most the probe
    size less one), so `probe` drops the attempts that could neither beat
    the best nor be probe-clean, and the outcome is that of counting every
    attempt's probe points.

    mode "per_symbol": sequential hill climb on one stream, one draw per
    attempt. The first attempt, and the first after _STALL_LIMIT rejections
    in a row, takes the fresh draw as the current assignment (a restart);
    every other attempt gives the draw's perturbation of one symbol (symbols
    in turn by attempt index) to the current assignment and keeps the change
    exactly when it strictly shrinks the uncovered set. Every candidate is
    judged on the whole probe net by the row route, and only uncovered
    counts are kept. Matches the per-symbol product structure of the
    underlying probability bound; much stronger at coarse rho.

    On budget exhaustion omega0 is absent and the best assignment seen (by
    probe coverage in iid mode, by uncovered count in per_symbol mode) is
    reported with its full-net coverage.
    """
    if cand.delta_count == 0:
        raise ValueError("probe net is empty")
    tester = CoverageTester(ifs, cand, c1)
    n = cand.delta_count

    def finish(omega0, attempts, accepted, best, n_covered):
        """The outcome; omega0 and best are omega rows or None."""
        coverage = float(n_covered / n)
        return SearchOutcome(omega0, attempts, accepted, best, coverage, mode)

    def covered_count(omega):
        return int(np.count_nonzero(tester.coverage(tester.words(omega[None]))[0]))

    if mode == "iid":
        n_probe = len(tester.probe_idx)
        best_count, best_assignment = -1, None
        for first in range(0, budget, _IID_BLOCK):
            ks = range(first, min(first + _IID_BLOCK, budget))
            # draw k is draw_omegas(default_rng([seed, k]), ifs, epsilon, 1)
            u = [np.random.default_rng([seed, k]).random((len(ifs.part_one), 3)) for k in ks]
            block = _uniform_box(np.stack(u), epsilon)
            # a dropped draw (-1) can neither beat the best nor cover every probe point
            counts = tester.probe(block, min(best_count, n_probe - 1))
            for k, omega, count in zip(ks, block, counts):
                if count > best_count:
                    best_count, best_assignment = count, omega
                if count == n_probe and covered_count(omega) == n:
                    return finish(omega, k + 1, k, omega, n)
        n_best = covered_count(best_assignment) if best_assignment is not None else 0
        return finish(None, budget, None, best_assignment, n_best)

    if mode == "per_symbol":
        rng = np.random.default_rng([seed])
        attempts, stall = 0, _STALL_LIMIT  # the first attempt is a fresh draw
        best_unc, best_assignment = n + 1, None
        while attempts < budget and best_unc > 0:
            draw = draw_omegas(rng, ifs, epsilon, 1)[0]
            fresh = stall >= _STALL_LIMIT  # the first attempt, or a restart
            if fresh:
                candidate = draw
            else:  # part_one symbols in turn
                sym = attempts % len(ifs.part_one)
                candidate = current.copy()
                candidate[sym] = draw[sym]
            attempts += 1
            cand_unc = n - covered_count(candidate)
            if fresh or cand_unc < uncovered:
                current, uncovered, stall = candidate, cand_unc, 0
                if uncovered < best_unc:
                    best_unc, best_assignment = uncovered, current
            else:
                stall += 1
        if best_unc == 0:
            return finish(best_assignment, attempts, attempts - 1, best_assignment, n)
        return finish(None, attempts, None, best_assignment, n - best_unc if attempts else 0)

    raise ValueError(f"unknown search mode {mode!r}")


# --- hull obstruction ---

_HULL_NORMALS = 64  # fixed facet normals of the invariant polygon
_HULL_INFLATE = 1e-6  # outward push after convergence, gives the check its margin
_HULL_MARGIN = 1e-12  # images must clear each facet by this much, far above rounding
# The membership test admits offsets up to its 1e-9 index guard past the slack;
# 1e-6 pitch more covers that guard and the rounding of renormalized lines.
_SLACK_GUARD = 1e-6


def _dot(normals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """n_x p_x + n_y p_y over the broadcast leading axes of normals and
    points, elementwise: a BLAS product would round by the kernel the CPU
    selects."""
    return normals[..., 0] * points[..., 0] + normals[..., 1] * points[..., 1]


def _box_support(
    ifs: IfsSpec, normals: np.ndarray, points: np.ndarray, c1: float, rho: float, epsilon: float
) -> np.ndarray:
    """max of n . f_{a,omega}(p) over every map a, point p and assignment in the
    closed box |phi| <= epsilon, |gamma| <= 1, for each unit normal n.

    f_{a,omega}(p) = c_a + R(phi)(f_a(p) - c_a) + gamma c1 rho, so the phi part is
    a sinusoid |d| cos(alpha + phi - beta) whose maximum is exact: 1 when the
    angle beta - alpha lies within epsilon, else the nearer box end.
    """
    beta = np.arctan2(normals[:, 1], normals[:, 0])
    shift = c1 * rho * np.abs(normals).sum(axis=1)
    best = np.full(len(normals), -np.inf)
    letters = ifs.letter_maps()
    for a, img, c in zip(ifs.alphabet, letters.images(points), letters.images((0.5, 0.5))):
        if a in ifs.part_one:
            d = img - c
            alpha = np.arctan2(d[:, 1], d[:, 0])
            off = np.abs(np.mod(beta[:, None] - alpha + math.pi, 2 * math.pi) - math.pi)
            gain = np.where(off <= epsilon, 1.0, np.cos(off - epsilon))
            s = _dot(normals, c) + (np.hypot(d[:, 0], d[:, 1]) * gain).max(axis=1) + shift
        else:
            s = _dot(normals[:, None], img).max(axis=1)
        best = np.maximum(best, s)
    return best


def _facet_vertices(normals: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Counterclockwise vertices of {x : n_k . x <= h_k} for normals at
    increasing angles, every constraint tight: consecutive lines meet there."""
    n2, h2 = np.roll(normals, -1, axis=0), np.roll(h, -1)
    det = normals[:, 0] * n2[:, 1] - normals[:, 1] * n2[:, 0]
    x = (h * n2[:, 1] - h2 * normals[:, 1]) / det
    y = (normals[:, 0] * h2 - n2[:, 0] * h) / det
    return np.stack([x, y], axis=1)


def _polygon_is_invariant(
    ifs: IfsSpec, verts: np.ndarray, c1: float, rho: float, epsilon: float
) -> bool:
    """Is conv(verts) (counterclockwise, convex) mapped strictly inside itself
    by every perturbed map in the closed box? Affine maps send conv(verts) to
    the hull of the vertex images, so checking vertices against facets is enough."""
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    b = _dot(normals, verts)
    if not (_dot(normals[:, None], verts) <= b[:, None] + _HULL_MARGIN).all():
        return False
    return bool((_box_support(ifs, normals, verts, c1, rho, epsilon) <= b - _HULL_MARGIN).all())


def invariant_polygon(ifs: IfsSpec, c1: float, rho: float, epsilon: float) -> np.ndarray | None:
    """Counterclockwise vertices of a convex polygon P with f_{a,omega}(P) inside
    P for every map a and every assignment in the closed box |phi| <= epsilon,
    |gamma| <= 1; None when the construction does not verify.

    Iterates P <- the 64-normal hull of the union of the images of P, which
    contracts by r_max / cos(pi / 64), until the facet offsets settle within
    1e-12, then pushes P out by 1e-6 and checks the result with
    `_polygon_is_invariant`. Every attractor of a perturbed system
    lies in P.
    """
    ang = 2.0 * math.pi * np.arange(_HULL_NORMALS) / _HULL_NORMALS
    normals = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    h = _dot(normals[:, None], verts).max(axis=1)
    for _ in range(2000):
        h_new = _box_support(ifs, normals, verts, c1, rho, epsilon)
        settled = np.abs(h_new - h).max() <= 1e-12
        h = h_new
        verts = _facet_vertices(normals, h)
        if settled:
            break
    else:
        return None
    verts = _facet_vertices(normals, h + _HULL_INFLATE)
    if not _polygon_is_invariant(ifs, verts, c1, rho, epsilon):
        return None
    return verts


def _farthest_cell(
    layer: RowRuns, geom: GridGeometry, poly: np.ndarray
) -> tuple[int, int, float]:
    """(row, column, distance) of the cell of layer farthest from conv(poly).

    Distance is convex in t, so only each row's first and last cell are scanned.
    """
    ptr, start, stop = layer
    rows = np.flatnonzero(np.diff(ptr))
    if not len(rows):
        raise ValueError("empty layer")
    first, last = start[ptr[rows]], stop[ptr[rows + 1] - 1] - 1
    rows, cols = np.concatenate([rows, rows]), np.concatenate([first, last])
    thetas, ts = rows * geom.pitch, (cols - geom.m) * geom.pitch
    proj = offsets(poly[:, 0], poly[:, 1], np.sin(thetas)[:, None], np.cos(thetas)[:, None])
    dist = np.maximum(np.maximum(ts - proj.max(axis=1), proj.min(axis=1) - ts), 0.0)
    k = int(np.argmax(dist))
    return int(rows[k]), int(cols[k]), float(dist[k])


def hull_obstruction(
    ifs: IfsSpec, cand: RecurrentCandidate, c1: float, epsilon: float
) -> dict | None:
    """Certificate that no assignment in the closed box passes either the
    search rule (L1 into L0 within `RecurrentCandidate.search_slack`) or the
    check rule (L into L within `RecurrentCandidate.check_slack`); None unless
    both are obstructed.

    Let P be `invariant_polygon`, R = max |p| on P and kappa = 1/r_max^2. For
    every admissible assignment and two-letter word w, f_w(P) lies in P, so
    dist(T_w l, P) >= kappa dist(l, P). A cell within the slack s of T_w l is
    an R-Lipschitz angle move and a unit offset move away, so it lies at least
    kappa D - s(1 + R) from P when l lies D from P. The source cell l* farthest
    from P is therefore never covered when D exceeds
    bound = (largest target distance + s(1 + R)) / kappa.
    """
    geom = cand.geom
    poly = invariant_polygon(ifs, c1, cand.rho, epsilon)
    if poly is None:
        return None
    radius = float(np.hypot(poly[:, 0], poly[:, 1]).max())
    expansion = 1.0 / max(f.ratio for f in ifs.maps.values()) ** 2
    out = {
        "polygon": poly.tolist(),
        "radius": radius,
        "expansion": expansion,
    }
    rules = (
        ("search", "L1", "L0", cand.search_slack),
        ("check", "L", "L", cand.check_slack),
    )
    for rule, source, target, s in rules:
        s_eff = s + _SLACK_GUARD * geom.pitch
        row, col, dist = _farthest_cell(getattr(cand, source), geom, poly)
        target_dist = _farthest_cell(getattr(cand, target), geom, poly)[2]
        bound = (target_dist + s_eff * (1.0 + radius)) / expansion
        if not dist > bound:
            return None
        out[rule] = {
            "source": source,
            "target": target,
            "slack": s_eff,
            "cell": {
                "row": row,
                "col": col,
                "theta": row * geom.pitch,
                "t": (col - geom.m) * geom.pitch,
            },
            "distance": dist,
            "target_distance": target_dist,
            "bound": bound,
        }
    return out
