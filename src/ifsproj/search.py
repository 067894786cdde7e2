"""Perturbations of an IFS and the randomized search for a covering one.

A perturbation rotates one map's image square about its center and shifts it
by gamma * c1 * rho; ratios never change. An assignment gives one
perturbation per first-block symbol. The search draws assignments from a
deterministic stream and accepts the first whose two-letter renormalizations
send every probe-net point back into the candidate core (within grid pitch).

`hull_obstruction` proves, when it can, that no admissible assignment is ever
accepted: a convex polygon P mapped into itself by every perturbed map makes
each two-letter renormalization push lines away from P by the factor
1/r_max^2, so the candidate line farthest from P cannot come back.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ifs import IfsSpec, MapArrays, Perturbation, Similarity, epsilon_distance, make_ifs
from .lines import Line
from .recurrence import (
    GridGeometry,
    GridMembership,
    RecurrentCandidate,
    RowRuns,
    first_witness,
    first_witness_rows,
    two_letter_words,
)


@dataclass(frozen=True)
class OmegaAssignment:
    """One perturbation per first-block symbol; second-block maps stay fixed."""

    omegas: dict[str, Perturbation]

    def to_json_dict(self) -> dict:
        return {
            a: {"phi": w.phi, "gamma": list(w.gamma)}
            for a, w in sorted(self.omegas.items())
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "OmegaAssignment":
        """Raises KeyError, TypeError or ValueError when d is malformed."""
        if not isinstance(d, dict):
            raise TypeError(f"expected an object keyed by symbol, got {type(d).__name__}")
        return cls({a: Perturbation(v["phi"], tuple(v["gamma"])) for a, v in d.items()})


def perturbed_letters(
    ifs: IfsSpec, assignments: Sequence[OmegaAssignment], c1: float, rho: float
) -> MapArrays:
    """The letter maps of ifs under each assignment, as (assignments,
    letters) arrays in alphabet order: each part_one letter turned by its
    phi about the center of its square f_a(I) and moved by gamma * c1 * rho
    (`MapArrays.turned`), the part_two letters as they are."""
    for assignment in assignments:
        if set(assignment.omegas) != set(ifs.part_one):
            raise ValueError(
                f"assignment domain {sorted(assignment.omegas)} != part_one {sorted(ifs.part_one)}"
            )
    still = Perturbation(0.0, (0.0, 0.0))
    omegas = [[w.omegas.get(a, still) for a in ifs.alphabet] for w in assignments]
    phi = np.array([[o.phi for o in row] for row in omegas])
    shift = np.array([[o.gamma for o in row] for row in omegas]) * (c1 * rho)
    letters = ifs.letter_maps()
    r, ang, refl, (x, y) = letters.turned(phi, (shift[..., 0], shift[..., 1]))
    # turning a part_two letter by 0 need not give it back bit for bit: keep it
    one = np.isin(ifs.alphabet, ifs.part_one)
    _, ang0, _, (x0, y0) = letters
    x, y = np.where(one, x, x0), np.where(one, y, y0)
    return MapArrays(r, np.where(one, ang, ang0), refl, (x, y))


def build_perturbed_ifs(
    ifs: IfsSpec, assignment: OmegaAssignment, c1: float, rho: float
) -> IfsSpec:
    """Apply the assignment on part_one, keep part_two; containment of the
    perturbed squares in I may fail and is only warned about."""
    r, ang, refl, (tx, ty) = perturbed_letters(ifs, [assignment], c1, rho).take(0)
    maps = {
        a: Similarity(float(r[i]), float(ang[i]), bool(refl[i]), (tx[i], ty[i]))
        for i, a in enumerate(ifs.alphabet)
    }
    return make_ifs(maps, part_one=ifs.part_one, alphabet=ifs.alphabet, check_containment=False)


def closeness_report(
    base: IfsSpec, perturbed: IfsSpec, epsilon: float, c1: float, rho: float, c0: float
) -> dict:
    """Measured epsilon-distance plus the documented sufficient bound
    rho <= epsilon / (2 c1 c0); both reported, neither fatal."""
    dist = epsilon_distance(base, perturbed)
    return {
        "epsilon_distance": dist,
        "epsilon": epsilon,
        "epsilon_ok": dist < epsilon,
        "sufficient_bound": epsilon / (2.0 * c1 * c0),
        "sufficient_bound_ok": rho <= epsilon / (2.0 * c1 * c0),
    }


def draw_assignment(rng: np.random.Generator, ifs: IfsSpec, epsilon: float) -> OmegaAssignment:
    """Uniform product draw, one (phi, gamma) block per part_one symbol in
    alphabet order."""
    omegas = {}
    for a in ifs.part_one:
        phi = rng.uniform(-epsilon, epsilon)
        gx, gy = rng.uniform(-1.0, 1.0, size=2)
        omegas[a] = Perturbation(float(phi), (float(gx), float(gy)))
    return OmegaAssignment(omegas)


_PROBE_SIZE = 2048  # probe points checked before a full evaluation
_PROBE_STAGE = 256  # probe points in the first stage of `probe`; each later stage doubles
_IID_BLOCK = 16  # iid draws evaluated in one call
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

    def coverage(
        self,
        assignments: Sequence[OmegaAssignment],
        indices: np.ndarray | None = None,
        order: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """covered flags and witness word indices (-1 where uncovered) of each
        assignment on the given subset of Delta (default: all of it), one
        assignment after the other: with n points, entry b * n + i belongs to
        assignment b and point i. order, for a subset only, is the per-point
        word order of `first_witness`; the witnesses are then the first hits
        in that order."""
        words = two_letter_words(perturbed_letters(self.ifs, assignments, self.c1, self.cand.rho))
        if indices is None:
            rows = [
                first_witness_rows(words.take(b), self.cand.L1, self.member0)
                for b in range(len(assignments))
            ]
            witness = rows[0] if len(rows) == 1 else np.concatenate(rows)  # one: no copy
        else:
            lines = self.cand.L1.lines(self.cand.geom, indices)
            witness = first_witness(words, *lines, self.member0, order).ravel()
        return witness >= 0, witness

    def probe(self, assignments: Sequence[OmegaAssignment], beat: int) -> np.ndarray:
        """Each assignment's number of covered probe points where that
        exceeds beat, else -1: an exact search for the assignments that
        cover more than beat probe points (beat -1 counts every assignment).

        The stages of `probe_stages` run in turn, each one call of `coverage`
        on its points, with the words in `probe_order`, for the assignments
        still in play. After each stage an assignment drops out once its
        misses so far leave it at most beat points. A count other than -1 is
        therefore the number of covered flags `coverage` gives on
        `probe_idx`, and -1 means at most beat of them.
        """
        n = len(self.probe_idx)
        live = np.arange(len(assignments))
        misses = np.zeros(len(assignments), dtype=np.intp)
        for stage in self.probe_stages:
            if not len(live):
                break
            subset = [assignments[b] for b in live]
            covered = self.coverage(subset, self.probe_idx[stage], self.probe_order[:, stage])[0]
            misses[live] += len(stage) - np.count_nonzero(covered.reshape(len(live), -1), axis=1)
            live = live[n - misses[live] > beat]
        counts = np.full(len(assignments), -1)
        counts[live] = n - misses[live]
        return counts


@dataclass
class SearchOutcome:
    omega0: OmegaAssignment | None
    attempts: int
    accepted_attempt: int | None
    best_assignment: OmegaAssignment | None
    coverage: float
    estimated_failure_prob: float
    mode: str

    def to_json_dict(self) -> dict:
        return {
            "omega0": self.omega0.to_json_dict() if self.omega0 else None,
            "attempts": self.attempts,
            "accepted_attempt": self.accepted_attempt,
            "best_assignment": (
                self.best_assignment.to_json_dict() if self.best_assignment else None
            ),
            "coverage": self.coverage,
            "estimated_failure_prob": self.estimated_failure_prob,
            "mode": self.mode,
        }


def estimate_success_prob(
    ifs: IfsSpec,
    u: Line,
    cand: RecurrentCandidate,
    samples: int,
    seed: int,
    c1: float = 8.0,
    epsilon: float = 0.3,
) -> float:
    """Monte Carlo measure of the assignments that send u back into L0.

    u must lie on the probe net (within grid pitch of an L1 cell). The
    samples are drawn in order from one stream and evaluated _IID_BLOCK at a
    time.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    geom = cand.geom
    if not GridMembership(geom, cand.L1, geom.pitch).contains([u.theta], [u.t])[0]:
        raise ValueError(f"line (theta={u.theta}, t={u.t}) is not on the probe net")
    member0 = GridMembership(geom, cand.L0, cand.search_slack)
    rng = np.random.default_rng(seed)
    th = np.array([u.theta])
    tt = np.array([u.t])
    hits = 0
    for first in range(0, samples, _IID_BLOCK):
        n = min(_IID_BLOCK, samples - first)
        block = [draw_assignment(rng, ifs, epsilon) for _ in range(n)]
        words = two_letter_words(perturbed_letters(ifs, block, c1, cand.rho))
        hits += int(np.count_nonzero(first_witness(words, th, tt, member0) >= 0))
    return hits / samples


def search_omega0(
    ifs: IfsSpec,
    cand: RecurrentCandidate,
    budget: int,
    seed: int,
    mode: str = "iid",
    c1: float = 8.0,
    epsilon: float = 0.3,
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

    mode "per_symbol": sequential hill climb resampling one symbol's
    perturbation at a time, keeping changes that strictly shrink the
    uncovered set; restarts from a fresh draw after _STALL_LIMIT consecutive
    rejections. Matches the per-symbol product structure of the underlying
    probability bound; much stronger at coarse rho.

    On budget exhaustion omega0 is absent and the best assignment seen (by
    probe coverage in iid mode, by uncovered count in per_symbol mode) is
    reported with its full-net coverage.
    """
    if cand.delta_count == 0:
        raise ValueError("probe net is empty")
    tester = CoverageTester(ifs, cand, c1)
    n = cand.delta_count

    def finish(omega0, attempts, accepted, best, covered):
        coverage = float(np.count_nonzero(covered) / n) if covered is not None else 0.0
        return SearchOutcome(
            omega0=omega0,
            attempts=attempts,
            accepted_attempt=accepted,
            best_assignment=best,
            coverage=coverage,
            estimated_failure_prob=1.0 - coverage,
            mode=mode,
        )

    if mode == "iid":
        n_probe = len(tester.probe_idx)
        best_count, best_assignment = -1, None
        for first in range(0, budget, _IID_BLOCK):
            ks = range(first, min(first + _IID_BLOCK, budget))
            block = [draw_assignment(np.random.default_rng([seed, k]), ifs, epsilon) for k in ks]
            # a dropped draw (-1) can neither beat the best nor cover every probe point
            counts = tester.probe(block, min(best_count, n_probe - 1))
            for k, assignment, count in zip(ks, block, counts):
                if count > best_count:
                    best_count, best_assignment = count, assignment
                if count < n_probe:
                    continue
                covered = tester.coverage([assignment])[0]
                if covered.all():
                    return finish(assignment, k + 1, k, assignment, covered)
        if best_assignment is None:
            return finish(None, budget, None, None, None)
        covered = tester.coverage([best_assignment])[0]
        return finish(None, budget, None, best_assignment, covered)

    if mode == "per_symbol":
        rng = np.random.default_rng([seed])
        symbols = list(ifs.part_one)
        attempts = 0

        current = draw_assignment(rng, ifs, epsilon)
        attempts += 1
        covered = tester.coverage([current])[0]
        uncovered = int(np.count_nonzero(~covered))
        best_unc, best_assignment, best_covered = uncovered, current, covered
        stall = 0
        while attempts < budget and best_unc > 0:
            sym = symbols[attempts % len(symbols)]
            candidate = OmegaAssignment(
                {**current.omegas, sym: draw_assignment(rng, ifs, epsilon).omegas[sym]}
            )
            attempts += 1
            # a copy: the strided view would hold every uncovered index
            probe_unc = np.flatnonzero(~covered)[:: max(1, uncovered // _PROBE_SIZE)].copy()
            probe_cov = tester.coverage([candidate], probe_unc)[0]
            if not probe_cov.any():
                stall += 1
            else:
                cand_covered = tester.coverage([candidate])[0]
                cand_unc = int(np.count_nonzero(~cand_covered))
                if cand_unc < uncovered:
                    current, covered, uncovered = candidate, cand_covered, cand_unc
                    stall = 0
                    if uncovered < best_unc:
                        best_unc, best_assignment, best_covered = uncovered, current, covered
                else:
                    stall += 1
                del cand_covered  # rejected flags must not outlive the next coverage
            if stall >= _STALL_LIMIT and attempts < budget:
                current = draw_assignment(rng, ifs, epsilon)
                attempts += 1
                covered = tester.coverage([current])[0]
                uncovered = int(np.count_nonzero(~covered))
                if uncovered < best_unc:
                    best_unc, best_assignment, best_covered = uncovered, current, covered
                stall = 0
        if best_unc == 0:
            return finish(best_assignment, attempts, attempts - 1, best_assignment, best_covered)
        return finish(None, attempts, None, best_assignment, best_covered)

    raise ValueError(f"unknown search mode {mode!r}")


# --- hull obstruction ---

_HULL_NORMALS = 64  # fixed facet normals of the invariant polygon
_HULL_INFLATE = 1e-6  # outward push after convergence, gives the check its margin
_HULL_MARGIN = 1e-12  # images must clear each facet by this much, far above rounding
# The membership test admits offsets up to its 1e-9 index guard past the slack;
# 1e-6 pitch more covers that guard and the rounding of renormalized lines.
_SLACK_GUARD = 1e-6


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
            s = normals @ c + (np.hypot(d[:, 0], d[:, 1]) * gain).max(axis=1) + shift
        else:
            s = (normals @ img.T).max(axis=1)
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
    b = (normals * verts).sum(axis=1)
    if not (normals @ verts.T <= b[:, None] + _HULL_MARGIN).all():
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
    h = (normals @ verts.T).max(axis=1)
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
    proj = np.stack([-np.sin(thetas), np.cos(thetas)], axis=1) @ poly.T
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
