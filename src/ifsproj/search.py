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

from .ifs import (
    IfsSpec,
    Perturbation,
    Similarity,
    apply_similarity,
    epsilon_distance,
    make_ifs,
    perturb_map,
)
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


def perturbed_maps(
    ifs: IfsSpec, assignment: OmegaAssignment, c1: float, rho: float
) -> dict[str, Similarity]:
    """The maps of ifs with the assignment applied on part_one; part_two maps
    stay as they are."""
    if set(assignment.omegas) != set(ifs.part_one):
        raise ValueError(
            f"assignment domain {sorted(assignment.omegas)} != part_one {sorted(ifs.part_one)}"
        )
    return {
        a: perturb_map(ifs.maps[a], assignment.omegas[a], c1, rho)
        if a in assignment.omegas
        else ifs.maps[a]
        for a in ifs.alphabet
    }


def _perturbed_words(
    ifs: IfsSpec, assignment: OmegaAssignment, c1: float, rho: float
) -> list[Similarity]:
    """Two-letter composites of the perturbed maps, in `two_letter_words`
    order. Builds no IfsSpec, so no dimension is solved and no containment
    is checked."""
    maps = perturbed_maps(ifs, assignment, c1, rho)
    return [g for _, g in two_letter_words(ifs.alphabet, maps)]


def build_perturbed_ifs(
    ifs: IfsSpec, assignment: OmegaAssignment, c1: float, rho: float
) -> IfsSpec:
    """Apply the assignment on part_one, keep part_two; containment of the
    perturbed squares in I may fail and is only warned about."""
    maps = perturbed_maps(ifs, assignment, c1, rho)
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
_IID_BLOCK = 16  # iid draws whose probes one coverage call evaluates
_STALL_LIMIT = 40  # per_symbol: rejections in a row before a fresh draw


class CoverageTester:
    """Membership of assignments in the intersection of the per-point witness
    sets over the probe net Delta.

    A point u is covered under an assignment when some two-letter word of the
    perturbed system renormalizes u to within the search rule's slack
    (`RecurrentCandidate.search_slack`) of an L0 cell. Probe points (an
    evenly strided subset of Delta) give an exact early rejection: an
    assignment that misses a probe point cannot cover Delta. Delta is held
    only as row runs; subsets go through the point route, all of it through
    the row route (`first_witness`, `first_witness_rows`): same witnesses.
    The point route takes all the assignments of a call at once.
    """

    def __init__(self, ifs: IfsSpec, cand: RecurrentCandidate, c1: float):
        self.ifs = ifs
        self.cand = cand
        self.c1 = c1
        self.member0 = GridMembership(cand.geom, cand.L0, cand.search_slack)
        self.delta_runs = RowRuns.of(cand.L1)
        n = cand.delta_count
        self.probe_idx = np.arange(0, n, max(1, n // _PROBE_SIZE))

    def coverage(
        self, assignments: Sequence[OmegaAssignment], indices: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """covered flags and witness word indices (-1 where uncovered) of each
        assignment on the given subset of Delta (default: all of it), one
        assignment after the other: with n points, entry b * n + i belongs to
        assignment b and point i."""
        word_sets = [_perturbed_words(self.ifs, a, self.c1, self.cand.rho) for a in assignments]
        if indices is None:
            rows = [first_witness_rows(words, self.delta_runs, self.member0) for words in word_sets]
            witness = rows[0] if len(rows) == 1 else np.concatenate(rows)  # one: no copy
        else:
            lines = self.delta_runs.lines(self.cand.geom, indices)
            witness = first_witness(word_sets, *lines, self.member0).ravel()
        return witness >= 0, witness


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
        word_sets = [
            _perturbed_words(ifs, draw_assignment(rng, ifs, epsilon), c1, cand.rho)
            for _ in range(min(_IID_BLOCK, samples - first))
        ]
        hits += int(np.count_nonzero(first_witness(word_sets, th, tt, member0) >= 0))
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
        best_frac, best_assignment = -1.0, None
        for first in range(0, budget, _IID_BLOCK):
            ks = range(first, min(first + _IID_BLOCK, budget))
            block = [draw_assignment(np.random.default_rng([seed, k]), ifs, epsilon) for k in ks]
            probe_cov, _ = tester.coverage(block, tester.probe_idx)
            for k, assignment, cov in zip(ks, block, probe_cov.reshape(len(block), -1)):
                frac = float(np.count_nonzero(cov) / len(cov))
                if frac > best_frac:
                    best_frac, best_assignment = frac, assignment
                if not cov.all():
                    continue
                covered, _ = tester.coverage([assignment])
                if covered.all():
                    return finish(assignment, k + 1, k, assignment, covered)
        if best_assignment is None:
            return finish(None, budget, None, None, None)
        covered, _ = tester.coverage([best_assignment])
        return finish(None, budget, None, best_assignment, covered)

    if mode == "per_symbol":
        rng = np.random.default_rng([seed])
        symbols = list(ifs.part_one)
        attempts = 0

        current = draw_assignment(rng, ifs, epsilon)
        attempts += 1
        covered, _ = tester.coverage([current])
        uncovered = int(np.count_nonzero(~covered))
        best_unc, best_assignment, best_covered = uncovered, current, covered
        stall = 0
        while attempts < budget and best_unc > 0:
            sym = symbols[attempts % len(symbols)]
            candidate = OmegaAssignment(
                {**current.omegas, sym: draw_assignment(rng, ifs, epsilon).omegas[sym]}
            )
            attempts += 1
            unc_idx = np.flatnonzero(~covered)
            probe_unc = unc_idx[:: max(1, len(unc_idx) // _PROBE_SIZE)]
            probe_cov, _ = tester.coverage([candidate], probe_unc)
            if not probe_cov.any():
                stall += 1
            else:
                cand_covered, _ = tester.coverage([candidate])
                cand_unc = int(np.count_nonzero(~cand_covered))
                if cand_unc < uncovered:
                    current, covered, uncovered = candidate, cand_covered, cand_unc
                    stall = 0
                    if uncovered < best_unc:
                        best_unc, best_assignment, best_covered = uncovered, current, covered
                else:
                    stall += 1
            if stall >= _STALL_LIMIT and attempts < budget:
                current = draw_assignment(rng, ifs, epsilon)
                attempts += 1
                covered, _ = tester.coverage([current])
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
    for a in ifs.alphabet:
        f = ifs.maps[a]
        img = apply_similarity(f, points)
        if a in ifs.part_one:
            c = apply_similarity(f, np.array([0.5, 0.5]))
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
    mask: np.ndarray, geom: GridGeometry, poly: np.ndarray
) -> tuple[int, int, float]:
    """(row, column, distance) of the set cell of mask farthest from conv(poly).

    Distance is convex in t, so only each row's first and last cell are scanned.
    """
    rows = np.flatnonzero(mask.any(axis=1))
    if not len(rows):
        raise ValueError("empty layer")
    first = mask[rows].argmax(axis=1)
    last = geom.n_t - 1 - mask[rows, ::-1].argmax(axis=1)
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
