"""Candidate recurrent sets in line space and the checks that go with them.

The candidate lives on a uniform grid over [0, pi) x (-t_max, t_max). A grid
cell (theta_i, t_j) enters the core set L0 when theta_i lies in the direction
set E and t_j passes the slice test: at least n_required first-block symbols
admit a phi-interval of rotations, of measure above c7, all of whose
two-letter renormalizations land back at a direction in E at offset within
the unit window |t_hat| <= 1 about the origin. That window is fixed, not tied
to the attractor, so L0 admits lines that miss the attractor's convex hull;
when they lie far enough outside, no small perturbation makes the candidate
recur (see `search.hull_obstruction`). PAPER.md holds only the abstract, so it
does not settle whether the paper's slice is narrower than this one. Dilating
L0 by rho/2 and rho (in cells) gives L and L1; the probe net Delta is the
cells of L1 (its pitch is capped below by the grid pitch). Membership queries
for off-grid points use a sup-metric slack window: a point is "in" a gridded
set when some true cell center lies within the slack of it, boundary
included.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter1d

from .errors import BudgetExceeded
from .ifs import IfsSpec, Perturbation, Similarity, Word, compose, map_square, perturb_map
from .lines import Line, line_square_intersects, renormalize_arrays
from .measure import DirectionSet, stopping_cylinders


@dataclass(frozen=True)
class GridGeometry:
    """Uniform grid: rows theta_i = i*pitch (i < n_theta, pitch = pi/n_theta),
    columns t_j = j*pitch (|j| <= m). Row n_theta wraps to row 0 with t -> -t,
    so the symmetric t-grid is exact under the wrap."""

    n_theta: int
    t_max: float = 1.0

    @property
    def pitch(self) -> float:
        return math.pi / self.n_theta

    @property
    def m(self) -> int:
        return math.ceil(self.t_max / self.pitch) - 1

    @property
    def n_t(self) -> int:
        return 2 * self.m + 1

    def theta_values(self) -> np.ndarray:
        return np.arange(self.n_theta) * self.pitch

    def t_values(self) -> np.ndarray:
        return np.arange(-self.m, self.m + 1) * self.pitch

    def row_of(self, theta: float) -> int:
        return int(round(theta / self.pitch)) % self.n_theta


class GridMembership:
    """Slack-window membership queries against one boolean grid.

    A point (theta, t) is a member when some true cell center (theta_i, t_j)
    satisfies |theta_i - theta| <= slack and |t_j - t| <= slack. Windows
    crossing theta = 0 or pi continue on the other end with t negated. The
    test is exact in index space (integral image), so re-checks reproduce it
    bit for bit.
    """

    _TOL = 1e-9  # index-space guard so boundary offsets stay included

    def __init__(self, geom: GridGeometry, grid: np.ndarray):
        if grid.shape != (geom.n_theta, geom.n_t):
            raise ValueError(f"grid shape {grid.shape} != {(geom.n_theta, geom.n_t)}")
        self.geom = geom
        self.grid = grid
        sat = np.zeros((geom.n_theta + 1, geom.n_t + 1), dtype=np.int64)
        np.cumsum(grid, axis=0, dtype=np.int64, out=sat[1:, 1:])
        np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
        self._sat = sat

    def _rect_count(self, r1, r2, c1, c2):
        """Inclusive index-window counts; empty or off-grid windows count 0."""
        n, n_t = self.geom.n_theta, self.geom.n_t
        r1c = np.clip(r1, 0, n - 1)
        r2c = np.clip(r2, 0, n - 1)
        c1c = np.clip(c1, 0, n_t - 1)
        c2c = np.clip(c2, 0, n_t - 1)
        ok = (r1 <= r2) & (c1 <= c2) & (r2 >= 0) & (r1 <= n - 1) & (c2 >= 0) & (c1 <= n_t - 1)
        s = self._sat
        cnt = s[r2c + 1, c2c + 1] - s[r1c, c2c + 1] - s[r2c + 1, c1c] + s[r1c, c1c]
        return np.where(ok, cnt, 0)

    def contains(self, thetas: np.ndarray, ts: np.ndarray, slack: float) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        h, m, n = self.geom.pitch, self.geom.m, self.geom.n_theta
        tol = self._TOL
        r1 = np.ceil((thetas - slack) / h - tol).astype(np.int64)
        r2 = np.floor((thetas + slack) / h + tol).astype(np.int64)
        c1 = np.ceil((ts - slack) / h - tol).astype(np.int64) + m
        c2 = np.floor((ts + slack) / h + tol).astype(np.int64) + m
        count = self._rect_count(np.maximum(r1, 0), np.minimum(r2, n - 1), c1, c2)
        # mirrored continuation below theta = 0: (theta + pi, -t)
        mc1, mc2 = 2 * m - c2, 2 * m - c1
        low = r1 < 0
        if low.any():
            count = count + np.where(
                low, self._rect_count(r1 + n, np.full_like(r2, n - 1), mc1, mc2), 0
            )
        high = r2 > n - 1
        if high.any():
            count = count + np.where(
                high, self._rect_count(np.zeros_like(r1), r2 - n, mc1, mc2), 0
            )
        return count > 0


@dataclass(frozen=True)
class SliceParams:
    """Knobs of the slice test. n_phi is kept odd so the unperturbed rotation
    sits at a cell center; phi cells tile (-epsilon, epsilon)."""

    rho: float
    epsilon: float
    c7: float
    n_phi: int = 33
    n_required: int = 1

    def __post_init__(self):
        if self.n_phi < 1 or self.n_phi % 2 == 0:
            raise ValueError(f"n_phi must be odd and positive, got {self.n_phi}")
        if not (0.0 < self.epsilon < math.pi / 2):
            raise ValueError(f"epsilon out of range: {self.epsilon}")

    @property
    def phi_cell_width(self) -> float:
        return 2.0 * self.epsilon / self.n_phi

    def phi_centers(self) -> np.ndarray:
        w = self.phi_cell_width
        return -self.epsilon + (np.arange(self.n_phi) + 0.5) * w

    @property
    def required_run(self) -> int:
        """Cells in a phi-run whose measure strictly exceeds c7."""
        return int(math.floor(self.c7 / self.phi_cell_width)) + 1


@dataclass
class SliceSet:
    """One theta-slice of the candidate: membership over the t-grid plus,
    when built with detail, enough per-symbol data to reconstruct witnesses."""

    theta: float
    t_grid: np.ndarray
    member: np.ndarray
    symbols: tuple[str, ...] = ()
    qualifies: np.ndarray | None = None  # (n_a1, n_t)
    phi_pass: np.ndarray | None = None  # (n_a1, n_phi, n_t)
    phi_centers: np.ndarray | None = None

    def phi_cell_counts(self) -> np.ndarray:
        """Diagnostic: number of passing rotation cells per (symbol, t)."""
        if self.phi_pass is None:
            raise ValueError("slice was built without detail")
        return self.phi_pass.sum(axis=1)

    def witness_words(self, j: int) -> list[tuple[str, np.ndarray]]:
        """For t-grid index j, the qualifying first-block symbols with their
        passing rotation angles."""
        if self.qualifies is None or self.phi_pass is None:
            raise ValueError("slice was built without detail")
        out = []
        for i, a in enumerate(self.symbols):
            if self.qualifies[i, j]:
                out.append((a, self.phi_centers[self.phi_pass[i, :, j]]))
        return out


class SliceBuilder:
    """Evaluates the slice test row by row, sharing the phi-tensor precompute.

    For first-block symbol a1, rotation phi, second symbol a2, the composed
    map is (rotate f_{a1} by phi about its cell center) o f_{a2}; only its
    translation and angle depend on phi, and the offset window where
    |pos| <= 1 is [shift - r, shift + r] regardless of orientation signs.

    The window |pos| <= 1 is measured about the origin, not about the
    attractor, so it admits offsets of lines that miss the attractor
    altogether (for the gasket, up to 0.24 outside its triangle). Whether the
    paper's slice is narrower is not settled by PAPER.md.
    """

    def __init__(self, ifs: IfsSpec, E: DirectionSet, geom: GridGeometry, params: SliceParams):
        if len(E.theta_grid) != geom.n_theta:
            raise ValueError(
                f"direction set grid ({len(E.theta_grid)}) does not match "
                f"candidate grid ({geom.n_theta})"
            )
        self.ifs = ifs
        self.E = E
        self.geom = geom
        self.params = params
        self.a1 = list(ifs.part_one)
        self.a2 = list(ifs.part_two)
        if not self.a1 or not self.a2:
            raise ValueError("slice test needs both alphabet blocks nonempty")
        n1, n2, n_phi = len(self.a1), len(self.a2), params.n_phi
        phis = params.phi_centers()

        self.r_g = np.empty((n1, n2))
        self.reflect_g = np.empty((n1, n2), dtype=bool)
        self.angle_g = np.empty((n1, n_phi, n2))
        self.tau_g = np.empty((n1, n_phi, n2, 2))
        for i, a in enumerate(self.a1):
            for p, phi in enumerate(phis):
                f1 = perturb_map(ifs.maps[a], Perturbation(phi, (0.0, 0.0)), 0.0, 0.0)
                for q, b in enumerate(self.a2):
                    g = compose(f1, ifs.maps[b])
                    self.r_g[i, q] = g.ratio
                    self.reflect_g[i, q] = g.reflect
                    self.angle_g[i, p, q] = g.angle
                    self.tau_g[i, p, q] = g.translation

    def row_member(self, row: int, detail: bool = False) -> SliceSet:
        geom, params = self.geom, self.params
        theta = row * geom.pitch
        n_phi = self.angle_g.shape[1]
        n_t, m, h = geom.n_t, geom.m, geom.pitch
        empty = SliceSet(
            theta=theta,
            t_grid=geom.t_values(),
            member=np.zeros(n_t, dtype=bool),
            symbols=tuple(self.a1),
        )
        R = params.required_run
        if not self.E.member[row] or R > n_phi:
            return empty

        nv = np.array([-math.sin(theta), math.cos(theta)])
        shift = self.tau_g @ nv
        theta_raw = np.where(
            self.reflect_g[:, None, :], self.angle_g - theta, theta - self.angle_g
        )
        theta_hat = np.mod(theta_raw, math.pi)
        arg_rows = np.rint(theta_hat / h).astype(np.int64) % geom.n_theta
        arg_ok = self.E.member[arg_rows]

        r_win = self.r_g[:, None, :]
        lo = np.ceil((shift - r_win) / h - 1e-9).astype(np.int64) + m
        hi = np.floor((shift + r_win) / h + 1e-9).astype(np.int64) + m
        j = np.arange(n_t)
        phi_pass = (arg_ok[..., None] & (lo[..., None] <= j) & (j <= hi[..., None])).any(axis=2)
        qualifies = sliding_window_view(phi_pass, R, axis=1).all(axis=-1).any(axis=1)
        member = qualifies.sum(axis=0) >= params.n_required
        out = SliceSet(
            theta=theta, t_grid=geom.t_values(), member=member, symbols=tuple(self.a1)
        )
        if detail:
            out.qualifies, out.phi_pass = qualifies, phi_pass
            out.phi_centers = params.phi_centers()
        return out

    def all_rows(self) -> np.ndarray:
        L0 = np.zeros((self.geom.n_theta, self.geom.n_t), dtype=bool)
        for row in self.E.member_rows():
            L0[row] = self.row_member(int(row)).member
        return L0


def build_slice(
    ifs: IfsSpec,
    theta: float,
    E: DirectionSet,
    params: SliceParams,
    geom: GridGeometry | None = None,
    detail: bool = True,
) -> SliceSet:
    """The t-slice of the candidate at the grid row nearest to theta."""
    if geom is None:
        geom = GridGeometry(n_theta=len(E.theta_grid))
    return SliceBuilder(ifs, E, geom, params).row_member(geom.row_of(theta), detail=detail)


def _dilate_wrapped(mask: np.ndarray, k: int) -> np.ndarray:
    """Sup-metric dilation by k cells; the theta axis wraps with t negated."""
    if k <= 0:
        return mask.copy()
    top = mask[-k:, ::-1]
    bottom = mask[:k, ::-1]
    padded = np.concatenate([top, mask, bottom], axis=0)
    padded = maximum_filter1d(padded.view(np.uint8), size=2 * k + 1, axis=0, mode="constant")
    out = maximum_filter1d(padded[k:-k], size=2 * k + 1, axis=1, mode="constant")
    return out.astype(bool)


@dataclass
class RecurrentCandidate:
    """Grids of the candidate recurrent set. L0 is the core, L its rho/2
    cell-dilation — the set recurrence targets — and L1 the rho dilation
    whose cells form the probe net Delta."""

    geom: GridGeometry
    rho: float
    L0: np.ndarray
    L: np.ndarray
    L1: np.ndarray
    r_cells: int
    r1_cells: int
    e_member: np.ndarray
    c5: float

    @property
    def search_slack(self) -> float:
        """Slack of the search rule, which sends L1 into L0: one grid pitch."""
        return self.geom.pitch

    @property
    def check_slack(self) -> float:
        """Slack of the check rule, which sends L into L: rho/2."""
        return self.rho / 2.0

    @property
    def delta_count(self) -> int:
        return int(np.count_nonzero(self.L1))

    def delta_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-major (theta, t) coordinates of every Delta cell."""
        rows, cols = np.nonzero(self.L1)
        return rows * self.geom.pitch, (cols - self.geom.m) * self.geom.pitch

    def core_points(self) -> tuple[np.ndarray, np.ndarray]:
        rows, cols = np.nonzero(self.L)
        return rows * self.geom.pitch, (cols - self.geom.m) * self.geom.pitch

    def membership(self, which: str) -> GridMembership:
        return GridMembership(self.geom, getattr(self, which))

    def save(self, path: str):
        np.savez_compressed(
            path,
            n_theta=self.geom.n_theta,
            t_max=self.geom.t_max,
            rho=self.rho,
            L0=np.packbits(self.L0, axis=1),
            L=np.packbits(self.L, axis=1),
            L1=np.packbits(self.L1, axis=1),
            r_cells=self.r_cells,
            r1_cells=self.r1_cells,
            e_member=np.packbits(self.e_member),
            c5=self.c5,
        )

    @classmethod
    def load(cls, path: str) -> "RecurrentCandidate":
        z = np.load(path)
        geom = GridGeometry(n_theta=int(z["n_theta"]), t_max=float(z["t_max"]))

        def unpack(a, n):
            return np.unpackbits(a, axis=1, count=n).astype(bool)

        return cls(
            geom=geom,
            rho=float(z["rho"]),
            L0=unpack(z["L0"], geom.n_t),
            L=unpack(z["L"], geom.n_t),
            L1=unpack(z["L1"], geom.n_t),
            r_cells=int(z["r_cells"]),
            r1_cells=int(z["r1_cells"]),
            e_member=np.unpackbits(z["e_member"], count=geom.n_theta).astype(bool),
            c5=float(z["c5"]),
        )


def build_candidate(
    E: DirectionSet, slices: np.ndarray, rho: float, geom: GridGeometry
) -> RecurrentCandidate:
    """Assemble L0 from per-row slices and thicken. slices is the full
    (n_theta, n_t) boolean grid; rows outside E must already be false."""
    L0 = np.asarray(slices, dtype=bool)
    if L0.shape != (geom.n_theta, geom.n_t):
        raise ValueError(f"slice grid shape {L0.shape} != {(geom.n_theta, geom.n_t)}")
    if not L0.any():
        raise ValueError("empty candidate: no slice produced members")
    r_cells = math.ceil((rho / 2.0) / geom.pitch)
    r1_cells = math.ceil(rho / geom.pitch)
    return RecurrentCandidate(
        geom=geom,
        rho=rho,
        L0=L0,
        L=_dilate_wrapped(L0, r_cells),
        L1=_dilate_wrapped(L0, r1_cells),
        r_cells=r_cells,
        r1_cells=r1_cells,
        e_member=E.member.copy(),
        c5=E.c5,
    )


def two_letter_words(
    alphabet: Sequence[str], maps: Mapping[str, Similarity]
) -> list[tuple[Word, Similarity]]:
    """All length-2 composites f_{b1} o f_{b2} of the given (possibly
    perturbed) maps, in alphabet-product order."""
    return [((b1, b2), compose(maps[b1], maps[b2])) for b1, b2 in product(alphabet, repeat=2)]


def first_witness(
    words: Sequence[Similarity],
    thetas: np.ndarray,
    ts: np.ndarray,
    member: GridMembership,
    slack: float,
) -> np.ndarray:
    """For each line (theta, t), the index of the first word g whose
    renormalization T_g sends it to within slack of a set cell of member, as
    int16; -1 where no word does.

    Each word is evaluated only on the lines that no earlier word has sent
    home.
    """
    witness = np.full(len(thetas), -1, dtype=np.int16)
    rem = np.arange(len(thetas))
    for w_i, g in enumerate(words):
        if not len(rem):
            break
        th_hat, t_hat = renormalize_arrays(g, thetas[rem], ts[rem])
        hit = member.contains(th_hat, t_hat, slack)
        witness[rem[hit]] = w_i
        rem = rem[~hit]
    return witness


@dataclass
class RecurrenceReport:
    total: int
    recurred: int
    slack: float
    per_word_hits: dict[str, int]
    failures: list[dict] = field(default_factory=list)
    witnesses: list[dict] = field(default_factory=list)

    @property
    def fraction(self) -> float:
        return self.recurred / self.total if self.total else 0.0

    @property
    def all_recurred(self) -> bool:
        return self.recurred == self.total

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "recurred": self.recurred,
            "fraction": self.fraction,
            "slack": self.slack,
            "per_word_hits": self.per_word_hits,
            "failures": self.failures,
            "witnesses": self.witnesses,
        }


_MAX_FAILURES = 100  # failing cells listed in a recurrence report


def check_recurrence(
    perturbed: IfsSpec, cand: RecurrentCandidate, max_witnesses: int = 20
) -> RecurrenceReport:
    """Does every L-grid cell map back into L (within the check rule's slack,
    `RecurrentCandidate.check_slack`) under some two-letter word of the
    perturbed system? Failures are data, not errors.

    Unlike `first_witness`, every word is evaluated on every cell, because
    `per_word_hits` counts all the cells each word sends home.
    """
    slack = cand.check_slack
    thetas, ts = cand.core_points()
    n = len(thetas)
    member = cand.membership("L")
    recurred = np.zeros(n, dtype=bool)
    witness_idx = np.full(n, -1, dtype=np.int16)
    words = two_letter_words(perturbed.alphabet, perturbed.maps)
    per_word = {}
    for w_i, (word, g) in enumerate(words):
        th_hat, t_hat = renormalize_arrays(g, thetas, ts)
        hit = member.contains(th_hat, t_hat, slack)
        per_word["".join(word)] = int(np.count_nonzero(hit))
        witness_idx[hit & ~recurred] = w_i
        recurred |= hit
    fail_idx = np.flatnonzero(~recurred)
    failures = [
        {"theta": float(thetas[i]), "t": float(ts[i])} for i in fail_idx[:_MAX_FAILURES]
    ]
    wit_idx = np.flatnonzero(recurred)[:max_witnesses]
    witnesses = []
    for i in wit_idx:
        word, g = words[witness_idx[i]]
        th_hat, t_hat = renormalize_arrays(g, thetas[i : i + 1], ts[i : i + 1])
        witnesses.append(
            {
                "theta": float(thetas[i]),
                "t": float(ts[i]),
                "word": "".join(word),
                "image": {"theta": float(th_hat[0]), "t": float(t_hat[0])},
            }
        )
    return RecurrenceReport(
        total=n,
        recurred=int(np.count_nonzero(recurred)),
        slack=float(slack),
        per_word_hits=per_word,
        failures=failures,
        witnesses=witnesses,
    )


@dataclass
class SurvivalReport:
    """Cylinder-counting certificate for K intersect a line."""

    line: Line
    surviving_counts: list[int]
    verdict: str  # "certified_empty" | "surviving_at_depth"
    survivors: list[Word]

    @property
    def depth(self) -> int:
        return len(self.surviving_counts) - 1


def certify_line(
    ifs: IfsSpec,
    line: Line,
    max_depth: int,
    budget: int | None = None,
    tol: float = 1e-12,
    max_survivors: int = 1000,
) -> SurvivalReport:
    """Breadth-first survival of cylinders meeting the line.

    An empty level certifies K does not meet the line (squares are inflated
    by tol, so the verdict survives roundoff). A nonempty front at max_depth
    is only evidence of intersection, not proof. budget caps the population
    of any single level.
    """
    identity = Similarity(ratio=1.0, angle=0.0, reflect=False, translation=(0.0, 0.0))
    front: list[tuple[Word, Similarity]] = [((), identity)]
    if not line_square_intersects(line, map_square(identity), tol=tol):
        front = []
    counts = [len(front)]
    for _ in range(max_depth):
        if not front:
            break
        nxt = []
        for w, g in front:
            for a in ifs.alphabet:
                child = compose(g, ifs.maps[a])
                if line_square_intersects(line, map_square(child), tol=tol):
                    nxt.append((w + (a,), child))
            if budget is not None and len(nxt) > budget:
                raise BudgetExceeded(
                    f"budget exceeded: level population passed {budget}",
                    partial=SurvivalReport(
                        line=line,
                        surviving_counts=counts,
                        verdict="budget_exhausted",
                        survivors=[w for w, _ in nxt[:max_survivors]],
                    ),
                )
        front = nxt
        counts.append(len(front))
    verdict = "certified_empty" if not front else "surviving_at_depth"
    return SurvivalReport(
        line=line,
        surviving_counts=counts,
        verdict=verdict,
        survivors=[w for w, _ in front[:max_survivors]],
    )


@dataclass
class IntervalCertificate:
    theta: float
    resolution: float
    n_samples: int
    interval: tuple[float, float] | None
    length: float
    largest_gap: float
    certified: bool
    recurrence_interval: tuple[float, float] | None = None
    recurrence_length: float = 0.0
    recurrence_certified: bool | None = None
    positions: np.ndarray | None = None  # sorted sample projections, kept on request

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "resolution": self.resolution,
            "n_samples": self.n_samples,
            "interval": list(self.interval) if self.interval else None,
            "length": self.length,
            "largest_gap": self.largest_gap,
            "certified": self.certified,
            "recurrence_interval": (
                list(self.recurrence_interval) if self.recurrence_interval else None
            ),
            "recurrence_length": self.recurrence_length,
            "recurrence_certified": self.recurrence_certified,
        }


def attractor_points(ifs: IfsSpec, scale: float, budget: int | None = None) -> np.ndarray:
    """Exact attractor points: images of the first map's fixed point under
    every stopping word at the given scale. Reusable across angles."""
    f0 = ifs.maps[ifs.alphabet[0]]
    p0 = np.linalg.solve(np.eye(2) - f0.linear(), np.asarray(f0.translation))
    _, pts, _, _ = stopping_cylinders(ifs, scale, budget=budget, point=(p0[0], p0[1]))
    return pts


_MIN_LENGTH_FACTOR = 10.0  # a certified interval spans this many resolutions


def _longest_run(mask: np.ndarray, coords: np.ndarray) -> tuple[int, int]:
    """(start, stop) of the run mask[start:stop] of True values that has the
    largest measure coords[stop] - coords[start]; the first such run wins.
    coords has one entry more than mask. (0, 0) when mask has no True value."""
    breaks = np.flatnonzero(~mask)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.append(breaks, len(mask))
    runs = stops > starts
    if not runs.any():
        return 0, 0
    starts, stops = starts[runs], stops[runs]
    k = int(np.argmax(coords[stops] - coords[starts]))
    return int(starts[k]), int(stops[k])


def certify_projection_interval(
    ifs: IfsSpec,
    theta: float,
    resolution: float,
    budget: int | None = None,
    candidate: RecurrentCandidate | None = None,
    membership: GridMembership | None = None,
    keep_positions: bool = False,
    points: np.ndarray | None = None,
) -> IntervalCertificate:
    """Gap certificate for the projection of the attractor onto theta.

    Samples are exact attractor points (images of a fixed point under all
    stopping words at scale resolution/2), so sample positions lie in the
    projection. Certified means: some window of consecutive samples has all
    gaps <= resolution and spans at least _MIN_LENGTH_FACTOR * resolution.
    A dust-like projection fails because every candidate window stays short.

    When a candidate grid is supplied, the longest run of L-cells in the row
    nearest theta, all of which recur into L under ifs, is reported as a
    second, independent certificate. Pass the prebuilt L membership when
    certifying several angles against one candidate.
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    pts = attractor_points(ifs, resolution / 2.0, budget=budget) if points is None else points
    pos = np.sort(pts @ np.array([-math.sin(theta), math.cos(theta)]))
    gaps = np.diff(pos)

    lo, hi = _longest_run(gaps <= resolution, pos)
    length = pos[hi] - pos[lo]
    min_len = _MIN_LENGTH_FACTOR * resolution
    interval = (float(pos[lo]), float(pos[hi])) if length >= min_len else None

    rec_interval, rec_len, rec_ok = None, 0.0, None
    if candidate is not None:
        geom = candidate.geom
        row = geom.row_of(theta)
        row_cells = candidate.L[row].copy()
        cols = np.flatnonzero(row_cells)
        if len(cols):
            if membership is None:
                membership = candidate.membership("L")
            words = [g for _, g in two_letter_words(ifs.alphabet, ifs.maps)]
            th = np.full(len(cols), row * geom.pitch)
            tt = (cols - geom.m) * geom.pitch
            rec = first_witness(words, th, tt, membership, candidate.check_slack) >= 0
            row_cells[cols[~rec]] = False
        best_start, stop = _longest_run(row_cells, np.arange(geom.n_t + 1))
        best_run = stop - best_start
        rec_len = best_run * geom.pitch
        if best_run:
            lo_t = (best_start - geom.m) * geom.pitch
            rec_interval = (float(lo_t), float(lo_t + rec_len))
        rec_ok = rec_len >= min_len
    return IntervalCertificate(
        theta=float(theta),
        resolution=float(resolution),
        n_samples=len(pos),
        interval=interval,
        length=float(length),
        largest_gap=float(gaps.max()) if len(gaps) else math.inf,
        certified=interval is not None,
        recurrence_interval=rec_interval,
        recurrence_length=float(rec_len),
        recurrence_certified=rec_ok,
        positions=pos if keep_positions else None,
    )
