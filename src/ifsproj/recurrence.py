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
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter1d

from .ifs import IfsSpec, Perturbation, Similarity, Word, compose, perturb_map
from .lines import MapArrays, renormalize_affine, renormalize_arrays
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


def _pad_wrapped(grid: np.ndarray, k: int) -> np.ndarray:
    """grid with k rows added at each theta end: the rows that continue it
    past pi and below 0, which are the far end's rows with t negated."""
    return np.concatenate([grid[-k:, ::-1], grid, grid[:k, ::-1]], axis=0)


class RowRuns(NamedTuple):
    """The maximal runs of true cells of a boolean grid, row by row: row r
    holds the half-open column runs [start[k], stop[k]) for k in
    ptr[r]:ptr[r + 1], left to right. Cells are numbered in row-major order,
    the order of `np.nonzero` on the grid."""

    ptr: np.ndarray
    start: np.ndarray
    stop: np.ndarray

    @classmethod
    def of(cls, grid: np.ndarray) -> "RowRuns":
        n, n_t = grid.shape
        # one false cell before the grid and after every row, so each run
        # starts and stops at a change between neighbours of the flat buffer
        buf = np.zeros(n * (n_t + 1) + 1, dtype=bool)
        buf[1:].reshape(n, n_t + 1)[:, :n_t] = grid
        change = np.flatnonzero(buf[1:] != buf[:-1])
        row, start = np.divmod(change[0::2], n_t + 1)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
        return cls(ptr, start, change[1::2] - row * (n_t + 1))

    @property
    def before(self) -> np.ndarray:
        """Cells before each run, and the cell count at the end."""
        return np.concatenate(([0], np.cumsum(self.stop - self.start)))

    def lines(self, geom: GridGeometry, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(theta, t) = (row * pitch, (column - m) * pitch) of the given
        cells."""
        before = self.before
        k = np.searchsorted(before, cells, "right") - 1
        row = np.searchsorted(self.ptr, k, "right") - 1
        return row * geom.pitch, (self.start[k] + cells - before[k] - geom.m) * geom.pitch


class GridMembership:
    """Slack-window membership queries against one boolean grid.

    A point (theta, t), with theta canonical in [0, pi], is a member when
    some true cell center (theta_i, t_j) satisfies |theta_i - theta| <= slack
    and |t_j - t| <= slack. Windows crossing theta = 0 or pi continue on the
    other end with t negated: the grid is padded once with its mirrored end
    rows, so each query is one rectangle of index space. The padded grid is
    held only as its row runs (`runs`), which answer each row of a window
    from the row's last run (a binary search where the row has several) and
    also serve `first_witness_rows`. The test is exact in index space, so
    re-checks reproduce it bit for bit.
    """

    _TOL = 1e-9  # index-space guard so boundary offsets stay included

    def __init__(self, geom: GridGeometry, grid: np.ndarray, slack: float):
        if grid.shape != (geom.n_theta, geom.n_t):
            raise ValueError(f"grid shape {grid.shape} != {(geom.n_theta, geom.n_t)}")
        self.geom = geom
        self.slack = slack
        # rows a window around a canonical theta can reach past either end
        self._pad = math.ceil(slack / geom.pitch) + 1
        self.runs = RowRuns.of(_pad_wrapped(grid, self._pad))
        ptr, start, _ = self.runs
        # key stride n_t + 1 orders the runs by row, then by first column
        self._keys = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)) * (geom.n_t + 1) + start

    def _window(self, x: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
        """First and last index of the cells within slack of the coordinates
        x, offset by base."""
        h, slack, tol = self.geom.pitch, self.slack, self._TOL
        lo = np.ceil((x - slack) / h - tol).astype(np.int64) + base
        hi = np.floor((x + slack) / h + tol).astype(np.int64) + base
        return lo, hi

    def rows(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and last padded row of the windows around thetas."""
        return self._window(thetas, self._pad)

    def contains(self, thetas: np.ndarray, ts: np.ndarray) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        ptr, start, stop = self.runs
        if not len(stop):
            return np.zeros(len(thetas), dtype=bool)
        n_t = self.geom.n_t
        r1, r2 = self.rows(thetas)
        c1, c2 = self._window(ts, self.geom.m)
        r1, r2, c2 = np.maximum(r1, 0), np.minimum(r2, len(ptr) - 2), np.minimum(c2, n_t - 1)
        # empty windows read row -1, whose ptr entry (the run count) no k reaches
        empty = (r1 > r2) | (c1 > c2)
        r1[empty] = r2[empty] = -1

        def row_hit(row, c1, c2):
            # the row's last run starting at or before c2: its last run, or a
            # binary search where it has several; a search that finds an
            # earlier row's run fails the ptr test
            k = ptr[row + 1] - 1
            several = k > ptr[row]
            if several.any():
                key = row[several] * (n_t + 1) + c2[several]
                k[several] = np.searchsorted(self._keys, key, "right") - 1
            return (k >= ptr[row]) & (start[k] <= c2) & (stop[k] > c1)

        # a window's end rows, then its inner rows where it has any
        hit = row_hit(r1, c1, c2) | row_hit(r2, c1, c2)
        for d in range(1, int((r2 - r1).max(initial=0))):
            i = np.flatnonzero(r1 + d < r2)
            hit[i] |= row_hit(r1[i] + d, c1[i], c2[i])
        return hit


@dataclass(frozen=True)
class SliceParams:
    """Knobs of the slice test. n_phi is kept odd so the unperturbed rotation
    sits at a cell center; phi cells tile (-epsilon, epsilon)."""

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

    def row_member(self, row: int) -> np.ndarray:
        """The slice test's member mask over the t-grid of one row."""
        geom, params = self.geom, self.params
        theta = row * geom.pitch
        n_phi = self.angle_g.shape[1]
        n_t, m, h = geom.n_t, geom.m, geom.pitch
        R = params.required_run
        if not self.E.member[row] or R > n_phi:
            return np.zeros(n_t, dtype=bool)

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
        return qualifies.sum(axis=0) >= params.n_required

    def all_rows(self) -> np.ndarray:
        L0 = np.zeros((self.geom.n_theta, self.geom.n_t), dtype=bool)
        for row in self.E.member_rows():
            L0[row] = self.row_member(int(row))
        return L0


def _dilate_wrapped(mask: np.ndarray, k: int) -> np.ndarray:
    """Sup-metric dilation by k cells; the theta axis wraps with t negated."""
    if k <= 0:
        return mask.copy()
    padded = _pad_wrapped(mask, k).view(np.uint8)
    padded = maximum_filter1d(padded, size=2 * k + 1, axis=0, mode="constant")
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
    word_sets: Sequence[Sequence[Similarity]],
    thetas: np.ndarray,
    ts: np.ndarray,
    member: GridMembership,
) -> np.ndarray:
    """For each word list (set) and each line (theta, t), the index of the
    set's first word g whose renormalization T_g sends the line into member
    (within its slack), as a (sets, lines) int16 array; -1 where no word of
    the set does. The lists must have equal length.

    Word index k runs once over the (set, line) pairs that no earlier word of
    their own set has sent home, with each pair's own map (`MapArrays`): one
    renormalization and one membership query per word index, however many
    sets there are.
    """
    n_sets, n = len(word_sets), len(thetas)
    if len({len(words) for words in word_sets}) > 1:
        raise ValueError("word lists differ in length")
    witness = np.full(n_sets * n, -1, dtype=np.int16)
    rem = np.arange(n_sets * n)  # pair b * n + i: set b, line i
    for w_i, column in enumerate(zip(*word_sets)):
        if not len(rem):
            break
        sets, lines = np.divmod(rem, n)
        g = MapArrays.of(column).take(sets)
        th_hat, t_hat = renormalize_arrays(g, thetas[lines], ts[lines])
        hit = member.contains(th_hat, t_hat)
        witness[rem[hit]] = w_i
        rem = rem[~hit]
    return witness.reshape(n_sets, n)


def _merge(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union of half-open intervals [start, stop): the disjoint intervals in
    increasing order; touching ones join."""
    order = np.argsort(start, kind="stable")
    start, stop = start[order], stop[order]
    if not len(start):
        return start, stop
    reach = np.maximum.accumulate(stop)
    first = np.flatnonzero(np.concatenate(([True], start[1:] > reach[:-1])))
    return start[first], reach[np.append(first[1:], len(start)) - 1]


def _inside(x: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Is each x in the union of the disjoint sorted intervals [start, stop)?"""
    return np.searchsorted(start, x, "right") > np.searchsorted(stop, x, "right")


def _expand(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + count[i] - 1 for every i, in order."""
    skip = np.cumsum(count) - count
    return np.repeat(first - skip, count) + np.arange(count.sum())


def _pull_back(
    g: Similarity, rows: np.ndarray, member: GridMembership
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intervals (row, lo, hi) of real column coordinates: up to rounding,
    T_g sends a cell of one of the given source rows into member exactly
    when its column lies in [lo, hi] of one of that row's intervals.

    A row's image angle selects one band of padded target rows; each run of
    the band's union is met by the windows of offsets in [(a - m) h - slack,
    (b - 1 - m) h + slack] (columns a..b-1), and the offset map
    t -> sign (t - shift) / ratio is inverted at both ends.
    """
    geom = member.geom
    h, m, n_t = geom.pitch, geom.m, geom.n_t
    ptr, start, stop = member.runs
    theta_p, sign, shift = renormalize_affine(g, rows * h)
    r1, r2 = member.rows(theta_p)
    r1, r2 = np.maximum(r1, 0), np.minimum(r2, len(ptr) - 2)  # padded rows 0..len(ptr)-2
    band = np.maximum(r2 - r1 + 1, 0)
    t_row = _expand(r1, band)
    n_runs = ptr[t_row + 1] - ptr[t_row]
    k = _expand(ptr[t_row], n_runs)
    # key stride n_t + 1 keeps the runs of different source rows apart
    key = np.repeat(np.repeat(np.arange(len(rows)), band), n_runs) * (n_t + 1)
    a, b = _merge(key + start[k], key + stop[k])
    i = a // (n_t + 1)
    a, b = a - i * (n_t + 1), b - i * (n_t + 1)
    ends = np.stack([(a - m) * h - member.slack, (b - 1 - m) * h + member.slack])
    j = (shift[i] + sign[i] * g.ratio * ends) / h + m
    return rows[i], j.min(axis=0), j.max(axis=0)


def first_witness_rows(
    words: Sequence[Similarity], source: RowRuns, member: GridMembership
) -> np.ndarray:
    """`first_witness` on every true cell of a grid (given by its row runs),
    in row-major order, evaluated row by row.

    The cells of a row share theta, so under one word the cells it sends
    into member lie in a few column intervals (`_pull_back`). Cells more
    than one column inside an interval are members, cells more than one
    column outside all of them are not, and the cells in between go through
    the point route (`renormalize_arrays` and `GridMembership.contains`).
    Rounding and the membership's index guard move an interval end by far
    less than a column for any word of ratio below 1e6, so the witnesses
    equal `first_witness` on the cells' (theta, t) bit for bit. Below a
    slack of half a pitch a window can fall between cell centers; there the
    point route answers for every cell.
    """
    geom = member.geom
    n_t = geom.n_t
    ptr, start, stop = source
    run_x = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)) * n_t + start
    before = source.before
    n_cells = int(before[-1])
    if member.slack < geom.pitch / 2:
        return first_witness([words], *source.lines(geom, np.arange(n_cells)), member)[0]

    def cell_ranges(row, c0, c1):
        """[first, stop) of the source cells in columns [c0, c1) of each row,
        found by ranking the flat index row * n_t + column among the runs."""
        c0, c1 = (np.clip(c, 0, n_t).astype(np.int64) for c in (c0, c1))
        x = np.stack([row * n_t + c0, row * n_t + c1])[:, c0 < c1]
        k = np.maximum(np.searchsorted(run_x, x, "right") - 1, 0)
        return before[k] + np.clip(x - run_x[k], 0, stop[k] - start[k])

    rows = np.flatnonzero(np.diff(ptr))
    hit0 = hit1 = np.zeros(0, dtype=np.int64)  # cells that some earlier word hits
    firsts, stops, hits = [hit0], [hit0], [hit0]  # each word's first hits
    for w_i, g in enumerate(words):
        if len(hit0) == 1 and hit1[0] - hit0[0] == n_cells:
            break
        row, lo, hi = _pull_back(g, rows, member)
        sure0, sure1 = _merge(*cell_ranges(row, np.floor(lo) + 2, np.ceil(hi) - 1))
        near0, near1 = _merge(
            *cell_ranges(
                np.concatenate([row, row]),
                np.concatenate([np.ceil(lo - 1), np.ceil(hi - 1)]),
                np.concatenate([np.floor(lo + 1), np.floor(hi + 1)]) + 1,
            )
        )
        near = _expand(near0, near1 - near0)
        near = near[~_inside(near, sure0, sure1) & ~_inside(near, hit0, hit1)]
        th_hat, t_hat = renormalize_arrays(g, *source.lines(geom, near))
        confirmed = near[member.contains(th_hat, t_hat)]
        # the sure cells outside the earlier hits, as elementary segments
        cuts = np.sort(np.concatenate([sure0, sure1, hit0, hit1]))
        seg0, seg1 = cuts[:-1], cuts[1:]
        new = (seg0 < seg1) & _inside(seg0, sure0, sure1) & ~_inside(seg0, hit0, hit1)
        firsts += [seg0[new], confirmed]
        stops += [seg1[new], confirmed + 1]
        hits.append(np.full(np.count_nonzero(new) + len(confirmed), w_i))
        hit0, hit1 = _merge(
            np.concatenate([hit0, sure0, confirmed]), np.concatenate([hit1, sure1, confirmed + 1])
        )

    # paint every first hit at once, -1 in the gaps between them
    first, stop_, word = (np.concatenate(x) for x in (firsts, stops, hits))
    order = np.argsort(first)
    first, stop_, word = first[order], stop_[order], word[order]
    value = np.full(2 * len(first) + 1, -1, dtype=np.int16)
    value[1::2] = word
    length = np.empty(2 * len(first) + 1, dtype=np.int64)
    length[0::2] = np.append(first, n_cells) - np.concatenate([[0], stop_])
    length[1::2] = stop_ - first
    return np.repeat(value, length)


@dataclass
class RecurrenceReport:
    total: int
    recurred: int
    slack: float
    witness_counts: dict[str, int]
    failures: list[dict] = field(default_factory=list)
    witnesses: list[dict] = field(default_factory=list)

    @property
    def fraction(self) -> float:
        return self.recurred / self.total if self.total else 0.0

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "recurred": self.recurred,
            "fraction": self.fraction,
            "slack": self.slack,
            "witness_counts": self.witness_counts,
            "failures": self.failures,
            "witnesses": self.witnesses,
        }


_MAX_FAILURES = 100  # failing cells listed in a recurrence report
_MAX_WITNESSES = 20  # recurring cells listed with their first word


def check_recurrence(
    perturbed: IfsSpec, cand: RecurrentCandidate, member: GridMembership
) -> RecurrenceReport:
    """Does every L-grid cell map back into L (within the check rule's slack,
    `RecurrentCandidate.check_slack`) under some two-letter word of the
    perturbed system? Failures are data, not errors. member is the L
    membership at the check slack, `GridMembership(cand.geom, cand.L,
    cand.check_slack)`, so one assessment builds it once.

    `witness_counts` counts, per word, the cells whose first witness it is;
    the counts sum to `recurred`.
    """
    if member.geom != cand.geom or member.slack != cand.check_slack:
        raise ValueError("member is not the candidate's L membership at the check slack")
    source = RowRuns.of(cand.L)
    words = two_letter_words(perturbed.alphabet, perturbed.maps)
    witness = first_witness_rows([g for _, g in words], source, member)
    recurred = witness >= 0
    counts = np.bincount(witness[recurred], minlength=len(words))
    thetas, ts = source.lines(cand.geom, np.flatnonzero(~recurred)[:_MAX_FAILURES])
    failures = [{"theta": float(th), "t": float(t)} for th, t in zip(thetas, ts)]
    first = np.flatnonzero(recurred)[:_MAX_WITNESSES]
    thetas, ts = source.lines(cand.geom, first)
    witnesses = []
    for i, th, t in zip(first, thetas, ts):
        word, g = words[witness[i]]
        th_hat, t_hat = renormalize_arrays(g, np.array([th]), np.array([t]))
        witnesses.append(
            {
                "theta": float(th),
                "t": float(t),
                "word": "".join(word),
                "image": {"theta": float(th_hat[0]), "t": float(t_hat[0])},
            }
        )
    return RecurrenceReport(
        total=len(witness),
        recurred=int(np.count_nonzero(recurred)),
        slack=float(member.slack),
        witness_counts={"".join(w): int(c) for (w, _), c in zip(words, counts)},
        failures=failures,
        witnesses=witnesses,
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
    second, independent certificate, in the offsets of theta itself: a row
    reached an odd number of half-turns away names the line with t negated.
    Pass the prebuilt L membership (with the check slack) when certifying
    several angles against one candidate.
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
        turns, row = divmod(int(round(theta / geom.pitch)), geom.n_theta)
        row_cells = candidate.L[row].copy()
        cols = np.flatnonzero(row_cells)
        if len(cols):
            if membership is None:
                membership = GridMembership(geom, candidate.L, candidate.check_slack)
            words = [g for _, g in two_letter_words(ifs.alphabet, ifs.maps)]
            th = np.full(len(cols), row * geom.pitch)
            tt = (cols - geom.m) * geom.pitch
            rec = first_witness([words], th, tt, membership)[0] >= 0
            row_cells[cols[~rec]] = False
        best_start, stop = _longest_run(row_cells, np.arange(geom.n_t + 1))
        best_run = stop - best_start
        rec_len = best_run * geom.pitch
        if best_run:
            lo_t = (best_start - geom.m) * geom.pitch
            rec_interval = (float(lo_t), float(lo_t + rec_len))
            if turns % 2:
                rec_interval = (-rec_interval[1], -rec_interval[0])
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
