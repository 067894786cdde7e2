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
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

import numpy as np

from .ifs import IfsSpec, MapArrays
from .lines import renormalize_affine, renormalize_arrays
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


class RowRuns(NamedTuple):
    """The maximal runs of true cells of a boolean grid, row by row: row r
    holds the half-open column runs [start[k], stop[k]) for k in
    ptr[r]:ptr[r + 1], left to right. Cells are numbered in row-major order,
    the order of `np.nonzero` on the grid."""

    ptr: np.ndarray
    start: np.ndarray
    stop: np.ndarray

    @classmethod
    def from_rows(cls, n: int, row: np.ndarray, start: np.ndarray, stop: np.ndarray) -> "RowRuns":
        """The runs of an n-row grid from each run's row, given sorted by
        row, then by column."""
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
        return cls(ptr, start, stop)

    @property
    def rows(self) -> np.ndarray:
        """The row of each run."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr))

    def grid(self, n_t: int) -> np.ndarray:
        """The boolean grid with n_t columns whose true cells the runs are:
        false and true stretches of the flat grid painted in one pass."""
        n = len(self.ptr) - 1
        first, last = self.rows * n_t + self.start, self.rows * n_t + self.stop
        length = np.empty(2 * len(first) + 1, dtype=np.int64)
        length[0::2] = np.append(first, n * n_t) - np.concatenate([[0], last])
        length[1::2] = last - first
        return np.repeat(np.arange(len(length)) % 2 == 1, length).reshape(n, n_t)

    @property
    def before(self) -> np.ndarray:
        """Cells before each run, and the cell count at the end."""
        return np.concatenate(([0], np.cumsum(self.stop - self.start)))

    @property
    def row_cells(self) -> np.ndarray:
        """Cells in each row."""
        return np.diff(self.before[self.ptr])

    def lines(self, geom: GridGeometry, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(theta, t) = (row * pitch, (column - m) * pitch) of the given
        cells."""
        before = self.before
        k = np.searchsorted(before, cells, "right") - 1
        row = np.searchsorted(self.ptr, k, "right") - 1
        return row * geom.pitch, (self.start[k] + cells - before[k] - geom.m) * geom.pitch


class GridMembership:
    """Slack-window membership queries against one gridded set, given by its
    row runs.

    A point (theta, t), with theta canonical in [0, pi], is a member when
    some true cell center (theta_i, t_j) satisfies |theta_i - theta| <= slack
    and |t_j - t| <= slack. Windows crossing theta = 0 or pi continue on the
    other end with t negated: the set's row runs are padded once with the
    mirrored runs of its end rows (`_pad_runs`), so each query is one
    rectangle of index space. The padded set is held only as these row runs
    (`runs`), which answer each row of a window from the row's last run (a
    binary search where the row has several) and also serve
    `first_witness_rows`. The test is exact in index space, so re-checks
    reproduce it bit for bit.
    """

    _TOL = 1e-9  # index-space guard so boundary offsets stay included

    def __init__(self, geom: GridGeometry, runs: RowRuns, slack: float):
        if len(runs.ptr) != geom.n_theta + 1:
            raise ValueError(f"runs cover {len(runs.ptr) - 1} rows, not {geom.n_theta}")
        self.geom = geom
        self.slack = slack
        # rows a window around a canonical theta can reach past either end
        self._pad = math.ceil(slack / geom.pitch) + 1
        self.runs = _pad_runs(runs, geom.n_t, self._pad)
        # key stride n_t + 1 orders the runs by row, then by first column
        self._keys = self.runs.rows * (geom.n_t + 1) + self.runs.start

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


_SLICE_BLOCK = 1 << 13  # (row, a1, phi, a2) entries of the slice test evaluated at a time


class SliceBuilder:
    """Evaluates the slice test on blocks of consecutive rows, sharing the
    phi-tensor precompute: `all_rows` takes the E rows about _SLICE_BLOCK
    (row, a1, phi, a2) entries at a time, so its working set depends
    neither on the number of E rows nor on the alphabet or n_phi.

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
        # (rotate f_{a1} by phi about its cell center) o f_{a2} for every (a1, phi, a2)
        turned = ifs.letter_maps(self.a1).reshape(n1, 1).turned(params.phi_centers(), (0.0, 0.0))
        g = turned.compose(ifs.letter_maps(self.a2)).reshape(n1, n_phi, n2)
        self.r_g = g.ratio[:, 0]
        self.reflect_g = g.reflect[:, 0]
        self.angle_g = g.angle
        self.tau_g = np.stack(g.translation, axis=-1)

    def _runs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The slice test's member cells on the given rows (those in E), as
        runs (row, start, stop) in row order.

        Each (row, a1, phi, a2) with its image angle in E passes on one
        column interval. Four covers reduce these: the union over a2 gives
        the cells each (a1, phi) passes; a window of required_run
        consecutive phi cells passes where all of them do (a cover of
        required_run); a1 qualifies where some window passes; a cell is a
        member where at least n_required first-block symbols qualify.
        """
        geom, params = self.geom, self.params
        n1, n_phi, n2 = self.angle_g.shape
        n_t, m, h = geom.n_t, geom.m, geom.pitch
        R = params.required_run
        rows = rows[self.E.member[rows]]
        n_win = n_phi - R + 1
        if n_win < 1:
            rows = rows[:0]

        theta = (rows * h)[:, None, None, None]
        # one normal per row from scalar libm sine and cosine, and one
        # (n2, 2) @ (2, 1) product per (row, a1, phi), so that a row's
        # intervals round alike whatever rows are evaluated with it
        nv = np.array([[-math.sin(th), math.cos(th)] for th in theta.ravel()]).reshape(-1, 2)
        shift = (self.tau_g @ nv[:, None, None, :, None])[..., 0]
        theta_raw = np.where(self.reflect_g[:, None, :], self.angle_g - theta, theta - self.angle_g)
        theta_hat = np.mod(theta_raw, math.pi)
        arg_ok = self.E.member[np.rint(theta_hat / h).astype(np.int64) % geom.n_theta]
        r_win = self.r_g[:, None, :]
        lo = np.ceil((shift - r_win) / h - 1e-9).astype(np.int64) + m
        hi = np.floor((shift + r_win) / h + 1e-9).astype(np.int64) + m
        lo, stop = np.maximum(lo, 0), np.minimum(hi + 1, n_t)
        passes = np.flatnonzero(arg_ok & (lo < stop))

        # key (row, a1, phi): the cells each rotation passes
        key, start, stop = _cover(passes // n2, lo.ravel()[passes], stop.ravel()[passes], 1)
        # key (row, a1, window): each phi cell's runs, once per window holding it
        phi = key % n_phi
        w0 = np.maximum(phi - R + 1, 0)
        count = np.minimum(phi, n_win - 1) - w0 + 1
        key = np.repeat(key // n_phi * n_win, count) + _expand(w0, count)
        key, start, stop = _cover(key, np.repeat(start, count), np.repeat(stop, count), R)
        key, start, stop = _cover(key // n_win, start, stop, 1)
        key, start, stop = _cover(key // n1, start, stop, params.n_required)
        return rows[key], start, stop

    def row_member(self, row: int) -> np.ndarray:
        """The slice test's member mask over the t-grid of one row."""
        _, start, stop = self._runs(np.array([row]))
        return RowRuns.from_rows(1, np.zeros_like(start), start, stop).grid(self.geom.n_t)[0]

    def all_rows(self) -> RowRuns:
        """The core L0: the slice test on every E row, as row runs. `_runs`
        is row-local, so the runs of consecutive blocks of rows, joined in
        order, are those of all rows at once; no E rows make one empty
        block."""
        rows = self.E.member_rows()
        per_block = max(1, _SLICE_BLOCK // self.angle_g.size)
        starts = range(0, max(len(rows), 1), per_block)
        blocks = [self._runs(rows[i : i + per_block]) for i in starts]
        return RowRuns.from_rows(self.geom.n_theta, *(np.concatenate(x) for x in zip(*blocks)))


def _pad_runs(runs: RowRuns, n_t: int, k: int) -> RowRuns:
    """The runs of the grid with n_t columns whose runs are given, with k
    rows added at each theta end (as many as it has, if fewer): the rows
    that continue it past pi and below 0, which are the far end's rows with
    t negated, so their runs are mirrored as in `_dilate`."""
    n = len(runs.ptr) - 1
    k = min(k, n)
    rows = runs.rows
    # the runs of the last k rows start at tail; those of the first k end at head
    tail, head = runs.ptr[n - k], runs.ptr[k]
    row = np.concatenate([rows[tail:] - (n - k), rows + k, rows[:head] + n + k])
    start = np.concatenate([n_t - runs.stop[tail:], runs.start, n_t - runs.stop[:head]])
    stop = np.concatenate([n_t - runs.start[tail:], runs.stop, n_t - runs.start[:head]])
    return RowRuns.from_rows(n + 2 * k, *_cover(row, start, stop, 1))


def _dilate(runs: RowRuns, n_t: int, k: int) -> RowRuns:
    """Sup-metric dilation by k cells of the grid with n_t columns whose
    runs are given; the theta axis wraps with t negated. Each run is copied
    onto the 2k + 1 rows around its own, mirrored where the row passes an
    end, and widened by k columns; the copies are merged."""
    n = len(runs.ptr) - 1
    row = (runs.rows[:, None] + np.arange(-k, k + 1)).ravel()
    start, stop = np.repeat(runs.start, 2 * k + 1), np.repeat(runs.stop, 2 * k + 1)
    wrap = (row < 0) | (row >= n)
    start, stop = np.where(wrap, n_t - stop, start), np.where(wrap, n_t - start, stop)
    row, start, stop = _cover(row % n, np.maximum(start - k, 0), np.minimum(stop + k, n_t), 1)
    return RowRuns.from_rows(n, row, start, stop)


_LAYERS = ("L0", "L", "L1")  # in the order of candidate.npz


@dataclass
class RecurrentCandidate:
    """The layers of the candidate recurrent set, as row runs. L0 is the
    core, L its rho/2 cell-dilation — the set recurrence targets — and L1
    the rho dilation whose cells form the probe net Delta. Only `save`
    paints them as boolean grids, for `candidate.npz`."""

    geom: GridGeometry
    rho: float
    L0: RowRuns
    L: RowRuns
    L1: RowRuns
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
        return int(self.L1.before[-1])

    def save(self, path: str):
        np.savez_compressed(
            path,
            n_theta=self.geom.n_theta,
            t_max=self.geom.t_max,
            rho=self.rho,
            **{k: np.packbits(getattr(self, k).grid(self.geom.n_t), axis=1) for k in _LAYERS},
            r_cells=self.r_cells,
            r1_cells=self.r1_cells,
            e_member=np.packbits(self.e_member),
            c5=self.c5,
        )


def build_candidate(
    E: DirectionSet, slices: RowRuns, rho: float, geom: GridGeometry
) -> RecurrentCandidate:
    """Assemble the candidate from the core L0, given as the row runs of the
    slice test on every E row (`SliceBuilder.all_rows`), and thicken it."""
    if len(slices.ptr) != geom.n_theta + 1:
        raise ValueError(f"slice runs cover {len(slices.ptr) - 1} rows, not {geom.n_theta}")
    if not len(slices.start):
        raise ValueError("empty candidate: no slice produced members")
    r_cells = math.ceil((rho / 2.0) / geom.pitch)
    r1_cells = math.ceil(rho / geom.pitch)
    return RecurrentCandidate(
        geom=geom,
        rho=rho,
        L0=slices,
        L=_dilate(slices, geom.n_t, r_cells),
        L1=_dilate(slices, geom.n_t, r1_cells),
        r_cells=r_cells,
        r1_cells=r1_cells,
        e_member=E.member.copy(),
        c5=E.c5,
    )


def two_letter_words(letters: MapArrays) -> MapArrays:
    """The maps f_{b1} o f_{b2} of the k^2 two-letter words over the letter
    maps along the last axis (one system's, or a block of perturbed
    systems'), in alphabet-product order: word b1 * k + b2."""
    return letters.compose(letters)


def first_witness(
    words: MapArrays,
    thetas: np.ndarray,
    ts: np.ndarray,
    member: GridMembership,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """For each word list (set) and each line (theta, t), the index of the
    set's first word g whose renormalization T_g sends the line into member
    (within its slack), as a (sets, lines) int16 array; -1 where no word of
    the set does. words holds the sets' maps as (sets, words) arrays.

    order, a (words, lines) array whose column i is a permutation of the
    word indices, sets the order in which line i tries the words of every
    set; the result is then the first hit in that order, which need not be
    the first in list order. Without it every line tries the words in list
    order. Either way a line gets -1 exactly when no word of the set hits.

    Step k runs once over the (set, line) pairs that no earlier step has
    sent home, each pair with its own map: one renormalization and one
    membership query per step, however many sets there are. Each line's
    sine and cosine are computed once per call.
    """
    (n_sets, n_words), n = words.ratio.shape, len(thetas)
    sin, cos = np.sin(thetas), np.cos(thetas)
    flat = words.reshape(-1)  # set b, word w: b * n_words + w; one flat index is the fastest take
    witness = np.full(n_sets * n, -1, dtype=np.int16)
    rem = np.arange(n_sets * n)  # pair b * n + i: set b, line i
    for k in range(n_words):
        if not len(rem):
            break
        sets, lines = np.divmod(rem, n)
        word = np.full(len(rem), k) if order is None else order[k, lines]
        th_hat, t_hat = renormalize_arrays(
            flat.take(sets * n_words + word), thetas[lines], ts[lines], (sin[lines], cos[lines])
        )
        hit = member.contains(th_hat, t_hat)
        witness[rem[hit]] = word[hit]
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


def _cover(
    keys: np.ndarray, start: np.ndarray, stop: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells covered by at least k >= 1 of the nonempty half-open runs
    [start, stop) of their own key, as maximal runs (keys, start, stop) in
    order of key, then start. Starts are nonnegative; touching runs join.

    The runs of all keys are handled at once, each key's cells laid out past
    the previous key's on one line. A union (k = 1) is a `_merge`; otherwise
    one sweep counts the runs opened minus those closed before each
    stretch between run ends.
    """
    stride = int(stop.max(initial=0)) + 1
    base = keys * stride
    if k == 1:
        a, b = _merge(base + start, base + stop)
    else:
        x = np.concatenate([base + start, base + stop])
        order = np.argsort(x, kind="stable")
        x = x[order]
        depth = np.cumsum(np.where(order < len(start), 1, -1))
        on = np.flatnonzero((depth[:-1] >= k) & (x[:-1] < x[1:]))
        a, b = x[on], x[on + 1]
        first, last = np.ones(len(a), dtype=bool), np.ones(len(a), dtype=bool)
        first[1:] = last[:-1] = a[1:] != b[:-1]
        a, b = a[first], b[last]
    key = a // stride
    return key, a - key * stride, b - key * stride


def _inside(x: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Is each x in the union of the disjoint sorted intervals [start, stop)?"""
    return np.searchsorted(start, x, "right") > np.searchsorted(stop, x, "right")


def _expand(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + count[i] - 1 for every i, in order."""
    skip = np.cumsum(count) - count
    return np.repeat(first - skip, count) + np.arange(count.sum())


def _pull_back(
    g: MapArrays, rows: np.ndarray, member: GridMembership
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
    h, m = geom.pitch, geom.m
    ptr, start, stop = member.runs
    theta_p, sign, shift = renormalize_affine(g, rows * h)
    r1, r2 = member.rows(theta_p)
    r1, r2 = np.maximum(r1, 0), np.minimum(r2, len(ptr) - 2)  # padded rows 0..len(ptr)-2
    band = np.maximum(r2 - r1 + 1, 0)
    t_row = _expand(r1, band)
    n_runs = ptr[t_row + 1] - ptr[t_row]
    k = _expand(ptr[t_row], n_runs)
    i, a, b = _cover(np.repeat(np.repeat(np.arange(len(rows)), band), n_runs), start[k], stop[k], 1)
    ends = np.stack([(a - m) * h - member.slack, (b - 1 - m) * h + member.slack])
    j = (shift[i] + sign[i] * g.ratio * ends) / h + m
    return rows[i], j.min(axis=0), j.max(axis=0)


def first_witness_rows(words: MapArrays, source: RowRuns, member: GridMembership) -> np.ndarray:
    """`first_witness` on every true cell of a grid (given by its row runs),
    in row-major order, evaluated row by row, for one word list (maps along
    one axis).

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
    run_x = source.rows * n_t + start
    before = source.before
    n_cells = int(before[-1])
    if member.slack < geom.pitch / 2:
        lines = source.lines(geom, np.arange(n_cells))
        return first_witness(words.reshape(1, -1), *lines, member)[0]

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
    for w_i in range(len(words.ratio)):
        g = words.take(w_i)
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


def _first_true(mask: np.ndarray, k: int) -> np.ndarray:
    """The indices of the first k true entries of mask (all, if fewer),
    found _CHUNK entries at a time rather than from every true entry."""
    found = []
    for i in range(0, len(mask), _CHUNK):
        found.extend(i + np.flatnonzero(mask[i : i + _CHUNK]))
        if len(found) >= k:
            break
    return np.array(found[:k], dtype=np.int64)


def check_recurrence(
    perturbed: IfsSpec, cand: RecurrentCandidate, member: GridMembership
) -> RecurrenceReport:
    """Does every L cell map back into L (within the check rule's slack,
    `RecurrentCandidate.check_slack`) under some two-letter word of the
    perturbed system? Failures are data, not errors. member is the L
    membership at the check slack, `GridMembership(cand.geom, cand.L,
    cand.check_slack)`, so one assessment builds it once.

    `witness_counts` counts, per word, the cells whose first witness it is;
    the counts sum to `recurred`.
    """
    if member.geom != cand.geom or member.slack != cand.check_slack:
        raise ValueError("member is not the candidate's L membership at the check slack")
    names = ["".join(w) for w in product(perturbed.alphabet, repeat=2)]
    words = two_letter_words(perturbed.letter_maps())
    witness = first_witness_rows(words, cand.L, member)
    recurred = witness >= 0
    # per word, not np.bincount, which would copy the witnesses as int64
    counts = [np.count_nonzero(witness == k) for k in range(len(names))]
    thetas, ts = cand.L.lines(cand.geom, _first_true(~recurred, _MAX_FAILURES))
    failures = [{"theta": float(th), "t": float(t)} for th, t in zip(thetas, ts)]
    first = _first_true(recurred, _MAX_WITNESSES)
    thetas, ts = cand.L.lines(cand.geom, first)
    witnesses = []
    for i, th, t in zip(first, thetas, ts):
        th_hat, t_hat = renormalize_arrays(words.take(witness[i]), np.array([th]), np.array([t]))
        witnesses.append(
            {
                "theta": float(th),
                "t": float(t),
                "word": names[witness[i]],
                "image": {"theta": float(th_hat[0]), "t": float(t_hat[0])},
            }
        )
    return RecurrenceReport(
        total=len(witness),
        recurred=int(np.count_nonzero(recurred)),
        slack=float(member.slack),
        witness_counts={w: int(c) for w, c in zip(names, counts)},
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
    pts, _ = stopping_cylinders(ifs, scale, budget=budget, point=(p0[0], p0[1]))
    return pts


_MIN_LENGTH_FACTOR = 10.0  # a certified interval spans this many resolutions
_CHUNK = 1 << 15  # points projected at a time: their products stay in cache


def _offsets(pts: np.ndarray, theta: float) -> np.ndarray:
    """y cos(theta) - x sin(theta) for each point (x, y), the offset of the
    line at angle theta through it. Elementwise, since a BLAS product would
    round by the kernel the CPU selects, and chunk by chunk, which reads
    the points once, as such a product does."""
    c, s = math.cos(theta), math.sin(theta)
    pos = np.empty(len(pts))
    for i in range(0, len(pts), _CHUNK):
        out = pos[i : i + _CHUNK]
        np.multiply(pts[i : i + _CHUNK, 1], c, out=out)
        out -= pts[i : i + _CHUNK, 0] * s
    return pos


def _gap_scan(pos: np.ndarray, resolution: float) -> tuple[np.ndarray, float]:
    """For sorted positions: the mask of the gaps pos[i + 1] - pos[i] that
    are at most resolution, and the largest gap (inf with no gap). Chunk by
    chunk, so no full-size array of gaps is held."""
    close = np.empty(max(len(pos) - 1, 0), dtype=bool)
    largest = -math.inf
    for i in range(0, len(close), _CHUNK):
        stop = min(i + _CHUNK, len(close))
        gaps = pos[i + 1 : stop + 1] - pos[i:stop]
        np.less_equal(gaps, resolution, out=close[i:stop])
        largest = max(largest, float(gaps.max()))
    return close, largest if len(close) else math.inf


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

    When a candidate is supplied, the longest run of L-cells in the row
    nearest theta, all of which recur into L under ifs, is reported as a
    second, independent certificate, in the offsets of theta itself: a row
    reached an odd number of half-turns away names the line with t negated.
    Pass the prebuilt L membership (with the check slack) when certifying
    several angles against one candidate.
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    pts = attractor_points(ifs, resolution / 2.0, budget=budget) if points is None else points
    pos = _offsets(pts, theta)
    pos.sort()
    close, largest_gap = _gap_scan(pos, resolution)

    lo, hi = _longest_run(close, pos)
    length = pos[hi] - pos[lo]
    min_len = _MIN_LENGTH_FACTOR * resolution
    interval = (float(pos[lo]), float(pos[hi])) if length >= min_len else None

    rec_interval, rec_len, rec_ok = None, 0.0, None
    if candidate is not None:
        geom = candidate.geom
        turns, row = divmod(int(round(theta / geom.pitch)), geom.n_theta)
        ptr, start, stop = candidate.L
        runs = slice(ptr[row], ptr[row + 1])
        cols = _expand(start[runs], stop[runs] - start[runs])
        if len(cols):
            if membership is None:
                membership = GridMembership(geom, candidate.L, candidate.check_slack)
            words = two_letter_words(ifs.letter_maps()).reshape(1, -1)
            th = np.full(len(cols), row * geom.pitch)
            tt = (cols - geom.m) * geom.pitch
            cols = cols[first_witness(words, th, tt, membership)[0] >= 0]
        if len(cols):  # the first longest run of consecutive recurring columns
            first, last = _longest_run(np.diff(cols) == 1, cols)
            rec_len = (last - first + 1) * geom.pitch
            lo_t = (cols[first] - geom.m) * geom.pitch
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
        largest_gap=largest_gap,
        certified=interval is not None,
        recurrence_interval=rec_interval,
        recurrence_length=float(rec_len),
        recurrence_certified=rec_ok,
        positions=pos if keep_positions else None,
    )
