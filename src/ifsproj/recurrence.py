"""Candidate recurrent sets in line space and the checks that go with them.

The candidate lives on a uniform grid over [0, pi) x (-t_max, t_max). A grid
cell (theta_i, t_j) enters the core set L0 when theta_i lies in the direction
set E and t_j passes the slice test: for some first-block symbol, phi cell
of rotations and second-block symbol, the two-letter renormalization lands
back at a direction in E at offset within the unit window |t_hat| <= 1
about the origin. That window is fixed, not tied to the attractor, so L0
admits lines that miss the attractor's convex hull; when they lie far
enough outside, no small perturbation makes the candidate recur (see
`search.hull_obstruction`). PAPER.md holds only the abstract, so it does
not settle whether the paper's slice is narrower than this one. Dilating
L0 by rho/2 and rho (in cells) gives L and L1; the probe net Delta is the
cells of L1 (its pitch is capped below by the grid pitch). Membership queries
for off-grid points use a sup-metric slack window: a point is "in" a gridded
set when some true cell center lies within the slack of it, boundary
included.

Recurrence has one rule, the first word that sends a line into a membership,
and two routes with equal witnesses: `first_witness_rows` for grid cells (the
check, full coverage and the recurrence rows) and
`first_witness` for scattered lines (probes and the row route's boundary).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import NamedTuple

import numpy as np

from .ifs import IfsSpec, MapArrays, Similarity, first_leaves, stopping_ratios
from .lines import offsets, renormalize_affine, renormalize_arrays
from .measure import DirectionSet, stopping_cylinders


@dataclass(frozen=True)
class GridGeometry:
    """Uniform grid: rows theta_i = i*pitch (i < n_theta, pitch = pi/n_theta),
    columns t_j = j*pitch (|j| <= m). Row n_theta wraps to row 0 with t -> -t,
    so the symmetric t-grid is exact under the wrap."""

    n_theta: int
    t_max: float

    @property
    def pitch(self) -> float:
        return math.pi / self.n_theta

    @property
    def m(self) -> int:
        return math.ceil(self.t_max / self.pitch) - 1

    @property
    def n_t(self) -> int:
        return 2 * self.m + 1

    def nearest_row(self, theta: float) -> tuple[int, int]:
        """(half-turns, row) of the grid angle nearest theta: theta is about
        row * pitch + half-turns * pi, so an odd count of half-turns names
        the row's lines with t negated."""
        turns, row = divmod(int(round(theta / self.pitch)), self.n_theta)
        return turns, row


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

    def only(self, rows) -> "RowRuns":
        """The runs of the given rows (ascending) alone, every other row
        empty."""
        count = np.diff(self.ptr)[rows]
        k = _expand(self.ptr[rows], count)
        n = len(self.ptr) - 1
        return RowRuns.from_rows(n, np.repeat(rows, count), self.start[k], self.stop[k])

    @property
    def rows(self) -> np.ndarray:
        """The row of each run."""
        return np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr))

    def grid(self, n_t: int) -> np.ndarray:
        """The boolean grid with n_t columns whose true cells the runs are:
        false and true stretches of the flat grid painted in one pass."""
        n = len(self.ptr) - 1
        first, last = self.rows * n_t + self.start, self.rows * n_t + self.stop
        return _paint(first, last, True, False, n * n_t).reshape(n, n_t)

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


_TOL = 1e-9  # index-space guard so boundary offsets stay included
_CHUNK = 1 << 15  # entries taken at a time: their temporaries stay in cache


def _index_window(x, reach, h: float, base: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of the grid points j * h within reach of the
    coordinates x (reach and x broadcast), offset by base."""
    lo = np.ceil((x - reach) / h - _TOL).astype(np.int64) + base
    hi = np.floor((x + reach) / h + _TOL).astype(np.int64) + base
    return lo, hi


class GridMembership:
    """Slack-window membership queries against one gridded set, given by its
    row runs.

    A point (theta, t), with theta canonical in [0, pi], is a member when
    some true cell center (theta_i, t_j) satisfies |theta_i - theta| <= slack
    and |t_j - t| <= slack. Windows crossing theta = 0 or pi continue on the
    other end with t negated: the set's row runs are padded once with the
    mirrored runs of its end rows (`_pad_runs`), so each query is one
    rectangle of index space (`_index_window`). The padded set is held only
    as these row runs (`runs`), which answer the window test and also serve
    `first_witness_rows`. The test is exact in index space, so re-checks
    reproduce it bit for bit.

    Before the window test, `contains` looks up the offset bounds of each
    point's nearest padded row (`_row_bounds`): a point outside the outer
    bounds has no set cell within the slack, and a point inside the inner
    bounds has one in that row, so only the points between them go through
    the window test, and the answers are those of the window test alone.
    """

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
        self._bounds = self._row_bounds()

    def _row_bounds(self) -> tuple[np.ndarray, ...]:
        """Per padded row r, the offset bounds (out_lo, out_hi, in_lo,
        in_hi) of the points whose nearest padded row is r: none outside
        [out_lo, out_hi] is a member, and every one inside [in_lo, in_hi]
        is. Empty intervals run from +inf to -inf, so an empty set rejects
        every point before the window test, which needs a run.

        [out_lo, out_hi] spans the lowest first and highest last column
        over rows r - _pad .. r + _pad, widened by the slack and one column:
        a point's window reaches at most _pad - 1 rows on either side of
        its nearest row. [in_lo, in_hi] spans row r's first run, widened by
        the slack and narrowed by one column, when the slack is at least
        half a pitch: the window then holds row r, and being at least a
        pitch wide, it holds a cell of any run whose span it meets. Only the
        rows a canonical theta can be nearest to get one, so a row index
        clipped at either end never accepts. The window test admits column j
        for offsets up to (j + _TOL) pitch + slack and down to
        (j - _TOL) pitch - slack, computed with a few roundings of at most
        n_t columns each; one column covers both."""
        ptr, start, stop = self.runs
        k, h, m, n = self._pad, self.geom.pitch, self.geom.m, len(ptr) - 1
        full = np.flatnonzero(np.diff(ptr))
        first = np.full(n + 2 * k, np.inf)  # k empty rows past each end
        last = np.full(len(first), -np.inf)
        first[full + k] = start[ptr[full]]
        last[full + k] = stop[ptr[full + 1] - 1] - 1
        window = np.lib.stride_tricks.sliding_window_view
        lo = window(first, 2 * k + 1).min(axis=1)
        hi = window(last, 2 * k + 1).max(axis=1)
        run_lo, run_hi = np.full(n, np.inf), np.full(n, -np.inf)
        if self.slack >= h / 2:
            near = full[(full >= k) & (full <= n - k)]  # canonical theta: rows k .. n - k
            run_lo[near] = start[ptr[near]]
            run_hi[near] = stop[ptr[near]] - 1
        reach = self.slack + h
        return (
            (lo - m) * h - reach,
            (hi - m) * h + reach,
            (run_lo - m) * h - (self.slack - h),
            (run_hi - m) * h + (self.slack - h),
        )

    def rows(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and last padded row of the windows around thetas."""
        return _index_window(thetas, self.slack, self.geom.pitch, self._pad)

    def contains(self, thetas: np.ndarray, ts: np.ndarray) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out_lo, out_hi, in_lo, in_hi = self._bounds
        near = np.rint(thetas / self.geom.pitch).astype(np.int64) + self._pad
        np.minimum(np.maximum(near, 0, out=near), len(out_lo) - 1, out=near)
        hit = (ts >= in_lo[near]) & (ts <= in_hi[near])
        keep = np.flatnonzero((ts >= out_lo[near]) & (ts <= out_hi[near]) & ~hit)
        if len(keep):
            hit[keep] = self._window_hit(thetas[keep], ts[keep])
        return hit

    def _window_hit(self, thetas: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Does each point's slack window hold a cell of the set? Every row
        of every window in one pass: each (point, window row) pair looks up
        the row's last run starting at or before the window's last column
        (one binary search over `_keys`, which fails the ptr test when it
        finds an earlier row's run), and hits when that run reaches the
        window's first column. A window that falls between two rows or two
        columns gets no pair."""
        ptr, _, stop = self.runs
        n_t = self.geom.n_t
        r1, r2 = self.rows(thetas)
        c1, c2 = _index_window(ts, self.slack, self.geom.pitch, self.geom.m)
        r1, r2, c2 = np.maximum(r1, 0), np.minimum(r2, len(ptr) - 2), np.minimum(c2, n_t - 1)
        count = np.where(c1 <= c2, np.maximum(r2 - r1 + 1, 0), 0)
        point = np.repeat(np.arange(len(ts)), count)
        row, c1, c2 = _expand(r1, count), c1[point], c2[point]
        k = np.searchsorted(self._keys, row * (n_t + 1) + c2, "right") - 1
        hit = np.zeros(len(ts), dtype=bool)
        hit[point[(k >= ptr[row]) & (stop[k] > c1)]] = True
        return hit


_SLICE_BLOCK = 1 << 13  # (row, a1, phi, a2) entries of the slice test evaluated at a time


class SliceBuilder:
    """Evaluates the slice test on blocks of consecutive rows, sharing the
    phi-tensor precompute: `all_rows` takes the E rows about _SLICE_BLOCK
    (row, a1, phi, a2) entries at a time, so its working set depends
    neither on the number of E rows nor on the alphabet or the rotations.

    phi holds the rotations (`RunConfig.resolve`). For first-block symbol
    a1, rotation phi, second symbol a2, the composed map g is (rotate
    f_{a1} by phi about its cell center) o f_{a2}; the builder keeps them
    as one (n1, len(phi), n2) `MapArrays` `g`. A row's
    renormalization T_g(theta, t) = (theta_hat, sign (t - shift) / r) comes
    from `lines.renormalize_affine`, and the offsets t with |t_hat| <= 1
    form the window [shift - r, shift + r] whatever the sign.

    The window |t_hat| <= 1 is measured about the origin, not about the
    attractor, so it admits offsets of lines that miss the attractor
    altogether (for the gasket, up to 0.24 outside its triangle). Whether the
    paper's slice is narrower is not settled by PAPER.md.
    """

    def __init__(self, ifs: IfsSpec, E: DirectionSet, geom: GridGeometry, phi: np.ndarray):
        if len(E.member) != geom.n_theta:
            raise ValueError(
                f"direction set grid ({len(E.member)}) does not match "
                f"candidate grid ({geom.n_theta})"
            )
        self.E = E
        self.geom = geom
        n1, n2 = len(ifs.part_one), len(ifs.part_two)
        # (rotate f_{a1} by phi about its cell center) o f_{a2} for every (a1, phi, a2)
        turned = ifs.letter_maps(ifs.part_one).reshape(n1, 1).turned(phi, (0.0, 0.0))
        self.g = turned.compose(ifs.letter_maps(ifs.part_two)).reshape(n1, len(phi), n2)

    def _runs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The slice test's member cells on the given rows (those in E), as
        runs (row, start, stop) in row order.

        Each (row, a1, phi, a2) with its image angle theta_hat in E passes
        on the column interval of its offset window; `renormalize_affine`
        broadcasts `g` against the rows' angles elementwise, so a row's
        windows round alike whatever rows are evaluated with it. A row's
        member cells are the union of its passing windows.
        """
        geom = self.geom
        n_t, m, h = geom.n_t, geom.m, geom.pitch
        rows = rows[self.E.member[rows]]
        theta_hat, _, shift = renormalize_affine(self.g, (rows * h)[:, None, None, None])
        arg_ok = self.E.member[np.rint(theta_hat / h).astype(np.int64) % geom.n_theta]
        lo, hi = _index_window(shift, self.g.ratio, h, m)
        lo, stop = np.maximum(lo, 0), np.minimum(hi + 1, n_t)
        passes = np.flatnonzero(arg_ok & (lo < stop))
        key, start, stop = _cover(passes // self.g.ratio.size, lo.ravel()[passes], stop.ravel()[passes])
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
        rows = np.flatnonzero(self.E.member)
        per_block = max(1, _SLICE_BLOCK // self.g.ratio.size)
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
    return RowRuns.from_rows(n + 2 * k, *_cover(row, start, stop))


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
    row, start, stop = _cover(row % n, np.maximum(start - k, 0), np.minimum(stop + k, n_t))
    return RowRuns.from_rows(n, row, start, stop)


_LAYERS = ("L0", "L", "L1")  # in the order of candidate.npz


@dataclass
class RecurrentCandidate:
    """The layers of the candidate recurrent set, as row runs. L0 is the
    core, L its rho/2 cell-dilation — the set recurrence targets — and L1
    the rho dilation whose cells form the probe net Delta; both dilations
    are made from L0 on construction. Only `save` paints the layers as
    boolean grids, for `candidate.npz`."""

    geom: GridGeometry
    rho: float
    L0: RowRuns
    L: RowRuns = field(init=False)
    L1: RowRuns = field(init=False)

    def __post_init__(self):
        self.L = _dilate(self.L0, self.geom.n_t, self.r_cells)
        self.L1 = _dilate(self.L0, self.geom.n_t, self.r1_cells)

    @property
    def r_cells(self) -> int:
        """The radius of L about L0 in cells: rho/2, rounded up."""
        return math.ceil((self.rho / 2.0) / self.geom.pitch)

    @property
    def r1_cells(self) -> int:
        """The radius of L1 about L0 in cells: rho, rounded up."""
        return math.ceil(self.rho / self.geom.pitch)

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

    def save(self, path: str, E: DirectionSet):
        """Write `candidate.npz`: the layers, their radii, E.member and E.c5."""
        np.savez_compressed(
            path,
            n_theta=self.geom.n_theta,
            t_max=self.geom.t_max,
            rho=self.rho,
            **{k: np.packbits(getattr(self, k).grid(self.geom.n_t), axis=1) for k in _LAYERS},
            r_cells=self.r_cells,
            r1_cells=self.r1_cells,
            e_member=np.packbits(E.member),
            c5=E.c5,
        )


def build_candidate(slices: RowRuns, rho: float, geom: GridGeometry) -> RecurrentCandidate:
    """Assemble the candidate from the core L0, given as the row runs of the
    slice test on every E row (`SliceBuilder.all_rows`), and thicken it."""
    if len(slices.ptr) != geom.n_theta + 1:
        raise ValueError(f"slice runs cover {len(slices.ptr) - 1} rows, not {geom.n_theta}")
    if not len(slices.start):
        raise ValueError("empty candidate: no slice produced members")
    return RecurrentCandidate(geom, rho, slices)


def two_letter_words(letters: MapArrays) -> MapArrays:
    """The maps f_{b1} o f_{b2} of the k^2 two-letter words over the letter
    maps along the last axis (one system's, or a block of perturbed
    systems'), in alphabet-product order: word b1 * k + b2."""
    return letters.compose(letters)


_MAX_WORDS = int(np.iinfo(np.int16).max)  # a witness is an int16 word index


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
    the set does. words holds the sets' maps as (sets, words) arrays, at
    most _MAX_WORDS words a set.

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
    if n_words > _MAX_WORDS:
        raise ValueError(f"{n_words} words: int16 witnesses index at most {_MAX_WORDS}")
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


def _cover(keys: np.ndarray, start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of the nonempty half-open runs [start, stop) of each key,
    as maximal runs (keys, start, stop) in order of key, then start. Starts
    are nonnegative; touching runs join. The runs of all keys are one
    `_merge`, each key's cells laid out past the previous key's on one line.
    """
    stride = int(stop.max(initial=0)) + 1
    base = keys * stride
    a, b = _merge(base + start, base + stop)
    key = a // stride
    return key, a - key * stride, b - key * stride


def _inside(x: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Is each x in the union of the disjoint sorted intervals [start, stop)?"""
    return np.searchsorted(start, x, "right") > np.searchsorted(stop, x, "right")


def _expand(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + count[i] - 1 for every i, in order."""
    skip = np.cumsum(count) - count
    return np.repeat(first - skip, count) + np.arange(count.sum())


def _paint(first: np.ndarray, stop: np.ndarray, value, fill, n: int) -> np.ndarray:
    """n entries of fill's dtype: value (one for all, or one per stretch)
    on the disjoint ascending stretches [first[k], stop[k]), fill in the
    gaps between them, painted in one pass."""
    paint = np.full(2 * len(first) + 1, fill)
    paint[1::2] = value
    length = np.empty(len(paint), dtype=np.int64)
    length[0::2] = np.append(first, n) - np.concatenate([[0], stop])
    length[1::2] = stop - first
    return np.repeat(paint, length)


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
    i, a, b = _cover(np.repeat(np.repeat(np.arange(len(rows)), band), n_runs), start[k], stop[k])
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
    if len(words.ratio) > _MAX_WORDS:
        raise ValueError(f"{len(words.ratio)} words: int16 witnesses index at most {_MAX_WORDS}")
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
    first, stop_, word = first[order], stop_[order], word[order]  # frees the unsorted ones
    return _paint(first, stop_, word, np.int16(-1), n_cells)


@dataclass
class RecurrenceReport:
    """The recurrence check's findings."""

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


def _check_rule(perturbed: IfsSpec, cand: RecurrentCandidate) -> tuple[MapArrays, GridMembership]:
    """The check rule: the perturbed system's two-letter words, into the L
    membership at the check slack (`RecurrentCandidate.check_slack`)."""
    return two_letter_words(perturbed.letter_maps()), GridMembership(cand.geom, cand.L, cand.check_slack)


def check_recurrence(perturbed: IfsSpec, cand: RecurrentCandidate) -> RecurrenceReport:
    """Does every L cell map back into L under the check rule
    (`_check_rule`)? The row route (`first_witness_rows`) answers for every
    cell at once. Failures are data, not errors.

    `witness_counts` counts, per word, the cells whose first witness it is;
    the counts sum to `recurred`. The witnesses themselves are dropped on
    return; `recurrence_rows` finds those of its own rows.
    """
    names = ["".join(w) for w in product(perturbed.alphabet, repeat=2)]
    words, member = _check_rule(perturbed, cand)
    witness = first_witness_rows(words, cand.L, member)
    recurred = witness >= 0
    # per word, not np.bincount, which would copy the witnesses as int64
    counts = [np.count_nonzero(witness == k) for k in range(len(names))]
    thetas, ts = cand.L.lines(cand.geom, _first_true(~recurred, _MAX_FAILURES))
    failures = [{"theta": float(th), "t": float(t)} for th, t in zip(thetas, ts)]
    first = _first_true(recurred, _MAX_WITNESSES)
    thetas, ts = cand.L.lines(cand.geom, first)
    word = witness[first]
    th_hat, t_hat = renormalize_arrays(words.take(word), thetas, ts)
    witnesses = [
        {
            "theta": float(th),
            "t": float(t),
            "word": names[w],
            "image": {"theta": float(a), "t": float(b)},
        }
        for th, t, w, a, b in zip(thetas, ts, word, th_hat, t_hat)
    ]
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
    largest_gap: float | None  # None when no gap exceeds the resolution
    certified: bool
    gaps: np.ndarray  # (left, right) samples of each gap wider than resolution, ascending

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "resolution": self.resolution,
            "n_samples": self.n_samples,
            "interval": list(self.interval) if self.interval else None,
            "length": self.length,
            "largest_gap": self.largest_gap,
            "certified": self.certified,
        }


def attractor_points(
    ifs: IfsSpec,
    scale: float,
    budget: int | None = None,
    consume: Callable[[np.ndarray], None] | None = None,
    prune: Callable[[MapArrays], np.ndarray] | None = None,
) -> np.ndarray:
    """Exact attractor points: images of the first map's fixed point under
    every stopping word at the given scale, from `stopping_cylinders`
    without its ratios, in the words' order. consume, given, is handed the
    points batch by batch instead, and nothing is kept: the array returned
    then has no columns, its length still the count
    (`stopping_cylinders`). Either way the points are bit for bit the
    same. prune, with consume, drops prefixes (`ifs.stopping_batches`)."""
    p0 = _fixed_point(ifs.maps[ifs.alphabet[0]])
    pts, _ = stopping_cylinders(ifs, scale, budget, p0, False, consume, prune)
    return pts


def _fixed_point(f: Similarity) -> tuple[float, float]:
    """The fixed point p = (I - A)^-1 t of f(p) = A p + t, A = r R(angle)
    diag(1, -1 if reflect else 1), from the adjugate of I - A and its
    determinant in scalar arithmetic, so no BLAS or LAPACK kernel rounds it.

    It errs by less than 25u |p| / (1 - r), u = 2^-53, with cos and sin
    within 4u. Each entry of the rounded I - A lies within 8u of the exact
    one, so the error matrix has norm below 15u; the smallest singular
    value s of I - A is at least 1 - r, so the rounded matrix's exact
    solution p* lies within 15.01u |p| / (1 - r) of p. A row of the
    adjugate has norm at most the determinant over s, and |t| <= (1 + r)
    |p*|, so each rounded numerator errs by 4.02u |p*| / (1 - r) over the
    determinant; the determinant errs relatively by 2.01u (1 + r^2) /
    (1 - r^2) <= 2.01u / (1 - r), the division by u: each coordinate of
    p* moves by 7.03u |p*| / (1 - r), the point by 9.95u |p*| / (1 - r)."""
    c, s = math.cos(f.angle), math.sin(f.angle)
    sign = -1.0 if f.reflect else 1.0
    a11, a12 = 1.0 - f.ratio * c, sign * f.ratio * s
    a21, a22 = -f.ratio * s, 1.0 - sign * f.ratio * c
    det = a11 * a22 - a12 * a21
    tx, ty = f.translation
    return (a22 * tx - a12 * ty) / det, (a11 * ty - a21 * tx) / det


def _invariant_radius(ifs: IfsSpec) -> float:
    """The radius R of a disk about c = (1/2, 1/2) that every map sends
    into itself: R = max_a |f_a(c) - c| / (1 - max_a r_a). For |x - c| <= R,
    |f_a(x) - c| <= r_a |x - c| + |f_a(c) - c| <= r R + (1 - r) R = R, so
    the attractor lies in the disk, and its projection onto theta in the
    offsets (c_y cos - c_x sin) +- R."""
    letters = ifs.letter_maps()
    moved = letters.images((0.5, 0.5)) - 0.5
    return float(np.hypot(moved[:, 0], moved[:, 1]).max() / (1.0 - letters.ratio.max()))


def _rounding_margin(ifs: IfsSpec, scale: float, radius: float) -> float:
    """A bound on how far rounding carries the offset of a sample of
    `attractor_points(ifs, scale)` past f_u(c)'s +- r_u R (R = radius) for
    its prefix u, as the walk and `_Buckets.interior` compute them. With u
    = 2^-53, cos and sin within 4u, r = max_a r_a, M = 2 + R + max_a |t_a|
    bounding every point, centre and translation, D = ceil(log scale / log
    r) + 1 letters a word at most (1 for rounded ratio products), A = D
    max_a angle_a: a `MapArrays.compose` step moves a disk point's image by
    u M (A + 15) at most (u the ratio, u A the angle, 13u |t_a| + u |t| the
    translation), `images` errs by 14u M, `offsets` by 3u M, sin and cos
    widen the disk by 6u R, the fixed point by 25u M / (1 - r)
    (`_fixed_point`), R by 27u M / (1 - r) (the moved centres by 23.3u M,
    the ratio and the quotient by 3u R), the interval's ends by 4u M: over
    D steps, below u M (D + 8)(A + 16)/(1 - r) in all."""
    letters = ifs.letter_maps()
    r = float(letters.ratio.max())
    depth = math.ceil(math.log(scale) / math.log(r)) + 1
    size = 2.0 + radius + float(np.hypot(*letters.translation).max())
    return 2.0**-53 * size * (depth + 8) * (depth * float(letters.angle.max()) + 16) / (1.0 - r)


_MIN_LENGTH_FACTOR = 10.0  # a certified interval spans this many resolutions


class _Buckets:
    """The least and the greatest sample offset (`lines.offsets`) in each
    bucket of width resolution/2, a row per angle spanning its offsets
    [low, high] and a spare bucket, empty; fed the samples step by step
    (`add`: one `lines.offsets` call a step gives every angle's row, about
    _CHUNK offsets), so no array as long as the samples is held.

    A sample's bucket is monotone in its offset (rounding is monotone, and
    so is clipping to the buckets, which puts an offset rounded past the
    range into an end bucket), so consecutive sorted offsets lie in one
    bucket or are the greatest of one nonempty bucket and the least of the
    next. A gap inside a bucket is at most the bucket's extent (greatest
    less least, rounded: rounding is monotone again), so when no extent
    exceeds the resolution, the gaps between buckets hold every gap wider
    than the resolution, bit for bit, and the largest gap when it is one of
    them (`extremes`).

    No extent exceeds the resolution, by a margin of resolution/2 less
    rounding. The index of an offset p is the rounded x = (p - low) * scale,
    scale = 2/resolution rounded; each of the three roundings errs by a
    factor within 1 +- u (u = 2^-53), so x = X (1 + e), |e| < 3.01u, where X
    is the exact (p - low) * 2/resolution. Two offsets whose x lie in one
    [k, k + 1), k < K (the bucket count), thus have X within 1 + 6.02u K of
    each other: they lie within (1 + 7u K) resolution/2, and their rounded
    difference within (1 + 8u K) resolution/2. An offset clipped into an end
    bucket lies past [low, high], the projection of an invariant disk
    (`_invariant_radius`), only by rounding: by less than `_rounding_margin`.
    8u K stays below 2^-3 for any K that fits in memory, and so each extent
    below the resolution; `extremes` checks it all the same.

    A bucket is interior once the gaps from its neighbours' extremes to its
    own are at most the resolution (merely nonempty neighbours can lie
    further apart by rounding); end buckets never are. `add` drops samples
    in buckets marked interior (`_mark`: the marks lag), and `interior`
    finds the prefixes whose samples all would be. No bucket turns empty,
    and an interior bucket's gaps only shrink as its neighbours fill, so
    they, and those of its samples, are never wide. Every wide gap, the
    largest and every run's end that `_gap_scan` reads thus lie at buckets
    never interior, which hold their true extremes: the certificates do
    not change. Nothing of this depends on the samples' order, and a sample
    met twice (a first leaf that the walk images again) moves no extreme,
    since a least and a greatest already holding it stay as they are; so
    any repeats of the samples give the same certificates."""

    def __init__(self, sin, cos, resolution: float, low, high):
        self.sin, self.cos = sin, cos
        self.resolution, self.scale, self.origin = resolution, 2.0 / resolution, low[:, None]
        count = int(((high[:, None] - self.origin) * self.scale).max(initial=0)) + 1
        self.least, self.greatest = np.full((2, len(self.sin), count + 1), [[[math.inf]], [[-math.inf]]])
        self.inner = np.zeros(self.least.shape, dtype=bool)
        self.outer = np.arange(self.least.size + 1, dtype=np.int32)  # buckets before each not interior
        self.rows = np.arange(len(self.sin), dtype=np.int32)[:, None] * (count + 1)
        self.step = max(_CHUNK // max(len(self.sin), 1), 1)  # samples whose offsets number _CHUNK
        self.unmarked = 0  # offsets computed since the interior buckets were marked

    def _offsets(self, points: np.ndarray) -> np.ndarray:
        """The points' offsets, a row an angle."""
        pos = offsets(points[:, 0], points[:, 1], self.sin[:, None], self.cos[:, None])
        self.unmarked += pos.size
        return pos

    def _index(self, pos: np.ndarray) -> np.ndarray:
        """Each offset's bucket in the flattened rows."""
        x = (pos - self.origin) * self.scale
        return np.clip(x, 0, self.least.shape[1] - 2, out=x).astype(np.int32) + self.rows

    def _mark(self) -> None:
        """Mark the interior buckets once the offsets computed since the last marks number them."""
        if self.unmarked >= self.least.size:
            close = self.least[:, 1:] - self.greatest[:, :-1] <= self.resolution
            self.inner[:, 1:-1] = close[:, :-1] & close[:, 1:]
            np.cumsum(~self.inner.reshape(-1), out=self.outer[1:])
            self.unmarked = 0

    def add(self, points: np.ndarray) -> None:
        """Take in the samples of an array (m, 2) at every angle, step at a time."""
        for i in range(0, len(points), self.step):
            pos = self._offsets(points[i : i + self.step])
            k = self._index(pos)
            kept = ~self.inner.reshape(-1).take(k)
            k, pos = k[kept], pos[kept]
            np.minimum.at(self.least.reshape(-1), k, pos)
            np.maximum.at(self.greatest.reshape(-1), k, pos)
            self._mark()

    def interior(self, nodes: MapArrays, radius: float, margin: float) -> np.ndarray:
        """Whether, at every angle, every offset within r_u radius + margin
        of that of a node u's centre f_u(c) falls in a marked bucket."""
        centre, reach = nodes.images((0.5, 0.5)), nodes.ratio * radius + margin
        pos = self._offsets(centre)
        self._mark()
        first = self.outer.take(self._index(pos - reach))
        return (self.outer.take(self._index(pos + reach) + 1) == first).all(0)

    def extremes(self, angle: int) -> tuple[np.ndarray, np.ndarray]:
        """The nonempty buckets' least and greatest offsets at one angle,
        ascending. Raises if some bucket's extent exceeds the resolution,
        which the bound above rules out."""
        full = self.least[angle] <= self.greatest[angle]
        least, greatest = self.least[angle][full], self.greatest[angle][full]
        extent = (greatest - least).max(initial=0.0)
        if extent > self.resolution:
            raise ArithmeticError(f"a bucket's extent {extent!r} exceeds the resolution {self.resolution!r}")
        return least, greatest


def _gap_scan(
    least: np.ndarray, greatest: np.ndarray, resolution: float
) -> tuple[np.ndarray, float, int, int]:
    """For ascending buckets' extremes: the indices i of the gaps
    least[i + 1] - greatest[i] wider than resolution, the largest gap (inf
    with no gap), and (first, last) of the first run of buckets between wide
    gaps with the largest span greatest[last] - least[first]; a run of one
    bucket spans its extent, and no bucket gives (0, 0)."""
    gaps = least[1:] - greatest[:-1]
    wide = np.flatnonzero(gaps > resolution)
    largest = float(gaps.max()) if len(gaps) else math.inf
    starts, stops = np.append(0, wide + 1), np.append(wide, len(gaps))
    best = int(np.argmax(greatest[stops] - least[starts])) if len(least) else 0
    return wide, largest, int(starts[best]), int(stops[best])


def certify_projection_interval(
    extremes: tuple[np.ndarray, np.ndarray], n_samples: int, theta: float, resolution: float
) -> IntervalCertificate:
    """Gap certificate for the projection of an attractor onto theta from
    the extremes of n_samples samples' buckets (`_Buckets.extremes`).

    The samples are exact attractor points (`attractor_points` at scale
    resolution/2), so sample positions lie in the projection. Certified
    means: some window of consecutive samples has all gaps <= resolution
    and spans at least _MIN_LENGTH_FACTOR * resolution. A dust-like
    projection fails because every candidate window stays short. The
    certificate keeps the gaps wider than resolution, not the sample
    positions.

    Every gap wider than the resolution lies between two consecutive
    nonempty buckets, and `_gap_scan` reads the wide gaps, the largest gap
    and the first longest run between wide gaps. So `gaps`, `interval`,
    `length` and `certified` are those of the sorted offsets, bit for bit,
    and so is `largest_gap` when it exceeds the resolution; otherwise it is
    None: a gap below the resolution measures the sampling, not the set.
    """
    least, greatest = extremes
    wide, largest, first, last = _gap_scan(least, greatest, resolution)
    length = float(greatest[last] - least[first]) if len(least) else 0.0
    interval = None
    if length >= _MIN_LENGTH_FACTOR * resolution:
        interval = (float(least[first]), float(greatest[last]))
    return IntervalCertificate(
        theta=float(theta),
        resolution=float(resolution),
        n_samples=n_samples,
        interval=interval,
        length=length,
        largest_gap=largest if len(wide) else None,
        certified=interval is not None,
        gaps=np.stack([greatest[wide], least[wide + 1]], axis=1),
    )


def certify_projection_intervals(
    ifs: IfsSpec, thetas, resolution: float, budget: int | None = None
) -> list[IntervalCertificate]:
    """The gap certificates of the system's projections onto thetas: those
    of `certify_projection_interval` on `attractor_points` at resolution/2,
    without an array of the samples. No candidate is needed.

    The word budget is checked first (`ifs.stopping_ratios`), before any
    map is composed or any bucket made. Then one streamed walk of the
    stopping words (`attractor_points` with a consumer) feeds one
    `_Buckets`, a row per angle, whose extremes
    `certify_projection_interval` finishes. Its buckets, half the
    resolution wide, span the projection of the invariant disk
    (`_invariant_radius`); rounding pushes a sample past it only into an
    end bucket. The walk drops a prefix u whose offsets within r_u R +
    `_rounding_margin` of f_u(c)'s all fall in interior buckets at every
    angle (`_Buckets.interior`); with no angle it images nothing.

    So that the buckets fill before the lexicographic walk reaches them,
    they first take the first leaves (`ifs.first_leaves`) of the coarsest
    level of the prefix tree with a node per bucket, imaged at the first
    map's fixed point. A first leaf is a stopping word whose map is
    composed as the walk composes it, so its sample is bit for bit one of
    the walk's: the buckets see only the cover's samples, some twice, and
    `_Buckets`' argument, which no order or repeat affects, gives the
    certificates of sorting them all. When only the last level has that
    many nodes, the leaves would be the whole cover, and the walk runs
    without leaves and without pruning."""
    thetas = [float(th) for th in thetas]
    scale = resolution / 2.0
    stopping_ratios(ifs, scale, budget)
    radius = _invariant_radius(ifs)
    sin, cos = np.array([math.sin(th) for th in thetas]), np.array([math.cos(th) for th in thetas])
    mid = offsets(0.5, 0.5, sin, cos)  # the offsets of the disk's centre
    buckets = _Buckets(sin, cos, resolution, mid - radius, mid + radius)
    leaves = first_leaves(ifs, scale, buckets.least.size) if thetas else iter(())  # no angle: the root prunes
    prune = None
    if leaves is not None:
        p0 = _fixed_point(ifs.maps[ifs.alphabet[0]])
        for maps in leaves:
            buckets.add(maps.images(p0))
        prune = partial(buckets.interior, radius=radius, margin=_rounding_margin(ifs, scale, radius))
    walked = attractor_points(ifs, scale, budget, consume=buckets.add, prune=prune)
    return [
        certify_projection_interval(buckets.extremes(i), len(walked), th, resolution)
        for i, th in enumerate(thetas)
    ]


def recurrence_rows(perturbed: IfsSpec, cand: RecurrentCandidate, thetas, resolution: float) -> list[dict]:
    """The recurrence row of each angle, a certificate independent of the
    gap certificate, as JSON fields: the first longest run of L cells in
    the row nearest theta that all recur under the check rule
    (`_check_rule`), certified when it spans _MIN_LENGTH_FACTOR resolutions.
    The row route (`first_witness_rows`) runs on those rows alone
    (`RowRuns.only`), and `_gap_scan` picks the run from a row's recurring
    columns at resolution 1. The run is reported in theta's own offsets: a
    row reached an odd number of half-turns away names the line with t
    negated."""
    geom = cand.geom
    near = [geom.nearest_row(float(th)) for th in thetas]
    runs = cand.L.only(np.array(sorted({row for _, row in near}), dtype=np.int64))
    words, member = _check_rule(perturbed, cand)
    witness = first_witness_rows(words, runs, member)
    found = []
    for turns, row in near:
        k = slice(runs.ptr[row], runs.ptr[row + 1])
        cols = _expand(runs.start[k], runs.stop[k] - runs.start[k])
        skip = runs.before[k.start]  # the cells of the rows before
        cols = cols[witness[skip : skip + len(cols)] >= 0]
        interval, length = None, 0.0
        if len(cols):  # the first longest run of consecutive recurring columns
            _, _, first, last = _gap_scan(cols, cols, 1)
            length = (last - first + 1) * geom.pitch
            lo_t = float((cols[first] - geom.m) * geom.pitch)
            interval = [-(lo_t + length), -lo_t] if turns % 2 else [lo_t, lo_t + length]
        certified = length >= _MIN_LENGTH_FACTOR * resolution
        found.append(
            {"recurrence_interval": interval, "recurrence_length": length, "recurrence_certified": certified}
        )
    return found
