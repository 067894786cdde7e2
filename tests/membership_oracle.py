"""The three-rectangle slack-window membership, kept as a test oracle for
`ifsproj.recurrence.GridMembership`, which pads the grid's row runs with the
mirrored runs of its wrap rows once and answers each query's single
rectangle row by row from those runs.

This route shares neither step: it leaves the grid unpadded, counts cells
with an integral image, and adds, per query, a second rectangle on the
mirrored far end whenever the window crosses theta = 0 or pi.

`_pad_wrapped` is the boolean-grid padding, kept as the oracle of the run
padding `ifsproj.recurrence._pad_runs`, and `row_runs` scans a boolean grid
into its maximal row runs, the inverse of `RowRuns.grid`.
"""

from __future__ import annotations

import numpy as np

from ifsproj.recurrence import GridGeometry, RowRuns


def row_runs(grid: np.ndarray) -> RowRuns:
    """The maximal runs of true cells of a boolean grid, row by row."""
    n, n_t = grid.shape
    # one false cell before the grid and after every row, so each run
    # starts and stops at a change between neighbours of the flat buffer
    buf = np.zeros(n * (n_t + 1) + 1, dtype=bool)
    buf[1:].reshape(n, n_t + 1)[:, :n_t] = grid
    change = np.flatnonzero(buf[1:] != buf[:-1])
    row, start = np.divmod(change[0::2], n_t + 1)
    return RowRuns.from_rows(n, row, start, change[1::2] - row * (n_t + 1))


def _pad_wrapped(grid: np.ndarray, k: int) -> np.ndarray:
    """grid with k rows added at each theta end: the rows that continue it
    past pi and below 0, which are the far end's rows with t negated."""
    return np.concatenate([grid[-k:, ::-1], grid, grid[:k, ::-1]], axis=0)


class ThreeRectMembership:
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
