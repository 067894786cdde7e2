"""Lines in the plane, their parameter space, and renormalization by IFS maps.

A line is (theta, t) with theta in [0, pi): the set of p with
<p, nu(theta)> = t, where nu(theta) = (-sin theta, cos theta). The pair
(theta + pi, -t) names the same set; renormalized lines come out folded
into [0, pi).

The angle fold (`_fold`, read by `renormalize_affine`) and the offset
y cos theta - x sin theta of a point (`offsets`) are written here once, in
elementwise numpy with no matrix product: a BLAS product rounds with or
without fused multiply-adds depending on the kernel the CPU selects.
"""

from __future__ import annotations

import math

import numpy as np

from .ifs import MapArrays

_CHUNK = 1 << 15  # entries computed at a time: their products stay in cache


def _fold(theta_raw) -> tuple[np.ndarray, np.ndarray]:
    """theta_raw reduced mod pi into [0, pi), elementwise, and the count k
    of half-turns taken off (as floats); an odd k negates a line's offset."""
    theta_raw = np.asarray(theta_raw, dtype=float)
    k = np.floor(theta_raw / math.pi)
    theta = theta_raw - k * math.pi
    under = theta < 0  # theta_raw / pi underflowed to -0.0 from a tiny negative angle
    if under.any():
        theta, k = np.where(under, theta + math.pi, theta), k - under
    edge = theta >= math.pi  # representation edge when theta_raw is just below k*pi
    if edge.any():
        theta, k = np.where(edge, theta - math.pi, theta), k + edge
    return theta, k


def offsets(x, y, sin, cos) -> np.ndarray:
    """y cos(theta) - x sin(theta): the offset t of the line at angle theta
    through the point (x, y), given the angle's sine and cosine. The
    arguments broadcast. A buffered iterator hands out _CHUNK entries at a
    time, so a long point array is read once and no temporary grows past a
    chunk."""
    it = np.nditer(
        [x, y, sin, cos, None],
        ["external_loop", "buffered", "zerosize_ok"],
        [["readonly"]] * 4 + [["writeonly", "allocate"]],
        buffersize=_CHUNK,
    )
    with it:
        for px, py, s, c, out in it:
            np.multiply(py, c, out=out)
            out -= px * s
        return it.operands[-1]


def renormalize_affine(
    f: MapArrays,
    thetas: np.ndarray,
    sincos: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_f = f^{-1} on lines of the given angles, for a forward map f (one
    map, or maps that broadcast against the angles).

    Returns canonical theta' and the affine offset map of each angle:
    T_f(theta, t) = (theta', sign * (t - shift) / f.ratio). shift is the
    translation's offset; sign is -1 for a reflection, flipped once per
    fold of the angle into [0, pi). sincos, when given, is
    (np.sin(thetas), np.cos(thetas)) computed by the caller, for callers
    that renormalize the same angles under many maps.
    """
    thetas = np.asarray(thetas, dtype=float)
    sin, cos = (np.sin(thetas), np.cos(thetas)) if sincos is None else sincos
    shift = offsets(*f.translation, sin, cos)
    theta_p, k = _fold(np.where(f.reflect, f.angle - thetas, thetas - f.angle))
    flip = (k.astype(np.int64) % 2 == 1) ^ f.reflect
    return theta_p, np.where(flip, -1.0, 1.0), shift


def renormalize_arrays(
    f: MapArrays,
    thetas: np.ndarray,
    ts: np.ndarray,
    sincos: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized renormalization of many lines by one forward map f, or by
    one map per line: the closed form of `renormalize_affine` (which takes
    sincos) applied to each offset. Returns canonical (theta', t') arrays of
    the input shape."""
    theta_p, sign, shift = renormalize_affine(f, thetas, sincos)
    return theta_p, sign * ((np.asarray(ts, dtype=float) - shift) / f.ratio)
