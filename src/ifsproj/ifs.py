"""Planar similarity maps and iterated function systems on the unit square.

A similarity is p -> r * R(angle) * M^reflect * p + translation, where R is
counterclockwise rotation and M = diag(1, -1) is applied before the rotation.
Attractors live in I = [0,1]^2.

`Similarity` is the validated record of one map that an `IfsSpec` and the
IFS JSON hold. `MapArrays` is the one arithmetic on maps: it applies,
composes and turns them in elementwise numpy, with no matrix product. A 2x2
product through BLAS rounds with or without fused multiply-adds depending on
the kernel the CPU selects, so it would tie the reported numbers to the
machine that ran them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Mapping, Sequence
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, ConfigError

_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])  # of I, counterclockwise


@dataclass(frozen=True)
class Similarity:
    """One orientation-aware planar similarity.

    ratio may exceed 1 so that inverses of contractions are representable;
    IfsSpec enforces contraction for its own maps.
    """

    ratio: float
    angle: float
    reflect: bool
    translation: tuple[float, float]

    def __post_init__(self):
        if not (self.ratio > 0.0) or not math.isfinite(self.ratio):
            raise ValueError(f"similarity ratio must be positive, got {self.ratio}")
        object.__setattr__(self, "angle", float(self.angle) % (2.0 * math.pi))
        tx, ty = self.translation
        object.__setattr__(self, "translation", (float(tx), float(ty)))


class MapArrays(NamedTuple):
    """The fields of `Similarity` as arrays of one shape, one map per
    element; translation is the pair (x, y) of arrays. `images` applies the
    maps, `compose` composes them and `turned` perturbs them, each
    elementwise and broadcasting, so a block of maps gives bit for bit the
    results of its maps one at a time. `lines.renormalize_affine` and
    `lines.renormalize_arrays` broadcast a MapArrays against the lines."""

    ratio: np.ndarray
    angle: np.ndarray
    reflect: np.ndarray
    translation: tuple[np.ndarray, np.ndarray]

    @classmethod
    def of(cls, maps: Sequence[Similarity]) -> "MapArrays":
        return cls(
            np.array([f.ratio for f in maps], dtype=float),
            np.array([f.angle for f in maps], dtype=float),
            np.array([f.reflect for f in maps], dtype=bool),
            (
                np.array([f.translation[0] for f in maps], dtype=float),
                np.array([f.translation[1] for f in maps], dtype=float),
            ),
        )

    def _each(self, fn) -> "MapArrays":
        tx, ty = self.translation
        return MapArrays(fn(self.ratio), fn(self.angle), fn(self.reflect), (fn(tx), fn(ty)))

    def fields(self) -> tuple[np.ndarray, ...]:
        """ratio, angle, reflect and the translation's x and y."""
        return (self.ratio, self.angle, self.reflect, *self.translation)

    def take(self, idx) -> "MapArrays":
        """The maps at the given index (any numpy index)."""
        return self._each(lambda v: v[idx])

    def reshape(self, *shape: int) -> "MapArrays":
        return self._each(lambda v: v.reshape(shape))

    def images(self, points) -> np.ndarray:
        """f(p) for every map f and point p, the points given as an array
        whose last axis is (x, y): shape (maps..., points..., 2), so one
        point gives (maps..., 2). x and y are each computed and held
        contiguously; the last axis is a view across the two."""
        px, py = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
        lead = (...,) + (None,) * px.ndim  # the maps' axes, then the points'
        cos_v, sin_v = np.cos(self.angle)[lead], np.sin(self.angle)[lead]
        sy = np.where(self.reflect[lead], -py, py)
        out = np.empty((2,) + sy.shape)
        x = np.multiply(cos_v, px, out=out[0])
        y = np.multiply(sin_v, px, out=out[1])
        x -= sin_v * sy
        y += cos_v * sy
        out *= self.ratio[lead]
        tx, ty = self.translation
        x += tx[lead]
        y += ty[lead]
        return np.moveaxis(out, 0, -1)

    def compose(self, inner: "MapArrays") -> "MapArrays":
        """f o g for every map f along self's last axis and g along inner's,
        f-major along the result's last axis; leading axes broadcast. The
        angles add as they are, not reduced mod 2 pi. The arithmetic runs
        g-major, so each elementwise loop runs along self's maps, usually
        the long axis; one copy per field lays the result out f-major."""
        r, ang, m, (tx, ty) = self._each(lambda v: v[..., None, :])
        lr, la, lm, (lx, ly) = inner._each(lambda v: v[..., :, None])
        cos_a, sin_a = np.cos(ang), np.sin(ang)
        sgn = np.where(m, -1.0, 1.0)
        py = sgn * ly
        x = r * (cos_a * lx - sin_a * py) + tx
        y = r * (sin_a * lx + cos_a * py) + ty
        lead = np.broadcast_shapes(self.ratio.shape[:-1], inner.ratio.shape[:-1])
        size = self.ratio.shape[-1] * inner.ratio.shape[-1]  # explicit: a zero-size block reshapes too
        return MapArrays(r * lr, ang + sgn * la, m ^ lm, (x, y))._each(
            lambda v: np.swapaxes(v, -1, -2).reshape(lead + (size,))
        )

    def turned(self, phi, shift) -> "MapArrays":
        """Each map turned by phi about the center of its square f(I), then
        moved by shift = (x, y); phi and the shift broadcast against the
        maps, and every field takes the common shape."""
        center = self.images((0.5, 0.5))
        cx, cy = center[..., 0], center[..., 1]
        tx, ty = self.translation
        dx, dy = tx - cx, ty - cy
        cp, sp = np.cos(phi), np.sin(phi)
        x = cp * dx - sp * dy + cx + shift[0]
        y = sp * dx + cp * dy + cy + shift[1]
        ang = self.angle + phi
        shape = np.broadcast_shapes(ang.shape, x.shape, y.shape)
        out = MapArrays(self.ratio, ang, self.reflect, (x, y))
        return out._each(lambda v: np.broadcast_to(v, shape))


@dataclass(frozen=True)
class IfsSpec:
    """A finite IFS of contracting similarities plus a two-part alphabet split.

    part_one / part_two are the symbol classes used by the renormalization
    constructions; by default the first ceil(n/2) symbols form part_one.
    """

    alphabet: tuple[str, ...]
    maps: Mapping[str, Similarity]
    part_one: tuple[str, ...]
    part_two: tuple[str, ...]
    dimension: float = field(init=False)

    def __post_init__(self):
        if len(self.alphabet) < 2:
            raise ConfigError("alphabet must have at least 2 symbols")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ConfigError("alphabet has repeated symbols")
        for a in self.alphabet:  # word names join symbols, so longer ones would merge them
            if not (isinstance(a, str) and len(a) == 1):
                raise ConfigError(f"alphabet: symbol {a!r} is not one character")
        if set(self.maps) != set(self.alphabet):
            raise ConfigError("maps must be keyed exactly by the alphabet")
        if sorted(self.part_one + self.part_two) != sorted(self.alphabet):
            raise ConfigError("part_one and part_two must partition the alphabet")
        if set(self.part_one) & set(self.part_two):
            raise ConfigError("part_one and part_two overlap")
        if not self.part_one or not self.part_two:
            raise ConfigError(
                "part_one: must be a nonempty proper subset of the alphabet, "
                f"got {list(self.part_one)!r}"
            )
        for a in self.alphabet:
            r = self.maps[a].ratio
            if not (0.0 < r < 1.0):
                raise ConfigError(f"map {a!r} is not a contraction (ratio={r})")
        d = similarity_dimension([self.maps[a].ratio for a in self.alphabet])
        object.__setattr__(self, "dimension", d)

    def letter_maps(self, symbols: Sequence[str] | None = None) -> MapArrays:
        """The maps of the given symbols (default: the alphabet), in order."""
        return MapArrays.of([self.maps[a] for a in (self.alphabet if symbols is None else symbols)])


def default_partition(alphabet: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split an alphabet into the two symbol classes; ties go to the first."""
    k = math.ceil(len(alphabet) / 2)
    return tuple(alphabet[:k]), tuple(alphabet[k:])


_CONTAINMENT_TOL = 1e-9  # how far a map may send a corner of I outside I


def _outside(ifs: IfsSpec, tol: float = _CONTAINMENT_TOL) -> list[str]:
    """The symbols a whose square f_a(I) reaches more than tol outside I."""
    corners = ifs.letter_maps().images(_CORNERS)
    far = (corners.min(axis=(1, 2)) < -tol) | (corners.max(axis=(1, 2)) > 1.0 + tol)
    return [a for a, out in zip(ifs.alphabet, far) if out]


def make_ifs(
    maps: Mapping[str, Similarity],
    part_one: Sequence[str] | None = None,
    alphabet: Sequence[str] | None = None,
) -> IfsSpec:
    """Assemble an IfsSpec, verifying f_a(I) within the unit square: a map
    that sends I outside itself raises ConfigError."""
    if alphabet is None:
        alphabet = tuple(maps.keys())
    else:
        alphabet = tuple(alphabet)
    if part_one is None:
        part_one, part_two = default_partition(alphabet)
    else:
        part_one = tuple(part_one)
        part_two = tuple(a for a in alphabet if a not in set(part_one))
    spec = IfsSpec(alphabet=alphabet, maps=dict(maps), part_one=part_one, part_two=part_two)
    outside = _outside(spec)
    if outside:
        raise ConfigError(f"maps {outside} send the unit square outside itself")
    return spec


_MAP_NUMBERS = ("r", "angle", "tx", "ty")  # the keys of a map entry that hold numbers


def _finite_number(v) -> bool:
    """Is v a JSON number (not a boolean) that a float holds finitely?"""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer past the float range
        return False


def _similarity_from_json(a: str, m) -> Similarity:
    """The map of symbol a from its IFS JSON entry: r, tx and ty finite
    numbers, angle a finite number (default 0), reflect a boolean (default
    false), and no other key."""
    if not isinstance(m, Mapping):
        raise ConfigError(f"maps: bad entry for symbol {a!r}: expected an object, got {m!r}")
    for k, v in m.items():
        if k not in _MAP_NUMBERS and k != "reflect":
            raise ConfigError(f"maps: unknown key {k!r} in the entry for symbol {a!r}")
        if k == "reflect" and not isinstance(v, bool):
            raise ConfigError(f"maps: reflect of symbol {a!r} must be true or false, got {v!r}")
        if k != "reflect" and not _finite_number(v):
            raise ConfigError(f"maps: {k} of symbol {a!r} must be a finite number, got {v!r}")
    try:
        return Similarity(
            ratio=float(m["r"]),
            angle=float(m.get("angle", 0.0)),
            reflect=m.get("reflect", False),
            translation=(float(m["tx"]), float(m["ty"])),
        )
    except KeyError as exc:
        raise ConfigError(f"maps: bad entry for symbol {a!r}: missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"maps: bad entry for symbol {a!r}: {exc}") from exc


def ifs_from_json_dict(data: Mapping) -> IfsSpec:
    """Parse the on-disk IFS description (see README for the schema)."""
    for field in ("alphabet", "maps"):
        if not isinstance(data, Mapping) or field not in data:
            raise ConfigError(f"{field}: missing")
    alphabet, raw_maps = data["alphabet"], data["maps"]
    if not (isinstance(alphabet, list) and all(isinstance(a, str) for a in alphabet)):
        raise ConfigError(f"alphabet: must be a list of symbol strings, got {alphabet!r}")
    if not isinstance(raw_maps, Mapping):
        raise ConfigError(f"maps: must be an object keyed by symbol, got {raw_maps!r}")
    part_one = data.get("part_one")
    if part_one is not None and not (
        isinstance(part_one, list) and all(isinstance(a, str) for a in part_one)
    ):
        raise ConfigError(f"part_one: must be a list of symbol strings, got {part_one!r}")
    for a in raw_maps:
        if a not in alphabet:
            raise ConfigError(f"maps: symbol {a!r} is not in the alphabet")
    maps = {}
    for a in alphabet:
        if a not in raw_maps:
            raise ConfigError(f"maps: missing symbol {a!r}")
        maps[a] = _similarity_from_json(a, raw_maps[a])
    return make_ifs(maps, part_one=part_one, alphabet=alphabet)


def similarity_dimension(ratios: Sequence[float]) -> float:
    """Solve sum r_a^d = 1 by bisection; needs at least two contractions."""
    ratios = [float(r) for r in ratios]
    if len(ratios) < 2:
        raise ValueError("similarity dimension needs at least 2 ratios")
    for r in ratios:
        if not (0.0 < r < 1.0):
            raise ValueError(f"ratios must lie in (0,1), got {r}")

    def g(d: float) -> float:
        return math.fsum(r**d for r in ratios) - 1.0

    lo, hi = 1e-9, 64.0
    while g(hi) >= 0.0:  # every ratio is below 1, so g falls to -1
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    if abs(g(d)) >= 1e-12:
        raise ArithmeticError(f"dimension solver residual {g(d):.3e} too large")
    return d


@dataclass(frozen=True)
class OscReport:
    """Outcome of the open-set-condition check against the open unit square."""

    ok: bool
    not_contained: tuple[str, ...]
    overlapping_pairs: tuple[tuple[str, str], ...]


def _interiors_overlap(ca: np.ndarray, cb: np.ndarray, tol: float) -> bool:
    """Separating-axis test: do two squares, given by their corners in
    order around them, share interior points? The axes are the squares'
    edge directions."""
    for c in (ca, cb):
        for edge in (c[1] - c[0], c[3] - c[0]):
            ux, uy = edge / np.hypot(edge[0], edge[1])
            pa, pb = ca[:, 0] * ux + ca[:, 1] * uy, cb[:, 0] * ux + cb[:, 1] * uy
            if pa.max() <= pb.min() + tol or pb.max() <= pa.min() + tol:
                return False
    return True


def check_osc_unit_square(ifs: IfsSpec, tol: float = 1e-12) -> OscReport:
    """Check the open set condition with the open unit square as witness.

    Requires every f_a(I) inside I and pairwise disjoint interiors among the
    first-level images. Sufficient, not necessary, for the OSC proper.
    """
    corners = ifs.letter_maps().images(_CORNERS)
    not_contained = _outside(ifs, tol)
    overlapping = [
        (ifs.alphabet[i], ifs.alphabet[j])
        for i, j in combinations(range(len(ifs.alphabet)), 2)
        if _interiors_overlap(corners[i], corners[j], tol)
    ]
    return OscReport(
        ok=not not_contained and not overlapping,
        not_contained=tuple(not_contained),
        overlapping_pairs=tuple(overlapping),
    )


_BATCH = 1 << 11  # prefix-tree nodes expanded at a time: a batch's maps stay in cache


def stopping_ratios(ifs: IfsSpec, rho: float, budget: int | None = None) -> dict[float, int]:
    """The ratios of the stopping words at scale rho (see
    `stopping_batches`), each with its number of words, from the letters'
    ratios alone, level by level on the prefix tree that `stopping_batches`
    walks. A node's subtree depends only on its ratio, so each level's
    active nodes are kept as a count per distinct ratio; products are taken
    left to right, as `MapArrays.compose` takes them, so the ratios are
    those of the words' maps bit for bit. No map is composed.

    After each level, (finished words) + k * (active nodes), k the number
    of letters, is a lower bound on the count that never decreases and
    equals it at the end, so BudgetExceeded (partial = that bound) is
    raised exactly when the cover has more than budget words."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    letters = ifs.letter_maps().ratio.tolist()
    done: dict[float, int] = {}
    level = {1.0: 1}  # distinct ratio -> active nodes of the level
    while level:
        children: dict[float, int] = {}
        for r, count in level.items():
            for q in letters:
                child = r * q
                ends = done if child <= rho else children
                ends[child] = ends.get(child, 0) + count
        level = children
        total = sum(done.values()) + len(letters) * sum(level.values())
        if budget is not None and total > budget:
            raise BudgetExceeded(
                f"budget exceeded: at least {total} stopping words > {budget}", partial=total
            )
    return done


def _expand(
    maps: MapArrays, active: np.ndarray, letters: MapArrays, rho: float
) -> tuple[MapArrays, np.ndarray]:
    """Nodes in order with every active one replaced by its children in
    alphabet order (`MapArrays.compose`), and which of the new nodes are
    active; finished nodes keep their place, and np.repeat opens the
    children's, so the order needs no sort."""
    k = len(letters.ratio)
    n_finished = len(active) - int(np.count_nonzero(active))
    children = (maps.take(active) if n_finished else maps).compose(letters)
    if not n_finished:
        return children, children.ratio > rho
    counts = np.where(active, k, 1)
    is_child = np.repeat(active, counts)
    child_active = is_child.copy()
    child_active[is_child] = children.ratio > rho

    def place(node_vals, child_vals):
        out = np.repeat(node_vals, counts)
        out[is_child] = child_vals
        return out

    (r, ang, refl, (tx, ty)), (cr, ca, cm, (cx, cy)) = maps, children
    placed = MapArrays(
        place(r, cr), place(ang, ca), place(refl, cm), (place(tx, cx), place(ty, cy))
    )
    return placed, child_active


def stopping_batches(
    ifs: IfsSpec, rho: float, budget: int | None = None, prune: Callable | None = None
) -> tuple[int, Iterator[MapArrays]]:
    """The number of stopping words at scale rho, the minimal words w with
    ratio(w) <= rho < ratio(parent of w), and their maps f_w in consecutive
    batches, in the words' lexicographic order (alphabet order as given).
    Ratios are products of the letters' ratios taken left to right. The
    words themselves are not kept; `measure.stopping_cylinders` gathers
    the maps' images and ratios.

    The count comes first, from the ratios alone (`stopping_ratios`), so a
    budget overrun raises BudgetExceeded before any map is composed. The
    maps come from a front-first stack of node runs, each run in
    lexicographic order and every node finished (ratio <= rho) or active:
    the leading finished nodes of the front run are yielded, and at most
    _BATCH nodes after them are expanded (`_expand`) and pushed back in
    their place. Every map is computed by the same elementwise formula
    whatever the batch, so the maps do not depend on _BATCH, and memory
    stays at a few batches per tree level. prune, given, gets each batch's
    nodes before expansion and returns True for those to drop with all
    their words, which the count still holds."""
    count = sum(stopping_ratios(ifs, rho, budget).values())
    letters = ifs.letter_maps()

    def walk():
        # the root node: the empty word and the identity map
        root = MapArrays(
            np.ones(1), np.zeros(1), np.zeros(1, dtype=bool), (np.zeros(1), np.zeros(1))
        )
        stack = [(root, np.ones(1, dtype=bool))]
        while stack:
            maps, active = stack.pop()
            first = int(np.argmax(active))
            if not active[first]:
                yield maps
                continue
            if first:
                yield maps.take(slice(0, first))
            stop = first + _BATCH
            if stop < len(active):
                stack.append((maps.take(slice(stop, None)), active[stop:]))
            nodes, live = maps.take(slice(first, stop)), active[first:stop]
            if prune is not None:
                keep = ~prune(nodes)
                nodes, live = nodes.take(keep), live[keep]
            if len(live):
                stack.append(_expand(nodes, live, letters, rho))

    return count, walk()


def epsilon_distance(base: IfsSpec, other: IfsSpec) -> float:
    """max over symbols of sup_I |f_a(x) - g_a(x)| / r_a.

    The difference of two affine maps is affine, so the sup over the unit
    square is attained at a corner. The two systems must share an alphabet
    and per-symbol ratios; anything else is not a perturbation in the sense
    used here.
    """
    if set(base.alphabet) != set(other.alphabet):
        raise ValueError("systems are not comparable: different alphabets")
    f, g = base.letter_maps(), other.letter_maps(base.alphabet)
    for a, rf, rg in zip(base.alphabet, f.ratio, g.ratio):
        if abs(rf - rg) > 1e-12:
            raise ValueError(f"systems are not comparable: ratio differs at {a!r}")
    gap = f.images(_CORNERS) - g.images(_CORNERS)
    return float((np.hypot(gap[..., 0], gap[..., 1]).max(axis=1) / f.ratio).max())
