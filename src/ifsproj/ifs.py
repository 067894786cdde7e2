"""Planar similarity maps and iterated function systems on the unit square.

A similarity is p -> r * R(angle) * M^reflect * p + translation, where R is
counterclockwise rotation and M = diag(1, -1) is applied before the rotation.
Attractors live in I = [0,1]^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, ConfigError

Word = tuple[str, ...]

_CENTER = np.array([0.5, 0.5])


def as_word(w: str | Iterable[str]) -> Word:
    """Normalize a word given as 'ab' or ('a', 'b') to a tuple of symbols."""
    return tuple(w)


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

    def linear(self) -> np.ndarray:
        """The 2x2 linear part r * R(angle) * M^reflect."""
        c, s = math.cos(self.angle), math.sin(self.angle)
        m = np.array([[c, -s], [s, c]])
        if self.reflect:
            m = m @ np.array([[1.0, 0.0], [0.0, -1.0]])
        return self.ratio * m

    def __call__(self, p) -> np.ndarray:
        return apply_similarity(self, p)


def apply_similarity(f: Similarity, p) -> np.ndarray:
    """Apply f to a point or an (n, 2) array of points."""
    pts = np.asarray(p, dtype=float)
    out = pts @ f.linear().T + np.asarray(f.translation)
    return out


def compose(f: Similarity, g: Similarity) -> Similarity:
    """The similarity f o g."""
    sign = -1.0 if f.reflect else 1.0
    tau = apply_similarity(f, np.asarray(g.translation))
    return Similarity(
        ratio=f.ratio * g.ratio,
        angle=f.angle + sign * g.angle,
        reflect=f.reflect ^ g.reflect,
        translation=(tau[0], tau[1]),
    )


class MapArrays(NamedTuple):
    """The fields of `Similarity` as arrays, one map per element;
    translation is the pair (x, y) of arrays. `stopping_cover` returns the
    stopping words' maps in this form, and `lines.renormalize_affine` and
    `lines.renormalize_arrays` take it wherever they take a Similarity and
    broadcast it against the lines."""

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

    def take(self, idx: np.ndarray) -> "MapArrays":
        """The maps at the given indices."""
        tx, ty = self.translation
        return MapArrays(self.ratio[idx], self.angle[idx], self.reflect[idx], (tx[idx], ty[idx]))

    def images(self, point: tuple[float, float]) -> np.ndarray:
        """The points f(point) of every map f as an (n, 2) array."""
        px, py = point
        cos_v, sin_v = np.cos(self.angle), np.sin(self.angle)
        sy = np.where(self.reflect, -py, py)
        # in place, cos and sin as scratch: this is the memory peak of verify
        out = np.empty((len(self.ratio), 2))
        x = np.multiply(cos_v, px, out=out[:, 0])
        y = np.multiply(sin_v, px, out=out[:, 1])
        x -= np.multiply(sin_v, sy, out=sin_v)
        y += np.multiply(cos_v, sy, out=cos_v)
        out *= self.ratio[:, None]
        tx, ty = self.translation
        x += tx
        y += ty
        return out


@dataclass(frozen=True)
class Perturbation:
    """Rotation phi of a map's image square about its center, then the shift
    gamma * c1 * rho, with each gamma component in (-1, 1)."""

    phi: float
    gamma: tuple[float, float]

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        gx, gy = self.gamma
        if not (abs(gx) < 1.0 and abs(gy) < 1.0):
            raise ValueError(f"gamma components must lie in (-1,1), got {self.gamma}")


def perturb_map(f: Similarity, omega: Perturbation, c1: float, rho: float) -> Similarity:
    """Rotate f's image square by phi about its center, shift by gamma*c1*rho."""
    c = apply_similarity(f, _CENTER)
    tau = np.asarray(f.translation)
    cp, sp = math.cos(omega.phi), math.sin(omega.phi)
    rot = np.array([[cp, -sp], [sp, cp]])
    tau_p = rot @ (tau - c) + c + np.asarray(omega.gamma) * (c1 * rho)
    return Similarity(f.ratio, f.angle + omega.phi, f.reflect, (tau_p[0], tau_p[1]))


@dataclass(frozen=True)
class Square:
    """An oriented (possibly reflected) square, e.g. the image f_w(I)."""

    center: tuple[float, float]
    half_diag: float
    angle: float
    reflect: bool

    @property
    def side(self) -> float:
        return self.half_diag * math.sqrt(2.0)

    def corners(self) -> np.ndarray:
        """The four corners, images of (0,0),(1,0),(1,1),(0,1) in that order."""
        f = Similarity(self.side, self.angle, self.reflect, (0.0, 0.0))
        unit = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
        return apply_similarity(f, unit) + np.asarray(self.center)


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
        if set(self.maps) != set(self.alphabet):
            raise ConfigError("maps must be keyed exactly by the alphabet")
        if sorted(self.part_one + self.part_two) != sorted(self.alphabet):
            raise ConfigError("part_one and part_two must partition the alphabet")
        if set(self.part_one) & set(self.part_two):
            raise ConfigError("part_one and part_two overlap")
        for a in self.alphabet:
            r = self.maps[a].ratio
            if not (0.0 < r < 1.0):
                raise ConfigError(f"map {a!r} is not a contraction (ratio={r})")
        d = similarity_dimension([self.maps[a].ratio for a in self.alphabet])
        object.__setattr__(self, "dimension", d)

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "maps": {
                a: {
                    "r": f.ratio,
                    "angle": f.angle,
                    "tx": f.translation[0],
                    "ty": f.translation[1],
                    "reflect": f.reflect,
                }
                for a, f in ((a, self.maps[a]) for a in self.alphabet)
            },
            "part_one": list(self.part_one),
        }


def default_partition(alphabet: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split an alphabet into the two symbol classes; ties go to the first."""
    k = math.ceil(len(alphabet) / 2)
    return tuple(alphabet[:k]), tuple(alphabet[k:])


_CONTAINMENT_TOL = 1e-9  # how far a map may send a corner of I outside I


def make_ifs(
    maps: Mapping[str, Similarity],
    part_one: Sequence[str] | None = None,
    alphabet: Sequence[str] | None = None,
    check_containment: bool = True,
) -> IfsSpec:
    """Assemble an IfsSpec, optionally verifying f_a(I) within the unit square.

    Containment failures raise by default; pass check_containment=False to
    downgrade them to a warning (used for perturbed systems that may poke
    slightly outside I).
    """
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
    outside = []
    for a in spec.alphabet:
        corners = cylinder_square(spec, (a,)).corners()
        if corners.min() < -_CONTAINMENT_TOL or corners.max() > 1.0 + _CONTAINMENT_TOL:
            outside.append(a)
    if outside:
        msg = f"maps {outside} send the unit square outside itself"
        if check_containment:
            raise ConfigError(msg)
        warnings.warn(msg, stacklevel=2)
    return spec


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
    maps = {}
    for a in alphabet:
        if a not in raw_maps:
            raise ConfigError(f"maps: missing symbol {a!r}")
        m = raw_maps[a]
        try:
            maps[a] = Similarity(
                ratio=float(m["r"]),
                angle=float(m.get("angle", 0.0)),
                reflect=bool(m.get("reflect", False)),
                translation=(float(m["tx"]), float(m["ty"])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"maps: bad entry for symbol {a!r}: {exc}") from exc
    return make_ifs(maps, part_one=part_one, alphabet=alphabet)


def compose_word(ifs: IfsSpec, w: str | Iterable[str]) -> Similarity:
    """f_w = f_{w_1} o ... o f_{w_k}; the empty word gives the identity."""
    f = Similarity(1.0, 0.0, False, (0.0, 0.0))
    for a in as_word(w):
        f = compose(f, ifs.maps[a])
    return f


def map_square(f: Similarity) -> Square:
    """The square f(I) with its orientation data."""
    c = apply_similarity(f, _CENTER)
    return Square(
        center=(c[0], c[1]),
        half_diag=f.ratio * math.sqrt(0.5),
        angle=f.angle,
        reflect=f.reflect,
    )


def cylinder_square(ifs: IfsSpec, w: str | Iterable[str]) -> Square:
    """The square f_w(I) with its orientation data."""
    return map_square(compose_word(ifs, w))


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
    if g(hi) >= 0.0:
        raise ValueError("similarity dimension exceeds solver range")
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


def _square_axes(sq: Square) -> np.ndarray:
    c, s = math.cos(sq.angle), math.sin(sq.angle)
    return np.array([[c, s], [-s, c]])


def squares_interiors_overlap(a: Square, b: Square, tol: float = 1e-12) -> bool:
    """Separating-axis test: do two oriented squares share interior points?"""
    axes = np.vstack([_square_axes(a), _square_axes(b)])
    ca, cb = a.corners(), b.corners()
    for ax in axes:
        pa, pb = ca @ ax, cb @ ax
        if pa.max() <= pb.min() + tol or pb.max() <= pa.min() + tol:
            return False
    return True


def check_osc_unit_square(ifs: IfsSpec, tol: float = 1e-12) -> OscReport:
    """Check the open set condition with the open unit square as witness.

    Requires every f_a(I) inside I and pairwise disjoint interiors among the
    first-level images. Sufficient, not necessary, for the OSC proper.
    """
    squares = {a: cylinder_square(ifs, (a,)) for a in ifs.alphabet}
    not_contained = []
    for a, sq in squares.items():
        corners = sq.corners()
        if corners.min() < -tol or corners.max() > 1.0 + tol:
            not_contained.append(a)
    overlapping = []
    for i, a in enumerate(ifs.alphabet):
        for b in ifs.alphabet[i + 1 :]:
            if squares_interiors_overlap(squares[a], squares[b], tol=tol):
                overlapping.append((a, b))
    return OscReport(
        ok=not not_contained and not overlapping,
        not_contained=tuple(not_contained),
        overlapping_pairs=tuple(overlapping),
    )


def stopping_cover(ifs: IfsSpec, rho: float, budget: int | None = None) -> MapArrays:
    """The maps f_w of the minimal words w with ratio(w) <= rho <
    ratio(parent of w).

    These words are a prefix-free cover of the symbol space; their maps come
    in the words' lexicographic order (alphabet order as given). The prefix
    tree is expanded level by level: every node is finished (ratio <= rho)
    or active, and np.repeat puts each active node's children in its place,
    so the order needs no sort. Ratios are products of the letters' ratios
    taken left to right, as compose_word forms them. With equal ratios r the
    words are all words of the first length n with r^n <= rho. The words
    themselves are not kept: the pipeline reads only their maps.

    n_finished + k * n_active is a lower bound on the final count, and
    equals it at the last level, so BudgetExceeded (partial = that bound)
    is raised before a level is allocated exactly when the cover has more
    than budget words.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    k = len(ifs.alphabet)
    lr, la, lm, (lx, ly) = MapArrays.of([ifs.maps[a] for a in ifs.alphabet])

    # the root node: the empty word and the identity map
    r, ang, refl = np.ones(1), np.zeros(1), np.zeros(1, dtype=bool)
    tx, ty = np.zeros(1), np.zeros(1)
    active = np.ones(1, dtype=bool)
    while active.any():
        n_active = int(np.count_nonzero(active))
        n_finished = len(active) - n_active
        total = n_finished + k * n_active
        if budget is not None and total > budget:
            raise BudgetExceeded(
                f"budget exceeded: at least {total} stopping words > {budget}", partial=total
            )
        # compose each active node's map with every letter map, children of
        # one node in alphabet order along axis 1
        pr, pa, pm = r[active, None], ang[active, None], refl[active, None]
        cos_a, sin_a = np.cos(pa), np.sin(pa)
        sgn = np.where(pm, -1.0, 1.0)
        py = sgn * ly
        child_tx = (pr * (cos_a * lx - sin_a * py) + tx[active, None]).ravel()
        child_ty = (pr * (sin_a * lx + cos_a * py) + ty[active, None]).ravel()
        child_r = (pr * lr).ravel()
        child_ang = (pa + sgn * la).ravel()
        child_refl = (pm ^ lm).ravel()

        counts = np.where(active, k, 1)
        is_child = np.repeat(active, counts)

        def place(node_vals, child_vals):
            # finished nodes keep their slot, active ones give it to their children
            if not n_finished:
                return child_vals
            out = np.repeat(node_vals, counts)
            out[is_child] = child_vals
            return out

        r, ang, refl = place(r, child_r), place(ang, child_ang), place(refl, child_refl)
        tx, ty = place(tx, child_tx), place(ty, child_ty)
        active = is_child.copy()
        active[is_child] = child_r > rho
    return MapArrays(r, ang, refl, (tx, ty))


def epsilon_distance(base: IfsSpec, other: IfsSpec) -> float:
    """max over symbols of sup_I |f_a(x) - g_a(x)| / r_a.

    The difference of two affine maps is affine, so the sup over the unit
    square is attained at a corner. The two systems must share an alphabet
    and per-symbol ratios; anything else is not a perturbation in the sense
    used here.
    """
    if set(base.alphabet) != set(other.alphabet):
        raise ValueError("systems are not comparable: different alphabets")
    worst = 0.0
    for a in base.alphabet:
        if abs(base.maps[a].ratio - other.maps[a].ratio) > 1e-12:
            raise ValueError(f"systems are not comparable: ratio differs at {a!r}")
        ca = cylinder_square(base, (a,)).corners()
        cb = cylinder_square(other, (a,)).corners()
        gap = float(np.linalg.norm(ca - cb, axis=1).max())
        worst = max(worst, gap / base.maps[a].ratio)
    return worst
