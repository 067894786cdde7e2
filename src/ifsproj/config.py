"""Run configuration: constants, grids, budgets, and their derived values.

A config file is JSON with an "ifs" entry (builtin name, file path, or
inline spec) plus optional "constants" and "grid" blocks. Each key has one
spelling: a block key only in its block, the others only at top level.
Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .ifs import IfsSpec, _finite_number, ifs_from_json_dict
from .measure import DirectionSet, build_E
from .recurrence import _MAX_WORDS, GridGeometry, RecurrentCandidate, SliceBuilder, build_candidate
from .systems import BUILTIN, get_builtin

# Each key's one spelling: a block's keys in that block, the rest at top level.
_BLOCKS = {
    "constants": ("rho", "epsilon", "c1"),
    "grid": ("word_budget", "search_budget", "cert_resolution"),
}
_TOP_LEVEL = ("ifs", "search_mode", "seed", "out")
_T_MAX = 1.0  # the candidate grid's columns t lie in (-_T_MAX, _T_MAX)
_N_PHI = 33  # odd, so the unperturbed rotation sits at a cell center


def _is_int(v) -> bool:
    """An int that is not a bool: JSON true and false load as Python bools."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a pipeline run."""

    ifs: dict | str = "sierpinski"
    rho: float = 4.0**-4
    epsilon: float = 0.3
    c1: float = 8.0
    word_budget: int = 6_000_000
    search_budget: int = 10_000
    cert_resolution: float = 1e-3
    search_mode: str = "iid"
    seed: int = 0
    out: str = "out"

    def __post_init__(self):
        pos = {
            "rho": self.rho,
            "epsilon": self.epsilon,
            "c1": self.c1,
            "cert_resolution": self.cert_resolution,
        }
        for name, v in pos.items():
            if not (_finite_number(v) and v > 0):
                raise ConfigError(f"{name}: must be a positive number, got {v!r}")
        if self.rho >= 1:
            raise ConfigError(f"rho: must be < 1, got {self.rho}")
        if self.epsilon >= math.pi / 2:
            raise ConfigError(f"epsilon: must be < pi/2, got {self.epsilon}")
        if self.cert_resolution >= 2:  # certificates sample at scale cert_resolution / 2 < 1
            raise ConfigError(f"cert_resolution: must be < 2, got {self.cert_resolution}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed: must be an unsigned integer, got {self.seed!r}")
        if not isinstance(self.out, str):
            raise ConfigError(f"out: must be a directory path, got {self.out!r}")
        if self.search_mode not in ("iid", "per_symbol"):
            raise ConfigError(f"search_mode: must be 'iid' or 'per_symbol', got {self.search_mode!r}")
        for name in ("word_budget", "search_budget"):
            v = getattr(self, name)
            if not (_is_int(v) and v >= 1):
                raise ConfigError(f"{name}: must be a positive integer, got {v!r}")

    def load_ifs_spec(self) -> IfsSpec:
        src = self.ifs
        if isinstance(src, str):
            if src in BUILTIN:
                return get_builtin(src)
            unreadable = f"{src!r} is neither a builtin ({', '.join(sorted(BUILTIN))}) nor a readable file"
            return ifs_from_json_dict(read_json_file(src, "ifs", unreadable))
        if isinstance(src, dict):
            return ifs_from_json_dict(src)
        raise ConfigError(f"ifs: expected a name, path, or inline spec, got {type(src).__name__}")

    @property
    def n_theta(self) -> int:
        return math.ceil(4.0 * math.pi / self.rho)

    def geometry(self) -> GridGeometry:
        return GridGeometry(self.n_theta, t_max=_T_MAX)

    @property
    def delta(self) -> float:
        """The histogram bin width of the E scan: sqrt(rho)/8, at the
        rho^(1/2) scale that `measure.projected_histogram` asks for."""
        return math.sqrt(self.rho) / 8.0

    def resolve(self) -> np.ndarray:
        """The slice test's rotations phi: the centers of _N_PHI cells
        tiling (-epsilon, epsilon)."""
        w = 2.0 * self.epsilon / _N_PHI
        return -self.epsilon + (np.arange(_N_PHI) + 0.5) * w

    def direction_set(self, ifs: IfsSpec) -> DirectionSet:
        """E for a concrete system on this config's theta grid (`build_E`)."""
        return build_E(ifs, self.n_theta, self.rho, self.delta, self.epsilon, self.word_budget)


def build_pipeline(cfg: RunConfig) -> tuple[IfsSpec, DirectionSet, RecurrentCandidate]:
    """Refuse an attractor of dimension at most 1, or an alphabet whose
    two-letter words outnumber what a witness indexes (ConfigErrors, before
    any stopping word is counted), scan the directions into E, run the
    slice test on every E row and assemble the candidate; returns the
    system, E and the candidate. An empty candidate is a ConfigError too,
    naming the cause."""
    ifs = cfg.load_ifs_spec()
    if ifs.dimension <= 1.0 + 1e-9:
        raise ConfigError("d ≤ 1, theorem hypotheses unmet")
    n = len(ifs.alphabet)
    if n * n > _MAX_WORDS:  # a witness indexes the two-letter words as int16
        raise ConfigError(f"alphabet: {n} symbols make {n * n} two-letter words, more than {_MAX_WORDS}")
    geom = cfg.geometry()
    E = cfg.direction_set(ifs)
    slices = SliceBuilder(ifs, E, geom, cfg.resolve()).all_rows()
    if not len(slices.start):
        raise ConfigError("slice test: no slice produced members; the candidate is empty")
    return ifs, E, build_candidate(slices, cfg.rho, geom)


def config_from_json_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(data).__name__}")
    flat: dict = {}
    for k, v in data.items():
        if k in _BLOCKS:
            if not isinstance(v, dict):
                raise ConfigError(f"{k}: expected a JSON object, got {type(v).__name__}")
            for key in v:
                if key not in _BLOCKS[k]:
                    raise ConfigError(f"{k}.{key}: unknown key")
            flat.update(v)
        elif k in _TOP_LEVEL:
            flat[k] = v
        else:
            raise ConfigError(f"{k}: unknown key")
    return RunConfig(**flat)


def read_json_file(path: str, field: str, unreadable: str | None = None):
    """The JSON value in the file at path. Every fault is a ConfigError
    that starts with "<field>: ": a path that cannot be opened or read (a
    missing file, a directory) gives unreadable when given, and a file that
    is not UTF-8 JSON is malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        if unreadable is None:
            missing = isinstance(exc, FileNotFoundError)
            unreadable = f"no such file {path!r}" if missing else f"cannot read {path!r}: {exc.strerror}"
        raise ConfigError(f"{field}: {unreadable}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{field}: malformed file {path!r}, invalid JSON: {exc}") from None


def load_config(path: str) -> RunConfig:
    return config_from_json_dict(read_json_file(path, "config"))


def override(cfg: RunConfig, **kwargs) -> RunConfig:
    """Apply CLI flag overrides, dropping None values."""
    updates = {k: v for k, v in kwargs.items() if v is not None}
    return replace(cfg, **updates) if updates else cfg
