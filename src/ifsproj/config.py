"""Run configuration: constants, grids, budgets, and their derived values.

A config file is JSON with an "ifs" entry (builtin name, file path, or
inline spec) plus optional "constants" and "grid" blocks; flat keys are
accepted too. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .ifs import IfsSpec, _finite_number, ifs_from_json_dict
from .measure import DirectionSet, build_E, measured_c9
from .recurrence import (
    GridGeometry,
    RecurrentCandidate,
    SliceBuilder,
    SliceParams,
    build_candidate,
)
from .systems import BUILTIN, get_builtin

_CONSTANT_KEYS = (
    "rho",
    "epsilon",
    "c0",
    "c1",
    "c5",
    "c6",
    "c7",
    "delta",
)
_GRID_KEYS = (
    "theta_pitch",
    "t_max",
    "n_phi",
    "raster_size",
    "word_budget",
    "search_budget",
    "n_theta_sample",
    "cert_resolution",
)


def _is_int(v) -> bool:
    """An int that is not a bool: JSON true and false load as Python bools."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a pipeline run. None means "derive the default"."""

    ifs: dict | str = "sierpinski"
    rho: float = 4.0**-4
    epsilon: float = 0.3
    c0: float = 2.0
    c1: float = 8.0
    c5: float | None = None  # None: smallest value excluding < epsilon/2 of angles
    c6: float = 0.05
    c7: float | None = None  # None: c6 * c10 * epsilon / (4 c9), c9 measured, c10 = c9^-2 / 16
    delta: float | None = None  # None: sqrt(rho)/8
    theta_pitch: float | None = None  # None: pi / ceil(4 pi / rho)
    t_max: float = 1.0
    n_phi: int = 33
    raster_size: int = 512
    word_budget: int = 6_000_000
    search_budget: int = 10_000
    n_theta_sample: int = 10
    cert_resolution: float = 1e-3
    search_mode: str = "iid"
    seed: int = 0
    out: str = "out"

    def __post_init__(self):
        pos = {
            "rho": self.rho,
            "epsilon": self.epsilon,
            "c0": self.c0,
            "c1": self.c1,
            "c6": self.c6,
            "t_max": self.t_max,
            "cert_resolution": self.cert_resolution,
        }
        for name in ("c5", "c7", "delta", "theta_pitch"):
            v = getattr(self, name)
            if v is not None:
                pos[name] = v
        for name, v in pos.items():
            if not (_finite_number(v) and v > 0):
                raise ConfigError(f"{name}: must be a positive number, got {v!r}")
        if self.rho >= 1:
            raise ConfigError(f"rho: must be < 1, got {self.rho}")
        if self.epsilon >= math.pi / 2:
            raise ConfigError(f"epsilon: must be < pi/2, got {self.epsilon}")
        if self.cert_resolution >= 2:  # certificates sample at scale cert_resolution / 2 < 1
            raise ConfigError(f"cert_resolution: must be < 2, got {self.cert_resolution}")
        if not (_is_int(self.n_phi) and self.n_phi >= 1 and self.n_phi % 2 == 1):
            raise ConfigError(f"n_phi: must be a positive odd integer, got {self.n_phi!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed: must be an unsigned integer, got {self.seed!r}")
        if not isinstance(self.out, str):
            raise ConfigError(f"out: must be a directory path, got {self.out!r}")
        if self.search_mode not in ("iid", "per_symbol"):
            raise ConfigError(f"search_mode: must be 'iid' or 'per_symbol', got {self.search_mode!r}")
        for name in ("word_budget", "search_budget", "n_theta_sample", "raster_size"):
            v = getattr(self, name)
            if not (_is_int(v) and v >= 1):
                raise ConfigError(f"{name}: must be a positive integer, got {v!r}")
        if self.theta_pitch is not None and self.theta_pitch >= math.pi:  # E needs 2 rows
            raise ConfigError(f"theta_pitch: must be < pi, got {self.theta_pitch}")

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
        if self.theta_pitch is not None:
            return math.ceil(math.pi / self.theta_pitch)
        return math.ceil(4.0 * math.pi / self.rho)

    def geometry(self) -> GridGeometry:
        return GridGeometry(self.n_theta, t_max=self.t_max)

    def delta_value(self) -> float:
        return math.sqrt(self.rho) / 8.0 if self.delta is None else self.delta

    def resolve(self, ifs: IfsSpec) -> SliceParams:
        """The slice test's parameters for a concrete system: c7 derived
        from the measured c9 unless given, n_required from the dimension."""
        c9 = measured_c9(ifs, self.rho, self.word_budget)
        c7 = self.c6 * (c9**-2 / 16.0) * self.epsilon / (4.0 * c9) if self.c7 is None else self.c7
        n_required = max(1, round(self.c6**2 * self.rho ** (-(ifs.dimension - 1) / 2)))
        return SliceParams(epsilon=self.epsilon, c7=c7, n_phi=self.n_phi, n_required=n_required)

    def direction_set(self, ifs: IfsSpec) -> DirectionSet:
        """E for a concrete system on this config's theta grid (`build_E`)."""
        return build_E(ifs, self.n_theta, self.rho, self.delta_value(), self.c5, self.epsilon, self.word_budget)


def build_pipeline(cfg: RunConfig) -> tuple[IfsSpec, SliceParams, DirectionSet, RecurrentCandidate]:
    """Refuse an attractor of dimension at most 1 (a ConfigError, before any
    stopping word is counted), resolve the slice parameters, scan the
    directions into E, run the slice test on every E row and assemble the
    candidate; returns the system, the slice parameters, E and the
    candidate. An empty candidate is a ConfigError too, naming the cause."""
    ifs = cfg.load_ifs_spec()
    if ifs.dimension <= 1.0 + 1e-9:
        raise ConfigError("d ≤ 1, theorem hypotheses unmet")
    sp = cfg.resolve(ifs)
    geom = cfg.geometry()
    E = cfg.direction_set(ifs)
    slices = SliceBuilder(ifs, E, geom, sp).all_rows()
    if not len(slices.start):
        cause = "slice test: no slice produced members"
        if not E.member.any():
            cause = f"c5: E holds no direction below {E.c5!r}"
        elif sp.required_run > sp.n_phi:
            cause = f"c7: a phi-run above {sp.c7!r} needs {sp.required_run} cells > n_phi = {sp.n_phi}"
        raise ConfigError(f"{cause}; the candidate is empty")
    return ifs, sp, E, build_candidate(slices, cfg.rho, geom)


def config_from_json_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(data).__name__}")
    flat: dict = {}

    def take(block, allowed: tuple[str, ...], label: str):
        if not isinstance(block, dict):
            raise ConfigError(f"{label}: expected a JSON object, got {type(block).__name__}")
        for k, v in block.items():
            if k not in allowed:
                raise ConfigError(f"{label}.{k}: unknown key")
            if k in flat:
                raise ConfigError(f"{label}.{k}: given twice")
            flat[k] = v

    known = {f.name for f in fields(RunConfig)}
    for k, v in data.items():
        if k == "constants":
            take(v, _CONSTANT_KEYS, "constants")
        elif k == "grid":
            take(v, _GRID_KEYS, "grid")
        elif k in known:
            if k in flat:
                raise ConfigError(f"{k}: given twice")
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
