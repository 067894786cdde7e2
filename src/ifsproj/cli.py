"""Command line front end.

Subcommands: dimension | scan | build-l | search | verify | certify | render.
Exit codes: 0 = ran to completion (negative findings included), 2 = config
error, 3 = budget exceeded. Randomized commands echo their seed, and a rerun
with the same seed writes byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import RunConfig, build_pipeline, load_config, override, read_json_file
from .errors import BudgetExceeded, ConfigError
from .ifs import IfsSpec, _outside, check_osc_unit_square
from .measure import DirectionSet, stopping_cylinders
from .recurrence import RecurrentCandidate, certify_projection_intervals, check_recurrence, recurrence_rows
from .search import (
    build_perturbed_ifs,
    closeness_report,
    hull_obstruction,
    omega_from_json,
    omega_to_json,
    search_omega0,
)


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")
    return path


def _outdir(cfg: RunConfig) -> str:
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create directory {cfg.out!r}: {exc.strerror}") from None
    return cfg.out


def _perturbed(ifs: IfsSpec, omega: np.ndarray, cfg: RunConfig) -> IfsSpec:
    """`build_perturbed_ifs`, with a warning on stderr when a perturbed
    square leaves I."""
    perturbed = build_perturbed_ifs(ifs, omega, cfg.c1, cfg.rho)
    outside = _outside(perturbed)
    if outside:
        print(f"warning: maps {outside} send the unit square outside itself", file=sys.stderr)
    return perturbed


def _load_omega(cfg: RunConfig, path: str) -> np.ndarray:
    """The assignment in path as an omega row (`omega_from_json`), checked
    against the system's part_one before any pipeline work; every fault is
    a ConfigError."""
    return omega_from_json(cfg.load_ifs_spec(), read_json_file(path, "omega"))


_N_THETA_SAMPLE = 10  # directions a report certifies


def _sample_e_rows(E: DirectionSet, cand: RecurrentCandidate, seed: int) -> np.ndarray:
    """Deterministic sample of _N_THETA_SAMPLE E-grid angles (all of them
    when fewer) with a nonempty slice."""
    rows = np.flatnonzero(E.member & (np.diff(cand.L.ptr) > 0))
    rng = np.random.default_rng([seed, 17])
    pick = rng.choice(rows, size=min(_N_THETA_SAMPLE, len(rows)), replace=False)
    return np.sort(pick) * cand.geom.pitch


def _assess(
    cfg: RunConfig,
    ifs: IfsSpec,
    E: DirectionSet,
    cand: RecurrentCandidate,
    omega: np.ndarray,
) -> dict:
    """The recurrence check, the closeness report and the certified intervals
    of one assignment, an omega row, each interval with its recurrence row:
    the part that search and verify reports share."""
    perturbed = _perturbed(ifs, omega, cfg)
    thetas = _sample_e_rows(E, cand, cfg.seed)
    check = check_recurrence(perturbed, cand)
    certs = certify_projection_intervals(perturbed, thetas, cfg.cert_resolution, cfg.word_budget)
    rows = recurrence_rows(perturbed, cand, thetas, cfg.cert_resolution)
    return {
        "check": check.to_json_dict(),
        "closeness": closeness_report(ifs, perturbed, cfg.epsilon, cfg.c1, cfg.rho),
        "certified_intervals": [{**cert.to_json_dict(), **row} for cert, row in zip(certs, rows)],
    }


def cmd_dimension(cfg: RunConfig, args) -> int:
    ifs = cfg.load_ifs_spec()
    print(f"d = {ifs.dimension:.12f}")
    osc = check_osc_unit_square(ifs)
    if osc.ok:
        print("OSC: satisfied (open unit square images are pairwise disjoint)")
    else:
        problems = []
        if osc.not_contained:
            problems.append(f"images outside the square: {', '.join(osc.not_contained)}")
        if osc.overlapping_pairs:
            pairs = ", ".join(f"{a}/{b}" for a, b in osc.overlapping_pairs)
            problems.append(f"overlapping pairs: {pairs}")
        print(f"OSC: not verified by the open-unit-square test; {'; '.join(problems)}")
    return 0


def _render_pgm(ifs: IfsSpec, rho: float, size: int, path: str, budget: int | None) -> int:
    """White stopping-word centers on black, y axis pointing up."""
    centers, _ = stopping_cylinders(ifs, rho, budget=budget, with_ratios=False)
    img = np.zeros((size, size), dtype=np.uint8)
    cols = np.clip(np.rint(centers[:, 0] * (size - 1)).astype(int), 0, size - 1)
    rows = (size - 1) - np.clip(np.rint(centers[:, 1] * (size - 1)).astype(int), 0, size - 1)
    img[rows, cols] = 255
    with open(path, "wb") as fh:
        fh.write(f"P5 {size} {size} 255\n".encode("ascii"))
        fh.write(img.tobytes())
    return len(centers)


def cmd_scan(cfg: RunConfig, args) -> int:
    out = _outdir(cfg)
    E = cfg.direction_set(cfg.load_ifs_spec())
    csv_path = os.path.join(out, "scan.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("theta,l2_estimate,in_E\n")
        for theta, l2, member in zip(E.theta_grid, E.l2, E.member):
            m = "true" if member else "false"
            fh.write(f"{float(theta)!r},{float(l2)!r},{m}\n")
        fh.write(f"# excluded_fraction,{float(E.excluded_fraction)!r}\n")
    print(f"scan: {cfg.n_theta} rows -> {csv_path}")
    print(f"c5 = {E.c5!r}, excluded_fraction = {E.excluded_fraction!r}")
    return 0


def cmd_build_l(cfg: RunConfig, args) -> int:
    out = _outdir(cfg)
    _, E, cand = build_pipeline(cfg)
    geom = cand.geom
    npz_path = os.path.join(out, "candidate.npz")
    cand.save(npz_path, E)
    rows = np.flatnonzero(E.member)
    slice_measures = cand.L0.row_cells[rows] * geom.pitch
    summary = {
        "rho": cfg.rho,
        "n_theta": geom.n_theta,
        "pitch": geom.pitch,
        "t_max": geom.t_max,
        "c5": E.c5,
        "excluded_fraction": E.excluded_fraction,
        "e_rows": int(E.member.sum()),
        "counts": {k: int(getattr(cand, k).before[-1]) for k in ("L0", "L", "L1")},
        "min_slice_measure": float(slice_measures.min()) if len(rows) else 0.0,
        "empty_e_slices": int((slice_measures == 0).sum()) if len(rows) else 0,
        "candidate_file": npz_path,
    }
    _write_json(os.path.join(out, "candidate.json"), summary)
    print(
        f"L0={summary['counts']['L0']} L={summary['counts']['L']} "
        f"L1={summary['counts']['L1']} -> {npz_path}"
    )
    print(f"min |L0(theta)| over E = {summary['min_slice_measure']!r}")
    return 0


def cmd_search(cfg: RunConfig, args) -> int:
    out = _outdir(cfg)
    print(f"seed = {cfg.seed}")
    ifs, E, cand = build_pipeline(cfg)
    obstruction = hull_obstruction(ifs, cand, cfg.c1, cfg.epsilon)
    if obstruction is None:
        print("hull obstruction: not proved")
    else:
        rule = obstruction["search"]
        print(
            f"hull obstruction: proved, no draw can be accepted ({rule['source']} cell "
            f"{rule['distance']:.6g} from the invariant polygon > bound {rule['bound']:.6g})"
        )
    outcome = search_omega0(
        ifs,
        cand,
        budget=cfg.search_budget,
        seed=cfg.seed,
        mode=cfg.search_mode,
        c1=cfg.c1,
        epsilon=cfg.epsilon,
    )
    report = {
        **outcome.to_json_dict(ifs),
        "seed": cfg.seed,
        "budget": cfg.search_budget,
        "excluded_fraction": E.excluded_fraction,
        "obstruction": obstruction,
    }
    if outcome.omega0 is not None:
        report.update(_assess(cfg, ifs, E, cand, outcome.omega0))
        report["status"] = "omega0 found"
        omega0 = omega_to_json(ifs, outcome.omega0)
        omega_path = _write_json(os.path.join(out, "omega0.json"), omega0)
        print(f"omega0 found at attempt {outcome.accepted_attempt} -> {omega_path}")
    else:
        report.update(check=None, closeness=None, certified_intervals=None)
        report["status"] = "no omega0 found"
        print(f"no omega0 found (best coverage {outcome.coverage!r} after {outcome.attempts} attempts)")
    path = _write_json(os.path.join(out, "search_report.json"), report)
    print(f"report -> {path}")
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    out = _outdir(cfg)
    print(f"seed = {cfg.seed}")
    omega = _load_omega(cfg, args.omega)
    ifs, E, cand = build_pipeline(cfg)
    report = {
        "seed": cfg.seed,
        "omega_file": args.omega,
        "omega": omega_to_json(ifs, omega),
        "excluded_fraction": E.excluded_fraction,
        **_assess(cfg, ifs, E, cand, omega),
    }
    path = _write_json(os.path.join(out, "verify_report.json"), report)
    check = report["check"]
    print(f"recurrence: {check['recurred']}/{check['total']} ({check['fraction']:.6f})")
    print(f"report -> {path}")
    return 0


def cmd_certify(cfg: RunConfig, args) -> int:
    if not np.isfinite(args.theta):
        raise ConfigError(f"theta: must be finite, got {args.theta!r}")
    # the recurrence row is round(theta / pitch)
    if not np.isfinite(args.theta / cfg.geometry().pitch):
        raise ConfigError(f"theta: {args.theta!r} is too large for the theta grid")
    out = _outdir(cfg)
    omega = _load_omega(cfg, args.omega) if args.omega is not None else None
    ifs_eval = cfg.load_ifs_spec()
    try:  # the recurrence row needs a candidate; the gap certificate does not
        cand = build_pipeline(cfg)[2]
    except ConfigError as exc:
        print(f"warning: {exc}; no recurrence row", file=sys.stderr)
        cand = None
    if omega is not None:
        ifs_eval = _perturbed(ifs_eval, omega, cfg)
    (cert,) = certify_projection_intervals(ifs_eval, [args.theta], cfg.cert_resolution, cfg.word_budget)
    row = dict.fromkeys(("recurrence_interval", "recurrence_length", "recurrence_certified"))
    if cand is not None:
        (row,) = recurrence_rows(ifs_eval, cand, [args.theta], cfg.cert_resolution)
    largest = "null" if cert.largest_gap is None else repr(cert.largest_gap)
    gaps_path = os.path.join(out, "certify_gaps.csv")
    with open(gaps_path, "w", encoding="utf-8") as fh:
        fh.write("left,right,gap\n")
        for left, right in cert.gaps:
            fh.write(f"{float(left)!r},{float(right)!r},{float(right - left)!r}\n")
        if cert.interval:
            fh.write(f"# interval,{cert.interval[0]!r},{cert.interval[1]!r},{cert.length!r}\n")
        else:
            fh.write(f"# no interval,largest_gap,{largest}\n")
    report = {"seed": cfg.seed, "omega_file": args.omega, **cert.to_json_dict(), **row}
    path = _write_json(os.path.join(out, "certify_report.json"), report)
    if cert.certified:
        print(f"interval [{cert.interval[0]!r}, {cert.interval[1]!r}] length {cert.length!r}")
    else:
        gap = "no gap wider than the resolution" if cert.largest_gap is None else f"largest gap {largest}"
        print(f"no interval at resolution {cfg.cert_resolution!r}; {gap}")
    print(f"report -> {path}; gap scan -> {gaps_path}")
    return 0


def cmd_render(cfg: RunConfig, args) -> int:
    if args.size < 1:
        raise ConfigError(f"size: must be a positive integer, got {args.size!r}")
    ifs = cfg.load_ifs_spec()
    out = _outdir(cfg)
    path = os.path.join(out, "attractor.pgm")
    n = _render_pgm(ifs, cfg.rho, args.size, path, cfg.word_budget)
    print(f"raster: {n} centers -> {path}")
    return 0


_HANDLERS = {
    "dimension": cmd_dimension,
    "scan": cmd_scan,
    "build-l": cmd_build_l,
    "search": cmd_search,
    "verify": cmd_verify,
    "certify": cmd_certify,
    "render": cmd_render,
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", default=None, help="JSON run configuration")
    sp.add_argument("--ifs", default=None, help="builtin name or IFS json path (overrides config)")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--rho", type=float, default=None, help="resolution scale")
    sp.add_argument(
        "--budget",
        type=int,
        default=None,
        help="sample budget for search; stopping-word budget elsewhere",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ifsproj",
        description="Recurrent sets of lines and interval certificates for self-similar attractors",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("dimension", "scan", "build-l", "render"):
        _add_common(sub.add_parser(name))
    sp = sub.add_parser("search")
    _add_common(sp)
    sp.add_argument("--mode", choices=("iid", "per_symbol"), default=None)
    sp = sub.add_parser("verify")
    _add_common(sp)
    sp.add_argument("--omega", required=True, help="perturbation assignment json")
    sp = sub.add_parser("certify")
    _add_common(sp)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--omega", default=None, help="optional perturbation assignment json")
    sub.choices["render"].add_argument("--size", type=int, default=512, help="raster width and height")
    return p


def _config_for(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    budget_field = "search_budget" if args.command == "search" else "word_budget"
    return override(
        cfg,
        ifs=args.ifs,
        seed=args.seed,
        out=args.out,
        rho=args.rho,
        search_mode=getattr(args, "mode", None),
        **{budget_field: args.budget},
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_for(args)
        return _HANDLERS[args.command](cfg, args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
