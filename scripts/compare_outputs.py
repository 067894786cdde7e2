"""Run a fixed set of ifsproj commands against two source trees and compare
what they write.

Usage: python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--work DIR]
                                          [--new-kernel CORETYPE]

OLD_SRC and NEW_SRC are directories holding an `ifsproj` package (a
checkout's `src/`). Every command runs once per tree, with that tree first on
PYTHONPATH and the configs of this checkout. With `--new-kernel CORETYPE`
the NEW_SRC side runs with OPENBLAS_CORETYPE=CORETYPE (for example
Prescott, whose kernels round a product without fused multiply-adds), and
the OLD_SRC side with the environment as it is, so
`compare_outputs.py src src --new-kernel Prescott` checks in one run that no
output depends on the BLAS kernel. The commands:

- `build-l` on configs/sierpinski.json, configs/four_corner.json and
  four_corner at rho 2^-7;
- `scan` on configs/sierpinski.json;
- `search` on configs/sierpinski.json at seed 1: iid with budget 300, and
  per_symbol with budget 5 and with budget 120, whose hill climb stalls and
  restarts from a fresh draw at attempt 116;
- `search` iid on configs/sierpinski.json at seed 2, budget 1000: 15 full
  blocks of 64 iid draws and a partial one of 40, so that a probe flag
  flipped in any of them would change the best assignment;
- `search` iid on four_corner at rho 2^-7, seed 1, budget 200: 3 full blocks
  of 64 iid draws and a partial one of 8, on a second probe net;
- `search` per_symbol on four_corner at rho 2^-7, seed 1, budget 150, a hill
  climb on that second probe net;
- `search` iid on configs/sierpinski.json with the gasket's maps given as an
  IFS file whose part_one lists b before a, out of alphabet order, seed 1,
  budget 200: each draw's numbers go to the part_one symbols in the order
  the file lists them;
- `verify` on four_corner at rho 2^-7, seed 1, with the omega that
  `bench/run.py` draws for seed 1;
- `verify` on configs/sierpinski.json (the desk run, whose check slack of
  2.0000003 pitches is not a whole number of cells), seed 1, with the omega
  that `bench/run.py`'s `draw_omega` draws at seed 1 for the gasket's
  part_one;
- `verify` on configs/sierpinski.json with the gasket given as the IFS file
  whose part_one lists b before a, seed 1, with the omega that `draw_omega`
  draws at seed 1 for (b, a): the omega file's symbols go to the row's
  columns in part_one order, not alphabet order;
- `certify` at theta 0.7854 on the same system, with and without that
  omega, and with it at theta 3.9270 (0.7854 + pi), which reads its
  recurrence row a half-turn away and reports that row's interval with t
  negated.
- `certify` at theta 0.01 on four_corner at rho 2^-7, unperturbed: its
  sample offsets lie so densely that the largest gap is about 0.005
  resolutions, which the certificate reports as null (no gap wider than
  the resolution).
- `render` on configs/sierpinski.json: `attractor.pgm`, the stopping-word
  centers of `measure.stopping_cylinders` drawn as a raster, at the
  default 512 pixels and with `--size 64`, the raster size's one setting.
- `build-l`, `search` (iid, seed 1, budget 200), `verify` (seed 1, with
  the four_corner omega above, drawn for part_one (a, b)) and `certify` (at
  theta 4.0, past pi, so its recurrence row is read a half-turn away with
  t negated, with the same omega) at rho 2^-5 on a turned and reflected
  four-corner set of ratio 1/3, the only commands whose system has a
  rotated or reflected map: a turns by a quarter turn and moves by
  (1/3, 0), b moves by (2/3, 0), c by (0, 2/3), and d reflects and moves
  by (2/3, 1). The other constants are those of configs/four_corner.json.
- `certify` at theta 0 and at theta 0.2, rho 2^-5, on C3 = C x C, the
  four-corner set of ratio 1/3 with the maps at the corners, unperturbed:
  at theta 0 its projection is the middle-thirds Cantor set, which no
  certificate covers (the `# no interval` trailer and 63 wide gaps); at
  0.2 the projection is an interval with one wide gap in its sample.
  The other constants are those of configs/four_corner.json.
- `verify` (seed 1, with the four_corner omega above) and `certify` (at
  theta 0.7854, unperturbed) at rho 2^-5 on a set of unequal ratios, the
  only commands whose stopping words have unequal lengths: a and b of
  ratio 1/2 at (0, 0) and (1/2, 0), c and d of ratio 1/4 at (0, 3/4) and
  (3/4, 3/4) (dimension 1.4500; the open unit square test holds). The
  other constants are those of configs/four_corner.json.
- `certify` at theta atan(1/2) on configs/cantor_dust.json with
  `grid.cert_resolution` 1e-5: its 4^9 stopping words are fewer than its
  buckets, so the certificate's walk runs unpruned, and the projection is
  an interval of length 3/sqrt 5.
- `certify` at theta 0.7 on configs/four_corner.json with
  `grid.cert_resolution` 2.5e-4 and `grid.word_budget` 4^13: the walk is
  pruned after the first leaves of the 4^7 prefixes, each extended six
  letters deep.

Outputs are compared as follows: `.npz` files by their unpacked arrays,
`.json` files by value with `candidate_file` and `omega_file` removed (they
name paths), and every other file by its bytes. Every differing file and
JSON key is printed, a differing JSON number with its old value, its new
value and the absolute difference, and a JSON value that is or becomes a
number or null with its old and new values. A command that exits nonzero
on either side is printed with both exit codes and, when they differ, the
last line of each side's console log. The exit status is 1 on any
difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIERPINSKI = str(ROOT / "configs" / "sierpinski.json")
FOUR_CORNER = str(ROOT / "configs" / "four_corner.json")
CANTOR_DUST = str(ROOT / "configs" / "cantor_dust.json")
FINE = ["--config", FOUR_CORNER, "--rho", repr(2.0**-7)]
OMEGA = "omega.json"  # written into the work directory, next to each output
OMEGA_DESK = "omega_sierpinski.json"
DESK_PART_ONE = ("a", "b")  # the gasket's part_one, the first ceil(3/2) symbols
TURNED = "four_corner_turned.json"  # an IFS file, written there too
TURNED_RUN = ["--config", FOUR_CORNER, "--ifs", TURNED, "--rho", repr(2.0**-5)]
C3 = "cantor_product.json"  # an IFS file, written there too
C3_RUN = ["--config", FOUR_CORNER, "--ifs", C3, "--rho", repr(2.0**-5)]
TWO_RATIO = "two_ratio.json"  # an IFS file, written there too
TWO_RATIO_RUN = ["--config", FOUR_CORNER, "--ifs", TWO_RATIO, "--rho", repr(2.0**-5)]
GASKET_B_A = "sierpinski_part_one_b_a.json"  # an IFS file, written there too
DUST_FINE_CERT = "cantor_dust_cert_1e-5.json"  # written there too
FOUR_CORNER_FINE_CERT = "four_corner_cert_2.5e-4.json"  # written there too
OMEGA_B_A = "omega_sierpinski_b_a.json"

COMMANDS = {
    "build-l-sierpinski": ["build-l", "--config", SIERPINSKI],
    "build-l-four-corner": ["build-l", "--config", FOUR_CORNER],
    "build-l-four-corner-fine": ["build-l", *FINE],
    "scan-sierpinski": ["scan", "--config", SIERPINSKI],
    "search-iid": ["search", "--config", SIERPINSKI, "--seed", "1", "--mode", "iid", "--budget", "300"],
    "search-iid-seed-2": ["search", "--config", SIERPINSKI, "--seed", "2", "--mode", "iid", "--budget", "1000"],
    "search-per-symbol": [
        "search", "--config", SIERPINSKI, "--seed", "1", "--mode", "per_symbol", "--budget", "5",
    ],
    "search-per-symbol-restart": [
        "search", "--config", SIERPINSKI, "--seed", "1", "--mode", "per_symbol", "--budget", "120",
    ],
    "search-iid-four-corner": ["search", *FINE, "--seed", "1", "--mode", "iid", "--budget", "200"],
    "search-per-symbol-four-corner": [
        "search", *FINE, "--seed", "1", "--mode", "per_symbol", "--budget", "150",
    ],
    "search-iid-part-one-b-a": [
        "search", "--config", SIERPINSKI, "--ifs", GASKET_B_A,
        "--seed", "1", "--mode", "iid", "--budget", "200",
    ],
    "verify": ["verify", *FINE, "--seed", "1", "--omega", OMEGA],
    "verify-sierpinski": ["verify", "--config", SIERPINSKI, "--seed", "1", "--omega", OMEGA_DESK],
    "verify-part-one-b-a": [
        "verify", "--config", SIERPINSKI, "--ifs", GASKET_B_A, "--seed", "1", "--omega", OMEGA_B_A,
    ],
    "certify": ["certify", *FINE, "--theta", "0.7854"],
    "certify-omega": ["certify", *FINE, "--theta", "0.7854", "--omega", OMEGA],
    "certify-half-turn": ["certify", *FINE, "--theta", "3.9270", "--omega", OMEGA],
    "certify-near-axis": ["certify", *FINE, "--theta", "0.01"],
    "render-sierpinski": ["render", "--config", SIERPINSKI],
    "render-sierpinski-size-64": ["render", "--config", SIERPINSKI, "--size", "64"],
    "build-l-turned": ["build-l", *TURNED_RUN],
    "search-iid-turned": ["search", *TURNED_RUN, "--seed", "1", "--mode", "iid", "--budget", "200"],
    "verify-turned": ["verify", *TURNED_RUN, "--seed", "1", "--omega", OMEGA],
    "certify-turned": ["certify", *TURNED_RUN, "--theta", "4.0", "--omega", OMEGA],
    "certify-c3": ["certify", *C3_RUN, "--theta", "0.0"],
    "certify-c3-tilt": ["certify", *C3_RUN, "--theta", "0.2"],
    "verify-two-ratio": ["verify", *TWO_RATIO_RUN, "--seed", "1", "--omega", OMEGA],
    "certify-two-ratio": ["certify", *TWO_RATIO_RUN, "--theta", "0.7854"],
    "certify-dust-fine": ["certify", "--config", DUST_FINE_CERT, "--theta", "0.4636476"],
    "certify-four-corner-fine": ["certify", "--config", FOUR_CORNER_FINE_CERT, "--theta", "0.7"],
}
PATH_KEYS = ("candidate_file", "omega_file")


def bench_omegas() -> dict[str, dict]:
    """The omega files by name: the omega `bench/run.py` writes for
    four-corner-verify at seed 1, and the ones its `draw_omega` draws at
    seed 1 for the gasket's part_one and for part_one (b, a)."""
    bench = runpy.run_path(str(ROOT / "bench" / "run.py"))
    wl = bench["WORKLOADS"]["four-corner-verify"]

    def draw(config: Path, symbols: tuple[str, ...]) -> dict:
        eps = json.loads(config.read_text())["constants"]["epsilon"]
        return bench["draw_omega"](random.Random(1), symbols, eps)

    return {
        OMEGA: draw(ROOT / wl.config, wl.omega_symbols),
        OMEGA_DESK: draw(Path(SIERPINSKI), DESK_PART_ONE),
        OMEGA_B_A: draw(Path(SIERPINSKI), ("b", "a")),
    }


def fine_cert_config(path: str, grid: dict) -> dict:
    """A config file of this checkout with some grid settings replaced."""
    cfg = json.loads(Path(path).read_text())
    cfg["grid"] = {**cfg.get("grid", {}), **grid}
    return cfg


def turned_four_corner() -> dict:
    """The four-corner set of ratio 1/3 with a turned map a and a reflected
    map d, as an IFS file (dimension log 4 / log 3; the open unit square
    test holds)."""
    third = 1.0 / 3.0
    return {
        "alphabet": ["a", "b", "c", "d"],
        "maps": {
            "a": {"r": third, "angle": math.pi / 2, "tx": third, "ty": 0.0},
            "b": {"r": third, "tx": 2 * third, "ty": 0.0},
            "c": {"r": third, "tx": 0.0, "ty": 2 * third},
            "d": {"r": third, "reflect": True, "tx": 2 * third, "ty": 1.0},
        },
    }


def gasket_part_one_b_a() -> dict:
    """The gasket of `ifsproj.systems.sierpinski` as an IFS file whose
    part_one is (b, a), out of alphabet order."""
    half = 0.5
    corners = {"a": (0, 0), "b": (1, 0), "c": (0, 1)}
    return {
        "alphabet": list(corners),
        "maps": {a: {"r": half, "tx": x * half, "ty": y * half} for a, (x, y) in corners.items()},
        "part_one": ["b", "a"],
    }


def cantor_product() -> dict:
    """C3 = C x C as an IFS file: four maps of ratio 1/3 that move the unit
    square into its corners."""
    third = 1.0 / 3.0
    corners = {"a": (0, 0), "b": (2, 0), "c": (0, 2), "d": (2, 2)}
    return {
        "alphabet": list(corners),
        "maps": {a: {"r": third, "tx": x * third, "ty": y * third} for a, (x, y) in corners.items()},
    }


def two_ratio() -> dict:
    """A set of two ratios as an IFS file: a and b of ratio 1/2 along the
    bottom, c and d of ratio 1/4 in the top corners."""
    maps = {"a": (0.5, 0.0, 0.0), "b": (0.5, 0.5, 0.0), "c": (0.25, 0.0, 0.75), "d": (0.25, 0.75, 0.75)}
    return {
        "alphabet": list(maps),
        "maps": {a: {"r": r, "tx": tx, "ty": ty} for a, (r, tx, ty) in maps.items()},
    }


def run_all(src: Path, work: Path, side: str, coretype: str | None = None) -> dict[str, int]:
    """Exit code of every command, run with src on PYTHONPATH (and
    OPENBLAS_CORETYPE=coretype when given); outputs go to work/side/<command>,
    console output to work/logs/<side>-<command>.log."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    (work / "logs").mkdir(exist_ok=True)
    codes = {}
    for name, args in COMMANDS.items():
        d = work / side / name
        d.mkdir(parents=True)
        print(f"[{side}] {name}", flush=True)
        with open(work / "logs" / f"{side}-{name}.log", "w", encoding="utf-8") as log:
            codes[name] = subprocess.run(
                [sys.executable, "-m", "ifsproj.cli", *args, "--out", str(d)],
                cwd=work,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            ).returncode
    return codes


def last_log_line(work: Path, side: str, name: str) -> str:
    """The last nonblank line one command wrote to its console log."""
    lines = (work / "logs" / f"{side}-{name}.log").read_text(encoding="utf-8").splitlines()
    return next((line for line in reversed(lines) if line.strip()), "(empty log)")


def json_diff(a, b, path: str) -> list[str]:
    """Key paths at which two decoded JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            p = f"{path}.{k}" if path else k
            if k not in b:
                out.append(f"{p}: only in old")
            elif k not in a:
                out.append(f"{p}: only in new")
            else:
                out += json_diff(a[k], b[k], p)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in json_diff(x, y, f"{path}[{i}]")]
    if json.dumps(a) == json.dumps(b):
        return []
    numbers = [isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)]
    if all(numbers):
        return [f"{path or '<root>'}: old {a!r} new {b!r} |delta| {abs(a - b)!r}"]
    if any(numbers) or a is None or b is None:
        return [f"{path or '<root>'}: old {json.dumps(a)} new {json.dumps(b)}"]
    return [f"{path or '<root>'}: values differ"]


def file_diff(old: Path, new: Path) -> list[str]:
    if old.suffix == ".npz":
        with np.load(old) as a, np.load(new) as b:
            out = [f"{k}: only in {'old' if k in a else 'new'}" for k in sorted(set(a) ^ set(b))]
            for k in sorted(set(a) & set(b)):
                x, y = a[k], b[k]
                if x.dtype != y.dtype or not np.array_equal(x, y):
                    out.append(f"{k}: arrays differ")
            return out
    if old.suffix == ".json":
        a, b = json.loads(old.read_text()), json.loads(new.read_text())
        for d in (a, b):
            for k in PATH_KEYS:
                d.pop(k, None)
        return json_diff(a, b, "")
    return [] if old.read_bytes() == new.read_bytes() else ["bytes differ"]


def compare(old: Path, new: Path) -> list[str]:
    """One line per differing file or key under the two output trees."""
    files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    files |= {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        if not (old / rel).exists() or not (new / rel).exists():
            out.append(f"{rel}: only in {'new' if not (old / rel).exists() else 'old'}")
            continue
        out += [f"{rel}: {d}" for d in file_diff(old / rel, new / rel)]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--work", type=Path, default=None, help="output directory (default: a new temp dir)")
    ap.add_argument(
        "--new-kernel",
        metavar="CORETYPE",
        default=None,
        help="run the NEW_SRC side with OPENBLAS_CORETYPE set to this",
    )
    args = ap.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "ifsproj" / "__init__.py").is_file():
            ap.error(f"{src} holds no ifsproj package")
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    work.mkdir(parents=True, exist_ok=True)
    inputs = {
        **bench_omegas(),
        TURNED: turned_four_corner(),
        C3: cantor_product(),
        TWO_RATIO: two_ratio(),
        GASKET_B_A: gasket_part_one_b_a(),
        DUST_FINE_CERT: fine_cert_config(CANTOR_DUST, {"cert_resolution": 1e-5}),
        FOUR_CORNER_FINE_CERT: fine_cert_config(FOUR_CORNER, {"cert_resolution": 2.5e-4, "word_budget": 4**13}),
    }
    for name, data in inputs.items():
        (work / name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    codes = {
        "old": run_all(args.old_src.resolve(), work, "old"),
        "new": run_all(args.new_src.resolve(), work, "new", args.new_kernel),
    }
    diffs = []
    for name in COMMANDS:
        old, new = codes["old"][name], codes["new"][name]
        if old or new:
            line = f"{name}: exit code old {old} new {new}"
            if old != new:
                line += "".join(f"; {side} log: {last_log_line(work, side, name)}" for side in ("old", "new"))
            diffs.append(line)
    diffs += compare(work / "old", work / "new")
    for d in diffs:
        print(d)
    print(f"{len(diffs)} difference(s); outputs in {work}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
