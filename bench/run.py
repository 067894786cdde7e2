"""Benchmark of the ifsproj command line over three pipeline workloads.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --smoke

Each workload runs one `ifsproj` command in a child process, one at a time
(a closed loop with a single client). A run first times `ifsproj build-l` on
the workload's config SETUP_REPEATS times (setup_s is their median), then
starts the workload command again and again until S seconds have passed; a
command is never cut short, so a run makes at least one. Every command is
checked: exit code 0, the report present and consistent with its inputs, and
its SHA-256 equal across repeats of the seed. The last line of standard
output is one JSON object with the end-to-end metrics of BENCHMARK.json.

With --trace 1 the run instead makes the untraced commands, then one command
under bench/traced_cli.py, and reports per-layer self times and work counts
from its spans (the per_layer metrics). Span dumps, layer tables and full
results go to .bench_run/<run>/.

--smoke runs every workload at a coarse rho, traced and untraced, and checks
metric names, units, the result schema and failure counting in seconds.

Inputs are generated from --seed: a config copy carrying seed, budget and
mode, and for verify an omega file. The program receives only those files and
CLI flags. Children run with thread-pool variables capped at the CPU count.
Limits: the page cache is not dropped and processes are not pinned to CPUs,
so other tenants of a shared machine can add noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SMOKE_OVERRIDES = {"constants": {"rho": 1.0 / 16.0}, "grid": {"cert_resolution": 0.01}}


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the repository root
    command: str  # "search" or "verify"
    mode: str | None = None
    budget: int | None = None
    smoke_budget: int | None = None
    omega_symbols: tuple[str, ...] = ()  # part_one of the system, for verify
    overrides: dict | None = None  # config blocks merged into the copy
    dominant: str = ""  # layer expected to dominate outside set-up

    @property
    def report(self) -> str:
        return f"{self.command}_report.json"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-iid",
            "configs/sierpinski.json",
            "search",
            mode="iid",
            budget=3000,
            smoke_budget=50,
            dominant="search.probe",
        ),
        Workload(
            "desk-per-symbol",
            "configs/sierpinski.json",
            "search",
            mode="per_symbol",
            budget=5,
            smoke_budget=4,
            dominant="search.full",
        ),
        Workload(
            "four-corner-verify",
            "configs/four_corner.json",
            "verify",
            omega_symbols=("a", "b"),
            overrides={"constants": {"rho": 2.0**-7}},
            dominant="measure.stopping_cylinders",
        ),
    )
}

SETUP_LAYERS = {"config.resolve", "measure.build_E", "recurrence.slice", "recurrence.candidate"}
KERNEL_LAYERS = {"lines.renormalize", "recurrence.contains"}
TIMED_LAYERS = (
    "cli.main",
    "config.resolve",
    "measure.build_E",
    "recurrence.slice",
    "recurrence.candidate",
    "measure.stopping_cylinders",
    "recurrence.attractor_points",
    "recurrence.certify",
    "recurrence.check",
    "search.tester_init",
    "recurrence.membership_init",
    "search.loop",
    "search.probe",
    "search.full",
    "lines.renormalize",
    "recurrence.contains",
)
CALLED_LAYERS = (
    "measure.stopping_cylinders",
    "recurrence.certify",
    "recurrence.membership_init",
    "search.probe",
    "search.full",
    "lines.renormalize",
    "recurrence.contains",
)
WORK_COUNTS = (
    "recurrence.slice.rows",
    "recurrence.candidate.cells_L1",
    "measure.stopping_cylinders.words",
    "recurrence.attractor_points.points",
    "recurrence.check.cells",
    "search.probe.points",
    "search.full.cells",
    "search.attempts",
    "lines.renormalize.points",
    "recurrence.contains.points",
)


class BenchError(Exception):
    """The benchmark cannot run here at all; no result is printed."""


# ---------------------------------------------------------------- inputs


def make_inputs(wl: Workload, seed: int, workdir: Path, smoke: bool, corrupt_omega: bool) -> list[str]:
    """Write config.json (and omega.json) into workdir; return the CLI
    arguments of the workload command."""
    cfg = json.loads((ROOT / wl.config).read_text(encoding="utf-8"))
    cfg["seed"] = seed
    cfg["out"] = "out"
    grid = cfg.setdefault("grid", {})
    if wl.command == "search":
        cfg["search_mode"] = wl.mode
        grid["search_budget"] = wl.smoke_budget if smoke else wl.budget
    for overrides in (wl.overrides or {}, SMOKE_OVERRIDES if smoke else {}):
        for block, values in overrides.items():
            cfg.setdefault(block, {}).update(values)
    (workdir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    args = [wl.command, "--config", "config.json", "--seed", str(seed)]
    if wl.command == "verify":
        eps = cfg.get("constants", {}).get("epsilon", 0.3)
        omega = draw_omega(random.Random(seed), wl.omega_symbols, eps)
        if corrupt_omega:
            omega = {a: {"phi": v["phi"]} for a, v in omega.items()}
        (workdir / "omega.json").write_text(json.dumps(omega, indent=2, sort_keys=True) + "\n")
        args += ["--omega", "omega.json"]
    return args


def draw_omega(rng: random.Random, symbols: tuple[str, ...], eps: float) -> dict:
    """phi uniform on (-eps, eps) and gamma uniform on (-1, 1)^2 per symbol."""

    def open_uniform(lo, hi):
        while True:
            x = rng.uniform(lo, hi)
            if lo < x < hi:
                return x

    return {
        a: {"phi": open_uniform(-eps, eps), "gamma": [open_uniform(-1, 1), open_uniform(-1, 1)]}
        for a in symbols
    }


# ---------------------------------------------------------------- children


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> tuple[dict, dict]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = {}
    for var in THREAD_VARS:
        current = env.get(var, "")
        value = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        env[var] = threads[var] = str(value)
    return env, threads


def run_child(argv: list[str], cwd: Path, env: dict, log: Path, timeout: float) -> Child:
    """Run one child to completion; wall time from spawn to reap, CPU time
    and peak RSS from its rusage. A child past the timeout is killed."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- checks


def check_candidate(summary: dict) -> str | None:
    c = summary["counts"]
    if not (0 < c["L0"] <= c["L"] <= c["L1"]):
        return f"candidate counts out of order: {c}"
    if summary["e_rows"] <= 0:
        return "empty direction set"
    return None


def check_report(wl: Workload, rep: dict, seed: int, cfg: dict, omega: dict | None, cand: dict | None) -> str | None:
    """Consistency of one report with the inputs that produced it."""
    if rep.get("seed") != seed:
        return f"report seed {rep.get('seed')!r} != {seed}"
    if wl.command == "search":
        budget = cfg["grid"]["search_budget"]
        if rep["mode"] != wl.mode or rep["budget"] != budget:
            return f"mode/budget echo {rep['mode']!r}/{rep['budget']!r} != {wl.mode!r}/{budget!r}"
        if not 0.0 < rep["coverage"] <= 1.0:
            return f"coverage {rep['coverage']!r} outside (0, 1]"
        if abs(rep["estimated_failure_prob"] - (1.0 - rep["coverage"])) > 1e-12:
            return "estimated_failure_prob != 1 - coverage"
        found = rep["omega0"] is not None
        if found != (rep["status"] == "omega0 found"):
            return f"status {rep['status']!r} disagrees with omega0"
        if not found and (rep["attempts"] > budget or (wl.mode == "iid" and rep["attempts"] != budget)):
            return f"{rep['attempts']} attempts for budget {budget}"
        best = rep["best_assignment"]
        eps = cfg["constants"]["epsilon"]
        if best is None or any(abs(v["phi"]) >= eps or max(map(abs, v["gamma"])) >= 1 for v in best.values()):
            return "best assignment missing or outside (-eps, eps) x (-1, 1)^2"
        return None
    chk = rep["check"]
    if rep["omega"] != omega:
        return "verify report does not echo the omega file"
    if cand is not None and chk["total"] != cand["counts"]["L"]:
        return f"checked {chk['total']} lines, candidate L has {cand['counts']['L']}"
    if not 0 < chk["recurred"] <= chk["total"] or abs(chk["fraction"] - chk["recurred"] / chk["total"]) > 1e-12:
        return f"recurrence counts inconsistent: {chk['recurred']}/{chk['total']} -> {chk['fraction']}"
    n_sample = cfg.get("grid", {}).get("n_theta_sample", 10)
    if len(rep["certified_intervals"]) != n_sample:
        return f"{len(rep['certified_intervals'])} certified directions, asked for {n_sample}"
    return None


def quality(wl: Workload, rep: dict) -> dict:
    """Result-quality figures of one report (deterministic per seed)."""
    if wl.command == "search":
        return {"best_coverage": rep["coverage"], "recurred_fraction": rep["coverage"]}
    certs = rep["certified_intervals"]
    both = sum(1 for c in certs if c["certified"] and c["recurrence_certified"])
    return {"recurred_fraction": rep["check"]["fraction"], "certified_fraction": both / len(certs)}


# ---------------------------------------------------------------- tracing


def layer_stats(spans: list) -> dict:
    """Self time and calls per layer, and each layer's stage time outside
    set-up (self time plus the kernel spans it calls), from
    (id, parent, name, start, end) spans."""
    info = {s[0]: (s[1], s[2], s[4] - s[3]) for s in spans}
    child_total = defaultdict(float)
    child_staged = defaultdict(float)
    for parent, name, dur in info.values():
        child_total[parent] += dur
        if name not in KERNEL_LAYERS:
            child_staged[parent] += dur
    in_setup: dict[int, bool] = {-1: False}

    def under_setup(i: int) -> bool:
        path = []
        while i not in in_setup:
            path.append(i)
            parent, name, _ = info[i]
            if name in SETUP_LAYERS:
                in_setup[i] = True
                break
            i = parent
        verdict = in_setup[i]
        for j in path:
            in_setup[j] = verdict
        return verdict

    self_s, total, stage_s = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, outside_calls = defaultdict(int), defaultdict(int)
    for i, (parent, name, dur) in info.items():
        self_s[name] += dur - child_total[i]
        total[name] += dur
        calls[name] += 1
        if not under_setup(i) and name not in KERNEL_LAYERS:
            stage_s[name] += dur - child_staged[i]
            outside_calls[name] += 1
    return {"self_s": self_s, "calls": calls, "total_s": total, "stage_s": stage_s, "outside_calls": outside_calls}


def per_layer_metrics(stats: dict, counts: dict, traced_wall: float, untraced_wall: float) -> dict:
    self_s, calls, total = stats["self_s"], stats["calls"], stats["total_s"]
    m = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.s"] = (self_s.get(layer, 0.0), "s")
    for layer in CALLED_LAYERS:
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for key in WORK_COUNTS:
        m[key] = (counts.get(key, 0), "count")

    def rate(n, s):
        return n / s if s > 0 else 0.0

    m["measure.stopping_cylinders.words_per_s"] = (
        rate(counts.get("measure.stopping_cylinders.words", 0), self_s.get("measure.stopping_cylinders", 0.0)),
        "1/s",
    )
    m["recurrence.contains.points_per_s"] = (
        rate(counts.get("recurrence.contains.points", 0), self_s.get("recurrence.contains", 0.0)),
        "1/s",
    )
    m["search.attempts_per_s"] = (rate(counts.get("search.attempts", 0), total.get("search.loop", 0.0)), "1/s")
    m["search.full_per_probe"] = (rate(calls.get("search.full", 0), calls.get("search.probe", 0)), "ratio")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def layer_table(stats: dict) -> str:
    rows = sorted(stats["self_s"].items(), key=lambda kv: -kv[1])
    lines = [f"{'layer':32s} {'self_s':>10s} {'total_s':>10s} {'calls':>9s} {'stage_s*':>10s}"]
    for name, s in rows:
        lines.append(
            f"{name:32s} {s:10.4f} {stats['total_s'][name]:10.4f} {stats['calls'][name]:9d} "
            f"{stats['stage_s'].get(name, 0.0):10.4f}"
        )
    lines.append("* stage_s: outside set-up, self time plus the kernel spans called")
    return "\n".join(lines)


# ---------------------------------------------------------------- runs


def environment(threads: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    def proc_field(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "thread_env": threads,
        "limits": "page cache not dropped, no CPU pinning; other tenants of a shared machine add noise",
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, corrupt_omega: bool = False
) -> dict:
    """One benchmark run. Returns {"result": <last-line object or None>,
    "details": {...}}; result is None when no command succeeded."""
    wl = WORKLOADS[name]
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    tag = f"{name}-seed{seed}" + ("-trace" if trace else "") + ("-smoke" if smoke else "")
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env, threads = child_env()
    py = sys.executable
    cli_args = make_inputs(wl, seed, workdir, smoke, corrupt_omega)
    cfg = json.loads((workdir / "config.json").read_text())
    omega = json.loads((workdir / "omega.json").read_text()) if wl.command == "verify" else None
    failures: list[str] = []  # one per failed child
    check_failures: list[str] = []  # run-level checks of the traced run
    attempted = 0

    setups, cand, cand_digest = [], None, None
    if not trace:
        for k in range(SETUP_REPEATS):
            attempted += 1
            ch = run_child(
                [py, "-m", "ifsproj.cli", "build-l", "--config", "config.json", "--out", "setup"],
                workdir, env, workdir / f"setup{k}.log", deadline - time.perf_counter(),
            )
            summary_path = workdir / "setup" / "candidate.json"
            problem = None
            if ch.rc != 0:
                problem = f"build-l exit code {ch.rc}"
            elif not summary_path.exists() or not (workdir / "setup" / "candidate.npz").exists():
                problem = "build-l wrote no candidate"
            else:
                digest = sha256(summary_path)
                summary = json.loads(summary_path.read_text())
                problem = check_candidate(summary)
                if cand_digest is not None and digest != cand_digest:
                    problem = "candidate.json differs between set-up repeats"
                cand, cand_digest = summary, digest
                summary_path.unlink()
            if problem:
                failures.append(f"setup {k}: {problem}")
            else:
                setups.append(ch)

    commands, reports, digest0 = [], [], None
    report_path = workdir / "out" / wl.report

    def one_command(argv, log):
        nonlocal digest0, attempted
        attempted += 1
        ch = run_child(argv, workdir, env, log, deadline - time.perf_counter())
        problem, rep = None, None
        if ch.rc != 0:
            problem = f"exit code {ch.rc}"
        elif not report_path.exists():
            problem = f"no {wl.report}"
        else:
            digest = sha256(report_path)
            rep = json.loads(report_path.read_text())
            report_path.unlink()
            problem = check_report(wl, rep, seed, cfg, omega, cand)
            if digest0 is None:
                digest0 = digest
            elif digest != digest0:
                problem = f"report digest {digest[:12]} != {digest0[:12]} for the same seed"
        if problem:
            failures.append(f"command {attempted}: {problem}")
            return ch, None
        return ch, rep

    t0 = time.perf_counter()
    while True:
        ch, rep = one_command([py, "-m", "ifsproj.cli", *cli_args], workdir / f"cmd{len(commands)}.log")
        commands.append(ch)
        if rep is not None:
            reports.append((ch, rep))
        now = time.perf_counter()
        longest = max(c.wall_s for c in commands)
        reserve = 1.5 * longest if trace else 0.0  # room for the traced command
        if now - t0 >= seconds or now + 1.2 * longest + reserve > deadline:
            break

    good = [c for c, _ in reports]
    details = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "environment": environment(threads),
        "inputs": {"config": cfg, "omega": omega},
        "setup": [vars(c) for c in setups],
        "commands": [vars(c) for c in commands],
        "report_sha256": digest0,
        "candidate_sha256": cand_digest,
        "failures": failures,
        "check_failures": check_failures,
    }
    result = None
    if good and (trace or setups):
        wall = statistics.median([c.wall_s for c in good])
        details["wall_s"] = {"median": wall, "max": max(c.wall_s for c in good), "n": len(good)}
        details["quality"] = quality(wl, reports[-1][1])
        if trace:
            metrics = trace_layers(wl, py, cli_args, workdir, wall, one_command, details)
        else:
            metrics = {
                "setup_s": {"value": statistics.median([c.wall_s for c in setups]), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "cpu_s": {"value": statistics.median([c.cpu_s for c in good]), "unit": "s"},
                "peak_rss_mb": {"value": max(c.peak_rss_mb for c in good), "unit": "MB"},
                "recurred_fraction": {"value": details["quality"]["recurred_fraction"], "unit": "fraction"},
            }
        correct = not failures and not check_failures
        result = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    details["attempted"] = attempted
    details["failed_frac"] = len(failures) / attempted
    details["elapsed_s"] = time.perf_counter() - started
    (workdir / "results.json").write_text(json.dumps({"result": result, "details": details}, indent=2) + "\n")
    return {"result": result, "details": details, "workdir": workdir}


def trace_layers(wl, py, cli_args, workdir, untraced_wall, one_command, details) -> dict:
    """One traced command; its report must match the untraced ones."""
    spans_path = workdir / "spans.json"
    ch, rep = one_command(
        [py, str(ROOT / "bench" / "traced_cli.py"), str(spans_path), "--", *cli_args],
        workdir / "traced.log",
    )
    failures = details["check_failures"]
    if not spans_path.exists():
        failures.append("traced run wrote no spans")
        return {}
    dump = json.loads(spans_path.read_text())
    stats = layer_stats(dump["spans"])
    table = layer_table(stats)
    (workdir / "layers.txt").write_text(table + "\n")
    print(table)
    stage = stats["stage_s"]
    dominant = max(stage, key=stage.get) if stage else None
    details["traced_wall_s"] = ch.wall_s
    details["dominant_layer"] = {"expected": wl.dominant, "found": dominant, "ok": dominant == wl.dominant}
    if not stats["outside_calls"].get(wl.dominant):
        failures.append(f"workload no longer exercises {wl.dominant} outside set-up")
    elif dominant != wl.dominant:
        print(
            f"WARNING: dominant layer outside set-up is {dominant}, expected {wl.dominant}",
            file=sys.stderr,
        )
    counts = dump["counts"]
    full_calls = stats["calls"].get("search.full", 0)
    if full_calls and counts.get("search.full.cells") != full_calls * counts.get("recurrence.candidate.cells_L1"):
        failures.append("full coverage calls did not cover the whole probe net")
    return per_layer_metrics(stats, counts, ch.wall_s, untraced_wall)


# ---------------------------------------------------------------- output


def print_summary(run: dict) -> None:
    d, result = run["details"], run["result"]
    q = d.get("quality", {})
    print(f"ifsproj benchmark: {d['workload']} seed={d['seed']} trace={int(d['trace'])}")
    if result and not d["trace"]:
        m = result["metrics"]
        w = d["wall_s"]
        print(f"  setup_s            {m['setup_s']['value']:.4f} s (median of {len(d['setup'])} build-l runs)")
        print(f"  wall_s             {w['median']:.4f} s (median; max {w['max']:.4f} s; n={w['n']})")
        print(f"  cpu_s              {m['cpu_s']['value']:.4f} s")
        print(f"  peak_rss_mb        {m['peak_rss_mb']['value']:.1f} MB")
    for key in ("best_coverage", "recurred_fraction", "certified_fraction"):
        value = q.get(key)
        print(f"  {key:18s} {'n/a' if value is None else f'{value:.6f}'} fraction")
    print(f"  failed_frac        {d['failed_frac']:.4f} ({len(d['failures'])} of {d['attempted']})")
    if "dominant_layer" in d:
        dom = d["dominant_layer"]
        print(f"  dominant layer     {dom['found']} (expected {dom['expected']}: {'ok' if dom['ok'] else 'MISMATCH'})")
    print(f"  report sha256      {d['report_sha256']}")
    for f in d["failures"] + d["check_failures"]:
        print(f"  FAILED: {f}", file=sys.stderr)
    print(f"  details -> {run['workdir'].relative_to(ROOT) / 'results.json'}")


# ---------------------------------------------------------------- smoke


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in WORKLOADS:
        for trace in (False, True):
            run = run_workload(name, seed=1, seconds=1.0, trace=trace, smoke=True)
            print_summary(run)
            expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            for p in schema_problems(run["result"], expected):
                problems.append(f"{name} trace={int(trace)}: {p}")
    bad = run_workload("four-corner-verify", seed=1, seconds=0.0, trace=False, smoke=True, corrupt_omega=True)
    d = bad["details"]
    if bad["result"] is not None or len(d["failures"]) != len(d["commands"]) or d["failed_frac"] <= 0:
        problems.append(f"malformed omega not counted as failed: {d['failures']}")
    if not all("exit code 2" in f for f in d["failures"]):
        problems.append(f"malformed omega did not exit with code 2: {d['failures']}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def schema_problems(result: dict | None, expected: dict) -> list[str]:
    if result is None:
        return ["no result"]
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        out.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        out.append(f"attempted={result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        out.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for k, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(k):
            out.append(f"{k}: {m}")
        elif isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            out.append(f"{k}: value {m['value']!r}")
    return out


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="coarse-rho self-test of the benchmark")
    args = ap.parse_args(argv)
    try:
        for needed in ("src/ifsproj/cli.py", *(w.config for w in WORKLOADS.values())):
            if not (ROOT / needed).is_file():
                raise BenchError(f"{needed} not found under {ROOT}: nothing to benchmark")
        if args.seed < 0:
            raise BenchError(f"--seed must be >= 0, got {args.seed}")
        if args.smoke:
            return smoke()
        if args.workload is None:
            raise BenchError("--workload is required")
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_summary(run)
    if run["result"] is None:
        print("bench: no command succeeded; no result", file=sys.stderr)
        return 1
    print(json.dumps(run["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
