"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def test_self_time_and_setup_exclusion():
    # (id, parent, name, start, end); spans close children-first
    spans = [
        (2, 1, "measure.stopping_cylinders", 0.0, 1.0),
        (1, 0, "measure.build_E", 0.0, 1.5),
        (4, 3, "lines.renormalize", 2.0, 2.5),
        (5, 3, "recurrence.contains", 2.5, 3.5),
        (3, 0, "search.probe", 2.0, 4.0),
        (6, 0, "measure.stopping_cylinders", 4.0, 4.2),
        (0, -1, "cli.main", 0.0, 5.0),
    ]
    st = run.layer_stats(spans)
    assert abs(st["self_s"]["search.probe"] - 0.5) < 1e-12
    assert abs(st["self_s"]["measure.stopping_cylinders"] - 1.2) < 1e-12
    assert abs(st["self_s"]["cli.main"] - (5.0 - 1.5 - 2.0 - 0.2)) < 1e-12
    # outside set-up: the probe keeps its kernel children, build_E's child is excluded
    assert abs(st["stage_s"]["search.probe"] - 2.0) < 1e-12
    assert abs(st["stage_s"]["measure.stopping_cylinders"] - 0.2) < 1e-12
    assert "measure.build_E" not in st["stage_s"]
    assert st["outside_calls"]["measure.stopping_cylinders"] == 1


def test_omega_is_seeded_and_inside_the_open_box():
    a = run.draw_omega(run.random.Random(7), ("a", "b"), 0.3)
    assert a == run.draw_omega(run.random.Random(7), ("a", "b"), 0.3)
    assert a != run.draw_omega(run.random.Random(8), ("a", "b"), 0.3)
    for v in a.values():
        assert abs(v["phi"]) < 0.3 and all(abs(g) < 1 for g in v["gamma"])


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    stats = run.layer_stats([(0, -1, "cli.main", 0.0, 1.0)])
    emitted = run.per_layer_metrics(stats, {}, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in emitted.items()}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_smoke():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")
