"""The traced benchmark run charges time to layers by wrapping ifsproj
functions by name (bench/traced_cli.py). A rename or a bypassed binding in
the package would leave a layer without spans; this test catches that at a
coarse rho, running the wrapper unmodified in a child process. The word
count the wrapper reads off `measure.stopping_cylinders`' result is checked
against the stopping words of the run, so a change of that function's
return shape that breaks the count fails here too. Each bench workload's
expected dominant layer must be called outside set-up, as `bench/run.py`
checks with its own `layer_stats`: a change that moves that work out of the
wrapped function would fail every traced bench run of the workload."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from ifsproj import build_perturbed_ifs, get_builtin, omega_from_json, stopping_cylinders

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "search": {"lines.renormalize", "recurrence.contains", "search.probe", "search.full"},
    "verify": {
        "measure.stopping_cylinders",
        "lines.renormalize",
        "recurrence.contains",
        "recurrence.check",
        "recurrence.certify",
    },
}


def _traced_run(tmp_path: Path, args: list[str]) -> dict:
    spans = tmp_path / f"{args[0]}_spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans), "--", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(spans.read_text())


def _span_names(dump: dict) -> set[str]:
    return {span[2] for span in dump["spans"]}


def _dominant_calls(dump: dict, workload: str) -> int:
    """Calls outside set-up of the layer that `bench/run.py` expects to
    dominate the workload, counted by its own `layer_stats`."""
    bench = runpy.run_path(str(ROOT / "bench" / "run.py"))
    dominant = bench["WORKLOADS"][workload].dominant
    return bench["layer_stats"](dump["spans"])["outside_calls"][dominant]


def test_traced_cli_reaches_every_kernel_layer(tmp_path):
    cfg = json.loads((ROOT / "configs" / "sierpinski.json").read_text())
    cfg["constants"]["rho"] = 1.0 / 16.0
    cfg["grid"].update(search_budget=5, cert_resolution=0.01)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    omega = {a: {"phi": 0.01, "gamma": [0.2, -0.1]} for a in ("a", "b")}
    (tmp_path / "omega.json").write_text(json.dumps(omega))
    common = ["--config", "config.json", "--out", "out"]

    dump = _traced_run(tmp_path, ["search", *common])
    names = _span_names(dump)
    assert EXPECTED["search"] <= names, EXPECTED["search"] - names
    assert _dominant_calls(dump, "desk-iid") > 0
    dump = _traced_run(tmp_path, ["search", *common, "--mode", "per_symbol"])
    assert _dominant_calls(dump, "desk-per-symbol") > 0
    dump = _traced_run(tmp_path, ["verify", *common, "--omega", "omega.json"])
    names = _span_names(dump)
    assert EXPECTED["verify"] <= names, EXPECTED["verify"] - names
    assert _dominant_calls(dump, "four-corner-verify") > 0
    # verify walks the stopping words twice: the system's at rho for the
    # direction scan, and the perturbed system's at cert_resolution / 2 for
    # the attractor points
    rho, c1 = cfg["constants"]["rho"], cfg["constants"]["c1"]
    ifs = get_builtin(cfg["ifs"])
    perturbed = build_perturbed_ifs(ifs, omega_from_json(ifs, omega), c1, rho)
    scales = ((ifs, rho), (perturbed, cfg["grid"]["cert_resolution"] / 2))
    words = sum(len(stopping_cylinders(s, scale)[1]) for s, scale in scales)
    assert dump["counts"]["measure.stopping_cylinders.words"] == words
