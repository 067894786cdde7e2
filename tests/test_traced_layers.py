"""The traced benchmark run charges time to layers by wrapping ifsproj
functions by name (bench/traced_cli.py). A rename or a bypassed binding in
the package would leave a layer without spans; this test catches that at a
coarse rho, running the wrapper unmodified in a child process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "search": {"lines.renormalize", "recurrence.contains", "search.probe", "search.full"},
    "verify": {
        "lines.renormalize",
        "recurrence.contains",
        "recurrence.check",
        "recurrence.certify",
    },
}


def _traced_spans(tmp_path: Path, args: list[str]) -> set[str]:
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
    return {span[2] for span in json.loads(spans.read_text())["spans"]}


def test_traced_cli_reaches_every_kernel_layer(tmp_path):
    cfg = json.loads((ROOT / "configs" / "sierpinski.json").read_text())
    cfg["constants"]["rho"] = 1.0 / 16.0
    cfg["grid"].update(search_budget=5, cert_resolution=0.01)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    omega = {a: {"phi": 0.01, "gamma": [0.2, -0.1]} for a in ("a", "b")}
    (tmp_path / "omega.json").write_text(json.dumps(omega))
    common = ["--config", "config.json", "--out", "out"]

    names = _traced_spans(tmp_path, ["search", *common])
    assert EXPECTED["search"] <= names, EXPECTED["search"] - names
    names = _traced_spans(tmp_path, ["verify", *common, "--omega", "omega.json"])
    assert EXPECTED["verify"] <= names, EXPECTED["verify"] - names
