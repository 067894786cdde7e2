"""The reports do not depend on the BLAS kernel that runs them.

OpenBLAS picks its kernels by CPU, and OPENBLAS_CORETYPE overrides the
pick. The Haswell kernels round a matrix product with fused multiply-adds,
the Prescott ones without, so any number that passes through a BLAS product
can change in its last bits from one machine to the next.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


pytestmark = pytest.mark.skipif(
    platform.machine() != "x86_64" or not _numpy_uses_openblas(),
    reason="OPENBLAS_CORETYPE selects kernels only in OpenBLAS on x86_64",
)


def _env(core: str | None) -> dict:
    """The environment of a child on this checkout's package, with
    OPENBLAS_CORETYPE=core, or unset for None (the default kernel)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    return env


def _under_both_kernels(tmp_path: Path, args: list[str], report: str) -> list[bytes]:
    """The bytes of one report that the CLI command writes under the
    default kernel and under OPENBLAS_CORETYPE=Prescott."""
    reports = []
    for core in (None, "Prescott"):
        out = tmp_path / (core or "default")
        subprocess.run(
            [sys.executable, "-m", "ifsproj.cli", *args, "--out", str(out)],
            env=_env(core),
            check=True,
            capture_output=True,
        )
        reports.append((out / report).read_bytes())
    return reports


def test_verify_report_is_kernel_independent(tmp_path):
    """`verify` on four_corner at rho 2^-4 writes the same report bytes under
    the default kernel and under OPENBLAS_CORETYPE=Prescott: the recurrence
    check, the closeness report and the certified intervals."""
    omega = tmp_path / "omega.json"
    omega.write_text(
        json.dumps(
            {
                "a": {"phi": -0.21938145353255928, "gamma": [0.6948674738744653, 0.5275492379532281]},
                "b": {"phi": -0.14695858455634697, "gamma": [-0.009129825816118098, -0.10101787042252375]},
            }
        )
    )
    args = ["verify", "--ifs", "four_corner", "--rho", repr(2.0**-4), "--seed", "1", "--omega", str(omega)]
    default, prescott = _under_both_kernels(tmp_path, args, "verify_report.json")
    assert default == prescott


def test_scan_is_kernel_independent(tmp_path):
    """`scan` on the gasket at rho 1/16 writes the same `scan.csv` bytes
    under both kernels: every row's L2 estimate and E membership."""
    args = ["scan", "--ifs", "sierpinski", "--rho", "0.0625"]
    default, prescott = _under_both_kernels(tmp_path, args, "scan.csv")
    assert default == prescott


def test_search_report_is_kernel_independent(tmp_path):
    """`search` on four_corner at rho 2^-7 writes the same report bytes
    under both kernels, the proved hull obstruction included."""
    args = ["search", "--ifs", "four_corner", "--rho", repr(2.0**-7), "--seed", "1", "--budget", "1"]
    default, prescott = _under_both_kernels(tmp_path, args, "search_report.json")
    assert default == prescott
    assert json.loads(default)["obstruction"] is not None


_SEED_11_POINTS = """
import hashlib, numpy as np
from ifsproj import attractor_points, build_perturbed_ifs, get_builtin
ifs = get_builtin("four_corner")
omega = np.array([
    [-0.028572267894108827, 0.11954477216099191, 0.8484211680474587],
    [-0.02060995794013598, 0.01568254612454223, 0.1747696576997939],
])
points = attractor_points(build_perturbed_ifs(ifs, omega, 8.0, 2.0**-7), 1e-2)
print(hashlib.sha256(np.ascontiguousarray(points).tobytes()).hexdigest())
"""


def test_attractor_points_are_kernel_independent():
    """`attractor_points` at scale 1e-2 on four_corner perturbed by the omega
    that `bench/run.py` draws at seed 11 (c1 8, rho 2^-7) gives the same
    bytes under both kernels: every point is an image of the first map's
    fixed point, which a LAPACK solve would round by the kernel."""
    digests = [
        subprocess.run(
            [sys.executable, "-c", _SEED_11_POINTS], env=_env(core), check=True, capture_output=True, text=True
        ).stdout
        for core in (None, "Prescott")
    ]
    assert digests[0] == digests[1] and len(digests[0]) > 60
