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


def _under_both_kernels(tmp_path: Path, args: list[str], report: str) -> list[bytes]:
    """The bytes of one report that the CLI command writes under the
    default kernel and under OPENBLAS_CORETYPE=Prescott."""
    reports = []
    for core in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = tmp_path / (core or "default")
        subprocess.run(
            [sys.executable, "-m", "ifsproj.cli", *args, "--out", str(out)],
            env=env,
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
