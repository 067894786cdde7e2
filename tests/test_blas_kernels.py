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


@pytest.mark.skipif(
    platform.machine() != "x86_64" or not _numpy_uses_openblas(),
    reason="OPENBLAS_CORETYPE selects kernels only in OpenBLAS on x86_64",
)
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
    reports = []
    for core in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = tmp_path / (core or "default")
        args = ["verify", "--ifs", "four_corner", "--rho", repr(2.0**-4), "--seed", "1"]
        subprocess.run(
            [sys.executable, "-m", "ifsproj.cli", *args, "--omega", str(omega), "--out", str(out)],
            env=env,
            check=True,
            capture_output=True,
        )
        reports.append((out / "verify_report.json").read_bytes())
    assert reports[0] == reports[1]
