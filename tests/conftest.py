import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ifsproj import RunConfig, build_pipeline


@pytest.fixture(scope="session")
def desk():
    """Full Sierpinski pipeline at the default desk-scale constants.

    Shared by the measure/recurrence module tests and the acceptance
    criteria; takes a few seconds to build once.
    """
    cfg = RunConfig(ifs="sierpinski")
    ifs, sp, E, cand = build_pipeline(cfg)
    return SimpleNamespace(cfg=cfg, ifs=ifs, sp=sp, geom=cand.geom, E=E, cand=cand)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def traced_peak():
    """A function that runs fn and returns its result and the peak bytes
    numpy and Python allocated during it."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
