"""The boolean-grid dilation, kept as a test oracle for the run dilation
`ifsproj.recurrence._dilate` that `build_candidate` uses for L and L1.

This route shares no step with it: it pads the grid with its mirrored end
rows and runs scipy's one-dimensional maximum filter along each axis, where
the run route copies and widens runs and merges them.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import maximum_filter1d


def _dilate_wrapped(mask: np.ndarray, k: int) -> np.ndarray:
    """Sup-metric dilation by k cells; the theta axis wraps with t negated."""
    if k <= 0:
        return mask.copy()
    padded = np.concatenate([mask[-k:, ::-1], mask, mask[:k, ::-1]], axis=0).view(np.uint8)
    padded = maximum_filter1d(padded, size=2 * k + 1, axis=0, mode="constant")
    out = maximum_filter1d(padded[k:-k], size=2 * k + 1, axis=1, mode="constant")
    return out.astype(bool)
