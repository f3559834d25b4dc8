"""Brute-force numpy references for output checks."""

from __future__ import annotations

import numpy as np


def l2_min_distances(prior_means: np.ndarray, target_means: np.ndarray,
                     chunk: int = 64) -> np.ndarray:
    """For each prior row, min over targets of the Euclidean distance."""
    A = np.asarray(prior_means, dtype=np.float64)
    B = np.asarray(target_means, dtype=np.float64)
    out = np.empty(A.shape[0])
    for lo in range(0, A.shape[0], chunk):
        diff = A[lo:lo + chunk, None, :] - B[None, :, :]
        out[lo:lo + chunk] = np.sqrt((diff * diff).sum(axis=-1)).min(axis=1)
    return out
