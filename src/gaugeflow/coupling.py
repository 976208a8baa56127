"""Pairing of data and noise batches: exact optimal transport on squared
Euclidean cost, rigid alignment, and the linear OT-probability anneal.

Group-aligned lifts, which share one symmetry element per pair, are the
`randomize` method of the group classes in `symgroup`.

`scipy.optimize` is imported inside `ot_pair`, on its first call, so importing
this module loads numpy only.
"""

from __future__ import annotations

import numpy as np

MAX_EXACT = 4096


def ot_pair(data: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Exact optimal-transport pairing on squared Euclidean cost (n <= MAX_EXACT).

    Returns the noise permutation: noise row perm[i] is paired with data row
    i, so noise[perm] lines up with data.
    """
    data = np.asarray(data, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if data.shape != noise.shape:
        raise ValueError("data/noise shape mismatch")
    n = data.shape[0]
    if n > MAX_EXACT:
        raise ValueError(f"exact assignment capped at {MAX_EXACT} rows, got {n}")
    from scipy.optimize import linear_sum_assignment

    cost = ((data[:, None, :] - noise[None, :, :]) ** 2).sum(-1)
    return linear_sum_assignment(cost)[1]


def kabsch_align(target: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best rotation R (det +1) minimizing ||target - source @ R.T||_F.

    Returns (R, aligned) with aligned = source @ R.T. Both inputs are used
    as-is; center them first when translation should not leak into R.
    """
    target = np.asarray(target, dtype=np.float64)
    source = np.asarray(source, dtype=np.float64)
    if target.shape != source.shape:
        raise ValueError("shape mismatch")
    m = target.T @ source               # maximize tr(R m)
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1.0] * (m.shape[0] - 1) + [d]) @ vt
    return r, source @ r.T


def ot_probability(epoch: int, max_epochs: int) -> float:
    """Linear anneal from 1 to 0: max(0, 1 - epoch / max_epochs)."""
    if max_epochs <= 0:
        raise ValueError("max_epochs must be positive")
    return max(0.0, 1.0 - epoch / max_epochs)
