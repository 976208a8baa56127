"""Pairing of data and noise batches: exact and entropic optimal transport on squared Euclidean cost, rigid alignment, and the
group-aligned lift that shares one symmetry element per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

from .symgroup import FiniteGroupSpec, haar_rotations

MAX_EXACT = 4096


@dataclass
class CouplingPlan:
    pairs: list          # list of (data index, noise index)
    mode: str            # "exact" | "sinkhorn"
    cost: float          # total squared Euclidean cost of the pairing

    def noise_permutation(self) -> np.ndarray:
        """noise row paired with data row i, as an index array."""
        rows, cols = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2).T
        out = np.zeros(len(rows), dtype=np.int64)
        out[rows] = cols
        return out


def _pair_cost(data: np.ndarray, noise: np.ndarray, pairs) -> float:
    rows, cols = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    return float(((data[rows] - noise[cols]) ** 2).sum())


def _cost_matrix(data: np.ndarray, noise: np.ndarray) -> np.ndarray:
    d2 = ((data[:, None, :] - noise[None, :, :]) ** 2).sum(-1)
    return d2


def _sinkhorn_assign(cost: np.ndarray, n_iters: int = 200) -> list:
    """Entropic OT followed by greedy rounding with collision repair."""
    n = cost.shape[0]
    med = float(np.median(cost))
    reg = 0.05 * med if med > 0 else 1e-6
    logk = -cost / reg
    log_u = np.zeros(n)
    log_v = np.zeros(n)
    log_marg = -np.log(n)
    for _ in range(n_iters):
        # log-domain scaling keeps small regularizers from underflowing
        log_u = log_marg - logsumexp(logk + log_v[None, :], axis=1)
        log_v = log_marg - logsumexp(logk + log_u[:, None], axis=0)
    plan = np.exp(logk + log_u[:, None] + log_v[None, :])

    order = np.argsort(-plan.max(axis=1))   # most confident rows first
    taken = np.zeros(n, dtype=bool)
    assignment = np.zeros(n, dtype=np.int64)
    for i in order:
        row = np.where(taken, -np.inf, plan[i])
        j = int(np.argmax(row))
        assignment[i] = j
        taken[j] = True
    return [(i, int(assignment[i])) for i in range(n)]


def ot_pair(data: np.ndarray, noise: np.ndarray, mode: str = "exact") -> CouplingPlan:
    """Optimal-transport pairing on squared Euclidean cost.

    mode "exact" solves the assignment problem exactly (n <= 4096); "sinkhorn"
    runs 200 entropic iterations at reg = 0.05 * median cost and rounds
    greedily. Rounded plans never cost more than the identity pairing: if the
    rounding loses to it, the identity pairing is returned instead.
    """
    data = np.asarray(data, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if data.shape != noise.shape:
        raise ValueError("data/noise shape mismatch")
    n = data.shape[0]
    if mode == "exact":
        if n > MAX_EXACT:
            raise ValueError(f"exact assignment capped at {MAX_EXACT} rows, got {n}")
        cost = _cost_matrix(data, noise)
        rows, cols = linear_sum_assignment(cost)
        pairs = list(zip(rows.tolist(), cols.tolist()))
        return CouplingPlan(pairs, "exact", _pair_cost(data, noise, pairs))
    if mode == "sinkhorn":
        cost = _cost_matrix(data, noise)
        pairs = _sinkhorn_assign(cost)
        total = _pair_cost(data, noise, pairs)
        identity_cost = float(np.trace(cost))
        if total > identity_cost:
            return CouplingPlan([(i, i) for i in range(n)], "sinkhorn", identity_cost)
        return CouplingPlan(pairs, "sinkhorn", total)
    raise ValueError(f"unknown mode {mode!r}")


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


# ---------------------------------------------------------------------------
# Group-aligned lift


class RotationLift:
    """Marker for lifting with Haar-random SO(d) rotations."""

    def __init__(self, dim: int):
        self.dim = dim


def group_aligned_lift(slice_pairs, group, rng: np.random.Generator,
                       return_elements: bool = False):
    """Apply one shared random group element to each slice pair.

    slice_pairs: a (z0_batch, z1_batch) tuple of (n, d) arrays. Returns the
    lifted (z0_batch, z1_batch); with return_elements the sampled matrices
    (and indices for finite groups, else None) come along.
    """
    z0, z1 = (np.asarray(z, dtype=np.float64) for z in slice_pairs)
    if isinstance(group, FiniteGroupSpec):
        idx, lifted0, lifted1 = group.randomize(rng, z0, z1)
        mats = group.elements[idx]
    elif isinstance(group, RotationLift):
        idx = None
        mats = haar_rotations(group.dim, len(z0), rng)
        lifted0, lifted1 = (np.einsum("nij,nj->ni", mats, z) for z in (z0, z1))
    else:
        raise TypeError(f"unsupported group {type(group).__name__}")
    if return_elements:
        return (lifted0, lifted1), mats, idx
    return lifted0, lifted1
