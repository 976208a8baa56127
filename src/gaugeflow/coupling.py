"""Pairing of data and noise batches: exact optimal transport on squared
Euclidean cost and the linear OT-probability anneal.

`ot_pair` solves the assignment problem on a shifted cost. With x and y a
data and a noise row, mx and my the means of their sets, and A any symmetric
positive-definite matrix,

    || (x - mx) A^1/2 - (y - my) A^-1/2 ||^2  =  ||x - y||^2 - f(x) - g(y),

where f(x) = |x|^2 - (x - mx) A (x - mx)' - 2 x.my plus a constant and g
likewise. Every assignment pays each f(x_i) and each g(y_j) exactly once, so
the shift moves every assignment's total by the same amount and the optimal
assignment is the one of the plain cost, whatever A is. A is chosen as the
Monge map between Gaussian fits of the two sets, which makes f and g those
fits' Kantorovich potentials: the shifted cost is then close to zero along
the optimal pairing, and the assignment solver, which starts from zero dual
potentials, has little left to do. The choice of A moves only the solve
time; ties between identical rows may be broken differently.

Group-aligned lifts, which share one symmetry element per pair, are the
`randomize` method of the group classes in `symgroup`.

`scipy.optimize` and `scipy.spatial` are imported inside `ot_pair`, on its
first call, so importing this module loads numpy only.
"""

from __future__ import annotations

import numpy as np

from .priors import power_psd, sqrt_psd

MAX_EXACT = 4096
# largest condition number of the covariances' floors and of A: A^1/2 and
# A^-1/2 then cancel in the shifted cost's cross term to within about
# sqrt(COND_CAP) machine epsilons
COND_CAP = 1e4


def ot_pair(data: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Exact optimal-transport pairing on squared Euclidean cost (n <= MAX_EXACT).

    Returns the noise permutation: noise row perm[i] is paired with data row
    i, so noise[perm] lines up with data. The assignment is solved on the
    shifted cost of the module docstring: both sets are centred on their own
    means, and A is the Gaussian Monge map
    Sx^-1/2 (Sx^1/2 Sy Sx^1/2)^1/2 Sx^-1/2 between their covariances Sx and
    Sy. Each covariance's eigenvalues are floored at its largest over
    COND_CAP, so rank-deficient sets (n <= d, collinear or repeated rows)
    still give a finite A, and A's own spectrum is clamped to condition
    number COND_CAP, which bounds the rounding the shift adds. A set without
    spread gives A = I; n <= 1 returns the identity pairing without a solve.

    Inputs must be 2-D arrays of one shape with finite entries; anything else
    is a ValueError naming the problem.
    """
    data = np.asarray(data, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if data.ndim != 2 or noise.ndim != 2:
        raise ValueError(f"data and noise must be 2-D (rows, dim) arrays, "
                         f"got shapes {data.shape} and {noise.shape}")
    if data.shape != noise.shape:
        raise ValueError(f"data/noise shape mismatch: {data.shape} vs {noise.shape}")
    n = data.shape[0]
    if n > MAX_EXACT:
        raise ValueError(f"exact assignment capped at {MAX_EXACT} rows, got {n}")
    if not (np.isfinite(data).all() and np.isfinite(noise).all()):
        raise ValueError("data and noise must hold finite numbers only")
    if n <= 1:
        return np.arange(n)
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    x = data - data.mean(axis=0)
    y = noise - noise.mean(axis=0)
    root, inv_root = _monge_roots(x, y)
    return linear_sum_assignment(cdist(x @ root, y @ inv_root, "sqeuclidean"))[1]


def _monge_roots(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A^1/2, A^-1/2) for the Gaussian Monge map A from centred x to centred
    y, with the floors and clamp of `ot_pair`; identities when either set has
    no spread (or a spread that overflows). Three eigendecompositions: one
    gives Sx^1/2 and Sx^-1/2, one the inner square root, one A^1/2 and A^-1/2."""
    sx, sy = x.T @ x, y.T @ y              # a common 1/n cancels in A
    if not all(0.0 < np.trace(s) < np.inf for s in (sx, sy)):
        eye = np.eye(x.shape[1])
        return eye, eye
    rx, rx_inv = power_psd(sx, (0.5, -0.5), COND_CAP)
    a = rx_inv @ sqrt_psd(rx @ sy @ rx) @ rx_inv
    return power_psd(a, (0.5, -0.5), COND_CAP)


def ot_probability(epoch: int, max_epochs: int) -> float:
    """Linear anneal from 1 to 0: max(0, 1 - epoch / max_epochs)."""
    if max_epochs <= 0:
        raise ValueError("max_epochs must be positive")
    return max(0.0, 1.0 - epoch / max_epochs)
