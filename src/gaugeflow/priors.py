"""Noise priors for the canonical slice.

Two families: moment-matched Gaussians over flattened continuous states (the
KL-optimal Gaussian approximation of the slice marginal), and rank-conditioned
categorical tables for discrete per-atom features. Rank bins partition [0, 1);
evaluation interpolates linearly between adjacent bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EIG_FLOOR = 1e-8


@dataclass
class GaussianPrior:
    mean: np.ndarray
    cov: np.ndarray
    sqrt: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        self.sqrt = np.asarray(self.sqrt, dtype=np.float64)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def isotropic_prior(dim: int, scale: float = 1.0) -> GaussianPrior:
    return GaussianPrior(np.zeros(dim), scale ** 2 * np.eye(dim), scale * np.eye(dim))


def fit_gaussian(samples: np.ndarray) -> GaussianPrior:
    """Moment-matched Gaussian: empirical mean and covariance (denominator n).

    Matching first and second moments minimizes KL(data || Gaussian) over all
    Gaussians. Covariance eigenvalues are floored at 1e-8 before the symmetric
    square root, since slice-supported data is often rank-deficient.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need (n, d) samples with n >= 2")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / samples.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    cov = (vecs * np.maximum(vals, EIG_FLOOR)) @ vecs.T
    return GaussianPrior(mean, cov, sqrt_psd(cov))


def sqrt_psd(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix; negative eigenvalues count as 0."""
    return power_psd(cov, 0.5, np.inf)


def power_psd(cov: np.ndarray, p, cond: float):
    """cov ** p for a symmetric PSD matrix, by one eigendecomposition; p a
    float, or a tuple of floats for a tuple of powers from that one
    decomposition.

    Eigenvalues are first raised to at least (largest eigenvalue) / cond, and
    negative ones to at least 0, so with a finite cond the result is symmetric
    positive definite with condition number at most cond ** |p|; cond = inf
    only zeroes negative eigenvalues. A negative p needs a finite cond and a
    nonzero cov.
    """
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, vals.max(initial=0.0) / cond)
    if isinstance(p, tuple):
        return tuple((vecs * vals ** q) @ vecs.T for q in p)
    return (vecs * vals ** p) @ vecs.T


def sample_gaussian(prior, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws mean + eps @ sqrt; prior is anything with .mean, .sqrt and .dim."""
    eps = rng.standard_normal((n, prior.dim))
    return prior.mean + eps @ prior.sqrt      # sqrt is symmetric


def gaussian_logpdf(prior, x: np.ndarray) -> np.ndarray:
    """Log density at the rows of x; prior is anything with .mean, .cov and .dim."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d = prior.dim
    diff = x - prior.mean
    chol = np.linalg.cholesky(prior.cov)
    sol = np.linalg.solve(chol, diff.T)
    quad = (sol ** 2).sum(axis=0)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (quad + logdet + d * np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# Rank-conditioned categorical prior


@dataclass
class PositionalCategoricalPrior:
    """P(class | rank bin) table with additive smoothing and a base mixture.

    bin_probs has shape (K, C). eval blends the two bins straddling the query
    rank, then mixes with the base distribution: beta * base + (1 - beta) * p_r.
    """

    bin_probs: np.ndarray
    base: np.ndarray
    beta: float = 0.1

    def __post_init__(self):
        self.bin_probs = np.asarray(self.bin_probs, dtype=np.float64)
        self.base = np.asarray(self.base, dtype=np.float64)
        if self.bin_probs.ndim != 2:
            raise ValueError("bin_probs must be (K, C)")
        if self.base.shape != (self.bin_probs.shape[1],):
            raise ValueError("base must be (C,)")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")

    @property
    def n_bins(self) -> int:
        return self.bin_probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.bin_probs.shape[1]


def fit_positional(ranks, classes, n_bins: int, n_classes: int,
                   epsilon: float = 1.0, beta: float = 0.1) -> PositionalCategoricalPrior:
    """Count (rank, class) observations into K bins with additive smoothing epsilon.

    ranks in [0, 1] and class indices, one observation per entry. Ranks at
    exactly 1.0 land in the last bin.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    if ranks.shape != classes.shape or ranks.ndim != 1:
        raise ValueError(f"ranks {ranks.shape} and classes {classes.shape} must be equal 1-D")
    _check_ranks(ranks)
    bad = (classes < 0) | (classes >= n_classes)
    if bad.any():
        raise ValueError(f"class {classes[bad][0]} outside 0..{n_classes - 1}")
    counts = np.zeros((n_bins, n_classes), dtype=np.float64)
    np.add.at(counts, (np.minimum((ranks * n_bins).astype(np.int64), n_bins - 1), classes), 1.0)
    probs = (counts + epsilon) / (counts + epsilon).sum(axis=1, keepdims=True)
    base = np.full(n_classes, 1.0 / n_classes)
    return PositionalCategoricalPrior(probs, base, beta)


def _bin_blend(ranks: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per rank: the two straddling bins k0 <= k1 and the weight of k1, as a column."""
    pos = ranks * n_bins
    k0 = np.minimum(pos.astype(np.int64), n_bins - 1)
    k1 = np.minimum(k0 + 1, n_bins - 1)
    delta = np.where(k1 == k0, 0.0, pos - k0)
    return k0, k1, delta[:, None]


def _check_ranks(ranks: np.ndarray) -> None:
    bad = ~((ranks >= 0.0) & (ranks <= 1.0))
    if bad.any():
        raise ValueError(f"rank {ranks[bad][0]} outside [0, 1]")


def _positional_rows(prior: PositionalCategoricalPrior, ranks: np.ndarray) -> np.ndarray:
    k0, k1, delta = _bin_blend(ranks, prior.n_bins)
    p_r = (1.0 - delta) * prior.bin_probs[k0] + delta * prior.bin_probs[k1]
    return prior.beta * prior.base + (1.0 - prior.beta) * p_r


def eval_positional(prior: PositionalCategoricalPrior, rank: float) -> np.ndarray:
    """Class distribution at a rank: linear blend of the straddling bins,
    then beta-mixed with the base distribution."""
    ranks = np.array([rank], dtype=np.float64)
    _check_ranks(ranks)
    return _positional_rows(prior, ranks)[0]


def draw_categorical(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One class index per row of an (n, C) probability matrix.

    One uniform u per row is located on the row's cumulative sum normalized by
    its last entry, the draw Generator.choice(C, p=row) makes. The normalized
    sum ends at exactly 1 > u, so the index is at most C - 1 even where the
    float cumulative sum falls short of 1, and a class of zero probability is
    never drawn.
    """
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(probs.shape[0])
    return (cdf <= u[:, None]).sum(axis=1)


def sample_positional(prior: PositionalCategoricalPrior, ranks: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """One class per rank; same draws as rng.choice(C, p=eval_positional(r)) in turn."""
    ranks = np.asarray(ranks, dtype=np.float64)
    _check_ranks(ranks)
    return draw_categorical(_positional_rows(prior, ranks), rng)


# ---------------------------------------------------------------------------
# Rank-binned Gaussian coordinate prior (molecular aligned prior)


@dataclass
class RankBinnedGaussianPrior:
    """Per-rank-bin diagonal Gaussian over coordinates."""

    bin_means: np.ndarray     # (K, d)
    bin_stds: np.ndarray      # (K, d)

    def __post_init__(self):
        self.bin_means = np.asarray(self.bin_means, dtype=np.float64)
        self.bin_stds = np.asarray(self.bin_stds, dtype=np.float64)
        if self.bin_means.shape != self.bin_stds.shape or self.bin_means.ndim != 2:
            raise ValueError("bin_means and bin_stds must both be (K, d)")

    @property
    def n_bins(self) -> int:
        return self.bin_means.shape[0]


def fit_rank_gaussian(ranks: np.ndarray, values: np.ndarray, n_bins: int) -> RankBinnedGaussianPrior:
    """Bin coordinate rows by rank; per-bin mean and diagonal std (floored)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    d = values.shape[1]
    means = np.zeros((n_bins, d))
    stds = np.ones((n_bins, d))
    bins = np.minimum((ranks * n_bins).astype(int), n_bins - 1)
    for k in range(n_bins):
        mask = bins == k
        if mask.sum() >= 2:
            means[k] = values[mask].mean(axis=0)
            stds[k] = np.maximum(values[mask].std(axis=0), 1e-4)
        elif mask.sum() == 1:
            means[k] = values[mask][0]
    return RankBinnedGaussianPrior(means, stds)


def _rank_gaussian_rows(prior: RankBinnedGaussianPrior,
                        ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _check_ranks(ranks)
    k0, k1, delta = _bin_blend(ranks, prior.n_bins)
    mean = (1.0 - delta) * prior.bin_means[k0] + delta * prior.bin_means[k1]
    std = (1.0 - delta) * prior.bin_stds[k0] + delta * prior.bin_stds[k1]
    return mean, std


def sample_rank_gaussian(prior: RankBinnedGaussianPrior, ranks: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """One coordinate row per rank; same draws as one standard_normal(d) per rank in turn."""
    mean, std = _rank_gaussian_rows(prior, np.asarray(ranks, dtype=np.float64))
    return mean + std * rng.standard_normal(mean.shape)


# ---------------------------------------------------------------------------
# Serialization


def prior_to_dict(prior) -> dict:
    if isinstance(prior, GaussianPrior):
        return {
            "kind": "gaussian",
            "mean": prior.mean.tolist(),
            "cov": prior.cov.tolist(),
            "sqrt": prior.sqrt.tolist(),
        }
    if isinstance(prior, PositionalCategoricalPrior):
        return {
            "kind": "positional_categorical",
            "bin_probs": prior.bin_probs.tolist(),
            "base": prior.base.tolist(),
            "beta": prior.beta,
        }
    if isinstance(prior, RankBinnedGaussianPrior):
        return {
            "kind": "rank_gaussian",
            "bin_means": prior.bin_means.tolist(),
            "bin_stds": prior.bin_stds.tolist(),
        }
    raise TypeError(f"unknown prior type {type(prior).__name__}")


# prior kind -> the keys prior_to_dict writes besides "kind"
_PRIOR_KEYS = {"gaussian": ("mean", "cov", "sqrt"),
               "positional_categorical": ("bin_probs", "base", "beta"),
               "rank_gaussian": ("bin_means", "bin_stds")}


def prior_from_dict(doc: dict):
    """Inverse of prior_to_dict. A kind it does not write, or a key that
    kind does not have, is a ValueError."""
    kind = doc.get("kind")
    if kind not in _PRIOR_KEYS:
        raise ValueError(f"unknown prior kind {kind!r}")
    extra = sorted(set(doc) - {"kind", *_PRIOR_KEYS[kind]})
    if extra:
        raise ValueError(f"a {kind} prior has no keys {', '.join(extra)}")
    if kind == "gaussian":
        return GaussianPrior(np.array(doc["mean"]), np.array(doc["cov"]), np.array(doc["sqrt"]))
    if kind == "positional_categorical":
        return PositionalCategoricalPrior(
            np.array(doc["bin_probs"]), np.array(doc["base"]), float(doc["beta"]),
        )
    return RankBinnedGaussianPrior(np.array(doc["bin_means"]), np.array(doc["bin_stds"]))
