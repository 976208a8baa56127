"""Monte Carlo lab for variance decompositions of group-mixture flow targets.

The generative process behind every check: a finite group element G is drawn
uniformly, a slice pair (Z0, Z1) ~ q0 x q1 is drawn independently (product
coupling), the slice interpolant is Zt = (1 - t) Z0 + t Z1, and the ambient
observation is G Zt with regression target G (Z1 - Z0). Conditioning on the
ambient point splits the target variance into a within-slice part and an
orbit-ambiguity part; the lab estimates each side of that identity from the
same simulated batch and checks closed forms against the estimates.

The slice conditional mean of a Gaussian-slice system is globally linear in
the interpolant, so the k-NN estimator fits a local linear model and reads
off residual variance; a plain local mean would inflate the estimate by the
squared field slope across the neighborhood.

Both k-NN users find neighbours through one search. In one dimension the k
nearest points of a query are one contiguous window of the sorted values, so
the search sorts once and bisects every query's window start at once
(`_window_starts`), and the local linear fit reads its windows straight from
sorted copies of its inputs; in two or more dimensions it queries a k-d
tree, built unbalanced (sliding-midpoint splits) because that build is about
twice as fast and finds the same exact neighbours. The window's neighbour
sets are the tree's except for points tied at the k-th distance, where the
window keeps the lower values; the sorted distances to the k neighbours are
identical either way.
Both users gather neighbourhoods with np.take and sum them over the
neighbour axis through `_neighbour_sum`: an einsum where that axis is strided
(two or more coordinates), which adds the rows in numpy's order several times
faster, and numpy's own pairwise sum for one coordinate, where an einsum would
round differently. So every estimate is bitwise what numpy's mean and var
would give.

Each system's members are computed once, in affine form (`MemberForm`,
cached as `MixtureSystem.members`): for every group element g the whitened
residual L^-1 (g^T z - mu_t) behind log qt(g^T z), the member mean
g E[Z1 - Z0 | Zt = g^T z] and the member score g s_t(g^T z) are a (d, d)
slope and a shift, so each is one batched matmul of the ambient points with no
per-element loop or solve. The posterior functions evaluate their points in
fixed pieces of _CHUNK_ROWS rows, and the k-NN fits their neighbourhoods in
pieces of _CHUNK_QUERIES queries; `simulate` keeps only the four arrays its
callers read, and `variance_decomposition` drops each once nothing reads it.
Memory therefore scales with the kept simulation arrays only, not with the
posterior temporaries or the gathered neighbourhoods.

Importing the lab loads numpy only. The two scipy submodules it uses load on
first use, inside the branch that needs them: `scipy.spatial` for the k-d tree
of a search in two or more dimensions (`_nearest`), and `scipy.special` for the
normal CDF and Kolmogorov distribution of the KS tests in `lift_independence`
(`_ks_normal_pvalue`). `scipy.stats` is not loaded: on top of `scipy.spatial`
and `scipy.optimize` its import alone adds about 23 MB of resident memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np

from . import priors, symgroup
from .symgroup import FiniteGroupSpec

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

MIN_MC_SAMPLES = 1000           # fewest samples a k-NN variance estimate runs on


# ---------------------------------------------------------------------------
# Systems


def _as_spd(cov, dim: int) -> np.ndarray:
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim == 0:
        cov = float(cov) * np.eye(dim)
    if cov.shape != (dim, dim):
        raise ValueError(f"covariance must be ({dim}, {dim})")
    cov = 0.5 * (cov + cov.T)
    if np.linalg.eigvalsh(cov).min() <= 0:
        raise ValueError("covariance must be positive definite")
    return cov


@dataclass
class SliceGaussian:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).ravel()
        self.cov = _as_spd(self.cov, len(self.mean))

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def sqrt(self) -> np.ndarray:
        return priors.sqrt_psd(self.cov)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return priors.sample_gaussian(self, n, rng)


@dataclass
class SlicePoint:
    """Degenerate slice data distribution concentrated at one point."""

    point: np.ndarray

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=np.float64).ravel()

    @property
    def dim(self) -> int:
        return len(self.point)

    @property
    def mean(self) -> np.ndarray:
        return self.point

    @property
    def cov(self) -> np.ndarray:
        return np.zeros((self.dim, self.dim))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n copies of the point; draws nothing from rng."""
        return np.tile(self.point, (n, 1))


@dataclass(frozen=True)
class MixtureSystem:
    """A group mixture over a slice pair at time t. Frozen, so the member form
    cached on first use always describes the system's own fields."""

    group: FiniteGroupSpec
    q0: object                  # SliceGaussian | SlicePoint
    q1: SliceGaussian
    t: float

    def __post_init__(self):
        if not 0.0 < self.t <= 1.0:
            raise ValueError("t must lie in (0, 1]")
        if not isinstance(self.q1, SliceGaussian):
            raise TypeError("q1 must be a SliceGaussian")
        if not (self.group.dim == self.q0.dim == self.q1.dim):
            raise ValueError("group and distribution dimensions disagree")

    @property
    def dim(self) -> int:
        return self.group.dim

    @cached_property
    def members(self) -> "MemberForm":
        """The affine member form, built on first use (see MemberForm)."""
        return MemberForm.of(self)


def trivial_group(dim: int) -> FiniteGroupSpec:
    return FiniteGroupSpec(np.eye(dim)[None])


def signflip_system(t: float = 0.5) -> MixtureSystem:
    """1-D two-copy system: point data at +1, standard normal noise."""
    return MixtureSystem(symgroup.sign_flip_group(), SlicePoint([1.0]),
                         SliceGaussian(np.zeros(1), np.eye(1)), t)


def c4_system() -> MixtureSystem:
    """C4 system on R^2 at t = 0.5 with the slice blob N((2, 0), 0.3^2 I)."""
    return MixtureSystem(symgroup.c4_group(),
                         SliceGaussian(np.asarray((2.0, 0.0)), 0.3 ** 2 * np.eye(2)),
                         SliceGaussian(np.zeros(2), np.eye(2)), 0.5)


def s3_system() -> MixtureSystem:
    """Coordinate-permutation system on R^3 at t = 0.5, asymmetric slice blob."""
    return MixtureSystem(symgroup.permutation_matrix_group(3),
                         SliceGaussian(np.array([1.2, 0.3, -1.5]), 0.09 * np.eye(3)),
                         SliceGaussian(np.zeros(3), np.eye(3)), 0.5)


def random_gaussian_system(rng: np.random.Generator) -> MixtureSystem:
    """Random Gaussian-slice system over one of the three stock groups."""
    group = [symgroup.sign_flip_group(), symgroup.c4_group(),
             symgroup.permutation_matrix_group(3)][rng.integers(0, 3)]
    d = group.dim

    def spd():
        a = rng.standard_normal((d, d))
        return a @ a.T / d + 0.1 * np.eye(d)

    return MixtureSystem(
        group,
        SliceGaussian(rng.normal(0.0, 2.0, d), spd()),
        SliceGaussian(rng.normal(0.0, 1.0, d), spd()),
        float(rng.uniform(0.2, 0.8)),
    )


# ---------------------------------------------------------------------------
# Closed forms


def slice_time_marginal(system: MixtureSystem) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of Zt = (1 - t) Z0 + t Z1 on the slice."""
    t = system.t
    mean = (1.0 - t) * system.q0.mean + t * system.q1.mean
    cov = (1.0 - t) ** 2 * system.q0.cov + t ** 2 * system.q1.cov
    return mean, cov


def _path_cross_cov(system: MixtureSystem) -> np.ndarray:
    """Cov(Z1 - Z0, Zt) = t S1 - (1 - t) S0 under the product coupling."""
    return system.t * system.q1.cov - (1.0 - system.t) * system.q0.cov


def _slice_gain(system: MixtureSystem) -> np.ndarray:
    """K = C St^-1, the slope of the slice conditional mean."""
    _, s_t = slice_time_marginal(system)
    return np.linalg.solve(s_t, _path_cross_cov(system).T).T


def slice_conditional_mean(system: MixtureSystem, z_slice: np.ndarray) -> np.ndarray:
    """E[Z1 - Z0 | Zt = z] on the slice, affine in z."""
    z_slice = np.atleast_2d(np.asarray(z_slice, dtype=np.float64))
    mu_t, _ = slice_time_marginal(system)
    mu_delta = system.q1.mean - system.q0.mean
    return mu_delta + (z_slice - mu_t) @ _slice_gain(system).T


def slice_conditional_variance(system: MixtureSystem) -> float:
    """Total conditional variance tr Var(Z1 - Z0 | Zt); constant over the slice."""
    mu_t, s_t = slice_time_marginal(system)
    c = _path_cross_cov(system)
    total = system.q0.cov + system.q1.cov - c @ np.linalg.solve(s_t, c.T)
    return float(np.trace(total))


def gaussian_condvar(cov0, cov1, t: float) -> float:
    """Closed-form tr Var(Z1 - Z0 | Zt) for a Gaussian pair, via the Z0 route.

    Uses Z1 - Z0 = (Zt - Z0) / t, so the value is tr(S0 - (1-t)^2 S0 St^-1 S0)
    / t^2. Scalars are promoted to 1x1 matrices; (1, 1, 0.5) gives exactly 2.
    """
    cov0 = np.atleast_2d(np.asarray(cov0, dtype=np.float64))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=np.float64))
    s_t = (1.0 - t) ** 2 * cov0 + t ** 2 * cov1
    inner = cov0 - (1.0 - t) ** 2 * cov0 @ np.linalg.solve(s_t, cov0)
    return float(np.trace(inner)) / t ** 2


@dataclass(frozen=True)
class MemberForm:
    """Each group element's member quantities as affine maps of the ambient
    point z, stacked over the M elements: rows of z times an (M, d, d) slope
    plus a shift give (M, n, d) arrays in one batched matmul.

    - whitened residual L^-1 (g^T z - mu_t) = z W_g - L^-1 mu_t, with
      W_g = (L^-1 g^T)^T and L the Cholesky factor of St; its squared norm
      and logdet = log det St give log qt(g^T z);
    - member mean m_g(z) = g E[Z1 - Z0 | Zt = g^T z] = z A_g^T + b_g, with
      A_g = g K g^T and b_g = g (mu_delta - K mu_t), K the slice gain;
    - member score g s_t(g^T z) = z B_g^T + e_g, with B_g = -g St^-1 g^T and
      e_g = g St^-1 mu_t.
    """

    whiten: np.ndarray
    whiten_shift: np.ndarray
    logdet: float
    mean: np.ndarray
    mean_shift: np.ndarray
    score: np.ndarray
    score_shift: np.ndarray

    @classmethod
    def of(cls, system: MixtureSystem) -> "MemberForm":
        g = system.group.elements
        gt = g.transpose(0, 2, 1)
        mu_t, s_t = slice_time_marginal(system)
        chol = np.linalg.cholesky(s_t)
        chol_inv = np.linalg.solve(chol, np.eye(system.dim))
        gain = _slice_gain(system)
        precision = np.linalg.inv(s_t)
        mu_delta = system.q1.mean - system.q0.mean
        return cls(
            whiten=g @ chol_inv.T,
            whiten_shift=chol_inv @ mu_t,
            logdet=2.0 * np.log(np.diag(chol)).sum(),
            mean=g @ gain.T @ gt,
            mean_shift=g @ (mu_delta - gain @ mu_t),
            score=-(g @ precision @ gt),
            score_shift=g @ (precision @ mu_t),
        )


# Rows per piece of the posterior evaluations below. A piece holds a few
# (M, rows, d) member arrays, at 2^14 rows 0.26 MB each for the sign flip and
# 2.4 MB for S3, so the battery's 10^6-point sign-flip pass and its
# 200,001-point quadrature never hold more than one piece's temporaries.
# One-core timings of ambiguity_term on the sign flip's 10^6 points (three
# rounds, best of five each): 67-97 ms in pieces of 2^14 rows, 91-111 ms at
# 2^16 and 130-169 ms in one pass. Results do not depend on it beyond rounding.
_CHUNK_ROWS = 1 << 14


def _row_chunked(fn):
    """fn(system, z) over consecutive _CHUNK_ROWS-row pieces of z, the results
    joined along their first (row) axis; a piece passes straight through."""
    @wraps(fn)
    def chunked(system: MixtureSystem, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if len(z) <= _CHUNK_ROWS:
            return fn(system, z)
        return np.concatenate([fn(system, z[s:s + _CHUNK_ROWS])
                               for s in range(0, len(z), _CHUNK_ROWS)])
    return chunked


def _member_logpdf(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """log qt(g^T z) for every group element; shape (M, n)."""
    form = system.members
    sol = z @ form.whiten - form.whiten_shift               # L^-1 (g^T z - mu_t), (M, n, d)
    quad = (sol ** 2).sum(axis=2)
    return -0.5 * (quad + form.logdet + system.dim * np.log(2.0 * np.pi))


def _member_means(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """m_g(z) = g E[Z1 - Z0 | Zt = g^T z] = z A_g^T + b_g; shape (M, n, d)."""
    form = system.members
    return z @ form.mean + form.mean_shift[:, None]


def _log_sum_exp(logq: np.ndarray) -> np.ndarray:
    """log sum_m exp(logq[m]) over the rows of an (M, n) array, as
    peak + log1p(sum of exp(logq[m] - peak) over the other rows), peak the
    column maximum (Blanchard, Higham and Higham 2021). These are the steps
    scipy.special.logsumexp (1.17) takes, in its order, so the results agree
    bitwise."""
    cols = np.arange(logq.shape[1])
    top = logq.argmax(axis=0)
    peak = logq[top, cols]
    shifted = np.exp(logq - peak)
    shifted[top, cols] = 0.0
    return np.log1p(shifted.sum(axis=0)) + peak


@_row_chunked
def mixture_logpdf(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """Log density of the ambient time marginal (1/M) sum_g qt(g^T z)."""
    return _log_sum_exp(_member_logpdf(system, z)) - np.log(system.group.order)


@_row_chunked
def posterior_responsibilities(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """P(G = g | ambient point z); shape (n, M)."""
    logq = _member_logpdf(system, z)
    return np.exp(logq - _log_sum_exp(logq)).T


@_row_chunked
def mixture_score(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """Gradient of mixture_logpdf: sum_g rho_g(z) g s_t(g^T z)."""
    form = system.members
    scores = z @ form.score + form.score_shift[:, None]     # g s_t(g^T z), (M, n, d)
    return np.einsum("nm,mnd->nd", posterior_responsibilities(system, z), scores)


def finite_difference_score(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """Central finite differences (step 1e-5) of mixture_logpdf, per coordinate."""
    eps = 1e-5
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(z)
    for j in range(z.shape[1]):
        zp, zm = z.copy(), z.copy()
        zp[:, j] += eps
        zm[:, j] -= eps
        out[:, j] = (mixture_logpdf(system, zp) - mixture_logpdf(system, zm)) / (2 * eps)
    return out


@_row_chunked
def ambient_conditional_mean(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """Ideal ambient regression field, the responsibility-weighted member mean."""
    rho = posterior_responsibilities(system, z)
    return np.einsum("nm,mnd->nd", rho, _member_means(system, z))


@_row_chunked
def ambiguity_term(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """Orbit-ambiguity variance sum_g rho_g ||m_g - m_bar||^2 at each z."""
    rho = posterior_responsibilities(system, z)
    mg = _member_means(system, z)
    mbar = np.einsum("nm,mnd->nd", rho, mg)
    sq = ((mg - mbar[None]) ** 2).sum(axis=2)    # (M, n)
    return np.einsum("nm,mn->n", rho, sq)


@_row_chunked
def collision_lower_bound(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """(D^2 / 2)(1 - sum_g rho_g^2) with D the narrowest member-mean gap at z.

    Lower-bounds the ambiguity term through its pairwise expansion
    sum_{g,h} rho_g rho_h ||m_g - m_h||^2 / 2 >= D^2 (1 - sum rho^2) / 2, with
    equality for two group elements; a trivial group gives zero.
    """
    if system.group.order == 1:
        return np.zeros(z.shape[0])
    rho = posterior_responsibilities(system, z)
    mg = _member_means(system, z)
    first, second = np.triu_indices(system.group.order, 1)
    gap2 = ((mg[first] - mg[second]) ** 2).sum(axis=2).min(axis=0)
    return 0.5 * gap2 * (1.0 - (rho ** 2).sum(axis=1))


def collision_bound(system: MixtureSystem, n_mc: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Ambiguity and its collision lower bound at n_mc simulated ambient points.

    Both sides are closed forms in the posterior; only the point cloud is
    Monte Carlo. Returns (ambiguity values, bound values), elementwise
    ambiguity >= bound up to floating-point slack.
    """
    z = simulate(system, n_mc, rng)["z"]
    return ambiguity_term(system, z), collision_lower_bound(system, z)


# ---------------------------------------------------------------------------
# Simulation


def simulate(system: MixtureSystem, n: int, rng: np.random.Generator) -> dict:
    """Draw the generative batch under the product coupling.

    Draws Z0 ~ q0, then Z1 ~ q1, then one uniform group element G per row
    (the group's `randomize`). Returns the slice pair z_slice = Zt and
    u = Z1 - Z0, and the ambient pair z = G z_slice, velocity = G u. The
    endpoints and element indices are not kept: no caller reads them, and
    dropping the endpoints before the group draw lowers the peak.
    """
    z0 = system.q0.draw(n, rng)
    z1 = system.q1.draw(n, rng)
    z_slice = (1.0 - system.t) * z0 + system.t * z1
    u = z1 - z0
    del z0, z1
    _, z, velocity = system.group.randomize(rng, z_slice, u)
    return {"z_slice": z_slice, "u": u, "z": z, "velocity": velocity}


# ---------------------------------------------------------------------------
# Nonparametric estimators


def _window_starts(xs: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Start of each query's k-nearest window in the sorted values xs.

    The k nearest points of q are xs[s:s + k] for the smallest start s in
    [0, n - k] with q - xs[s] <= xs[s + k] - q (the point dropped from the
    left is no nearer than the one the next window adds on the right), the
    last start n - k qualifying always. That difference is non-increasing in
    s, so one bisection over all queries finds every start in about log2(n)
    rounds. Ties at the k-th distance go to the lower values.
    """
    n = len(xs)
    lo = np.zeros(len(q), dtype=np.int64)
    hi = np.full(len(q), n - k, dtype=np.int64)
    while (lo < hi).any():                      # the start lies in [lo, hi] and qualifies
        mid = (lo + hi) // 2
        end = mid + k                           # == n only where lo == hi == n - k
        left = (end == n) | (q - xs[mid] <= np.take(xs, end, mode="clip") - q)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid + 1)
    return lo


def _nearest(x: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Row indices into x of the k nearest points to each query; shape (q, k).

    d == 1: the k nearest points of a query are one window of the sorted
    values, found by `_window_starts`; ties at the k-th distance go to the
    lower values. `knn_local_linear_variance` reads its 1-D windows from
    sorted copies instead of through these index rows.
    d >= 2: a k-d tree query. The tree is built unbalanced, by scipy's
    sliding-midpoint rule (Maneewongvatana and Mount 1999) instead of median
    splits, with node boxes not shrunk to their points: that build takes about
    half as long (15-18 ms against 29-31 ms on 1e5 points in 2-D or 3-D), the
    queries take as long, and the exact neighbours are the same; only the
    order of points tied at one distance may differ.
    Non-finite points in x raise ValueError.
    """
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if x.shape[1] > 1:
        from scipy.spatial import cKDTree

        tree = cKDTree(x, balanced_tree=False, compact_nodes=False)
        return tree.query(queries, k=k, workers=-1)[1]
    order = np.argsort(x[:, 0])
    starts = _window_starts(x[order, 0], queries[:, 0], k)
    return order[starts[:, None] + np.arange(k)]


def _neighbour_sum(a: np.ndarray) -> np.ndarray:
    """Sum of gathered neighbourhoods (..., k, p) over their k axis, kept as a
    length-1 axis, rounding exactly as a.sum(axis=-2) and so as the means and
    variances numpy builds on it. For p >= 2 that axis is strided: numpy then
    adds the k rows one after another, and so does the einsum, about 5x
    faster. For p == 1 it is contiguous: numpy sums it pairwise, which the
    einsum does not, so there the sum stays numpy's."""
    if a.shape[-1] == 1:
        return a.sum(axis=-2, keepdims=True)
    return np.einsum("...kp->...p", a)[..., None, :]


# Queries per piece of the local linear fits: a piece gathers (queries, k, d)
# inputs and (queries, k, p) outputs, 256 x 317 x 2 floats (1.3 MB) each for
# the battery's 2-D fits, instead of the whole (n_query, k, .) blocks. One-core
# timings of one battery fit of 2000 queries, tree query excluded, in pieces
# of 64 / 256 / 1024 / 2000 queries: 1-D (k = 1000) 27-28 / 30 / 31-32 /
# 39-42 ms, 2-D (k = 317) 22 / 21-22 / 21-22 / 22-23 ms, 3-D (k = 317) 31-37 /
# 30 / 31-33 / 39-44 ms. Every piece size gives bitwise the same per-query
# values.
_CHUNK_QUERIES = 256


def knn_local_linear_variance(x: np.ndarray, y: np.ndarray, rng: np.random.Generator,
                              n_query: int = 2000, k: int | None = None,
                              n_boot: int = 200) -> tuple[float, float, np.ndarray]:
    """Conditional variance tr Var(y | x) by local linear residuals.

    At each of n_query subsampled points a linear model is fit over the k
    nearest neighbours and the residual variance (dof-corrected, summed over
    output coordinates) is recorded; the estimate is the mean and the stderr
    a bootstrap over query points. Exactly unbiased when E[y|x] is affine.
    The bootstrap treats the query points as independent, but their
    neighbourhoods overlap, so the stderr understates the estimate's spread
    (by 2-4x for a 1-D Gaussian pair at 2e4-2e5 samples). The neighbourhoods
    are fit _CHUNK_QUERIES queries at a time: with the inputs and outputs
    centred per neighbourhood, the intercept is the output mean and the
    slopes solve the (d, d) normal equations. The centring means are
    `_neighbour_sum` / k, bitwise mean(axis=1): an einsum for two or more
    coordinates, numpy's pairwise sum for one (the 1-D fits), since an einsum
    there rounds differently. For d == 1 the neighbourhoods are windows of
    sorted copies of x and y: the queries are read first, x and y are
    rebound to the sorted copies (so inputs the caller holds no other
    reference to are freed), and each query's window start comes from
    `_window_starts`, ties at the k-th distance going to the lower values.
    These are the values, in the order, that gathering `_nearest`'s index
    rows from the unsorted arrays reads, without its (n_query, k) index
    matrix. For d >= 2 the neighbours come from `_nearest`'s k-d tree.
    Non-finite x or y, a y whose row count differs from x's, n_query below 2
    (no mean and no bootstrap spread to read) or n_boot below 2 (one resample
    has no spread, so the stderr would be NaN) raise ValueError; the n_query
    and n_boot checks come before any draw from rng.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    n, d = x.shape
    if y.shape[0] != n:
        raise ValueError(f"y has {y.shape[0]} rows, x has {n}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if n_query < 2:
        raise ValueError(f"n_query must be >= 2, got {n_query}")
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2, got {n_boot}")
    if k is None:
        k = int(np.ceil(np.sqrt(n)))
    k = min(k, n)
    dof = k - (d + 1)
    if dof < 2:
        raise ValueError("neighbourhood too small for a linear fit")
    n_query = min(n_query, n)
    q_idx = rng.choice(n, size=n_query, replace=False)
    if d == 1:
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        queries = x[q_idx, 0]
        order = np.argsort(x[:, 0])
        x = np.take(x, order, axis=0)               # rebound, so unshared inputs are freed
        y = np.take(y, order, axis=0)
        del order
        nbr = _window_starts(x[:, 0], queries, k)[:, None]
        window = np.arange(k)
    else:
        nbr = _nearest(x, x[q_idx], k)
    per_query = np.empty(n_query)
    for start in range(0, n_query, _CHUNK_QUERIES):
        rows = nbr[start:start + _CHUNK_QUERIES]
        if d == 1:
            rows = rows + window                    # rows of the sorted copies
        xb = np.take(x, rows, axis=0)               # (q, k, d)
        yb = np.take(y, rows, axis=0)               # (q, k, p)
        xb -= _neighbour_sum(xb) / k
        yb -= _neighbour_sum(yb) / k
        xt = xb.transpose(0, 2, 1)
        yb -= xb @ np.linalg.solve(xt @ xb, xt @ yb)    # residuals
        per_query[start:start + len(rows)] = np.einsum("qkj,qkj->q", yb, yb) / dof
    del nbr
    estimate = float(per_query.mean())
    boot_idx = rng.integers(0, n_query, size=(n_boot, n_query))
    stderr = float(per_query[boot_idx].mean(axis=1).std(ddof=1))
    return estimate, stderr, per_query


def ambient_condvar_quadrature(system: MixtureSystem) -> float:
    """E_z[tr Var(velocity | z)] by 1-D trapezoid quadrature (d = 1 only), on
    200,001 points reaching 10 marginal stds past the farthest orbit mean."""
    if system.dim != 1:
        raise ValueError("quadrature oracle is one-dimensional")
    mu_t, s_t = slice_time_marginal(system)
    scale = float(np.sqrt(s_t[0, 0]))
    reach = float(np.abs(system.group.elements @ mu_t).max())
    lim = reach + 10.0 * scale
    grid = np.linspace(-lim, lim, 200_001)[:, None]
    density = np.exp(mixture_logpdf(system, grid))
    v = slice_conditional_variance(system) + ambiguity_term(system, grid)
    return float(_trapezoid(density * v, grid[:, 0]))


def ambient_condvar_mc(system: MixtureSystem, n: int,
                       rng: np.random.Generator) -> tuple[float, float]:
    """E_z[tr Var(velocity | z)] by closed-form V at simulated ambient points."""
    z = simulate(system, n, rng)["z"]
    vals = slice_conditional_variance(system) + ambiguity_term(system, z)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


def variance_decomposition(system: MixtureSystem, n: int, rng: np.random.Generator,
                           n_query: int = 2000, k: int | None = None) -> dict:
    """Estimate both sides of the total-variance identity from one batch.

    lhs is the ambient conditional variance (k-NN on the ambient pair), within
    the slice conditional variance (k-NN on the slice pair), ambiguity the
    closed-form posterior spread averaged over the same ambient points. Each
    simulated array is popped as it is handed to its fit, so nothing holds it
    once the fit is done (and a 1-D fit frees it as soon as it has made its
    sorted copy); the peak holds the kept pairs and one fit's working set.
    """
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} Monte Carlo samples")
    sim = simulate(system, n, rng)
    amb_vals = ambiguity_term(system, sim["z"])     # draws nothing from rng
    amb = float(amb_vals.mean())
    amb_se = float(amb_vals.std(ddof=1) / np.sqrt(n))
    del amb_vals
    lhs, lhs_se, _ = knn_local_linear_variance(sim.pop("z"), sim.pop("velocity"), rng,
                                               n_query=n_query, k=k)
    within, within_se, _ = knn_local_linear_variance(sim.pop("z_slice"), sim.pop("u"), rng,
                                                     n_query=n_query, k=k)
    combined = float(np.sqrt(lhs_se ** 2 + within_se ** 2 + amb_se ** 2))
    return {
        "lhs": lhs, "lhs_stderr": lhs_se,
        "within": within, "within_stderr": within_se,
        "ambiguity": amb, "ambiguity_stderr": amb_se,
        "residual": lhs - within - amb,
        "combined_stderr": combined,
        "n": n, "n_query": n_query,
        "k": k if k is not None else int(np.ceil(np.sqrt(n))),
    }


# ---------------------------------------------------------------------------
# Coupling and equivariance diagnostics


def _ks_normal_pvalue(x: np.ndarray) -> float:
    """Two-sided KS p-value of the sample x against N(0, 1), from the
    asymptotic (Kolmogorov) distribution of D sqrt(n).

    D is scipy.stats.kstest(x, "norm").statistic, computed as scipy's
    `_compute_d` does: over the sorted sample with normal CDF values F,
    D+ = max(i/n - F), D- = max(F - (i-1)/n) and D = max(D+, D-). The result
    is bitwise kstest(x, "norm", method="asymp").pvalue; only scipy.special
    loads, which the k-d tree and the OT solver load already.
    """
    from scipy.special import kolmogorov, ndtr

    n = len(x)
    cdf = ndtr(np.sort(x))
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(kolmogorov(max(d_plus, d_minus) * np.sqrt(n)))


def lift_independence(q0, n_mc: int, group, rng: np.random.Generator,
                      noise: SliceGaussian | None = None) -> dict:
    """Simulate a group-aligned lift and test the pair for dependence.

    q0 is the slice data distribution (SliceGaussian or SlicePoint); noise
    defaults to the standard normal, and group is a FiniteGroupSpec or a
    RotationGroup: its randomize applies one shared element per pair. Checks
    every linear coordinate correlation plus one quadratic direction
    statistic (difference of squared coordinates), which is what picks up the
    dependence a shared rotation induces when the noise is anisotropic; raw
    correlations vanish there. The pair counts as independent when both
    statistics are below 4 / sqrt(n_mc). With the default isotropic noise the
    z1 coordinates are also KS-tested against N(0, 1); their p-values, which
    decide nothing, come from the asymptotic Kolmogorov distribution
    (`_ks_normal_pvalue`), not from the exact finite-n one that kstest
    uses by default.
    """
    d = q0.dim
    normal_reference = noise is None
    if noise is None:
        noise = SliceGaussian(np.zeros(d), np.eye(d))
    _, z0, z1 = group.randomize(rng, q0.draw(n_mc, rng), noise.draw(n_mc, rng))
    n = n_mc
    threshold = 4.0 / np.sqrt(n)

    with np.errstate(invalid="ignore"):
        full = np.corrcoef(np.concatenate([z0, z1], axis=1).T)
    linear = float(np.nan_to_num(np.abs(full[:d, d:]), nan=0.0).max())

    def _corr(a, b):
        if a.std() < 1e-12 or b.std() < 1e-12:
            return 0.0
        return float(abs(np.corrcoef(a, b)[0, 1]))

    if d >= 2:
        quad = _corr(z0[:, 0] ** 2 - z0[:, 1] ** 2, z1[:, 0] ** 2 - z1[:, 1] ** 2)
    else:
        quad = _corr(z0[:, 0] ** 2, z1[:, 0] ** 2)

    ks_pvalues = [_ks_normal_pvalue(z1[:, j]) for j in range(d)] if normal_reference else []

    return {
        "linear_corr": linear,
        "quadratic_corr": quad,
        "threshold": float(threshold),
        "ks_pvalues": ks_pvalues,
        "independent": linear < threshold and quad < threshold,
        "n": n,
    }


def bayes_equivariance_check(system: MixtureSystem, n: int, rng: np.random.Generator,
                             break_coupling: bool = False) -> dict:
    """Check that the estimated ambient field commutes with the group.

    Compares g vhat(g^-1 z) against vhat(z) at min(200, n) query points, with
    vhat a mean over the k = ceil(sqrt(n)) nearest neighbours; under the true
    coupling the k-NN smoothing bias cancels between the two sides and the gap
    is pure noise, so the max violation-to-stderr ratio stays below 5.
    break_coupling leaves the regression target in
    the slice frame (never rotated by G), a process whose field is not
    equivariant; the check is expected to fail there.
    """
    sim = simulate(system, n, rng)
    x = sim["z"]
    y = sim["u"] if break_coupling else sim["velocity"]
    k = int(np.ceil(np.sqrt(n)))
    n_query = min(200, n)
    ratio_bound = 5.0
    zq = x[rng.choice(n, size=n_query, replace=False)]
    elements = system.group.elements
    queries = np.concatenate([zq, *(zq @ g for g in elements)])     # zq, then g^-1 zq
    vals = np.take(y, _nearest(x, queries, k), axis=0).reshape(len(elements) + 1, n_query, k, -1)
    means = _neighbour_sum(vals) / k                # np.var's steps, ddof=1
    vals -= means
    vals *= vals
    means, variances = means[:, :, 0], _neighbour_sum(vals)[:, :, 0] / (k - 1) / k

    base_mean, base_var = means[0], variances[0]
    max_ratio = 0.0
    max_gap = 0.0
    ratios = []
    for g, mean_g, var_g in zip(elements, means[1:], variances[1:]):
        rotated_mean = mean_g @ g.T
        rotated_var = var_g @ (g ** 2).T
        gap = np.linalg.norm(rotated_mean - base_mean, axis=1)
        se = np.sqrt((base_var + rotated_var).sum(axis=1))
        ratio = gap / np.maximum(se, 1e-12)
        ratios.append(ratio)
        max_ratio = max(max_ratio, float(ratio.max()))
        max_gap = max(max_gap, float(gap.max()))
    all_ratios = np.concatenate(ratios)
    return {
        "max_ratio": max_ratio,
        "mean_ratio": float(all_ratios.mean()),
        "max_violation": max_gap,
        "ratio_bound": ratio_bound,
        "equivariant": max_ratio < ratio_bound,
        "k": k, "n_query": n_query, "n": n,
        "break_coupling": break_coupling,
    }


# ---------------------------------------------------------------------------
# Reports


def _plain(obj):
    """Recursively strip numpy scalar/array types for JSON emission."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


@dataclass
class CheckResult:
    """One verification outcome; passed iff |estimate - reference| <= tolerance.

    One-sided statements are encoded by making the estimate a violation
    magnitude (zero when the inequality holds) with reference zero.
    """

    name: str
    estimate: float
    reference: float
    stderr: float
    tolerance: float
    passed: bool
    n_samples: int
    seed: int
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _plain({
            "name": self.name,
            "estimate": self.estimate,
            "reference": self.reference,
            "stderr": self.stderr,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "detail": self.detail,
        })


def equality_check(name: str, estimate: float, reference: float, stderr: float,
                   n_samples: int, seed: int, floor: float = 0.0,
                   detail: dict | None = None) -> CheckResult:
    tolerance = max(3.0 * stderr, floor)
    return CheckResult(
        name=name, estimate=float(estimate), reference=float(reference),
        stderr=float(stderr), tolerance=float(tolerance),
        passed=bool(abs(estimate - reference) <= tolerance),
        n_samples=n_samples, seed=seed, detail=detail or {},
    )


@dataclass
class TheoryReport:
    checks: list
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "all_passed": self.all_passed,
                "checks": [c.to_dict() for c in self.checks]}

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: estimate={c.estimate:.6g} "
                         f"reference={c.reference:.6g} tolerance={c.tolerance:.3g}")
        lines.append(f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return lines


ALL_SYSTEMS = ("signflip", "c4", "s3")


def run_default_suite(seed: int = 0, systems=None, n_mc: int | None = None) -> TheoryReport:
    """Run the stock verification battery.

    systems selects a subset of ("signflip", "c4", "s3"); n_mc is the large
    Monte Carlo sample count (default 1,000,000).
    """
    if systems is None:
        systems = ALL_SYSTEMS
    unknown = set(systems) - set(ALL_SYSTEMS)
    if unknown:
        raise ValueError(f"unknown systems: {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    n_big = n_mc if n_mc is not None else 1_000_000
    n_mid = max(MIN_MC_SAMPLES, n_big // 10)
    checks = []

    checks.append(equality_check(
        "gaussian_condvar_unit", gaussian_condvar(1.0, 1.0, 0.5), 2.0,
        stderr=0.0, n_samples=0, seed=seed))

    made = {"signflip": signflip_system, "c4": c4_system, "s3": s3_system}
    for name in systems:
        system = made[name]()
        z = simulate(system, 100, rng)["z"]
        score, fd = mixture_score(system, z), finite_difference_score(system, z)
        rel = np.abs(score - fd) / np.maximum(np.maximum(np.abs(score), np.abs(fd)), 1.0)
        checks.append(equality_check(
            f"score_matches_fd_{name}", float(rel.max()), 0.0, stderr=0.0,
            n_samples=100, seed=seed, floor=1e-5))

    if "signflip" in systems:
        sf = signflip_system()
        dec = variance_decomposition(sf, n_big, rng)
        checks.append(equality_check(
            "signflip_decomposition_residual", dec["residual"], 0.0,
            dec["combined_stderr"], n_big, seed,
            detail={k: dec[k] for k in ("lhs", "within", "ambiguity")}))
        checks.append(equality_check(
            "signflip_within_zero", dec["within"], 0.0, dec["within_stderr"],
            n_big, seed, floor=1e-9))
        quad = ambient_condvar_quadrature(sf)
        checks.append(equality_check(
            "signflip_quadrature_match", dec["lhs"], quad, dec["lhs_stderr"],
            n_big, seed))
        amb_vals, bound_vals = collision_bound(sf, 2000, rng)
        worst = float((bound_vals - amb_vals).max())
        checks.append(equality_check(
            "collision_bound_below_ambiguity_signflip", max(0.0, worst), 0.0,
            stderr=0.0, n_samples=2000, seed=seed, floor=1e-9))
        gap = float(np.abs(amb_vals - bound_vals).max())
        checks.append(equality_check(
            "collision_bound_tight_two_copies", gap, 0.0, stderr=0.0,
            n_samples=2000, seed=seed, floor=1e-9))

    for name in ("c4", "s3"):
        if name not in systems:
            continue
        system = made[name]()
        dec = variance_decomposition(system, n_mid, rng)
        violation = max(0.0, dec["within"] - dec["lhs"])
        tol_se = np.sqrt(dec["lhs_stderr"] ** 2 + dec["within_stderr"] ** 2)
        checks.append(equality_check(
            f"decomposition_inequality_{name}", violation, 0.0, tol_se,
            n_mid, seed, detail={"lhs": dec["lhs"], "within": dec["within"]}))

    if "c4" in systems:
        n_lift = n_mid
        q0 = SliceGaussian(np.array([2.0, 0.0]), 0.09 * np.eye(2))
        lift = symgroup.RotationGroup(2)
        iso = lift_independence(q0, n_lift, lift, rng)
        checks.append(CheckResult(
            "lift_independence_isotropic",
            estimate=max(iso["linear_corr"], iso["quadratic_corr"]), reference=0.0,
            stderr=1.0 / np.sqrt(n_lift), tolerance=iso["threshold"],
            passed=iso["independent"], n_samples=n_lift, seed=seed, detail=iso))
        aniso = lift_independence(q0, n_lift, lift, rng,
                                  noise=SliceGaussian(np.zeros(2), np.diag([9.0, 1.0])))
        checks.append(CheckResult(
            "lift_dependence_flagged_anisotropic", estimate=aniso["quadratic_corr"],
            reference=0.0, stderr=1.0 / np.sqrt(n_lift), tolerance=aniso["threshold"],
            passed=not aniso["independent"], n_samples=n_lift, seed=seed, detail=aniso))

        eq = bayes_equivariance_check(c4_system(), n_mid, rng)
        checks.append(CheckResult(
            "bayes_equivariance_c4", estimate=eq["max_ratio"], reference=0.0,
            stderr=1.0, tolerance=eq["ratio_bound"], passed=eq["equivariant"],
            n_samples=n_mid, seed=seed, detail=eq))
        broken = bayes_equivariance_check(c4_system(), n_mid, rng, break_coupling=True)
        checks.append(CheckResult(
            "broken_coupling_detected", estimate=broken["max_ratio"], reference=0.0,
            stderr=1.0, tolerance=broken["ratio_bound"],
            passed=not broken["equivariant"], n_samples=n_mid, seed=seed, detail=broken))

    return TheoryReport(checks=checks, seed=seed)
