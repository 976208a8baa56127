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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.spatial import cKDTree
from scipy.special import logsumexp

from . import coupling as coupling_mod
from . import priors, symgroup
from .symgroup import FiniteGroupSpec

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


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


@dataclass
class MixtureSystem:
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


def trivial_group(dim: int) -> FiniteGroupSpec:
    return FiniteGroupSpec(np.eye(dim)[None])


def signflip_system(t: float = 0.5) -> MixtureSystem:
    """1-D two-copy system: point data at +1, standard normal noise."""
    return MixtureSystem(symgroup.sign_flip_group(), SlicePoint([1.0]),
                         SliceGaussian(np.zeros(1), np.eye(1)), t)


def c4_system(t: float = 0.5, mean=(2.0, 0.0), std: float = 0.3) -> MixtureSystem:
    return MixtureSystem(symgroup.c4_group(),
                         SliceGaussian(np.asarray(mean), std ** 2 * np.eye(2)),
                         SliceGaussian(np.zeros(2), np.eye(2)), t)


def s3_system(t: float = 0.5) -> MixtureSystem:
    """Coordinate-permutation system on R^3 with an asymmetric slice blob."""
    return MixtureSystem(symgroup.permutation_matrix_group(3),
                         SliceGaussian(np.array([1.2, 0.3, -1.5]), 0.09 * np.eye(3)),
                         SliceGaussian(np.zeros(3), np.eye(3)), t)


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


def slice_conditional_mean(system: MixtureSystem, z_slice: np.ndarray) -> np.ndarray:
    """E[Z1 - Z0 | Zt = z] on the slice, affine in z."""
    z_slice = np.atleast_2d(np.asarray(z_slice, dtype=np.float64))
    mu_t, s_t = slice_time_marginal(system)
    c = _path_cross_cov(system)
    gain = np.linalg.solve(s_t, c.T).T          # C S^{-1}
    mu_delta = system.q1.mean - system.q0.mean
    return mu_delta + (z_slice - mu_t) @ gain.T


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


def _rotated_copies(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """g^-1 z for every group element; shape (M, n, d)."""
    return np.einsum("mji,nj->mni", system.group.elements, z)


def _member_logpdf(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """log qt(g^-1 z) for every group element; shape (M, n)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    zg = _rotated_copies(system, z)
    qt = SliceGaussian(*slice_time_marginal(system))
    return priors.gaussian_logpdf(qt, zg.reshape(-1, system.dim)).reshape(zg.shape[:2])


def mixture_logpdf(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """Log density of the ambient time marginal (1/M) sum_g qt(g^-1 z)."""
    return logsumexp(_member_logpdf(system, z), axis=0) - np.log(system.group.order)


def posterior_responsibilities(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """P(G = g | ambient point z); shape (n, M)."""
    logq = _member_logpdf(system, z)
    return np.exp(logq - logsumexp(logq, axis=0)).T


def mixture_score(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """Gradient of mixture_logpdf: sum_g rho_g(z) g s_t(g^-1 z)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    mu_t, s_t = slice_time_marginal(system)
    zg = _rotated_copies(system, z)
    rho = posterior_responsibilities(system, z)
    score = np.zeros_like(z)
    for m in range(system.group.order):
        s_slice = -np.linalg.solve(s_t, (zg[m] - mu_t).T).T
        rotated = s_slice @ system.group.elements[m].T
        score += rho[:, m:m + 1] * rotated
    return score


def finite_difference_score(system: MixtureSystem, z: np.ndarray,
                            eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of mixture_logpdf, coordinate by coordinate."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(z)
    for j in range(z.shape[1]):
        zp, zm = z.copy(), z.copy()
        zp[:, j] += eps
        zm[:, j] -= eps
        out[:, j] = (mixture_logpdf(system, zp) - mixture_logpdf(system, zm)) / (2 * eps)
    return out


def _member_means(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """m_g(z) = g E[Z1 - Z0 | Zt = g^-1 z]; shape (M, n, d)."""
    zg = _rotated_copies(system, z)
    return np.stack([
        slice_conditional_mean(system, zg[m]) @ system.group.elements[m].T
        for m in range(system.group.order)
    ])


def ambient_conditional_mean(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """Ideal ambient regression field, the responsibility-weighted member mean."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    rho = posterior_responsibilities(system, z)
    mg = _member_means(system, z)
    return np.einsum("nm,mnd->nd", rho, mg)


def ambiguity_term(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """Orbit-ambiguity variance sum_g rho_g ||m_g - m_bar||^2 at each z."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    rho = posterior_responsibilities(system, z)
    mg = _member_means(system, z)
    mbar = np.einsum("nm,mnd->nd", rho, mg)
    sq = ((mg - mbar[None]) ** 2).sum(axis=2)    # (M, n)
    return np.einsum("nm,mn->n", rho, sq)


def collision_lower_bound(system: MixtureSystem, z: np.ndarray) -> np.ndarray:
    """(D^2 / 2)(1 - sum_g rho_g^2) with D the narrowest member-mean gap at z.

    Lower-bounds the ambiguity term through its pairwise expansion
    sum_{g,h} rho_g rho_h ||m_g - m_h||^2 / 2 >= D^2 (1 - sum rho^2) / 2, with
    equality for two group elements; a trivial group gives zero.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if system.group.order == 1:
        return np.zeros(z.shape[0])
    rho = posterior_responsibilities(system, z)
    mg = _member_means(system, z)
    diffs = mg[:, None] - mg[None, :]            # (M, M, n, d)
    gap2 = (diffs ** 2).sum(axis=3)
    offdiag = ~np.eye(system.group.order, dtype=bool)
    gap2 = gap2[offdiag].min(axis=0)
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
    """Draw the full generative batch under the product coupling.

    Returns z0/z1/z_slice/u on the slice, uniform element indices g_idx, and
    the ambient pair z = G z_slice, velocity = G u.
    """
    z0 = system.q0.draw(n, rng)
    z1 = system.q1.draw(n, rng)
    z_slice = (1.0 - system.t) * z0 + system.t * z1
    u = z1 - z0
    g_idx, z, velocity = system.group.randomize(rng, z_slice, u)
    return {"g_idx": g_idx, "z0": z0, "z1": z1, "z_slice": z_slice, "u": u,
            "z": z, "velocity": velocity}


# ---------------------------------------------------------------------------
# Nonparametric estimators


def knn_local_linear_variance(x: np.ndarray, y: np.ndarray, rng: np.random.Generator,
                              n_query: int = 2000, k: int | None = None,
                              n_boot: int = 200) -> tuple[float, float, np.ndarray]:
    """Conditional variance tr Var(y | x) by local linear residuals.

    At each of n_query subsampled points a linear model is fit over the k
    nearest neighbours and the residual variance (dof-corrected, summed over
    output coordinates) is recorded; the estimate is the mean and the stderr
    a bootstrap over query points. Exactly unbiased when E[y|x] is affine.
    All neighbourhoods are fit at once: with the inputs and outputs centred
    per neighbourhood, the intercept is the output mean and the slopes solve
    the (d, d) normal equations.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    n, d = x.shape
    if k is None:
        k = int(np.ceil(np.sqrt(n)))
    k = min(k, n)
    dof = k - (d + 1)
    if dof < 2:
        raise ValueError("neighbourhood too small for a linear fit")
    tree = cKDTree(x)
    n_query = min(n_query, n)
    q_idx = rng.choice(n, size=n_query, replace=False)
    _, nbr = tree.query(x[q_idx], k=k, workers=-1)
    xb = x[nbr]                                     # (q, k, d)
    yb = y[nbr]                                     # (q, k, p)
    del nbr
    xb -= xb.mean(axis=1, keepdims=True)
    yb -= yb.mean(axis=1, keepdims=True)
    xt = xb.transpose(0, 2, 1)
    yb -= xb @ np.linalg.solve(xt @ xb, xt @ yb)    # residuals
    per_query = np.einsum("qkj,qkj->q", yb, yb) / dof
    estimate = float(per_query.mean())
    boot_idx = rng.integers(0, n_query, size=(n_boot, n_query))
    stderr = float(per_query[boot_idx].mean(axis=1).std(ddof=1))
    return estimate, stderr, per_query


def ambient_condvar_quadrature(system: MixtureSystem, n_grid: int = 200_001,
                               half_width: float = 10.0) -> float:
    """E_z[tr Var(velocity | z)] by 1-D trapezoid quadrature (d = 1 only)."""
    if system.dim != 1:
        raise ValueError("quadrature oracle is one-dimensional")
    mu_t, s_t = slice_time_marginal(system)
    scale = float(np.sqrt(s_t[0, 0]))
    reach = float(np.abs(system.group.elements @ mu_t).max())
    lim = reach + half_width * scale
    grid = np.linspace(-lim, lim, n_grid)[:, None]
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
    closed-form posterior spread averaged over the same ambient points.
    """
    if n < 1000:
        raise ValueError("need at least 1000 Monte Carlo samples")
    sim = simulate(system, n, rng)
    lhs, lhs_se, _ = knn_local_linear_variance(sim["z"], sim["velocity"], rng,
                                               n_query=n_query, k=k)
    within, within_se, _ = knn_local_linear_variance(sim["z_slice"], sim["u"], rng,
                                                     n_query=n_query, k=k)
    amb_vals = ambiguity_term(system, sim["z"])
    amb = float(amb_vals.mean())
    amb_se = float(amb_vals.std(ddof=1) / np.sqrt(n))
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


def lift_independence(q0, n_mc: int, group, rng: np.random.Generator,
                      noise: SliceGaussian | None = None,
                      threshold_scale: float = 4.0) -> dict:
    """Simulate a group-aligned lift and test the pair for dependence.

    q0 is the slice data distribution (SliceGaussian or SlicePoint); noise
    defaults to the standard normal, and group may be a FiniteGroupSpec or a
    coupling.RotationLift. Checks every linear coordinate correlation plus
    one quadratic direction statistic (difference of squared coordinates),
    which is what picks up the dependence a shared rotation induces when the
    noise is anisotropic; raw correlations vanish there. With the default
    isotropic noise the z1 coordinates are also KS-tested against N(0, 1).
    """
    d = q0.dim
    normal_reference = noise is None
    if noise is None:
        noise = SliceGaussian(np.zeros(d), np.eye(d))
    z0, z1 = coupling_mod.group_aligned_lift((q0.draw(n_mc, rng), noise.draw(n_mc, rng)),
                                             group, rng)
    n = n_mc
    threshold = threshold_scale / np.sqrt(n)

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

    ks_pvalues = []
    if normal_reference:
        ks_pvalues = [float(stats.kstest(z1[:, j], "norm").pvalue) for j in range(d)]

    return {
        "linear_corr": linear,
        "quadratic_corr": quad,
        "threshold": float(threshold),
        "ks_pvalues": ks_pvalues,
        "independent": linear < threshold and quad < threshold,
        "n": n,
    }


def bayes_equivariance_check(system: MixtureSystem, n: int, rng: np.random.Generator,
                             n_query: int = 200, k: int | None = None,
                             break_coupling: bool = False,
                             ratio_bound: float = 5.0) -> dict:
    """Check that the estimated ambient field commutes with the group.

    Compares g vhat(g^-1 z) against vhat(z) at query points, with vhat a k-NN
    mean; under the true coupling the k-NN smoothing bias cancels between the
    two sides and the gap is pure noise, so the max violation-to-stderr ratio
    stays below ratio_bound. break_coupling leaves the regression target in
    the slice frame (never rotated by G), a process whose field is not
    equivariant; the check is expected to fail there.
    """
    sim = simulate(system, n, rng)
    x = sim["z"]
    y = sim["u"] if break_coupling else sim["velocity"]
    if k is None:
        k = int(np.ceil(np.sqrt(n)))
    tree = cKDTree(x)
    n_query = min(n_query, n)
    zq = x[rng.choice(n, size=n_query, replace=False)]

    def knn_mean(points):
        _, nbr = tree.query(points, k=k, workers=-1)
        vals = y[nbr]                               # (q, k, d)
        return vals.mean(axis=1), vals.var(axis=1, ddof=1) / k

    base_mean, base_var = knn_mean(zq)
    max_ratio = 0.0
    max_gap = 0.0
    ratios = []
    for m in range(system.group.order):
        g = system.group.elements[m]
        mean_g, var_g = knn_mean(zq @ g)            # queries g^-1 zq
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
                   n_samples: int, seed: int, n_sigma: float = 3.0,
                   floor: float = 0.0, detail: dict | None = None) -> CheckResult:
    tolerance = max(n_sigma * stderr, floor)
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
    n_mid = max(1000, n_big // 10)
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
        lift = coupling_mod.RotationLift(2)
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
