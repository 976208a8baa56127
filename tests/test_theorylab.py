"""Monte Carlo verification lab: closed forms, estimators, stock suite."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from gaugeflow import theorylab as lab
from gaugeflow import priors, symgroup

seeds = st.integers(min_value=0, max_value=2**32 - 1)
ts = st.floats(min_value=0.05, max_value=0.95)


def test_gaussian_condvar_unit_values():
    assert lab.gaussian_condvar(1.0, 1.0, 0.5) == 2.0
    # at t = 1 the time marginal is pure noise and Var(Z1 - Z0 | Z1) = Var(Z0)
    cov0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert abs(lab.gaussian_condvar(cov0, np.eye(2), 1.0) - np.trace(cov0)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=9.0), st.floats(min_value=0.1, max_value=9.0), ts)
def test_gaussian_condvar_scalar_formula(v0, v1, t):
    # 1-D algebra: tr Var(Z1 - Z0 | Zt) = v0 v1 / ((1-t)^2 v0 + t^2 v1)
    direct = v0 * v1 / ((1 - t) ** 2 * v0 + t ** 2 * v1)
    assert abs(lab.gaussian_condvar(v0, v1, t) - direct) < 1e-10 * max(1.0, direct)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_condvar_two_routes_agree(seed):
    # joint-covariance route vs the (Zt - Z0)/t route on a random Gaussian pair
    rng = np.random.default_rng(seed)
    system = lab.random_gaussian_system(rng)
    tr = lab.slice_conditional_variance(system)
    assert abs(tr - lab.gaussian_condvar(system.q0.cov, system.q1.cov, system.t)) < 1e-9


def test_point_mass_slice_is_deterministic():
    system = lab.signflip_system(t=0.5)
    assert abs(lab.slice_conditional_variance(system)) < 1e-12
    # Zt = (1-t) + t Z1, so Delta = Z1 - 1 = (Zt - 1) / t given Zt
    z = np.array([[0.3], [1.0], [-0.4]])
    expect = (z - 1.0) / 0.5
    assert np.allclose(lab.slice_conditional_mean(system, z), expect)


def test_conditional_mean_at_marginal_mean():
    rng = np.random.default_rng(3)
    system = lab.random_gaussian_system(rng)
    mu_t, _ = lab.slice_time_marginal(system)
    out = lab.slice_conditional_mean(system, mu_t)
    assert np.allclose(out[0], system.q1.mean - system.q0.mean, atol=1e-10)


@pytest.mark.parametrize("make", [lab.signflip_system, lab.c4_system, lab.s3_system])
def test_score_matches_finite_differences(make):
    system = make()
    rng = np.random.default_rng(5)
    z = lab.simulate(system, 50, rng)["z"]
    analytic = lab.mixture_score(system, z)
    fd = lab.finite_difference_score(system, z)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
    assert (np.abs(analytic - fd) / denom).max() < 1e-6


def test_mixture_logpdf_normalized_and_invariant():
    system = lab.signflip_system()
    grid = np.linspace(-12, 12, 200_001)[:, None]
    mass = np.trapezoid(np.exp(lab.mixture_logpdf(system, grid)), grid[:, 0])
    assert abs(mass - 1.0) < 1e-8

    c4 = lab.c4_system()
    z = np.random.default_rng(6).standard_normal((40, 2)) * 2
    base = lab.mixture_logpdf(c4, z)
    for g in c4.group.elements:
        assert np.allclose(lab.mixture_logpdf(c4, z @ g.T), base, atol=1e-10)


@pytest.mark.parametrize("make", [lab.signflip_system, lab.c4_system, lab.s3_system])
def test_mixture_log_sum_exp_matches_scipy(make):
    # the lab's numpy log-sum-exp over the members takes scipy's steps in scipy's order
    from scipy.special import logsumexp

    system = make()
    z = 4.0 * np.random.default_rng(19).standard_normal((500, system.dim))
    logq = lab._member_logpdf(system, z)
    expected = logsumexp(logq, axis=0) - np.log(system.group.order)
    assert np.allclose(lab.mixture_logpdf(system, z), expected, rtol=1e-14, atol=0)
    assert np.allclose(lab.posterior_responsibilities(system, z),
                       np.exp(logq - logsumexp(logq, axis=0)).T, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("seed", range(20))
def test_affine_member_form_matches_per_element_route(seed):
    system = lab.random_gaussian_system(np.random.default_rng(seed))
    z = 2.0 * np.random.default_rng(seed + 50).standard_normal((40, system.dim))
    qt = lab.SliceGaussian(*lab.slice_time_marginal(system))
    elements = system.group.elements
    means = np.stack([lab.slice_conditional_mean(system, z @ g) @ g.T for g in elements])
    logq = np.stack([priors.gaussian_logpdf(qt, z @ g) for g in elements])     # z @ g = g^T z
    assert np.allclose(lab._member_means(system, z), means, rtol=0, atol=1e-12)
    assert np.allclose(lab._member_logpdf(system, z), logq, rtol=0, atol=1e-12)


@pytest.mark.parametrize("make", [lab.c4_system, lab.s3_system])
def test_row_chunks_match_one_pass(make, monkeypatch):
    # three whole pieces and a partial one, against one piece of all rows
    system = make()
    monkeypatch.setattr(lab, "_CHUNK_ROWS", 1000)
    z = 3.0 * np.random.default_rng(21).standard_normal((3 * lab._CHUNK_ROWS + 7, system.dim))
    fns = (lab.posterior_responsibilities, lab.ambiguity_term, lab.collision_lower_bound,
           lab.mixture_logpdf, lab.mixture_score, lab.ambient_conditional_mean)
    chunked = [fn(system, z) for fn in fns]
    monkeypatch.setattr(lab, "_CHUNK_ROWS", len(z))
    for fn, got in zip(fns, chunked):
        want = fn(system, z)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-14, atol=0), fn.__name__


def test_posterior_responsibilities_normalize():
    system = lab.c4_system()
    z = np.random.default_rng(7).standard_normal((30, 2)) * 3
    rho = lab.posterior_responsibilities(system, z)
    assert rho.shape == (30, 4)
    assert np.allclose(rho.sum(axis=1), 1.0)
    # the fixed point of the sign flip splits its posterior evenly
    sf = lab.signflip_system()
    assert np.allclose(lab.posterior_responsibilities(sf, np.zeros((1, 1))), 0.5)


def test_ambient_field_is_equivariant():
    system = lab.c4_system()
    z = np.random.default_rng(8).standard_normal((25, 2)) * 2
    v = lab.ambient_conditional_mean(system, z)
    for g in system.group.elements:
        assert np.allclose(lab.ambient_conditional_mean(system, z @ g.T), v @ g.T,
                           atol=1e-10)


def test_ambiguity_term_limits():
    sf = lab.signflip_system()
    # far inside one copy the posterior collapses and ambiguity dies
    deep = lab.ambiguity_term(sf, np.array([[6.0]]))
    assert deep[0] < 1e-6
    # at the collision point both copies are live
    mid = lab.ambiguity_term(sf, np.zeros((1, 1)))
    assert mid[0] > 1.0
    trivial = lab.MixtureSystem(lab.trivial_group(1), lab.SlicePoint([1.0]),
                                lab.SliceGaussian(np.zeros(1), np.eye(1)), 0.5)
    z = np.linspace(-3, 3, 20)[:, None]
    assert np.allclose(lab.ambiguity_term(trivial, z), 0.0)
    assert np.allclose(lab.collision_lower_bound(trivial, z), 0.0)


@pytest.mark.parametrize("make", [lab.signflip_system, lab.c4_system, lab.s3_system])
def test_collision_bound_below_ambiguity(make):
    system = make()
    rng = np.random.default_rng(9)
    amb, bound = lab.collision_bound(system, 500, rng)
    assert np.all(bound <= amb + 1e-9)


def test_collision_bound_tight_for_two_copies():
    # with two group elements the pairwise expansion collapses to one term
    sf = lab.signflip_system()
    z = np.linspace(-4, 4, 101)[:, None]
    amb = lab.ambiguity_term(sf, z)
    bound = lab.collision_lower_bound(sf, z)
    assert np.allclose(amb, bound, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_simulate_consistency(seed):
    rng = np.random.default_rng(seed)
    system = lab.c4_system()
    sim = lab.simulate(system, 200, rng)
    assert sorted(sim) == ["u", "velocity", "z", "z_slice"]
    # the same draws, made directly: q0, then q1, then one element per row
    replay = np.random.default_rng(seed)
    z0 = system.q0.draw(200, replay)
    z1 = system.q1.draw(200, replay)
    mats = system.group.elements[replay.integers(0, system.group.order, 200)]
    assert np.allclose(sim["z"], np.einsum("nij,nj->ni", mats, sim["z_slice"]))
    assert np.allclose(sim["velocity"], np.einsum("nij,nj->ni", mats, sim["u"]))
    assert np.allclose(sim["z_slice"], (1 - system.t) * z0 + system.t * z1)
    assert np.allclose(sim["u"], z1 - z0)


def test_knn_estimator_on_linear_oracle():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20_000, 1))
    y = 2.0 * x + 0.5 * rng.standard_normal((20_000, 1))
    est, se, per_query = lab.knn_local_linear_variance(x, y, rng)
    assert abs(est - 0.25) < 4 * se
    assert per_query.shape == (2000,)
    with pytest.raises(ValueError):
        lab.knn_local_linear_variance(np.zeros((8, 5)), np.zeros(8), rng, k=4)


def _poison(value):
    def bad(a):
        a = a.copy()
        a[7, 0] = value
        return a
    return bad


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad_x, bad_y", [
    pytest.param(_poison(np.nan), None, id="x-nan"),
    pytest.param(_poison(np.inf), None, id="x-inf"),
    pytest.param(None, _poison(np.nan), id="y-nan"),
    pytest.param(None, _poison(-np.inf), id="y-inf"),
    pytest.param(None, lambda y: np.concatenate([y, y]), id="y-extra-rows"),
    pytest.param(None, lambda y: y[:-1], id="y-fewer-rows"),
])
def test_knn_rejects_bad_inputs(bad_x, bad_y, d):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((500, d))
    y = x + 0.1 * rng.standard_normal((500, d))
    x = bad_x(x) if bad_x else x
    y = bad_y(y) if bad_y else y
    with pytest.raises(ValueError):
        lab.knn_local_linear_variance(x, y, rng, n_query=50, k=40)


@pytest.mark.parametrize("n_query", [0, 1])
def test_knn_rejects_fewer_than_two_queries(n_query):
    # 0 queries has no mean, and 1 a bootstrap stderr of exactly 0
    rng = np.random.default_rng(18)
    x = rng.standard_normal((500, 1))
    with pytest.raises(ValueError, match="n_query"):
        lab.knn_local_linear_variance(x, 2.0 * x, rng, n_query=n_query, k=40)


def test_knn_needs_two_bootstrap_resamples():
    # one resample has no spread: its stderr would be NaN, and an equality
    # check on a NaN stderr always fails
    rng = np.random.default_rng(19)
    x = rng.standard_normal((500, 1))
    y = 2.0 * x + 0.1 * rng.standard_normal((500, 1))
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n_boot"):
        lab.knn_local_linear_variance(x, y, rng, n_query=50, k=40, n_boot=1)
    assert rng.bit_generator.state == state            # nothing was drawn
    estimate, stderr, _ = lab.knn_local_linear_variance(x, y, rng, n_query=50, k=40, n_boot=2)
    assert np.isfinite(estimate) and np.isfinite(stderr) and stderr >= 0.0


def _tree_distances(x, queries, k):
    return cKDTree(x).query(queries, k=k)[0]


def _window_distances(x, queries, k):
    nbr = lab._nearest(x, queries, k)
    assert nbr.shape == (len(queries), k)
    assert all(len(set(row)) == k for row in nbr.tolist())
    return np.sort(np.abs(x[nbr, 0] - queries[:, :1]), axis=1)


@pytest.mark.parametrize("case", ["integer-ties", "k-equals-n", "all-rows-query",
                                  "data-min", "data-max", "outside-range"])
def test_sorted_window_search_matches_tree(case):
    rng = np.random.default_rng(18)
    x = rng.standard_normal((400, 1))
    k = 25
    queries = x[rng.choice(400, size=60, replace=False)]
    if case == "integer-ties":
        x = rng.integers(-6, 7, size=(400, 1)).astype(np.float64)
        queries = np.concatenate([x[:40], np.arange(-8.0, 9.0, 0.5)[:, None]])
    elif case == "k-equals-n":
        k = 400
    elif case == "all-rows-query":
        queries = x
    elif case in ("data-min", "data-max"):        # alone, so no other query keeps bisecting
        queries = np.array([[x.min() if case == "data-min" else x.max()]])
    elif case == "outside-range":
        queries = np.concatenate([-queries - 10.0, queries + 10.0, [[-1e6], [1e6]]])
    assert np.array_equal(_window_distances(x, queries, k), _tree_distances(x, queries, k))


@pytest.mark.parametrize("k", [25, 400])
def test_unbalanced_tree_ties_match_default_tree(k):
    # on an integer grid many points tie at the k-th distance: the unbalanced
    # tree may keep other tied rows than the default tree, but its k rows are
    # distinct and their sorted distances (exact here) are the same
    rng = np.random.default_rng(20)
    x = rng.integers(-6, 7, size=(400, 2)).astype(np.float64)
    queries = np.concatenate([x[:40], rng.integers(-16, 17, size=(40, 2)) / 2.0])
    nbr = lab._nearest(x, queries, k)
    assert nbr.shape == (len(queries), k)
    assert all(len(set(row)) == k for row in nbr.tolist())
    dist = np.sqrt(((x[nbr] - queries[:, None]) ** 2).sum(axis=2))
    assert np.array_equal(np.sort(dist, axis=1), _tree_distances(x, queries, k))


def _numpy_mean_local_linear_variance(x, y, rng, n_query, k):
    """Reference: the batched fit with fancy-index gathers and numpy means."""
    q_idx = rng.choice(x.shape[0], size=n_query, replace=False)
    nbr = lab._nearest(x, x[q_idx], k)
    out = np.empty(n_query)
    for start in range(0, n_query, lab._CHUNK_QUERIES):
        rows = nbr[start:start + lab._CHUNK_QUERIES]
        xb, yb = x[rows], y[rows]
        xb -= xb.mean(axis=1, keepdims=True)
        yb -= yb.mean(axis=1, keepdims=True)
        xt = xb.transpose(0, 2, 1)
        yb -= xb @ np.linalg.solve(xt @ xb, xt @ yb)
        out[start:start + len(rows)] = np.einsum("qkj,qkj->q", yb, yb) / (k - x.shape[1] - 1)
    return out


@pytest.mark.parametrize("k", [40, 142, 317])
@pytest.mark.parametrize("d, p", [(1, 1), (2, 2), (3, 3), (1, 2), (3, 1)])
def test_knn_neighbour_sums_round_as_numpy_means(d, p, k):
    # the gathers and neighbourhood sums may be rewritten for speed, but every
    # per-query value keeps numpy's rounding bit for bit
    rng = np.random.default_rng(30 + d)
    x = rng.standard_normal((6000, d))
    y = np.sin(x @ rng.standard_normal((d, p))) + 0.1 * rng.standard_normal((6000, p))
    _, _, per_query = lab.knn_local_linear_variance(x, y, np.random.default_rng(31),
                                                    n_query=300, k=k)
    ref = _numpy_mean_local_linear_variance(x, y, np.random.default_rng(31), 300, k)
    assert np.array_equal(per_query, ref)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("case", ["continuous", "integer-ties", "k-equals-n"])
def test_knn_sorted_windows_match_index_rows(case, p):
    # the 1-D fit gathers windows of sorted copies; every per-query value is
    # bitwise the fit over _nearest's index rows into the unsorted arrays
    rng = np.random.default_rng(40)
    n, k = 300, 40
    x = rng.standard_normal((n, 1))
    if case == "integer-ties":
        x = rng.integers(-5, 6, size=(n, 1)).astype(np.float64)
    elif case == "k-equals-n":
        k = n
    y = np.sin(3.0 * x @ rng.standard_normal((1, p))) + 0.1 * rng.standard_normal((n, p))
    # every point is a query below, so windows start at 0 and at n - k
    starts = lab._window_starts(np.sort(x[:, 0]), x[:, 0], k)
    assert starts.min() == 0 and starts.max() == n - k
    if case == "integer-ties":
        dist = np.sort(np.abs(x - x.T), axis=1)
        assert (dist[:, k - 1] == dist[:, k]).any()     # ties at the k-th distance
    _, _, per_query = lab.knn_local_linear_variance(x, y, np.random.default_rng(41),
                                                    n_query=n, k=k)
    ref = _numpy_mean_local_linear_variance(x, y, np.random.default_rng(41), n, k)
    assert np.array_equal(per_query, ref)


def _numpy_moments_bayes_check(system, n, rng, break_coupling):
    """Reference: bayes_equivariance_check with a fancy-index gather and
    np.mean / np.var over the neighbours."""
    sim = lab.simulate(system, n, rng)
    x = sim["z"]
    y = sim["u"] if break_coupling else sim["velocity"]
    k = int(np.ceil(np.sqrt(n)))
    n_query = min(200, n)
    zq = x[rng.choice(n, size=n_query, replace=False)]
    elements = system.group.elements
    queries = np.concatenate([zq, *(zq @ g for g in elements)])
    vals = y[lab._nearest(x, queries, k)].reshape(len(elements) + 1, n_query, k, -1)
    means, variances = np.mean(vals, axis=2), np.var(vals, axis=2, ddof=1) / k
    ratios, gaps = [], []
    for g, mean_g, var_g in zip(elements, means[1:], variances[1:]):
        gap = np.linalg.norm(mean_g @ g.T - means[0], axis=1)
        se = np.sqrt((variances[0] + var_g @ (g ** 2).T).sum(axis=1))
        ratios.append(gap / np.maximum(se, 1e-12))
        gaps.append(gap)
    max_ratio = max(0.0, *(float(r.max()) for r in ratios))
    return {
        "max_ratio": max_ratio,
        "mean_ratio": float(np.concatenate(ratios).mean()),
        "max_violation": max(0.0, *(float(gp.max()) for gp in gaps)),
        "ratio_bound": 5.0,
        "equivariant": max_ratio < 5.0,
        "k": k, "n_query": n_query, "n": n,
        "break_coupling": break_coupling,
    }


@pytest.mark.parametrize("break_coupling", [False, True])
@pytest.mark.parametrize("make", [lab.signflip_system, lab.c4_system, lab.s3_system])
def test_bayes_check_moments_round_as_numpy(make, break_coupling):
    got = lab.bayes_equivariance_check(make(), 20_000, np.random.default_rng(32),
                                       break_coupling=break_coupling)
    want = _numpy_moments_bayes_check(make(), 20_000, np.random.default_rng(32), break_coupling)
    assert got == want


def _lstsq_local_linear_variance(x, y, rng, n_query, k):
    """Reference: one least-squares fit per query point."""
    n = x.shape[0]
    q_idx = rng.choice(n, size=n_query, replace=False)
    _, nbr = cKDTree(x).query(x[q_idx], k=k)
    out = np.empty(n_query)
    for i in range(n_query):
        xb, yb = x[nbr[i]], y[nbr[i]]
        design = np.concatenate([np.ones((k, 1)), xb - xb.mean(axis=0)], axis=1)
        coef, *_ = np.linalg.lstsq(design, yb, rcond=None)
        out[i] = ((yb - design @ coef) ** 2).sum() / (k - x.shape[1] - 1)
    return out


@pytest.mark.parametrize("make", [lab.signflip_system, lab.c4_system, lab.s3_system])
def test_knn_batched_fit_matches_lstsq_loop(make):
    sim = lab.simulate(make(), 20_000, np.random.default_rng(15))
    for x, y in ((sim["z"], sim["velocity"]), (sim["z_slice"], sim["u"])):
        _, _, per_query = lab.knn_local_linear_variance(
            x, y, np.random.default_rng(16), n_query=300)
        ref = _lstsq_local_linear_variance(x, y, np.random.default_rng(16), 300, 142)
        assert np.allclose(per_query, ref, rtol=0.0, atol=1e-12)


def test_variance_decomposition_signflip():
    rng = np.random.default_rng(11)
    dec = lab.variance_decomposition(lab.signflip_system(), 40_000, rng)
    assert abs(dec["residual"]) < 4 * dec["combined_stderr"]
    assert abs(dec["within"]) < max(3 * dec["within_stderr"], 1e-9)
    assert dec["lhs"] > 0.5
    with pytest.raises(ValueError):
        lab.variance_decomposition(lab.signflip_system(), 500, rng)


def test_quadrature_matches_mc():
    system = lab.signflip_system()
    quad = lab.ambient_condvar_quadrature(system)
    mc, se = lab.ambient_condvar_mc(system, 200_000, np.random.default_rng(12))
    assert abs(quad - mc) < 4 * se
    with pytest.raises(ValueError):
        lab.ambient_condvar_quadrature(lab.c4_system())


@pytest.mark.parametrize("n", [200, 30_000, 100_000])
def test_ks_pvalue_is_scipys_asymptotic_one_bitwise(n):
    from scipy import stats

    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), 1.02 * rng.standard_normal(n) + 0.01):
        assert lab._ks_normal_pvalue(x) == stats.kstest(x, "norm", method="asymp").pvalue


def test_lift_independence_isotropic_vs_anisotropic():
    rng = np.random.default_rng(13)
    q0 = lab.SliceGaussian(np.array([2.0, 0.0]), 0.09 * np.eye(2))
    iso = lab.lift_independence(q0, 30_000, symgroup.RotationGroup(2), rng)
    assert iso["independent"]
    assert all(p > 0.001 for p in iso["ks_pvalues"])
    aniso = lab.lift_independence(
        q0, 30_000, symgroup.RotationGroup(2), rng,
        noise=lab.SliceGaussian(np.zeros(2), np.diag([9.0, 1.0])))
    assert not aniso["independent"]
    assert aniso["quadratic_corr"] > aniso["threshold"]
    assert aniso["ks_pvalues"] == []


def test_bayes_equivariance_and_broken_coupling():
    rng = np.random.default_rng(14)
    ok = lab.bayes_equivariance_check(lab.c4_system(), 30_000, rng)
    assert ok["equivariant"]
    broken = lab.bayes_equivariance_check(lab.c4_system(), 30_000, rng,
                                          break_coupling=True)
    assert not broken["equivariant"]
    assert broken["max_ratio"] > ok["max_ratio"]


def test_check_result_json_safe():
    c = lab.equality_check("demo", np.float64(1.0), np.float64(1.0),
                           stderr=np.float64(0.1), n_samples=10, seed=0,
                           detail={"arr": np.arange(3), "flag": np.bool_(True)})
    doc = c.to_dict()
    json.dumps(doc)
    assert doc["detail"]["arr"] == [0, 1, 2]
    assert doc["detail"]["flag"] is True
    assert c.passed


def test_equality_check_tolerance_semantics():
    assert lab.equality_check("x", 1.29, 1.0, stderr=0.1, n_samples=1, seed=0).passed
    assert not lab.equality_check("x", 1.31, 1.0, stderr=0.1, n_samples=1, seed=0).passed
    # the floor keeps exact checks from demanding 0 == 1e-17
    assert lab.equality_check("x", 1e-12, 0.0, stderr=0.0, n_samples=1, seed=0,
                              floor=1e-9).passed


def test_report_roundtrip(tmp_path):
    checks = [lab.equality_check("a", 1.0, 1.0, 0.1, 10, 0),
              lab.equality_check("b", 9.0, 1.0, 0.1, 10, 0)]
    report = lab.TheoryReport(checks=checks, seed=0)
    assert not report.all_passed
    path = tmp_path / "report.json"
    report.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["all_passed"] is False
    assert [c["name"] for c in doc["checks"]] == ["a", "b"]
    lines = report.summary_lines()
    assert len(lines) == 3
    assert lines[0].startswith("[PASS]") and lines[1].startswith("[FAIL]")
    assert lines[-1] == "1/2 checks passed"


def test_default_suite_signflip_subset():
    report = lab.run_default_suite(seed=0, systems=("signflip",), n_mc=20_000)
    names = [c.name for c in report.checks]
    assert names == [
        "gaussian_condvar_unit",
        "score_matches_fd_signflip",
        "signflip_decomposition_residual",
        "signflip_within_zero",
        "signflip_quadrature_match",
        "collision_bound_below_ambiguity_signflip",
        "collision_bound_tight_two_copies",
    ]
    assert report.all_passed


def test_default_suite_rejects_unknown_systems():
    with pytest.raises(ValueError):
        lab.run_default_suite(systems=("signflip", "d8"))
