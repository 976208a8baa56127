"""Monte Carlo verification lab: closed forms, estimators, stock suite."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from gaugeflow import theorylab as lab
from gaugeflow import symgroup

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
    mats = system.group.elements[sim["g_idx"]]
    assert np.allclose(sim["z"], np.einsum("nij,nj->ni", mats, sim["z_slice"]))
    assert np.allclose(sim["velocity"], np.einsum("nij,nj->ni", mats, sim["u"]))
    assert np.allclose(sim["z_slice"],
                       (1 - system.t) * sim["z0"] + system.t * sim["z1"])
    assert np.allclose(sim["u"], sim["z1"] - sim["z0"])


def test_knn_estimator_on_linear_oracle():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20_000, 1))
    y = 2.0 * x + 0.5 * rng.standard_normal((20_000, 1))
    est, se, per_query = lab.knn_local_linear_variance(x, y, rng)
    assert abs(est - 0.25) < 4 * se
    assert per_query.shape == (2000,)
    with pytest.raises(ValueError):
        lab.knn_local_linear_variance(np.zeros((8, 5)), np.zeros(8), rng, k=4)


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


def test_lift_independence_isotropic_vs_anisotropic():
    from gaugeflow import coupling

    rng = np.random.default_rng(13)
    q0 = lab.SliceGaussian(np.array([2.0, 0.0]), 0.09 * np.eye(2))
    iso = lab.lift_independence(q0, 30_000, coupling.RotationLift(2), rng)
    assert iso["independent"]
    assert all(p > 0.001 for p in iso["ks_pvalues"])
    aniso = lab.lift_independence(
        q0, 30_000, coupling.RotationLift(2), rng,
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
