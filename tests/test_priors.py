"""Moment-matched and rank-conditioned priors."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_frozen
from gaugeflow import priors

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=6))
def test_fit_gaussian_matches_moments(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    x = rng.standard_normal((4000, d)) @ a + rng.standard_normal(d)
    p = priors.fit_gaussian(x)
    emp_cov = np.cov(x.T, bias=True).reshape(d, d)
    assert np.allclose(p.mean, x.mean(axis=0))
    assert np.allclose(p.cov, emp_cov, atol=1e-8)
    assert np.allclose(p.sqrt @ p.sqrt, p.cov, atol=1e-8)


def test_fit_gaussian_floors_rank_deficient_cov():
    rng = np.random.default_rng(0)
    x = np.zeros((500, 3))
    x[:, 0] = rng.standard_normal(500)     # data lives on a line
    p = priors.fit_gaussian(x)
    vals = np.linalg.eigvalsh(p.cov)
    assert vals.min() >= priors.EIG_FLOOR * (1 - 1e-12)
    # logpdf must stay finite on the flat directions
    assert np.all(np.isfinite(priors.gaussian_logpdf(p, x[:10])))


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=6))
def test_power_psd_floors_and_inverts(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, max(d - 2, 1)))          # rank-deficient for d > 3
    cov = a @ a.T
    vals, vecs = np.linalg.eigh(cov)
    # the square root is the eigenvalue formula it has always been, bit for bit
    assert np.array_equal(priors.sqrt_psd(cov), (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T)
    root, inv_root = priors.power_psd(cov, 0.5, 1e4), priors.power_psd(cov, -0.5, 1e4)
    assert np.allclose(root @ inv_root, np.eye(d), atol=1e-10)
    assert np.linalg.cond(root) <= 100.0 * (1 + 1e-8)


def test_fit_gaussian_input_validation():
    with pytest.raises(ValueError):
        priors.fit_gaussian(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        priors.fit_gaussian(np.zeros(7))


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_sample_gaussian_roundtrip(seed):
    rng = np.random.default_rng(seed)
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 0.5]])
    vals, vecs = np.linalg.eigh(cov)
    p = priors.GaussianPrior(mean, cov)
    assert np.array_equal(p.sqrt, (vecs * np.sqrt(vals)) @ vecs.T)
    x = priors.sample_gaussian(p, 60_000, rng)
    assert np.allclose(x.mean(axis=0), mean, atol=0.05)
    assert np.allclose(np.cov(x.T, bias=True), cov, atol=0.08)


def test_gaussian_logpdf_against_scipy():
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 3))
    p = priors.fit_gaussian(rng.standard_normal((1000, 3)) * [1.0, 2.0, 0.5])
    ref = multivariate_normal(mean=p.mean, cov=p.cov).logpdf(x)
    assert np.allclose(priors.gaussian_logpdf(p, x), ref, atol=1e-10)


def test_isotropic_prior_shape():
    p = priors.GaussianPrior(np.zeros(4), 4.0)          # a scalar cov is that multiple of I
    assert np.array_equal(p.cov, 4.0 * np.eye(4))
    assert np.array_equal(p.sqrt, 2.0 * np.eye(4))
    lp = priors.gaussian_logpdf(p, np.zeros(4))
    assert np.allclose(lp, -0.5 * 4 * (np.log(2 * np.pi) + np.log(4.0)))


@pytest.mark.parametrize("d", [1, 2, 3, 36])
def test_identity_prior_has_identity_square_root(d):
    # the trainer's N(0, I) noise is mean + eps exactly
    assert np.array_equal(priors.GaussianPrior(np.zeros(d), np.eye(d)).sqrt, np.eye(d))


def test_gaussian_prior_is_symmetrized_and_frozen():
    cov = np.array([[2.0, 0.6], [0.5, 0.5]])
    q = priors.GaussianPrior([1.0, -2.0], cov)
    assert np.array_equal(q.cov, q.cov.T) and q.cov[0, 1] == 0.55
    assert np.array_equal(q.sqrt, priors.sqrt_psd(q.cov))
    assert q.mean.dtype == np.float64 and q.dim == 2
    assert_frozen(q)
    for arr in (q.mean, q.cov, q.sqrt):         # read-only copies of what was checked
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 9.0
    cov[0, 0] = -1.0                            # the caller's arrays stay theirs
    assert q.cov[0, 0] == 2.0


@pytest.mark.parametrize("mean, cov, match", [
    (np.zeros(2), np.diag([1.0, 0.0]), "positive definite"),
    (np.zeros(2), np.diag([1.0, -1.0]), "positive definite"),
    (np.zeros(2), -1.0, "positive definite"),
    (np.zeros(2), np.eye(3), r"\(2, 2\) matrix"),
    (np.zeros(2), np.ones(2), r"\(2, 2\) matrix"),
    (np.zeros(2), [[1.0, 0.0], [0.0, np.nan]], "finite"),
    (np.zeros(2), np.inf, "finite"),
    (np.zeros((1, 2)), np.eye(2), r"\(d,\) vector"),
    (1.0, np.eye(1), r"\(d,\) vector"),
    (np.zeros(0), np.zeros((0, 0)), r"\(d,\) vector"),
    ([0.0, np.inf], np.eye(2), "finite"),
], ids=["singular", "indefinite", "negative-scalar", "wrong-size", "vector-cov", "nan-cov",
        "inf-scalar", "2-D-mean", "scalar-mean", "empty-mean", "inf-mean"])
def test_gaussian_prior_refuses_what_it_cannot_sample(mean, cov, match):
    with pytest.raises(ValueError, match=match):
        priors.GaussianPrior(mean, cov)


# ---------------------------------------------------------------------------
# positional categorical


def test_fit_positional_counts_and_smoothing():
    ranks, classes = [0.05, 0.1, 0.9, 0.95, 1.0], [0, 0, 1, 1, 1]
    p = priors.fit_positional(ranks, classes, n_bins=2, n_classes=2, epsilon=1.0, beta=0.0)
    # first bin: counts (2, 0) + 1 smoothing -> (3/4, 1/4)
    assert np.allclose(p.bin_probs[0], [0.75, 0.25])
    # rank 1.0 lands in the last bin: counts (0, 3) + 1 -> (1/5, 4/5)
    assert np.allclose(p.bin_probs[1], [0.2, 0.8])


def test_eval_positional_blend_and_base():
    p = priors.PositionalCategoricalPrior(
        np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]), beta=0.2)
    lo = priors.eval_positional(p, 0.0)
    assert np.allclose(lo, 0.2 * 0.5 + 0.8 * np.array([1.0, 0.0]))
    # pos = rank * K, so rank 0.25 sits halfway between bins 0 and 1
    q = priors.eval_positional(p, 0.25)
    assert np.allclose(q, 0.2 * 0.5 + 0.8 * np.array([0.5, 0.5]))
    hi = priors.eval_positional(p, 0.5)
    assert np.allclose(hi, 0.2 * 0.5 + 0.8 * np.array([0.0, 1.0]))
    for r in (0.0, 0.3, 0.75, 1.0):
        assert abs(priors.eval_positional(p, r).sum() - 1.0) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_positional_matches_a_count_per_observation(seed):
    rng = np.random.default_rng(seed)
    n_bins, n_classes = 8, 5
    ranks = np.concatenate([rng.random(300), np.arange(40) / 40, [1.0, 0.0, 0.999999]])
    classes = rng.integers(0, n_classes, len(ranks))
    counts = np.zeros((n_bins, n_classes))
    for r, c in zip(ranks, classes):
        counts[min(int(r * n_bins), n_bins - 1), c] += 1.0
    want = (counts + 0.5) / (counts + 0.5).sum(axis=1, keepdims=True)
    got = priors.fit_positional(ranks, classes, n_bins, n_classes, epsilon=0.5)
    assert np.array_equal(got.bin_probs, want)


def test_positional_validation():
    with pytest.raises(ValueError):
        priors.fit_positional([1.5], [0], 2, 2)
    with pytest.raises(ValueError):
        priors.fit_positional([np.nan], [0], 2, 2)
    with pytest.raises(ValueError):
        priors.fit_positional([0.5], [3], 2, 2)
    with pytest.raises(ValueError):
        priors.fit_positional([0.5], [-1], 2, 2)
    with pytest.raises(ValueError):
        priors.fit_positional([0.5, 0.6], [0], 2, 2)
    with pytest.raises(ValueError):
        priors.eval_positional(priors.fit_positional([], [], 2, 2), -0.1)
    with pytest.raises(ValueError):
        priors.PositionalCategoricalPrior(np.ones((2, 2)) / 2, np.ones(3) / 3)


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_sample_positional_hits_table(seed):
    rng = np.random.default_rng(seed)
    p = priors.PositionalCategoricalPrior(
        np.array([[0.9, 0.1], [0.1, 0.9]]), np.full(2, 0.5), beta=0.0)
    lo = priors.sample_positional(p, np.full(2000, 0.01), rng)
    hi = priors.sample_positional(p, np.full(2000, 0.99), rng)
    assert (lo == 0).mean() > 0.8
    assert (hi == 1).mean() > 0.8


def _blend(table, rank):
    """The straddling-bin blend of one rank, written per atom."""
    k = table.shape[0]
    pos = rank * k
    k0 = min(int(pos), k - 1)
    k1 = min(k0 + 1, k - 1)
    delta = pos - k0 if k1 != k0 else 0.0
    return (1.0 - delta) * table[k0] + delta * table[k1]


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=9))
def test_sample_positional_matches_per_atom_choice(seed, n, n_bins):
    # one rng.choice per atom, as the draw was first written: same classes, same stream
    table_rng = np.random.default_rng([seed, 1])
    n_classes = int(table_rng.integers(1, 7))
    probs = table_rng.dirichlet(np.full(n_classes, 0.3), size=n_bins)
    prior = priors.PositionalCategoricalPrior(probs, np.full(n_classes, 1.0 / n_classes), 0.1)
    ranks = np.sort(table_rng.random(n))
    if n:
        ranks[[0, -1]] = 0.0, 1.0       # the clamped ends of the bin range
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = priors.sample_positional(prior, ranks, rng)
    want = [ref_rng.choice(n_classes, p=prior.beta * prior.base
                           + (1.0 - prior.beta) * _blend(probs, r)) for r in ranks]
    assert got.dtype == np.int64 and got.tolist() == want
    assert rng.random() == ref_rng.random()


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=9))
def test_sample_rank_gaussian_matches_per_atom_draws(seed, n, n_bins):
    table_rng = np.random.default_rng([seed, 2])
    prior = priors.RankBinnedGaussianPrior(table_rng.standard_normal((n_bins, 3)),
                                           table_rng.random((n_bins, 3)) + 0.1)
    ranks = np.arange(n) / max(n, 1)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = priors.sample_rank_gaussian(prior, ranks, rng)
    want = np.array([_blend(prior.bin_means, r) + _blend(prior.bin_stds, r)
                     * ref_rng.standard_normal(3) for r in ranks]).reshape(n, 3)
    assert np.array_equal(got, want)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
def test_rank_priors_reject_out_of_range_ranks(bad):
    ranks = np.array([0.0, bad, 0.5])
    positional = priors.fit_positional([0.2, 0.8], [0, 1], 3, 2)
    with pytest.raises(ValueError):
        priors.sample_positional(positional, ranks, np.random.default_rng(0))
    gaussian = priors.fit_rank_gaussian(np.linspace(0, 1, 8), np.ones((8, 3)), 2)
    with pytest.raises(ValueError):
        priors.sample_rank_gaussian(gaussian, ranks, np.random.default_rng(0))
    with pytest.raises(ValueError):
        priors._rank_gaussian_rows(gaussian, np.array([bad]))


class _EdgeRng:
    """Every uniform draw is the largest double below 1."""

    def random(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_draw_categorical_stays_in_range_at_the_top_edge():
    # the float cumsum of seven 1/7 entries ends below 1, so u = nextafter(1, 0)
    # lies past it; the draw must still be the last class, never class 7 or 0
    probs = np.full((3, 7), 1.0 / 7.0)
    assert np.cumsum(probs[0])[-1] < np.nextafter(1.0, 0.0)
    assert priors.draw_categorical(probs, _EdgeRng()).tolist() == [6, 6, 6]
    # a trailing class of zero probability is never drawn
    probs = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    assert priors.draw_categorical(probs, _EdgeRng()).tolist() == [1, 0]


# ---------------------------------------------------------------------------
# rank-binned Gaussian


def test_fit_rank_gaussian_recovers_bins():
    rng = np.random.default_rng(2)
    ranks = np.concatenate([np.full(3000, 0.1), np.full(3000, 0.9)])
    vals = np.concatenate([
        rng.normal(-3.0, 0.5, (3000, 2)),
        rng.normal(+3.0, 2.0, (3000, 2)),
    ])
    p = priors.fit_rank_gaussian(ranks, vals, n_bins=2)
    (m0, m1), (s0, s1) = priors._rank_gaussian_rows(p, np.array([0.0, 1.0]))  # pure bins
    assert np.allclose(m0, -3.0, atol=0.1)
    assert np.allclose(s0, 0.5, atol=0.1)
    assert np.allclose(m1, 3.0, atol=0.2)
    assert np.allclose(s1, 2.0, atol=0.2)
    draw = priors.sample_rank_gaussian(p, np.zeros(4000), rng)
    assert np.allclose(draw.mean(axis=0), -3.0, atol=0.1)


def test_rank_gaussian_empty_bin_defaults():
    p = priors.fit_rank_gaussian(np.array([0.05, 0.06, 0.07]),
                                 np.full((3, 1), 2.0), n_bins=4)
    mean, std = priors._rank_gaussian_rows(p, np.array([0.99]))
    assert mean.tolist() == [[0.0]] and std.tolist() == [[1.0]]


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("make", [
    lambda: priors.fit_gaussian(np.random.default_rng(1).standard_normal((100, 3))),
    lambda: priors.fit_positional([0.2, 0.8], [0, 1], 3, 2),
    lambda: priors.fit_rank_gaussian(np.linspace(0, 1, 50),
                                     np.random.default_rng(2).standard_normal((50, 2)), 4),
])
def test_save_load_roundtrip(make):
    # the JSON form FlowModel.save writes for each prior
    p = make()
    q = priors.prior_from_dict(json.loads(json.dumps(priors.prior_to_dict(p))))
    assert type(q) is type(p)
    for k, v in priors.prior_to_dict(p).items():
        assert priors.prior_to_dict(q)[k] == v


def test_prior_dict_refuses_keys_its_kind_lacks():
    # the Gaussian "isotropic" flag and the rank Gaussian "beta" that format
    # 2 and 3 files carried, and a key no kind has
    old_gaussian = dict(priors.prior_to_dict(priors.GaussianPrior(np.zeros(2), np.eye(2))),
                        isotropic=True)
    with pytest.raises(ValueError, match="gaussian prior has no keys isotropic"):
        priors.prior_from_dict(old_gaussian)
    ranked = priors.fit_rank_gaussian(np.linspace(0, 1, 8), np.ones((8, 3)), 2)
    with pytest.raises(ValueError, match="rank_gaussian prior has no keys beta"):
        priors.prior_from_dict(dict(priors.prior_to_dict(ranked), beta=0.0))
    table = priors.prior_to_dict(priors.fit_positional([0.2, 0.8], [0, 1], 3, 2))
    with pytest.raises(ValueError, match="has no keys extra, smoothing"):
        priors.prior_from_dict(dict(table, smoothing=1.0, extra=None))


def test_prior_dict_checks_the_stored_square_root():
    doc = priors.prior_to_dict(priors.GaussianPrior(np.zeros(2), [[2.0, 0.6], [0.6, 0.5]]))
    nudged = (np.array(doc["sqrt"]) * (1 + 1e-13)).tolist()           # rounding
    assert priors.prior_from_dict(dict(doc, sqrt=nudged)).sqrt.tolist() == doc["sqrt"]
    for sqrt in (np.eye(2).tolist(), [[1.0]], [1.0, 1.0], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="sqrt must be the square root of its cov"):
            priors.prior_from_dict(dict(doc, sqrt=sqrt))


def test_prior_dict_rejects_unknown():
    with pytest.raises(TypeError):
        priors.prior_to_dict(object())
    with pytest.raises(ValueError):
        priors.prior_from_dict({"kind": "mystery"})
