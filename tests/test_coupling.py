"""Batch pairing: OT assignment, rigid alignment, group-aligned lift."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from gaugeflow import coupling, symgroup
from gaugeflow.flowcore import toydata

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def brute_force_cost(data, noise):
    n = data.shape[0]
    best = np.inf
    for p in itertools.permutations(range(n)):
        c = sum(((data[i] - noise[j]) ** 2).sum() for i, j in enumerate(p))
        best = min(best, c)
    return best


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=6))
def test_exact_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, 3))
    noise = rng.standard_normal((n, 3))
    perm = coupling.ot_pair(data, noise)
    assert abs(((data - noise[perm]) ** 2).sum() - brute_force_cost(data, noise)) < 1e-10
    # a valid assignment touches every noise row once
    assert sorted(perm.tolist()) == list(range(n))


def test_ot_pair_validation():
    with pytest.raises(ValueError):
        coupling.ot_pair(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        coupling.ot_pair(np.zeros((coupling.MAX_EXACT + 1, 1)),
                         np.zeros((coupling.MAX_EXACT + 1, 1)))


def plain_lsa(data, noise):
    """The reference: the assignment solved on the unshifted cost."""
    return linear_sum_assignment(((data[:, None, :] - noise[None, :, :]) ** 2).sum(-1))[1]


def total_cost(data, noise, perm):
    return ((data - noise[perm]) ** 2).sum()


def _batch(kind, rng):
    """(data, noise) for one edge case of the shifted-cost solve; noise is N(0, I)."""
    n, d = {"n-le-d": (4, 6), "n-1": (1, 3), "n-2": (2, 3), "d-1": (64, 1),
            "d-36": (128, 36)}.get(kind, (64, 3))
    data = rng.standard_normal((n, d))
    noise = rng.standard_normal((n, d))
    if kind == "shifted":
        data += 3.0
    elif kind == "anisotropic":
        data *= np.array([1e4, 1e-4, 1.0])
    elif kind == "collinear":
        data = rng.standard_normal((n, 1)) * rng.standard_normal(d)
    elif kind == "identical":
        data = np.tile(rng.standard_normal(d), (n, 1))
    elif kind == "duplicated":
        data = data[rng.integers(0, 8, n)]
    elif kind == "scale-1e6":
        data *= 1e6
    return data, noise


EDGE_CASES = ["shifted", "anisotropic", "collinear", "identical", "duplicated", "n-le-d",
              "n-1", "n-2", "d-1", "d-36", "scale-1e6"]


@pytest.mark.parametrize("kind", EDGE_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shifted_cost_keeps_the_optimal_total(kind, seed):
    data, noise = _batch(kind, np.random.default_rng(seed))
    perm = coupling.ot_pair(data, noise)
    assert perm.dtype.kind == "i"
    assert sorted(perm.tolist()) == list(range(len(data)))
    want = total_cost(data, noise, plain_lsa(data, noise))
    assert abs(total_cost(data, noise, perm) - want) <= 1e-12 * want


def five_eigh_roots(x, y):
    """The Monge roots with one eigendecomposition per matrix power."""
    from gaugeflow.priors import power_psd, sqrt_psd

    sx, sy = x.T @ x, y.T @ y
    rx, rx_inv = power_psd(sx, 0.5, coupling.COND_CAP), power_psd(sx, -0.5, coupling.COND_CAP)
    a = rx_inv @ sqrt_psd(rx @ sy @ rx) @ rx_inv
    return power_psd(a, 0.5, coupling.COND_CAP), power_psd(a, -0.5, coupling.COND_CAP)


@pytest.mark.parametrize("kind", ["plain", "anisotropic", "collinear", "n-le-d", "d-36"])
def test_monge_roots_share_decompositions_bitwise(kind, monkeypatch):
    # each pair of inverse roots comes from one eigh: three calls instead of
    # five, with the cost matrix and the pairing of five separate calls
    from scipy.spatial.distance import cdist

    data, noise = _batch(kind, np.random.default_rng(7))
    x, y = data - data.mean(axis=0), noise - noise.mean(axis=0)
    root, inv_root = five_eigh_roots(x, y)
    want = cdist(x @ root, y @ inv_root, "sqeuclidean")
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    got = coupling._monge_roots(x, y)
    assert len(calls) == 3
    assert cdist(x @ got[0], y @ got[1], "sqeuclidean").tobytes() == want.tobytes()
    assert np.array_equal(coupling.ot_pair(data, noise), linear_sum_assignment(want)[1])


@pytest.mark.parametrize("seed", range(4))
def test_toy_canonical_batches_keep_plain_lsa_pairs(seed):
    # training draws data rows with replacement, so identical rows occur and
    # only the set of (data, noise) pairs is the same, not the permutation
    rng = np.random.default_rng(seed)
    pool = toydata.sector_canonicalize(toydata.c4_blobs(2000, rng))[0]
    data = pool[rng.integers(0, len(pool), 256)]
    noise = rng.standard_normal((256, 2))

    def pairs(perm):
        return sorted(map(tuple, np.hstack([data, noise[perm]])))

    assert pairs(coupling.ot_pair(data, noise)) == pairs(plain_lsa(data, noise))


@pytest.mark.parametrize("data, noise, word", [
    (np.zeros(4), np.zeros(4), "2-D"),
    (np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), "2-D"),
    (np.zeros((3, 2)), np.zeros(6), "2-D"),
    (np.zeros((3, 2)), np.zeros((3, 3)), "shape mismatch"),
    (np.full((3, 2), np.inf), np.zeros((3, 2)), "finite"),
    (np.zeros((3, 2)), np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]]), "finite"),
], ids=["1-d", "3-d", "one-flat", "mismatch", "inf-data", "nan-noise"])
def test_ot_pair_names_malformed_input(data, noise, word):
    with pytest.raises(ValueError, match=word):
        coupling.ot_pair(data, noise)


@pytest.mark.parametrize("d", [0, 2])
def test_ot_pair_on_an_empty_batch(d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perm = coupling.ot_pair(np.zeros((0, d)), np.zeros((0, d)))
    assert perm.shape == (0,) and perm.dtype.kind == "i"


def test_ot_probability_schedule():
    assert coupling.ot_probability(0, 10) == 1.0
    assert coupling.ot_probability(5, 10) == 0.5
    assert coupling.ot_probability(10, 10) == 0.0
    assert coupling.ot_probability(25, 10) == 0.0
    with pytest.raises(ValueError):
        coupling.ot_probability(0, 0)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_lift_shares_one_element_per_pair(seed):
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((64, 2))
    z1 = rng.standard_normal((64, 2))
    group = symgroup.c4_group()
    idx, l0, l1 = group.randomize(rng, z0, z1)
    mats = group.elements[idx]
    for i in range(64):
        assert np.allclose(l0[i], mats[i] @ z0[i])
        assert np.allclose(l1[i], mats[i] @ z1[i])
    assert idx is not None and idx.shape == (64,)
    # norms are untouched by any orthogonal lift
    assert np.allclose(np.linalg.norm(l0, axis=1), np.linalg.norm(z0, axis=1))


def test_lift_rotation_marker():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        z0, z1 = rng.standard_normal((5, d)), rng.standard_normal((5, d))
        state = rng.bit_generator.state
        mats, l0, l1 = symgroup.RotationGroup(d).randomize(rng, z0, z1)
        for a, b, g, la, lb in zip(z0, z1, mats, l0, l1):
            assert np.allclose(g @ g.T, np.eye(d), atol=1e-12)
            assert np.allclose(la, g @ a)
            assert np.allclose(lb, g @ b)
        # the draw order: one haar_rotations call, then each batch acted on
        replay = np.random.default_rng()
        replay.bit_generator.state = state
        want = symgroup.haar_rotations(d, 5, replay)
        assert np.array_equal(mats, want)
        assert np.array_equal(l0, np.einsum("nij,nj->ni", want, z0))
        assert np.array_equal(l1, np.einsum("nij,nj->ni", want, z1))
        assert rng.bit_generator.state == replay.bit_generator.state


def test_lift_marginal_is_group_mixture():
    # lifting a point mass by C4 spreads it uniformly over the 4 images
    rng = np.random.default_rng(0)
    z0 = np.tile([2.0, 0.0], (8000, 1))
    z1 = np.zeros((8000, 2))
    idx, l0, _ = symgroup.c4_group().randomize(rng, z0, z1)
    counts = np.bincount(idx, minlength=4) / 8000
    assert np.allclose(counts, 0.25, atol=0.03)
    images = {tuple(np.round(row, 6)) for row in l0}
    assert images == {(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)}
