"""End-to-end acceptance gates.

Slower, statistically sized checks at fixed seeds; one test per pipeline
guarantee. Unit behavior lives in the per-module suites. Monte Carlo gates
use 3-sigma bands around their own stderr estimates; wall-clock bounds are
generous (observed runtimes sit 5-20x under them).
"""

import itertools
import time

import numpy as np
import pytest
from scipy import stats

from conftest import nondegenerate_molecule
from gaugeflow import symgroup, theorylab
from gaugeflow.canonicalizer import canonicalize
from gaugeflow.coupling import ot_pair
from gaugeflow.flowcore import tape, toydata
from gaugeflow.flowcore.nets import CanonLiteConfig, CanonLiteNet, MoleculeBatch
from gaugeflow.flowcore.training import TrainConfig, energy_distance, train
from gaugeflow.sampler import (SampleConfig, finite_group_randomize,
                               haar_randomize, sample_vectors)
from gaugeflow.symgroup import GroupElement


def rmsd(a, b):
    return float(np.sqrt(((a - b) ** 2).sum(axis=-1).mean()))


def same_ordering(a, b):
    return (np.array_equal(a.atom_types, b.atom_types)
            and np.array_equal(a.charges, b.charges)
            and np.array_equal(a.bonds, b.bonds))


def test_canonical_form_constant_on_gauge_orbits_at_scale():
    # 1000 random non-degenerate molecules (5-40 atoms), one random
    # permutation+rotation+translation each: identical ordering on all 1000,
    # coordinate RMSD <= 1e-8, idempotence, and the stored gauge rebuilds
    # the input exactly.
    rng = np.random.default_rng(101)
    t0 = time.time()
    n_same = 0
    for _ in range(1000):
        mol = nondegenerate_molecule(rng, int(rng.integers(5, 41)))
        res = canonicalize(mol)
        g = symgroup.haar_sample(mol.coords.shape[0], rng)
        g = GroupElement(g.perm, g.rot, rng.normal(0.0, 3.0, 3))
        moved = symgroup.act(g, mol)
        res_moved = canonicalize(moved)
        n_same += same_ordering(res.representative, res_moved.representative)
        assert rmsd(res.representative.coords, res_moved.representative.coords) <= 1e-8
        again = canonicalize(res.representative)
        assert same_ordering(again.representative, res.representative)
        assert rmsd(again.representative.coords, res.representative.coords) <= 1e-8
        back = symgroup.act(res_moved.gauge, res_moved.representative)
        assert rmsd(back.coords, moved.coords) <= 1e-8
        assert same_ordering(back, moved)
    assert n_same == 1000
    assert time.time() - t0 < 60.0


def test_mixture_score_matches_finite_differences():
    # analytic score against central differences of the log density, 100
    # mixture-distributed points per stock system, mixed rel/abs 1e-5.
    for system in (theorylab.signflip_system(), theorylab.c4_system(),
                   theorylab.s3_system()):
        rng = np.random.default_rng(20)
        z = theorylab.simulate(system, 100, rng)["z"]
        analytic = theorylab.mixture_score(system, z)
        fd = theorylab.finite_difference_score(system, z)
        err = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() <= 1e-5


def test_velocity_variance_decomposition_accounts_for_ambiguity():
    # two-copy sign-flip system, point data at +1, standard normal noise,
    # t = 0.5, one batch of 1e6 paths: the ambient conditional variance
    # splits into within-slice (identically zero here) plus the posterior
    # ambiguity spread, and agrees with the 1-D quadrature oracle.
    system = theorylab.signflip_system(t=0.5)
    t0 = time.time()
    dec = theorylab.variance_decomposition(system, 1_000_000,
                                           np.random.default_rng([3, 30]),
                                           n_query=4000, k=250)
    assert abs(dec["residual"]) <= 3.0 * dec["combined_stderr"]
    assert dec["within"] <= 3.0 * dec["within_stderr"] + 1e-9
    oracle = theorylab.ambient_condvar_quadrature(system)
    assert abs(dec["lhs"] - oracle) <= 3.0 * dec["lhs_stderr"]
    assert time.time() - t0 < 300.0


def test_ambient_variance_never_below_slice_variance():
    # canonicalization can only remove predictable variation: on 10 random
    # Gaussian mixture systems the ambient conditional variance estimate
    # stays above the within-slice one, within Monte Carlo resolution.
    t0 = time.time()
    for i in range(10):
        system = theorylab.random_gaussian_system(np.random.default_rng([i, 50]))
        dec = theorylab.variance_decomposition(system, 100_000,
                                               np.random.default_rng([i, 51]),
                                               n_query=2000, k=250)
        assert dec["lhs"] - dec["within"] >= -3.0 * dec["combined_stderr"]
    assert time.time() - t0 < 300.0


def test_gaussian_conditional_variance_closed_form():
    # unit scalar case is exact; random SPD cases must agree with a k-NN
    # local-linear regression of the velocity on the ambient state at 1e6
    # samples (the conditional mean is affine, so the estimator is unbiased).
    assert theorylab.gaussian_condvar(1.0, 1.0, 0.5) == 2.0
    t0 = time.time()
    for seed in range(3):
        rng = np.random.default_rng([seed, 41])
        d = int(rng.integers(2, 4))

        def spd():
            a = rng.standard_normal((d, d))
            return a @ a.T / d + 0.2 * np.eye(d)

        cov0, cov1 = spd(), spd()
        t = float(rng.uniform(0.25, 0.75))
        system = theorylab.MixtureSystem(
            theorylab.trivial_group(d),
            theorylab.SliceGaussian(rng.normal(0.0, 1.0, d), cov0),
            theorylab.SliceGaussian(rng.normal(0.0, 1.0, d), cov1), t)
        reference = theorylab.gaussian_condvar(cov0, cov1, t)
        sim = theorylab.simulate(system, 1_000_000, rng)
        est, se, _ = theorylab.knn_local_linear_variance(
            sim["z"], sim["velocity"], rng, n_query=2000, k=250)
        assert abs(est - reference) <= 3.0 * se
    assert time.time() - t0 < 120.0


def test_group_aligned_lift_preserves_noise_independence():
    # isotropic noise: shared group element leaves the pair independent
    # (all correlations under 4/sqrt(n), noise marginal stays N(0,1));
    # anisotropic noise is the counterexample and must be flagged.
    t0 = time.time()
    q0 = theorylab.SliceGaussian(np.array([2.0, 0.5]), 0.25 * np.eye(2))
    iso = theorylab.lift_independence(q0, 100_000, symgroup.c4_group(),
                                      np.random.default_rng(60))
    bound = 4.0 / np.sqrt(100_000)
    assert iso["linear_corr"] < bound
    assert iso["quadratic_corr"] < bound
    assert iso["independent"]
    assert min(iso["ks_pvalues"]) > 0.001
    aniso = theorylab.lift_independence(
        q0, 100_000, symgroup.c4_group(), np.random.default_rng(61),
        noise=theorylab.SliceGaussian(np.zeros(2), np.diag([4.0, 0.25])))
    assert not aniso["independent"]
    assert time.time() - t0 < 60.0


def test_exact_assignment_matches_factorial_search():
    # 50 random instances cycling n = 2..7, full permutation enumeration.
    rng = np.random.default_rng(66)
    for i in range(50):
        n = 2 + i % 6
        data = rng.standard_normal((n, 3))
        noise = rng.standard_normal((n, 3))
        perm = ot_pair(data, noise)
        cost = ((data[:, None, :] - noise[None, :, :]) ** 2).sum(axis=-1)
        perms = np.array(list(itertools.permutations(range(n))))
        best = cost[np.arange(n)[None, :], perms].sum(axis=1).min()
        assert abs(((data - noise[perm]) ** 2).sum() - best) <= 1e-10


def _full_head_loss(net, batch, ranks, target_coords, target_types):
    # touches every head and both positional-encoding branches so each
    # parameter carries gradient signal
    def fn():
        total = None
        for dropped in (False, True):
            preds = net(batch, 0.4, ranks, pe_dropped=dropped)
            part = tape.mse(preds.velocity, target_coords)
            part = tape.add(part, tape.softmax_cross_entropy(
                preds.atom_logits, target_types))
            part = tape.add(part, tape.softmax_cross_entropy(
                preds.charge_logits, batch.charge_idx))
            part = tape.add(part, tape.softmax_cross_entropy(
                preds.bond_logits, batch.bond_idx))
            part = tape.add(part, tape.mse(tape.reshape(preds.rank_pred, (len(ranks), 1)),
                                           ranks[:, None]))
            total = part if total is None else tape.add(total, part)
        return total
    return fn


@pytest.mark.usefixtures("float64_tape")
def test_network_gradients_match_finite_differences():
    # every parameter of three small random networks, central differences,
    # mixed rel/abs error <= 1e-4
    cfg = CanonLiteConfig(n_atom_classes=3, n_charge_classes=2, n_bond_classes=3,
                          d_model=8, n_coord_sets=2, d_rank=4, n_layers=1,
                          d_pe=4, d_proj=4, d_msg_hidden=8, d_edge=4)
    t0 = time.time()
    for seed in range(3):
        rng = np.random.default_rng([seed, 70])
        net = CanonLiteNet(cfg, rng)
        n = 4
        bonds = rng.integers(0, 3, n * (n - 1) // 2)        # the i < j pairs
        z_t = MoleculeBatch(rng.standard_normal((n, 3)), rng.integers(0, 3, n),
                            rng.integers(0, 2, n), bonds, tape.PairLayout([n]))
        fn = _full_head_loss(net, z_t, np.arange(n) / n,
                             rng.standard_normal((n, 3)), rng.integers(0, 3, n))
        errors = tape.gradient_check(fn, net.parameters(), eps=1e-4)
        assert max(errors.values()) <= 1e-4
    assert time.time() - t0 < 60.0


def test_canonical_slice_training_beats_invariant_mixture():
    # C4 four-blob target, five seeds, identical architecture and budget:
    # the slice-trained model must win on final validation flow-matching
    # loss and on 10-step Euler energy distance (after pushing its samples
    # back through random C4 elements) on at least 4 of 5 seeds.
    t0 = time.time()
    loss_wins = 0
    ed_wins = 0
    for seed in range(5):
        data = toydata.c4_blobs(2000, np.random.default_rng([seed, 100]))
        target = toydata.c4_blobs(2000, np.random.default_rng([seed, 101]))
        cfg = TrainConfig(epochs=10, steps_per_epoch=200, batch_size=256,
                          lr=1e-3, warmup_steps=50, seed=seed)
        results = {}
        for arm, arm_data in (("canonical", toydata.sector_canonicalize(data)[0]),
                              ("invariant", data)):
            model, trace = train(arm_data, cfg)
            gen = sample_vectors(model, 2000, SampleConfig(steps=10),
                                 np.random.default_rng(seed + 7))
            if arm == "canonical":
                gen = finite_group_randomize(gen, symgroup.c4_group(),
                                             np.random.default_rng([seed, 102]))
            results[arm] = (trace[-1]["val_loss"], energy_distance(gen, target))
        loss_wins += results["canonical"][0] <= results["invariant"][0]
        ed_wins += results["canonical"][1] <= results["invariant"][1]
    assert loss_wins >= 4
    assert ed_wins >= 4
    assert time.time() - t0 < 600.0


def test_haar_randomized_samples_are_gauge_invariant():
    # post-hoc randomization makes the sample law invariant: applying one
    # more fixed group element must not shift any invariance-breaking
    # statistic (two-sample KS at n=1e4 per arm, p > 0.001)
    rng = np.random.default_rng(90)
    pool = [canonicalize(nondegenerate_molecule(rng, 8)).representative
            for _ in range(3)]
    n = 10_000
    base = [pool[i] for i in rng.integers(0, 3, size=2 * n)]
    ambient = haar_randomize(base, "perm_so3", rng)
    extra = symgroup.haar_sample(8, np.random.default_rng(91))
    half_a = ambient[:n]
    half_b = [symgroup.act(extra, m) for m in ambient[n:]]

    def breakers(mols):
        coords = np.stack([m.coords for m in mols])
        weights = np.arange(coords.shape[1])
        return (coords[:, 0, 0],                                # order+orientation
                (weights * (coords ** 2).sum(axis=2)).sum(axis=1),  # order only
                coords[:, -1, 1])                               # orientation
    for stat_a, stat_b in zip(breakers(half_a), breakers(half_b)):
        assert stats.ks_2samp(stat_a, stat_b).pvalue > 0.001


def test_matched_prior_does_not_lower_conditional_trace_bound():
    # trace of the conditional covariance of the data endpoint given the
    # bridge state, data covariance diag(25, 1): matched prior (same
    # covariance) against the isotropic standard normal, at every interior
    # decile. The per-axis trace x*y / ((1-t)^2 x + t^2 y) is strictly
    # increasing in the prior variance y, so the matched arm dominates the
    # isotropic one everywhere below t = 1; the asserted direction cannot
    # hold and this test documents that gap rather than hiding it.
    cov_data = np.diag([25.0, 1.0])
    for t in np.arange(0.1, 0.91, 0.1):
        t = float(t)
        matched = t ** 2 * theorylab.gaussian_condvar(cov_data, cov_data, t)
        isotropic = t ** 2 * theorylab.gaussian_condvar(cov_data, np.eye(2), t)
        assert matched <= isotropic + 1e-12, (
            f"t={t:.1f}: matched-prior conditional trace {matched:.6f} "
            f"exceeds isotropic {isotropic:.6f}")


# The aligned-prior statement that does hold, for data variance a and prior
# variance b on one axis under the product coupling: moving the data mean by
# mu0 - mu1 moves only the transport cost, E||z1 - z0||^2 = a + b +
# ||mu0 - mu1||^2, while the conditional trace tr Var(z1 - z0 | zt) =
# ab / ((1 - t)^2 a + t^2 b) has no mean in it. Each side is a Monte Carlo
# estimate held to its closed form inside a 3-sigma band.
ALIGNED_A, ALIGNED_B, ALIGNED_T, ALIGNED_N = 2.5, 0.7, 0.4, 200_000


def _aligned_prior_batch(shift, seed):
    """simulate() of the 1-D pair with data N(shift, a) at t = 0 and prior
    N(0, b) at t = 1; the trivial group leaves the slice pair as it is."""
    system = theorylab.MixtureSystem(theorylab.trivial_group(1),
                                     theorylab.SliceGaussian([shift], ALIGNED_A),
                                     theorylab.SliceGaussian([0.0], ALIGNED_B), ALIGNED_T)
    return theorylab.simulate(system, ALIGNED_N, np.random.default_rng(seed))


def test_mean_shift_lowers_transport_cost_by_its_square():
    costs = {}
    for shift, seed in ((0.0, 61), (3.0, 62)):
        sq = (_aligned_prior_batch(shift, seed)["u"] ** 2).sum(axis=1)
        costs[shift] = (float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(ALIGNED_N)))
        check = theorylab.equality_check(
            f"transport_cost_shift_{shift:g}", costs[shift][0],
            ALIGNED_A + ALIGNED_B + shift ** 2, costs[shift][1], ALIGNED_N, seed)
        assert check.passed, check
    aligning = theorylab.equality_check(
        "transport_cost_drop", costs[3.0][0] - costs[0.0][0], 9.0,
        float(np.hypot(costs[3.0][1], costs[0.0][1])), ALIGNED_N, 62)
    assert aligning.passed, aligning


@pytest.mark.parametrize("shift, seed", [(0.0, 63), (3.0, 64)])
def test_mean_shift_leaves_conditional_trace_unchanged(shift, seed):
    # E[z1 - z0 | zt] is affine for a Gaussian pair, so the residuals of one
    # least-squares line estimate Var(z1 - z0 | zt), and their squares are
    # independent draws with an honest standard error (the k-NN estimator's
    # bootstrap error treats overlapping neighbourhoods as independent)
    sim = _aligned_prior_batch(shift, seed)
    x = sim["z_slice"][:, 0] - sim["z_slice"][:, 0].mean()
    y = sim["u"][:, 0] - sim["u"][:, 0].mean()
    sq = (y - x * (x @ y) / (x @ x)) ** 2
    check = theorylab.equality_check(
        f"conditional_trace_shift_{shift:g}", sq.sum() / (ALIGNED_N - 2),
        theorylab.gaussian_condvar(ALIGNED_A, ALIGNED_B, ALIGNED_T),
        float(sq.std(ddof=1) / np.sqrt(ALIGNED_N)), ALIGNED_N, seed)
    assert check.passed, check
