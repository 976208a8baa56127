"""Euler sampling, guidance mixing, gauge randomization."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import random_molecule
from gaugeflow import priors as priors_mod
from gaugeflow import sampler, symgroup
from gaugeflow.flowcore.training import (TrainConfig, guided_forward, sample_molecular_noise,
                                         train)
from gaugeflow.flowcore.nets import MoleculeBatch
from gaugeflow.sampler import SampleConfig


@pytest.fixture(scope="module")
def mol_model():
    rng = np.random.default_rng(21)
    mols = [random_molecule(rng, 6) for _ in range(8)]
    cfg = TrainConfig(epochs=1, steps_per_epoch=2, batch_size=2, seed=1)
    model, _ = train(mols, cfg)
    return model


@pytest.fixture(scope="module")
def vec_model():
    data = np.random.default_rng(22).standard_normal((96, 2))
    cfg = TrainConfig(epochs=1, steps_per_epoch=3, batch_size=32, seed=2)
    model, _ = train(data, cfg)
    return model


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(steps=0)
    with pytest.raises(ValueError):
        SampleConfig(cfg_scale=-0.5)
    with pytest.raises(ValueError):
        SampleConfig(regime="c")
    with pytest.raises(ValueError):
        SampleConfig(group="o3")
    with pytest.raises(ValueError):
        SampleConfig(prior="laplace")
    with pytest.raises(ValueError):
        SampleConfig(regime="a", canonicalize_mode=True)
    assert SampleConfig().to_dict()["regime"] == "a"


def test_regime_a_never_canonicalizes(mol_model):
    cfg = SampleConfig(steps=3, regime="a", seed=5)
    mols, info = sampler.sample(mol_model, 4, 4, cfg)
    assert info["canonicalize_calls"] == 0
    assert len(mols) == 4
    assert all(m.n_atoms == 4 for m in mols)


def test_regime_b_canonicalize_mode_counts_calls(mol_model):
    cfg = SampleConfig(steps=3, regime="b", canonicalize_mode=True, seed=5)
    _, info = sampler.sample(mol_model, 5, 2, cfg)
    assert info["canonicalize_calls"] == 2 * 3
    # predict mode keeps the canonicalizer out of the loop
    cfg = SampleConfig(steps=3, regime="b", seed=5)
    _, info = sampler.sample(mol_model, 5, 2, cfg)
    assert info["canonicalize_calls"] == 0


def test_regime_b_keeps_a_collapsed_state(mol_model):
    # a zero velocity field on a zero-width coordinate prior puts every atom at
    # the origin, where canonicalization is undefined: each step keeps its
    # state and ranks, is counted, and sampling completes
    import copy

    model = copy.deepcopy(mol_model)
    model.net.head_vel.data[:] = 0.0
    coord = model.priors["coord"]
    flat = priors_mod.RankBinnedGaussianPrior(np.zeros_like(coord.bin_means),
                                              np.zeros_like(coord.bin_stds))
    cfg = SampleConfig(steps=3, regime="b", canonicalize_mode=True, seed=5)
    mols, info = sampler.sample(model, 5, 2, cfg, priors=dict(model.priors, coord=flat))
    assert info["canonicalize_calls"] == 2 * 3
    assert info["degenerate_steps"] == 2 * 3
    assert info["clipped_coords"] == 0
    assert len(mols) == 2 and all(m.n_atoms == 5 for m in mols)
    assert all(np.all(m.coords == 0.0) for m in mols)


def test_clipped_coordinates_are_counted(mol_model):
    import copy

    model = copy.deepcopy(mol_model)
    model.net.head_vel.data *= 1e9
    cfg = SampleConfig(steps=1, seed=6)
    mols, info = sampler.sample(model, 6, 3, cfg)
    at_bound = sum(int((np.abs(m.coords) == sampler.COORD_CLIP).sum()) for m in mols)
    assert info["clipped_coords"] == at_bound > 0
    assert info["degenerate_steps"] == 0


class _EdgeRng:
    """A Generator whose uniform draws are all the largest double below 1."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size=None):
        return np.full(() if size is None else size, np.nextafter(1.0, 0.0))


def test_euler_step_draws_stay_in_range_at_the_top_edge(mol_model):
    # the last step resamples every categorical entry; with u = nextafter(1, 0)
    # each draw must be the last class, even for rows whose float cumsum ends
    # below 1 (27% of random 5-class softmax rows)
    net = mol_model.net
    latent = MoleculeBatch.pack([sample_molecular_noise(7, mol_model.priors,
                                                        net.cfg.n_bond_classes,
                                                        np.random.default_rng(33))])
    stepped, _ = sampler.euler_step(net, latent, 1.0, 0.0, np.arange(7) / 7, 1.0,
                                    _EdgeRng(34))
    stepped = stepped.unpack()[0]
    assert np.all(stepped.type_idx == net.cfg.n_atom_classes - 1)
    assert np.all(stepped.charge_idx == net.cfg.n_charge_classes - 1)
    iu = np.triu_indices(7, k=1)
    assert np.all(stepped.bond_idx[iu] == net.cfg.n_bond_classes - 1)


def test_sampling_deterministic_under_seed(mol_model):
    cfg = SampleConfig(steps=4, seed=9)
    a, _ = sampler.sample(mol_model, 5, 3, cfg)
    b, _ = sampler.sample(mol_model, 5, 3, cfg)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.coords, mb.coords)
        assert np.array_equal(ma.atom_types, mb.atom_types)
        assert np.array_equal(ma.bonds, mb.bonds)


def test_per_sample_sizes(mol_model):
    cfg = SampleConfig(steps=2, seed=3)
    mols, _ = sampler.sample(mol_model, [4, 6, 8], 3, cfg)
    assert [m.n_atoms for m in mols] == [4, 6, 8]
    with pytest.raises(ValueError):
        sampler.sample(mol_model, [4, 6], 3, cfg)
    for sizes in (0, [4, 0, 6]):
        with pytest.raises(ValueError, match="got 0"):
            sampler.sample(mol_model, sizes, 3, cfg)


def test_model_kind_guards(mol_model, vec_model):
    with pytest.raises(ValueError):
        sampler.sample(vec_model, 5, 1, SampleConfig())
    with pytest.raises(ValueError):
        sampler.sample_vectors(mol_model, 4, SampleConfig())


def test_guidance_endpoints_and_mixing(mol_model):
    net = mol_model.net
    rng = np.random.default_rng(30)
    latent = MoleculeBatch.pack([sample_molecular_noise(5, mol_model.priors,
                                                        net.cfg.n_bond_classes, rng)])
    ranks = np.arange(5) / 5
    cond = net(latent, 0.5, ranks)
    unc = net(latent, 0.5, ranks, pe_dropped=True)
    w1 = guided_forward(net, latent, 0.5, ranks, 1.0)
    w0 = guided_forward(net, latent, 0.5, ranks, 0.0)
    assert np.array_equal(w1["velocity"], cond.velocity.data)
    assert np.array_equal(w0["velocity"], unc.velocity.data)
    wm = guided_forward(net, latent, 0.5, ranks, 0.3)
    expect = unc.velocity.data + 0.3 * (cond.velocity.data - unc.velocity.data)
    assert np.allclose(wm["velocity"], expect)
    assert np.allclose(wm["atom_logits"],
                       unc.atom_logits.data + 0.3 * (cond.atom_logits.data - unc.atom_logits.data))


@pytest.mark.parametrize("w", [1.0, 0.0, 2.0])
def test_packed_guided_heads_equal_single_forwards(mol_model, w):
    # one packed forward (two copies when guidance mixes) against B separate
    # conditional and PE-dropped forwards
    net = mol_model.net
    rng = np.random.default_rng(35)
    sizes = [1, 4, 6]
    latents = [sample_molecular_noise(n, mol_model.priors, net.cfg.n_bond_classes, rng)
               for n in sizes]
    ranks = [rng.permutation(n) / n for n in sizes]
    packed = guided_forward(net, MoleculeBatch.pack(latents), 0.7, np.concatenate(ranks), w)
    for k, got in packed.items():
        want = []
        for latent, r in zip(latents, ranks):
            one = MoleculeBatch.pack([latent])
            cond = getattr(net(one, 0.7, r), k).data
            unc = getattr(net(one, 0.7, r, pe_dropped=True), k).data
            if k == "rank_raw":      # the conditional copy's, when one runs
                want.append(unc if w == 0.0 else cond)
            else:
                want.append(unc + w * (cond - unc))
        want = np.concatenate(want)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max()), k


def test_degenerate_orderings_are_counted(mol_model, monkeypatch):
    real = sampler.pcs_step

    def flagged(latent, vocab):
        state, ranks, _ = real(latent, vocab)
        return state, ranks, True
    monkeypatch.setattr(sampler, "pcs_step", flagged)
    cfg = SampleConfig(steps=3, regime="b", canonicalize_mode=True, seed=5)
    _, info = sampler.sample(mol_model, 5, 4, cfg)
    assert info["canonicalize_calls"] == 3 * 4
    assert info["degenerate_orderings"] + info["degenerate_steps"] == 3 * 4
    assert info["degenerate_steps"] == 0


def test_rank_estimate_normalization():
    raw = np.array([3.0, 1.0, 2.0])
    assert np.allclose(sampler.rank_estimate(raw), [1.0, 0.0, 0.5])
    flat = np.full(4, 2.0)
    assert np.allclose(sampler.rank_estimate(flat), np.arange(4) / 4)


def test_euler_step_coords_and_structure(mol_model):
    net = mol_model.net
    rng = np.random.default_rng(31)
    latent = MoleculeBatch.pack([sample_molecular_noise(6, mol_model.priors,
                                                        net.cfg.n_bond_classes, rng)])
    ranks = np.arange(6) / 6
    out = guided_forward(net, latent, 1.0, ranks, 1.0)
    stepped, _ = sampler.euler_step(net, latent, 1.0, 0.5, ranks, 1.0,
                                    np.random.default_rng(32))
    stepped = stepped.unpack()[0]
    assert np.allclose(stepped.coords,
                       np.clip(latent.coords - 0.5 * out["velocity"], -1e3, 1e3))
    assert np.array_equal(stepped.bond_idx, stepped.bond_idx.T)
    assert np.all(np.diag(stepped.bond_idx) == 0)
    with pytest.raises(ValueError):
        sampler.euler_step(net, latent, 0.5, 0.5, ranks, 1.0, rng)
    with pytest.raises(ValueError):
        sampler.euler_step(net, latent, 0.5, 0.7, ranks, 1.0, rng)


def test_zero_field_single_step_reproduces_prior(mol_model):
    # with the velocity head zeroed, one Euler step leaves coordinates at the
    # prior draw, so pooled sample coords match direct prior draws
    import copy

    model = copy.deepcopy(mol_model)
    model.net.head_vel.data[:] = 0.0
    cfg = SampleConfig(steps=1, regime="a", seed=17)
    mols, _ = sampler.sample(model, 6, 60, cfg)
    pooled = np.concatenate([m.coords for m in mols]).ravel()

    rng = np.random.default_rng(1234)
    direct = np.concatenate([
        priors_mod.sample_rank_gaussian(model.priors["coord"], np.arange(6) / 6, rng)
        for _ in range(60)
    ]).ravel()
    assert ks_2samp(pooled, direct).pvalue > 0.001


def test_isotropic_prior_override(mol_model):
    cfg = SampleConfig(steps=1, prior="isotropic", seed=8)
    mols, _ = sampler.sample(mol_model, 6, 2, cfg)
    assert len(mols) == 2
    iso = sampler._isotropic_coord_prior(mol_model.priors["coord"])
    assert np.allclose(iso.bin_means, 0.0)
    assert np.allclose(iso.bin_stds, iso.bin_stds.ravel()[0])
    pooled_var = float((mol_model.priors["coord"].bin_stds ** 2).mean())
    assert abs(iso.bin_stds.ravel()[0] ** 2 - pooled_var) < 1e-12


def test_sample_vectors_matches_manual_integration(vec_model):
    from gaugeflow.flowcore.training import integrate_vector_field

    cfg = SampleConfig(steps=6, seed=13)
    out = sampler.sample_vectors(vec_model, 20, cfg)
    rng = np.random.default_rng(13)
    z1 = priors_mod.sample_gaussian(vec_model.priors["noise"], 20, rng)
    assert np.array_equal(out, integrate_vector_field(vec_model.net, z1, 6))


def test_haar_randomize_none_is_identity():
    mols = [random_molecule(np.random.default_rng(40), 5)]
    assert sampler.haar_randomize(mols, "none", np.random.default_rng(0)) is mols
    with pytest.raises(ValueError):
        sampler.haar_randomize(mols, "so3", np.random.default_rng(0))


def test_haar_randomize_preserves_invariants():
    rng = np.random.default_rng(41)
    mols = [random_molecule(rng, 7) for _ in range(5)]

    def dist_multiset(m):
        d = np.linalg.norm(m.coords[:, None] - m.coords[None, :], axis=-1)
        return np.sort(d[np.triu_indices(m.n_atoms, k=1)])

    for group in ("perm", "perm_so3"):
        out = sampler.haar_randomize(mols, group, np.random.default_rng(42))
        for m, o in zip(mols, out):
            assert sorted(m.atom_types.tolist()) == sorted(o.atom_types.tolist())
            assert np.allclose(dist_multiset(m), dist_multiset(o), atol=1e-9)
        if group == "perm":
            # orientation untouched: coordinate multiset identical
            for m, o in zip(mols, out):
                assert np.allclose(np.sort(m.coords.ravel()), np.sort(o.coords.ravel()))


def test_finite_group_randomize_stays_on_orbit():
    rng = np.random.default_rng(43)
    spec = symgroup.c4_group()
    z = np.tile([1.0, 2.0], (500, 1))
    out = sampler.finite_group_randomize(z, spec, rng)
    images = {tuple(np.round(row, 9)) for row in out}
    expect = {tuple(np.round(g @ np.array([1.0, 2.0]), 9)) for g in spec.elements}
    assert images == expect
    assert np.allclose(np.linalg.norm(out, axis=1), np.hypot(1.0, 2.0))
