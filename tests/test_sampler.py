"""Euler sampling, guidance mixing, gauge randomization."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import assert_frozen, random_molecule
from gaugeflow import priors as priors_mod
from gaugeflow import sampler, symgroup
from gaugeflow.flowcore import tape
from gaugeflow.flowcore.training import (FlowModel, TrainConfig, encode_molecules, guided_forward,
                                         index_ranks, sample_molecular_noise, train)
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
    for steps in (0, 2.5, True):        # a fractional count would fail in range()
        with pytest.raises(ValueError, match="steps"):
            SampleConfig(steps=steps)
    with pytest.raises(ValueError):
        SampleConfig(cfg_scale=-0.5)
    for scale in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="cfg_scale"):
            SampleConfig(cfg_scale=scale)
    with pytest.raises(ValueError):
        SampleConfig(regime="c")
    with pytest.raises(ValueError):
        SampleConfig(group="o3")
    with pytest.raises(ValueError):
        SampleConfig(regime="a", canonicalize_mode=True)
    assert SampleConfig().to_dict()["regime"] == "a"
    assert_frozen(SampleConfig())


def test_regime_a_never_canonicalizes(mol_model):
    cfg = SampleConfig(steps=3, regime="a")
    mols, info = sampler.sample(mol_model, 4, 4, cfg, np.random.default_rng(5))
    assert info["canonicalize_calls"] == 0
    assert len(mols) == 4
    assert all(m.n_atoms == 4 for m in mols)


def test_regime_b_canonicalize_mode_counts_calls(mol_model):
    cfg = SampleConfig(steps=3, regime="b", canonicalize_mode=True)
    _, info = sampler.sample(mol_model, 5, 2, cfg, np.random.default_rng(5))
    assert info["canonicalize_calls"] == 2 * 3
    # predict mode keeps the canonicalizer out of the loop
    cfg = SampleConfig(steps=3, regime="b")
    _, info = sampler.sample(mol_model, 5, 2, cfg, np.random.default_rng(5))
    assert info["canonicalize_calls"] == 0


def test_regime_b_canonicalize_mode_feeds_index_ranks(mol_model, monkeypatch):
    # each re-canonicalized state sits in canonical order, so its ranks are
    # the index ranks i/N at every step, bit for bit
    seen, real = [], sampler.euler_step

    def spy(net, batch, t_from, t_to, ranks, cfg_scale, rng):
        seen.append(ranks.copy())
        return real(net, batch, t_from, t_to, ranks, cfg_scale, rng)
    monkeypatch.setattr(sampler, "euler_step", spy)
    sizes = [3, 5, 5, 8]
    cfg = SampleConfig(steps=4, regime="b", canonicalize_mode=True)
    _, info = sampler.sample(mol_model, sizes, 4, cfg, np.random.default_rng(7))
    assert info["canonicalize_calls"] == 4 * 4 and len(seen) == 4
    want = index_ranks(sizes).tobytes()
    assert all(ranks.tobytes() == want for ranks in seen)


def test_regime_b_keeps_a_collapsed_state(mol_model):
    # a zero velocity field on a zero-width coordinate prior puts every atom at
    # the origin, where canonicalization is undefined: each step keeps its
    # state and ranks, is counted, and sampling completes
    import copy

    model = copy.deepcopy(mol_model)
    model.net.head_vel.data[:] = 0.0
    coord = model.priors["coord"]
    model.priors["coord"] = priors_mod.RankBinnedGaussianPrior(np.zeros_like(coord.bin_means),
                                                               np.zeros_like(coord.bin_stds))
    cfg = SampleConfig(steps=3, regime="b", canonicalize_mode=True)
    mols, info = sampler.sample(model, 5, 2, cfg, np.random.default_rng(5))
    assert info["canonicalize_calls"] == 2 * 3
    assert info["degenerate_steps"] == 2 * 3
    assert info["clipped_coords"] == 0
    assert len(mols) == 2 and all(m.n_atoms == 5 for m in mols)
    assert all(np.all(m.coords == 0.0) for m in mols)


def test_clipped_coordinates_are_counted(mol_model):
    import copy

    model = copy.deepcopy(mol_model)
    model.net.head_vel.data *= 1e9
    mols, info = sampler.sample(model, 6, 3, SampleConfig(steps=1), np.random.default_rng(6))
    # the clip acts on the net's unit-scale coordinates; samples come back scaled
    bound = sampler.COORD_CLIP * model.coord_scale
    at_bound = sum(int((np.abs(m.coords) == bound).sum()) for m in mols)
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
    latent = sample_molecular_noise([7], mol_model.priors, net.cfg.n_bond_classes,
                                    np.random.default_rng(33))
    stepped, _ = sampler.euler_step(net, latent, 1.0, 0.0, np.arange(7) / 7, 1.0,
                                    _EdgeRng(34))
    assert np.all(stepped.type_idx == net.cfg.n_atom_classes - 1)
    assert np.all(stepped.charge_idx == net.cfg.n_charge_classes - 1)
    assert stepped.bond_idx.shape == (7 * 6 // 2,)
    assert np.all(stepped.bond_idx == net.cfg.n_bond_classes - 1)


def test_sampling_deterministic_under_seed(mol_model):
    cfg = SampleConfig(steps=4)
    a, _ = sampler.sample(mol_model, 5, 3, cfg, np.random.default_rng(9))
    b, _ = sampler.sample(mol_model, 5, 3, cfg, np.random.default_rng(9))
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.coords, mb.coords)
        assert np.array_equal(ma.atom_types, mb.atom_types)
        assert np.array_equal(ma.bonds, mb.bonds)


def test_per_sample_sizes(mol_model):
    cfg = SampleConfig(steps=2)
    mols, _ = sampler.sample(mol_model, [4, 6, 8], 3, cfg, np.random.default_rng(3))
    assert [m.n_atoms for m in mols] == [4, 6, 8]
    with pytest.raises(ValueError):
        sampler.sample(mol_model, [4, 6], 3, cfg, np.random.default_rng(3))
    for sizes in (0, [4, 0, 6]):
        with pytest.raises(ValueError, match="got 0"):
            sampler.sample(mol_model, sizes, 3, cfg, np.random.default_rng(3))


def test_fractional_sizes_fail_loudly(mol_model):
    cfg = SampleConfig(steps=2)
    with pytest.raises(ValueError, match="whole numbers, got 8.7"):
        sampler.sample(mol_model, 8.7, 2, cfg, np.random.default_rng(3))
    with pytest.raises(ValueError, match="whole numbers, got 6.9"):
        sampler.sample(mol_model, [6.9, 7.2], 2, cfg, np.random.default_rng(3))
    mols, _ = sampler.sample(mol_model, 8.0, 2, cfg, np.random.default_rng(3))
    assert [m.n_atoms for m in mols] == [8, 8]


def test_model_kind_guards(mol_model, vec_model):
    with pytest.raises(ValueError):
        sampler.sample(vec_model, 5, 1, SampleConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        sampler.sample_vectors(mol_model, 4, SampleConfig(), np.random.default_rng(0))


def test_guidance_endpoints_and_mixing(mol_model):
    net = mol_model.net
    rng = np.random.default_rng(30)
    latent = sample_molecular_noise([5], mol_model.priors, net.cfg.n_bond_classes, rng)
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


@pytest.mark.usefixtures("float64_tape")
@pytest.mark.parametrize("w", [1.0, 0.0, 2.0])
def test_packed_guided_heads_equal_single_forwards(mol_model, w):
    # one packed forward (two copies when guidance mixes) against B separate
    # conditional and PE-dropped forwards
    net = mol_model.net
    rng = np.random.default_rng(35)
    sizes = [1, 4, 6]
    batch = sample_molecular_noise(sizes, mol_model.priors, net.cfg.n_bond_classes, rng)
    ranks = [rng.permutation(n) / n for n in sizes]
    packed = guided_forward(net, batch, 0.7, np.concatenate(ranks), w)
    for k, got in packed.items():
        want = []
        for b, r in enumerate(ranks):
            one = batch.select([b])
            cond = getattr(net(one, 0.7, r), k).data
            unc = getattr(net(one, 0.7, r, pe_dropped=True), k).data
            if k == "rank_pred":     # the conditional copy's, when one runs
                want.append(unc if w == 0.0 else cond)
            else:
                want.append(unc + w * (cond - unc))
        want = np.concatenate(want)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max()), k


def test_degenerate_orderings_are_counted(mol_model, monkeypatch):
    real = sampler.canonicalize_stack

    def flagged(*args, **kwargs):
        stack = real(*args, **kwargs)
        return dataclasses.replace(stack, degenerate=np.ones_like(stack.degenerate))
    monkeypatch.setattr(sampler, "canonicalize_stack", flagged)
    cfg = SampleConfig(steps=3, regime="b", canonicalize_mode=True)
    _, info = sampler.sample(mol_model, 5, 4, cfg, np.random.default_rng(5))
    assert info["canonicalize_calls"] == 3 * 4
    assert info["degenerate_orderings"] + info["degenerate_steps"] == 3 * 4
    assert info["degenerate_steps"] == 0


@pytest.mark.usefixtures("float64_tape")
def test_predict_mode_feeds_back_the_conditional_rank_pred(mol_model, monkeypatch):
    # in regime b predict mode, step k + 1 reads step k's conditional-copy
    # rank_pred: the rank head as the net normalizes it, with no second rule
    calls = []
    real = sampler.euler_step

    def spy(net, batch, t_from, t_to, ranks, cfg_scale, rng):
        stepped, rank_pred = real(net, batch, t_from, t_to, ranks, cfg_scale, rng)
        calls.append((batch, t_from, ranks.copy(), rank_pred))
        return stepped, rank_pred
    monkeypatch.setattr(sampler, "euler_step", spy)
    sampler.sample(mol_model, [1, 5, 8], 3, SampleConfig(steps=4, regime="b", cfg_scale=2.0),
                   np.random.default_rng(6))
    assert len(calls) == 4
    assert np.array_equal(calls[0][2], np.concatenate([[0.0], np.arange(5) / 5, np.arange(8) / 8]))
    for (batch, t, ranks, rank_pred), after in zip(calls, calls[1:]):
        assert np.array_equal(after[2], rank_pred)
        cond = mol_model.net(batch, t, ranks).rank_pred.data
        assert np.abs(rank_pred - cond).max() <= 1e-10


def test_euler_step_coords_and_structure(mol_model):
    net = mol_model.net
    rng = np.random.default_rng(31)
    latent = sample_molecular_noise([6], mol_model.priors, net.cfg.n_bond_classes, rng)
    ranks = np.arange(6) / 6
    out = guided_forward(net, latent, 1.0, ranks, 1.0)
    stepped, _ = sampler.euler_step(net, latent, 1.0, 0.5, ranks, 1.0,
                                    np.random.default_rng(32))
    assert np.allclose(stepped.coords,
                       np.clip(latent.coords - 0.5 * out["velocity"], -1e3, 1e3))
    assert stepped.bond_idx.shape == (6 * 5 // 2,)        # one class per pair i < j
    assert np.all((stepped.bond_idx >= 0) & (stepped.bond_idx < net.cfg.n_bond_classes))
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
    mols, _ = sampler.sample(model, 6, 60, SampleConfig(steps=1, regime="a"),
                             np.random.default_rng(17))
    pooled = np.concatenate([m.coords for m in mols]).ravel()

    rng = np.random.default_rng(1234)
    # the prior is fitted in the net's unit-scale coordinates
    direct = model.coord_scale * np.concatenate([
        priors_mod.sample_rank_gaussian(model.priors["coord"], np.arange(6) / 6, rng)
        for _ in range(60)
    ]).ravel()
    assert ks_2samp(pooled, direct).pvalue > 0.001


def test_isotropic_checkpoint_noise_is_zero_mean_at_its_scale(tmp_path):
    # an isotropic-trained checkpoint carries its own prior: one data-std
    # scale and zero means in every rank bin, which sampling draws from as is
    rng = np.random.default_rng(23)
    mols = [random_molecule(rng, 6) for _ in range(8)]
    model, _ = train(mols, TrainConfig(epochs=1, steps_per_epoch=2, batch_size=2, seed=1,
                                       prior_mode="isotropic"))
    model.save(tmp_path / "checkpoint.json")
    model = FlowModel.load(tmp_path / "checkpoint.json")
    coord = model.priors["coord"]
    scale = encode_molecules(mols, model.meta["vocab"], model.coord_scale).coords.std()
    assert np.all(coord.bin_means == 0.0)
    assert np.allclose(coord.bin_stds, scale, rtol=1e-12, atol=0.0)

    model.net.head_vel.data[:] = 0.0      # one Euler step then leaves the noise as drawn
    out, _ = sampler.sample(model, 6, 200, SampleConfig(steps=1), np.random.default_rng(8))
    noise = np.concatenate([m.coords for m in out]).ravel() / model.coord_scale
    assert abs(noise.mean()) < 4 * scale / np.sqrt(noise.size)
    assert noise.std() == pytest.approx(scale, rel=0.05)


def test_sample_vectors_matches_manual_integration(vec_model):
    from gaugeflow.flowcore.training import integrate_vector_field

    out = sampler.sample_vectors(vec_model, 20, SampleConfig(steps=6), np.random.default_rng(13))
    rng = np.random.default_rng(13)
    z1 = priors_mod.sample_gaussian(vec_model.priors["noise"], 20, rng)
    assert np.array_equal(out, integrate_vector_field(vec_model.net, z1, 6))


def test_sample_vectors_records_no_tape_node(vec_model, monkeypatch):
    # the rollout runs with the tape off and gives the values of the same
    # Euler steps run with the tape recording
    z = priors_mod.sample_gaussian(vec_model.priors["noise"], 20, np.random.default_rng(13))
    for k in range(6, 0, -1):
        v = vec_model.net(z, np.full(20, k / 6))
        assert v.requires_grad
        z = z + ((k - 1) / 6 - k / 6) * v.data
    recorded, real = [], tape._recording

    def spy(parents):
        recorded.append(real(parents))
        return recorded[-1]
    monkeypatch.setattr(tape, "_recording", spy)
    out = sampler.sample_vectors(vec_model, 20, SampleConfig(steps=6), np.random.default_rng(13))
    assert recorded and not any(recorded)
    assert np.array_equal(out, z)


@pytest.mark.parametrize("settings", [
    {"regime": "b"}, {"regime": "b", "canonicalize_mode": True}, {"cfg_scale": 3.0},
    {"group": "perm"}, {"group": "perm_so3"}])
def test_sample_vectors_rejects_settings_it_never_reads(vec_model, settings):
    # only steps (and the caller's generator) steer a vector field's rollout
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match=f"sample setting '{next(iter(settings))}' = "):
        sampler.sample_vectors(vec_model, 4, SampleConfig(steps=2, **settings), rng)
    assert sampler.sample_vectors(vec_model, 4, SampleConfig(steps=2), rng).shape == (4, 2)


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
