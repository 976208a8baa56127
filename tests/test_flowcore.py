"""Path construction, training loop determinism, checkpoints, toy data."""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CHECKPOINT_DAMAGE, assert_frozen, damage_checkpoint, random_molecule
from gaugeflow import coupling, sampler
from gaugeflow.flowcore import tape, toydata, training
from gaugeflow.flowcore.nets import CanonLiteConfig, CanonLiteNet, ParamBuffer, VectorFieldMLP
from gaugeflow.flowcore.tape import Tensor
from gaugeflow.flowcore.training import (
    EMA,
    Adam,
    FlowModel,
    TrainConfig,
    TrainingDiverged,
    energy_distance,
    integrate_vector_field,
    interpolate,
    mix_categorical,
    rank_noise,
    sample_times,
    trace_to_csv,
    train,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def tiny_cfg(**kw):
    """A small config, read through TrainConfig.from_dict as a --config file
    is, so a key TrainConfig lacks is a ConfigError naming it."""
    base = dict(epochs=2, steps_per_epoch=4, batch_size=32, warmup_steps=5, seed=0)
    base.update(kw)
    return TrainConfig.from_dict(base)


# ---------------------------------------------------------------------------
# paths


def test_interpolate_endpoints_and_target():
    rng = np.random.default_rng(0)
    z0 = rng.standard_normal((16, 3))
    z1 = rng.standard_normal((16, 3))
    path = interpolate(z0, z1, np.zeros(16), sigma=0.0, rng=rng)
    assert np.allclose(path.z_t, z0)
    path = interpolate(z0, z1, np.ones(16), sigma=0.0, rng=rng)
    assert np.allclose(path.z_t, z1)
    assert np.allclose(path.target_velocity, z1 - z0)


def test_interpolate_rejects_out_of_range_times():
    z = np.zeros((4, 2))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        interpolate(z, z, np.array([0.5, -0.01, 0.5, 0.5]), 0.0, rng)
    with pytest.raises(ValueError):
        interpolate(z, z, np.array([1.2, 0.0, 0.5, 0.5]), 0.0, rng)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_interpolate_noise_scale(seed):
    rng = np.random.default_rng(seed)
    z = np.zeros((4000, 2))
    path = interpolate(z, z, np.full(4000, 0.5), sigma=0.2, rng=rng)
    assert abs(path.z_t.std() - 0.2) < 0.02


def test_sample_times_ranges():
    rng = np.random.default_rng(1)
    t = sample_times(5000, rng)
    assert t.min() >= 0.0 and t.max() <= 1.0
    # Beta(2,1) has mean 2/3, which separates it from uniform
    assert abs(sample_times(20000, rng).mean() - 2 / 3) < 0.02


def test_mix_categorical_keep_rates():
    rng = np.random.default_rng(2)
    data = np.zeros(20000, dtype=np.int64)
    noise = np.ones(20000, dtype=np.int64)
    assert mix_categorical(data, noise, 0.0, rng).sum() == 0
    assert mix_categorical(data, noise, 1.0, rng).sum() == 20000
    frac = mix_categorical(data, noise, 0.3, rng).mean()
    assert abs(frac - 0.3) < 0.02


def test_rank_noise_exact_at_unit_time():
    rng = np.random.default_rng(3)
    ranks = np.linspace(0, 1, 11)
    assert np.array_equal(rank_noise(ranks, 1.0, 0.5, rng), ranks)
    jittered = rank_noise(ranks, 0.0, 0.5, rng)
    assert not np.allclose(jittered, ranks)


# ---------------------------------------------------------------------------
# metrics


def test_energy_distance_properties():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((300, 2))
    b = rng.standard_normal((300, 2)) + 5.0
    assert abs(energy_distance(a, a)) < 1e-12
    assert energy_distance(a, b) > 1.0
    assert abs(energy_distance(a, b) - energy_distance(b, a)) < 1e-12
    # same distribution, disjoint draws: small but nonnegative up to noise
    c = rng.standard_normal((300, 2))
    assert energy_distance(a, c) < 0.1


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_energy_distance_rounds_as_the_broadcast(d):
    # the reference builds the (n, m, d) difference array and sums its squares
    # over the last axis; below 8 dimensions the values are bitwise equal
    def mean_cross(x, y):
        return float(np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(-1)).mean())

    rng = np.random.default_rng(d)
    scale = 10.0 ** rng.uniform(-4, 4, d)
    a, b = rng.standard_normal((70, d)) * scale, rng.standard_normal((50, d)) * scale + 1.0
    want = 2.0 * mean_cross(a, b) - mean_cross(a, a) - mean_cross(b, b)
    assert energy_distance(a, b) == want


def test_integrate_vector_field_matches_manual_euler():
    net = VectorFieldMLP(2, rng=np.random.default_rng(5))
    z1 = np.random.default_rng(6).standard_normal((10, 2))
    out = integrate_vector_field(net, z1, 4)
    z = z1.copy()
    for k in (4, 3, 2, 1):
        v = net(z, np.full(10, k / 4)).data
        z = z + ((k - 1) / 4 - k / 4) * v
    assert np.allclose(out, z)
    with pytest.raises(ValueError):
        integrate_vector_field(net, z1, 0)


# ---------------------------------------------------------------------------
# optimizer / EMA


def test_adam_warmup_scales_first_step():
    p = Tensor(np.zeros(1), requires_grad=True)
    p.grad = np.ones(1)
    buffer = ParamBuffer({"p": p})
    buffer.collect_grads()
    opt = Adam(buffer, lr=0.1, warmup_steps=10)
    opt.step()
    # with a constant gradient, mhat / sqrt(vhat) = 1, so the move is lr_t
    assert abs(abs(p.data[0]) - 0.01) < 1e-6


def test_ema_shadow_update():
    # update t (from 0) uses the decay min(decay, (1 + t) / (10 + t))
    p = Tensor(np.array([1.0]), requires_grad=True)
    ema = EMA(ParamBuffer({"p": p}), decay=0.9)
    want = 1.0
    for t, value in enumerate(np.linspace(2.0, 3.0, 100)):
        p.data[...] = value
        ema.update()
        d = min(0.9, (1 + t) / (10 + t))
        want = d * want + (1 - d) * value
        assert np.allclose(ema.state()["p"], want)


def test_ema_follows_a_short_run():
    # without a warm-up the shadow of a weight moved from 0 to 1 would read
    # 1 - 0.999^10 = 0.01 after ten updates at the default decay
    p = Tensor(np.zeros(1), requires_grad=True)
    ema = EMA(ParamBuffer({"p": p}), decay=0.999)
    p.data[...] = 1.0
    for _ in range(10):
        ema.update()
    assert ema.state()["p"][0] >= 0.5


def test_adam_keeps_an_unreached_parameter_bitwise():
    # a parameter the backward pass did not reach (CanonLite's fake_pe in a
    # batch that drops no PE) keeps its value and both moments
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    buffer = ParamBuffer({"a": a, "b": b})
    opt = Adam(buffer, lr=0.1)
    for _ in range(2):
        a.grad, b.grad = rng.standard_normal((3, 2)), rng.standard_normal(4)
        buffer.collect_grads()
        opt.step()
    m, v = buffer.views(opt.m), buffer.views(opt.v)
    before = [x.copy() for x in (b.data, m["b"], v["b"], a.data, m["a"])]
    a.grad, b.grad = rng.standard_normal((3, 2)), None
    buffer.collect_grads()
    opt.step()
    assert buffer.unreached == [buffer.slices["b"]]
    assert np.all(buffer.views(buffer.grad)["b"] == 0.0)
    for got, want in zip((b.data, m["b"], v["b"]), before):
        assert got.tobytes() == want.tobytes()
    assert not np.array_equal(a.data, before[3]) and not np.array_equal(m["a"], before[4])


def assert_packed(net):
    """Every parameter is a view into the net's one buffer, and they tile it."""
    buffer, params = net.buffer, net.parameters()
    assert buffer.params.keys() == params.keys()
    assert sum(p.data.size for p in params.values()) == buffer.data.size
    for k, p in params.items():
        assert p.data.base is buffer.data and np.shares_memory(p.data, buffer.data)
        assert p.data.dtype == buffer.data.dtype == tape.compute_dtype()
    start = 0
    for p in params.values():
        assert p.data.ctypes.data == buffer.data[start:].ctypes.data
        start += p.data.size


def test_parameters_stay_in_one_buffer(tmp_path):
    vec, _ = train(np.random.default_rng(12).standard_normal((64, 2)), tiny_cfg())
    mol, _ = train(mol_set(n_mols=3, n_atoms=4), tiny_cfg(epochs=1, batch_size=2))
    for model in (vec, mol):
        assert_packed(model.net)
        model.save(tmp_path / "m.json")
        loaded = FlowModel.load(tmp_path / "m.json")
        assert_packed(loaded.net)
        model.load_ema()
        assert_packed(model.net)
        for k, p in model.parameters().items():
            assert np.array_equal(p.data, model.ema[k])
        loaded.load_ema()
        assert_packed(loaded.net)


def test_deepcopy_keeps_the_buffer_packed():
    # the copied parameters are views of the copy's own buffer, so Adam on the
    # copy moves the copy's weights and leaves the original's bits alone
    vec, _ = train(np.random.default_rng(12).standard_normal((64, 2)), tiny_cfg())
    mol, _ = train(mol_set(n_mols=3, n_atoms=4), tiny_cfg(epochs=1, batch_size=2))
    for model in (vec, mol):
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        dup = copy.deepcopy(model)
        assert_packed(dup.net)
        assert dup.net.buffer.params.keys() == before.keys()
        assert not np.shares_memory(dup.net.buffer.data, model.net.buffer.data)
        for p in dup.parameters().values():
            p.grad = np.ones_like(p.data)
        dup.net.buffer.collect_grads()
        Adam(dup.net.buffer, lr=0.1).step()
        for k, p in dup.parameters().items():
            assert not np.array_equal(p.data, before[k])
        for k, p in model.parameters().items():
            assert p.data.tobytes() == before[k].tobytes()
        assert_packed(model.net)


# ---------------------------------------------------------------------------
# training loops


def test_vector_training_is_bitwise_deterministic():
    data = toydata.c4_blobs(160, np.random.default_rng(7))
    model_a, trace_a = train(data, tiny_cfg())
    model_b, trace_b = train(data, tiny_cfg())
    assert trace_a == trace_b
    pa, pb = model_a.parameters(), model_b.parameters()
    for k in pa:
        assert np.array_equal(pa[k].data, pb[k].data)
    assert {"epoch", "loss", "val_loss", "val_energy_distance"} <= set(trace_a[0])
    assert model_a.step == tiny_cfg().epochs * tiny_cfg().steps_per_epoch


def _digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for k in sorted(arrays):
        h.update(k.encode())
        h.update(np.ascontiguousarray(arrays[k]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 5])
def test_exact_ot_training_is_bitwise_deterministic(seed):
    # batches of canonical data drawn with replacement hold identical rows,
    # the ties the OT solve must break the same way on every run
    data = toydata.sector_canonicalize(toydata.c4_blobs(400, np.random.default_rng(seed)))[0]
    cfg = dict(ot_mode="exact", seed=seed, batch_size=128)
    runs = [train(data, tiny_cfg(**cfg))[0] for _ in range(2)]
    params = [_digest({k: p.data for k, p in m.parameters().items()}) for m in runs]
    emas = [_digest(m.ema) for m in runs]
    assert params[0] == params[1]
    assert emas[0] == emas[1]


def test_vector_loss_decreases_on_easy_target():
    data = np.random.default_rng(8).normal(3.0, 0.1, (256, 2))
    _, trace = train(data, tiny_cfg(epochs=8, steps_per_epoch=8, lr=3e-3))
    assert trace[-1]["loss"] < trace[0]["loss"]


def test_zero_epochs_returns_empty_trace():
    data = np.random.default_rng(9).standard_normal((64, 2))
    model, trace = train(data, tiny_cfg(epochs=0))
    assert trace == []
    assert model.step == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_context():
    data = np.full((64, 2), np.inf)
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(data, tiny_cfg(epochs=1, steps_per_epoch=1))


def test_train_rejects_unknown_data():
    with pytest.raises(TypeError):
        train("blobs", tiny_cfg())
    with pytest.raises(TypeError):
        train([1, 2, 3], tiny_cfg())


def test_checkpoint_roundtrip_vectors(tmp_path):
    data = toydata.c4_blobs(128, np.random.default_rng(10))
    model, _ = train(data, tiny_cfg(epochs=1))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = FlowModel.load(path)
    assert loaded.kind == "vector_field"
    assert loaded.train_config == model.train_config
    for k, p in model.parameters().items():
        assert np.array_equal(loaded.parameters()[k].data, p.data)
        assert np.array_equal(loaded.ema[k], model.ema[k])
    # EMA load overwrites live weights
    loaded.load_ema()
    for k, p in loaded.parameters().items():
        assert np.array_equal(p.data, model.ema[k])


def test_checkpoint_rejects_bad_version(tmp_path):
    import json

    data = np.random.default_rng(11).standard_normal((64, 2))
    model, _ = train(data, tiny_cfg(epochs=0))
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        FlowModel.load(path)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_checkpoint_refuses_older_versions(tmp_path, version):
    # version 1 predates the coordinate scale and the bounded coordinate
    # weights, 2 stored arrays as decimal lists and 3 the last CanonLite
    # layer's rank weights; only the current format loads
    import json

    model, _ = train(mol_set(n_mols=3, n_atoms=4), tiny_cfg(epochs=0))
    path = tmp_path / "mol.json"
    model.save(path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == training.CHECKPOINT_VERSION == 4
    assert doc["coord_scale"] == model.coord_scale
    doc["format_version"] = version
    if version == 1:
        del doc["coord_scale"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"version {version}: .* reads version 4 only"):
        FlowModel.load(path)


@pytest.mark.parametrize("scale", [0.0, -1.0, None, "2"])
def test_checkpoint_rejects_bad_coord_scale(tmp_path, scale):
    import json

    model, _ = train(mol_set(n_mols=3, n_atoms=4), tiny_cfg(epochs=0))
    path = tmp_path / "mol.json"
    model.save(path)
    doc = json.loads(path.read_text())
    doc["coord_scale"] = scale
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="coord_scale"):
        FlowModel.load(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_checkpoint_round_trip_is_bit_equal(tmp_path, dtype):
    import json

    with tape.precision(dtype):
        model, _ = train(mol_set(n_mols=4, n_atoms=5), tiny_cfg(epochs=1, steps_per_epoch=2,
                                                                batch_size=2))
        path = tmp_path / "mol.json"
        model.save(path)
        loaded = FlowModel.load(path)
    assert loaded.coord_scale == model.coord_scale
    want = np.dtype(dtype).newbyteorder("<").str
    doc = json.loads(path.read_text())
    for k, p in model.parameters().items():
        got = loaded.parameters()[k].data
        assert doc["params"][k]["dtype"] == doc["ema"][k]["dtype"] == want
        assert p.data.dtype == got.dtype == loaded.ema[k].dtype == dtype
        assert np.array_equal(got, p.data)
        assert np.array_equal(loaded.ema[k], model.ema[k])


def test_coordinates_enter_the_net_at_unit_scale():
    mols = mol_set(n_mols=6, n_atoms=5)
    scale = training.fit_coord_scale(mols)
    coords = np.concatenate([m.coords for m in mols])
    assert scale == pytest.approx(np.sqrt(np.mean(coords ** 2)))
    vocab = training.build_vocab(mols)
    encoded = training.encode_molecules(mols, vocab, scale)
    assert np.allclose(encoded.coords * scale, coords)
    back = training.decode_molecules(encoded, vocab, scale)
    assert np.allclose(back[0].coords, mols[0].coords)
    model, _ = train(mols, tiny_cfg(epochs=0))
    assert model.coord_scale == scale
    # the coordinate prior is fitted to the scaled coordinates
    priors = training.fit_molecular_priors(encoded, vocab, tiny_cfg(prior_mode="isotropic"))
    assert np.allclose(priors["coord"].bin_stds, (coords / scale).std())
    origin = [random_molecule(np.random.default_rng(0), 1)]
    origin[0].coords[:] = 0.0
    assert training.fit_coord_scale(origin) == 1.0


def test_non_finite_gradient_fails_before_the_update(monkeypatch):
    # a float32 overflow in backward shows as an inf gradient with a finite
    # loss; training must stop there, before Adam or the EMA see it
    params, before = {}, {}
    real_zero, real_backward = tape.zero_grads, tape.backward

    def capturing_zero(p):
        params.update(p)
        before.update({k: t.data.copy() for k, t in p.items()})
        real_zero(p)

    def overflowing_backward(root):
        real_backward(root)
        params["net.layers.0.weight"].grad[0, 0] = np.inf

    monkeypatch.setattr(tape, "zero_grads", capturing_zero)
    monkeypatch.setattr(tape, "backward", overflowing_backward)
    data = np.random.default_rng(3).standard_normal((64, 2))
    with pytest.raises(TrainingDiverged, match=r"epoch 0 step 0: grad_norm=inf"):
        train(data, tiny_cfg(epochs=2, steps_per_epoch=3))
    for k, t in params.items():
        assert np.array_equal(t.data, before[k])


@pytest.mark.parametrize("group, key, value", CHECKPOINT_DAMAGE)
def test_checkpoint_rejects_entries_that_do_not_fit(tmp_path, group, key, value):
    import json

    model, _ = train(mol_set(n_mols=3, n_atoms=4), tiny_cfg(epochs=0))
    path = tmp_path / "mol.json"
    model.save(path)
    path.write_text(json.dumps(damage_checkpoint(json.loads(path.read_text()),
                                                 group, key, value)))
    with pytest.raises(ValueError, match=key):
        FlowModel.load(path)


@pytest.mark.parametrize("edit", [
    lambda priors: priors.pop("noise"),
    lambda priors: priors.update(coord=priors["noise"]),
    lambda priors: priors.update(noise=[]),
    lambda priors: priors["noise"].update(mean=[0.0, 0.0, 0.0]),          # 3-D, the net is 2-D
    lambda priors: priors["noise"].update(sqrt=[[float("nan"), 0.0], [0.0, 1.0]]),
    lambda priors: priors["noise"].update(kind="rank_gaussian"),
    lambda priors: priors["noise"].update(cov=[[100.0, 0.0], [0.0, 100.0]]),   # sqrt stays I
    lambda priors: priors["noise"].update(cov=[[1.0, 2.0], [2.0, 1.0]]),
    lambda priors: priors["noise"].update(cov=[[1.0, 0.0, 0.0]] * 3)],
    ids=["missing", "extra", "not-an-object", "wrong-dimension", "nan", "wrong-kind",
         "cov-disagrees-with-sqrt", "cov-not-positive-definite", "cov-wrong-shape"])
def test_vector_checkpoint_needs_exactly_its_noise_prior(tmp_path, edit):
    import json

    model, _ = train(np.random.default_rng(13).standard_normal((64, 2)), tiny_cfg(epochs=0))
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    edit(doc["priors"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="noise"):
        FlowModel.load(path)


def test_trace_to_csv(tmp_path):
    rows = [{"epoch": 0, "loss": 1.5}, {"epoch": 1, "loss": 0.5}]
    path = tmp_path / "trace.csv"
    trace_to_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 3
    with pytest.raises(ValueError):
        trace_to_csv([], tmp_path / "empty.csv")


# ---------------------------------------------------------------------------
# molecules


def mol_set(n_mols=6, n_atoms=5, seed=12):
    rng = np.random.default_rng(seed)
    return [random_molecule(rng, n_atoms, charged=True) for _ in range(n_mols)]


def _assert_same_molecules(got, want):
    assert len(got) == len(want)
    for back, m in zip(got, want):
        assert np.array_equal(back.atom_types, m.atom_types)
        assert np.array_equal(back.charges, m.charges)
        assert np.array_equal(back.bonds, m.bonds)
        assert np.allclose(back.coords, m.coords)


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(12)
    mols = [random_molecule(rng, n, charged=True) for n in (5, 1, 8, 3)]
    vocab = training.build_vocab(mols)
    encoded = training.encode_molecules(mols, vocab, 2.0)
    assert encoded.n_atoms == 17 and encoded.layout.sizes.tolist() == [5, 1, 8, 3]
    _assert_same_molecules(training.decode_molecules(encoded, vocab, 2.0), mols)
    picked = encoded.select([2, 0, 2])
    _assert_same_molecules(training.decode_molecules(picked, vocab, 2.0),
                           [mols[2], mols[0], mols[2]])
    # a class the vocab does not hold is refused, not mapped to a neighbour
    for field, value, what in (("atom_types", 92, "atom"), ("charges", 3, "charge")):
        odd = mols[0].copy()
        getattr(odd, field)[0] = value
        with pytest.raises(ValueError, match=f"{what} class {value} is not in the vocab"):
            training.encode_molecules([mols[1], odd], vocab, 1.0)


def test_molecular_priors_and_noise_shapes():
    mols = mol_set()
    cfg = tiny_cfg()
    vocab = training.build_vocab(mols)
    encoded = training.encode_molecules(mols, vocab, 1.0)
    priors = training.fit_molecular_priors(encoded, vocab, cfg)
    noise = training.sample_molecular_noise([7, 3], priors, 5, np.random.default_rng(0))
    assert noise.coords.shape == (10, 3)
    assert noise.bond_idx.shape == (21 + 3,)
    assert np.any(noise.bond_idx != 0)


BUILDERS = ["sample_molecular_noise", "draw_path", "euler_step_cfg0", "euler_step_cfg1",
            "euler_step_cfg2", "pcs_step", "select"]


@pytest.mark.parametrize("builder", BUILDERS)
def test_batch_builders_write_symmetric_bonds_with_empty_diagonal(builder):
    # every builder writes each molecule's upper-triangle bond classes;
    # decode_molecules mirrors them into matrices that MoleculeState checks
    # (symmetric, empty diagonal, known orders)
    mols = mol_set()
    cfg = tiny_cfg()
    vocab = training.build_vocab(mols)
    encoded = training.encode_molecules(mols, vocab, 1.0)
    priors = training.fit_molecular_priors(encoded, vocab, cfg)
    rng = np.random.default_rng(0)
    noise = training.sample_molecular_noise([7, 3, 7, 1], priors, 5, rng)
    ranks = training.index_ranks(noise.layout.sizes)
    net = CanonLiteNet(CanonLiteConfig(n_atom_classes=len(vocab["atom_classes"]),
                                       n_charge_classes=len(vocab["charge_classes"])),
                       rng=np.random.default_rng(1))
    if builder == "sample_molecular_noise":
        batch = noise
    elif builder == "draw_path":
        batch = training.draw_path(encoded, priors, 5, cfg, rng).z_t
    elif builder.startswith("euler_step"):
        batch, _ = training.euler_step(net, noise, 1.0, 0.5, ranks,
                                       float(builder[-1]), rng)
    elif builder == "pcs_step":
        counts = dict.fromkeys(("canonicalize_calls", "degenerate_steps",
                                "degenerate_orderings"), 0)
        batch = sampler.pcs_step(noise, vocab, 1.3, counts)
        assert counts["canonicalize_calls"] == 4
    else:
        batch = encoded.select([2, 0, 2])
    sizes = batch.layout.sizes
    assert batch.bond_idx.shape == (int((sizes * (sizes - 1) // 2).sum()),)
    decoded = training.decode_molecules(batch, vocab, 1.0)
    assert [m.n_atoms for m in decoded] == sizes.tolist()
    upper = [m.bonds[np.triu_indices(m.n_atoms, k=1)] for m in decoded]
    assert np.array_equal(np.concatenate(upper),
                          np.asarray(vocab["bond_classes"])[batch.bond_idx])


def test_isotropic_prior_mode_centers_noise():
    mols = mol_set(n_mols=10)
    cfg = tiny_cfg(prior_mode="isotropic")
    vocab = training.build_vocab(mols)
    priors = training.fit_molecular_priors(training.encode_molecules(mols, vocab, 1.0), vocab, cfg)
    assert np.allclose(priors["coord"].bin_means, 0.0)
    stds = priors["coord"].bin_stds
    assert np.allclose(stds, stds.ravel()[0])


def test_pe_drop_is_rank_blind():
    mols = mol_set()
    vocab = training.build_vocab(mols)
    cfg = CanonLiteConfig(
        n_atom_classes=len(vocab["atom_classes"]),
        n_charge_classes=len(vocab["charge_classes"]),
    )
    net = CanonLiteNet(cfg, rng=np.random.default_rng(13))
    latent = training.encode_molecules(mols[:1], vocab, 1.0)
    n = latent.n_atoms
    a = net(latent, 0.4, np.arange(n) / n, pe_dropped=True)
    b = net(latent, 0.4, np.arange(n)[::-1] / n, pe_dropped=True)
    assert np.max(np.abs(a.velocity.data - b.velocity.data)) < 1e-9
    assert np.max(np.abs(a.atom_logits.data - b.atom_logits.data)) < 1e-9
    # with the encoding on, the same rank shuffle must change the output
    c = net(latent, 0.4, np.arange(n) / n, pe_dropped=False)
    d = net(latent, 0.4, np.arange(n)[::-1] / n, pe_dropped=False)
    assert np.max(np.abs(c.velocity.data - d.velocity.data)) > 1e-6


def test_molecular_training_and_checkpoint(tmp_path):
    mols = mol_set(n_mols=6, n_atoms=5)
    cfg = tiny_cfg(epochs=1, steps_per_epoch=2, batch_size=2)
    model, trace = train(mols, cfg)
    assert model.kind == "canonlite"
    assert len(trace) == 1
    row = trace[0]
    assert {"loss", "val_loss", "val_energy_distance", "loss_coord",
            "loss_type", "loss_bond", "loss_charge", "loss_rank"} <= set(row)
    assert all(np.isfinite(v) for v in row.values())

    path = tmp_path / "mol.json"
    model.save(path)
    loaded = FlowModel.load(path)
    assert loaded.kind == "canonlite"
    assert loaded.meta["vocab"] == model.meta["vocab"]
    for k, p in model.parameters().items():
        assert np.array_equal(loaded.parameters()[k].data, p.data)
    assert set(loaded.priors) == {"coord", "atom", "charge"}


def _draw(mols, cfg, seed=40):
    vocab = training.build_vocab(mols)
    encoded = training.encode_molecules(mols, vocab, 1.0)
    priors = training.fit_molecular_priors(encoded, vocab, cfg)
    return training.draw_path(encoded, priors, 5, cfg, np.random.default_rng(seed)), vocab


def _single(path, b):
    """Molecule b of a drawn batch as a one-molecule draw."""
    lay = path.data.layout
    rows = slice(lay.node_start[b], lay.node_start[b] + lay.sizes[b])
    return training.MolecularPath(path.data.select([b]), path.z_t.select([b]), path.t[b:b + 1],
                                  path.target_velocity[rows], path.ranks[rows],
                                  path.pe_dropped[b:b + 1])


def _loss_and_grads(net, path, cfg):
    params = net.parameters()
    tape.zero_grads(params)
    total, parts = training.molecular_fm_loss(net, path, cfg)
    tape.backward(total)
    return total.item(), parts, {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                                 for k, p in params.items()}


@pytest.mark.usefixtures("float64_tape")
def test_packed_training_step_equals_mean_of_single_steps():
    rng = np.random.default_rng(41)
    mols = [random_molecule(rng, n, charged=True) for n in (1, 3, 6, 9)]
    cfg = tiny_cfg(p_drop=0.5)
    path, vocab = _draw(mols, cfg)
    assert 0 < path.pe_dropped.sum() < len(mols)      # both PE branches in one batch
    net = CanonLiteNet(CanonLiteConfig(n_atom_classes=len(vocab["atom_classes"]),
                                       n_charge_classes=len(vocab["charge_classes"])),
                       rng=np.random.default_rng(42))
    loss, parts, grads = _loss_and_grads(net, path, cfg)
    singles = [_loss_and_grads(net, _single(path, b), cfg) for b in range(len(mols))]
    assert abs(loss - np.mean([s[0] for s in singles])) <= 1e-10 * max(1.0, abs(loss))
    for k, v in parts.items():
        assert abs(v - np.mean([s[1][k] for s in singles])) <= 1e-10 * max(1.0, abs(v))
    assert singles[0][1]["loss_bond"] == 0.0          # one atom, no bond to predict
    for k, g in grads.items():
        want = np.mean([s[2][k] for s in singles], axis=0)
        assert np.abs(g - want).max() <= 1e-10 * max(1.0, np.abs(want).max()), k


def test_float32_is_the_default_end_to_end():
    # no float64 constant, scale, sparse matrix or loss weight upcasts the chain
    rng = np.random.default_rng(44)
    mols = [random_molecule(rng, n, charged=True) for n in (1, 3, 6)]
    cfg = tiny_cfg(p_drop=0.5)
    path, vocab = _draw(mols, cfg)
    net_cfg = CanonLiteConfig(n_atom_classes=len(vocab["atom_classes"]),
                              n_charge_classes=len(vocab["charge_classes"]))
    losses = {}
    for dtype in (np.float32, np.float64):
        with tape.precision(dtype):
            net = CanonLiteNet(net_cfg, rng=np.random.default_rng(45))
            params = net.parameters()
            tape.zero_grads(params)
            total, _ = training.molecular_fm_loss(net, path, cfg)
            tape.backward(total)
        assert total.data.dtype == dtype
        assert all(p.data.dtype == dtype and (p.grad is None or p.grad.dtype == dtype)
                   for p in params.values())
        losses[dtype] = total.item()
    assert tape.compute_dtype() == np.float32
    assert losses[np.float32] == pytest.approx(losses[np.float64], rel=1e-5)


def test_single_atom_molecules_train():
    rng = np.random.default_rng(43)
    one_atom = [random_molecule(rng, 1) for _ in range(3)]
    cfg = tiny_cfg(epochs=1, steps_per_epoch=2, batch_size=2)
    path, vocab = _draw(one_atom, cfg)
    net = CanonLiteNet(CanonLiteConfig(n_atom_classes=len(vocab["atom_classes"]),
                                       n_charge_classes=len(vocab["charge_classes"])))
    total, parts = training.molecular_fm_loss(net, path, cfg)
    assert parts["loss_bond"] == 0.0 and np.isfinite(total.item())
    # a mixed set whose batches draw the one-atom molecules
    mols = one_atom + [random_molecule(rng, 4) for _ in range(3)]
    model, trace = train(mols, tiny_cfg(epochs=2, steps_per_epoch=3, batch_size=4))
    assert all(np.isfinite(v) for row in trace for v in row.values())


# keys retired from TrainConfig, at their old defaults: nine are fixed
# constants now, and ot_anneal = true is ot_mode "anneal". A config that sets
# one is refused as an unknown key.
RETIRED = {"beta1": 0.9, "beta2": 0.999, "ema_decay": 0.999, "time_dist": "beta",
           "coord_noise": 0.2, "rank_noise": 0.05, "lambda_type": 0.2, "lambda_bond": 1.0,
           "lambda_charge": 1.0, "ot_anneal": False}


def test_retired_keys_are_constants_at_their_old_defaults():
    assert training.ADAM_BETAS == (RETIRED["beta1"], RETIRED["beta2"])
    assert training.EMA_DECAY == RETIRED["ema_decay"]
    assert (training.COORD_NOISE, training.RANK_NOISE) == (RETIRED["coord_noise"],
                                                           RETIRED["rank_noise"])
    assert (training.LAMBDA_TYPE, training.LAMBDA_BOND, training.LAMBDA_CHARGE) == (
        RETIRED["lambda_type"], RETIRED["lambda_bond"], RETIRED["lambda_charge"])
    assert not set(RETIRED) & {f.name for f in dataclasses.fields(TrainConfig)}
    assert training.OT_MODES == ("none", "exact", "anneal")


def test_annealed_ot_pairs_every_first_epoch_batch_then_fewer(monkeypatch):
    # ot_probability: 1 in epoch 0, 0.5 in epoch 1 of 2
    steps, epochs, paired = 16, [], []
    ot_prob, ot_pair = training._ot_prob, coupling.ot_pair

    def recording_prob(cfg, epoch):
        epochs.append(epoch)
        return ot_prob(cfg, epoch)

    def counted_pair(z0, z1):
        paired.append(epochs[-1])
        return ot_pair(z0, z1)

    monkeypatch.setattr(training, "_ot_prob", recording_prob)
    monkeypatch.setattr(coupling, "ot_pair", counted_pair)
    data = np.random.default_rng(47).standard_normal((64, 2))
    model, _ = train(data, tiny_cfg(ot_mode="anneal", steps_per_epoch=steps))
    assert epochs == [0] * steps + [1] * steps
    assert paired.count(0) == steps
    assert 0 < paired.count(1) < steps
    assert model.train_config.ot_mode == "anneal"


@pytest.mark.parametrize("key, value", [("ot_mode", "exact"), ("ot_mode", "anneal"),
                                        ("ot_anneal", True)])
def test_molecule_training_rejects_vector_only_keys(key, value):
    with pytest.raises(training.ConfigError, match=key):
        train(mol_set(), tiny_cfg(**{key: value}))


@pytest.mark.parametrize("key, value", [
    ("prior_mode", "isotropic"), ("lambda_type", 0.5), ("lambda_bond", 2.0),
    ("lambda_charge", 0.0), ("lambda_rank", 1.0), ("p_drop", 0.0),
    ("rank_noise", 0.1), ("n_rank_bins", 4)])
def test_vector_training_rejects_molecule_only_keys(key, value):
    data = np.random.default_rng(44).standard_normal((64, 2))
    with pytest.raises(ValueError, match=key):
        train(data, tiny_cfg(**{key: value}))


@pytest.mark.parametrize("kw, key", [
    ({"ot_mode": "bogus"}, "ot_mode"),
    ({"ot_mode": "Exact "}, "ot_mode"),
    ({"ot_mode": "sinkhorn"}, "ot_mode"),
    ({"ot_anneal": True}, "ot_anneal"),
    ({"ot_mode": "exact", "batch_size": coupling.MAX_EXACT + 1}, "batch_size")],
    ids=["unknown", "misspelt", "sinkhorn", "anneal-without-ot", "batch-over-max-exact"])
def test_vector_training_rejects_ot_settings_it_would_misread(kw, key):
    data = np.random.default_rng(45).standard_normal((64, 2))
    with pytest.raises(training.ConfigError, match=key):
        train(data, tiny_cfg(**kw))


# values not of their field's type
WRONG_TYPE = {"epochs-fraction": {"epochs": 1.5}, "lr-bool": {"lr": True},
              "ot-mode-none": {"ot_mode": None}}
OUT_OF_RANGE = {
    "prior-mode-unknown": {"prior_mode": "bogus"}, "ot-mode-unknown": {"ot_mode": "Anneal"},
    "epochs-negative": {"epochs": -3}, "steps-zero": {"steps_per_epoch": 0},
    "batch-zero": {"batch_size": 0}, "lr-nan": {"lr": float("nan")},
    "lr-inf": {"lr": float("inf")}, "lr-zero": {"lr": 0.0},
    "warmup-negative": {"warmup_steps": -1}, "p-drop-above-one": {"p_drop": 1.5},
    "lambda-rank-negative": {"lambda_rank": -0.1}, "rank-bins-zero": {"n_rank_bins": 0},
}
# out-of-range values of the retired keys, which tiny_cfg now refuses as unknown keys
RETIRED_OUT_OF_RANGE = {
    "time-dist-unknown": {"time_dist": "gamma"}, "beta1-one": {"beta1": 1.0},
    "beta2-nan": {"beta2": float("nan")}, "ema-above-one": {"ema_decay": 1.5},
    "coord-noise-negative": {"coord_noise": -0.1}, "rank-noise-inf": {"rank_noise": float("inf")},
    "lambda-type-nan": {"lambda_type": float("nan")}, "lambda-bond-negative": {"lambda_bond": -1.0},
    "lambda-charge-inf": {"lambda_charge": float("inf")},
}
BAD_VALUES = {**OUT_OF_RANGE, **WRONG_TYPE, **RETIRED_OUT_OF_RANGE}
# a --config document (tiny_cfg) for either data kind takes every bad value;
# the constructor and dataclasses.replace take those of TrainConfig's own keys
ENTRY_CASES = [pytest.param(kw, kind, id=f"{name}-{kind}")
               for kinds, table in ((("molecule", "vector"), BAD_VALUES),
                                    (("constructor", "replace"), {**OUT_OF_RANGE, **WRONG_TYPE}))
               for name, kw in table.items() for kind in kinds]


@pytest.mark.parametrize("kw, kind", ENTRY_CASES)
def test_training_rejects_out_of_range_values_before_any_work(monkeypatch, kw, kind):
    def no_work(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(training, "_train_vectors", no_work)
    monkeypatch.setattr(training, "_train_molecules", no_work)
    (key,) = kw
    with pytest.raises(training.ConfigError, match=key):
        if kind == "constructor":
            TrainConfig(**kw)
        elif kind == "replace":
            cfg = tiny_cfg()
            assert_frozen(cfg)
            dataclasses.replace(cfg, **kw)
        else:
            data = (np.random.default_rng(46).standard_normal((64, 2)) if kind == "vector"
                    else mol_set())
            train(data, tiny_cfg(**kw))


# ---------------------------------------------------------------------------
# toy data


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_sector_canonicalize_lands_in_sector(seed):
    rng = np.random.default_rng(seed)
    z = 3.0 * rng.standard_normal((200, 2))
    zc, k = toydata.sector_canonicalize(z)
    theta = np.arctan2(zc[:, 1], zc[:, 0])
    assert np.all(theta >= -np.pi / 4 - 1e-12)
    assert np.all(theta < np.pi / 4 + 1e-12)
    # rotating back by +k quarter turns recovers the input
    ang = k * np.pi / 2
    c, s = np.cos(ang), np.sin(ang)
    back = np.stack([c * zc[:, 0] - s * zc[:, 1], s * zc[:, 0] + c * zc[:, 1]], axis=1)
    assert np.allclose(back, z, atol=1e-12)
    # idempotent: canonical points map to themselves with k = 0
    zc2, k2 = toydata.sector_canonicalize(zc)
    assert np.allclose(zc2, zc)
    assert np.all(k2 == 0)


def test_sector_canonicalize_quarter_turn_shift():
    z = np.array([[2.0, 0.1]])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])   # +90 degrees
    zc0, k0 = toydata.sector_canonicalize(z)
    zc1, k1 = toydata.sector_canonicalize(z @ rot.T)
    assert np.allclose(zc0, zc1)
    assert (k1 - k0) % 4 == 1
    # origin stays put
    zc, k = toydata.sector_canonicalize(np.zeros((1, 2)))
    assert np.allclose(zc, 0.0) and k[0] == 0


def test_c4_blobs_orbit_symmetry():
    z = toydata.c4_blobs(40000, np.random.default_rng(14))
    _, k = toydata.sector_canonicalize(z)
    counts = np.bincount(k, minlength=4) / len(k)
    assert np.allclose(counts, 0.25, atol=0.02)
    radii = np.linalg.norm(z, axis=1)
    assert abs(radii.mean() - 2.0) < 0.05
