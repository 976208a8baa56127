"""CanonLite's factorized, packed message block against the plain concatenated
form run one molecule at a time."""

import numpy as np
import pytest

from gaugeflow.flowcore import tape
from gaugeflow.flowcore.nets import (CanonLiteConfig, CanonLiteNet, LatentMolecule,
                                     MoleculeBatch, Predictions, canonical_pe, _one_hot)
from gaugeflow.flowcore.tape import Tensor

HEADS = ("velocity", "atom_logits", "charge_logits", "bond_logits", "rank_pred", "rank_raw")


def concat_forward(net, z_t, t, ranks, pe_dropped=False):
    """CanonLite with the message MLP applied to all N^2 concatenated pair rows."""
    c = net.cfg
    n = z_t.n_atoms
    lay = tape.PairLayout([n])
    if pe_dropped:
        pe = tape.tile_rows(net.fake_pe, n)
    else:
        pe = Tensor(canonical_pe(np.asarray(ranks, dtype=np.float64), c.d_pe, c.pe_scale))
    node_feats = Tensor(np.concatenate([
        _one_hot(z_t.type_idx, c.n_atom_classes),
        _one_hot(z_t.charge_idx, c.n_charge_classes),
        np.full((n, 1), float(t)),
    ], axis=1))
    h = net.input_mlp(tape.concat([node_feats, pe], axis=1))
    r = net.rank_mlp(pe)
    cs = tape.stack_scale(Tensor(z_t.coords), net.cs_weights)
    e = net.edge_in(Tensor(_one_hot(z_t.bond_idx.ravel(), c.n_bond_classes)))
    for layer in net.layers:
        p = layer.node_proj(h)
        q = layer.rank_proj(r)
        msg = layer.msg_mlp(tape.concat([
            tape.repeat_rows(p, np.full(n, n)), tape.tile_rows(p, n),
            tape.repeat_rows(q, np.full(n, n)), tape.tile_rows(q, n),
            tape.pairwise_dot(cs, lay), e,
        ], axis=1))
        rank_at = c.d_model + c.n_coord_sets
        m_node = tape.take_cols(msg, slice(0, c.d_model))
        m_coord = tape.take_cols(msg, slice(c.d_model, rank_at))
        m_rank = tape.take_cols(msg, slice(rank_at, rank_at + c.d_rank))
        m_edge = tape.take_cols(msg, slice(rank_at + c.d_rank, rank_at + c.d_rank + c.d_edge))
        h = tape.add(h, layer.node_update(tape.block_mean_rows(m_node, lay)))
        cs = tape.add(cs, tape.coord_mix(cs, m_coord, lay))
        r = tape.add(r, layer.rank_update(tape.block_mean_rows(m_rank, lay)))
        e = tape.add(e, layer.edge_update(m_edge))
    e_sym = tape.mul(tape.add(e, tape.transpose_pairs(e, lay)), Tensor(0.5))
    rank_raw = tape.reshape(net.head_rank(h), (n,))
    lo, hi = tape.reduce_min(rank_raw, [0]), tape.reduce_max(rank_raw, [0])
    span = tape.maximum_const(tape.sub(hi, lo), 1e-6)
    return Predictions(
        velocity=tape.stack_mix(cs, net.head_vel),
        atom_logits=net.head_atom(h),
        charge_logits=net.head_charge(h),
        bond_logits=net.head_bond(e_sym),
        rank_pred=tape.div(tape.sub(rank_raw, lo), span),
        rank_raw=rank_raw,
    )


def random_latent(rng, n, cfg):
    iu = np.triu_indices(n, k=1)
    bonds = np.zeros((n, n), dtype=np.int64)
    bonds[iu] = rng.integers(0, cfg.n_bond_classes, len(iu[0]))
    return LatentMolecule(2.0 * rng.standard_normal((n, 3)),
                          rng.integers(0, cfg.n_atom_classes, n),
                          rng.integers(0, cfg.n_charge_classes, n), bonds + bonds.T)


def heads_and_grads(forward, net, weights):
    """Head values and the parameter gradients of sum_k <weights_k, head_k>."""
    params = net.parameters()
    tape.zero_grads(params)
    preds = forward()
    loss = None
    for k in HEADS:
        term = tape.tsum(tape.mul(getattr(preds, k), Tensor(weights[k])))
        loss = term if loss is None else tape.add(loss, term)
    tape.backward(loss)
    heads = {k: getattr(preds, k).data.copy() for k in HEADS}
    grads = {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for k, p in params.items()}
    return heads, grads


def assert_close(got, want, what):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    err = float(np.abs(got - want).max(initial=0.0))
    assert err <= 1e-10 * scale, f"{what}: max abs error {err:.3g} at scale {scale:.3g}"


@pytest.mark.parametrize("pe_dropped", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 13])
def test_factorized_messages_match_concat_form(n, pe_dropped):
    cfg = CanonLiteConfig(n_atom_classes=4, n_charge_classes=3)
    rng = np.random.default_rng([n, int(pe_dropped), 31])
    net = CanonLiteNet(cfg, rng)
    z_t = random_latent(rng, n, cfg)
    batch = MoleculeBatch.pack([z_t])
    ranks = rng.permutation(n) / n
    preds = net(batch, 0.3, ranks, pe_dropped=pe_dropped)
    weights = {k: rng.standard_normal(getattr(preds, k).shape) for k in HEADS}
    heads, grads = heads_and_grads(
        lambda: net(batch, 0.3, ranks, pe_dropped=pe_dropped), net, weights)
    ref_heads, ref_grads = heads_and_grads(
        lambda: concat_forward(net, z_t, 0.3, ranks, pe_dropped=pe_dropped), net, weights)
    for k in HEADS:
        assert_close(heads[k], ref_heads[k], k)
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        assert_close(grads[k], ref_grads[k], f"d/d {k}")
    # the message MLP's weights really carry signal (N = 1 has no p_j != p_i)
    assert np.abs(grads["layers.0.msg_mlp.layers.0.weight"]).max() > 0.0


def test_parameter_names_and_shapes_unchanged():
    # the layout checkpoints are written in; a factorized forward must not move it
    cfg = CanonLiteConfig(n_atom_classes=3, n_charge_classes=2, n_bond_classes=3,
                          d_model=8, n_coord_sets=2, d_rank=4, n_layers=1,
                          d_pe=4, d_proj=4, d_msg_hidden=8, d_edge=4)
    got = [(k, v.shape) for k, v in CanonLiteNet(cfg).named_parameters()]
    assert got == [
        ("input_mlp.layers.0.weight", (10, 8)), ("input_mlp.layers.0.bias", (8,)),
        ("input_mlp.layers.1.weight", (8, 8)), ("input_mlp.layers.1.bias", (8,)),
        ("rank_mlp.layers.0.weight", (4, 4)), ("rank_mlp.layers.0.bias", (4,)),
        ("rank_mlp.layers.1.weight", (4, 4)), ("rank_mlp.layers.1.bias", (4,)),
        ("cs_weights", (2,)),
        ("edge_in.weight", (3, 4)), ("edge_in.bias", (4,)),
        ("layers.0.node_proj.weight", (8, 4)), ("layers.0.node_proj.bias", (4,)),
        ("layers.0.rank_proj.weight", (4, 4)), ("layers.0.rank_proj.bias", (4,)),
        ("layers.0.msg_mlp.layers.0.weight", (22, 8)),
        ("layers.0.msg_mlp.layers.0.bias", (8,)),
        ("layers.0.msg_mlp.layers.1.weight", (8, 18)),
        ("layers.0.msg_mlp.layers.1.bias", (18,)),
        ("layers.0.node_update.layers.0.weight", (8, 8)),
        ("layers.0.node_update.layers.0.bias", (8,)),
        ("layers.0.node_update.layers.1.weight", (8, 8)),
        ("layers.0.node_update.layers.1.bias", (8,)),
        ("layers.0.rank_update.weight", (4, 4)), ("layers.0.rank_update.bias", (4,)),
        ("layers.0.edge_update.weight", (4, 4)), ("layers.0.edge_update.bias", (4,)),
        ("fake_pe", (1, 4)),
        ("head_vel", (2,)),
        ("head_atom.weight", (8, 3)), ("head_atom.bias", (3,)),
        ("head_charge.weight", (8, 2)), ("head_charge.bias", (2,)),
        ("head_bond.weight", (4, 3)), ("head_bond.bias", (3,)),
        ("head_rank.weight", (8, 1)), ("head_rank.bias", (1,)),
    ]


def test_packed_batch_matches_single_forwards():
    # mixed sizes, PE drops and times in one packed graph against the concat
    # reference run one molecule at a time
    cfg = CanonLiteConfig(n_atom_classes=4, n_charge_classes=3)
    rng = np.random.default_rng(47)
    net = CanonLiteNet(cfg, rng)
    sizes = [1, 2, 7, 13]
    latents = [random_latent(rng, n, cfg) for n in sizes]
    ranks = [rng.permutation(n) / n for n in sizes]
    ts = [0.1, 0.9, 0.4, 0.65]
    dropped = [True, False, True, False]
    batch = MoleculeBatch.pack(latents)
    assert batch.n_atoms == sum(sizes)
    preds = net(batch, ts, np.concatenate(ranks), pe_dropped=dropped)
    weights = {k: rng.standard_normal(getattr(preds, k).shape) for k in HEADS}
    heads, grads = heads_and_grads(
        lambda: net(batch, ts, np.concatenate(ranks), pe_dropped=dropped), net, weights)

    def reference():
        per_mol = [concat_forward(net, *args)
                   for args in zip(latents, ts, ranks, dropped)]
        return Predictions(**{k: tape.concat([getattr(p, k) for p in per_mol], axis=0)
                              for k in HEADS})
    ref_heads, ref_grads = heads_and_grads(reference, net, weights)
    for k in HEADS:
        assert_close(heads[k], ref_heads[k], k)
    for k in grads:
        assert_close(grads[k], ref_grads[k], f"d/d {k}")
    assert np.abs(grads["fake_pe"]).max() > 0.0
    # each molecule's rank head is normalized on its own
    for piece in np.split(heads["rank_pred"], np.cumsum(sizes)[:-1]):
        assert piece.min() == 0.0 and (len(piece) == 1 or piece.max() == 1.0)
    unpacked = batch.unpack()
    for got, want in zip(unpacked, latents):
        for field in ("coords", "type_idx", "charge_idx", "bond_idx"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_no_grad_forward_records_nothing():
    cfg = CanonLiteConfig(n_atom_classes=4, n_charge_classes=3)
    rng = np.random.default_rng(48)
    net = CanonLiteNet(cfg, rng)
    batch = MoleculeBatch.pack([random_latent(rng, n, cfg) for n in (3, 6)])
    ranks = np.concatenate([np.arange(3) / 3, np.arange(6) / 6])
    recorded = net(batch, 0.5, ranks, pe_dropped=[False, True])
    with tape.no_grad():
        free = net(batch, 0.5, ranks, pe_dropped=[False, True])
    for k in HEADS:
        out = getattr(free, k)
        assert not out.requires_grad and out._parents == () and out._backward_fn is None
        assert np.array_equal(out.data, getattr(recorded, k).data)
    # recording resumes after the block
    assert net(batch, 0.5, ranks).velocity.requires_grad
