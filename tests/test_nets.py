"""CanonLite's factorized, packed message block against the plain concatenated
form run one molecule at a time."""

import dataclasses

import numpy as np
import pytest

from conftest import assert_frozen, minmax_reference, random_molecule, tanh
from gaugeflow.flowcore import tape, training
from gaugeflow.flowcore.nets import (CanonLiteConfig, CanonLiteNet, MoleculeBatch,
                                     Predictions, canonical_pe, _one_hot)
from gaugeflow.flowcore.tape import Tensor
from gaugeflow.flowcore.training import TrainConfig
from gaugeflow.symgroup import haar_rotations

HEADS = ("velocity", "atom_logits", "charge_logits", "bond_logits", "rank_pred")


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
    e = net.edge_in(Tensor(_one_hot(bond_matrix(z_t.bond_idx, n).ravel(), c.n_bond_classes)))
    for k, layer in enumerate(net.layers):
        # the last layer's rank stream would feed no head: it has no rank outputs
        last = k == len(net.layers) - 1
        p = layer.node_proj(h)
        q = layer.rank_proj(r)
        msg = layer.msg_mlp(tape.concat([
            tape.repeat_rows(p, np.full(n, n)), tape.tile_rows(p, n),
            tape.repeat_rows(q, np.full(n, n)), tape.tile_rows(q, n),
            tape.pairwise_dot(cs, lay), e,
        ], axis=1))
        rank_at = c.d_model + c.n_coord_sets
        edge_at = rank_at if last else rank_at + c.d_rank
        m_node = tape.take_cols(msg, slice(0, c.d_model))
        m_coord = tanh(tape.take_cols(msg, slice(c.d_model, rank_at)))
        m_edge = tape.take_cols(msg, slice(edge_at, edge_at + c.d_edge))
        h = tape.add(h, layer.node_update(tape.block_mean_rows(m_node, lay)))
        cs = tape.add(cs, tape.coord_mix(cs, m_coord, lay))
        if not last:
            m_rank = tape.take_cols(msg, slice(rank_at, edge_at))
            r = tape.add(r, layer.rank_update(tape.block_mean_rows(m_rank, lay)))
        e = tape.add(e, layer.edge_update(m_edge))
    e_sym = tape.mul(tape.add(e, tape.transpose_pairs(e, lay)), Tensor(0.5))
    rank_raw = tape.reshape(net.head_rank(h), (n,))
    # the normalization in numpy: its value plus its Jacobian times the exact
    # zero rank_raw - rank_raw.data, so the adjoint is the hand-derived one
    value, jac = minmax_reference(rank_raw.data)
    step = tape.reshape(tape.sub(rank_raw, Tensor(rank_raw.data)), (n, 1))
    return Predictions(
        velocity=tape.stack_mix(cs, net.head_vel),
        atom_logits=net.head_atom(h),
        charge_logits=net.head_charge(h),
        bond_logits=upper_rows(net.head_bond(e_sym), lay),
        rank_pred=tape.add(Tensor(value), tape.reshape(tape.matmul(Tensor(jac), step), (n,))),
    )


def bond_matrix(upper, n):
    """One molecule's (n, n, ...) array from its i < j entries in i-major
    order: mirrored, zero on the diagonal."""
    upper = np.asarray(upper)
    out = np.zeros((n, n) + upper.shape[1:], dtype=upper.dtype)
    i, j = np.triu_indices(n, k=1)
    out[i, j] = upper
    out[j, i] = upper
    return out


def permuted_upper(upper, n, perm):
    """The i < j entries of a molecule whose atoms are reordered by perm."""
    return bond_matrix(upper, n)[np.ix_(perm, perm)][np.triu_indices(n, k=1)]


def upper_rows(a, lay):
    """Rows lay.upper of a pair-row Tensor, as an exact 0/1 selector matmul."""
    pick = np.zeros((len(lay.upper), lay.n_pairs))
    pick[np.arange(len(lay.upper)), lay.upper] = 1.0
    return tape.matmul(Tensor(pick), a)


def random_batch(rng, sizes, cfg):
    """Random molecules of the given sizes, drawn one molecule at a time."""
    parts = []
    for n in sizes:
        bonds = rng.integers(0, cfg.n_bond_classes, n * (n - 1) // 2)
        parts.append((2.0 * rng.standard_normal((n, 3)), rng.integers(0, cfg.n_atom_classes, n),
                      rng.integers(0, cfg.n_charge_classes, n), bonds))
    return MoleculeBatch(*(np.concatenate(field) for field in zip(*parts)),
                         tape.PairLayout(sizes))


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


@pytest.mark.usefixtures("float64_tape")
@pytest.mark.parametrize("pe_dropped", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 13])
def test_factorized_messages_match_concat_form(n, pe_dropped):
    cfg = CanonLiteConfig(n_atom_classes=4, n_charge_classes=3)
    rng = np.random.default_rng([n, int(pe_dropped), 31])
    net = CanonLiteNet(cfg, rng)
    batch = random_batch(rng, [n], cfg)
    ranks = rng.permutation(n) / n
    preds = net(batch, 0.3, ranks, pe_dropped=pe_dropped)
    weights = {k: rng.standard_normal(getattr(preds, k).shape) for k in HEADS}
    heads, grads = heads_and_grads(
        lambda: net(batch, 0.3, ranks, pe_dropped=pe_dropped), net, weights)
    ref_heads, ref_grads = heads_and_grads(
        lambda: concat_forward(net, batch, 0.3, ranks, pe_dropped=pe_dropped), net, weights)
    for k in HEADS:
        assert_close(heads[k], ref_heads[k], k)
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        assert_close(grads[k], ref_grads[k], f"d/d {k}")
    # the message MLP's weights really carry signal (N = 1 has no p_j != p_i)
    assert np.abs(grads["layers.0.msg_mlp.layers.0.weight"]).max() > 0.0


def test_parameter_names_and_shapes_unchanged():
    # the layout checkpoints are written in; a factorized forward must not move it.
    # The one layer is the last: no rank_update, no rank outputs (8 + 2 + 4 columns)
    cfg = CanonLiteConfig(n_atom_classes=3, n_charge_classes=2, n_bond_classes=3,
                          d_model=8, n_coord_sets=2, d_rank=4, n_layers=1,
                          d_pe=4, d_proj=4, d_msg_hidden=8, d_edge=4)
    assert_frozen(cfg)
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
        ("layers.0.msg_mlp.layers.1.weight", (8, 14)),
        ("layers.0.msg_mlp.layers.1.bias", (14,)),
        ("layers.0.node_update.layers.0.weight", (8, 8)),
        ("layers.0.node_update.layers.0.bias", (8,)),
        ("layers.0.node_update.layers.1.weight", (8, 8)),
        ("layers.0.node_update.layers.1.bias", (8,)),
        ("layers.0.edge_update.weight", (4, 4)), ("layers.0.edge_update.bias", (4,)),
        ("fake_pe", (1, 4)),
        ("head_vel", (2,)),
        ("head_atom.weight", (8, 3)), ("head_atom.bias", (3,)),
        ("head_charge.weight", (8, 2)), ("head_charge.bias", (2,)),
        ("head_bond.weight", (4, 3)), ("head_bond.bias", (3,)),
        ("head_rank.weight", (8, 1)),
    ]


def test_a_mixed_pe_step_reaches_every_parameter():
    # one training step on PE-dropped and PE-kept molecules: every parameter
    # gets a gradient and no message output column reads only zeros, so the
    # net holds no weight its heads cannot see
    rng = np.random.default_rng(61)
    mols = [random_molecule(rng, n, charged=True) for n in (3, 6, 4, 5)]
    vocab = training.build_vocab(mols)
    batch = training.encode_molecules(mols, vocab, training.fit_coord_scale(mols))
    cfg = TrainConfig()
    net = CanonLiteNet(CanonLiteConfig(n_atom_classes=len(vocab["atom_classes"]),
                                       n_charge_classes=len(vocab["charge_classes"])), rng)
    path = training.draw_path(batch, training.fit_molecular_priors(batch, vocab, cfg),
                              net.cfg.n_bond_classes, cfg, rng)
    path = dataclasses.replace(path, pe_dropped=np.array([True, False, True, False]))
    tape.zero_grads(net.buffer.params)
    tape.backward(training.molecular_fm_loss(net, path, cfg)[0])
    net.buffer.collect_grads()
    assert [k for k, s in net.buffer.slices.items() if s in net.buffer.unreached] == []
    for k, g in net.buffer.views(net.buffer.grad).items():
        if k.endswith("msg_mlp.layers.1.weight"):
            assert (np.abs(g).max(axis=0) > 0.0).all(), k


@pytest.mark.usefixtures("float64_tape")
def test_packed_batch_matches_single_forwards():
    # mixed sizes, PE drops and times in one packed graph against the concat
    # reference run one molecule at a time
    cfg = CanonLiteConfig(n_atom_classes=4, n_charge_classes=3)
    rng = np.random.default_rng(47)
    net = CanonLiteNet(cfg, rng)
    sizes = [1, 2, 7, 13]
    batch = random_batch(rng, sizes, cfg)
    singles = [batch.select([b]) for b in range(len(sizes))]
    ranks = [rng.permutation(n) / n for n in sizes]
    ts = [0.1, 0.9, 0.4, 0.65]
    dropped = [True, False, True, False]
    assert batch.n_atoms == sum(sizes)
    preds = net(batch, ts, np.concatenate(ranks), pe_dropped=dropped)
    weights = {k: rng.standard_normal(getattr(preds, k).shape) for k in HEADS}
    heads, grads = heads_and_grads(
        lambda: net(batch, ts, np.concatenate(ranks), pe_dropped=dropped), net, weights)

    def reference():
        per_mol = [concat_forward(net, *args)
                   for args in zip(singles, ts, ranks, dropped)]
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


def test_no_grad_forward_records_nothing():
    cfg = CanonLiteConfig(n_atom_classes=4, n_charge_classes=3)
    rng = np.random.default_rng(48)
    net = CanonLiteNet(cfg, rng)
    batch = random_batch(rng, [3, 6], cfg)
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


@pytest.mark.usefixtures("float64_tape")
def test_pe_dropped_twin_is_permutation_and_rotation_equivariant():
    # with the PE dropped every atom reads the one learned fake_pe row, so the
    # rank stream is constant, messages read only Gram entries, bonds and node
    # features, and the coordinate update mixes coordinate sets: CanonLite is
    # then S_N x SO(3)-equivariant. Each molecule gets its own permutation and
    # rotation (about the origin: the Gram is not translation-invariant)
    cfg = CanonLiteConfig(n_atom_classes=4, n_charge_classes=3)
    rng = np.random.default_rng(59)
    net = CanonLiteNet(cfg, rng)
    sizes = [1, 2, 5, 5, 9, 3]
    batch = random_batch(rng, sizes, cfg)
    lay = batch.layout
    rots = haar_rotations(3, len(sizes), rng)
    ranks = np.concatenate([np.arange(n) / n for n in sizes])
    base = net(batch, 0.4, ranks, pe_dropped=True)
    cuts = np.cumsum([n * (n - 1) // 2 for n in sizes])[:-1]
    nodes, bonds, logits, coords = [], [], [], []
    for b, (n, mol_bonds, mol_logits) in enumerate(
            zip(sizes, np.split(batch.bond_idx, cuts), np.split(base.bond_logits.data, cuts))):
        perm = rng.permutation(n)
        start = lay.node_start[b]
        nodes.append(start + perm)
        bonds.append(permuted_upper(mol_bonds, n, perm))
        logits.append(permuted_upper(mol_logits, n, perm))
        coords.append(batch.coords[start + perm] @ rots[b].T)
    nodes = np.concatenate(nodes)
    moved = MoleculeBatch(np.concatenate(coords), batch.type_idx[nodes],
                          batch.charge_idx[nodes], np.concatenate(bonds), lay)
    got = net(moved, 0.4, ranks, pe_dropped=True)
    row_rot = np.repeat(rots, sizes, axis=0)
    want = {"velocity": np.einsum("rij,rj->ri", row_rot, base.velocity.data[nodes]),
            "bond_logits": np.concatenate(logits)}
    for k in HEADS:
        expected = want.get(k, getattr(base, k).data[nodes])
        err = float(np.abs(getattr(got, k).data - expected).max())
        assert err <= 1e-12 * max(1.0, float(np.abs(expected).max())), (k, err)
