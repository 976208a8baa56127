"""CanonLite's pair rows: only tape.pair_stage builds them, and the bond head
and its loss read each molecule's upper triangle only."""

import os
import sys

import numpy as np
import pytest

from gaugeflow.flowcore import tape, training
from gaugeflow.flowcore.nets import CanonLiteConfig, CanonLiteNet
from gaugeflow.flowcore.tape import Tensor
from test_nets import HEADS, random_batch

SIZES = [1, 2, 5, 5, 9]
TAPE_FILE = os.path.normcase(tape.__file__)


def full_pair_bond_loss(upper_logits, data):
    """The bond loss over all ordered pairs: both mirrors of every
    off-diagonal pair weighted 1 / (B n_b (n_b - 1)), the diagonal masked."""
    lay = data.layout
    n_up = len(lay.upper)
    spread = np.zeros((lay.n_pairs, n_up))        # exact 0/1 copy to (i, j) and (j, i)
    spread[lay.upper, np.arange(n_up)] = 1.0
    spread += tape.transpose_pairs(Tensor(spread), lay).data
    logits = tape.matmul(Tensor(spread), upper_logits)
    targets = (spread @ data.bond_idx).astype(np.int64)    # class 0 on the diagonal
    n_mols = len(lay.sizes)
    row_w = 1.0 / (n_mols * lay.row_size)
    off_diagonal = spread.sum(axis=1)
    pair_w = off_diagonal * np.repeat(row_w / np.maximum(lay.row_size - 1, 1), lay.row_size)
    n_bonded = int((lay.sizes > 1).sum())
    return tape.mul(Tensor(n_bonded / n_mols),
                    tape.softmax_cross_entropy(logits, targets, weights=pair_w))


def setup(seed, sizes):
    cfg = CanonLiteConfig(n_atom_classes=4, n_charge_classes=3)
    rng = np.random.default_rng(seed)
    net = CanonLiteNet(cfg, rng)
    batch = random_batch(rng, sizes, cfg)
    ranks = np.concatenate([rng.permutation(n) / n for n in sizes])
    dropped = np.arange(len(sizes)) % 2 == 1
    return net, batch, ranks, dropped


def loss_and_grads(net, batch, ranks, dropped, form):
    params = net.parameters()
    tape.zero_grads(params)
    loss = form(net(batch, 0.4, ranks, pe_dropped=dropped).bond_logits, batch)
    tape.backward(loss)
    return loss.item(), {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                         for k, p in params.items()}


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_upper_triangle_bond_loss_equals_full_pair_form(dtype, tol):
    with tape.precision(dtype):
        net, batch, ranks, dropped = setup(61, SIZES)
        assert net(batch, 0.4, ranks, pe_dropped=dropped).bond_logits.shape == (
            len(batch.layout.upper), net.cfg.n_bond_classes)
        got, got_g = loss_and_grads(net, batch, ranks, dropped, training.bond_loss)
        want, want_g = loss_and_grads(net, batch, ranks, dropped, full_pair_bond_loss)
    assert abs(got - want) <= tol * max(1.0, abs(want))
    assert got_g.keys() == want_g.keys()
    for k, g in want_g.items():
        assert np.abs(got_g[k] - g).max() <= tol * max(1.0, np.abs(g).max()), k
    assert np.abs(got_g["head_bond.weight"]).max() > 0.0


def test_one_atom_molecules_give_zero_bond_loss():
    net, batch, ranks, dropped = setup(62, [1, 1, 1])
    logits = net(batch, 0.4, ranks, pe_dropped=dropped).bond_logits
    assert logits.shape == (0, net.cfg.n_bond_classes)
    assert training.bond_loss(logits, batch).item() == 0.0


def _maker() -> str:
    """The tape op (or, for a direct Tensor(...), the module and function)
    whose call is making the Tensor now being initialized."""
    frame = sys._getframe(2)
    while (os.path.normcase(frame.f_code.co_filename) == TAPE_FILE
           and frame.f_code.co_name in ("_make", "_make_many", "<genexpr>")):
        frame = frame.f_back
    if os.path.normcase(frame.f_code.co_filename) == TAPE_FILE:
        return frame.f_code.co_name
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_code.co_name}"


def test_only_pair_stage_makes_pair_rows(monkeypatch):
    # every Tensor made during one forward and backward of a mixed-size batch:
    # one with a row per ordered pair must come from pair_stage
    net, batch, ranks, dropped = setup(63, SIZES)
    lay = batch.layout
    made = []
    init = Tensor.__init__

    def spy(self, data, requires_grad=False):
        init(self, data, requires_grad)
        made.append((_maker(), self.data.shape))
    monkeypatch.setattr(Tensor, "__init__", spy)
    preds = net(batch, 0.4, ranks, pe_dropped=dropped)
    loss = training.bond_loss(preds.bond_logits, batch)
    for k in HEADS:
        head = getattr(preds, k)
        loss = tape.add(loss, tape.tsum(tape.mul(head, Tensor(np.ones(head.shape)))))
    tape.backward(loss)
    monkeypatch.undo()
    pair_sized = {maker for maker, shape in made if shape and shape[0] == lay.n_pairs}
    assert pair_sized == {"pair_stage"}
    assert ("upper_pairs", (len(lay.upper), net.cfg.d_edge)) in made
