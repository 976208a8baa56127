"""The stacked canonicalizer against the batch of one.

canonicalize_batch runs each size group of its input as one stack, and
sampler.pcs_step runs the packed sampler state's same-size runs the same way.
Every molecule's result must be bitwise what canonicalize gives it alone,
whatever shares its stack, and a molecule outside the map's domain must fail
on its own.
"""

import numpy as np
import pytest

from conftest import random_molecule
from test_gauge_edges import CASES, _gauged_copies, _jittered_shape
from gaugeflow import sampler
from gaugeflow.canonicalizer import (CanonicalizationError, canonicalize, canonicalize_batch,
                                     canonicalize_stack)
from gaugeflow.flowcore.training import build_vocab, decode_molecules, encode_molecules
from gaugeflow.molecule import MoleculeState

OPTIONS = [("perm_so3", "spectral"), ("perm", "spectral"), ("perm", "multihop"),
           ("perm", "atomic")]


def _coincident(n):
    """n atoms at one point, bonded in a chain: the bond lengths average 0."""
    bonds = np.zeros((n, n), dtype=np.int64)
    bonds[np.arange(n - 1), np.arange(1, n)] = bonds[np.arange(1, n), np.arange(n - 1)] = 1
    return MoleculeState(np.full((n, 3), 0.7), np.full(n, 6), np.zeros(n, dtype=np.int64), bonds)


def _mixed_molecules(seed):
    """The gauge-edge shapes (two gauges each), random molecules with
    repeated sizes and one all-coincident molecule, interleaved."""
    rng = np.random.default_rng(seed)
    mols = []
    for name, jitter in CASES + [("n1", 0.0)]:
        mols += list(_gauged_copies(_jittered_shape(name, jitter), [len(name), seed]))[:2]
    mols += [random_molecule(rng, int(n), charged=True) for n in rng.integers(2, 13, 24)]
    mols.append(_coincident(4))
    return [mols[i] for i in rng.permutation(len(mols))]


def _assert_bitwise(got, want):
    pairs = [(got.representative.coords, want.representative.coords),
             (got.representative.atom_types, want.representative.atom_types),
             (got.representative.charges, want.representative.charges),
             (got.representative.bonds, want.representative.bonds),
             (got.gauge.perm, want.gauge.perm), (got.gauge.rot, want.gauge.rot),
             (got.gauge.trans, want.gauge.trans), (got.ranks, want.ranks),
             (got.fiedler, want.fiedler)]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert type(got.degenerate) is bool and got.degenerate == want.degenerate


@pytest.mark.parametrize("group, ordering", OPTIONS)
def test_batch_matches_each_molecule_alone(group, ordering):
    mols = _mixed_molecules(5)
    results = canonicalize_batch(mols, group=group, ordering=ordering)
    assert len(results) == len(mols)
    failures = 0
    for mol, got in zip(mols, results):
        try:
            want = canonicalize(mol, group=group, ordering=ordering)
        except CanonicalizationError as exc:
            assert isinstance(got, CanonicalizationError) and str(got) == str(exc)
            failures += 1
            continue
        _assert_bitwise(got, want)
    # only the coincident molecule fails, and only where geometry sets the order
    assert failures == (ordering == "spectral")


def _far_atom():
    """Atoms at the origin, (1, 0, 0), (0, 1, 0) and (400, 0, 0), bonds 0-1 and
    0-2: the far atom's kernel weights underflow to 0."""
    bonds = np.zeros((4, 4), dtype=np.int64)
    bonds[0, 1] = bonds[1, 0] = bonds[0, 2] = bonds[2, 0] = 1
    coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [400.0, 0.0, 0.0]])
    return MoleculeState(coords, np.array([6, 6, 8, 7]), np.zeros(4, dtype=np.int64), bonds)


def _stack(mols, group):
    return canonicalize_stack(*(np.array([getattr(m, f) for m in mols])
                                for f in ("coords", "atom_types", "bonds")), group=group)


@pytest.mark.parametrize("group", ["perm_so3", "perm"])
def test_far_atom_fails_only_its_own_row(group):
    rng = np.random.default_rng(9)
    mols = [random_molecule(rng, 4) for _ in range(5)]
    mols.insert(2, _far_atom())
    st = _stack(mols, group)
    assert (st.failed != 0).tolist() == [False, False, True, False, False, False]
    alone = _stack(mols[:2] + mols[3:], group)
    others = np.arange(len(mols)) != 2
    for field in ("order", "rot", "trans", "coords", "keys", "degenerate", "failed"):
        assert getattr(st, field)[others].tobytes() == getattr(alone, field).tobytes()
    with pytest.raises(CanonicalizationError, match="an atom is so far from all others"):
        canonicalize(mols[2], group=group)


def test_batch_rejects_bad_options_before_any_work():
    with pytest.raises(ValueError, match="rotation gauge"):
        canonicalize_batch([_coincident(3)], group="perm_so3", ordering="atomic")
    assert canonicalize_batch([]) == []


def test_pcs_step_matches_the_canonicalizer_per_molecule():
    # a mixed-size packed state at a coord_scale other than 1: each
    # molecule's rows become its representative, bit for bit, in unit scale
    rng = np.random.default_rng(11)
    sizes = [3, 3, 7, 1, 2, 7, 7, 4, 5, 5, 12]
    mols = [random_molecule(rng, n, charged=True) for n in sizes]
    mols[7] = _coincident(4)
    vocab = build_vocab(mols)
    scale = 1.7
    state = encode_molecules(mols, vocab, scale)
    before = encode_molecules(mols, vocab, scale)
    counts = dict.fromkeys(("canonicalize_calls", "degenerate_steps", "degenerate_orderings"), 0)
    assert sampler.pcs_step(state, vocab, scale, counts) is state
    lay = state.layout
    upper_at = np.concatenate([[0], np.cumsum(lay.sizes * (lay.sizes - 1) // 2)])
    want_degenerate = 0
    for b, mol in enumerate(decode_molecules(before, vocab, scale)):
        n = int(lay.sizes[b])
        nodes = slice(lay.node_start[b], lay.node_start[b] + n)
        pairs = slice(upper_at[b], upper_at[b + 1])
        try:
            res = canonicalize(mol, group="perm_so3")
        except CanonicalizationError:
            # outside the map's domain: rows stay as they were
            for field in ("coords", "type_idx", "charge_idx"):
                assert np.array_equal(getattr(state, field)[nodes], getattr(before, field)[nodes])
            assert np.array_equal(state.bond_idx[pairs], before.bond_idx[pairs])
            continue
        want = encode_molecules([res.representative], vocab, scale)
        assert state.coords[nodes].tobytes() == want.coords.tobytes()
        for field in ("type_idx", "charge_idx"):
            assert np.array_equal(getattr(state, field)[nodes], getattr(want, field))
        assert np.array_equal(state.bond_idx[pairs], want.bond_idx)
        # the representative's ranks are the index ranks the sampler keeps
        assert res.ranks.tobytes() == (np.arange(n) / n).tobytes()
        want_degenerate += int(res.degenerate)
    assert counts == {"canonicalize_calls": len(sizes), "degenerate_steps": 1,
                      "degenerate_orderings": want_degenerate}


def test_stack_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="needs coords"):
        canonicalize_stack(np.zeros((2, 4, 3)), np.zeros((2, 5), dtype=np.int64),
                           np.zeros((2, 5, 5), dtype=np.int64))
