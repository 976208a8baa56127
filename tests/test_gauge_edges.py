"""The gauge contract at its edges: N = 2 and 3, collinear and planar shapes,
and symmetric shapes (square, hexagon, CH4) under near-tie jitter.

For every input moved by a random permutation, rotation and translation:
act(gauge, representative) gives the input back, and every result not flagged
degenerate carries the same representative. The regime-b sampler step
(sampler.pcs_step) must agree with the canonicalizer on the same inputs. The
permutation-only key orderings (multihop, atomic) run on the same shapes plus
N = 1; their representatives keep the input's orientation, so non-degenerate
results agree on atom types, bonds and pairwise distances.
"""

import numpy as np
import pytest

from gaugeflow import sampler, symgroup
from gaugeflow.canonicalizer import canonicalize
from gaugeflow.flowcore.training import build_vocab, encode_molecules, index_ranks
from gaugeflow.molecule import MoleculeState

N_GAUGES = 40
JITTERS = (0.0, 1e-10, 1e-8, 1e-6)


def _molecule(coords, types, bonded_pairs):
    n = len(types)
    bonds = np.zeros((n, n), dtype=np.int64)
    for i, j in bonded_pairs:
        bonds[i, j] = bonds[j, i] = 1
    return MoleculeState(np.asarray(coords, dtype=np.float64), np.asarray(types),
                         np.zeros(n, dtype=np.int64), bonds)


def _ring(n, radius):
    angle = 2 * np.pi * np.arange(n) / n
    return np.stack([radius * np.cos(angle), radius * np.sin(angle), np.zeros(n)], axis=1)


def _shape(name):
    rng = np.random.default_rng(list(name.encode()))
    if name == "n1":
        return _molecule(rng.standard_normal((1, 3)), [6], [])
    if name == "n2":
        return _molecule(rng.standard_normal((2, 3)), [6, 8], [(0, 1)])
    if name == "n3":
        return _molecule(rng.standard_normal((3, 3)), [6, 7, 8], [(0, 1), (1, 2)])
    if name == "collinear3":
        return _molecule([[0, 0, 0], [1.1, 0, 0], [2.6, 0, 0]], [6, 7, 8], [(0, 1), (1, 2)])
    if name == "collinear4":
        return _molecule([[0, 0, 0], [0, 1.0, 0], [0, 2.7, 0], [0, 5.1, 0]], [6, 6, 7, 8],
                         [(0, 1), (1, 2), (2, 3)])
    if name == "planar6":
        coords = np.concatenate([rng.standard_normal((6, 2)), np.zeros((6, 1))], axis=1)
        return _molecule(coords, [6, 6, 7, 8, 6, 1], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    if name == "square":
        return _molecule(_ring(4, 1.4), [6] * 4, [(i, (i + 1) % 4) for i in range(4)])
    if name == "hexagon":
        return _molecule(_ring(6, 1.4), [6] * 6, [(i, (i + 1) % 6) for i in range(6)])
    if name == "ch4":
        tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        return _molecule(np.concatenate([np.zeros((1, 3)), 1.09 * tet]), [6, 1, 1, 1, 1],
                         [(0, k) for k in range(1, 5)])
    raise KeyError(name)


CASES = ([(name, 0.0) for name in ("n2", "n3", "collinear3", "collinear4", "planar6")]
         + [(name, jitter) for name in ("square", "hexagon", "ch4") for jitter in JITTERS])


def _gauged_copies(m, seed):
    rng = np.random.default_rng(seed)
    for _ in range(N_GAUGES):
        g = symgroup.haar_sample(m.n_atoms, rng)
        yield symgroup.act(symgroup.GroupElement(g.perm, g.rot, 5.0 * rng.standard_normal(3)), m)


def _assert_same_molecule(a, b, tol=1e-8):
    assert np.array_equal(a.atom_types, b.atom_types)
    assert np.array_equal(a.bonds, b.bonds)
    assert np.abs(a.coords - b.coords).max() <= tol


def _jittered_shape(name, jitter):
    m = _shape(name)
    rng = np.random.default_rng([len(name), int(jitter * 1e12)])
    return m.with_coords(m.coords + jitter * rng.standard_normal(m.coords.shape))


def _distances(m):
    return np.linalg.norm(m.coords[:, None, :] - m.coords[None, :, :], axis=-1)


@pytest.mark.parametrize("name, jitter", CASES)
def test_gauge_contract_at_the_edges(name, jitter):
    m = _jittered_shape(name, jitter)
    vocab = build_vocab([m])
    reps, states = [], []
    for moved in _gauged_copies(m, [len(name), 7]):
        res = canonicalize(moved)
        _assert_same_molecule(symgroup.act(res.gauge, res.representative), moved)
        counts = dict.fromkeys(("canonicalize_calls", "degenerate_steps",
                                "degenerate_orderings"), 0)
        state = sampler.pcs_step(encode_molecules([moved], vocab, 1.0), vocab, 1.0, counts)
        assert counts == {"canonicalize_calls": 1, "degenerate_steps": 0,
                          "degenerate_orderings": int(res.degenerate)}
        assert np.array_equal(index_ranks([m.n_atoms]), res.ranks)
        assert np.array_equal(state.coords, res.representative.coords)
        if not res.degenerate:
            reps.append(res.representative)
            states.append(state)
    for rep in reps[1:]:
        _assert_same_molecule(rep, reps[0])
    for state in states[1:]:
        for field in ("type_idx", "charge_idx", "bond_idx"):
            assert np.array_equal(getattr(state, field), getattr(states[0], field))


@pytest.mark.parametrize("ordering", ["multihop", "atomic"])
@pytest.mark.parametrize("name, jitter", CASES + [("n1", 0.0)])
def test_gauge_contract_for_key_orderings(name, jitter, ordering):
    m = _jittered_shape(name, jitter)
    reps = []
    for moved in _gauged_copies(m, [len(name), 7]):
        res = canonicalize(moved, group="perm", ordering=ordering)
        _assert_same_molecule(symgroup.act(res.gauge, res.representative), moved)
        if not res.degenerate:
            reps.append(res.representative)
    for rep in reps[1:]:
        assert np.array_equal(rep.atom_types, reps[0].atom_types)
        assert np.array_equal(rep.bonds, reps[0].bonds)
        assert np.abs(_distances(rep) - _distances(reps[0])).max() <= 1e-8


def test_key_ties_split_by_atomic_number_are_not_degenerate():
    # C-O: both atoms have one neighbour, so their hop keys tie, and the
    # atomic-number tiebreak orders them uniquely; C-C keeps the tie
    n2 = _shape("n2")
    for moved in _gauged_copies(n2, [2, 8]):
        assert not canonicalize(moved, group="perm", ordering="multihop").degenerate
    cc = _molecule(n2.coords, [6, 6], [(0, 1)])
    assert canonicalize(cc, group="perm", ordering="multihop").degenerate
    chain = _molecule(_shape("n3").coords, [6, 7, 6], [(0, 1), (1, 2)])
    assert canonicalize(chain, group="perm", ordering="multihop").degenerate
