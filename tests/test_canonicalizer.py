"""Orbit-selector properties of the canonicalization map."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import nondegenerate_molecule, random_molecule
from gaugeflow import canonicalizer, symgroup
from gaugeflow.canonicalizer import (
    CanonicalizationError,
    canonicalize,
    canonicalize_perm,
    fiedler_vector,
    order_multihop,
)
from gaugeflow.molecule import MoleculeState
from gaugeflow.symgroup import GroupElement, haar_sample

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=5, max_value=24)


def rmsd(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)))


@settings(max_examples=40, deadline=None)
@given(seeds, sizes)
def test_representative_invariant_on_orbit(seed, n):
    rng = np.random.default_rng(seed)
    m = nondegenerate_molecule(rng, n)
    base = canonicalize(m)
    g = haar_sample(n, rng)
    g = GroupElement(g.perm, g.rot, rng.standard_normal(3))
    moved = canonicalize(symgroup.act(g, m))
    assert np.array_equal(base.representative.atom_types, moved.representative.atom_types)
    assert np.array_equal(base.representative.bonds, moved.representative.bonds)
    assert rmsd(base.representative.coords, moved.representative.coords) < 1e-8


@settings(max_examples=40, deadline=None)
@given(seeds, sizes)
def test_gauge_reconstructs_input(seed, n):
    rng = np.random.default_rng(seed)
    m = nondegenerate_molecule(rng, n)
    res = canonicalize(m)
    back = symgroup.act(res.gauge, res.representative)
    assert np.array_equal(back.atom_types, m.atom_types)
    assert np.array_equal(back.bonds, m.bonds)
    assert rmsd(back.coords, m.coords) < 1e-8


@settings(max_examples=25, deadline=None)
@given(seeds, sizes)
def test_idempotent(seed, n):
    rng = np.random.default_rng(seed)
    m = nondegenerate_molecule(rng, n)
    rep = canonicalize(m).representative
    again = canonicalize(rep)
    assert rmsd(again.representative.coords, rep.coords) < 1e-8
    # and the gauge of a representative is the identity element
    assert np.array_equal(again.gauge.perm, np.arange(n))
    assert np.allclose(again.gauge.rot, np.eye(3), atol=1e-8)
    assert np.allclose(again.gauge.trans, 0.0, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(seeds, sizes)
def test_perm_group_keeps_orientation(seed, n):
    # permutation-only gauge: representative is the centered input reordered,
    # so a pure rotation changes the representative coordinates
    rng = np.random.default_rng(seed)
    m = nondegenerate_molecule(rng, n, group="perm")
    res = canonicalize(m, group="perm")
    centered = m.coords - m.coords.mean(axis=0)
    order = np.argsort(res.gauge.perm)
    assert np.allclose(res.representative.coords, centered[order], atol=1e-10)
    assert np.allclose(res.ranks, np.arange(n) / n)


@settings(max_examples=25, deadline=None)
@given(seeds, sizes)
def test_multihop_ordering_is_graph_invariant(seed, n):
    rng = np.random.default_rng(seed)
    m = random_molecule(rng, n)
    p = rng.permutation(n)
    moved = symgroup.act(GroupElement(p, np.eye(3), np.zeros(3)), m)
    a = m.atom_types[order_multihop(m)]
    b = moved.atom_types[order_multihop(moved)]
    # hop-count profiles ignore geometry entirely; the sorted key sequence is
    # a permutation invariant even when individual ties land differently
    assert sorted(a.tolist()) == sorted(b.tolist())


def _bfs_hop_counts(bonds, max_hops):
    """Reference: one breadth-first search per atom."""
    n = bonds.shape[0]
    adj = bonds > 0
    counts = np.zeros((n, max_hops), dtype=np.int64)
    for v in range(n):
        dist = np.full(n, -1)
        dist[v] = 0
        frontier = [v]
        hop = 0
        while frontier and hop < max_hops:
            hop += 1
            nxt = []
            for u in frontier:
                for w in np.nonzero(adj[u])[0]:
                    if dist[w] < 0:
                        dist[w] = hop
                        nxt.append(int(w))
            counts[v, hop - 1] = len(nxt)
            frontier = nxt
    return counts


def _graph_molecule(rng, n, density):
    """Random symmetric bond graph at the given edge density; bond-free at 0."""
    upper = np.triu(rng.random((n, n)) < density, k=1)
    bonds = np.where(upper, rng.integers(1, 5, (n, n)), 0)
    types = rng.choice([1, 6, 7, 8], n)
    return MoleculeState(rng.standard_normal((n, 3)), types, np.zeros(n, dtype=np.int64),
                         bonds + bonds.T)


def test_multihop_and_atomic_orders_match_reference_loops():
    rng = np.random.default_rng(21)
    for n in range(1, 65):
        for density in (0.0, 1.5 / max(n, 1), 0.3):   # bond-free, mostly disconnected, dense
            m = _graph_molecule(rng, n, density)
            counts = _bfs_hop_counts(m.bonds, 3)
            assert np.array_equal(canonicalizer._hop_counts(m.bonds, 3), counts)
            base = max(n, 2)
            keys = [sum(int(counts[v, k]) * base ** (2 - k) for k in range(3)) for v in range(n)]
            assert np.array_equal(canonicalizer._multihop_keys(m.bonds), np.array(keys, dtype=np.float64))
            types = m.atom_types.tolist()
            multihop = sorted(range(n), key=lambda v: (keys[v], types[v], v))
            atomic = sorted(range(n), key=lambda v: (types[v] == 1, -types[v], v))
            assert order_multihop(m).tolist() == multihop
            assert canonicalize_perm(m, "atomic")[0].tolist() == atomic
            rep = canonicalize(m, group="perm", ordering="multihop").representative
            assert np.array_equal(rep.atom_types, m.atom_types[multihop])


def test_atomic_ordering_puts_hydrogens_last():
    coords = np.random.default_rng(3).standard_normal((5, 3))
    types = np.array([1, 8, 6, 1, 16])
    bonds = np.zeros((5, 5), dtype=np.int64)
    bonds[0, 1] = bonds[1, 0] = 1
    bonds[1, 2] = bonds[2, 1] = 1
    bonds[2, 3] = bonds[3, 2] = 1
    bonds[3, 4] = bonds[4, 3] = 1
    m = MoleculeState(coords, types, np.zeros(5, dtype=np.int64), bonds)
    order = canonicalize_perm(m, "atomic")[0]
    assert types[order].tolist() == [16, 8, 6, 1, 1]
    rep = canonicalize(m, group="perm", ordering="atomic").representative
    assert rep.atom_types.tolist() == [16, 8, 6, 1, 1]


def test_option_validation():
    m = random_molecule(np.random.default_rng(0), 6)
    with pytest.raises(ValueError):
        canonicalize(m, group="so3")
    with pytest.raises(ValueError):
        canonicalize(m, ordering="random")
    with pytest.raises(ValueError):
        canonicalize(m, group="perm_so3", ordering="atomic")


def test_collinear_molecule_flagged_degenerate():
    # distinct spacings give a clean Fiedler ordering but no usable frame
    coords = np.zeros((4, 3))
    coords[:, 0] = [0.0, 1.0, 2.7, 5.1]
    types = np.array([6, 7, 8, 9])
    bonds = np.zeros((4, 4), dtype=np.int64)
    for i in range(3):
        bonds[i, i + 1] = bonds[i + 1, i] = 1
    m = MoleculeState(coords, types, np.zeros(4, dtype=np.int64), bonds)
    res = canonicalize(m)
    assert res.degenerate
    back = symgroup.act(res.gauge, res.representative)
    assert rmsd(back.coords, m.coords) < 1e-8


def test_symmetric_square_flagged_degenerate():
    # four identical atoms on a square: the Fiedler eigenvalue is repeated
    coords = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
    ])
    types = np.full(4, 6, dtype=np.int64)
    bonds = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        j = (i + 1) % 4
        bonds[i, j] = bonds[j, i] = 1
    m = MoleculeState(coords, types, np.zeros(4, dtype=np.int64), bonds)
    assert canonicalize(m).degenerate


def test_coincident_atoms_rejected():
    coords = np.zeros((3, 3))
    types = np.array([6, 6, 6])
    bonds = np.zeros((3, 3), dtype=np.int64)
    m = MoleculeState(coords, types, np.zeros(3, dtype=np.int64), bonds)
    with pytest.raises(CanonicalizationError):
        canonicalize(m)


def test_single_atom_fiedler_rejected():
    m = MoleculeState(
        np.zeros((1, 3)), np.array([6]), np.zeros(1, dtype=np.int64),
        np.zeros((1, 1), dtype=np.int64),
    )
    with pytest.raises(CanonicalizationError):
        fiedler_vector(m)
    # the full map still returns, flagged degenerate under the rotation gauge
    assert canonicalize(m, group="perm").degenerate is False
    assert canonicalize(m, group="perm_so3").degenerate is True


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_fiedler_sign_convention(seed):
    rng = np.random.default_rng(seed)
    m = nondegenerate_molecule(rng, 12)
    u, degenerate = fiedler_vector(m)
    assert not degenerate
    radii = np.linalg.norm(m.coords - m.coords.mean(axis=0), axis=1)
    assert u @ (radii - radii.mean()) > 0
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
