"""File formats, valence stability, uniqueness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeflow import molecule, symgroup
from gaugeflow.molecule import (
    MoleculeState,
    ParseError,
    UnsupportedElementError,
    ValenceTable,
    atoms_only,
    bond_order_sums,
    compute_metrics,
    fingerprint,
    parse_sdf,
    parse_xyz,
    stability,
    uniqueness,
    write_sdf,
    write_xyz,
)

from conftest import random_molecule


def methane() -> MoleculeState:
    coords = np.array([
        [0.0, 0.0, 0.0],
        [1.09, 0.0, 0.0],
        [-0.36, 1.03, 0.0],
        [-0.36, -0.51, 0.89],
        [-0.36, -0.51, -0.89],
    ])
    bonds = np.zeros((5, 5), dtype=np.int64)
    bonds[0, 1:] = 1
    bonds[1:, 0] = 1
    return MoleculeState(coords, np.array([6, 1, 1, 1, 1]),
                         np.zeros(5, dtype=np.int64), bonds)


def test_state_validation():
    with pytest.raises(ValueError):
        MoleculeState(np.zeros((3, 2)), np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        MoleculeState(np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros((0, 0)))
    bonds = np.zeros((2, 2), dtype=np.int64)
    bonds[0, 1] = 1  # asymmetric
    with pytest.raises(ValueError):
        MoleculeState(np.zeros((2, 3)), np.array([6, 6]), np.zeros(2), bonds)
    bonds = np.full((2, 2), 9, dtype=np.int64)
    with pytest.raises(ValueError):
        MoleculeState(np.zeros((2, 3)), np.array([6, 6]), np.zeros(2), bonds)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=15))
@settings(max_examples=40, deadline=None)
def test_xyz_roundtrip(seed, n):
    rng = np.random.default_rng(seed)
    m = random_molecule(rng, n)
    back = parse_xyz(write_xyz(m))
    assert np.array_equal(back.atom_types, m.atom_types)
    # xyz carries no bonds or charges; coords survive to format precision
    assert np.allclose(back.coords, m.coords, atol=1e-6)
    assert back.bonds.sum() == 0


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=15))
@settings(max_examples=40, deadline=None)
def test_sdf_roundtrip_keeps_bonds_and_charges(seed, n):
    rng = np.random.default_rng(seed)
    m = random_molecule(rng, n, charged=True)
    back = parse_sdf(write_sdf(m))
    assert np.array_equal(back.atom_types, m.atom_types)
    assert np.array_equal(back.charges, m.charges)
    assert np.array_equal(back.bonds, m.bonds)
    assert np.allclose(back.coords, m.coords, atol=1e-4)


def test_parse_xyz_errors():
    with pytest.raises(ParseError):
        parse_xyz("not a count\ncomment\n")
    with pytest.raises(ParseError):
        parse_xyz("2\ncomment\nC 0 0 0\n")  # fewer atom lines than declared
    with pytest.raises(ParseError):
        parse_xyz("1\ncomment\nXx 0 0 0\n")  # unknown element symbol


def test_parse_sdf_rejects_bad_bond_block():
    m = methane()
    text = write_sdf(m)
    # point a bond at a nonexistent atom
    broken = text.replace("  1  2  1", "  1  9  1")
    with pytest.raises(ParseError):
        parse_sdf(broken)


def test_methane_is_stable():
    flags, whole = stability(methane())
    assert whole
    assert flags.all()
    assert np.array_equal(bond_order_sums(methane()), [4, 1, 1, 1, 1])


def test_unbonded_carbon_is_unstable():
    m = atoms_only(np.zeros((1, 3)), np.array([6]))
    flags, whole = stability(m)
    assert not whole


def test_charge_shifts_allowed_valence():
    # N with 4 bonds is only stable as N+
    coords = np.zeros((5, 3))
    coords[1:] = np.eye(4, 3) + 1.0
    bonds = np.zeros((5, 5), dtype=np.int64)
    bonds[0, 1:] = 1
    bonds[1:, 0] = 1
    types = np.array([7, 1, 1, 1, 1])
    neutral = MoleculeState(coords, types, np.zeros(5, dtype=np.int64), bonds)
    charged = MoleculeState(coords, types, np.array([1, 0, 0, 0, 0]), bonds)
    assert not stability(neutral)[1]
    assert stability(charged)[1]


def test_aromatic_counts_one_and_a_half():
    # benzene-like ring: alternating aromatic bonds sum to 3 per carbon + 1 H
    n = 6
    bonds = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        bonds[i, (i + 1) % n] = molecule.AROMATIC
        bonds[(i + 1) % n, i] = molecule.AROMATIC
    m = MoleculeState(np.random.default_rng(0).standard_normal((n, 3)),
                      np.full(n, 6), np.zeros(n, dtype=np.int64), bonds)
    assert np.array_equal(bond_order_sums(m), np.full(n, 3))


def test_fingerprint_permutation_invariant():
    rng = np.random.default_rng(9)
    m = random_molecule(rng, 8, charged=True)
    g = symgroup.haar_sample(8, rng)
    permuted = symgroup.act(symgroup.GroupElement(g.perm, np.eye(3), np.zeros(3)), m)
    assert fingerprint(m) == fingerprint(permuted)


def test_uniqueness_counts_distinct_fingerprints():
    rng = np.random.default_rng(10)
    a = random_molecule(rng, 6)
    b = random_molecule(rng, 7)
    assert uniqueness([a, a.copy(), b]) == pytest.approx(2.0 / 3.0)
    assert uniqueness([]) == 0.0


def test_compute_metrics_fields():
    report = compute_metrics([methane(), methane()])
    assert report.n_samples == 2
    assert report.atom_stability == 1.0
    assert report.mol_stability == 1.0
    assert report.uniqueness == 0.5
    doc = report.to_dict()
    assert set(doc) == {"atom_stability", "mol_stability", "uniqueness", "n_samples"}


def test_valence_table_unlisted_charge_is_empty():
    table = ValenceTable()
    assert table.allowed_valences(6, 5) == frozenset()
    with pytest.raises(UnsupportedElementError) as info:
        table.allowed_valences(2, 0)  # helium not tabulated
    assert str(info.value) == "element Z=2 not in valence table"
    assert isinstance(info.value, KeyError)
