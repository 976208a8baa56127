"""Group algebra and action laws."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeflow import symgroup
from gaugeflow.symgroup import (
    FiniteGroupSpec,
    GroupElement,
    act,
    act_coords,
    c4_group,
    center,
    centroid,
    compose,
    cyclic_rotation_group,
    finite_act,
    haar_rotation,
    haar_sample,
    identity,
    inverse,
    permutation_matrix_group,
    sign_flip_group,
)

from conftest import random_molecule

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _element(rng: np.random.Generator, n: int) -> GroupElement:
    g = haar_sample(n, rng)
    return GroupElement(g.perm, g.rot, rng.standard_normal(3))


@given(seeds, st.integers(min_value=2, max_value=12))
@settings(max_examples=50, deadline=None)
def test_compose_matches_sequential_action(seed, n):
    rng = np.random.default_rng(seed)
    g, h = _element(rng, n), _element(rng, n)
    m = random_molecule(rng, n)
    lhs = act(compose(g, h), m)
    rhs = act(g, act(h, m))
    assert np.allclose(lhs.coords, rhs.coords, atol=1e-10)
    assert np.array_equal(lhs.atom_types, rhs.atom_types)
    assert np.array_equal(lhs.bonds, rhs.bonds)


@given(seeds, st.integers(min_value=2, max_value=12))
@settings(max_examples=50, deadline=None)
def test_inverse_undoes_action(seed, n):
    rng = np.random.default_rng(seed)
    g = _element(rng, n)
    m = random_molecule(rng, n)
    back = act(inverse(g), act(g, m))
    assert np.allclose(back.coords, m.coords, atol=1e-10)
    assert np.array_equal(back.atom_types, m.atom_types)
    assert np.array_equal(back.charges, m.charges)
    assert np.array_equal(back.bonds, m.bonds)


@given(seeds, st.integers(min_value=2, max_value=10))
@settings(max_examples=30, deadline=None)
def test_compose_with_inverse_is_identity(seed, n):
    rng = np.random.default_rng(seed)
    g = _element(rng, n)
    e = compose(g, inverse(g))
    assert np.array_equal(e.perm, np.arange(n))
    assert np.allclose(e.rot, np.eye(3), atol=1e-12)
    assert np.allclose(e.trans, 0.0, atol=1e-12)


def test_identity_element_is_neutral():
    rng = np.random.default_rng(0)
    m = random_molecule(rng, 6)
    e = identity(6)
    out = act(e, m)
    assert np.array_equal(out.coords, m.coords)
    g = _element(rng, 6)
    ge = compose(g, e)
    assert np.array_equal(ge.perm, g.perm)
    assert np.allclose(ge.rot, g.rot)
    assert np.allclose(ge.trans, g.trans)


def test_permutation_convention_rows():
    # X_out = X_in[p]: row i of the output is row p[i] of the input
    coords = np.arange(12, dtype=np.float64).reshape(4, 3)
    g = GroupElement(np.array([2, 0, 3, 1]), np.eye(3), np.zeros(3))
    out = act_coords(g, coords)
    assert np.array_equal(out[0], coords[2])
    assert np.array_equal(out[3], coords[1])


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(np.array([0, 0, 1]), np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        GroupElement(np.arange(3), 2.0 * np.eye(3), np.zeros(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        GroupElement(np.arange(3), refl, np.zeros(3))


@pytest.mark.parametrize("d", [2, 3])
def test_haar_rotation_is_special_orthogonal(d):
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = haar_rotation(d, rng)
        assert np.allclose(r @ r.T, np.eye(d), atol=1e-10)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


def test_haar_rotation_is_drawn_in_two_and_three_dimensions_only():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for d in (1, 5):
        with pytest.raises(ValueError, match=f"d = 2 or 3, got {d}"):
            symgroup.haar_rotations(d, 4, rng)
        with pytest.raises(ValueError, match=f"d = 2 or 3, got {d}"):
            symgroup.RotationGroup(d).randomize(rng, np.zeros((4, d)))
    assert rng.bit_generator.state == state       # nothing drawn


def test_haar_rotation_spreads_directions():
    # images of e1 should cover the sphere; mean must be near zero at n=4000
    rng = np.random.default_rng(4)
    imgs = np.stack([haar_rotation(3, rng)[:, 0] for _ in range(4000)])
    assert np.linalg.norm(imgs.mean(axis=0)) < 4.0 / np.sqrt(4000) * np.sqrt(3)


def test_center_is_idempotent_and_zeroes_centroid():
    rng = np.random.default_rng(5)
    m = random_molecule(rng, 7)
    c = center(m)
    assert np.allclose(centroid(c), 0.0, atol=1e-12)
    assert np.allclose(center(c).coords, c.coords)


def test_finite_groups_orders():
    assert sign_flip_group().order == 2
    assert c4_group().order == 4
    assert cyclic_rotation_group(6).order == 6
    assert permutation_matrix_group(3).order == 6


def test_finite_group_closure_enforced():
    # identity plus a single 90-degree rotation is not closed
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        FiniteGroupSpec(np.stack([np.eye(2), quarter]))
    with pytest.raises(ValueError):
        FiniteGroupSpec(np.array([[[2.0]]]))


def test_finite_group_closure_accepts_groups_and_rejects_perturbed_sets():
    for spec in (sign_flip_group(), c4_group(), cyclic_rotation_group(6),
                 permutation_matrix_group(3), permutation_matrix_group(4)):
        assert FiniteGroupSpec(spec.elements).order == spec.order
    # still orthogonal, but 1e-4 off the group, so the products leave the set
    c, s = np.cos(1e-4), np.sin(1e-4)
    tilt = np.eye(4)
    tilt[:2, :2] = [[c, -s], [s, c]]
    for elements in (c4_group().elements, permutation_matrix_group(4).elements):
        bent = elements.copy()
        d = bent.shape[1]
        bent[1] = bent[1] @ tilt[:d, :d]
        with pytest.raises(ValueError, match="not closed"):
            FiniteGroupSpec(bent)


def test_s5_closure_check_is_fast():
    start = time.perf_counter()
    assert permutation_matrix_group(5).order == 120
    assert time.perf_counter() - start < 2.0


def test_finite_group_randomize_applies_drawn_elements():
    spec = c4_group()
    z0, z1 = np.random.default_rng(4).standard_normal((2, 50, 2))
    idx, a, b = spec.randomize(np.random.default_rng(5), z0, z1)
    assert np.array_equal(idx, np.random.default_rng(5).integers(0, 4, 50))
    for i in range(50):
        assert np.allclose(a[i], finite_act(spec, idx[i], z0[i]))
        assert np.allclose(b[i], finite_act(spec, idx[i], z1[i]))


@pytest.mark.parametrize("group", [c4_group(), symgroup.RotationGroup(2)], ids=["c4", "so2"])
def test_randomize_rejects_mismatched_batches_before_drawing(group):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for batches in ([np.zeros((5, 2)), np.zeros((1, 2))],   # one row would be broadcast
                    [],                                       # no batch at all
                    [np.zeros((5, 3))],                       # wrong width
                    [np.zeros(2)]):                           # one vector, not a batch
        with pytest.raises(ValueError, match=r"\(n, 2\) batches with one n"):
            group.randomize(rng, *batches)
    assert rng.bit_generator.state == state       # nothing drawn


@pytest.mark.parametrize("make", [sign_flip_group, c4_group, lambda: permutation_matrix_group(3)],
                         ids=["signflip", "c4", "s3"])
@pytest.mark.parametrize("piece, n", [(7, 7 * 4 + 3), (symgroup._PIECE_ROWS,
                                                       symgroup._PIECE_ROWS * 5 // 2)],
                         ids=["piece-7", "default-piece"])
def test_finite_randomize_in_row_pieces_matches_the_whole_batch_bitwise(monkeypatch, make,
                                                                         piece, n):
    monkeypatch.setattr(symgroup, "_PIECE_ROWS", piece)
    spec = make()
    z0, z1 = np.random.default_rng(8).standard_normal((2, n, spec.dim))
    rng = np.random.default_rng(9)
    idx, a, b = spec.randomize(rng, z0, z1)
    replay = np.random.default_rng(9)
    assert np.array_equal(idx, replay.integers(0, spec.order, n))
    assert rng.bit_generator.state == replay.bit_generator.state
    mats = spec.elements[idx]
    assert np.array_equal(a, np.einsum("nij,nj->ni", mats, z0))
    assert np.array_equal(b, np.einsum("nij,nj->ni", mats, z1))


def test_finite_act_batch_matches_single():
    spec = c4_group()
    rng = np.random.default_rng(6)
    batch = rng.standard_normal((5, 2))
    for k in range(spec.order):
        out = finite_act(spec, k, batch)
        for i in range(5):
            assert np.allclose(out[i], finite_act(spec, k, batch[i]))


def test_haar_sample_zero_translation():
    g = haar_sample(9, np.random.default_rng(8))
    assert np.array_equal(g.trans, np.zeros(3))
    assert sorted(g.perm.tolist()) == list(range(9))
