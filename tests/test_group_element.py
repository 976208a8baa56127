"""GroupElement's accept/reject set, at the edges of its orthogonality
tolerance: R R^T must match I entrywise within 1e-8 + 1e-5 |I_ij|."""

import warnings

import numpy as np
import pytest

from gaugeflow.symgroup import GroupElement, haar_rotation


def nudged(i: int, j: int, eps: float) -> np.ndarray:
    rot = np.eye(3)
    rot[i, j] += eps
    return rot


ACCEPTED = {
    "identity": (np.arange(3), np.eye(3), np.zeros(3)),
    "float perm": (np.array([2.0, 0.0, 1.0]), np.eye(3), np.zeros(3)),
    "list inputs": ([1, 0], np.eye(3).tolist(), [0.0, 1.0, 2.0]),
    "haar rotation": (np.array([3, 1, 0, 2]), haar_rotation(3, np.random.default_rng(4)),
                      np.ones(3)),
    # (1 + 2e-6)^2 - 1 = 4e-6 on the diagonal of R R^T, inside 1e-8 + 1e-5
    "diagonal 4e-6": (np.arange(3), nudged(0, 0, 2e-6), np.zeros(3)),
    # 5e-9 off the diagonal of R R^T, inside 1e-8
    "off-diagonal 5e-9": (np.arange(3), nudged(0, 1, 5e-9), np.zeros(3)),
    "empty perm": (np.arange(0), np.eye(3), np.zeros(3)),
}

REJECTED = {
    "repeat": ((np.array([0, 0, 1]), np.eye(3), np.zeros(3)), "permutation"),
    "out of range": ((np.array([0, 1, 3]), np.eye(3), np.zeros(3)), "permutation"),
    "negative": ((np.array([0, -1, 1]), np.eye(3), np.zeros(3)), "permutation"),
    "2-D perm": ((np.array([[0, 1], [1, 0]]), np.eye(3), np.zeros(3)), "permutation"),
    "2x2 rot": ((np.arange(3), np.eye(2), np.zeros(3)), "3x3"),
    "scaled rot": ((np.arange(3), 2.0 * np.eye(3), np.zeros(3)), "orthogonal"),
    "nan rot": ((np.arange(3), nudged(1, 2, np.nan), np.zeros(3)), "orthogonal"),
    "inf rot": ((np.arange(3), nudged(1, 1, np.inf), np.zeros(3)), "orthogonal"),
    # (1 + 6e-6)^2 - 1 = 1.2e-5 on the diagonal, outside 1e-8 + 1e-5
    "diagonal 1.2e-5": ((np.arange(3), nudged(2, 2, 6e-6), np.zeros(3)), "orthogonal"),
    # 5e-8 off the diagonal, outside 1e-8
    "off-diagonal 5e-8": ((np.arange(3), nudged(0, 1, 5e-8), np.zeros(3)), "orthogonal"),
    "reflection": ((np.arange(3), np.diag([1.0, 1.0, -1.0]), np.zeros(3)), "determinant"),
    "2-vector trans": ((np.arange(3), np.eye(3), np.zeros(2)), "3-vector"),
    "row trans": ((np.arange(3), np.eye(3), np.zeros((1, 3))), "3-vector"),
    "nan trans": ((np.arange(3), np.eye(3), [np.nan, 0.0, 0.0]), "finite"),
    "inf trans": ((np.arange(3), np.eye(3), [0.0, -np.inf, 0.0]), "finite"),
}


@pytest.mark.parametrize("args", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_group_element_accepts(args):
    g = GroupElement(*args)
    assert g.perm.dtype == np.int64 and g.rot.dtype == np.float64 and g.trans.dtype == np.float64
    assert np.array_equal(g.perm, np.asarray(args[0]).astype(np.int64))


@pytest.mark.parametrize(("args", "fault"), REJECTED.values(), ids=REJECTED.keys())
def test_group_element_rejects(args, fault):
    with pytest.raises(ValueError, match=fault):
        GroupElement(*args)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_rot_rejected_without_a_warning(value):
    # the finiteness test comes before R R^T, so nothing overflows on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="orthogonal"):
            GroupElement(np.arange(3), nudged(1, 1, value), np.zeros(3))


def test_orthogonality_check_matches_allclose():
    # rotations perturbed around the tolerance edge: accepted exactly when
    # np.allclose(R R^T, I, atol=1e-8) holds and det R is not negative
    rng = np.random.default_rng(7)
    for _ in range(400):
        rot = haar_rotation(3, rng) + rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-10, -4)
        try:
            GroupElement(np.arange(2), rot, np.zeros(3))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (np.allclose(rot @ rot.T, np.eye(3), atol=1e-8)
                            and np.linalg.det(rot) >= 0)
