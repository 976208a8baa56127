"""Group actions on molecular and point-cloud states.

The ambient group is S_N x SO(3) with translations carried along so that
recentering composes cleanly; translation components are zero after centering.
Permutation convention: an element with permutation p maps row i of the output
to row p[i] of the input, i.e. X_out = X_in[p].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .molecule import MoleculeState


EYE3 = np.eye(3)
# np.allclose(R R^T, I, atol=1e-8) entrywise: atol + rtol |I_ij| with rtol = 1e-5
_ORTHO_TOL = 1e-8 + 1e-5 * np.abs(EYE3)


@dataclass
class GroupElement:
    """One element of S_N x SO(3) x R^3."""

    perm: np.ndarray
    rot: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=np.int64)
        self.rot = np.asarray(self.rot, dtype=np.float64)
        self.trans = np.asarray(self.trans, dtype=np.float64)
        n = self.perm.shape[0]
        if sorted(self.perm.tolist()) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..N-1")
        if self.rot.shape != (3, 3):
            raise ValueError("rot must be 3x3")
        if self.trans.shape != (3,):
            raise ValueError("trans must be a 3-vector")
        check_frames(self.rot, self.trans)

    @property
    def n_atoms(self) -> int:
        return self.perm.shape[0]


def check_frames(rot: np.ndarray, trans: np.ndarray) -> None:
    """GroupElement's checks on its rotation and translation, over stacks
    rot (..., 3, 3) and trans (..., 3): ValueError unless every rot is a
    finite orthogonal matrix with determinant +1 and every trans is finite."""
    # finiteness first: an inf entry would warn inside the product
    if not (np.isfinite(rot).all()
            and (np.abs(rot @ rot.swapaxes(-1, -2) - EYE3) <= _ORTHO_TOL).all()):
        raise ValueError("rot must be orthogonal")
    if (np.linalg.det(rot) < 0).any():
        raise ValueError("rot must have determinant +1")
    if not np.isfinite(trans).all():
        raise ValueError("trans must be finite")


def identity(n_atoms: int) -> GroupElement:
    return GroupElement(np.arange(n_atoms), np.eye(3), np.zeros(3))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """g after h: act(compose(g, h), z) == act(g, act(h, z))."""
    if g.n_atoms != h.n_atoms:
        raise ValueError("size mismatch")
    return GroupElement(h.perm[g.perm], g.rot @ h.rot, g.rot @ h.trans + g.trans)


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(np.argsort(g.perm), g.rot.T, -g.rot.T @ g.trans)


def act_coords(g: GroupElement, coords: np.ndarray) -> np.ndarray:
    return coords[g.perm] @ g.rot.T + g.trans


def act(g: GroupElement, z: MoleculeState) -> MoleculeState:
    """Apply g: permute atoms, rotate coordinates, translate."""
    if g.n_atoms != z.n_atoms:
        raise ValueError(f"group element is for {g.n_atoms} atoms, molecule has {z.n_atoms}")
    p = g.perm
    return MoleculeState(
        act_coords(g, z.coords),
        z.atom_types[p],
        z.charges[p],
        z.bonds[p][:, p],
    )


def centroid(z: MoleculeState) -> np.ndarray:
    return z.coords.mean(axis=0)


def center(z: MoleculeState) -> MoleculeState:
    """Subtract the coordinate centroid; features untouched. Idempotent."""
    return z.with_coords(z.coords - centroid(z))


def rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion (w, x, y, z); (..., 4) -> (..., 3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    # each norm is one dot product, as np.linalg.norm takes it for a single q
    w, x, y, z = np.moveaxis(q / np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0], -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], -2)


def haar_rotations(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform rotations (n, d, d) for d = 2 (an angle) or
    d = 3 (a unit quaternion); any other d is a ValueError. All draws come in
    one call, in the stream order of n single draws."""
    if d == 2:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    if d == 3:
        return rotation_from_quaternion(rng.standard_normal((n, 4)))
    raise ValueError(f"Haar rotations are drawn for d = 2 or 3, got {d}")


def haar_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform random rotation of R^d."""
    return haar_rotations(d, 1, rng)[0]


def haar_sample(n_atoms: int, rng: np.random.Generator) -> GroupElement:
    """Uniform permutation x uniform rotation, zero translation."""
    return GroupElement(rng.permutation(n_atoms), haar_rotation(3, rng), np.zeros(3))


# ---------------------------------------------------------------------------
# Finite matrix groups acting on R^d point states (theory-lab side)

_PIECE_ROWS = 2 ** 16       # rows per piece in FiniteGroupSpec.randomize


def _shared_rows(dim: int, batches) -> int:
    """The n of batches that are all (n, dim); ValueError otherwise."""
    shapes = [np.shape(b) for b in batches]
    if not shapes or len(shapes[0]) != 2 or any(s != (shapes[0][0], dim) for s in shapes):
        raise ValueError(f"randomize needs one or more (n, {dim}) batches with one n, "
                         f"got shapes {shapes}")
    return shapes[0][0]


@dataclass
class FiniteGroupSpec:
    """A finite group of orthogonal d x d matrices, listed explicitly."""

    elements: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=np.float64)
        if self.elements.ndim != 3 or self.elements.shape[1] != self.elements.shape[2]:
            raise ValueError("elements must be (M, d, d)")
        eye = np.eye(self.dim)
        orthogonal = self._matches(self.elements @ self.elements.transpose(0, 2, 1), eye)
        if not orthogonal.all():
            raise ValueError(f"element {int(np.argmin(orthogonal))} is not orthogonal")
        if not self._matches(self.elements, eye).any():
            raise ValueError("group must contain the identity")
        # one left factor at a time: all M^3 comparisons at once would take
        # M^3 d^2 floats, about 350 MB for S_5
        for g in self.elements:
            products = (g @ self.elements)[:, None]            # (M, 1, d, d)
            if not self._matches(products, self.elements).any(axis=1).all():
                raise ValueError("group is not closed under composition")

    @staticmethod
    def _matches(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """np.allclose(a, b, atol=1e-8) over the trailing (d, d) axes, broadcast."""
        return np.isclose(a, b, atol=1e-8).all(axis=(-2, -1))

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def randomize(self, rng: np.random.Generator, *batches: np.ndarray) -> tuple:
        """Apply one uniform random element per row, the same one in every batch.

        Each batch is (n, d), all with one n; anything else is a ValueError,
        raised before anything is drawn. Returns (element indices, acted
        batches...); draws rng.integers(0, order, n) once. The elements are
        gathered and applied over pieces of _PIECE_ROWS rows, so no (n, d, d)
        element array is held; each row is the same einsum as over the whole
        batch and rounds the same.
        """
        batches = [np.asarray(b) for b in batches]
        n = _shared_rows(self.dim, batches)
        idx = rng.integers(0, self.order, n)
        outs = [np.empty((n, self.dim), np.result_type(self.elements, b)) for b in batches]
        for start in range(0, n, _PIECE_ROWS):
            piece = slice(start, start + _PIECE_ROWS)
            mats = self.elements[idx[piece]]
            for b, out in zip(batches, outs):
                np.einsum("nij,nj->ni", mats, b[piece], out=out[piece])
        return (idx, *outs)


@dataclass
class RotationGroup:
    """SO(d), d = 2 or 3, acting on R^d point states, drawn from the Haar measure."""

    dim: int

    def randomize(self, rng: np.random.Generator, *batches: np.ndarray) -> tuple:
        """Apply one Haar-random rotation per row, the same one in every batch.

        Each batch is (n, d), all with one n; anything else is a ValueError,
        raised before anything is drawn. Returns (rotations (n, d, d), acted
        batches...); draws haar_rotations(dim, n) once.
        """
        mats = haar_rotations(self.dim, _shared_rows(self.dim, batches), rng)
        return (mats, *(np.einsum("nij,nj->ni", mats, b) for b in batches))


def finite_act(spec: FiniteGroupSpec, index: int, v: np.ndarray) -> np.ndarray:
    """Apply element `index` to a vector (d,) or a batch (n, d)."""
    v = np.asarray(v, dtype=np.float64)
    return v @ spec.elements[index].T


def sign_flip_group() -> FiniteGroupSpec:
    return FiniteGroupSpec(np.array([[[1.0]], [[-1.0]]]), name="signflip")


def cyclic_rotation_group(m: int) -> FiniteGroupSpec:
    """C_m acting on R^2 by rotations of 2*pi/m."""
    mats = []
    for k in range(m):
        t = 2.0 * np.pi * k / m
        mats.append([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return FiniteGroupSpec(np.array(mats), name=f"c{m}")


def c4_group() -> FiniteGroupSpec:
    return cyclic_rotation_group(4)


def permutation_matrix_group(n: int) -> FiniteGroupSpec:
    """S_n as n x n permutation matrices acting on coordinates of R^n."""
    from itertools import permutations

    mats = []
    for p in permutations(range(n)):
        mat = np.zeros((n, n))
        mat[np.arange(n), list(p)] = 1.0
        mats.append(mat)
    return FiniteGroupSpec(np.array(mats), name=f"s{n}")
