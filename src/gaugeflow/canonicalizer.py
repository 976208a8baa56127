"""Canonicalization of molecular states in one pass: one atom order, one
frame, one group element.

The permutation stage picks the atom order (a geometric Laplacian Fiedler
ordering, or a multi-hop or atomic-number key), the rotation stage picks a
spectral anchor frame on the ordered, centred coordinates, and one element g
built from both maps the input to its representative. The map is an orbit
selector: for non-degenerate inputs every element of the S_N x SO(3) orbit of
a molecule produces the same representative. The gauge is inverse(g), so it
reconstructs the input by construction,

    act(gauge, representative) == input.

Degeneracies (key ties, vanishing sign statistic, collinear anchors) are
flagged rather than hidden; downstream callers decide whether to resample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symgroup
from .molecule import MoleculeState
from .symgroup import GroupElement

EIG_TOL = 1e-9
SIGN_TOL = 1e-9
GEOM_TOL = 1e-9


class CanonicalizationError(ValueError):
    """Input outside the domain of the canonicalization map (e.g. N < 2)."""


@dataclass
class CanonicalResult:
    representative: MoleculeState
    gauge: GroupElement
    ranks: np.ndarray        # i/N in representative order
    fiedler: np.ndarray      # signed spectral coordinate, representative order
    degenerate: bool


def _laplacian_sigma2(sq: np.ndarray, bonds: np.ndarray) -> float:
    """Kernel bandwidth from the squared-distance matrix: 4 * (mean bond
    length)^2, falling back to 4 * (mean pairwise distance)^2 when the
    molecule carries no bonds."""
    upper = ~np.tri(sq.shape[0], dtype=bool)     # i < j, read i-major
    dists = np.sqrt(sq[upper])
    bonded = bonds[upper] > 0
    mean_d = dists[bonded].mean() if bonded.any() else dists.mean()
    if mean_d <= 0.0:
        raise CanonicalizationError("degenerate geometry: all atoms coincide")
    return 4.0 * mean_d * mean_d


def fiedler_vector(m: MoleculeState) -> tuple[np.ndarray, bool]:
    """Signed Fiedler vector of the random-walk geometric Laplacian.

    W_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)) with zero diagonal,
    L_rw = D^-1 (D - W), solved through the symmetric conjugate
    D^-1/2 (D - W) D^-1/2 so a dense Hermitian eigensolver applies. The
    eigenvector sign is fixed by the radial statistic
    s = sum over i of u_i (||x_i - xbar|| - mean radius): flip so s > 0. Degenerate
    when |s| < 1e-9 or the eigengap lambda_3 - lambda_2 < 1e-9.
    """
    n = m.n_atoms
    if n < 2:
        raise CanonicalizationError("Fiedler ordering needs at least 2 atoms")
    x = m.coords
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    w = np.exp(-sq / (2.0 * _laplacian_sigma2(sq, m.bonds)))
    np.fill_diagonal(w, 0.0)
    deg = w.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    lsym = np.eye(n) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
    vals, vecs = np.linalg.eigh(lsym)
    u = inv_sqrt * vecs[:, 1]           # back to the random-walk eigenvector
    u = u / np.linalg.norm(u)
    gap = vals[2] - vals[1] if n >= 3 else np.inf

    radii = np.linalg.norm(x - x.mean(axis=0), axis=1)
    stat = float(u @ (radii - radii.mean()))
    if stat < 0.0:
        u = -u
    degenerate = abs(stat) < SIGN_TOL or gap < EIG_TOL
    return u, degenerate


def canonicalize_perm(m: MoleculeState, ordering: str = "spectral") -> tuple[np.ndarray, np.ndarray, bool]:
    """Permutation stage: returns (order, keys in that order, degenerate).

    Atoms sort by ascending key: the signed Fiedler value ("spectral"), the
    packed hop-count weight ("multihop") or the atomic key ("atomic"). Ties
    break by atomic number, descending for spectral and ascending for the
    other two, then by index. Adjacent sorted keys closer than SIGN_TOL flag
    the order degenerate; for the exact integer multihop and atomic keys only
    when the two atoms also share their atomic number, since the atomic-number
    tiebreak orders atoms of different elements uniquely. The integer keys
    come back scaled by 1 / max(norm, 1). A single atom has the key 0.
    """
    z = m.atom_types
    spectral = ordering == "spectral"
    if spectral:
        keys, degenerate = fiedler_vector(m) if m.n_atoms > 1 else (np.zeros(1), False)
    else:
        keys = _multihop_keys(m) if ordering == "multihop" else _atomic_keys(m)
        degenerate = False
    order = np.lexsort((-z if spectral else z, keys))
    sorted_keys = keys[order]
    tied = np.diff(sorted_keys) < SIGN_TOL
    if not spectral:
        tied &= np.diff(z[order]) == 0
        sorted_keys = sorted_keys / max(np.linalg.norm(sorted_keys), 1.0)
    degenerate = degenerate or bool(tied.any())
    return order, sorted_keys, degenerate


def canonicalize_so3(x: np.ndarray, keys: np.ndarray) -> tuple[bool, np.ndarray, bool]:
    """Rotation stage on ordered, centred coordinates x (N, 3) and their
    spectral keys: returns (reverse, rot, degenerate).

    reverse asks for the order to be reversed (and the keys negated) so that
    sum(keys^3) > 0. The rows of rot are a right-handed frame built, in that
    order, from head (rank 0), tail (rank N-1) and the middle-third anchor
    maximizing the cross-product norm. Fewer than three atoms, a vanishing
    third moment or collinear anchors raise the degenerate flag; with fewer
    than three atoms or collinear anchors rot is the identity.
    """
    n = x.shape[0]
    if n < 3:
        return False, np.eye(3), True
    cube = float(np.sum(keys ** 3))
    reverse = cube <= -SIGN_TOL
    if reverse:
        x = x[::-1]
    head, axis = x[0], x[-1] - x[0]
    axis_norm = np.linalg.norm(axis)
    candidates = x[n // 3:(2 * n) // 3] - head
    cross_norms = np.linalg.norm(_cross(candidates, axis), axis=1)
    if axis_norm < GEOM_TOL or cross_norms.max() < GEOM_TOL:
        return reverse, np.eye(3), True
    e1 = axis / axis_norm
    normal = _cross(e1, candidates[int(np.argmax(cross_norms))])
    e3 = normal / np.linalg.norm(normal)
    return reverse, np.stack([e1, _cross(e3, e1), e3]), abs(cube) < SIGN_TOL


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross(a, b) of a 3-vector b with a 3-vector or an (n, 3) stack a:
    the same products and differences, without np.cross's generic dispatch."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]).T


def canonicalize(m: MoleculeState, group: str = "perm_so3", ordering: str = "spectral") -> CanonicalResult:
    """Full canonicalization: the permutation stage picks the atom order, the
    rotation stage (group "perm_so3") the frame, and the one element
    g = (order, rot, -rot @ centroid) gives the representative act(g, m) and
    the gauge inverse(g).

    group: "perm" or "perm_so3". ordering: "spectral" (Fiedler), "multihop",
    or "atomic"; the rotation gauge requires the spectral ordering since its
    sign conventions live on the Fiedler vector.
    """
    if group not in ("perm", "perm_so3"):
        raise ValueError(f"unknown group {group!r}")
    if ordering not in ("spectral", "multihop", "atomic"):
        raise ValueError(f"unknown ordering {ordering!r}")
    if group == "perm_so3" and ordering != "spectral":
        raise ValueError("the rotation gauge is defined on the spectral ordering only")

    order, keys, degenerate = canonicalize_perm(m, ordering)
    centroid = symgroup.centroid(m)
    rot = np.eye(3)
    if group == "perm_so3":
        reverse, rot, so3_degenerate = canonicalize_so3(m.coords[order] - centroid, keys)
        if reverse:
            order, keys = order[::-1], -keys[::-1]
        degenerate = degenerate or so3_degenerate
    g = GroupElement(order, rot, -rot @ centroid)
    n = m.n_atoms
    return CanonicalResult(symgroup.act(g, m), symgroup.inverse(g), np.arange(n) / n, keys, degenerate)


# ---------------------------------------------------------------------------
# Alternative orderings (graph multi-hop degrees, atomic number)


def _hop_counts(bonds: np.ndarray, max_hops: int) -> np.ndarray:
    """counts[v, k-1] = number of vertices exactly k bond-hops from v.

    reach_k = reach_{k-1} | (reach_{k-1} @ A > 0) holds the vertices within k
    hops; the count at exactly k is the growth of its row sums.
    """
    adj = (bonds > 0).astype(np.float64)
    reach = np.eye(adj.shape[0], dtype=bool)
    within = [reach.sum(axis=1)]
    for _ in range(max_hops):
        reach = reach | (reach @ adj > 0)
        within.append(reach.sum(axis=1))
    return np.diff(np.stack(within, axis=1), axis=1)


def _multihop_keys(m: MoleculeState, n_hops: int = 3) -> np.ndarray:
    """Packed hop-count weight w_K(v) = sum_{k=1..K} d_k(v) * N^(K-k)."""
    base = max(m.n_atoms, 2)
    place = base ** np.arange(n_hops - 1, -1, -1, dtype=np.int64)
    return (_hop_counts(m.bonds, n_hops) @ place).astype(np.float64)


def order_multihop(m: MoleculeState) -> np.ndarray:
    """Ascending order by the packed hop-count weight; ties by atomic number then index."""
    return canonicalize_perm(m, "multihop")[0]


def _atomic_keys(m: MoleculeState) -> np.ndarray:
    z = m.atom_types.astype(np.float64)
    return np.where(m.atom_types == 1, 1000.0, -z)  # H sorts last, then Z descending
