"""Canonicalization of molecular states: permutation gauge via a geometric
Laplacian Fiedler ordering, rotation gauge via a spectral anchor frame.

The map is an orbit selector: for non-degenerate inputs every element of the
S_N x SO(3) orbit of a molecule produces the same representative, and the
returned gauge element reconstructs the input exactly,

    act(gauge, representative) == input.

Degeneracies (spectral ties, vanishing sign statistic, collinear anchors) are
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


def _laplacian_sigma2(m: MoleculeState) -> float:
    """Kernel bandwidth: 4 * (mean bond length)^2, falling back to
    4 * (mean pairwise distance)^2 when the molecule carries no bonds."""
    diffs = m.coords[:, None, :] - m.coords[None, :, :]
    dists = np.linalg.norm(diffs, axis=-1)
    iu = np.triu_indices(m.n_atoms, k=1)
    bonded = m.bonds[iu] > 0
    if bonded.any():
        mean_d = dists[iu][bonded].mean()
    else:
        mean_d = dists[iu].mean()
    if mean_d <= 0.0:
        raise CanonicalizationError("degenerate geometry: all atoms coincide")
    return 4.0 * mean_d * mean_d


def fiedler_vector(m: MoleculeState) -> tuple[np.ndarray, bool]:
    """Signed Fiedler vector of the random-walk geometric Laplacian.

    W_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)) with zero diagonal,
    L_rw = D^-1 (D - W), solved through the symmetric conjugate
    D^-1/2 (D - W) D^-1/2 so a dense Hermitian eigensolver applies. The
    eigenvector sign is fixed by the radial statistic
    s = sum_i u_i (||x_i - xbar|| - mean radius): flip so s > 0. Degenerate
    when |s| < 1e-9 or the eigengap lambda_3 - lambda_2 < 1e-9.
    """
    n = m.n_atoms
    if n < 2:
        raise CanonicalizationError("Fiedler ordering needs at least 2 atoms")
    x = m.coords
    sigma2 = _laplacian_sigma2(m)
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    w = np.exp(-sq / (2.0 * sigma2))
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


def _order_with_ties(keys: np.ndarray, atom_types: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Ascending sort of keys; exact ties broken by atomic number desc then
    index asc; any near-tie within tol flags degeneracy."""
    n = keys.shape[0]
    order = np.lexsort((np.arange(n), -atom_types, keys))
    sorted_keys = keys[order]
    tied = bool(n >= 2 and np.any(np.diff(sorted_keys) < tol))
    return order, tied


def _perm_gauge(m: MoleculeState, order: np.ndarray) -> GroupElement:
    # act(gauge, representative) == m with representative = centered m[order]
    return GroupElement(np.argsort(order), np.eye(3), symgroup.centroid(m))


def canonicalize_perm(m: MoleculeState) -> CanonicalResult:
    """Permutation gauge: reorder atoms by ascending signed Fiedler value."""
    n = m.n_atoms
    if n == 1:
        return CanonicalResult(
            symgroup.center(m), _perm_gauge(m, np.arange(1)),
            np.zeros(1), np.zeros(1), degenerate=False,
        )
    u, degenerate = fiedler_vector(m)
    order, tied = _order_with_ties(u, m.atom_types, SIGN_TOL)
    degenerate = degenerate or tied
    rep = symgroup.center(
        symgroup.act(GroupElement(order, np.eye(3), np.zeros(3)), m)
    )
    return CanonicalResult(
        rep, _perm_gauge(m, order),
        np.arange(n) / n, u[order], degenerate,
    )


def canonicalize_so3(m: MoleculeState, u2: np.ndarray) -> CanonicalResult:
    """Rotation gauge for an already permutation-ordered molecule.

    Enforces sum(u2^3) > 0 by reversing the ordering if needed, then builds a
    right-handed frame from head (rank 0), tail (rank N-1) and the middle-third
    anchor maximizing the cross-product norm; coordinates are expressed in that
    frame after centering. Collinear or too-small inputs keep the identity
    rotation and raise the degenerate flag.
    """
    n = m.n_atoms
    u2 = np.asarray(u2, dtype=np.float64)
    eye_gauge = GroupElement(np.arange(n), np.eye(3), symgroup.centroid(m))
    ranks = np.arange(n) / n
    if n < 3:
        return CanonicalResult(symgroup.center(m), eye_gauge, ranks, u2.copy(), degenerate=True)

    degenerate = False
    cube = float(np.sum(u2 ** 3))
    work = m
    v = u2
    reversal: GroupElement | None = None
    if abs(cube) < SIGN_TOL:
        degenerate = True
    elif cube < 0.0:
        rev = np.arange(n)[::-1]
        reversal = GroupElement(rev, np.eye(3), np.zeros(3))
        work = symgroup.act(reversal, m)
        v = -u2[::-1]

    x = work.coords
    head, tail = x[0], x[-1]
    axis = tail - head
    axis_norm = np.linalg.norm(axis)
    lo, hi = n // 3, (2 * n) // 3
    candidates = np.arange(lo, hi)
    crosses = np.cross(x[candidates] - head, np.broadcast_to(axis, (len(candidates), 3)))
    cross_norms = np.linalg.norm(crosses, axis=1)
    anchor = candidates[int(np.argmax(cross_norms))]

    if axis_norm < GEOM_TOL or cross_norms.max() < GEOM_TOL:
        rep = symgroup.center(work)
        gauge = GroupElement(np.arange(n), np.eye(3), symgroup.centroid(work))
        if reversal is not None:
            gauge = symgroup.compose(reversal, gauge)
        return CanonicalResult(rep, gauge, ranks, v.copy(), degenerate=True)

    e1 = axis / axis_norm
    normal = np.cross(e1, x[anchor] - head)
    e3 = normal / np.linalg.norm(normal)
    e2 = np.cross(e3, e1)
    rot = np.stack([e1, e2, e3])          # rows; det +1 by construction
    mean = x.mean(axis=0)
    rep = work.with_coords((x - mean) @ rot.T)

    gauge = GroupElement(np.arange(n), rot.T, mean)
    if reversal is not None:
        gauge = symgroup.compose(reversal, gauge)
    return CanonicalResult(rep, gauge, ranks, v.copy(), degenerate)


def canonicalize(m: MoleculeState, group: str = "perm_so3", ordering: str = "spectral") -> CanonicalResult:
    """Full canonicalization: permutation gauge, then optionally the rotation gauge.

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

    if ordering == "spectral":
        perm_result = canonicalize_perm(m)
    else:
        keys = _multihop_keys(m) if ordering == "multihop" else _atomic_keys(m)
        order = _key_order(m, keys)
        n = m.n_atoms
        rep = symgroup.center(symgroup.act(GroupElement(order, np.eye(3), np.zeros(3)), m))
        sorted_keys = keys[order]
        tied = bool(n >= 2 and np.any(np.diff(sorted_keys) == 0))
        perm_result = CanonicalResult(
            rep, _perm_gauge(m, order), np.arange(n) / n,
            sorted_keys / max(np.linalg.norm(sorted_keys), 1.0), tied,
        )
    if group == "perm":
        return perm_result

    so3_result = canonicalize_so3(perm_result.representative, perm_result.fiedler)
    return CanonicalResult(
        so3_result.representative,
        symgroup.compose(perm_result.gauge, so3_result.gauge),
        so3_result.ranks,
        so3_result.fiedler,
        perm_result.degenerate or so3_result.degenerate,
    )


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


def _key_order(m: MoleculeState, keys: np.ndarray) -> np.ndarray:
    """Ascending keys; ties by atomic number, then index (lexsort is stable)."""
    return np.lexsort((m.atom_types, keys))


def order_multihop(m: MoleculeState, n_hops: int = 3) -> np.ndarray:
    """Ascending order by the packed hop-count weight; ties by atomic number then index."""
    return _key_order(m, _multihop_keys(m, n_hops))


def _atomic_keys(m: MoleculeState) -> np.ndarray:
    z = m.atom_types.astype(np.float64)
    return np.where(m.atom_types == 1, 1000.0, -z)  # H sorts last, then Z descending


def order_atomic(m: MoleculeState) -> np.ndarray:
    """Descending atomic number with hydrogens last; ties by original index."""
    return _key_order(m, _atomic_keys(m))
