"""Canonicalization of molecular states as one stacked computation: one atom
order, one frame, one group element per molecule.

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

canonicalize_stack runs the map on k same-size molecules at once, as
(k, n, 3) coordinates, (k, n) atomic numbers and (k, n, n) bonds: every stage
is array code over the stack (one stacked eigh, one lexsort along the last
axis, the frame and its GroupElement checks for all k), and a molecule
outside the map's domain is a failure flag of its own row. Each reduction
keeps the order a single molecule's takes, so a molecule gets bitwise the
same result in any stack. canonicalize_batch groups molecules by size and
builds per-molecule results; canonicalize is the batch of one, and the
regime-b sampler step runs canonicalize_stack on the packed state's
same-size runs. canonicalize_perm, fiedler_vector, canonicalize_so3 and
order_multihop are single-molecule views of the stages.
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

GROUPS = ("perm", "perm_so3")
ORDERINGS = ("spectral", "multihop", "atomic")
_FAILURES = (None, "degenerate geometry: all atoms coincide",
             "degenerate geometry: an atom is so far from all others that its weights underflow")


class CanonicalizationError(ValueError):
    """Input outside the domain of the canonicalization map (e.g. N < 2)."""


@dataclass
class CanonicalResult:
    representative: MoleculeState
    gauge: GroupElement
    ranks: np.ndarray        # i/N in representative order
    fiedler: np.ndarray      # signed spectral coordinate, representative order
    degenerate: bool


@dataclass
class CanonicalStack:
    """canonicalize_stack's result; row b belongs to molecule b. Each
    molecule's element g = (order, rot, trans) maps it to its representative:
    representative row i is input atom order[b, i], at coords[b, i]. A failed
    row is outside the map's domain and its other entries carry no meaning."""

    order: np.ndarray        # (k, n) int64
    rot: np.ndarray          # (k, 3, 3)
    trans: np.ndarray        # (k, 3)
    coords: np.ndarray       # (k, n, 3) representative coordinates
    keys: np.ndarray         # (k, n) keys in representative order
    degenerate: np.ndarray   # (k,) bool
    failed: np.ndarray       # (k,) int8: 0, or the _FAILURES index of the reason why


def check_options(group: str, ordering: str) -> None:
    """ValueError for a group or ordering canonicalize does not know, or a pair it cannot run."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    if group == "perm_so3" and ordering != "spectral":
        raise ValueError("the rotation gauge is defined on the spectral ordering only")


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., m) stacks as one BLAS dot per row, the
    call np.dot and np.linalg.norm make for a single vector."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _laplacian_sigma2(sq: np.ndarray, bonds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel bandwidth of each molecule from its squared-distance matrix:
    4 * (mean bond length)^2, falling back to 4 * (mean pairwise distance)^2
    for a molecule without bonds. Returns (sigma2 (k,), coincide (k,)); a
    molecule's atoms coincide when that mean is 0."""
    k, n, _ = sq.shape
    upper = np.flatnonzero(np.arange(n)[:, None] < np.arange(n))   # i < j, i-major
    dists = np.sqrt(sq.reshape(k, -1)[:, upper])
    used = bonds.reshape(k, -1)[:, upper] > 0
    used[~np.logical_or.reduce(used, axis=1)] = True
    counts = np.add.reduce(used, axis=1)
    # rows with c used pairs sum as one (rows, c) reduction: each of its rows
    # sums in the order numpy sums a single molecule's c distances
    sums = np.empty(k)
    for c in set(counts.tolist()):
        rows = counts == c
        sums[rows] = np.add.reduce(dists[used & rows[:, None]].reshape(-1, c), axis=1)
    mean_d = sums / counts
    return 4.0 * mean_d * mean_d, mean_d <= 0.0


def _fiedler_stack(x: np.ndarray, bonds: np.ndarray, centroid: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed Fiedler vectors of k molecules of n >= 2 atoms: (u (k, n),
    degenerate (k,), failed (k,)). See fiedler_vector."""
    k, n, _ = x.shape
    # squared distances, the three squares added left to right as numpy's
    # sum over a length-3 axis adds them
    xt = x.transpose(2, 0, 1).copy()
    diff = xt[:, :, :, None] - xt[:, :, None, :]
    diff *= diff
    sq = diff[0] + diff[1]
    sq += diff[2]
    sigma2, coincide = _laplacian_sigma2(sq, bonds)
    if coincide.any():      # keep the failed rows finite; their output is discarded
        sq[coincide] = 0.0
        sigma2[coincide] = 1.0
    w = np.exp(-sq / (2.0 * sigma2)[:, None, None])
    w.reshape(k, -1)[:, ::n + 1] = 0.0                 # the diagonals
    deg = np.add.reduce(w, axis=2)
    failed = coincide.view(np.int8)
    if np.count_nonzero(deg) < deg.size:
        # an atom far from all others has a kernel row that underflows to 0, and
        # 1 / sqrt(0) would make the Laplacian non-finite: fail the row, keep it finite
        isolated = ~deg.all(axis=1)
        w[isolated] = 1.0 - np.eye(n)
        deg[isolated] = n - 1.0
        failed = np.where(isolated, 2, failed).astype(np.int8)
    inv_sqrt = 1.0 / np.sqrt(deg)
    lsym = np.eye(n) - inv_sqrt[:, :, None] * w * inv_sqrt[:, None, :]
    vals, vecs = np.linalg.eigh(lsym)
    u = inv_sqrt * vecs[:, :, 1]            # back to the random-walk eigenvector
    u = u / np.sqrt(_dot(u, u))[:, None]
    gap = vals[:, 2] - vals[:, 1] if n >= 3 else np.inf

    d = x - centroid[:, None, :]
    radii = np.sqrt(np.add.reduce(d * d, axis=2))
    stat = _dot(u, radii - (np.add.reduce(radii, axis=1) / n)[:, None])
    u[stat < 0.0] *= -1.0
    return u, (np.abs(stat) < SIGN_TOL) | (gap < EIG_TOL), failed


def _perm_stage(x: np.ndarray, z: np.ndarray, bonds: np.ndarray, ordering: str,
                centroid: np.ndarray, rows: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(order, keys in that order, degenerate, failed) of k molecules; see
    canonicalize_perm. rows is arange(k)[:, None]."""
    k, n = z.shape
    spectral = ordering == "spectral"
    degenerate, failed = np.zeros(k, dtype=bool), np.zeros(k, dtype=np.int8)
    if not spectral:
        keys = _multihop_keys(bonds) if ordering == "multihop" else _atomic_keys(z)
    elif n > 1:
        keys, degenerate, failed = _fiedler_stack(x, bonds, centroid)
    else:
        keys = np.zeros((k, 1))
    order = np.lexsort((-z if spectral else z, keys), axis=-1)
    sorted_keys = keys[rows, order]
    tied = sorted_keys[:, 1:] - sorted_keys[:, :-1] < SIGN_TOL
    if not spectral:
        sorted_z = z[rows, order]
        tied &= sorted_z[:, 1:] == sorted_z[:, :-1]
        sorted_keys = sorted_keys / np.maximum(np.sqrt(_dot(sorted_keys, sorted_keys)), 1.0)[:, None]
    return order, sorted_keys, degenerate | np.logical_or.reduce(tied, axis=1), failed


def _orientation(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reverse (k,), cube (k,)) of k molecules' sorted spectral keys: cube is
    sum(keys^3), and reverse asks for the order to be reversed (and the keys
    negated) so that it turns positive."""
    cube = np.add.reduce(keys ** 3, axis=1)
    return cube <= -SIGN_TOL, cube


def _frames(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rot (k, 3, 3), flat (k,)) of k molecules' ordered, centred
    coordinates (k, n, 3), n >= 3; see canonicalize_so3. A flat molecule
    (collinear anchors) gets the identity."""
    k, n, _ = x.shape
    head = x[:, 0]
    axis = x[:, -1] - head
    axis_norm = np.sqrt(_dot(axis, axis))
    candidates = x[:, n // 3:(2 * n) // 3] - head[:, None, :]
    crosses = _cross(candidates, axis[:, None, :])
    cross_norms = np.sqrt(np.add.reduce(crosses * crosses, axis=2))
    flat = (axis_norm < GEOM_TOL) | (np.maximum.reduce(cross_norms, axis=1) < GEOM_TOL)
    # a flat row's divisors are set to 1, so nothing divides by zero on the way
    e1 = axis / np.where(flat, 1.0, axis_norm)[:, None]
    normal = _cross(e1, candidates[np.arange(k), np.argmax(cross_norms, axis=1)])
    e3 = normal / np.where(flat, 1.0, np.sqrt(_dot(normal, normal)))[:, None]
    rot = np.concatenate([e1, _cross(e3, e1), e3], axis=1).reshape(k, 3, 3)
    rot[flat] = symgroup.EYE3
    return rot, flat


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross(a, b) of broadcastable (..., 3) stacks: the same products and
    differences (a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0), without
    np.cross's generic dispatch."""
    a, b = np.concatenate([a, a], axis=-1), np.concatenate([b, b], axis=-1)
    return a[..., 1:4] * b[..., 2:5] - a[..., 2:5] * b[..., 1:4]


def canonicalize_stack(coords: np.ndarray, atom_types: np.ndarray, bonds: np.ndarray,
                       group: str = "perm_so3", ordering: str = "spectral") -> CanonicalStack:
    """The canonicalization map on k molecules of n atoms each: coords
    (k, n, 3), atomic numbers (k, n), bonds (k, n, n) (only bonds > 0 is
    read). The permutation stage picks each atom order, the rotation stage
    (group "perm_so3") each frame, and g = (order, rot, -rot @ centroid) the
    representative. Options as in canonicalize. A molecule outside the map's
    domain (see canonicalize) is flagged failed; the others are unaffected by
    it. Raises ValueError, as GroupElement does, if a frame is not a finite
    rotation."""
    check_options(group, ordering)
    x = np.asarray(coords, dtype=np.float64)
    z = np.asarray(atom_types, dtype=np.int64)
    bonds = np.asarray(bonds)
    k, n = z.shape
    if x.shape != (k, n, 3) or bonds.shape != (k, n, n):
        raise ValueError(f"a stack of {k} molecules of {n} atoms needs coords ({k}, {n}, 3) "
                         f"and bonds ({k}, {n}, {n}), got {x.shape} and {bonds.shape}")
    rows = np.arange(k)[:, None]
    centroid = np.add.reduce(x, axis=1) / n       # x.mean(axis=1), bit for bit
    order, keys, degenerate, failed = _perm_stage(x, z, bonds, ordering, centroid, rows)
    if group == "perm_so3" and n >= 3:
        reverse, cube = _orientation(keys)
        if reverse.any():
            order[reverse] = order[reverse, ::-1]
            keys[reverse] = -keys[reverse, ::-1]
        xo = x[rows, order]
        rot, flat = _frames(xo - centroid[:, None, :])
        degenerate = degenerate | flat | (np.abs(cube) < SIGN_TOL)
    else:
        xo = x[rows, order]
        rot = np.repeat(symgroup.EYE3[None], k, axis=0)
        if group == "perm_so3":                   # fewer than three atoms: no frame
            degenerate = np.ones(k, dtype=bool)
    trans = ((-rot) @ centroid[:, :, None])[:, :, 0]
    ok = failed == 0 if failed.any() else slice(None)
    symgroup.check_frames(rot[ok], trans[ok])
    return CanonicalStack(order, rot, trans, xo @ rot.swapaxes(1, 2) + trans[:, None, :],
                          keys, degenerate, failed)


def canonicalize_batch(mols: list[MoleculeState], group: str = "perm_so3",
                       ordering: str = "spectral") -> list:
    """canonicalize over a list of molecules: each run of one size goes
    through canonicalize_stack as one stack. Returns, in input order, a
    CanonicalResult per molecule, or the CanonicalizationError that
    canonicalize would raise for it (returned, not raised), so one molecule's
    failure stays its own."""
    check_options(group, ordering)
    results: list = [None] * len(mols)
    by_size: dict[int, list[int]] = {}
    for i, m in enumerate(mols):
        by_size.setdefault(m.n_atoms, []).append(i)
    for n, idx in by_size.items():
        run = [mols[i] for i in idx]
        z, charges, bonds = (np.array([getattr(m, f) for m in run])
                             for f in ("atom_types", "charges", "bonds"))
        st = canonicalize_stack(np.array([m.coords for m in run]), z, bonds, group, ordering)
        if not np.isfinite(st.coords).all():
            raise ValueError("coords must be finite")
        rows = np.arange(len(idx))[:, None]
        order = st.order
        z, charges = z[rows, order], charges[rows, order]
        bonds = bonds[rows[:, :, None], order[:, :, None], order[:, None, :]]
        # the gauge is inverse(g): (argsort(order), rot^T, -rot^T @ trans)
        gauge_rot = st.rot.swapaxes(1, 2)
        gauge_trans = ((-gauge_rot) @ st.trans[:, :, None])[:, :, 0]
        gauge_perm = np.argsort(order, axis=1)
        for b, i in enumerate(idx):
            if st.failed[b]:
                results[i] = CanonicalizationError(_FAILURES[st.failed[b]])
                continue
            # the checks of both constructors have run for the whole stack:
            # the input molecules were checked, the representative permutes
            # them and its coordinates are finite, and canonicalize_stack
            # checked the frames, which the gauge inverts
            results[i] = CanonicalResult(
                _checked(MoleculeState, coords=st.coords[b], atom_types=z[b],
                         charges=charges[b], bonds=bonds[b]),
                _checked(GroupElement, perm=gauge_perm[b], rot=gauge_rot[b],
                         trans=gauge_trans[b]),
                np.arange(n) / n, st.keys[b], bool(st.degenerate[b]))
    return results


def _checked(cls, **fields):
    """An instance of the dataclass cls holding fields whose checks have
    already run, so its __post_init__ does not repeat them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def canonicalize(m: MoleculeState, group: str = "perm_so3", ordering: str = "spectral") -> CanonicalResult:
    """Full canonicalization of one molecule: the permutation stage picks the
    atom order, the rotation stage (group "perm_so3") the frame, and the one
    element g = (order, rot, -rot @ centroid) gives the representative
    act(g, m) and the gauge inverse(g). The batch of one of
    canonicalize_batch.

    group: "perm" or "perm_so3". ordering: "spectral" (Fiedler), "multihop",
    or "atomic"; the rotation gauge requires the spectral ordering since its
    sign conventions live on the Fiedler vector. Raises CanonicalizationError
    when the molecule's bond lengths average to zero, or when an atom is so far
    from all others that its kernel weights underflow to 0.
    """
    result = canonicalize_batch([m], group, ordering)[0]
    if isinstance(result, CanonicalizationError):
        raise result
    return result


# ---------------------------------------------------------------------------
# Single-molecule views of the stages


def fiedler_vector(m: MoleculeState) -> tuple[np.ndarray, bool]:
    """Signed Fiedler vector of the random-walk geometric Laplacian.

    W_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)) with zero diagonal,
    L_rw = D^-1 (D - W), solved through the symmetric conjugate
    D^-1/2 (D - W) D^-1/2 so a dense Hermitian eigensolver applies. The
    eigenvector sign is fixed by the radial statistic
    s = sum over i of u_i (||x_i - xbar|| - mean radius): flip so s > 0. Degenerate
    when |s| < 1e-9 or the eigengap lambda_3 - lambda_2 < 1e-9.
    """
    if m.n_atoms < 2:
        raise CanonicalizationError("Fiedler ordering needs at least 2 atoms")
    u, degenerate, failed = _fiedler_stack(m.coords[None], m.bonds[None],
                                           m.coords.mean(axis=0)[None])
    if failed[0]:
        raise CanonicalizationError(_FAILURES[failed[0]])
    return u[0], bool(degenerate[0])


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
    check_options("perm", ordering)
    order, keys, degenerate, failed = _perm_stage(
        m.coords[None], m.atom_types[None], m.bonds[None], ordering,
        m.coords.mean(axis=0)[None], np.arange(1)[:, None])
    if failed[0]:
        raise CanonicalizationError(_FAILURES[failed[0]])
    return order[0], keys[0], bool(degenerate[0])


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
    if len(x) < 3:
        return False, np.eye(3), True
    reverse, cube = _orientation(np.asarray(keys)[None])
    rot, flat = _frames(np.asarray(x)[None, ::-1] if reverse[0] else np.asarray(x)[None])
    return bool(reverse[0]), rot[0], bool(flat[0] or abs(cube[0]) < SIGN_TOL)


# ---------------------------------------------------------------------------
# Alternative orderings (graph multi-hop degrees, atomic number)


def _hop_counts(bonds: np.ndarray, max_hops: int) -> np.ndarray:
    """counts[..., v, k-1] = number of vertices exactly k bond-hops from v,
    for bond matrices (..., n, n).

    reach_k = reach_{k-1} | (reach_{k-1} @ A > 0) holds the vertices within k
    hops; the count at exactly k is the growth of its row sums.
    """
    adj = (bonds > 0).astype(np.float64)
    reach = np.broadcast_to(np.eye(adj.shape[-1], dtype=bool), adj.shape)
    within = [reach.sum(axis=-1)]
    for _ in range(max_hops):
        reach = reach | (reach @ adj > 0)
        within.append(reach.sum(axis=-1))
    return np.diff(np.stack(within, axis=-1), axis=-1)


def _multihop_keys(bonds: np.ndarray) -> np.ndarray:
    """Packed hop-count weight w_3(v) = sum_{k=1..3} d_k(v) * N^(3-k) of
    bond matrices (..., N, N)."""
    base = max(bonds.shape[-1], 2)
    place = base ** np.arange(2, -1, -1, dtype=np.int64)
    return (_hop_counts(bonds, 3) @ place).astype(np.float64)


def order_multihop(m: MoleculeState) -> np.ndarray:
    """Ascending order by the packed hop-count weight; ties by atomic number then index."""
    return canonicalize_perm(m, "multihop")[0]


def _atomic_keys(z: np.ndarray) -> np.ndarray:
    return np.where(z == 1, 1000.0, -z.astype(np.float64))  # H sorts last, then Z descending
