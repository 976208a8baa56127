"""Reverse-mode automatic differentiation over dense numpy arrays of one
compute dtype.

A Tensor records its parents and a backward closure; backward() walks the
graph in reverse topological order and accumulates gradients on every tensor
that requires them. Inside `with no_grad():` ops record nothing, so inference
keeps no graph alive. The ops are the ones the networks here call:
broadcasting arithmetic, 2-D matmul and the fused matmul-plus-bias `linear`,
reductions, SiLU, tanh, softmax cross-entropy, and a few pairwise-message
primitives whose adjoints are cheaper written by hand than composed from
smaller pieces. The adjoints of matmul and linear skip g @ W.T when the left
operand needs no gradient (constant features, one-hot edges).

Compute dtype: every Tensor holds float32 by default. Inside
`with precision(np.float64):` Tensors made and ops run compute in float64
instead (the finite-difference and tight reference checks use it). The dtype
flows end to end: Tensor() casts its input, and the ops build their
constants, scales, sparse block-sum matrices and losses in it, so no float64
array upcasts a float32 chain. Callers keep their own state (coordinates,
priors, checkpoints) in float64; the cast happens where an array enters a
Tensor.

The pairwise primitives take a packed batch and its PairLayout, and nothing
else: the atom ("node") rows of all molecules are concatenated, and so are
their ordered-pair rows, each molecule's n_b^2 pairs (i, j) in i-major order.
One molecule of n atoms is PairLayout([n]). Sums over a node's pairs, in the
ops and in their adjoints, are products with sparse 0/1 block-sum matrices
the layout builds once, in the compute dtype of its construction (0/1 entries
are exact in either dtype): contiguous i-major blocks for the sum over j, the
precomputed pair transposition for the sum over i. pair_silu builds a
message layer's pre-activation a[i] + b[j] + c[(i, j)] in one buffer and
applies SiLU to it in place, keeping the SiLU slope only while the tape
records. pairwise_dot and coord_mix read one contiguous node-major copy of
the coordinate sets, repeating its rows for the i side of each pair.
`scipy.sparse` is imported by `_csr`, the one builder of those matrices, when
the first PairLayout is made; importing this module loads numpy only.
"""

from __future__ import annotations

import contextlib

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_grad_enabled = True
_dtype = np.dtype(np.float32)


@contextlib.contextmanager
def precision(dtype):
    """Tensors made and ops run inside the block compute in `dtype`."""
    global _dtype
    previous, _dtype = _dtype, np.dtype(dtype)
    try:
        yield
    finally:
        _dtype = previous


def compute_dtype() -> np.dtype:
    """The dtype Tensors are made in here."""
    return _dtype


@contextlib.contextmanager
def no_grad():
    """Ops inside the block record no parents or backward closures."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _recording(parents) -> bool:
    """Whether an op on these parents records a backward closure."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(root: Tensor) -> None:
    """Seed d(root)/d(root) = 1 and propagate; root must be scalar."""
    if root.data.size != 1:
        raise ValueError("backward() expects a scalar root")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


def zero_grads(params) -> None:
    for p in params.values() if isinstance(params, dict) else params:
        p.grad = None


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))
    return _make(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))
    return _make(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))
    return _make(a.data * b.data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data ** 2), b.data.shape))
    return _make(a.data / b.data, (a, b), bw)


def square(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, g * 2.0 * a.data)
    return _make(np.square(a.data), (a,), bw)


def _stable_sigmoid(x) -> np.ndarray:
    # sigmoid(x) = (1 + tanh(x / 2)) / 2: tanh saturates instead of overflowing
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _silu_into(x: np.ndarray, out: np.ndarray, record: bool):
    """Write silu(x) = x * sigmoid(x) to out (which may be x itself); return the
    slope d silu / dx = sig * (1 + x * (1 - sig)) when record is set, else None."""
    sig = _stable_sigmoid(x)
    slope = None
    if record:
        slope = np.subtract(1.0, sig)
        slope *= x
        slope += 1.0
        slope *= sig
    np.multiply(x, sig, out=out)
    return slope


def silu(a: Tensor) -> Tensor:
    out_data = np.empty_like(a.data)
    slope = _silu_into(a.data, out_data, _recording((a,)))

    def bw(g):
        _accum(a, g * slope)
    return _make(out_data, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - np.square(out_data)))
    return _make(out_data, (a,), bw)


def maximum_const(a: Tensor, c: float) -> Tensor:
    mask = a.data > c

    def bw(g):
        _accum(a, g * mask)
    return _make(np.maximum(a.data, c), (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra and shape


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul is 2-D only")

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)
    return _make(a.data @ b.data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x (rows, n_in) @ w (n_in, n_out) + b (n_out,) as one op: the bias is added
    in place into the matmul output."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("linear is 2-D only")
    out = x.data @ w.data
    out += b.data

    def bw(g):
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))
    return _make(out, (x, w, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def bw(g):
        _accum(a, g.reshape(old))
    return _make(a.data.reshape(shape), (a,), bw)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def slice_rows(a: Tensor, start: int, size: int) -> Tensor:
    def bw(g):
        full = np.zeros_like(a.data)
        full[start:start + size] = g
        _accum(a, full)
    return _make(a.data[start:start + size], (a,), bw)


def take_cols(a: Tensor, cols) -> Tensor:
    """Last-axis entries `cols` (a slice, or an index array without repeats)."""
    def bw(g):
        full = np.zeros_like(a.data)
        full[..., cols] = g
        _accum(a, full)
    return _make(a.data[..., cols], (a,), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape).copy())
    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tmean(a: Tensor) -> Tensor:
    """Mean of all entries, a scalar."""
    def bw(g):
        _accum(a, np.broadcast_to(g / a.data.size, a.data.shape).copy())
    return _make(a.data.mean(), (a,), bw)


def _reduce_extreme(a: Tensor, starts, ufunc) -> Tensor:
    flat = a.data.reshape(-1)
    bounds = np.asarray(starts)
    value = ufunc.reduceat(flat, bounds)
    lengths = np.diff(np.append(bounds, flat.size))
    # first position holding its segment's extreme, as np.argmin/np.argmax pick
    # (a NaN is the extreme of its segment)
    hit = (flat == np.repeat(value, lengths)) | np.isnan(flat)
    idx = np.minimum.reduceat(np.where(hit, np.arange(flat.size), flat.size), bounds)

    def bw(g):
        full = np.zeros_like(flat)
        full[idx] = np.reshape(g, -1)
        _accum(a, full.reshape(a.data.shape))
    return _make(value, (a,), bw)


def reduce_min(a: Tensor, starts) -> Tensor:
    """Min over each segment flat[starts[s]:starts[s+1]] of the flattened
    entries (shape (S,)); the gradient goes to the first minimum."""
    return _reduce_extreme(a, starts, np.minimum)


def reduce_max(a: Tensor, starts) -> Tensor:
    """Max counterpart of reduce_min."""
    return _reduce_extreme(a, starts, np.maximum)


# ---------------------------------------------------------------------------
# pairwise-message primitives (node rows to ordered-pair rows of a packed batch)


def _csr(data, indices, indptr, shape):
    """scipy.sparse.csr_matrix((data, indices, indptr), shape)."""
    from scipy import sparse

    return sparse.csr_matrix((data, indices, indptr), shape=shape)


def _block_sums(counts, dtype):
    """0/1 CSR matrix whose row r sums the next counts[r] rows of its operand."""
    counts = np.asarray(counts, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return _csr(np.ones(indptr[-1], dtype=dtype), np.arange(indptr[-1]), indptr,
                (len(counts), int(indptr[-1])))


class PairLayout:
    """Row layout of B molecules of sizes n_b packed into one graph.

    Node rows: the n_b atoms of each molecule in turn (sum n_b rows). Pair
    rows: the n_b^2 ordered pairs (i, j) of each molecule in turn, i-major, so
    node row r owns the n_b consecutive pair rows starting at block_start[r].
    pair_i / pair_j give the node rows of a pair row's i and j, `transpose`
    maps row (i, j) to row (j, i), and `upper` lists the rows with i < j
    (each molecule's upper triangle, i-major). The sparse 0/1 operators
    sum_j and sum_i (nodes x pairs) add up each node's pair rows (i, .) and
    (., j); pair_gather (pairs x 2 nodes) maps stacked [a; b] to a[i] + b[j].
    """

    def __init__(self, sizes):
        given = np.asarray(sizes).reshape(-1)
        if given.dtype.kind == "f":
            fractional = ~(np.isfinite(given) & (given == np.floor(given)))
            if fractional.any():
                raise ValueError(f"molecule sizes must be whole numbers, got {given[fractional][0]:g}")
        sizes = given.astype(np.int64)
        if sizes.size == 0 or np.any(sizes < 1):
            raise ValueError("a pair layout needs one or more molecules of >= 1 atom")
        self.sizes = sizes
        self.node_start = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.row_size = np.repeat(sizes, sizes)                 # n_b of each node row
        self.block_start = np.concatenate([[0], np.cumsum(self.row_size)[:-1]])
        n_nodes, n_pairs = len(self.row_size), int(self.row_size.sum())
        first_atom = np.repeat(np.repeat(self.node_start, sizes), self.row_size)
        self.pair_i = np.repeat(np.arange(n_nodes), self.row_size)
        self.pair_j = first_atom + np.arange(n_pairs) - self.block_start[self.pair_i]
        self.transpose = self.block_start[self.pair_j] + self.pair_i - first_atom
        self.upper = np.flatnonzero(self.pair_i < self.pair_j)
        self.sum_j = _block_sums(self.row_size, _dtype)
        # row j of sum_i holds rows (i, j) for i in turn: the transposed block of j
        self.sum_i = _csr(self.sum_j.data, self.transpose, self.sum_j.indptr, self.sum_j.shape)
        self.pair_gather = _csr(np.ones(2 * n_pairs, dtype=_dtype),
                                np.stack([self.pair_i, n_nodes + self.pair_j], axis=1).ravel(),
                                np.arange(0, 2 * n_pairs + 1, 2), (n_pairs, 2 * n_nodes))

    @property
    def n_pairs(self) -> int:
        return len(self.pair_i)

    def symmetric(self, upper_values: np.ndarray) -> np.ndarray:
        """Pair-row array holding upper_values at the `upper` rows (i, j) and
        at their mirrors (j, i), zero on the diagonal."""
        out = np.zeros(self.n_pairs, dtype=np.asarray(upper_values).dtype)
        out[self.upper] = upper_values
        out[self.transpose[self.upper]] = upper_values
        return out


def repeat_rows(a: Tensor, times) -> Tensor:
    """Row r repeated times[r] consecutive times: with one row per molecule and
    times = the molecule sizes, every atom row sees its molecule's row."""
    counts = np.asarray(times, dtype=np.int64)
    if np.any(counts < 1):
        raise ValueError("repeat counts must be >= 1")

    def bw(g):
        _accum(a, _block_sums(counts, g.dtype) @ g)
    return _make(np.repeat(a.data, counts, axis=0), (a,), bw)


def tile_rows(a: Tensor, times: int) -> Tensor:
    """Whole matrix tiled `times` times: pair row (i, j) sees a[j]."""
    n = a.data.shape[0]

    def bw(g):
        _accum(a, g.reshape(times, n, -1).sum(axis=0))
    return _make(np.tile(a.data, (times, 1)), (a,), bw)


def block_mean_rows(a: Tensor, lay: PairLayout) -> Tensor:
    """(pairs, c) -> (nodes, c): the mean over each node's pair block (over j)."""
    counts = lay.row_size
    scale = 1 / counts[:, None].astype(_dtype)

    def bw(g):
        _accum(a, np.repeat(g * scale, counts, axis=0))
    return _make((lay.sum_j @ a.data) * scale, (a,), bw)


def transpose_pairs(a: Tensor, lay: PairLayout) -> Tensor:
    """Swap pair roles: row (i, j) -> row (j, i). Involution."""
    perm = lay.transpose

    def bw(g):
        _accum(a, g[perm])
    return _make(a.data[perm], (a,), bw)


def pair_silu(a: Tensor, b: Tensor, c: Tensor, lay: PairLayout) -> Tensor:
    """a, b (nodes, h), c (pairs, h) -> (pairs, h) with
    out[(i, j)] = silu(a[i] + b[j] + c[(i, j)]), built and activated in one buffer.
    The SiLU slope is kept only while the tape records."""
    pre = lay.pair_gather @ np.concatenate([a.data, b.data])
    pre += c.data
    slope = _silu_into(pre, pre, _recording((a, b, c)))

    def bw(g):
        d_pre = g * slope
        _accum(a, lay.sum_j @ d_pre)
        _accum(b, lay.sum_i @ d_pre)
        _accum(c, d_pre)
    return _make(pre, (a, b, c), bw)


def _node_major(x: np.ndarray) -> np.ndarray:
    """(K, nodes, D) coordinate sets as one contiguous (nodes, K, D) array, and back."""
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def pairwise_dot(cs: Tensor, lay: PairLayout) -> Tensor:
    """cs (K, nodes, D) -> (pairs, K) with out[(i, j), k] = <cs[k,i], cs[k,j]>."""
    x = _node_major(cs.data)
    dots = np.einsum("pkd,pkd->pk", np.repeat(x, lay.row_size, axis=0), x[lay.pair_j])

    def bw(g):
        # cs[k, i] meets cs[k, j] in rows (i, j) and (j, i)
        both = (g + g[lay.transpose])[:, :, None] * x[lay.pair_j]
        d_x = lay.sum_j @ both.reshape(lay.n_pairs, -1)
        _accum(cs, _node_major(d_x.reshape(x.shape)))
    return _make(dots, (cs,), bw)


def coord_mix(cs: Tensor, w: Tensor, lay: PairLayout) -> Tensor:
    """Weighted relative coordinate aggregation.

    cs (K, nodes, D), w (pairs, K) -> delta (K, nodes, D) with
    delta[k,i] = (1/n_b) * sum_j w[(i,j),k] * (cs[k,j] - cs[k,i]).
    """
    x = _node_major(cs.data)
    scale = 1 / lay.row_size[:, None, None].astype(_dtype)
    wk = w.data[:, :, None]                                    # (pairs, K, 1)
    term1 = (lay.sum_j @ (wk * x[lay.pair_j]).reshape(lay.n_pairs, -1)).reshape(x.shape)
    rowsum = (lay.sum_j @ w.data)[:, :, None]                  # (nodes, K, 1)

    def bw(g):
        gs = _node_major(g) * scale                            # (nodes, K, D)
        gs_i = np.repeat(gs, lay.row_size, axis=0)
        # x[j] enters row i's sum with weight w[(i, j)]: sum over i of rows (i, j)
        d_x = (lay.sum_i @ (wk * gs_i).reshape(lay.n_pairs, -1)).reshape(x.shape)
        d_x -= gs * rowsum
        d_w = np.einsum("pkd,pkd->pk", gs_i,
                        x[lay.pair_j] - np.repeat(x, lay.row_size, axis=0))
        _accum(cs, _node_major(d_x))
        _accum(w, d_w)
    return _make(_node_major((term1 - rowsum * x) * scale), (cs, w), bw)


def stack_scale(x: Tensor, w: Tensor) -> Tensor:
    """x (N, D), w (K,) -> (K, N, D) via out[k] = w[k] * x."""
    def bw(g):
        _accum(x, np.einsum("k,knd->nd", w.data, g))
        _accum(w, np.einsum("knd,nd->k", g, x.data))
    return _make(w.data[:, None, None] * x.data[None, :, :], (x, w), bw)


def stack_mix(cs: Tensor, v: Tensor) -> Tensor:
    """cs (K, N, D), v (K,) -> (N, D) via sum_k v[k] * cs[k]."""
    def bw(g):
        _accum(cs, v.data[:, None, None] * g[None, :, :])
        _accum(v, np.einsum("nd,knd->k", g, cs.data))
    return _make(np.einsum("k,knd->nd", v.data, cs.data), (cs, v), bw)


# ---------------------------------------------------------------------------
# losses


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray,
                          weights: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy over rows; optional per-row weights (e.g. to mask
    the bond-matrix diagonal). Weights are renormalized to sum to 1."""
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.data.shape[0]
    if weights is None:
        wnorm = np.full(n, 1.0 / n, dtype=_dtype)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must have positive sum")
        wnorm = (weights / total).astype(_dtype)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(n)
    loss = -(wnorm * logp[rows, targets]).sum()

    def bw(g):
        soft = np.exp(logp)
        soft[rows, targets] -= 1.0
        _accum(logits, g * soft * wnorm[:, None])
    return _make(loss, (logits,), bw)


def mse(pred: Tensor, target: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Mean over rows of the squared-norm residual; optional per-row weights,
    renormalized to sum to 1."""
    diff = sub(pred, Tensor(target))
    per_row = tsum(square(diff), axis=1)
    if weights is None:
        return tmean(per_row)
    weights = np.asarray(weights, dtype=np.float64)
    return tsum(mul(per_row, Tensor(weights / weights.sum())))


# ---------------------------------------------------------------------------
# diagnostics


def gradient_check(fn, params: dict, eps: float = 1e-4) -> dict:
    """Max mixed relative/absolute error per parameter between tape gradients
    and central finite differences (denominator floored at 1 so near-zero
    gradients are compared absolutely)."""
    zero_grads(params)
    loss = fn()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    errors = {}
    for name, p in params.items():
        flat = p.data.ravel()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = fn().item()
            flat[i] = orig - eps
            down = fn().item()
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * eps)
        fd = fd.reshape(p.data.shape)
        a = analytic[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1.0)
        errors[name] = float((np.abs(a - fd) / denom).max()) if a.size else 0.0
    return errors
