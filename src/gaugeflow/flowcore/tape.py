"""Reverse-mode automatic differentiation over dense numpy arrays of one
compute dtype.

A Tensor records its parents and a backward closure; backward() walks the
graph in reverse topological order and accumulates gradients on every tensor
that requires them. Inside `with no_grad():` ops record nothing, so inference
keeps no graph alive. The ops are the ones the networks here call:
broadcasting arithmetic, 2-D matmul and the fused matmul-plus-bias `linear`,
sums, SiLU, softmax cross-entropy, and ops whose adjoints are cheaper
written by hand than composed from smaller pieces: a whole MLP (mlp, linear
layers with SiLU between them), the squared-error loss (mse), the rank
head's per-molecule min-max normalization (minmax_normalize) and a few
pairwise-message primitives. mlp and mse give bitwise the values and
gradients of the single ops they fuse. The adjoints of matmul,
linear and mlp skip g @ W.T when the left operand needs no gradient
(constant features).

Compute dtype: every Tensor holds float32 by default. Inside
`with precision(np.float64):` Tensors made and ops run compute in float64
instead (the finite-difference and tight reference checks use it). The dtype
flows end to end: Tensor() casts its input, and the ops build their
constants, scales, buffers and losses in it, so no float64 array upcasts a
float32 chain. Callers keep their own state (coordinates, priors,
checkpoints) in float64; the cast happens where an array enters a Tensor.

The pairwise primitives take a packed batch and its PairLayout, and nothing
else: the atom ("node") rows of all molecules are concatenated, and so are
their ordered-pair rows, each molecule's n_b^2 pairs (i, j) in i-major order.
One molecule of n atoms is PairLayout([n]). The layout cuts the batch once
into blocks of consecutive same-size molecules (molecules are never
reordered), and the primitives run block by block on dense views: a block of
k molecules of n atoms is a (k, n, .) array of node rows and a (k, n, n, .)
array of pair rows, so a sum over j or i is a reshape-sum, a Gram or a
coordinate mix is a batched matmul, and a node term reaches its pairs by
broadcasting. Each block kernel (_gram, _mix and their adjoints) has one
implementation, shared by the single primitives (pairwise_dot, coord_mix,
block_mean_rows) and by pair_stage, CanonLite's whole pair-row pipeline as
one op: edge input (a row gather by bond class in the first layer), Gram,
first message layer, SiLU, mean over j, second message layer with the edge
update folded into its edge columns, tanh coordinate weights, coordinate mix
and the edge residual, with a blockwise adjoint. pair_stage has three outputs;
an op with several outputs hangs them on one hidden node (_make_many) whose
backward runs once all of their gradients are in. The layout's index arrays
cover each molecule's upper triangle only: upper_pairs symmetrizes pair rows
there, for the bond head, and PairLayout.symmetric mirrors one bond class
per pair i < j to both of its pair rows.
Importing this module loads numpy only.
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


def _make_many(outputs, parents, backward_fn) -> tuple:
    """Tensors of an op with several outputs. One hidden node holds the
    parents; backward_fn gets the list of the outputs' gradients (None for an
    output the loss does not reach) after every output has received its own."""
    outs = tuple(Tensor(data) for data in outputs)
    if _recording(parents):
        grads = [None] * len(outs)
        joint = _make(np.zeros(0, dtype=_dtype), parents, lambda _: backward_fn(grads))
        for index, out in enumerate(outs):
            def store(g, index=index):
                grads[index] = g
            out.requires_grad = True
            out._parents = (joint,)
            out._backward_fn = store
    return outs


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


def square(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, g * 2.0 * a.data)
    return _make(np.square(a.data), (a,), bw)


def _silu_into(half: np.ndarray, out: np.ndarray, slope: np.ndarray | None = None,
               work: np.ndarray | None = None) -> None:
    """Write silu(x) = x * sigmoid(x) to out (which may be half itself) from
    half = x / 2, and to `slope` when one is given the slope with respect to
    half, d silu / d half = 2 sig * (1 + x * (1 - sig)). `work` is an optional
    scratch array of half's shape.

    sigmoid(x) = (1 + tanh(x / 2)) / 2: tanh saturates instead of overflowing,
    and silu(x) = half * (1 + tanh(half)). Callers scale by 1/2 where it is
    cheapest (pair_stage in its node terms and weights); scaling by a power of
    two is exact."""
    two_sig = np.tanh(half, out=work)
    two_sig += 1.0
    if slope is not None:
        np.subtract(2.0, two_sig, out=slope)        # 2 (1 - sig)
        slope *= half
        slope += 1.0
        slope *= two_sig
    np.multiply(half, two_sig, out=out)


def silu(a: Tensor) -> Tensor:
    out_data = np.multiply(a.data, 0.5)
    slope = np.empty_like(a.data) if _recording((a,)) else None
    _silu_into(out_data, out_data, slope)
    if slope is not None:
        slope *= 0.5                                # d / d half to d / dx

    def bw(g):
        _accum(a, g * slope)
    return _make(out_data, (a,), bw)


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


def mlp(x: Tensor, weights: list, biases: list) -> Tensor:
    """A stack of linear layers x @ w + b with SiLU between them, as one op.

    Each layer runs linear's matmul and in-place bias add, and each SiLU
    runs silu's steps on the pre-activation in place (halve it, then
    _silu_into), so the output and every gradient round as the composition
    of linear and silu does. The adjoint walks the layers back with each
    layer's input and SiLU slope, and skips g @ W.T of the first layer when
    x needs no gradient."""
    if x.data.ndim != 2:
        raise ValueError("mlp is 2-D only")
    parents = (x, *weights, *biases)
    record = _recording(parents)
    inputs, slopes = [], []
    h = x.data
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = h @ w.data
        h += b.data
        if i < len(weights) - 1:
            h *= 0.5                                # silu's half = x / 2
            slope = np.empty_like(h) if record else None
            _silu_into(h, h, slope)
            if record:
                slope *= 0.5                        # d / d half to d / dx
                slopes.append(slope)

    def bw(g):
        for i in range(len(weights) - 1, -1, -1):
            _accum(weights[i], inputs[i].T @ g)
            _accum(biases[i], g.sum(axis=0))
            if i > 0:
                g = g @ weights[i].data.T
                g *= slopes[i - 1]
            elif x.requires_grad:
                _accum(x, g @ weights[0].data.T)
    return _make(h, parents, bw)


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


def tsum(a: Tensor, axis=None) -> Tensor:
    def bw(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape).copy())
    return _make(a.data.sum(axis=axis), (a,), bw)


def minmax_normalize(a: Tensor, starts) -> Tensor:
    """Each segment a[starts[s]:starts[s+1]] of the 1-D a as (a - lo) /
    max(hi - lo, 1e-6), with lo and hi its min and max: per molecule, the
    rank head scaled to [0, 1]. lo's and hi's gradients go to the first entry
    holding each, as np.argmin/np.argmax pick (a NaN is its segment's extreme)."""
    sizes = np.diff(np.append(starts, a.data.size))
    lo, hi = np.minimum.reduceat(a.data, starts), np.maximum.reduceat(a.data, starts)
    span = np.repeat(np.maximum(hi - lo, 1e-6), sizes)
    shifted = a.data - np.repeat(lo, sizes)

    def first(value):
        hit = (a.data == np.repeat(value, sizes)) | np.isnan(a.data)
        return np.minimum.reduceat(np.where(hit, np.arange(a.data.size), a.data.size), starts)

    def bw(g):
        g_shifted = g / span
        g_width = np.add.reduceat(-g * shifted / span ** 2, starts) * (hi - lo > 1e-6)
        full = np.zeros_like(a.data)
        full[first(lo)] = np.add.reduceat(-g_shifted, starts) - g_width
        full[first(hi)] += g_width
        _accum(a, g_shifted + full)
    return _make(shifted / span, (a,), bw)


# ---------------------------------------------------------------------------
# pairwise-message primitives (node rows to ordered-pair rows of a packed batch)


class PairLayout:
    """Row layout of B molecules of sizes n_b packed into one graph.

    Node rows: the n_b atoms of each molecule in turn (sum n_b rows). Pair
    rows: the n_b^2 ordered pairs (i, j) of each molecule in turn, i-major, so
    node row r owns the n_b consecutive pair rows starting at block_start[r].
    `upper` lists the rows with i < j (each molecule's upper triangle in
    turn, i-major), `lower` their mirrors (j, i) and `upper_i` their i's node
    rows; no index array is pair-row sized. `blocks` cuts the batch into
    runs of consecutive same-size molecules: (k, n, node rows, pair rows),
    whose node rows view as (k, n, .) and pair rows as (k, n, n, .) arrays.
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
        self.n_pairs = int(self.row_size.sum())
        pos = np.arange(len(self.row_size)) - np.repeat(self.node_start, sizes)
        after = self.row_size - 1 - pos     # atom i at pos p: upper pairs (i, i + d), d <= after
        self.upper_i = np.repeat(np.arange(len(pos)), after)
        d, p = concat_aranges(np.ones_like(after), after), pos[self.upper_i]
        self.upper = self.block_start[self.upper_i] + p + d
        self.lower = self.block_start[self.upper_i + d] + p
        self.blocks = _same_size_runs(sizes)

    def symmetric(self, upper_values: np.ndarray) -> np.ndarray:
        """Pair-row array holding upper_values at the `upper` rows (i, j) and
        at their mirrors (j, i), zero on the diagonal."""
        out = np.zeros(self.n_pairs, dtype=np.asarray(upper_values).dtype)
        out[self.upper] = upper_values
        out[self.lower] = upper_values
        return out


def concat_aranges(starts, lengths) -> np.ndarray:
    """starts[k], starts[k] + 1, ..., starts[k] + lengths[k] - 1 for each k in turn."""
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)


# Pair rows per block, at most (a molecule with more pairs is a block of its
# own). Blocks of about 1024 rows keep a (rows, 96) float32 hidden array and
# its temporaries in a core's L2 cache. One-core timings (one BLAS thread) of
# a no_grad CanonLite forward at 8 x N = 32: 10.0 ms with this cap, 9.8 ms at
# 2048, 10.7 ms at 4096 and 17.0 ms uncapped; at 16 x N = 32: 19.6, 19.5, 21.5
# and 36.9 ms; at 16 x N = 8: 2.1 ms, against 2.6 ms with a 256-row cap.
_BLOCK_PAIRS = 1024


def _same_size_runs(sizes) -> list:
    """(k, n, node slice, pair slice) of each block: k consecutive molecules of
    n atoms, at most _BLOCK_PAIRS pair rows unless k = 1, in batch order."""
    cuts = np.flatnonzero(np.diff(sizes)) + 1
    starts, ends = np.r_[0, cuts], np.r_[cuts, len(sizes)]
    blocks, node, pair = [], 0, 0
    for start, end in zip(starts.tolist(), ends.tolist()):
        n = int(sizes[start])
        per_block = max(1, _BLOCK_PAIRS // (n * n))
        for first in range(start, end, per_block):
            k = min(per_block, end - first)
            blocks.append((k, n, slice(node, node + k * n), slice(pair, pair + k * n * n)))
            node, pair = node + k * n, pair + k * n * n
    return blocks


# Block kernels. x is a block's coordinate sets (K, k, n, D); pair-row arrays
# of a block are (k, n, n, C), node-row arrays (k, n, C).


def _gram(x: np.ndarray, out: np.ndarray) -> None:
    """Write the Gram entries <x[c, b, i], x[c, b, j]> to out (k, n, n, K)."""
    out[...] = np.matmul(x, x.swapaxes(-1, -2)).transpose(1, 2, 3, 0)


def _stage_input(x: np.ndarray, e_rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A block's first message layer input (rows, K + E) written to out: the
    Gram entries of x (K, k, n, D), then the edge features e_rows (rows, E)."""
    n_sets, k, n, _ = x.shape
    _gram(x, out.reshape(k, n, n, -1)[..., :n_sets])
    out[:, n_sets:] = e_rows
    return out


def _gram_adjoint(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d x of sum <g, Gram(x)> for g (K, k, n, n): x[c, i] meets x[c, j] in
    entries (i, j) and (j, i)."""
    return np.matmul(g + g.swapaxes(-1, -2), x)


def _row_sums(w: np.ndarray) -> np.ndarray:
    """Sums over the last axis of w (..., n, n) as (..., n, 1): a batched
    matmul with a ones column, faster than a reduction over that short axis."""
    return np.matmul(w, np.ones((w.shape[-1], 1), dtype=w.dtype))


def _mix(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """delta[c, b, i] = 1/n * (sum over j of w[c, b, i, j] (x[c, b, j] - x[c, b, i]))
    for w (K, k, n, n): one batched matmul minus the row sums times x."""
    out = np.matmul(w, x)
    out -= _row_sums(w) * x
    out *= 1 / x.shape[2]
    return out


def _mix_adjoint(g: np.ndarray, w: np.ndarray, x: np.ndarray):
    """(d x, d w) of sum <g, _mix(w, x)>."""
    g = g * (1 / x.shape[2])
    d_x = np.matmul(w.swapaxes(-1, -2), g)
    d_x -= _row_sums(w) * g
    d_w = np.matmul(g, x.swapaxes(-1, -2))
    d_w -= np.einsum("...id,...id->...i", g, x)[..., None]
    return d_x, d_w


def _pool_j(a: np.ndarray, scale: float, out: np.ndarray) -> None:
    """Node rows out (k n, C) = scale * (sum over j of a (k, n, n, C)), as a
    batched (1, n) @ (n, C) matmul with a constant row (several times faster
    than a strided sum over that axis)."""
    k, n, _, c = a.shape
    np.matmul(np.full((1, n), scale, dtype=a.dtype), a, out=out.reshape(k, n, 1, c))


def _pool_i(a: np.ndarray, scale: float, out: np.ndarray) -> None:
    """Node rows out (k n, C) = scale * (sum over i of a (k, n, n, C)), one
    (1, n) @ (n, n C) matmul per molecule."""
    k, n, _, c = a.shape
    np.matmul(np.full((1, n), scale, dtype=a.dtype), a.reshape(k, n, n * c),
              out=out.reshape(k, 1, n * c))


def _coords(cs: np.ndarray, k: int, n: int, nodes: slice) -> np.ndarray:
    """A block's coordinate sets of a (K, nodes, D) array as a (K, k, n, D) view."""
    return cs[:, nodes].reshape(cs.shape[0], k, n, cs.shape[2])


def repeat_rows(a: Tensor, times) -> Tensor:
    """Row r repeated times[r] consecutive times: with one row per molecule and
    times = the molecule sizes, every atom row sees its molecule's row."""
    counts = np.asarray(times, dtype=np.int64)
    if np.any(counts < 1):
        raise ValueError("repeat counts must be >= 1")

    def bw(g):
        _accum(a, np.add.reduceat(g, np.cumsum(counts) - counts, axis=0))
    return _make(np.repeat(a.data, counts, axis=0), (a,), bw)


def tile_rows(a: Tensor, times: int) -> Tensor:
    """Whole matrix tiled `times` times: pair row (i, j) sees a[j]."""
    n = a.data.shape[0]

    def bw(g):
        _accum(a, g.reshape(times, n, -1).sum(axis=0))
    return _make(np.tile(a.data, (times, 1)), (a,), bw)


def block_mean_rows(a: Tensor, lay: PairLayout) -> Tensor:
    """(pairs, c) -> (nodes, c): the mean over each node's pair block (over j)."""
    c = a.data.shape[1]
    out = np.empty((len(lay.row_size), c), dtype=_dtype)
    for k, n, nodes, pairs in lay.blocks:
        _pool_j(a.data[pairs].reshape(k, n, n, c), 1 / n, out[nodes])

    def bw(g):
        _accum(a, np.repeat(g * (1 / lay.row_size[:, None].astype(_dtype)), lay.row_size, axis=0))
    return _make(out, (a,), bw)


def transpose_pairs(a: Tensor, lay: PairLayout) -> Tensor:
    """Swap pair roles: row (i, j) -> row (j, i), block by block. Involution."""
    def swap(rows):
        return np.concatenate([rows[pairs].reshape(k, n, n, -1).swapaxes(1, 2)
                               .reshape(rows[pairs].shape) for k, n, _, pairs in lay.blocks])
    return _make(swap(a.data), (a,), lambda g: _accum(a, swap(g)))


def pairwise_dot(cs: Tensor, lay: PairLayout) -> Tensor:
    """cs (K, nodes, D) -> (pairs, K) with out[(i, j), k] = <cs[k,i], cs[k,j]>."""
    n_sets = cs.data.shape[0]
    out = np.empty((lay.n_pairs, n_sets), dtype=_dtype)
    for k, n, nodes, pairs in lay.blocks:
        _gram(_coords(cs.data, k, n, nodes), out[pairs].reshape(k, n, n, n_sets))

    def bw(g):
        d_cs = np.empty_like(cs.data)
        for k, n, nodes, pairs in lay.blocks:
            g_b = g[pairs].reshape(k, n, n, n_sets).transpose(3, 0, 1, 2)
            _coords(d_cs, k, n, nodes)[...] = _gram_adjoint(g_b, _coords(cs.data, k, n, nodes))
        _accum(cs, d_cs)
    return _make(out, (cs,), bw)


def coord_mix(cs: Tensor, w: Tensor, lay: PairLayout) -> Tensor:
    """Weighted relative coordinate aggregation.

    cs (K, nodes, D), w (pairs, K) -> delta (K, nodes, D) with
    delta[k,i] = (1/n_b) * (sum over j of w[(i,j),k] * (cs[k,j] - cs[k,i])).
    """
    n_sets = cs.data.shape[0]
    out = np.empty_like(cs.data)
    for k, n, nodes, pairs in lay.blocks:
        w_b = w.data[pairs].reshape(k, n, n, n_sets).transpose(3, 0, 1, 2)
        _coords(out, k, n, nodes)[...] = _mix(w_b, _coords(cs.data, k, n, nodes))

    def bw(g):
        d_cs, d_w = np.empty_like(cs.data), np.empty_like(w.data)
        for k, n, nodes, pairs in lay.blocks:
            w_b = w.data[pairs].reshape(k, n, n, n_sets).transpose(3, 0, 1, 2)
            d_x, d_wb = _mix_adjoint(_coords(g, k, n, nodes), w_b, _coords(cs.data, k, n, nodes))
            _coords(d_cs, k, n, nodes)[...] = d_x
            d_w[pairs].reshape(k, n, n, n_sets)[...] = d_wb.transpose(1, 2, 3, 0)
        _accum(cs, d_cs)
        _accum(w, d_w)
    return _make(out, (cs, w), bw)


def pair_stage(cs: Tensor, e: Tensor, from_i: Tensor, from_j: Tensor, w_in: Tensor,
               w_out: Tensor, b_out: Tensor, w_edge: Tensor, b_edge: Tensor,
               lay: PairLayout, bonds: np.ndarray | None = None):
    """CanonLite's pair stage as one op, evaluated block by block.

    cs (K, nodes, D) coordinate sets; e (pairs, E) edge features, or, when
    bonds (pairs,) class indices are given, a (classes, E) table whose row
    bonds[(i, j)] is pair (i, j)'s features; from_i and from_j (nodes, H) the
    node terms of the first message layer, w_in (K + E, H) its Gram and edge
    rows, w_out (H, K + E) and b_out (K + E,) the second layer's coordinate
    and edge columns; w_edge (E, E) and b_edge (E,) the edge update. For each
    pair (i, j) of a molecule of n atoms:
        hidden[(i, j)] = silu(from_i[i] + from_j[j] + [<cs_i, cs_j>, e_ij] @ w_in)
        [m_coord, m_edge][(i, j)] = hidden[(i, j)] @ w_out + b_out
    Returns three tensors: the mean over j of hidden (nodes, H); the coordinate
    update (K, nodes, D), delta[c, i] = 1/n * (sum over j of
    tanh(m_coord[(i, j), c]) (cs[c, j] - cs[c, i])); and the next edge
    features e_ij + m_edge[(i, j)] @ w_edge + b_edge (pairs, E).

    The edge update is linear, so it is folded into the second layer's edge
    columns (w_out_e @ w_edge, bias b_out_e @ w_edge + b_edge) and costs no
    pass over the pair rows. The first layer runs on half its input scale
    (w_in, from_i and from_j times 1/2, exact), which is what the SiLU reads.
    Per block of k molecules of n atoms the Gram is a batched matmul written
    straight into the first message layer's input, from_i and from_j are
    broadcast-added into that layer's output, SiLU runs in place, the mean over
    j is a batched matmul with a constant row, and the coordinate mix is a
    batched matmul. Pair-row arrays live in a few block-sized buffers reused
    by every block. Only while the tape records does the op keep, for the
    adjoint, the first layer's input, the hidden activation and its SiLU slope
    for the whole batch and each block's coordinate weights.
    """
    parents = (cs, e, from_i, from_j, w_in, w_out, b_out, w_edge, b_edge)
    record = _recording(parents)
    n_sets, n_cols = cs.data.shape[0], w_in.data.shape[0]
    width = w_in.data.shape[1]
    half_w_in = w_in.data * 0.5
    half_from_i, half_from_j = from_i.data * 0.5, from_j.data * 0.5
    w_out_e, b_out_e = w_out.data[:, n_sets:], b_out.data[n_sets:]
    w_fold = np.concatenate([w_out.data[:, :n_sets], w_out_e @ w_edge.data], axis=1)
    b_fold = np.concatenate([b_out.data[:n_sets], b_out_e @ w_edge.data + b_edge.data])
    most = max(pairs.stop - pairs.start for *_, pairs in lay.blocks)
    kept_rows = lay.n_pairs if record else most
    hidden_buf = np.empty((kept_rows, width), dtype=_dtype)
    slope_buf = np.empty((kept_rows, width), dtype=_dtype) if record else None
    in_buf = np.empty((kept_rows, n_cols), dtype=_dtype)
    two_sig = np.empty((most, width), dtype=_dtype)
    m_pair_buf = np.empty((most, n_cols), dtype=_dtype)
    mean = np.empty((len(lay.row_size), width), dtype=_dtype)
    delta = np.empty_like(cs.data)
    e_next = np.empty((lay.n_pairs, e.data.shape[1]), dtype=_dtype)
    coord_w = []
    for k, n, nodes, pairs in lay.blocks:
        rows = k * n * n
        at = pairs if record else slice(0, rows)
        x = _coords(cs.data, k, n, nodes)
        hidden = hidden_buf[at]
        e_rows = e.data[pairs] if bonds is None else e.data[bonds[pairs]]
        layer_in = _stage_input(x, e_rows, in_buf[at])
        np.matmul(layer_in, half_w_in, out=hidden)
        hidden4 = hidden.reshape(k, n, n, width)
        hidden4 += half_from_i[nodes].reshape(k, n, 1, width)
        hidden4 += half_from_j[nodes].reshape(k, 1, n, width)
        _silu_into(hidden, hidden, slope_buf[at] if record else None, two_sig[:rows])
        _pool_j(hidden4, 1 / n, mean[nodes])
        m_pair = np.matmul(hidden, w_fold, out=m_pair_buf[:rows])
        m_pair += b_fold
        np.add(layer_in[:, n_sets:], m_pair[:, n_sets:], out=e_next[pairs])
        w = np.tanh(m_pair[:, :n_sets].reshape(k, n, n, n_sets).transpose(3, 0, 1, 2),
                    out=np.empty((n_sets, k, n, n), dtype=_dtype))
        _coords(delta, k, n, nodes)[...] = _mix(w, x)
        if record:
            coord_w.append(w)

    def bw(grads):
        g_mean, g_delta, g_next = grads
        d_cs = np.zeros_like(cs.data)
        d_e = np.zeros_like(e.data) if bonds is not None else np.empty_like(e.data)
        d_from_i, d_from_j = np.empty_like(mean), np.empty_like(mean)
        d_half_w_in, d_w_fold = np.zeros_like(w_in.data), np.zeros_like(w_fold)
        d_b_fold = np.zeros_like(b_fold)
        d_pair_buf = np.zeros((most, n_cols), dtype=_dtype)
        d_half_buf = np.empty((most, width), dtype=_dtype)
        d_in_buf = np.empty((most, n_cols), dtype=_dtype)
        ones = np.ones(most, dtype=_dtype)        # a column sum as a matmul, several times faster
        classes = np.arange(e.data.shape[0])[:, None]
        for (k, n, nodes, pairs), w in zip(lay.blocks, coord_w):
            rows = k * n * n
            x, d_x = _coords(cs.data, k, n, nodes), _coords(d_cs, k, n, nodes)
            d_pair = d_pair_buf[:rows]
            if g_delta is not None:
                d_xm, d_w = _mix_adjoint(_coords(g_delta, k, n, nodes), w, x)
                d_x += d_xm
                d_w *= 1 - np.square(w)
                d_pair.reshape(k, n, n, n_cols)[..., :n_sets] = d_w.transpose(1, 2, 3, 0)
            if g_next is not None:
                d_pair[:, n_sets:] = g_next[pairs]
            d_w_fold += hidden_buf[pairs].T @ d_pair
            d_b_fold += ones[:rows] @ d_pair
            d_half = np.matmul(d_pair, w_fold.T, out=d_half_buf[:rows])
            d_half4 = d_half.reshape(k, n, n, width)
            if g_mean is not None:
                d_half4 += (g_mean[nodes] * (1 / n)).reshape(k, n, 1, width)
            d_half *= slope_buf[pairs]
            _pool_j(d_half4, 0.5, d_from_i[nodes])
            _pool_i(d_half4, 0.5, d_from_j[nodes])
            d_half_w_in += in_buf[pairs].T @ d_half
            d_in = np.matmul(d_half, half_w_in.T, out=d_in_buf[:rows])
            d_e_rows = d_in[:, n_sets:]
            if g_next is not None:
                d_e_rows += g_next[pairs]
            if bonds is None:
                d_e[pairs] = d_e_rows
            else:
                d_e += np.equal(classes, bonds[pairs]).astype(_dtype) @ d_e_rows
            d_gram = d_in.reshape(k, n, n, n_cols)[..., :n_sets].transpose(3, 0, 1, 2)
            d_x += _gram_adjoint(d_gram, x)
        # unfold the edge update from the second layer's edge columns
        d_w_out_e, d_b_out_e = d_w_fold[:, n_sets:], d_b_fold[n_sets:]
        d_w_out = np.concatenate([d_w_fold[:, :n_sets], d_w_out_e @ w_edge.data.T], axis=1)
        d_b_out = np.concatenate([d_b_fold[:n_sets], w_edge.data @ d_b_out_e])
        d_w_edge = w_out_e.T @ d_w_out_e + np.outer(b_out_e, d_b_out_e)
        for t, g in zip(parents, (d_cs, d_e, d_from_i, d_from_j, d_half_w_in * 0.5,
                                  d_w_out, d_b_out, d_w_edge, d_b_out_e)):
            _accum(t, g)
    return _make_many((mean, delta, e_next), parents, bw)


def upper_pairs(a: Tensor, lay: PairLayout) -> Tensor:
    """(pairs, C) -> (upper pairs, C): the symmetrized rows
    (a[(i, j)] + a[(j, i)]) / 2 at each molecule's i < j pairs (lay.upper)."""
    out = a.data[lay.upper]
    out += a.data[lay.lower]
    out *= 0.5

    def bw(g):
        half = g * 0.5
        full = np.zeros_like(a.data)
        full[lay.upper] = half
        full[lay.lower] = half
        _accum(a, full)
    return _make(out, (a,), bw)


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
    renormalized to sum to 1. One op whose value and gradient round as the
    composition of sub, square, a row sum and a mean (or a weighted sum) does."""
    diff = pred.data - np.asarray(target, dtype=_dtype)
    per_row = np.square(diff).sum(axis=1)
    if weights is None:
        loss = per_row.mean()
    else:
        weights = np.asarray(weights, dtype=np.float64)
        weights = (weights / weights.sum()).astype(_dtype)
        loss = (per_row * weights).sum()

    def bw(g):
        row = g / per_row.size if weights is None else (g * weights)[:, None]
        _accum(pred, row * 2.0 * diff)
    return _make(loss, (pred,), bw)


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
