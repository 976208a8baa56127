"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A Tensor records its parents and a backward closure; backward() walks the
graph in reverse topological order and accumulates gradients on every tensor
that requires them. Ops cover what the networks here need: broadcasting
arithmetic, 2-D matmul, reductions, activations, softmax cross-entropy, and a
few pairwise-message primitives whose adjoints are cheaper written by hand
than composed from smaller pieces.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # operator sugar
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
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


def pow_const(a: Tensor, p: float) -> Tensor:
    def bw(g):
        _accum(a, g * p * a.data ** (p - 1))
    return _make(a.data ** p, (a,), bw)


def square(a: Tensor) -> Tensor:
    return pow_const(a, 2.0)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bw(g):
        _accum(a, g * out_data)
    return _make(out_data, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out_data ** 2))
    return _make(out_data, (a,), bw)


def _stable_sigmoid(x) -> np.ndarray:
    # sigmoid(x) = (1 + tanh(x / 2)) / 2: tanh saturates instead of overflowing
    out = np.tanh(0.5 * np.asarray(x, dtype=np.float64))
    out *= 0.5
    out += 0.5
    return out


def sigmoid(a: Tensor) -> Tensor:
    out_data = _stable_sigmoid(a.data)

    def bw(g):
        _accum(a, g * out_data * (1.0 - out_data))
    return _make(out_data, (a,), bw)


def silu(a: Tensor) -> Tensor:
    sig = _stable_sigmoid(a.data)
    out_data = a.data * sig

    def bw(g):
        _accum(a, g * sig * (1.0 + a.data * (1.0 - sig)))
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
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)
    return _make(a.data @ b.data, (a, b), bw)


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


def slice_cols(a: Tensor, start: int, size: int) -> Tensor:
    def bw(g):
        full = np.zeros_like(a.data)
        full[..., start:start + size] = g
        _accum(a, full)
    return _make(a.data[..., start:start + size], (a,), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape).copy())
    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g / count, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg / count, a.data.shape).copy())
    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bw)


def reduce_min(a: Tensor) -> Tensor:
    idx = int(np.argmin(a.data))

    def bw(g):
        full = np.zeros_like(a.data)
        full.flat[idx] = g
        _accum(a, full)
    return _make(a.data.min(), (a,), bw)


def reduce_max(a: Tensor) -> Tensor:
    idx = int(np.argmax(a.data))

    def bw(g):
        full = np.zeros_like(a.data)
        full.flat[idx] = g
        _accum(a, full)
    return _make(a.data.max(), (a,), bw)


# ---------------------------------------------------------------------------
# pairwise-message primitives (N nodes to N^2 ordered pairs, i-major rows)


def repeat_rows(a: Tensor, times: int) -> Tensor:
    """Row block i repeated `times` consecutive times: pair row (i, j) sees a[i]."""
    n = a.data.shape[0]

    def bw(g):
        _accum(a, g.reshape(n, times, -1).sum(axis=1))
    return _make(np.repeat(a.data, times, axis=0), (a,), bw)


def tile_rows(a: Tensor, times: int) -> Tensor:
    """Whole matrix tiled `times` times: pair row (i, j) sees a[j]."""
    n = a.data.shape[0]

    def bw(g):
        _accum(a, g.reshape(times, n, -1).sum(axis=0))
    return _make(np.tile(a.data, (times, 1)), (a,), bw)


def pair_sum(a: Tensor, b: Tensor) -> Tensor:
    """a, b (N, c) -> (N^2, c) with out[i*N+j] = a[i] + b[j]."""
    n, c = a.data.shape

    def bw(g):
        g3 = g.reshape(n, n, c)
        _accum(a, g3.sum(axis=1))
        _accum(b, g3.sum(axis=0))
    return _make((a.data[:, None, :] + b.data[None, :, :]).reshape(n * n, c), (a, b), bw)


def block_mean_rows(a: Tensor, block: int) -> Tensor:
    """(n*block, c) -> (n, c), mean within each consecutive block (aggregate over j)."""
    n = a.data.shape[0] // block
    c = a.data.shape[1]

    def bw(g):
        _accum(a, np.repeat(g / block, block, axis=0))
    return _make(a.data.reshape(n, block, c).mean(axis=1), (a,), bw)


def transpose_pairs(a: Tensor, n: int) -> Tensor:
    """Swap pair roles: row (i, j) -> row (j, i). Involution."""
    perm = np.arange(n * n).reshape(n, n).T.ravel()

    def bw(g):
        _accum(a, g[perm])
    return _make(a.data[perm], (a,), bw)


def pairwise_dot(cs: Tensor) -> Tensor:
    """cs (K, N, D) -> (N^2, K) with out[i*N+j, k] = <cs[k,i], cs[k,j]>."""
    k, n, _ = cs.data.shape
    out_data = np.einsum("knd,kmd->nmk", cs.data, cs.data).reshape(n * n, k)

    def bw(g):
        g3 = g.reshape(n, n, k)
        d1 = np.einsum("nmk,kmd->knd", g3, cs.data)
        d2 = np.einsum("mnk,kmd->knd", g3, cs.data)
        _accum(cs, d1 + d2)
    return _make(out_data, (cs,), bw)


def coord_mix(cs: Tensor, w: Tensor) -> Tensor:
    """Weighted relative coordinate aggregation.

    cs (K, N, D), w (N^2, K) -> delta (K, N, D) with
    delta[k,i] = (1/N) * sum_j w[(i,j),k] * (cs[k,j] - cs[k,i]).
    """
    k, n, d = cs.data.shape
    w3 = w.data.reshape(n, n, k)
    rowsum = w3.sum(axis=1)                                    # (N, K)
    term1 = np.einsum("ijk,kjd->kid", w3, cs.data)
    out_data = (term1 - rowsum.T[:, :, None] * cs.data) / n

    def bw(g):
        d_cs = np.einsum("kid,ijk->kjd", g, w3) / n
        d_cs -= g * rowsum.T[:, :, None] / n
        diff = cs.data[:, None, :, :] - cs.data[:, :, None, :]  # (K, i, j, D)
        d_w = np.einsum("kid,kijd->ijk", g, diff) / n
        _accum(cs, d_cs)
        _accum(w, d_w.reshape(n * n, k))
    return _make(out_data, (cs, w), bw)


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
        wnorm = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must have positive sum")
        wnorm = weights / total
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(n)
    loss = -(wnorm * logp[rows, targets]).sum()

    def bw(g):
        soft = np.exp(logp)
        soft[rows, targets] -= 1.0
        _accum(logits, g * soft * wnorm[:, None])
    return _make(np.float64(loss), (logits,), bw)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean over rows of the squared-norm residual."""
    diff = sub(pred, Tensor(target))
    return tmean(tsum(square(diff), axis=1))


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
