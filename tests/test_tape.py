"""Reverse-mode tape: every primitive checked against central differences."""

import numpy as np
import pytest

from gaugeflow.flowcore import tape
from gaugeflow.flowcore.tape import Tensor


def check(fn, params, tol=1e-6):
    errs = tape.gradient_check(fn, params)
    worst = max(errs.values())
    assert worst < tol, errs


def p(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


def test_arithmetic_ops():
    a, b = p((4, 3), 0), p((4, 3), 1)
    params = {"a": a, "b": b}
    check(lambda: tape.tsum(tape.mul(tape.add(a, b), tape.sub(a, b))), params)
    check(lambda: tape.tsum(tape.div(a, tape.add(tape.square(b), Tensor(np.full((4, 3), 0.5))))), params)


def test_broadcast_gradients():
    a = p((5, 3), 2)
    row = p((1, 3), 3)
    check(lambda: tape.tsum(tape.mul(a, row)), {"a": a, "row": row})
    check(lambda: tape.tsum(tape.add(a, row)), {"a": a, "row": row})


def test_nonlinearities():
    a = p((6, 4), 4, scale=2.0)
    check(lambda: tape.tsum(tape.silu(a)), {"a": a})


def test_sigmoid_stable_at_extremes():
    big = Tensor(np.array([[800.0, -800.0]]), requires_grad=True)
    with np.errstate(over="raise"):
        out = tape.silu(big)
    assert np.allclose(out.data, [[800.0, 0.0]])
    tape.backward(tape.tsum(out))
    assert np.all(np.isfinite(big.grad))


def test_maximum_const_subgradient():
    a = Tensor(np.array([[-1.0, 0.5, 2.0]]), requires_grad=True)
    out = tape.maximum_const(a, 0.0)
    tape.backward(tape.tsum(out))
    assert a.grad.tolist() == [[0.0, 1.0, 1.0]]


def test_matmul_reshape_concat_slice():
    a, b = p((4, 3), 5), p((3, 2), 6)
    params = {"a": a, "b": b}
    check(lambda: tape.tsum(tape.matmul(a, b)), params)
    check(lambda: tape.tsum(tape.square(tape.reshape(a, (2, 6)))), params)
    check(lambda: tape.tsum(tape.square(tape.concat([a, tape.square(a)], axis=1))), params)
    check(lambda: tape.tsum(tape.square(tape.take_cols(a, slice(1, 3)))), params)


def test_reductions():
    a = p((5, 4), 7)
    check(lambda: tape.tmean(tape.square(a)), {"a": a})
    check(lambda: tape.tsum(tape.square(tape.reduce_min(a, [0]))), {"a": a})
    check(lambda: tape.tsum(tape.square(tape.reduce_max(a, [0]))), {"a": a})


def test_pair_message_primitives():
    n, k, d = 3, 2, 3
    x = p((n, d), 8)
    w = p((k,), 9)
    v = p((k,), 10)
    pw = p((n * n, k), 11)
    params = {"x": x, "w": w, "v": v, "pw": pw}
    lay = tape.PairLayout([n])

    def fwd():
        cs = tape.stack_scale(x, w)                 # (K, N, D)
        dots = tape.pairwise_dot(cs, lay)           # (N^2, K)
        mixed = tape.coord_mix(cs, tape.add(dots, pw), lay)
        out = tape.stack_mix(mixed, v)              # (N, D)
        rows = tape.repeat_rows(out, np.full(n, n))
        tiles = tape.tile_rows(out, n)
        both = tape.concat([rows, tiles], axis=1)
        pooled = tape.block_mean_rows(both, lay)
        return tape.tsum(tape.square(pooled))
    check(fwd, params)


def test_pair_sum_broadcasts_over_pairs():
    n = 3
    a, b = p((n, 2), 18), p((n, 2), 19)
    lay = tape.PairLayout([n])
    out = tape.pair_sum(a, b, lay)
    assert np.allclose(out.data, tape.repeat_rows(a, np.full(n, n)).data + tape.tile_rows(b, n).data)
    w = Tensor(np.random.default_rng(20).standard_normal((n * n, 2)))
    check(lambda: tape.tsum(tape.mul(tape.square(tape.pair_sum(a, b, lay)), w)), {"a": a, "b": b})


def test_slice_rows():
    a = p((5, 3), 21)
    assert np.array_equal(tape.slice_rows(a, 1, 3).data, a.data[1:4])
    check(lambda: tape.tsum(tape.square(tape.slice_rows(a, 1, 3))), {"a": a})


def test_transpose_pairs_involution():
    n = 3
    a = p((n * n, 2), 12)
    lay = tape.PairLayout([n])
    out = tape.transpose_pairs(tape.transpose_pairs(a, lay), lay)
    assert np.allclose(out.data, a.data)
    check(lambda: tape.tsum(tape.square(tape.transpose_pairs(a, lay))), {"a": a})


def test_softmax_cross_entropy_value_and_grad():
    from scipy.special import log_softmax

    rng = np.random.default_rng(13)
    logits_np = rng.standard_normal((6, 4))
    targets = rng.integers(0, 4, 6)
    logits = Tensor(logits_np.copy(), requires_grad=True)
    loss = tape.softmax_cross_entropy(logits, targets)
    ref = -log_softmax(logits_np, axis=1)[np.arange(6), targets].mean()
    assert abs(loss.item() - ref) < 1e-12
    check(lambda: tape.softmax_cross_entropy(logits, targets), {"logits": logits})

    w = np.array([1.0, 0.0, 2.0, 0.0, 1.0, 1.0])
    check(lambda: tape.softmax_cross_entropy(logits, targets, weights=w), {"logits": logits})
    with pytest.raises(ValueError):
        tape.softmax_cross_entropy(logits, targets, weights=np.zeros(6))


def test_mse_matches_numpy():
    rng = np.random.default_rng(14)
    pred_np = rng.standard_normal((8, 3))
    target = rng.standard_normal((8, 3))
    pred = Tensor(pred_np.copy(), requires_grad=True)
    loss = tape.mse(pred, target)
    assert abs(loss.item() - ((pred_np - target) ** 2).sum(axis=1).mean()) < 1e-12
    check(lambda: tape.mse(pred, target), {"pred": pred})


def test_grad_accumulates_across_reuse():
    a = Tensor(np.array([[2.0]]), requires_grad=True)
    out = tape.add(tape.square(a), tape.mul(a, Tensor(np.array([[3.0]]))))
    tape.backward(tape.tsum(out))
    assert np.allclose(a.grad, [[2 * 2.0 + 3.0]])
    # zero_grads resets for the next pass
    tape.zero_grads({"a": a})
    assert a.grad is None or np.all(a.grad == 0.0)


def test_pair_layout_rows():
    lay = tape.PairLayout([2, 1, 3])
    assert (len(lay.row_size), lay.n_pairs) == (6, 14)
    pairs = [(i, j) for start, n in ((0, 2), (2, 1), (3, 3))
             for i in range(start, start + n) for j in range(start, start + n)]
    assert list(zip(lay.pair_i, lay.pair_j)) == pairs
    assert [pairs[r] for r in lay.transpose] == [(j, i) for i, j in pairs]
    assert lay.block_start.tolist() == [0, 2, 4, 5, 8, 11]
    with pytest.raises(ValueError):
        tape.PairLayout([2, 0])


def test_segmented_pair_primitives_match_per_molecule_ops():
    # every packed op equals the one-molecule op on each segment, and its
    # adjoint passes central differences
    sizes = [1, 3, 2]
    lay = tape.PairLayout(sizes)
    n_nodes = sum(sizes)
    k, d, c = 2, 3, 2
    x = p((n_nodes, d), 30)
    w = p((k,), 31)
    a, b = p((n_nodes, c), 32), p((n_nodes, c), 33)
    pw = p((lay.n_pairs, k), 34)
    cs = tape.stack_scale(x, w)
    nodes = np.split(np.arange(n_nodes), np.cumsum(sizes)[:-1])
    pairs = np.split(np.arange(lay.n_pairs), np.cumsum(np.square(sizes))[:-1])
    dots = tape.pairwise_dot(cs, lay).data
    mixed = tape.coord_mix(cs, pw, lay).data
    summed = tape.pair_sum(a, b, lay).data
    swapped = tape.transpose_pairs(pw, lay).data
    pooled = tape.block_mean_rows(pw, lay).data
    for n, rows, prs in zip(sizes, nodes, pairs):
        cs_b = Tensor(cs.data[:, rows])
        one = tape.PairLayout([n])
        assert np.allclose(dots[prs], tape.pairwise_dot(cs_b, one).data)
        assert np.allclose(mixed[:, rows], tape.coord_mix(cs_b, Tensor(pw.data[prs]), one).data)
        assert np.allclose(summed[prs], tape.pair_sum(Tensor(a.data[rows]),
                                                      Tensor(b.data[rows]), one).data)
        assert np.allclose(swapped[prs], tape.transpose_pairs(Tensor(pw.data[prs]), one).data)
        assert np.allclose(pooled[rows], tape.block_mean_rows(Tensor(pw.data[prs]), one).data)

    weights = Tensor(np.random.default_rng(35).standard_normal((lay.n_pairs, k)))

    def fwd():
        cs = tape.stack_scale(x, w)
        dots = tape.add(tape.pairwise_dot(cs, lay), pw)
        mixed = tape.coord_mix(cs, tape.transpose_pairs(dots, lay), lay)
        out = tape.tsum(tape.square(mixed))
        msg = tape.mul(tape.square(tape.pair_sum(a, b, lay)), weights)
        return tape.add(out, tape.tsum(tape.square(tape.block_mean_rows(msg, lay))))
    check(fwd, {"x": x, "w": w, "a": a, "b": b, "pw": pw})


def test_segmented_min_max_and_repeat():
    a = p((7,), 36)
    starts = np.array([0, 1, 4])
    lo = tape.reduce_min(a, starts)
    hi = tape.reduce_max(a, starts)
    pieces = np.split(a.data, starts[1:])
    assert np.array_equal(lo.data, [s.min() for s in pieces])
    assert np.array_equal(hi.data, [s.max() for s in pieces])
    sizes = np.diff(np.append(starts, 7))
    assert np.array_equal(tape.repeat_rows(lo, sizes).data, np.repeat(lo.data, sizes))
    ties = Tensor(np.array([2.0, 1.0, 1.0, 3.0]), requires_grad=True)
    tape.backward(tape.tsum(tape.reduce_min(ties, np.array([0, 2]))))
    assert ties.grad.tolist() == [0.0, 1.0, 1.0, 0.0]     # first minimum of each segment
    weights = Tensor(np.random.default_rng(37).standard_normal(7))

    def fwd():
        span = tape.sub(tape.repeat_rows(tape.reduce_max(a, starts), sizes),
                        tape.repeat_rows(tape.reduce_min(a, starts), sizes))
        return tape.tsum(tape.mul(tape.square(span), weights))
    check(fwd, {"a": a})


def test_no_grad_records_no_graph():
    a = p((3, 2), 38)
    with tape.no_grad():
        out = tape.tsum(tape.square(a))
    assert not out.requires_grad and out._parents == () and out._backward_fn is None
    assert tape.tsum(tape.square(a)).requires_grad
    with pytest.raises(RuntimeError):
        with tape.no_grad():
            raise RuntimeError("the flag is restored on the way out")
    assert tape.square(a).requires_grad


def test_linear_matches_matmul_plus_bias():
    x, w, b = p((5, 3), 40), p((3, 4), 41), p((4,), 42)
    out = tape.linear(x, w, b)
    assert np.array_equal(out.data, tape.add(tape.matmul(x, w), b).data)
    check(lambda: tape.tsum(tape.square(tape.linear(x, w, b))), {"x": x, "w": w, "b": b})
    # a constant input gets no adjoint; the weight and bias still do
    const = Tensor(x.data.copy())
    check(lambda: tape.tsum(tape.square(tape.linear(const, w, b))), {"w": w, "b": b})
    tape.zero_grads({"w": w, "b": b})
    tape.backward(tape.tsum(tape.square(tape.linear(const, w, b))))
    assert const.grad is None and w.grad is not None and b.grad is not None
    tape.backward(tape.tsum(tape.matmul(const, w)))
    assert const.grad is None


def test_take_cols_gathers_and_scatters():
    a, v = p((4, 6), 43), p((6,), 44)
    cols = np.array([1, 2, 4, 5])
    assert np.array_equal(tape.take_cols(a, cols).data, a.data[:, cols])
    assert np.array_equal(tape.take_cols(v, cols).data, v.data[cols])
    check(lambda: tape.tsum(tape.square(tape.take_cols(a, cols))), {"a": a})
    check(lambda: tape.tsum(tape.square(tape.take_cols(v, cols))), {"v": v})


def test_pair_silu_matches_unfused_ops():
    lay = tape.PairLayout([2, 1, 4, 3])
    n_nodes, h = int(lay.sizes.sum()), 5
    a, b = p((n_nodes, h), 45, scale=2.0), p((n_nodes, h), 46, scale=2.0)
    c = p((lay.n_pairs, h), 47, scale=2.0)
    weights = Tensor(np.random.default_rng(48).standard_normal((lay.n_pairs, h)))
    params = {"a": a, "b": b, "c": c}

    def loss(fused):
        out = (tape.pair_silu(a, b, c, lay) if fused
               else tape.silu(tape.add(tape.pair_sum(a, b, lay), c)))
        return out, tape.tsum(tape.mul(tape.square(out), weights))

    grads = {}
    for fused in (True, False):
        tape.zero_grads(params)
        out, total = loss(fused)
        tape.backward(total)
        grads[fused] = (out.data.copy(), {k: t.grad.copy() for k, t in params.items()})
    (got, got_g), (want, want_g) = grads[True], grads[False]
    assert np.abs(got - want).max() <= 1e-10
    for k in params:
        assert np.abs(got_g[k] - want_g[k]).max() <= 1e-10 * max(1.0, np.abs(want_g[k]).max())
    check(lambda: loss(True)[1], params)


def test_pair_silu_under_no_grad_records_nothing():
    lay = tape.PairLayout([3, 2])
    a, b, c = p((5, 4), 49), p((5, 4), 50), p((lay.n_pairs, 4), 51)
    recorded = tape.pair_silu(a, b, c, lay)
    with tape.no_grad():
        free = tape.pair_silu(a, b, c, lay)
    assert recorded._backward_fn is not None
    assert not free.requires_grad and free._parents == () and free._backward_fn is None
    assert np.array_equal(free.data, recorded.data)
