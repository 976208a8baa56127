"""Reverse-mode tape: every primitive checked against central differences."""

import numpy as np
import pytest

from conftest import minmax_reference, tanh
from gaugeflow.flowcore import tape
from gaugeflow.flowcore.tape import Tensor

pytestmark = pytest.mark.usefixtures("float64_tape")


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


def test_silu_keeps_its_float32_rounding():
    # silu(x) = (x / 2) (1 + tanh(x / 2)) and its slope, pinned to one
    # evaluation order: the toy vector field's training replays bit for bit
    with tape.precision(np.float32):
        rng = np.random.default_rng(5)
        scales = [[0.1, 1, 3, 10, 30, 100, 300, 1000]]
        x = (rng.standard_normal((64, 8)) * scales).astype(np.float32)
        g = rng.standard_normal((64, 8)).astype(np.float32)
        a = Tensor(x, requires_grad=True)
        out = tape.silu(a)
        tape.backward(tape.tsum(tape.mul(out, Tensor(g))))
    half = x * np.float32(0.5)
    two_sig = np.tanh(half) + np.float32(1.0)
    slope = (((np.float32(2.0) - two_sig) * half + np.float32(1.0)) * two_sig) * np.float32(0.5)
    assert out.data.dtype == a.grad.dtype == np.float32
    assert np.array_equal(out.data, half * two_sig)
    assert np.array_equal(a.grad, g * slope)


def test_matmul_reshape_concat_slice():
    a, b = p((4, 3), 5), p((3, 2), 6)
    params = {"a": a, "b": b}
    check(lambda: tape.tsum(tape.matmul(a, b)), params)
    check(lambda: tape.tsum(tape.square(tape.reshape(a, (2, 6)))), params)
    check(lambda: tape.tsum(tape.square(tape.concat([a, tape.square(a)], axis=1))), params)
    check(lambda: tape.tsum(tape.square(tape.take_cols(a, slice(1, 3)))), params)


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


def pair_sum(a, b, lay):
    """Reference pair broadcast out[(i, j)] = a[i] + b[j] from tape ops."""
    return tape.add(tape.repeat_rows(a, lay.row_size),
                    tape.transpose_pairs(tape.repeat_rows(b, lay.row_size), lay))


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


def ordered_pairs(sizes):
    """(i, j) node rows of every pair row, by a loop over the molecules."""
    pairs, start = [], 0
    for n in sizes:
        pairs += [(start + i, start + j) for i in range(n) for j in range(n)]
        start += n
    return pairs


def test_pair_layout_rows():
    lay = tape.PairLayout([2, 1, 3])
    assert (len(lay.row_size), lay.n_pairs) == (6, 14)
    pairs = ordered_pairs([2, 1, 3])
    upper = [(0, 1), (3, 4), (3, 5), (4, 5)]
    assert [pairs[r] for r in lay.upper] == upper
    assert [pairs[r] for r in lay.lower] == [(j, i) for i, j in upper]
    assert lay.upper_i.tolist() == [0, 3, 3, 4]
    assert lay.block_start.tolist() == [0, 2, 4, 5, 8, 11]
    with pytest.raises(ValueError):
        tape.PairLayout([2, 0])


def _blocks_by_loop(sizes):
    """Runs of consecutive same-size molecules, each cut greedily so that it
    holds at most _BLOCK_PAIRS pair rows unless it is one molecule."""
    blocks, node, pair, b = [], 0, 0, 0
    while b < len(sizes):
        n, k = int(sizes[b]), 1
        while b + k < len(sizes) and sizes[b + k] == n and (k + 1) * n * n <= tape._BLOCK_PAIRS:
            k += 1
        blocks.append((k, n, slice(node, node + k * n), slice(pair, pair + k * n * n)))
        node, pair, b = node + k * n, pair + k * n * n, b + k
    return blocks


@pytest.mark.parametrize("seed", range(4))
def test_pair_layout_matches_a_per_molecule_loop(seed):
    # random size mixes with N = 1, N = 2 and one same-size run longer than a block
    rng = np.random.default_rng(seed)
    n_long = 8
    runs = [[1], [2], [n_long] * (tape._BLOCK_PAIRS // n_long ** 2 + 3)]
    runs += [[int(n)] * int(k) for n, k in zip(rng.integers(1, 12, 6), rng.integers(1, 4, 6))]
    sizes = np.concatenate([runs[r] for r in rng.permutation(len(runs))])
    lay = tape.PairLayout(sizes)
    pairs = ordered_pairs(sizes)
    row_of = {pair: r for r, pair in enumerate(pairs)}
    upper = [r for r, (i, j) in enumerate(pairs) if i < j]
    assert lay.upper.tolist() == upper
    assert lay.lower.tolist() == [row_of[j, i] for i, j in (pairs[r] for r in upper)]
    assert lay.upper_i.tolist() == [pairs[r][0] for r in upper]
    values = rng.integers(1, 5, len(upper))
    want = np.zeros(len(pairs), dtype=values.dtype)
    for r, v in zip(upper, values):
        i, j = pairs[r]
        want[r] = want[row_of[j, i]] = v
    assert np.array_equal(lay.symmetric(values), want)
    assert lay.blocks == _blocks_by_loop(sizes)
    # no index array has one entry per pair row
    assert lay.n_pairs == len(pairs) == int((sizes ** 2).sum())
    for name, value in vars(lay).items():
        if isinstance(value, np.ndarray):
            assert value.size != lay.n_pairs, name


def test_pair_layout_rejects_fractional_sizes():
    for sizes, first in (([6.9, 7.2], "6.9"), (np.array([3.0, 7.5]), "7.5"), ([4.0, np.nan], "nan")):
        with pytest.raises(ValueError, match=f"whole numbers, got {first}$"):
            tape.PairLayout(sizes)
    # a whole-number float is a size like any other
    assert tape.PairLayout([8.0, 3.0]).sizes.tolist() == [8, 3]
    assert tape.PairLayout(np.array([8.0, 3.0])).sizes.dtype == np.int64


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
    swapped = tape.transpose_pairs(pw, lay).data
    pooled = tape.block_mean_rows(pw, lay).data
    for n, rows, prs in zip(sizes, nodes, pairs):
        cs_b = Tensor(cs.data[:, rows])
        one = tape.PairLayout([n])
        assert np.allclose(dots[prs], tape.pairwise_dot(cs_b, one).data)
        assert np.allclose(mixed[:, rows], tape.coord_mix(cs_b, Tensor(pw.data[prs]), one).data)
        assert np.allclose(swapped[prs], tape.transpose_pairs(Tensor(pw.data[prs]), one).data)
        assert np.allclose(pooled[rows], tape.block_mean_rows(Tensor(pw.data[prs]), one).data)

    weights = Tensor(np.random.default_rng(35).standard_normal((lay.n_pairs, k)))

    def fwd():
        cs = tape.stack_scale(x, w)
        dots = tape.add(tape.pairwise_dot(cs, lay), pw)
        mixed = tape.coord_mix(cs, tape.transpose_pairs(dots, lay), lay)
        out = tape.tsum(tape.square(mixed))
        msg = tape.mul(tape.square(pair_sum(a, b, lay)), weights)
        return tape.add(out, tape.tsum(tape.square(tape.block_mean_rows(msg, lay))))
    check(fwd, {"x": x, "w": w, "a": a, "b": b, "pw": pw})


def test_segmented_min_max_and_repeat():
    # segments: N = 1, tied minima and maxima, a span under the 1e-6 floor,
    # a constant one, and mixed sizes, against a per-segment numpy loop
    starts = np.array([0, 1, 6, 9, 11])
    for dtype in (np.float32, np.float64):
        x = np.array([0.7, 3.0, -1.0, 3.0, -1.0, 0.5, 2.0, 2.0 + 4e-7, 2.0 + 2e-7,
                      5.0, 5.0, 0.3, -0.2, 1.1, 0.9, -2.0, 0.4], dtype=dtype)
        g = np.random.default_rng(36).standard_normal(len(x)).astype(dtype)
        with tape.precision(dtype):
            a = Tensor(x, requires_grad=True)
            out = tape.minmax_normalize(a, starts)
            tape.backward(tape.tsum(tape.mul(out, Tensor(g))))
        refs = [minmax_reference(seg) for seg in np.split(x, starts[1:])]
        assert out.data.dtype == a.grad.dtype == dtype
        assert np.array_equal(out.data, np.concatenate([value for value, _ in refs]))
        want = np.concatenate([jac.T @ piece
                               for (_, jac), piece in zip(refs, np.split(g, starts[1:]))])
        assert np.allclose(a.grad, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())
    lo = Tensor(np.minimum.reduceat(x, starts))
    sizes = np.diff(np.append(starts, len(x)))
    assert np.array_equal(tape.repeat_rows(lo, sizes).data, np.repeat(lo.data, sizes))


def test_minmax_normalize_gradient():
    # central differences with a step well under the 1e-6 floor: an interior
    # tie, a floored span whose maximum is tied (the maximum does not enter
    # it), N = 1 and mixed sizes
    a = Tensor(np.array([0.2, 1.7, -0.4, 0.9, 0.9, 3.0, 3.0 + 3e-7, 3.0 + 3e-7, -1.5,
                         0.6, 2.2, 1.3]), requires_grad=True)
    starts = np.array([0, 5, 8, 9])
    weights = Tensor(np.random.default_rng(37).standard_normal(12))

    def fwd():
        return tape.tsum(tape.mul(tape.square(tape.minmax_normalize(a, starts)), weights))
    assert tape.gradient_check(fwd, {"a": a}, eps=1e-8)["a"] < 1e-5


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


def test_precision_selects_the_compute_dtype():
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    for dtype in (np.float32, np.float64):
        with tape.precision(dtype):
            a = Tensor(values, requires_grad=True)
            lay = tape.PairLayout([2])
            outs = [tape.silu(a), tape.block_mean_rows(a, lay),
                    tape.minmax_normalize(tape.reshape(a, (8,)), [0, 3]),
                    tape.softmax_cross_entropy(a, [0, 1, 0, 1]),
                    tape.mse(a, np.zeros((4, 2)), weights=np.ones(4))]
            assert all(out.data.dtype == dtype for out in outs)
            tape.backward(tape.tsum(tape.block_mean_rows(tape.square(a), lay)))
            assert a.grad.dtype == dtype
    with pytest.raises(RuntimeError):
        with tape.precision(np.float32):
            raise RuntimeError("the dtype is restored on the way out")
    assert Tensor(1.0).data.dtype == np.float64        # this module runs on float64


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


def mlp_params(sizes, seed):
    return ([p((a, b), seed + i, scale=1.5) for i, (a, b) in enumerate(zip(sizes, sizes[1:]))],
            [p((b,), seed + 10 + i) for i, b in enumerate(sizes[1:])])


def composed_mlp(x, weights, biases):
    """The reference stack: linear, then silu between layers."""
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = tape.linear(x, w, b)
        if i < len(weights) - 1:
            x = tape.silu(x)
    return x


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("x_grad", [True, False])
def test_mlp_gradients_match_finite_differences(depth, x_grad):
    sizes = [3, 5, 4, 2][:depth] + [2]
    weights, biases = mlp_params(sizes, 50)
    x = p((6, 3), 49) if x_grad else Tensor(np.random.default_rng(49).standard_normal((6, 3)))
    params = {f"w{i}": w for i, w in enumerate(weights)}
    params.update({f"b{i}": b for i, b in enumerate(biases)})
    if x_grad:
        params["x"] = x
    check(lambda: tape.tsum(tape.square(tape.mlp(x, weights, biases))), params)
    assert np.allclose(tape.mlp(x, weights, biases).data, composed_mlp(x, weights, biases).data,
                       rtol=0, atol=1e-12)


def test_mlp_rounds_as_linear_and_silu_do():
    # the fused op keeps every matmul, bias add and SiLU step of the
    # composition, in order: float32 outputs and gradients are bitwise equal
    with tape.precision(np.float32):
        sizes = [5, 16, 16, 2]
        g = Tensor(np.random.default_rng(60).standard_normal((32, 2)))
        runs = []
        for op in (tape.mlp, composed_mlp):
            weights, biases = mlp_params(sizes, 61)
            x = p((32, 5), 62, scale=3.0)
            out = op(x, weights, biases)
            tape.backward(tape.tsum(tape.mul(out, g)))
            runs.append([out.data, x.grad] + [t.grad for t in weights + biases])
    for got, want in zip(*runs):
        assert got.dtype == np.float32 and np.array_equal(got, want)
    with tape.no_grad():
        free = tape.mlp(x, weights, biases)
    assert not free.requires_grad and np.array_equal(free.data, runs[0][0])


def mean(a):
    """Mean of all entries as a tape op, a scalar."""
    return tape._make(a.data.mean(), (a,), lambda g: tape._accum(
        a, np.broadcast_to(g / a.data.size, a.data.shape).copy()))


def composed_mse(pred, target, weights=None):
    """The squared-norm residual's mean (or weighted sum) from single ops."""
    per_row = tape.tsum(tape.square(tape.sub(pred, Tensor(target))), axis=1)
    if weights is None:
        return mean(per_row)
    return tape.tsum(tape.mul(per_row, Tensor(weights / weights.sum())))


@pytest.mark.parametrize("weighted", [False, True])
def test_mse_rounds_as_its_composition(weighted):
    rng = np.random.default_rng(63)
    target = rng.standard_normal((40, 3)) * 3.0
    weights = rng.uniform(0.1, 2.0, 40) if weighted else None
    for dtype in (np.float32, np.float64):
        with tape.precision(dtype):
            runs = []
            for op in (tape.mse, composed_mse):
                pred = Tensor(np.random.default_rng(64).standard_normal((40, 3)), requires_grad=True)
                loss = tape.mul(op(pred, target, weights), Tensor(1.7))
                tape.backward(loss)
                runs.append((loss.data, pred.grad))
        for got, want in zip(*runs):
            assert got.dtype == dtype and np.array_equal(got, want)
    pred = p((40, 3), 65)
    check(lambda: tape.mse(pred, target, weights), {"pred": pred})


def test_take_cols_gathers_and_scatters():
    a, v = p((4, 6), 43), p((6,), 44)
    cols = np.array([1, 2, 4, 5])
    assert np.array_equal(tape.take_cols(a, cols).data, a.data[:, cols])
    assert np.array_equal(tape.take_cols(v, cols).data, v.data[cols])
    check(lambda: tape.tsum(tape.square(tape.take_cols(a, cols))), {"a": a})
    check(lambda: tape.tsum(tape.square(tape.take_cols(v, cols))), {"v": v})


MIXED_SIZES = [3, 3, 1, 4, 4, 4, 2]      # equal-size runs, singletons, a one-atom molecule


def stage_inputs(lay, seed, k=2, d=3, e=2, h=4, classes=None):
    """Random pair_stage inputs (cs, e, from_i, from_j, w_in, w_out, b_out,
    w_edge, b_edge) and the bonds argument: None with e of pair rows, or with
    `classes` given, random class indices and e a (classes, E) table."""
    n_nodes = int(lay.sizes.sum())
    shapes = [(k, n_nodes, d), (lay.n_pairs if classes is None else classes, e),
              (n_nodes, h), (n_nodes, h), (k + e, h), (h, k + e), (k + e,), (e, e), (e,)]
    inputs = [p(shape, seed + i) for i, shape in enumerate(shapes)]
    if classes is None:
        return inputs, None
    return inputs, np.random.default_rng(seed).integers(0, classes, lay.n_pairs)


STAGE_NAMES = ["cs", "e", "from_i", "from_j", "w_in", "w_out", "b_out", "w_edge", "b_edge"]


def unfused_stage(cs, e, from_i, from_j, w_in, w_out, b_out, w_edge, b_edge, lay, bonds=None):
    """pair_stage from the single primitives, with the edge update and its
    residual outside."""
    k = cs.shape[0]
    if bonds is not None:
        one_hot = np.zeros((lay.n_pairs, e.shape[0]))
        one_hot[np.arange(lay.n_pairs), bonds] = 1.0
        e = tape.matmul(Tensor(one_hot), e)
    pre = tape.add(pair_sum(from_i, from_j, lay),
                   tape.matmul(tape.concat([tape.pairwise_dot(cs, lay), e], axis=1), w_in))
    hidden = tape.silu(pre)
    m_pair = tape.linear(hidden, w_out, b_out)
    delta = tape.coord_mix(cs, tanh(tape.take_cols(m_pair, slice(0, k))), lay)
    m_edge = tape.take_cols(m_pair, slice(k, None))
    return (tape.block_mean_rows(hidden, lay), delta,
            tape.add(e, tape.linear(m_edge, w_edge, b_edge)))


def stage_loss(outs, seed, used=(0, 1, 2)):
    """sum over the used outputs of <fixed random weights, output>."""
    rng = np.random.default_rng(seed)
    terms = [tape.tsum(tape.mul(outs[k], Tensor(rng.standard_normal(outs[k].shape)))) for k in used]
    total = terms[0]
    for term in terms[1:]:
        total = tape.add(total, term)
    return total


def test_layout_blocks_are_same_size_runs():
    lay = tape.PairLayout(MIXED_SIZES)
    got = [(k, n, nodes.start, nodes.stop, pairs.start, pairs.stop)
           for k, n, nodes, pairs in lay.blocks]
    assert got == [(2, 3, 0, 6, 0, 18), (1, 1, 6, 7, 18, 19), (3, 4, 7, 19, 19, 67),
                   (1, 2, 19, 21, 67, 71)]
    # a run longer than the block cap is cut, in order; a molecule over it stands alone
    n = 8
    per_block = tape._BLOCK_PAIRS // n ** 2
    cut = tape.PairLayout([n] * (per_block + 1) + [64, 64])
    assert [(k, n) for k, n, _, _ in cut.blocks] == [(per_block, 8), (1, 8), (1, 64), (1, 64)]
    assert cut.blocks[-1][3].stop == cut.n_pairs


def assert_stage_matches_unfused(used, classes=None):
    # an output the loss does not reach gets no gradient and adds nothing
    lay = tape.PairLayout(MIXED_SIZES)
    inputs, bonds = stage_inputs(lay, 60, classes=classes)
    results = []
    for stage in (tape.pair_stage, unfused_stage):
        tape.zero_grads(inputs)
        outs = stage(*inputs, lay, bonds=bonds)
        tape.backward(stage_loss(outs, 61, used))
        results.append(([o.data.copy() for o in outs],
                        [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]))
    (fused, fused_g), (ref, ref_g) = results
    for got, want in zip(fused + fused_g, ref + ref_g):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def assert_stage_ignores_block_cap(monkeypatch, classes=None):
    # a cap that cuts every same-size run into several blocks changes nothing
    inputs, bonds = stage_inputs(tape.PairLayout(MIXED_SIZES), 65, classes=classes)
    results = []
    for cap in (tape._BLOCK_PAIRS, 16):
        monkeypatch.setattr(tape, "_BLOCK_PAIRS", cap)
        lay = tape.PairLayout(MIXED_SIZES)
        tape.zero_grads(inputs)
        outs = tape.pair_stage(*inputs, lay, bonds=bonds)
        tape.backward(stage_loss(outs, 66))
        results.append((len(lay.blocks), [o.data.copy() for o in outs] + [t.grad.copy() for t in inputs]))
    (few, wide), (many, narrow) = results
    assert (few, many) == (4, 7)
    for got, want in zip(narrow, wide):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def check_stage_gradients(classes=None):
    lay = tape.PairLayout(MIXED_SIZES)
    inputs, bonds = stage_inputs(lay, 70, classes=classes)
    check(lambda: stage_loss(tape.pair_stage(*inputs, lay, bonds=bonds), 71),
          dict(zip(STAGE_NAMES, inputs)))


@pytest.mark.parametrize("used", [(0, 1, 2), (0,), (1,), (2,)], ids=["all", "mean", "delta", "edge"])
def test_pair_stage_matches_unfused_primitives(used):
    assert_stage_matches_unfused(used)


def test_pair_stage_is_the_same_for_any_block_cap(monkeypatch):
    assert_stage_ignores_block_cap(monkeypatch)


def test_pair_stage_gradients_match_finite_differences():
    check_stage_gradients()


@pytest.mark.parametrize("used", [(0, 1, 2), (2,)], ids=["all", "edge"])
def test_pair_stage_gathers_edge_features_by_class(monkeypatch, used):
    # e a (classes, E) table read at bonds[(i, j)]: the first layer's edge input
    assert_stage_matches_unfused(used, classes=3)
    assert_stage_ignores_block_cap(monkeypatch, classes=3)
    check_stage_gradients(classes=3)


def test_pair_stage_packed_equals_each_molecule_alone():
    lay = tape.PairLayout(MIXED_SIZES)
    (cs, e, from_i, from_j, *weights), _ = stage_inputs(lay, 80)
    packed = [o.data for o in tape.pair_stage(cs, e, from_i, from_j, *weights, lay)]
    node_at = np.concatenate([[0], np.cumsum(lay.sizes)])
    pair_at = np.concatenate([[0], np.cumsum(lay.sizes ** 2)])
    for b, n in enumerate(lay.sizes):
        nodes, pairs = slice(node_at[b], node_at[b + 1]), slice(pair_at[b], pair_at[b + 1])
        alone = tape.pair_stage(Tensor(cs.data[:, nodes]), Tensor(e.data[pairs]),
                                Tensor(from_i.data[nodes]), Tensor(from_j.data[nodes]),
                                *weights, tape.PairLayout([n]))
        for got, want in zip((packed[0][nodes], packed[1][:, nodes], packed[2][pairs]), alone):
            assert np.abs(got - want.data).max() <= 1e-12


def test_pair_stage_under_no_grad_records_nothing(monkeypatch):
    lay = tape.PairLayout(MIXED_SIZES)
    inputs, _ = stage_inputs(lay, 90)
    slopes = []
    silu_into = tape._silu_into

    def spy(x, out, slope=None, work=None):
        slopes.append(slope)
        silu_into(x, out, slope, work)
    monkeypatch.setattr(tape, "_silu_into", spy)
    recorded = tape.pair_stage(*inputs, lay)
    assert slopes and all(s is not None for s in slopes)
    slopes.clear()
    with tape.no_grad():
        free = tape.pair_stage(*inputs, lay)
    assert slopes and all(s is None for s in slopes)        # no SiLU slope is computed
    for out, ref in zip(free, recorded):
        assert ref.requires_grad and ref._backward_fn is not None
        assert not out.requires_grad and out._parents == () and out._backward_fn is None
        assert np.array_equal(out.data, ref.data)


def test_upper_pairs_symmetrizes_the_upper_triangle():
    lay = tape.PairLayout(MIXED_SIZES)
    a = p((lay.n_pairs, 3), 19)
    sym = tape.mul(tape.add(a, tape.transpose_pairs(a, lay)), Tensor(0.5))
    assert np.array_equal(tape.upper_pairs(a, lay).data, sym.data[lay.upper])
    w = Tensor(np.random.default_rng(20).standard_normal((len(lay.upper), 3)))
    check(lambda: tape.tsum(tape.mul(tape.upper_pairs(a, lay), w)), {"a": a})
    tape.zero_grads([a])
    tape.backward(tape.tsum(tape.upper_pairs(a, lay)))
    diagonal = [r for r, (i, j) in enumerate(ordered_pairs(MIXED_SIZES)) if i == j]
    assert np.all(a.grad[diagonal] == 0.0)                      # the diagonal reads nothing
