import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import node_ops as ops
from dualdec import tensor as T
from dualdec.tensor import Tensor, nd


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat array."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(1e-12, abs(a), abs(b))
    return abs(a - b) / denom


def test_softmax_uniform():
    n = 7
    y = T.softmax(Tensor(np.full(n, 3.25)))
    assert np.allclose(y.data, np.full(n, 1.0 / n), atol=0, rtol=0)


def test_sigmoid_saturates_without_warning():
    x = np.array([-800.0, -0.0, 0.0, 800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = T.sigmoid_np(x)
        assert list(ops.sigmoid(Tensor(x)).data) == list(y)
    assert list(y) == [0.0, 0.5, 0.5, 1.0]


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    out = T.matmul(Tensor(np.eye(4)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_shape_error_mentions_both_shapes():
    with pytest.raises(T.ShapeError) as e:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))
    assert "(2, 3)" in str(e.value) and "(4,)" in str(e.value)


def test_tanh_gradient_at_zero_is_one():
    x = Tensor(np.zeros(1), requires_grad=True)
    y = ops.tsum(T.tanh(x))
    T.backward(y)
    assert x.grad[0] == 1.0


def test_tanh_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=5)
    x = Tensor(x0, requires_grad=True)
    T.backward(ops.tsum(T.tanh(x)))
    num = numeric_grad(lambda v: np.tanh(v).sum(), x0)
    for a, b in zip(x.grad, num):
        assert rel_err(a, b) < 1e-6


def test_backward_sum_is_all_ones():
    x = Tensor(np.arange(4.0), requires_grad=True)
    T.backward(ops.tsum(x))
    assert np.array_equal(x.grad, np.ones(4))


def test_backward_square_scalar():
    x = Tensor(np.asarray(3.0), requires_grad=True)
    T.backward(ops.mul(x, x))
    assert x.grad == pytest.approx(6.0, abs=0)


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.backward(T.tanh(x))


def _random_graph_loss(params):
    """A deliberately twisty composition touching most ops."""
    a, b, w, bias = params
    h = T.tanh(T.add(T.matmul(w, a), bias))
    g = ops.sigmoid(ops.mul(h, b))
    att = T.softmax(T.matmul(T.stack([h, g, a]), b))
    ctx = T.matmul(att, T.stack([a, g, h]))
    joined = T.concat([ctx, ops.slice1d(h, 0, 2)])
    return T.add(ops.tsum(ops.mul(joined, joined)), ops.cross_entropy(ctx, 1))


def test_composed_graph_matches_finite_differences():
    rng = np.random.default_rng(7)
    shapes = [(3,), (3,), (3, 3), (3,)]
    datas = [rng.normal(size=s) for s in shapes]

    params = [Tensor(d.copy(), requires_grad=True) for d in datas]
    T.backward(_random_graph_loss(params))

    for k in range(len(shapes)):
        def f(flat, k=k):
            vals = [d.copy() for d in datas]
            vals[k] = flat.reshape(shapes[k])
            return float(_random_graph_loss([Tensor(v) for v in vals]).data)

        num = numeric_grad(f, datas[k].reshape(-1))
        ana = params[k].grad.reshape(-1)
        for a, b in zip(ana, num):
            assert rel_err(a, b) < 1e-4


def _fused_graph_loss(params):
    """Two recurrent steps through the fused ops; the first state feeds the
    second step's ``linear`` and ``gru_gates`` and a loss term of its own."""
    w_ih, w_hh, b_ih, b_hh, x, h = params
    h1 = T.gru_gates(T.linear(w_ih, x, b_ih), T.linear(w_hh, h, b_hh), h)
    h2 = T.gru_gates(T.linear(w_ih, T.tanh(h1), b_ih), T.linear(w_hh, h1, b_hh), h1)
    return T.add(ops.tsum(ops.mul(h2, h2)), ops.cross_entropy(h1, 1))


def test_fused_ops_match_finite_differences():
    rng = np.random.default_rng(9)
    shapes = [(9, 3), (9, 3), (9,), (9,), (3,), (3,)]
    datas = [rng.normal(size=s) for s in shapes]

    params = [Tensor(d.copy(), requires_grad=True) for d in datas]
    T.backward(_fused_graph_loss(params))

    for k in range(len(shapes)):
        def f(flat, k=k):
            vals = [d.copy() for d in datas]
            vals[k] = flat.reshape(shapes[k])
            return float(_fused_graph_loss([Tensor(v) for v in vals]).data)

        num = numeric_grad(f, datas[k].reshape(-1))
        ana = params[k].grad.reshape(-1)
        for a, b in zip(ana, num):
            assert rel_err(a, b) < 1e-4


def test_fused_ops_reject_mismatched_shapes():
    with pytest.raises(T.ShapeError):
        T.linear(Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)), Tensor(np.zeros(3)))
    with pytest.raises(T.ShapeError):
        T.gru_gates(Tensor(np.zeros(9)), Tensor(np.zeros(6)), Tensor(np.zeros(3)))


def test_fanout_through_add_keeps_gradients_apart():
    # add(u, v) passes one array to both of its operands; u = tanh(v) also
    # feeds a product, and its accumulation must not reach v's gradient
    x0 = np.array([0.3, -1.2, 0.7])
    c, d = np.array([1.5, -0.5, 2.0]), np.array([-1.0, 0.25, 3.0])

    def loss(x):
        v = ops.sigmoid(x)
        u = T.tanh(v)
        return T.add(ops.tsum(ops.mul(T.add(u, v), Tensor(c))), ops.tsum(ops.mul(u, Tensor(d))))

    x = Tensor(x0, requires_grad=True)
    T.backward(loss(x))
    num = numeric_grad(lambda v: float(loss(Tensor(v)).data), x0)
    for a, b in zip(x.grad, num):
        assert rel_err(a, b) < 1e-6


def test_fanout_accumulation_is_additive():
    # z = x*a + x*b reuses x; grad must be a + b regardless of visit order
    x = Tensor(np.asarray(2.0), requires_grad=True)
    a, b = Tensor(np.asarray(5.0)), Tensor(np.asarray(-3.0))
    T.backward(T.add(ops.mul(x, a), ops.mul(x, b)))
    assert x.grad == pytest.approx(2.0, abs=0)


def test_unreachable_parameter_keeps_zero_grad():
    x = Tensor(np.zeros(2), requires_grad=True)
    y = Tensor(np.ones(2), requires_grad=True)
    T.zero_grad([x, y])
    T.backward(ops.tsum(ops.mul(x, x)))
    assert np.array_equal(y.grad, np.zeros(2))


def test_bias_broadcast_add_backward():
    rng = np.random.default_rng(3)
    m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    T.backward(ops.tsum(T.add(m, b)))
    assert np.array_equal(b.grad, np.full(3, 4.0))
    assert np.array_equal(m.grad, np.ones((4, 3)))


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    st = T.AdamState()
    T.adam_step({"p": p}, {"p": np.zeros(2)}, st)
    assert np.array_equal(p.data, np.array([1.0, -2.0]))
    assert st.step == 1


def test_adam_single_step_matches_hand_computation():
    # scalar param 0, grad 1, defaults: m=0.1, v=0.001, mhat=1, vhat=1
    # update = -lr * 1 / (sqrt(1) + eps)
    p = Tensor(np.asarray(0.0), requires_grad=True)
    st = T.AdamState()
    T.adam_step({"p": p}, {"p": np.asarray(1.0)}, st)

    m = 0.1 * 1.0
    v = 0.001 * 1.0
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expect = -1e-3 * mhat / (math.sqrt(vhat) + 1e-8)
    assert float(p.data) == pytest.approx(expect, abs=0, rel=1e-15)


def test_adam_identical_params_get_identical_updates():
    rng = np.random.default_rng(11)
    init = rng.normal(size=4)
    g = rng.normal(size=4)
    a = Tensor(init.copy(), requires_grad=True)
    b = Tensor(init.copy(), requires_grad=True)
    st = T.AdamState()
    for _ in range(5):
        T.adam_step({"a": a, "b": b}, {"a": g, "b": g}, st)
    assert np.array_equal(a.data, b.data)


def test_adam_shape_mismatch():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.adam_step({"p": p}, {"p": np.zeros(3)}, T.AdamState())


def test_clip_grad_norm():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([3.0, 4.0])
    norm = T.clip_grad_norm([p], 1.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(p.grad, np.array([0.6, 0.8]))
    q = Tensor(np.zeros(2), requires_grad=True)
    q.grad = np.array([0.3, 0.4])
    T.clip_grad_norm([q], 1.0)
    assert np.allclose(q.grad, np.array([0.3, 0.4]))


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits():
    n = 5
    ce = ops.cross_entropy(Tensor(np.zeros(n)), 2)
    assert float(ce.data) == pytest.approx(math.log(n), rel=1e-15)


def test_cross_entropy_saturated_logits():
    logits = np.zeros(4)
    logits[1] = 20.0
    ce = ops.cross_entropy(Tensor(logits), 1)
    assert float(ce.data) == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=6)
    for target in range(6):
        ce = float(ops.cross_entropy(Tensor(logits), target).data)
        direct = -(logits[target] - np.log(np.exp(logits).sum()))
        assert rel_err(ce, direct) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError):
        ops.cross_entropy(Tensor(np.zeros(3)), 3)


def test_log_softmax_exact_zero_under_saturation():
    logits = np.zeros(3)
    logits[0] = 1000.0
    lp = T.log_softmax(Tensor(logits))
    assert lp.data[0] == 0.0


def test_derive_rng_stable_and_distinct():
    a = T.derive_rng(13, "bpe", 0).integers(0, 1 << 30, 4)
    b = T.derive_rng(13, "bpe", 0).integers(0, 1 << 30, 4)
    c = T.derive_rng(13, "bpe", 1).integers(0, 1 << 30, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, (1 << 32) - 1), st.integers(1 << 32, 1 << 80)),
       st.lists(st.one_of(st.text(max_size=8), st.integers(0, 1 << 40)), max_size=4))
def test_derive_rng_streams_equal_the_list_seeded_ones(seed, streams):
    # entropy words that fit in 32 bits seed through a uint32 array; the
    # stream must be the one the plain list of words seeds, wide words too
    words = [seed] + [zlib.crc32(s.encode()) if isinstance(s, str) else s for s in streams]
    got = T.derive_rng(seed, *streams)
    want = np.random.default_rng(words)
    assert np.array_equal(got.integers(0, 1 << 62, 8), want.integers(0, 1 << 62, 8))
    assert np.array_equal(got.random(3), want.random(3))


def test_parameter_init_range_and_determinism():
    a = T.parameter((100,), T.derive_rng(3, "init"))
    b = T.parameter((100,), T.derive_rng(3, "init"))
    assert np.array_equal(a.data, b.data)
    assert a.requires_grad
    assert np.all(np.abs(a.data) <= T.INIT_RANGE)


# ---------------------------------------------------------------------------
# ``nd`` on a stack of rows


def _stack(rng, lead, n, strided, scale=1.0):
    """A (*lead, n) array; ``strided`` takes it as a view with gaps between
    its rows and between its entries."""
    if strided:
        big = rng.normal(size=(*lead[:-1], 2 * lead[-1], 2 * n)) * scale
        return big[..., ::2, ::2]
    return rng.normal(size=(*lead, n)) * scale


@settings(max_examples=60, deadline=None)
@given(B=st.integers(1, 25), n=st.integers(1, 200), m=st.integers(1, 200),
       k=st.integers(1, 9), strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_nd_ops_on_a_stack_equal_the_ops_on_each_row(B, n, m, k, strided, seed):
    rng = np.random.default_rng(seed)
    X = _stack(rng, (B,), n, strided, scale=4.0)
    Y = _stack(rng, (B,), n, strided)
    w = _stack(rng, (B,), k, strided)
    F = _stack(rng, (B, k), n, strided)
    W = rng.normal(size=(m, n))
    Wsq = rng.normal(size=(n, n))
    v = rng.normal(size=m)
    picks = rng.integers(0, n, size=B)
    lo = int(rng.integers(0, n + 1))
    hi = int(rng.integers(lo, n + 1))
    Gi = _stack(rng, (B,), 3 * n, strided, scale=4.0)
    Gh = _stack(rng, (B,), 3 * n, strided, scale=4.0)
    vector_picks = rng.integers(0, n, size=(B, k))
    # (name, the op on the stack, the op on row b alone)
    cases = [
        ("add", nd.add(X, Y), lambda b: nd.add(X[b], Y[b])),
        ("sub", ops.nd.sub(X, Y), lambda b: ops.nd.sub(X[b], Y[b])),
        ("mul", ops.nd.mul(X, Y), lambda b: ops.nd.mul(X[b], Y[b])),
        ("scale", nd.scale(X, 0.37), lambda b: nd.scale(X[b], 0.37)),
        ("matvec", nd.matvec(W, X), lambda b: nd.matvec(W, X[b])),
        ("matvec, a matrix per row", nd.matvec(F, X), lambda b: nd.matvec(F[b], X[b])),
        ("vecmat", nd.vecmat(w, F), lambda b: nd.vecmat(w[b], F[b])),
        ("vecmat, one shared matrix", nd.vecmat(w, F[0]), lambda b: nd.vecmat(w[b], F[0])),
        ("matmul_t", nd.matmul_t(F, Wsq), lambda b: nd.matmul_t(F[b], Wsq)),
        ("concat", nd.concat([X, v, Y]), lambda b: nd.concat([X[b], v, Y[b]])),
        ("slice1d", ops.nd.slice1d(X, lo, hi), lambda b: ops.nd.slice1d(X[b], lo, hi)),
        ("row", nd.row(Wsq, picks), lambda b: nd.row(Wsq, int(picks[b]))),
        ("pick", nd.pick(X, picks), lambda b: nd.pick(X[b], int(picks[b]))),
        ("pick, one entry per vector of each row", nd.pick(F, vector_picks),
         lambda b: nd.pick(F[b], vector_picks[b])),
        ("matmul_t, a matrix per row", nd.matmul_t(F, F), lambda b: nd.matmul_t(F[b], F[b])),
        ("mean_rows", nd.mean_rows(F), lambda b: nd.mean_rows(F[b])),
        ("tanh", nd.tanh(X), lambda b: nd.tanh(X[b])),
        ("sigmoid", ops.nd.sigmoid(X), lambda b: ops.nd.sigmoid(X[b])),
        ("softmax", nd.softmax(X), lambda b: nd.softmax(X[b])),
        ("log_softmax", nd.log_softmax(X), lambda b: nd.log_softmax(X[b])),
        ("linear", nd.linear(W, X, v), lambda b: nd.linear(W, X[b], v)),
        ("gru_gates", nd.gru_gates(Gi, Gh, Y), lambda b: nd.gru_gates(Gi[b], Gh[b], Y[b])),
    ]
    for name, stacked, one_row in cases:
        for b in range(B):
            assert np.array_equal(stacked[b], one_row(b)), (name, b)


def test_nd_one_row_products_are_the_tensor_products():
    rng = np.random.default_rng(5)
    W, x, F = rng.normal(size=(7, 5)), rng.normal(size=5), rng.normal(size=(5, 3))
    assert np.array_equal(nd.matvec(W, x), T.matvec(Tensor(W), Tensor(x)).data)
    assert np.array_equal(nd.vecmat(x, F), T.vecmat(Tensor(x), Tensor(F)).data)


# ---------------------------------------------------------------------------
# stacks of rows: a parameter's contributions are added in row-key order


def test_parameter_contributions_add_in_row_key_order():
    # rows arrive out of key order, and two rows read one embedding row
    rng = np.random.default_rng(19)
    E = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    W = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    ids, keys = np.array([1, 3, 1]), np.array([2, 0, 1]) * T.PARTS
    scales = Tensor(10.0 ** rng.integers(-4, 5, size=(3, 4)), keys=keys)
    x = T.row(E, ids, keys=keys)
    y = T.tanh(T.linear(W, x, b))
    T.zero_grad([E, W, b])
    T.backward(ops.tsum(ops.mul(y, scales)))
    g = (1.0 - y.data * y.data) * scales.data
    want_E, want_W, want_b = np.zeros((5, 3)), np.zeros((4, 3)), np.zeros(4)
    for r in np.argsort(keys):
        want_b += g[r]
        want_W += g[r][:, None] * x.data[r]
        want_E[ids[r]] += W.data.T @ g[r]
    assert np.array_equal(b.grad, want_b)
    assert np.array_equal(W.grad, want_W)
    assert np.array_equal(E.grad, want_E)


def test_a_view_of_a_stack_adds_into_the_stack():
    # a row that ends drops out through head; the stack's gradient gets the
    # terms of the view's consumers and of its own
    E = Tensor(np.arange(6.0).reshape(3, 2) / 10, requires_grad=True)
    h = T.tanh(T.row(E, np.arange(3), keys=np.arange(3) * T.PARTS))
    v = T.head(h, 2)
    total = T.row_sums([T.pick(v, np.zeros(2, int)), T.pick(h, np.ones(3, int))], h.keys)
    T.backward(T.batch_mean(total))
    assert v.grad is None
    assert np.array_equal(h.grad, [[1 / 3, 1 / 3], [1 / 3, 1 / 3], [0.0, 1 / 3]])
    assert np.array_equal(total.data, h.data[:, 0] * [1, 1, 0] + h.data[:, 1])


def test_a_row_without_terms_sums_to_zero():
    # the last row of the stack (an empty sequence) is in no term: its total
    # is 0 and it sends no gradient
    E = Tensor(np.arange(6.0).reshape(3, 2) / 10, requires_grad=True)
    h = T.tanh(T.row(E, np.arange(3), keys=np.arange(3) * T.PARTS))
    v = T.head(h, 2)
    total = T.row_sums([T.pick(v, np.zeros(2, int)), T.pick(v, np.ones(2, int))], h.keys)
    assert np.array_equal(total.data, [h.data[0].sum(), h.data[1].sum(), 0.0])
    assert np.array_equal(total.keys, h.keys)
    T.backward(T.batch_mean(total))
    assert np.array_equal(h.grad[2], [0.0, 0.0])
    assert np.array_equal(T.row_sums([], h.keys).data, np.zeros(3))
