import math
import warnings

import numpy as np
import pytest

from dualdec import tensor as T
from dualdec.tensor import Tensor


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
        assert list(T.sigmoid(Tensor(x)).data) == list(y)
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
    y = T.tsum(T.tanh(x))
    T.backward(y)
    assert x.grad[0] == 1.0


def test_tanh_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=5)
    x = Tensor(x0, requires_grad=True)
    T.backward(T.tsum(T.tanh(x)))
    num = numeric_grad(lambda v: np.tanh(v).sum(), x0)
    for a, b in zip(x.grad, num):
        assert rel_err(a, b) < 1e-6


def test_backward_sum_is_all_ones():
    x = Tensor(np.arange(4.0), requires_grad=True)
    T.backward(T.tsum(x))
    assert np.array_equal(x.grad, np.ones(4))


def test_backward_square_scalar():
    x = Tensor(np.asarray(3.0), requires_grad=True)
    T.backward(T.mul(x, x))
    assert x.grad == pytest.approx(6.0, abs=0)


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.backward(T.tanh(x))


def _random_graph_loss(params):
    """A deliberately twisty composition touching most ops."""
    a, b, w, bias = params
    h = T.tanh(T.add(T.matmul(w, a), bias))
    g = T.sigmoid(T.mul(h, b))
    att = T.softmax(T.matmul(T.stack([h, g, a]), b))
    ctx = T.matmul(att, T.stack([a, g, h]))
    joined = T.concat([ctx, T.slice1d(h, 0, 2)])
    return T.add(T.tsum(T.mul(joined, joined)), T.cross_entropy(ctx, 1))


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


def test_fanout_accumulation_is_additive():
    # z = x*a + x*b reuses x; grad must be a + b regardless of visit order
    x = Tensor(np.asarray(2.0), requires_grad=True)
    a, b = Tensor(np.asarray(5.0)), Tensor(np.asarray(-3.0))
    T.backward(T.add(T.mul(x, a), T.mul(x, b)))
    assert x.grad == pytest.approx(2.0, abs=0)


def test_unreachable_parameter_keeps_zero_grad():
    x = Tensor(np.zeros(2), requires_grad=True)
    y = Tensor(np.ones(2), requires_grad=True)
    T.zero_grad([x, y])
    T.backward(T.tsum(T.mul(x, x)))
    assert np.array_equal(y.grad, np.zeros(2))


def test_bias_broadcast_add_backward():
    rng = np.random.default_rng(3)
    m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    T.backward(T.tsum(T.add(m, b)))
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
    ce = T.cross_entropy(Tensor(np.zeros(n)), 2)
    assert float(ce.data) == pytest.approx(math.log(n), rel=1e-15)


def test_cross_entropy_saturated_logits():
    logits = np.zeros(4)
    logits[1] = 20.0
    ce = T.cross_entropy(Tensor(logits), 1)
    assert float(ce.data) == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=6)
    for target in range(6):
        ce = float(T.cross_entropy(Tensor(logits), target).data)
        direct = -(logits[target] - np.log(np.exp(logits).sum()))
        assert rel_err(ce, direct) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError):
        T.cross_entropy(Tensor(np.zeros(3)), 3)


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


def test_parameter_init_range_and_determinism():
    a = T.parameter((100,), T.derive_rng(3, "init"))
    b = T.parameter((100,), T.derive_rng(3, "init"))
    assert np.array_equal(a.data, b.data)
    assert a.requires_grad
    assert np.all(np.abs(a.data) <= T.INIT_RANGE)
