"""Tensor ops the models no longer build, kept for the tests: the node graph
that ``tensor.gru_gates`` and ``tensor.linear`` replaced, and the reductions
and the cross-entropy the autodiff tests take their losses with.

Each op acts on a stack of rows as ``tensor``'s own do, so the node graph can
stand in for the fused ops in a stacked training batch. ``nd`` holds their
ndarray twins.
"""
from types import SimpleNamespace

import numpy as np

from dualdec import tensor as T


def sub(a, b):
    if a.shape != b.shape:
        raise T.ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    keys = T._keys(a, b)

    def bw(g):
        T._accum(a, g, keys=keys)
        T._accum(b, -g, keys=keys)

    return T._make(a.data - b.data, (a, b), bw, keys)


def mul(a, b):
    if a.shape != b.shape:
        raise T.ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    keys = T._keys(a, b)

    def bw(g):
        T._accum(a, g * b.data, keys=keys)
        T._accum(b, g * a.data, keys=keys)

    return T._make(a.data * b.data, (a, b), bw, keys)


def slice1d(t, start, stop):
    if T._core_ndim(t) != 1:
        raise T.ShapeError(f"slice1d expects a vector, got {t.shape}")
    if not 0 <= start <= stop <= t.shape[-1]:
        raise T.ShapeError(f"slice1d [{start}:{stop}] out of range for {t.shape}")

    def bw(g):
        T._accum(t, g, (Ellipsis, slice(start, stop)))

    return T._make(t.data[..., start:stop], (t,), bw, t.keys)


def tsum(t):
    def bw(g):
        T._accum(t, np.broadcast_to(g, t.shape))

    return T._make(np.asarray(t.data.sum()), (t,), bw)


def sigmoid(t):
    y = T.sigmoid_np(t.data)

    def bw(g):
        T._accum(t, y * (1.0 - y) * g)

    return T._make(y, (t,), bw, t.keys)


def cross_entropy(logits, target: int):
    """Negative log-likelihood of ``target`` under softmax(logits)."""
    if logits.data.ndim != 1:
        raise T.ShapeError(f"cross_entropy expects a logit vector, got {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise ValueError(f"target {target} out of range for {logits.shape[0]} classes")
    return T.scale(T.pick(T.log_softmax(logits), target), -1.0)


nd = SimpleNamespace(sub=np.subtract, mul=np.multiply, sigmoid=T.sigmoid_np,
                     slice1d=lambda t, start, stop: t[..., start:stop])
