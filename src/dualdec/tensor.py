"""Dense float64 tensors with reverse-mode automatic differentiation.

Covers exactly the shapes the recurrent/attention models need: scalars,
vectors, and matrices. Each op records a backward closure when an operand
requires a gradient; ``backward`` replays the trace in reverse topological
order. ``nd`` holds the same ops on plain ndarrays, with the same forward
arithmetic and no trace: model code written once against an ops namespace
trains on this module and runs inference on ``nd``, with the same floats.
"""
from __future__ import annotations

import operator
import zlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, delta, index=None) -> None:
    """Add ``delta`` into ``t.grad``, or into ``t.grad[index]`` when given."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if index is None:
        t.grad += delta
    else:
        t.grad[index] += delta


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tensor the scalar ``loss`` depends on."""
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += 1.0
    for node in reversed(topo):
        if node._backward is not None:
            node._backward()


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        def bw():
            _accum(a, out.grad)
            _accum(b, out.grad)
        out = _make(a.data + b.data, (a, b), bw)
        return out
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        # bias row-broadcast
        def bw():
            _accum(a, out.grad)
            _accum(b, out.grad.sum(axis=0))
        out = _make(a.data + b.data, (a, b), bw)
        return out
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def bw():
        _accum(a, out.grad)
        _accum(b, -out.grad)

    out = _make(a.data - b.data, (a, b), bw)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def bw():
        _accum(a, out.grad * b.data)
        _accum(b, out.grad * a.data)

    out = _make(a.data * b.data, (a, b), bw)
    return out


def scale(t: Tensor, c: float) -> Tensor:
    def bw():
        _accum(t, out.grad * c)

    out = _make(t.data * c, (t,), bw)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if A.ndim == 2 and B.ndim == 1:
        if A.shape[1] != B.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def bw():
            _accum(a, np.outer(out.grad, B))
            _accum(b, A.T @ out.grad)
    elif A.ndim == 1 and B.ndim == 2:
        if A.shape[0] != B.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def bw():
            _accum(a, B @ out.grad)
            _accum(b, np.outer(A, out.grad))
    elif A.ndim == 2 and B.ndim == 2:
        if A.shape[1] != B.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def bw():
            _accum(a, out.grad @ B.T)
            _accum(b, A.T @ out.grad)
    elif A.ndim == 1 and B.ndim == 1:
        if A.shape[0] != B.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def bw():
            _accum(a, out.grad * B)
            _accum(b, out.grad * A)
    else:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    out = _make(A @ B, (a, b), bw)
    return out


def concat(parts: Sequence[Tensor]) -> Tensor:
    if not parts or any(p.data.ndim != 1 for p in parts):
        raise ShapeError("concat expects a non-empty list of vectors")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw():
        for p, o, n in zip(parts, offsets, sizes):
            _accum(p, out.grad[o:o + n])

    out = _make(np.concatenate([p.data for p in parts]), tuple(parts), bw)
    return out


def slice1d(t: Tensor, start: int, stop: int) -> Tensor:
    if t.data.ndim != 1:
        raise ShapeError(f"slice1d expects a vector, got {t.shape}")
    if not 0 <= start <= stop <= t.shape[0]:
        raise ShapeError(f"slice1d [{start}:{stop}] out of range for {t.shape}")

    def bw():
        _accum(t, out.grad, slice(start, stop))

    out = _make(t.data[start:stop], (t,), bw)
    return out


def stack(rows: Sequence[Tensor]) -> Tensor:
    if not rows or any(r.data.ndim != 1 for r in rows):
        raise ShapeError("stack expects a non-empty list of vectors")
    if len({r.shape[0] for r in rows}) != 1:
        raise ShapeError("stack expects equal-length vectors")

    def bw():
        for i, r in enumerate(rows):
            _accum(r, out.grad[i])

    out = _make(np.stack([r.data for r in rows]), tuple(rows), bw)
    return out


def row(t: Tensor, i: int) -> Tensor:
    """Select row ``i`` of a matrix; the embedding-lookup primitive."""
    if t.data.ndim != 2:
        raise ShapeError(f"row expects a matrix, got {t.shape}")
    if not 0 <= i < t.shape[0]:
        raise ShapeError(f"row index {i} out of range for {t.shape}")

    def bw():
        _accum(t, out.grad, i)

    out = _make(t.data[i], (t,), bw)
    return out


def transpose(t: Tensor) -> Tensor:
    if t.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got {t.shape}")

    def bw():
        _accum(t, out.grad.T)

    out = _make(t.data.T, (t,), bw)
    return out


def mean_rows(t: Tensor) -> Tensor:
    """Mean-pool a (k, d) matrix down to a d-vector."""
    if t.data.ndim != 2:
        raise ShapeError(f"mean_rows expects a matrix, got {t.shape}")
    k = t.shape[0]

    def bw():
        _accum(t, np.broadcast_to(out.grad / k, t.shape))

    out = _make(t.data.mean(axis=0), (t,), bw)
    return out


def zeros(n: int) -> Tensor:
    """A constant zero vector, the initial recurrent state."""
    return Tensor(np.zeros(n))


def tsum(t: Tensor) -> Tensor:
    def bw():
        _accum(t, out.grad)

    out = _make(np.asarray(t.data.sum()), (t,), bw)
    return out


def pick(t: Tensor, i: int) -> Tensor:
    """Scalar entry ``i`` of a vector."""
    if t.data.ndim != 1:
        raise ShapeError(f"pick expects a vector, got {t.shape}")
    if not 0 <= i < t.shape[0]:
        raise ShapeError(f"pick index {i} out of range for {t.shape}")

    def bw():
        _accum(t, out.grad, i)

    out = _make(np.asarray(t.data[i]), (t,), bw)
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)

    def bw():
        _accum(t, (1.0 - y * y) * out.grad)

    out = _make(y, (t,), bw)
    return out


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp never sees a positive argument, so it cannot
    overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_np(x: np.ndarray) -> np.ndarray:
    """Log-softmax of a vector."""
    z = x - x.max()
    return z - np.log(np.exp(z).sum())


def sigmoid(t: Tensor) -> Tensor:
    y = sigmoid_np(t.data)

    def bw():
        _accum(t, y * (1.0 - y) * out.grad)

    out = _make(y, (t,), bw)
    return out


def softmax(t: Tensor) -> Tensor:
    """Softmax of a vector, or of each row of a matrix."""
    if t.data.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a vector or a matrix, got {t.shape}")
    y = softmax_np(t.data)

    def bw():
        g = out.grad
        _accum(t, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    out = _make(y, (t,), bw)
    return out


def log_softmax(t: Tensor) -> Tensor:
    if t.data.ndim != 1:
        raise ShapeError(f"log_softmax expects a vector, got {t.shape}")
    y = log_softmax_np(t.data)

    def bw():
        g = out.grad
        _accum(t, g - np.exp(y) * g.sum())

    out = _make(y, (t,), bw)
    return out


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Negative log-likelihood of ``target`` under softmax(logits)."""
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy expects a logit vector, got {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise ValueError(f"target {target} out of range for {logits.shape[0]} classes")
    return scale(pick(log_softmax(logits), target), -1.0)


# ---------------------------------------------------------------------------
# the ops above on plain ndarrays: each is the numpy call its Tensor op runs on
# ``.data``, so both namespaces compute the same floats bit for bit

nd = SimpleNamespace(
    add=np.add, sub=np.subtract, mul=np.multiply, scale=np.multiply,
    matmul=np.matmul, concat=np.concatenate, stack=np.stack,
    transpose=np.transpose, row=operator.getitem, pick=operator.getitem,
    slice1d=lambda t, start, stop: t[start:stop],
    mean_rows=lambda t: t.mean(axis=0), zeros=np.zeros,
    tanh=np.tanh, sigmoid=sigmoid_np, softmax=softmax_np, log_softmax=log_softmax_np,
)


# ---------------------------------------------------------------------------
# parameters, optimizer, rng plumbing

INIT_RANGE = 0.08


def parameter(shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    """Trainable tensor initialized uniformly in [-0.08, 0.08]."""
    return Tensor(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape), requires_grad=True)


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``."""
    ps = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad * p.grad).sum()) for p in ps)))
    if total > max_norm > 0:
        s = max_norm / total
        for p in ps:
            p.grad *= s
    return total


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad {g.shape} vs param {p.data.shape} for {name!r}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def derive_rng(seed: int, *streams: int | str) -> np.random.Generator:
    """Child generator for a named purpose; same arguments, same stream."""
    entropy: list[int] = [int(seed)]
    for s in streams:
        entropy.append(zlib.crc32(s.encode()) if isinstance(s, str) else int(s))
    return np.random.default_rng(entropy)
