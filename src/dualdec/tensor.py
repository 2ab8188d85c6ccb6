"""Dense float64 tensors with reverse-mode automatic differentiation.

Covers exactly the shapes the recurrent/attention models need: scalars,
vectors, and matrices. Each op records a backward closure when an operand
requires a gradient; the closure takes the output's gradient and holds no
reference to the output, so a graph is freed as soon as it is dropped.
``backward`` replays the trace in reverse topological order. ``nd`` holds the
same ops on plain ndarrays, with the same forward arithmetic and no trace:
model code written once against an ops namespace trains on this module and
runs inference on ``nd``, with the same floats.

Two fused ops stand for subgraphs the models build at every step:
``linear(W, x, b)`` for ``add(matvec(W, x), b)``, and ``gru_gates(gi, gh, h)``
for a gated recurrent step after its two affine products (six slices, two
sigmoids, a tanh and the state update). Each is one node, not 2 or 17. Its
backward repeats the subgraph's float operations, and it adds into each
operand's ``.grad`` in the order the subgraph's nodes did, so the gradients
are bit for bit the node graph's. Training floats and checkpoints do not
depend on which of the two graphs built them.

``nd`` also takes a stack of rows, any leading batch axes before the operand
this module would see: its ops act on the last axis (``transpose`` swaps the
last two, ``mean_rows`` reduces the second to last), and each row of a result
equals, bit for bit, the op applied to that row alone. Vector products are
named ``matvec(W, x)`` and ``vecmat(w, F)``; on a stack ``np.matmul`` issues
one BLAS gemv per row, the call a single row makes. A per-row product is never
written ``X @ W.T``: that one gemm sums in another order and drifts by ulps.
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
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            break
    return out


def _accum(t: Tensor, delta, index=None) -> None:
    """Add ``delta`` into ``t.grad``, or into ``t.grad[index]`` when given."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if index is None and t.data.ndim < 2:
            # bitwise zeros + delta; a matrix's grad keeps its data's layout
            t.grad = np.asarray(delta + 0.0)
            return
        t.grad = np.zeros_like(t.data)
    if index is None:
        t.grad += delta
    else:
        t.grad[index] += delta


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tensor the scalar ``loss`` depends on."""
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    # Depth first from the loss, last parent first; a node is pushed again,
    # in a 1-tuple, as its exit marker, and the nodes' backward closures run
    # in reverse exit order. Leaves have no closure and are never pushed.
    exits: list[Tensor] = []
    seen: set[int] = set()
    stack: list = [loss] if loss._backward is not None else []
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            exits.append(node[0])
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node,))
        for p in node._parents:
            if p._backward is not None and id(p) not in seen:
                stack.append(p)
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += 1.0
    for node in reversed(exits):
        node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        def bw(g):
            _accum(a, g)
            _accum(b, g)
        return _make(a.data + b.data, (a, b), bw)
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        # bias row-broadcast
        def bw(g):
            _accum(a, g)
            _accum(b, g.sum(axis=0))
        return _make(a.data + b.data, (a, b), bw)
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def bw(g):
        _accum(a, g)
        _accum(b, -g)

    return _make(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), bw)


def scale(t: Tensor, c: float) -> Tensor:
    def bw(g):
        _accum(t, g * c)

    return _make(t.data * c, (t,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if A.ndim == 2 and B.ndim == 1:
        if A.shape[1] != B.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def bw(g):
            _accum(a, g[:, None] * B)
            _accum(b, A.T @ g)
    elif A.ndim == 1 and B.ndim == 2:
        if A.shape[0] != B.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def bw(g):
            _accum(a, B @ g)
            _accum(b, A[:, None] * g)
    elif A.ndim == 2 and B.ndim == 2:
        if A.shape[1] != B.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        def bw(g):
            _accum(a, g @ B.T)
            _accum(b, A.T @ g)
    else:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    return _make(A @ B, (a, b), bw)


def concat(parts: Sequence[Tensor]) -> Tensor:
    if not parts or any(p.data.ndim != 1 for p in parts):
        raise ShapeError("concat expects a non-empty list of vectors")
    sizes = [p.data.shape[0] for p in parts]

    def bw(g):
        o = 0
        for p, n in zip(parts, sizes):
            _accum(p, g[o:o + n])
            o += n

    return _make(np.concatenate([p.data for p in parts]), tuple(parts), bw)


def slice1d(t: Tensor, start: int, stop: int) -> Tensor:
    if t.data.ndim != 1:
        raise ShapeError(f"slice1d expects a vector, got {t.shape}")
    if not 0 <= start <= stop <= t.shape[0]:
        raise ShapeError(f"slice1d [{start}:{stop}] out of range for {t.shape}")

    def bw(g):
        _accum(t, g, slice(start, stop))

    return _make(t.data[start:stop], (t,), bw)


def stack(rows: Sequence[Tensor]) -> Tensor:
    if not rows or any(r.data.ndim != 1 for r in rows):
        raise ShapeError("stack expects a non-empty list of vectors")
    if len({r.shape[0] for r in rows}) != 1:
        raise ShapeError("stack expects equal-length vectors")

    def bw(g):
        for i, r in enumerate(rows):
            _accum(r, g[i])

    return _make(np.stack([r.data for r in rows]), tuple(rows), bw)


def row(t: Tensor, i: int) -> Tensor:
    """Select row ``i`` of a matrix; the embedding-lookup primitive."""
    if t.data.ndim != 2:
        raise ShapeError(f"row expects a matrix, got {t.shape}")
    if not 0 <= i < t.shape[0]:
        raise ShapeError(f"row index {i} out of range for {t.shape}")

    def bw(g):
        _accum(t, g, i)

    return _make(t.data[i], (t,), bw)


def transpose(t: Tensor) -> Tensor:
    if t.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got {t.shape}")

    def bw(g):
        _accum(t, g.T)

    return _make(t.data.T, (t,), bw)


def mean_rows(t: Tensor) -> Tensor:
    """Mean-pool a (k, d) matrix down to a d-vector."""
    if t.data.ndim != 2:
        raise ShapeError(f"mean_rows expects a matrix, got {t.shape}")
    k = t.shape[0]

    def bw(g):
        _accum(t, np.broadcast_to(g / k, t.shape))

    return _make(t.data.mean(axis=0), (t,), bw)


def zeros(n: int) -> Tensor:
    """A constant zero vector, the initial recurrent state."""
    return Tensor(np.zeros(n))


def tsum(t: Tensor) -> Tensor:
    def bw(g):
        _accum(t, np.broadcast_to(g, t.shape))

    return _make(np.asarray(t.data.sum()), (t,), bw)


def pick(t: Tensor, i: int) -> Tensor:
    """Scalar entry ``i`` of a vector."""
    if t.data.ndim != 1:
        raise ShapeError(f"pick expects a vector, got {t.shape}")
    if not 0 <= i < t.shape[0]:
        raise ShapeError(f"pick index {i} out of range for {t.shape}")

    def bw(g):
        _accum(t, g, i)

    return _make(np.asarray(t.data[i]), (t,), bw)


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)

    def bw(g):
        _accum(t, (1.0 - y * y) * g)

    return _make(y, (t,), bw)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp never sees a positive argument, so it cannot
    overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_np(x: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis."""
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def sigmoid(t: Tensor) -> Tensor:
    y = sigmoid_np(t.data)

    def bw(g):
        _accum(t, y * (1.0 - y) * g)

    return _make(y, (t,), bw)


def softmax(t: Tensor) -> Tensor:
    """Softmax of a vector, or of each row of a matrix."""
    if t.data.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a vector or a matrix, got {t.shape}")
    y = softmax_np(t.data)

    def bw(g):
        _accum(t, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _make(y, (t,), bw)


def log_softmax(t: Tensor) -> Tensor:
    if t.data.ndim != 1:
        raise ShapeError(f"log_softmax expects a vector, got {t.shape}")
    y = log_softmax_np(t.data)

    def bw(g):
        _accum(t, g - np.exp(y) * g.sum())

    return _make(y, (t,), bw)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Negative log-likelihood of ``target`` under softmax(logits)."""
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy expects a logit vector, got {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise ValueError(f"target {target} out of range for {logits.shape[0]} classes")
    return scale(pick(log_softmax(logits), target), -1.0)


# ---------------------------------------------------------------------------
# fused layers: one node for a subgraph of the ops above, with a backward that
# repeats that subgraph's float operations in its order, so every gradient
# is the one the subgraph would give


def linear(W: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """The affine layer W @ x + b, one node for ``add(matvec(W, x), b)``."""
    Wd, xd = W.data, x.data
    if Wd.ndim != 2 or xd.ndim != 1 or Wd.shape != b.data.shape + xd.shape:
        raise ShapeError(f"linear: {W.shape} @ {x.shape} + {b.shape}")

    def bw(g):
        _accum(b, g)
        _accum(W, g[:, None] * xd)
        if x.requires_grad:
            _accum(x, Wd.T @ g)

    return _make(Wd @ xd + b.data, (W, x, b), bw)


def gru_gates_np(gi: np.ndarray, gh: np.ndarray, h: np.ndarray):
    """The gates of one gated recurrent step, ordered (reset, update,
    candidate), from its input product ``gi`` and state product ``gh``.
    Returns the new state and the values its backward needs: the reset and
    update gates side by side, the candidate and ``h - candidate``."""
    H = h.shape[-1]
    rz = sigmoid_np(gi[..., :2 * H] + gh[..., :2 * H])
    n = np.tanh(gi[..., 2 * H:] + rz[..., :H] * gh[..., 2 * H:])
    d = h - n
    return n + rz[..., H:] * d, rz, n, d


def gru_gates(gi: Tensor, gh: Tensor, h: Tensor) -> Tensor:
    """One node for a gated recurrent step after its two affine products:
    the slices, the gates and the new state ``n + z * (h - n)``."""
    H = h.data.shape[-1]
    if h.data.ndim != 1 or gi.data.shape != (3 * H,) or gh.data.shape != (3 * H,):
        raise ShapeError(f"gru_gates: {gi.shape}, {gh.shape} for state {h.shape}")
    new, rz, n, d = gru_gates_np(gi.data, gh.data, h.data)
    r, z, ghn = rz[:H], rz[H:], gh.data[2 * H:]

    def bw(g):
        # the old nodes' formulas with their operand order: z * (h - n) sends
        # g * z to h and -(g * z) to n; tanh is (1 - y * y) * g, sigmoid
        # y * (1 - y) * g; the reset gate's product sends to r and to gh
        gz = g * z
        _accum(h, gz)
        dn = (1.0 - n * n) * (g + -gz)
        drz = np.concatenate([dn * ghn, g * d])
        dgi = np.concatenate([rz * (1.0 - rz) * drz, dn])
        _accum(gi, dgi)
        dgh = dgi.copy()
        dgh[2 * H:] = dn * r
        _accum(gh, dgh)

    return _make(new, (gi, gh, h), bw)


# the model code's two vector products: W @ x and w @ F
matvec = vecmat = matmul


# ---------------------------------------------------------------------------
# the ops above on plain ndarrays: each is the numpy call its Tensor op runs on
# ``.data``, so both namespaces compute the same floats bit for bit, and on a
# stack of rows every row gets the floats it would get alone


def _matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W @ x for each row x (and each matrix W of a stack); one gemv per row."""
    return np.matmul(W, x[..., None])[..., 0]


def _vecmat(w: np.ndarray, F: np.ndarray) -> np.ndarray:
    """w @ F for each row w (and each matrix F of a stack); one gemv per row."""
    return np.matmul(w[..., None, :], F)[..., 0, :]


def _concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Join along the last axis; a part without the batch axes (a parameter
    vector, or a row shared by the stack) is repeated for every row."""
    lead = max(parts, key=np.ndim).shape[:-1]
    return np.concatenate([p if p.shape[:-1] == lead else np.broadcast_to(p, lead + p.shape[-1:])
                           for p in parts], axis=-1)


def _pick(t: np.ndarray, i) -> np.ndarray:
    """Entry ``i`` of a vector, or entry ``i[r]`` of each row r of a 2-D stack."""
    return t[np.arange(len(t)), i] if t.ndim == 2 else t[i]


nd = SimpleNamespace(
    add=np.add, sub=np.subtract, mul=np.multiply, scale=np.multiply,
    matmul=np.matmul, matvec=_matvec, vecmat=_vecmat, concat=_concat, stack=np.stack,
    linear=lambda W, x, b: np.add(_matvec(W, x), b),
    gru_gates=lambda gi, gh, h: gru_gates_np(gi, gh, h)[0],
    transpose=lambda t: np.swapaxes(t, -1, -2), row=operator.getitem, pick=_pick,
    slice1d=lambda t, start, stop: t[..., start:stop],
    mean_rows=lambda t: t.mean(axis=-2), zeros=np.zeros,
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
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
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
