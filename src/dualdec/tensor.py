"""Dense float64 tensors with reverse-mode automatic differentiation.

Covers the shapes the recurrent/attention models need: scalars, vectors and
matrices, each either alone or as a stack of rows. A stack carries a leading
row axis and ``keys``, one integer per row; its ops act on each row as they
would on that row alone, with the same floats (``nd`` below does the same on
plain ndarrays). Each op records a backward closure when an operand requires a
gradient; the closure takes the output's gradient and holds no reference to
the output, so a graph is freed as soon as it is dropped. ``backward`` replays
the trace in reverse topological order.

A training batch is one graph over stacks, one row per example, and its
gradients are bit for bit those of one graph per example added up in batch
order. Two rules make that hold:
  * an intermediate node adds into its ``.grad`` at once; each row gets its
    terms in the order its own graph would give them;
  * a parameter (a leaf) records each contribution, one per row of the stack
    that made it, as vectors (``linear`` records ``g`` and ``x``, not their
    outer product). When ``backward`` ends, the records are sorted by row key
    (stably, so each row keeps the order the backward produced them) and added
    in that order, one ``+=`` per row, embedding rows through ``np.add.at``.
Rows that end early drop out of a stack through ``head``, a view whose
gradient adds straight into the stack's own.

``nd`` runs the same ops on plain ndarrays, with no trace, so model code
written over an ``ops`` namespace runs on either. The ops that make and
gather stacks (``zeros``, ``stack``, ``row_sums``, ``last_rows``, ``pick``)
share their numpy forward with ``nd``. Plain ndarrays carry no keys, so on
``nd`` the ``keys`` an op is given only count a stack's rows (and tell
``stack`` that a vector part is one row).

Two fused ops stand for subgraphs the models build at every step:
``linear(W, x, b)`` for ``add(matvec(W, x), b)``, and ``gru_gates(gi, gh, h)``
for a gated recurrent step after its two affine products (six slices, two
sigmoids, a tanh and the state update). Each is one node, not 2 or 17. Its
backward repeats the subgraph's float operations, and it adds into each
operand's ``.grad`` in the order the subgraph's nodes did.

Vector products are named ``matvec(W, x)`` and ``vecmat(w, F)``; on a stack
``np.matmul`` issues one BLAS gemv per row, the call a single row makes. A
per-row product is never written ``X @ W.T``: that one gemm sums in another
order and drifts by ulps.
"""
from __future__ import annotations

import functools
import operator
import zlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "keys", "_parents", "_backward", "_base",
                 "_recorded")

    def __init__(self, data, requires_grad: bool = False, keys: np.ndarray | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        # one sort key per row of a stack; None for a tensor that is not one
        self.keys = keys
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._base: Tensor | None = None
        # a leaf's contributions during a backward pass: (keys, kind, a, b)
        self._recorded: list | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# a row key is an example's number times PARTS plus the part of the example
# the row holds, so an example's parts sort together and in part order
PARTS = 1 << 16
_examples_numbered = 0


def example_keys(n: int) -> np.ndarray:
    """Row keys for ``n`` new examples, part 0 of each; they sort after every
    key handed out before, so graphs built one after another sort in that
    order."""
    global _examples_numbered
    first = _examples_numbered
    _examples_numbered += n
    return (first + np.arange(n, dtype=np.int64)) * PARTS


def _keys(*ts: Tensor) -> np.ndarray | None:
    """The row keys of the first stack among ``ts``: the rows of an op's output."""
    for t in ts:
        if t.keys is not None:
            return t.keys
    return None


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward,
          keys: np.ndarray | None = None) -> Tensor:
    out = Tensor(data, keys=keys)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            break
    return out


def _record(t: Tensor, entry: tuple) -> None:
    if t._recorded is None:
        t._recorded = []
    t._recorded.append(entry)


def _accum(t: Tensor, delta, index=None, keys: np.ndarray | None = None) -> None:
    """Add ``delta`` into ``t.grad``, or into ``t.grad[index]`` when given.
    ``keys`` are the rows of the op that made it: a leaf that is not a stack
    then gets one delta per row, which it records."""
    if not t.requires_grad:
        return
    if t._backward is None:
        # a leaf: added in row order when backward ends
        _record(t, (keys, "dense", delta, None) if index is None
                else (keys, "index", index, delta))
        return
    if keys is not None and t.keys is None:
        raise ShapeError("a node that is not a stack feeds a stack; only parameters may")
    if t._base is not None:
        # a view of a stack's first rows adds into the stack's own gradient
        t, index = t._base, slice(0, len(t.data))
    if t.grad is None:
        if index is None and _core_ndim(t) < 2:
            # bitwise zeros + delta; a matrix's grad keeps its data's layout
            t.grad = np.asarray(delta + 0.0)
            return
        t.grad = np.zeros_like(t.data)
    if index is None:
        t.grad += delta
    else:
        t.grad[index] += delta


def _accum_outer(t: Tensor, g: np.ndarray, x: np.ndarray, keys: np.ndarray | None) -> None:
    """Add each row's outer product ``g ⊗ x`` into ``t.grad``; a leaf records
    the two vectors and forms the products when ``backward`` ends."""
    if not t.requires_grad:
        return
    if t._backward is None:
        _record(t, (keys, "outer", g, x))
        return
    _accum(t, g[..., :, None] * x[..., None, :], keys=keys)


def _add_recorded(t: Tensor, entries: list) -> None:
    """Add a leaf's recorded contributions into ``t.grad`` (zeros when it has
    none yet) one at a time, in row-key order and, within a key, in the order
    they were recorded."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    grad = t.grad
    kind = entries[0][1]
    if any(e[1] != kind for e in entries):
        raise ShapeError("one parameter got contributions of more than one kind "
                         "(embedding rows, outer products, whole deltas)")
    lone = np.full(1, -1, dtype=np.int64)
    order = np.argsort(np.concatenate([lone if k is None else k for k, _, _, _ in entries]),
                       kind="stable")

    def rows(i: int) -> np.ndarray:
        """Payload ``i`` of every entry, one row per contribution, in order."""
        return np.concatenate([e[i] if e[0] is not None else np.asarray(e[i])[None]
                               for e in entries])[order]

    if kind == "index":
        np.add.at(grad, rows(2), rows(3))
    elif kind == "dense":
        for delta in rows(2):
            grad += delta
    else:
        # each outer product goes through one buffer that stays in cache
        tmp = np.empty_like(grad)
        for g, x in zip(rows(2), rows(3)):
            grad += np.multiply(g[:, None], x, out=tmp)


def _noop(g) -> None:
    """The backward of a view: its consumers already added into its stack."""


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tensor the scalar ``loss`` depends on."""
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    # Depth first from the loss, last parent first; a node is pushed again,
    # in a 1-tuple, as its exit marker, and the nodes' backward closures run
    # in reverse exit order. Leaves have no closure and are never pushed.
    exits: list[Tensor] = []
    seen: set[int] = set()
    leaves: dict[Tensor, None] = {}
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
            if p._backward is None:
                if p.requires_grad:
                    leaves[p] = None
            elif id(p) not in seen:
                stack.append(p)
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += 1.0
    try:
        for node in reversed(exits):
            node._backward(node.grad)
        for t in leaves:
            if t._recorded is not None:
                _add_recorded(t, t._recorded)
    finally:
        for t in leaves:
            t._recorded = None


# ---------------------------------------------------------------------------
# elementwise and structural ops


def _core_ndim(t: Tensor) -> int:
    """The rank of one row of a stack, or of a tensor that is not one."""
    return t.data.ndim - (t.keys is not None)


def add(a: Tensor, b: Tensor) -> Tensor:
    keys = _keys(a, b)
    if a.shape == b.shape:
        def bw(g):
            _accum(a, g, keys=keys)
            _accum(b, g, keys=keys)
        return _make(a.data + b.data, (a, b), bw, keys)
    if b.keys is None and b.data.ndim == 1 and a.data.ndim >= 2 and a.shape[-1] == b.shape[0]:
        # bias broadcast over a's rows; on a stack, one sum per stack row
        lead = tuple(range(a.keys is not None, a.data.ndim - 1))

        def bw(g):
            _accum(a, g)
            _accum(b, g.sum(axis=lead), keys=keys)
        return _make(a.data + b.data, (a, b), bw, keys)
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def scale(t: Tensor, c: float) -> Tensor:
    def bw(g):
        _accum(t, g * c)

    return _make(t.data * c, (t,), bw, t.keys)


def _matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W @ x for each row x (and each matrix W of a stack); one gemv per row."""
    return np.matmul(W, x[..., None])[..., 0]


def _vecmat(w: np.ndarray, F: np.ndarray) -> np.ndarray:
    """w @ F for each row w (and each matrix F of a stack); one gemv per row."""
    return np.matmul(w[..., None, :], F)[..., 0, :]


def _t(A: np.ndarray) -> np.ndarray:
    return A.swapaxes(-1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix-vector, vector-matrix or matrix-matrix product, by the rank of
    one row of each operand."""
    A, B = a.data, b.data
    keys = _keys(a, b)
    ranks = (_core_ndim(a), _core_ndim(b))
    if ranks == (2, 1):
        if A.shape[-1] != B.shape[-1]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")

        def bw(g):
            _accum_outer(a, g, B, keys)
            _accum(b, _matvec(_t(A), g), keys=keys)
        return _make(_matvec(A, B), (a, b), bw, keys)
    if ranks == (1, 2):
        if A.shape[-1] != B.shape[-2]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")

        def bw(g):
            _accum(a, _matvec(B, g), keys=keys)
            _accum_outer(b, A, g, keys)
        return _make(_vecmat(A, B), (a, b), bw, keys)
    if ranks == (2, 2):
        if A.shape[-1] != B.shape[-2]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")

        def bw(g):
            _accum(a, np.matmul(g, _t(B)), keys=keys)
            _accum(b, np.matmul(_t(A), g), keys=keys)
        return _make(np.matmul(A, B), (a, b), bw, keys)
    raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T of two matrices, or of each row of a stack; a parameter ``b``
    gets one contribution per row."""
    A, B = a.data, b.data
    if _core_ndim(a) != 2 or _core_ndim(b) != 2 or A.shape[-1] != B.shape[-1]:
        raise ShapeError(f"matmul_t: {a.shape} @ {b.shape}.T")
    keys = _keys(a, b)

    def bw(g):
        _accum(a, np.matmul(g, B), keys=keys)
        _accum(b, _t(np.matmul(_t(A), g)), keys=keys)

    return _make(np.matmul(A, _t(B)), (a, b), bw, keys)


def _concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Join along the last axis; a part without the batch axes (a parameter
    vector, or a row shared by the stack) is repeated for every row."""
    lead = max(parts, key=np.ndim).shape[:-1]
    return np.concatenate([p if p.shape[:-1] == lead else np.broadcast_to(p, lead + p.shape[-1:])
                           for p in parts], axis=-1)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Vectors joined end to end; on a stack, a part that is not one is
    repeated for every row."""
    if not parts or any(_core_ndim(p) != 1 for p in parts):
        raise ShapeError("concat expects a non-empty list of vectors")
    keys = _keys(*parts)
    sizes = [p.data.shape[-1] for p in parts]

    def bw(g):
        o = 0
        for p, n in zip(parts, sizes):
            _accum(p, g[..., o:o + n], keys=keys)
            o += n

    return _make(_concat([p.data for p in parts]), tuple(parts), bw, keys)


def _stack_np(blocks: Sequence[np.ndarray], index: np.ndarray) -> np.ndarray:
    """The forward of ``stack``, once each part is a block of rows."""
    return np.concatenate(blocks)[index]


def stack(parts: Sequence[Tensor], index: np.ndarray | None = None,
          keys: np.ndarray | None = None) -> Tensor:
    """Rows of ``parts`` laid out by ``index``. A part is one row (a tensor
    that is not a stack) or a stack of rows; ``index`` holds positions in all
    parts' rows counted in order (by default each once, in order). With
    ``keys``, the leading axis of ``index`` is a stack's rows."""
    if not parts:
        raise ShapeError("stack expects a non-empty list of rows")
    blocks = [p.data if p.keys is not None else p.data[None] for p in parts]
    if len({blk.shape[1:] for blk in blocks}) != 1:
        raise ShapeError("stack expects rows of one shape")
    starts = np.cumsum([0] + [len(blk) for blk in blocks])
    index = np.arange(starts[-1]) if index is None else np.asarray(index)
    flat = index.reshape(-1)
    row_keys = None if keys is None else np.repeat(keys, flat.size // max(len(keys), 1))

    def bw(g):
        gs = g.reshape((flat.size,) + g.shape[index.ndim:])
        for p, lo, hi in zip(parts, starts, starts[1:]):
            at = np.flatnonzero((flat >= lo) & (flat < hi))
            if p.keys is not None:
                d = np.zeros_like(p.data)
                np.add.at(d, flat[at] - lo, gs[at])
                _accum(p, d)
            elif row_keys is not None:
                if len(at):
                    _accum(p, gs[at], keys=row_keys[at])
            else:
                # a lone row gets one delta per place it fills, in order
                for i in at:
                    _accum(p, gs[i])

    return _make(_stack_np(blocks, index), tuple(parts), bw, keys)


def row(t: Tensor, i, like: Tensor | None = None, keys: np.ndarray | None = None) -> Tensor:
    """Row ``i`` of a matrix, the embedding-lookup primitive. With an array of
    ids, a stack of rows: those of the stack ``like`` (one id per row), or
    with row keys ``keys``."""
    if t.data.ndim != 2:
        raise ShapeError(f"row expects a matrix, got {t.shape}")
    if np.ndim(i) == 0:
        if not 0 <= i < t.shape[0]:
            raise ShapeError(f"row index {i} out of range for {t.shape}")
        i = int(i)
    else:
        i = np.asarray(i)
        if like is not None:
            keys = like.keys[:len(i)]

    def bw(g):
        _accum(t, g, i, keys=keys)

    return _make(t.data[i], (t,), bw, keys)


def zeros(keys: np.ndarray, width: int) -> Tensor:
    """The zero states of a stack whose rows have keys ``keys``."""
    return Tensor(np.zeros((len(keys), width)), keys=keys)


def head(t: Tensor, n: int) -> Tensor:
    """The first ``n`` rows of a stack, so the rows that have ended drop out.
    What consumers add into the view's gradient goes straight into the
    stack's own, in the order they run, as if they used the stack itself."""
    if n == len(t.data):
        return t
    base = t if t._base is None else t._base
    v = Tensor(t.data[:n], keys=t.keys[:n])
    if base._backward is not None:
        v.requires_grad = True
        v._base, v._parents, v._backward = base, (base,), _noop
    return v


def _last_rows_np(states: Sequence[np.ndarray]) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The forward of ``last_rows``, and the (state, first row, end row) of
    each state it takes rows from."""
    parts, n = [], 0
    for i in range(len(states) - 1, -1, -1):
        if len(states[i]) > n:
            parts.append((i, n, len(states[i])))
            n = len(states[i])
    return np.concatenate([states[i][lo:hi] for i, lo, hi in parts]), parts


def last_rows(states: Sequence[Tensor]) -> Tensor:
    """Each row's last state: row r of the last of ``states`` that has a row r,
    for a stack whose rows end at different steps (each state a prefix of
    the rows of the one before)."""
    data, parts = _last_rows_np([s.data for s in states])

    def bw(g):
        for i, lo, hi in parts:
            _accum(states[i], g[lo:hi], slice(lo, hi))

    return _make(data, tuple(states[i] for i, _, _ in parts), bw, states[0].keys)


def mean_rows(t: Tensor) -> Tensor:
    """Mean-pool a (k, d) matrix down to a d-vector, per row of a stack."""
    if _core_ndim(t) != 2:
        raise ShapeError(f"mean_rows expects a matrix, got {t.shape}")
    k = t.shape[-2]

    def bw(g):
        _accum(t, np.broadcast_to((g / k)[..., None, :], t.shape))

    return _make(t.data.mean(axis=-2), (t,), bw, t.keys)


def _pick_at(shape: tuple[int, ...], i) -> tuple:
    """Where ``pick`` reads: ``np.ogrid`` over the leading axes, then ``i``."""
    return tuple(np.arange(n).reshape((n,) + (1,) * (len(shape) - 2 - d))
                 for d, n in enumerate(shape[:-1])) + (np.asarray(i),)


def pick(t: Tensor, i) -> Tensor:
    """Entry ``i`` of a vector; on a stack, entry ``i[r]`` of the last axis of
    row r (``i`` may also pick one entry per vector of each row)."""
    if t.keys is None:
        if t.data.ndim != 1:
            raise ShapeError(f"pick expects a vector, got {t.shape}")
        if not 0 <= i < t.shape[0]:
            raise ShapeError(f"pick index {i} out of range for {t.shape}")
    at = _pick_at(t.shape, i)

    def bw(g):
        d = np.zeros_like(t.data)
        d[at] = g
        _accum(t, d)

    return _make(t.data[at], (t,), bw, t.keys)


def _row_sums_np(terms: Sequence[np.ndarray], n: int,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """The forward of ``row_sums`` for a stack of ``n`` rows."""
    cols = [(t, j) for t in terms for j in ([None] if t.ndim == 1 else range(t.shape[1]))]
    total = np.zeros(n)
    started = 0 if mask is None else np.zeros(n, dtype=bool)
    for c, (t, j) in enumerate(cols):
        v = t if j is None else t[:, j]
        k = len(v)
        if mask is None:
            # the rows started so far are a prefix
            lo = min(k, started)
            total[:lo] += v[:lo]
            total[lo:k] = v[lo:k]
            started = max(started, k)
        else:
            take = mask[:k, c]
            total[:k] = np.where(take, np.where(started[:k], total[:k] + v, v), total[:k])
            started[:k] |= take
    return total


def row_sums(terms: Sequence[Tensor], keys: np.ndarray,
             mask: np.ndarray | None = None) -> Tensor:
    """Each row's terms added in order, the first as it is, for the stack
    whose rows have keys ``keys``; a row with no terms sums to 0. A term is a
    stack of one value per row over a prefix of the rows (rows that have
    ended, or never started, drop out), or of k values per row, k terms in
    order; ``mask``, one column per term, marks the terms a row adds."""
    total = _row_sums_np([t.data for t in terms], len(keys), mask)

    def bw(g):
        c = 0
        for t in terms:
            k = len(t.data)
            if t.data.ndim == 1:
                d = g[:k] if mask is None else np.where(mask[:k, c], g[:k], 0.0)
            else:
                w = t.data.shape[1]
                d = (np.broadcast_to(g[:k, None], (k, w)) if mask is None
                     else np.where(mask[:k, c:c + w], g[:k, None], 0.0))
            c += 1 if t.data.ndim == 1 else t.data.shape[1]
            _accum(t, d)

    return _make(total, tuple(terms), bw, keys)


def batch_mean(t: Tensor) -> Tensor:
    """The mean of a vector of per-example losses: their sum in order,
    scaled by 1/n."""
    c = 1.0 / len(t.data)

    def bw(g):
        _accum(t, np.full(t.shape, g * c))

    return _make(np.asarray(functools.reduce(operator.add, t.data.tolist()) * c), (t,), bw)


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)

    def bw(g):
        _accum(t, (1.0 - y * y) * g)

    return _make(y, (t,), bw, t.keys)


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


def softmax(t: Tensor) -> Tensor:
    """Softmax along the last axis."""
    if t.data.ndim < 1:
        raise ShapeError(f"softmax expects a vector or a matrix, got {t.shape}")
    y = softmax_np(t.data)

    def bw(g):
        _accum(t, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _make(y, (t,), bw, t.keys)


def log_softmax(t: Tensor) -> Tensor:
    """Log-softmax along the last axis."""
    if t.data.ndim < 1:
        raise ShapeError(f"log_softmax expects a vector, got {t.shape}")
    y = log_softmax_np(t.data)

    def bw(g):
        _accum(t, g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return _make(y, (t,), bw, t.keys)


# ---------------------------------------------------------------------------
# fused layers: one node for a subgraph of the ops above, with a backward that
# repeats that subgraph's float operations in its order, so every gradient
# is the one the subgraph would give


def linear(W: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """The affine layer W @ x + b, one node for ``add(matvec(W, x), b)``."""
    Wd, xd = W.data, x.data
    if Wd.ndim != 2 or _core_ndim(x) != 1 or Wd.shape != b.data.shape + xd.shape[-1:]:
        raise ShapeError(f"linear: {W.shape} @ {x.shape} + {b.shape}")
    keys = x.keys

    def bw(g):
        _accum(b, g, keys=keys)
        _accum_outer(W, g, xd, keys)
        if x.requires_grad:
            _accum(x, _matvec(Wd.T, g))

    return _make(np.add(_matvec(Wd, xd), b.data), (W, x, b), bw, keys)


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
    if _core_ndim(h) != 1 or gi.data.shape != h.data.shape[:-1] + (3 * H,) \
            or gh.data.shape != gi.data.shape:
        raise ShapeError(f"gru_gates: {gi.shape}, {gh.shape} for state {h.shape}")
    new, rz, n, d = gru_gates_np(gi.data, gh.data, h.data)
    r, z, ghn = rz[..., :H], rz[..., H:], gh.data[..., 2 * H:]

    def bw(g):
        # the old nodes' formulas with their operand order: z * (h - n) sends
        # g * z to h and -(g * z) to n; tanh is (1 - y * y) * g, sigmoid
        # y * (1 - y) * g; the reset gate's product sends to r and to gh
        gz = g * z
        _accum(h, gz)
        dn = (1.0 - n * n) * (g + -gz)
        drz = np.concatenate([dn * ghn, g * d], axis=-1)
        dgi = np.concatenate([rz * (1.0 - rz) * drz, dn], axis=-1)
        _accum(gi, dgi)
        dgh = dgi.copy()
        dgh[..., 2 * H:] = dn * r
        _accum(gh, dgh)

    return _make(new, (gi, gh, h), bw, _keys(gi, gh, h))


# the model code's two vector products: W @ x and w @ F
matvec = vecmat = matmul


# ---------------------------------------------------------------------------
# the ops above on plain ndarrays: each is the numpy call its Tensor op runs on
# ``.data``, so both namespaces compute the same floats bit for bit, and on a
# stack of rows every row gets the floats it would get alone. That per-row
# guarantee was checked on C-contiguous stacks only: a stack built another
# way (a concatenation of broadcast views can come out Fortran-ordered) may
# take another BLAS path, whose products differ in the last bits


def _nd_stack(parts: Sequence[np.ndarray], index: np.ndarray,
              keys: np.ndarray | None = None) -> np.ndarray:
    """``stack`` on ndarrays, which carry no keys: with ``keys`` (a stack of
    feature matrices) a vector part is one row; without, every part is a
    stack."""
    return _stack_np([p[None] if keys is not None and p.ndim == 1 else p for p in parts], index)


nd = SimpleNamespace(
    add=np.add, scale=np.multiply,
    matmul=np.matmul, matmul_t=lambda a, b: np.matmul(a, _t(b)),
    matvec=_matvec, vecmat=_vecmat, concat=_concat,
    linear=lambda W, x, b: np.add(_matvec(W, x), b),
    gru_gates=lambda gi, gh, h: gru_gates_np(gi, gh, h)[0],
    row=lambda t, i, like=None, keys=None: t[i], pick=lambda t, i: t[_pick_at(t.shape, i)],
    head=lambda t, n: t[:n], last_rows=lambda states: _last_rows_np(states)[0],
    mean_rows=lambda t: t.mean(axis=-2), stack=_nd_stack,
    zeros=lambda keys, width: np.zeros((len(keys), width)),
    row_sums=lambda terms, keys, mask=None: _row_sums_np(terms, len(keys), mask),
    tanh=np.tanh, softmax=softmax_np, log_softmax=log_softmax_np,
)


# ---------------------------------------------------------------------------
# parameters, optimizer, rng plumbing

INIT_RANGE = 0.08


def parameter(shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    """Trainable tensor initialized uniformly in [-0.08, 0.08]."""
    return Tensor(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape), requires_grad=True)


def zero_grad(params: Iterable[Tensor]) -> None:
    """Zero every parameter's gradient, in place once it has one."""
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        else:
            p.grad.fill(0.0)


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


def adam_step(params: Mapping[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update of ``params`` in place, from each
    parameter's own ``.grad``."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * p.grad
        v *= state.beta2
        v += (1.0 - state.beta2) * p.grad * p.grad
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def derive_rng(seed: int, *streams: int | str) -> np.random.Generator:
    """Child generator for a named purpose; same arguments, same stream.
    Entropy words that all fit in 32 bits go in as one uint32 array, which
    seeds the stream the list of them would, only faster."""
    entropy: list[int] = [int(seed)]
    for s in streams:
        entropy.append(zlib.crc32(s.encode()) if isinstance(s, str) else int(s))
    if all(0 <= e < 1 << 32 for e in entropy):
        return np.random.default_rng(np.array(entropy, dtype=np.uint32))
    return np.random.default_rng(entropy)
