"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array. Primitive operations record, on
their output, the operands, the backward rule and a creation sequence
number whenever any operand requires gradients; :func:`backward` runs the
rules reachable from a scalar output in reverse creation order to fill
``grad`` on every participating leaf, then drops the recorded links, so
each evaluation's graph is freed by reference counting.

Design constraints kept deliberately tight so every backward rule stays
auditable: all arithmetic is float64, a graph is consumed by its first
backward pass, and no graph is ever reused between evaluations.

Matrix operations act on the last two axes and accept leading batch axes,
so one graph can carry a stack of same-shape inputs; each batch row is
computed exactly as it would be on its own. Broadcasting takes three
forms: a python scalar times a tensor (:func:`scale`), a 1-D bias added
over the last axis (:func:`add`), and a 2-D weight shared by every batch
row (:func:`matmul`), whose gradient is summed over the batch.
:func:`split_heads` reshapes ``(..., n, d)`` to a ``(..., h, n, d/h)``
stack of heads, so the matrix operations run every head at once, and
:func:`merge_heads` reshapes it back.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NumericError, ShapeError

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715

_sequence = itertools.count()
# what a recorded output holds once a backward pass has run through it
_CONSUMED = (-1, None, ())


class Tensor:
    """Shape-carrying float64 array that can take part in a recorded graph.

    ``grad`` is ``None`` until a backward pass accumulates into it; a leaf
    that never receives gradient reads as zero via :func:`grad_of`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        # (sequence number, backward rule, operands) of a recorded output
        self._node: tuple | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def grad_of(t: Tensor) -> np.ndarray:
    """Gradient of a tensor after backward; zeros when disconnected."""
    if t.grad is None:
        return np.zeros_like(t.data)
    return t.grad


def _bind(out: Tensor, backward_fn, *operands: Tensor) -> Tensor:
    """Record on ``out`` its operands and backward rule.

    No operand requiring gradients means nothing is recorded (fast
    inference path).
    """
    for op in operands:
        if op.requires_grad:
            out.requires_grad = True
            out._node = (next(_sequence), backward_fn, operands)
            break
    return out


def backward(out: Tensor) -> None:
    """Reverse-mode pass from a scalar output down to every graph leaf.

    Leaves not reachable from ``out`` simply keep ``grad=None`` (read as
    zero). A graph is consumed by its backward pass: calling backward again
    on it, or on anything built from it, is an error; build a fresh
    evaluation instead.
    """
    if out.data.size != 1:
        raise ShapeError(f"backward needs a scalar output, got shape {out.shape}")
    if out._node is None:
        if out.requires_grad:
            out.grad = np.ones_like(out.data)
            return
        raise ShapeError("output is not connected to any tape leaf")
    recorded: dict[int, Tensor] = {}
    stack = [out]
    while stack:
        t = stack.pop()
        node = t._node
        if node is _CONSUMED:
            raise ShapeError("tape already consumed; rebuild the evaluation before backward")
        if node is not None and node[0] not in recorded:
            recorded[node[0]] = t
            stack.extend(node[2])
    out.accumulate(np.ones_like(out.data))
    # every operand is recorded before its output, so reverse creation
    # order visits each node after everything that consumes it
    for seq in sorted(recorded, reverse=True):
        t = recorded.pop(seq)
        backward_fn = t._node[1]
        t._node = _CONSUMED
        if t.grad is not None:
            backward_fn(t.grad)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes.

    ``a`` may carry leading batch axes; ``b`` is then either a 2-D weight
    shared by every batch row or a stack with the same leading shape.
    """
    A, B = a.data, b.data
    if (A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]
            or B.ndim != 2 and B.shape[:-2] != A.shape[:-2]):
        raise ShapeError(f"matmul: shapes {A.shape} and {B.shape} do not agree")
    out = Tensor(A @ B)
    shared = B.ndim < A.ndim

    def back(g):
        if a.requires_grad:
            a.accumulate(g @ B.swapaxes(-1, -2))
        if b.requires_grad:
            if shared:  # one weight for every batch row: sum its row gradients
                b.accumulate(A.reshape(-1, A.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            else:
                b.accumulate(A.swapaxes(-1, -2) @ g)

    return _bind(out, back, a, b)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias added over the last axis."""
    bias = a.data.ndim >= 2 and b.data.ndim == 1 and b.data.shape[0] == a.data.shape[-1]
    if not bias and a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not agree")
    out = Tensor(a.data + b.data)

    def back(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0) if bias else g)

    return _bind(out, back, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape} do not agree")
    out = Tensor(a.data - b.data)

    def back(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(-g)

    return _bind(out, back, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not agree")
    out = Tensor(a.data * b.data)
    A, B = a.data, b.data

    def back(g):
        if a.requires_grad:
            a.accumulate(g * B)
        if b.requires_grad:
            b.accumulate(g * A)

    return _bind(out, back, a, b)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (the one permitted scalar broadcast)."""
    c = float(factor)
    out = Tensor(a.data * c)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * c)

    return _bind(out, back, a)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * (1.0 - y * y))

    return _bind(out, back, a)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * y)

    return _bind(out, back, a)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    A = a.data

    def back(g):
        if a.requires_grad:
            a.accumulate(g / A)

    return _bind(out, back, a)


def gelu(a: Tensor) -> Tensor:
    """GELU via the tanh approximation, with its exact analytic derivative."""
    x = a.data
    inner = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * (x * x * x))
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))

    def back(g):
        if a.requires_grad:
            d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * x * x)
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
            a.accumulate(g * local)

    return _bind(out, back, a)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along one axis."""
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def back(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            a.accumulate(y * (g - dot))

    return _bind(out, back, a)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to mean 0 / variance 1, then affine."""
    n = a.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match last axis {n}"
        )
    x = a.data
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = Tensor(xhat * gain.data + bias.data)
    G = gain.data

    def back(g):
        if gain.requires_grad:
            gain.accumulate((g * xhat).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate(g.reshape(-1, n).sum(axis=0))
        if a.requires_grad:
            dxhat = g * G
            term = dxhat - dxhat.mean(axis=-1, keepdims=True)
            term -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            a.accumulate(term * inv_std)

    return _bind(out, back, a, gain, bias)


def rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D ``(V, d)`` table by an id array of any shape.

    The output has shape ``ids.shape + (d,)``, so a ``(G, n)`` id array
    gathers a ``(G, n, d)`` stack. Backward scatter-adds into the table,
    summing every use of a repeated id.
    """
    if table.data.ndim != 2:
        raise ShapeError(f"rows: table must be 2-D, got shape {table.data.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    out = Tensor(table.data[idx])

    def back(g):
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, idx, g)
            table.accumulate(acc)

    return _bind(out, back, table)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    """Columns ``lo:hi`` of the last axis."""
    if a.data.ndim < 2 or not (0 <= lo < hi <= a.data.shape[-1]):
        raise ShapeError(f"slice_cols: [{lo}:{hi}] invalid for shape {a.data.shape}")
    out = Tensor(a.data[..., lo:hi].copy())

    def back(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            acc[..., lo:hi] = g
            a.accumulate(acc)

    return _bind(out, back, a)


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Join along the last axis; every other axis must agree."""
    if not parts:
        raise ShapeError("concat_cols: no operands")
    rows = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.ndim < 2 or p.data.shape[:-1] != rows:
            raise ShapeError(f"concat_cols: row counts differ ({p.data.shape} vs {rows})")
    widths = [p.data.shape[-1] for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    offsets = np.cumsum([0] + widths)

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate(g[..., lo:hi])

    return _bind(out, back, *parts)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected 2-D or more, got shape {a.data.shape}")
    out = Tensor(a.data.swapaxes(-1, -2).copy())

    def back(g):
        if a.requires_grad:
            a.accumulate(g.swapaxes(-1, -2))

    return _bind(out, back, a)


def split_heads(a: Tensor, h: int) -> Tensor:
    """``(..., n, d)`` as ``(..., h, n, d/h)``: column block ``j`` becomes head ``j``."""
    shape = a.data.shape
    if a.data.ndim < 2 or h <= 0 or shape[-1] % h:
        raise ShapeError(f"split_heads: {h} heads invalid for shape {shape}")
    split = shape[:-1] + (h, shape[-1] // h)
    out = Tensor(a.data.reshape(split).swapaxes(-2, -3).copy())

    def back(g):
        if a.requires_grad:
            a.accumulate(g.swapaxes(-2, -3).reshape(shape))

    return _bind(out, back, a)


def merge_heads(a: Tensor) -> Tensor:
    """``(..., h, n, d/h)`` as ``(..., n, d)``; the inverse of :func:`split_heads`."""
    shape = a.data.shape
    if a.data.ndim < 3:
        raise ShapeError(f"merge_heads: expected 3-D or more, got shape {shape}")
    h, n, dh = shape[-3:]
    out = Tensor(a.data.swapaxes(-2, -3).copy().reshape(shape[:-3] + (n, h * dh)))

    def back(g):
        if a.requires_grad:
            a.accumulate(np.ascontiguousarray(
                g.reshape(shape[:-3] + (n, h, dh)).swapaxes(-2, -3)))

    return _bind(out, back, a)


def take_row(a: Tensor, i: int) -> Tensor:
    """Row ``i`` of the last two axes, kept as a 1-row matrix (first-position pooling)."""
    if a.data.ndim < 2 or not (0 <= i < a.data.shape[-2]):
        raise ShapeError(f"take_row: row {i} invalid for shape {a.data.shape}")
    out = Tensor(a.data[..., i : i + 1, :].copy())

    def back(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            acc[..., i : i + 1, :] = g
            a.accumulate(acc)

    return _bind(out, back, a)


def pick(a: Tensor, flat_index: int) -> Tensor:
    """One element, flattened row-major, as a scalar tensor."""
    flat = a.data.reshape(-1)
    if not (0 <= flat_index < flat.size):
        raise ShapeError(f"pick: index {flat_index} invalid for shape {a.data.shape}")
    out = Tensor(flat[flat_index : flat_index + 1].copy())

    def back(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            acc.reshape(-1)[flat_index] = g[0]
            a.accumulate(acc)

    return _bind(out, back, a)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.array([a.data.sum()]))

    def back(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, g[0]))

    return _bind(out, back, a)


def check_finite(t: Tensor, where: str) -> Tensor:
    """Raise :class:`NumericError` naming ``where`` if any entry is non-finite."""
    if not np.isfinite(t.data).all():
        raise NumericError(f"non-finite values in {where}")
    return t
