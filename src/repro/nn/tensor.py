"""Reverse-mode autograd over numpy arrays.

A small tape-based engine that keeps the graph apart from the values.  Each
op records a :class:`_Node` whose ``edges`` pair every *tracked* input's
tape entry with a backward closure mapping the op's output gradient to that
input's.  A tensor's tape entry is the node of the op that made it, or the
tensor itself if it is a leaf that requires grad; an op whose inputs are
all untracked records nothing.  A closure captures only the arrays its own
formula reads (shapes, masks, the other operand, its output), never a
``Tensor``, so no node refers back to a value: an intermediate whose array
no closure captured is freed as soon as the forward stops referencing it,
and a graph holds only what its backward will read.

:meth:`Tensor.backward` visits the entries depth-first in parent order and
sums each entry's gradient contributions in the reverse of that order.
The order fixes how every tensor's contributions are associated, so it is
part of the engine's output: reordering the walk would move gradients, and
trained weights, at the last bits.  Broadcasting is handled by summing
gradients over broadcast axes (``_unbroadcast``).  Only float64 arrays are
supported — the model is tiny, precision beats speed here, and float64
makes the finite-difference gradient checks in the test suite tight.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[float, int, list, tuple, np.ndarray, "Tensor"]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum leading dims added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum size-1 dims that were expanded.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """One recorded op: ``(parent entry, backward closure)`` per tracked input."""

    __slots__ = ("edges",)

    def __init__(self, edges: Tuple[Tuple[object, Callable], ...]) -> None:
        self.edges = edges


def _visit(entry, order: list, visited: set) -> None:
    """Depth-first postorder over the tape, parents in recorded order.

    A module function on purpose: a recursive closure would be a reference
    cycle holding ``order``, so every graph would wait for the cyclic GC.
    """
    if id(entry) in visited:
        return
    visited.add(id(entry))
    if isinstance(entry, _Node):
        for parent, _ in entry.edges:
            _visit(parent, order, visited)
    order.append(entry)


class Tensor:
    """An autograd-tracked numpy array.

    Attributes:
        data: Underlying float64 ndarray.
        grad: Accumulated gradient (same shape), or ``None`` before backward.
        requires_grad: Whether this tensor participates in autograd.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._node: Optional[_Node] = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        grad_flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, name={self.name!r})"

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _entry(self):
        """Tape entry: the op's node, this leaf if it requires grad, or None."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor; scalar outputs default grad=1."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    f"backward() without grad on non-scalar tensor {self.shape}"
                )
            grad = np.ones_like(self.data)
        root = self._entry()
        if root is None:
            return
        order: List[object] = []
        _visit(root, order, set())
        grads = {id(root): np.asarray(grad, dtype=np.float64)}
        for entry in reversed(order):
            node_grad = grads.pop(id(entry), None)
            if node_grad is None:
                continue
            if isinstance(entry, Tensor):
                if entry.requires_grad:
                    entry.grad = (
                        node_grad if entry.grad is None else entry.grad + node_grad
                    )
                continue
            for parent, grad_fn in entry.edges:
                pgrad = grad_fn(node_grad)
                key = id(parent)
                grads[key] = pgrad if key not in grads else grads[key] + pgrad

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        sa, sb = self.shape, other.shape
        return _record(
            self.data + other.data,
            (self, lambda grad: _unbroadcast(grad, sa)),
            (other, lambda grad: _unbroadcast(grad, sb)),
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _record(-self.data, (self, lambda grad: -grad))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data
        sa, sb = a.shape, b.shape
        return _record(
            a * b,
            (self, lambda grad: _unbroadcast(grad * b, sa)),
            (other, lambda grad: _unbroadcast(grad * a, sb)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data
        sa, sb = a.shape, b.shape
        return _record(
            a / b,
            (self, lambda grad: _unbroadcast(grad / b, sa)),
            (other, lambda grad: _unbroadcast(-grad * a / b ** 2, sb)),
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        a = self.data
        return _record(
            a ** exponent,
            (self, lambda grad: grad * exponent * a ** (exponent - 1)),
        )

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data
        sa, sb = a.shape, b.shape

        def grad_a(grad):
            if len(sa) == 1 and len(sb) == 1:
                ga = grad * b
            elif len(sb) == 1:
                ga = np.expand_dims(grad, -1) @ np.expand_dims(b, 0)
            else:
                ga = grad @ np.swapaxes(b, -1, -2)
            return _unbroadcast(np.asarray(ga), sa)

        def grad_b(grad):
            if len(sa) == 1 and len(sb) == 1:
                gb = grad * a
            elif len(sa) == 1:
                gb = np.outer(a, grad) if len(sb) == 2 else a[:, None] * grad[..., None, :]
            else:
                gb = np.swapaxes(a, -1, -2) @ grad
                if len(sb) == 1 and gb.ndim > 1:
                    gb = gb.reshape(sb + (-1,)).sum(axis=-1) if gb.shape != sb else gb
            return _unbroadcast(np.asarray(gb), sb)

        return _record(a @ b, (self, grad_a), (other, grad_b))

    # ------------------------------------------------------------------
    # Reductions & elementwise
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape).copy()

        return _record(self.data.sum(axis=axis, keepdims=keepdims), (self, backward))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return _record(out_data, (self, lambda grad: grad * out_data))

    def log(self) -> "Tensor":
        a = self.data
        return _record(np.log(a), (self, lambda grad: grad / a))

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return _record(out_data, (self, lambda grad: grad * (1.0 - out_data ** 2)))

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return _record(
            out_data, (self, lambda grad: grad * out_data * (1.0 - out_data))
        )

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return _record(self.data * mask, (self, lambda grad: grad * mask))

    def clip_min(self, floor: float) -> "Tensor":
        """max(self, floor) — used for hinge losses."""
        mask = self.data > floor
        return _record(
            np.where(mask, self.data, floor), (self, lambda grad: grad * mask)
        )

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        own = self.shape
        return _record(self.data.reshape(shape), (self, lambda grad: grad.reshape(own)))

    def transpose(self, axis_a: int = -1, axis_b: int = -2) -> "Tensor":
        return _record(
            np.swapaxes(self.data, axis_a, axis_b),
            (self, lambda grad: np.swapaxes(grad, axis_a, axis_b)),
        )

    def __getitem__(self, key) -> "Tensor":
        return _record(self.data[key], (self, _scatter_add(self.data, key)))

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup): returns ``self[indices]``."""
        indices = np.asarray(indices, dtype=np.int64)
        return _record(self.data[indices], (self, _scatter_add(self.data, indices)))

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        arrays = [t.data for t in tensors]
        out_data = np.concatenate(arrays, axis=axis)
        sizes = [a.shape[axis] for a in arrays]
        offsets = np.cumsum([0] + sizes)

        def piece(start, stop):
            def backward(grad):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                return grad[tuple(slicer)]

            return backward

        return _record(
            out_data,
            *((t, piece(start, stop))
              for t, start, stop in zip(tensors, offsets[:-1], offsets[1:])),
        )

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        out_data = np.stack([t.data for t in tensors], axis=axis)
        count = len(tensors)

        def piece(index):
            return lambda grad: np.squeeze(
                np.split(grad, count, axis=axis)[index], axis=axis
            )

        return _record(out_data, *((t, piece(i)) for i, t in enumerate(tensors)))

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace positions where ``mask`` is True with ``value``."""
        mask = np.asarray(mask, dtype=bool)
        return _record(
            np.where(mask, value, self.data),
            (self, lambda grad: np.where(mask, 0.0, grad)),
        )

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad):
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            return out_data * (grad - dot)

        return _record(out_data, (self, backward))

    def log_sigmoid(self) -> "Tensor":
        """Numerically-stable log(sigmoid(x))."""
        x = self.data
        out_data = np.where(x >= 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(x)))
        sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        return _record(out_data, (self, lambda grad: grad * (1.0 - sig)))


def _scatter_add(source: np.ndarray, key) -> Callable[[np.ndarray], np.ndarray]:
    """Backward of ``source[key]``: the gradient added into zeros like ``source``.

    Captures ``source`` itself, not just its shape: ``zeros_like`` keeps its
    memory layout, on which the summation order of later reductions depends.
    """

    def backward(grad):
        full = np.zeros_like(source)
        np.add.at(full, key, grad)
        return full

    return backward


def _record(out_data: np.ndarray, *edges: Tuple[Tensor, Callable]) -> Tensor:
    """Wrap an op's result, recording a node over its tracked inputs.

    ``edges`` pairs each input with its backward closure; an untracked
    input is dropped together with its closure (and whatever it captured),
    and an op left with no tracked input records nothing.
    """
    kept = []
    for tensor, backward in edges:
        entry = tensor._entry()
        if entry is not None:
            kept.append((entry, backward))
    out = Tensor(out_data)
    if kept:
        out._node = _Node(tuple(kept))
    return out
