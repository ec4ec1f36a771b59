"""Reverse-mode autograd over numpy arrays.

A small tape-based engine: every operation records its parents and a local
backward closure; :meth:`Tensor.backward` topologically sorts the tape and
accumulates gradients.  Broadcasting is handled by summing gradients over
broadcast axes (``_unbroadcast``).  Only float64 arrays are supported — the
model is tiny, precision beats speed here, and float64 makes the
finite-difference gradient checks in the test suite tight.
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


class Tensor:
    """An autograd-tracked numpy array.

    Attributes:
        data: Underlying float64 ndarray.
        grad: Accumulated gradient (same shape), or ``None`` before backward.
        requires_grad: Whether this tensor participates in autograd.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(_parents)
        self._backward = _backward
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
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor; scalar outputs default grad=1."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    f"backward() without grad on non-scalar tensor {self.shape}"
                )
            grad = np.ones_like(self.data)
        order: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)
        grads = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node.grad = node_grad if node.grad is None else node.grad + node_grad
            if node._backward is None:
                continue
            for parent, pgrad in node._backward(node_grad):
                if not (parent.requires_grad or parent._parents):
                    continue
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
        out_data = self.data + other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad, self.shape)),
                (other, _unbroadcast(grad, other.shape)),
            )

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return ((self, -grad),)

        return Tensor(-self.data, _parents=(self,), _backward=backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad * other.data, self.shape)),
                (other, _unbroadcast(grad * self.data, other.shape)),
            )

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad / other.data, self.shape)),
                (other, _unbroadcast(-grad * self.data / other.data ** 2, other.shape)),
            )

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad):
            return ((self, grad * exponent * self.data ** (exponent - 1)),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                ga, gb = grad * b, grad * a
            elif a.ndim == 1:
                ga = grad @ np.swapaxes(b, -1, -2)
                gb = np.outer(a, grad) if b.ndim == 2 else a[:, None] * grad[..., None, :]
            elif b.ndim == 1:
                ga = np.expand_dims(grad, -1) @ np.expand_dims(b, 0)
                gb = np.swapaxes(a, -1, -2) @ grad
                if gb.ndim > 1:
                    gb = gb.reshape(b.shape + (-1,)).sum(axis=-1) if gb.shape != b.shape else gb
            else:
                ga = grad @ np.swapaxes(b, -1, -2)
                gb = np.swapaxes(a, -1, -2) @ grad
            return (
                (self, _unbroadcast(np.asarray(ga), self.shape)),
                (other, _unbroadcast(np.asarray(gb), other.shape)),
            )

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    # ------------------------------------------------------------------
    # Reductions & elementwise
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((self, np.broadcast_to(g, self.shape).copy()),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            return ((self, grad * out_data),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            return ((self, grad / self.data),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            return ((self, grad * (1.0 - out_data ** 2)),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad):
            return ((self, grad * out_data * (1.0 - out_data)),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            return ((self, grad * mask),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def clip_min(self, floor: float) -> "Tensor":
        """max(self, floor) — used for hinge losses."""
        mask = self.data > floor
        out_data = np.where(mask, self.data, floor)

        def backward(grad):
            return ((self, grad * mask),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(shape)

        def backward(grad):
            return ((self, grad.reshape(self.shape)),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def transpose(self, axis_a: int = -1, axis_b: int = -2) -> "Tensor":
        out_data = np.swapaxes(self.data, axis_a, axis_b)

        def backward(grad):
            return ((self, np.swapaxes(grad, axis_a, axis_b)),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            return ((self, full),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup): returns ``self[indices]``."""
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, indices, grad)
            return ((self, full),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        arrays = [t.data for t in tensors]
        out_data = np.concatenate(arrays, axis=axis)
        sizes = [a.shape[axis] for a in arrays]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            outs = []
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                outs.append((tensor, grad[tuple(slicer)]))
            return tuple(outs)

        return Tensor(out_data, _parents=tuple(tensors), _backward=backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        arrays = [t.data for t in tensors]
        out_data = np.stack(arrays, axis=axis)

        def backward(grad):
            pieces = np.split(grad, len(tensors), axis=axis)
            return tuple(
                (tensor, np.squeeze(piece, axis=axis))
                for tensor, piece in zip(tensors, pieces)
            )

        return Tensor(out_data, _parents=tuple(tensors), _backward=backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace positions where ``mask`` is True with ``value``."""
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, value, self.data)

        def backward(grad):
            return ((self, np.where(mask, 0.0, grad)),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad):
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            return ((self, out_data * (grad - dot)),)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def log_sigmoid(self) -> "Tensor":
        """Numerically-stable log(sigmoid(x))."""
        x = self.data
        out_data = np.where(x >= 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(x)))
        sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

        def backward(grad):
            return ((self, grad * (1.0 - sig)),)

        return Tensor(out_data, _parents=(self,), _backward=backward)
