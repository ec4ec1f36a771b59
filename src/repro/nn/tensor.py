"""Reverse-mode autograd over numpy arrays.

A small tape-based engine that keeps the graph apart from the values.  Each
op records a :class:`_Node`: the tape entries of its *tracked* inputs and
one backward function that maps the op's output gradient to a gradient for
each of them.  A tensor's tape entry is the node of the op that made it, or
the tensor itself if it is a leaf that requires grad; an op whose inputs
are all untracked records nothing.  A backward captures only the arrays its
own formula reads (shapes, masks, the other operand, its output), never a
``Tensor``, so no node refers back to a value: an intermediate whose array
no backward captured is freed as soon as the forward stops referencing it,
and a graph holds only what its backward will read.

:meth:`Tensor.backward` visits the entries depth-first in parent order and
sums each entry's gradient contributions in the reverse of that order.
The order fixes how every tensor's contributions are associated, so it is
part of the engine's output: reordering the walk would move gradients, and
trained weights, at the last bits.  Each node's backward is released once
it has run, so the arrays it captured are freed while the backward pass
goes on, and a graph can be backpropagated only once.  Broadcasting is
handled by summing gradients over broadcast axes (``_unbroadcast``).  Only
float64 arrays are supported — the model is tiny, precision beats speed
here, and float64 makes the finite-difference gradient checks in the test
suite tight.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

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


#: Rows of per-row weight-gradient products formed at once (``_weight_grad``).
_GRAD_ROWS = 64


class _Node:
    """One recorded op: its tracked inputs' tape entries and one backward.

    ``backward(grad)`` yields one gradient per entry of ``parents``, in
    order; an entry appears once per contribution it receives.  Both are
    set to ``None`` once the backward has run.
    """

    __slots__ = ("parents", "backward")

    def __init__(self, parents: Tuple[object, ...], backward: Callable) -> None:
        self.parents = parents
        self.backward = backward


def _parents(entry) -> Tuple[object, ...]:
    if not isinstance(entry, _Node):
        return ()
    if entry.parents is None:
        raise RuntimeError(
            "backward() through a graph an earlier backward() already "
            "freed; run the forward again to backpropagate again"
        )
    return entry.parents


def _postorder(root) -> list:
    """Depth-first postorder over the tape, parents in recorded order.

    An explicit stack of parent iterators, so the walk needs no recursion
    however deep the graph is.
    """
    order: list = []
    visited = {id(root)}
    stack = [(root, iter(_parents(root)))]
    while stack:
        entry, parents = stack[-1]
        for parent in parents:
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(_parents(parent))))
                break
        else:
            stack.pop()
            order.append(entry)
    return order


def _weight_grad(a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``(np.swapaxes(a, -1, -2) @ grad).sum(axis=0)`` for 3-D ``a``, ``grad``.

    The ``(B, in, out)`` per-row products are formed ``_GRAD_ROWS`` rows at
    a time, and each block is summed after the running total, in row
    order: the same sequential axis-0 sum as the whole stack at once.
    """
    total = (np.swapaxes(a[:_GRAD_ROWS], -1, -2) @ grad[:_GRAD_ROWS]).sum(axis=0)
    if a.shape[0] > _GRAD_ROWS:
        block = np.empty((_GRAD_ROWS + 1,) + total.shape)
        for start in range(_GRAD_ROWS, a.shape[0], _GRAD_ROWS):
            stop = min(start + _GRAD_ROWS, a.shape[0])
            rows = block[:stop - start + 1]
            rows[0] = total
            np.matmul(
                np.swapaxes(a[start:stop], -1, -2), grad[start:stop], out=rows[1:]
            )
            total = rows.sum(axis=0)
    return total


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
        order = _postorder(root)
        grads = {id(root): np.asarray(grad, dtype=np.float64)}
        while order:
            entry = order.pop()
            node_grad = grads.pop(id(entry))
            if isinstance(entry, Tensor):
                if entry.requires_grad:
                    entry.grad = (
                        node_grad if entry.grad is None else entry.grad + node_grad
                    )
                continue
            for parent, pgrad in zip(entry.parents, entry.backward(node_grad)):
                key = id(parent)
                grads[key] = pgrad if key not in grads else grads[key] + pgrad
            entry.parents = entry.backward = None

    def twin(self) -> "Tensor":
        """This value on a second tape node with the same parents and backward.

        Gradients reaching ``self`` and its twin are not summed first: each
        node runs the op's backward on its own gradient, as if the op had
        been computed twice, while the forward's arrays are held once.
        """
        if self._node is None:
            return self
        out = Tensor(self.data)
        out._node = _Node(self._node.parents, self._node.backward)
        return out

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
            elif len(sa) == 3 and len(sb) == 2:
                gb = _weight_grad(a, grad)
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

    def layer_norm(self, gamma: "Tensor", beta: "Tensor", epsilon: float) -> "Tensor":
        """``(x - mean) / sqrt(var + epsilon) * gamma + beta`` over the last axis.

        One tape node with the bits of the op-by-op composition (``mean``,
        ``-``, ``*``, ``mean``, ``+``, ``** -0.5``, ``*``, ``*``, ``+``): the
        forward evaluates the same expressions in the same order, and the
        backward replays each op's closure, ``_unbroadcast`` sums included.
        ``x`` receives its centred-path and its mean-path gradient as two
        contributions, as the composition's ``x - mean`` and ``x.sum`` give
        them.  It keeps ``centered``, the reciprocal deviation and
        ``var + epsilon``, and recomputes the normalized value.
        """
        a, sx, sg, sb = self.data, self.shape, gamma.shape, beta.shape
        count = float(sx[-1])
        mean = a.sum(axis=-1, keepdims=True) / count
        sm = mean.shape
        centered = a + -mean
        variance = (centered * centered).sum(axis=-1, keepdims=True) / count
        shifted = variance + epsilon
        scale = shifted ** -0.5
        gamma_data = gamma.data
        out_data = centered * scale * gamma_data + beta.data
        entries = (self._entry(), gamma._entry(), beta._entry())
        need_x, need_gamma, need_beta = (entry is not None for entry in entries)

        def backward(grad):
            if need_beta:
                grad_beta = _unbroadcast(grad, sb)
            if need_gamma:
                grad_gamma = _unbroadcast(grad * (centered * scale), sg)
            if need_x:
                grad_normed = _unbroadcast(grad * gamma_data, centered.shape)
                grad_centered = _unbroadcast(grad_normed * scale, centered.shape)
                grad_scale = _unbroadcast(grad_normed * centered, scale.shape)
                del grad_normed
                grad_shifted = grad_scale * -0.5 * shifted ** -1.5
                grad_square = np.broadcast_to(grad_shifted / count, centered.shape).copy()
                square_term = _unbroadcast(grad_square * centered, centered.shape)
                del grad_square
                grad_centered = grad_centered + square_term + square_term
                del square_term
                yield grad_centered
                grad_mean = -_unbroadcast(grad_centered, sm)
                del grad_centered
                yield np.broadcast_to(grad_mean / count, sx).copy()
            if need_gamma:
                yield grad_gamma
            if need_beta:
                yield grad_beta

        x_entry, gamma_entry, beta_entry = entries
        parents = tuple(
            entry for entry in (x_entry, x_entry, gamma_entry, beta_entry)
            if entry is not None
        )
        out = Tensor(out_data)
        if parents:
            out._node = _Node(parents, backward)
        return out


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
    parents, closures = [], []
    for tensor, backward in edges:
        entry = tensor._entry()
        if entry is not None:
            parents.append(entry)
            closures.append(backward)
    out = Tensor(out_data)
    if parents:
        out._node = _Node(tuple(parents), _each(tuple(closures)))
    return out


def _each(closures: Tuple[Callable, ...]) -> Callable:
    """One backward that runs each edge's closure in turn."""
    return lambda grad: (backward(grad) for backward in closures)
