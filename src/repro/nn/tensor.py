"""A small reverse-mode automatic-differentiation engine on NumPy arrays.

The MTL model of the paper is a stack of fully-connected layers whose training
loss mixes supervised terms with differentiable physics terms (power-balance
mismatch, exponential inequality penalties, Lagrangian conservation).  Those
composite losses are much easier to express with a general autograd engine
than with hand-derived backpropagation, so this module provides one:
:class:`Tensor` wraps a NumPy array, records the operations applied to it and
computes gradients with a reverse topological sweep in :meth:`Tensor.backward`.

The operation set is intentionally small but complete for the needs of the
library: broadcast-aware arithmetic, matrix multiplication, reductions,
element-wise nonlinearities (including the trigonometric functions the AC
power-balance loss requires), indexing and concatenation.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[float, int, np.ndarray, "Tensor", Sequence[float]]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op")
    __array_priority__ = 1000  # make NumPy defer to our reflected operators

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _op: str = "",
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=float)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] = lambda: None
        self._parents = _parents
        self.op = _op

    # ------------------------------------------------------------------ misc
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Number of elements."""
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self.op!r})"

    def item(self) -> float:
        """The scalar value of a 0-d / single-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """A tensor sharing the same data but cut out of the autograd graph.

        This is the ``detach()`` operation the paper applies to the auxiliary
        tasks to stop their gradients from reaching the shared layers.
        """
        return Tensor(self.data, requires_grad=False)

    # Pickling drops the autograd graph (backward closures are not picklable
    # and a deserialised tensor is always a leaf).  This keeps trained models
    # transferable to worker processes in the parallel scenario runner.
    def __getstate__(self):
        return {"data": self.data, "grad": self.grad, "requires_grad": self.requires_grad}

    def __setstate__(self, state):
        self.data = state["data"]
        self.grad = state["grad"]
        self.requires_grad = state["requires_grad"]
        self._backward = lambda: None
        self._parents = ()
        self.op = ""

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None

    # ----------------------------------------------------------- graph plumbing
    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=float), self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    def _make(self, data: np.ndarray, parents: Tuple["Tensor", ...], op: str) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _parents=parents, _op=op)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar tensors (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()

        def visit(node: Tensor) -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)
        self._accumulate(np.asarray(grad, dtype=float)) if self.requires_grad else None
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=float)
        for node in reversed(topo):
            if node.grad is not None:
                node._backward()

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data + other.data, (self, other), "add")

        def backward() -> None:
            self._accumulate(out.grad)
            other._accumulate(out.grad)

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,), "neg")

        def backward() -> None:
            self._accumulate(-out.grad)

        out._backward = backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data * other.data, (self, other), "mul")

        def backward() -> None:
            self._accumulate(out.grad * other.data)
            other._accumulate(out.grad * self.data)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data / other.data, (self, other), "div")

        def backward() -> None:
            self._accumulate(out.grad / other.data)
            other._accumulate(-out.grad * self.data / (other.data ** 2))

        out._backward = backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out = self._make(self.data ** exponent, (self,), "pow")

        def backward() -> None:
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._backward = backward
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out = self._make(self.data @ other.data, (self, other), "matmul")

        def backward() -> None:
            grad = out.grad
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # inner product
                self._accumulate(grad * b)
                other._accumulate(grad * a)
            elif a.ndim == 1:  # (k,) @ (k, n)
                self._accumulate(grad @ b.T)
                other._accumulate(np.outer(a, grad))
            elif b.ndim == 1:  # (m, k) @ (k,)
                self._accumulate(np.outer(grad, b))
                other._accumulate(a.T @ grad)
            else:
                self._accumulate(grad @ b.T)
                other._accumulate(a.T @ grad)

        out._backward = backward
        return out

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) @ self

    # -------------------------------------------------------------- reductions
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Sum of elements (optionally along ``axis``)."""
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")

        def backward() -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        out._backward = backward
        return out

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean of elements (optionally along ``axis``)."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # ------------------------------------------------------------ elementwise
    def _unary(self, value: np.ndarray, local_grad: np.ndarray, op: str) -> "Tensor":
        out = self._make(value, (self,), op)

        def backward() -> None:
            self._accumulate(out.grad * local_grad)

        out._backward = backward
        return out

    def exp(self) -> "Tensor":
        """Element-wise exponential."""
        value = np.exp(self.data)
        return self._unary(value, value, "exp")

    def log(self) -> "Tensor":
        """Element-wise natural logarithm."""
        return self._unary(np.log(self.data), 1.0 / self.data, "log")

    def sqrt(self) -> "Tensor":
        """Element-wise square root."""
        value = np.sqrt(self.data)
        return self._unary(value, 0.5 / value, "sqrt")

    def abs(self) -> "Tensor":
        """Element-wise absolute value (subgradient 0 at the kink)."""
        return self._unary(np.abs(self.data), np.sign(self.data), "abs")

    def sin(self) -> "Tensor":
        """Element-wise sine."""
        return self._unary(np.sin(self.data), np.cos(self.data), "sin")

    def cos(self) -> "Tensor":
        """Element-wise cosine."""
        return self._unary(np.cos(self.data), -np.sin(self.data), "cos")

    def tanh(self) -> "Tensor":
        """Element-wise hyperbolic tangent."""
        value = np.tanh(self.data)
        return self._unary(value, 1.0 - value ** 2, "tanh")

    def sigmoid(self) -> "Tensor":
        """Element-wise logistic sigmoid (numerically stabilised)."""
        value = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60))),
            np.exp(np.clip(self.data, -60, 60)) / (1.0 + np.exp(np.clip(self.data, -60, 60))),
        )
        return self._unary(value, value * (1.0 - value), "sigmoid")

    def relu(self) -> "Tensor":
        """Element-wise rectified linear unit."""
        mask = (self.data > 0).astype(float)
        return self._unary(self.data * mask, mask, "relu")

    def clamp_min(self, minimum: float) -> "Tensor":
        """Element-wise lower clipping (gradient passes only where unclipped)."""
        mask = (self.data > minimum).astype(float)
        value = np.maximum(self.data, minimum)
        return self._unary(value, mask, "clamp_min")

    # --------------------------------------------------------------- reshaping
    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view of the tensor."""
        out = self._make(self.data.reshape(*shape), (self,), "reshape")

        def backward() -> None:
            self._accumulate(out.grad.reshape(self.data.shape))

        out._backward = backward
        return out

    @property
    def T(self) -> "Tensor":
        """Matrix transpose."""
        out = self._make(self.data.T, (self,), "transpose")

        def backward() -> None:
            self._accumulate(out.grad.T)

        out._backward = backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,), "getitem")

        def backward() -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        out._backward = backward
        return out


def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing back to each input."""
    tensors = [Tensor._lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(
        data,
        requires_grad=any(t.requires_grad for t in tensors),
        _parents=tuple(tensors),
        _op="concat",
    )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward() -> None:
        grad = out.grad
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis if axis >= 0 else grad.ndim + axis] = slice(start, stop)
            t._accumulate(grad[tuple(index)])

    out._backward = backward
    return out


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convert ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
