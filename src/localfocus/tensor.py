"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable op returns a new ``Tensor`` whose ``_backward``
closure scatters the output gradient to the inputs. ``Tensor.backward``
walks the recorded graph once in reverse topological order. Ops never
build graph state when no input requires gradients, so inference runs
allocation-light.

Shape rules are strict: binary ops demand identical shapes (or a Python
scalar); there is no implicit broadcasting.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

_SIGMOID_CLAMP = 1e-12


class Tensor:
    """A float64 ndarray plus gradient bookkeeping.

    Attributes:
        data: the value, always float64.
        grad: accumulated gradient, same shape as ``data``; ``None``
            until something backpropagates into this tensor.
        requires_grad: whether backward should reach this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _wrap(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn) -> "Tensor":
        """Build an op output; records the graph edge only when needed."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward_fn
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A fresh copy: never a view of another tensor's gradient.
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=np.float64)
        else:
            self.grad += g

    # -- basic protocol ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- autograd engine --------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph, then
        release it.

        ``grad`` defaults to ones and may only be omitted for
        single-element tensors.

        Releasing drops every visited node's backward closure and parent
        links. Each closure captures the tensor it produced, so an
        unreleased graph is a reference cycle pinning its numpy buffers
        until the cycle collector happens to run.
        """
        if not self.requires_grad:
            return
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without an explicit gradient needs a scalar, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ShapeError(f"gradient shape {grad.shape} does not match tensor shape {self.shape}")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
        for node in topo:
            node._backward = None
            node._parents = ()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ShapeError(f"add needs matching shapes, got {self.shape} and {other.shape}")
            out_data = self.data + other.data
            a, b = self, other

            def backward():
                if a.requires_grad:
                    a._accumulate(out.grad)
                if b.requires_grad:
                    b._accumulate(out.grad)

            out = Tensor._wrap(out_data, (a, b), backward)
            return out
        if isinstance(other, (int, float)):
            a = self
            out_data = self.data + float(other)

            def backward():
                a._accumulate(out.grad)

            out = Tensor._wrap(out_data, (a,), backward)
            return out
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ShapeError(f"mul needs matching shapes, got {self.shape} and {other.shape}")
            a, b = self, other
            out_data = a.data * b.data

            def backward():
                if a.requires_grad:
                    a._accumulate(out.grad * b.data)
                if b.requires_grad:
                    b._accumulate(out.grad * a.data)

            out = Tensor._wrap(out_data, (a, b), backward)
            return out
        if isinstance(other, (int, float)):
            a = self
            c = float(other)
            out_data = a.data * c

            def backward():
                a._accumulate(out.grad * c)

            out = Tensor._wrap(out_data, (a,), backward)
            return out
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return self + (-other)
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return NotImplemented

    def __rsub__(self, other) -> "Tensor":
        return (-self) + other

    def sum(self) -> "Tensor":
        a = self
        out_data = np.asarray(a.data.sum())

        def backward():
            a._accumulate(np.full_like(a.data, float(out.grad)))

        out = Tensor._wrap(out_data, (a,), backward)
        return out

    # -- elementwise nonlinearities -----------------------------------------

    def sigmoid(self) -> "Tensor":
        """Numerically stable logistic, clamped to [1e-12, 1 - 1e-12].

        The clamp keeps downstream log losses finite for saturated
        inputs; gradients use the clamped value in sig*(1-sig).
        """
        a = self
        d = a.data
        out_data = np.empty_like(d)
        pos = d >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        ez = np.exp(d[~pos])
        out_data[~pos] = ez / (1.0 + ez)
        np.clip(out_data, _SIGMOID_CLAMP, 1.0 - _SIGMOID_CLAMP, out=out_data)

        def backward():
            a._accumulate(out.grad * out_data * (1.0 - out_data))

        out = Tensor._wrap(out_data, (a,), backward)
        return out

    def abs(self) -> "Tensor":
        """Elementwise absolute value; subgradient at 0 is 0."""
        a = self
        out_data = np.abs(a.data)

        def backward():
            a._accumulate(out.grad * np.sign(a.data))

        out = Tensor._wrap(out_data, (a,), backward)
        return out

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0); subgradient at 0 is 0."""
        a = self
        out_data = np.maximum(a.data, 0.0)

        def backward():
            a._accumulate(out.grad * (a.data > 0.0))

        out = Tensor._wrap(out_data, (a,), backward)
        return out
