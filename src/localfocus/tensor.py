"""Dense float64 (and, for scoring, float32) tensors with reverse-mode autodiff.

An op computes its value and hands ``Tensor._wrap`` a vector-Jacobian
product: ``vjp(g)`` maps the output gradient ``g`` to one gradient per
parent, in order, and may return ``None`` only for a parent that needs none.
Every other parent gets a float64 array of its shape (a numpy scalar if
0-d) that no other parent receives, which ``_accumulate`` adopts or adds in.
Only float64 graphs are walked (``backward`` refuses any other): the one
float32 graph, ``LfmModel.score``'s below its float64 head, is never
walked, since ``score`` returns a scalar.
``_wrap`` alone records the graph edge, and only when some parent requires
gradients. ``Tensor.backward`` walks it once from a scalar root in reverse
order of when the nodes were made, releasing each node as it goes; only
leaves (parameters, inputs) keep ``.grad``. A recorded closure holds its
output weakly, so the graph has no reference cycle and one that nobody
walks is freed as soon as its root is dropped. The model's parameters
require gradients, so inference (``LfmModel.score``) records a graph too,
about 15 nodes per call, and frees it when it returns.

The forward ops draw their large arrays from ``buffer``, given a shape
and a dtype (C order) or the array the result mirrors (its dtype, and
numpy's order "K", so a channels-last view gets a channels-last array):
every op draws in its input's dtype. A draw is fresh (``np.empty`` or
``np.empty_like``), except inside ``reuse_buffers()`` (entered by
``LfmModel._forward`` alone), where the i-th draw of a dtype in a block
gets the array the thread's last block drew i-th in that dtype if that
draw asked for the same shape, or mirrored an array of the same shape and
strides (a forward on the last forward's batch shape gets every array
back). The first draw that differs frees the rest of that dtype's kept
arrays; a thread keeps one list per dtype, so a float32 ``score`` and a
float64 training step never free each other's. A block's arrays are kept
when it exits, so none may be read once a later block of the thread
draws in its dtype; gradients are never drawn.

Shape rules are strict: ``+`` and ``-`` take two tensors of identical
shape, ``*`` also a Python scalar; there is no implicit broadcasting.

``_CLAMP`` (1e-12) is the package's one probability clamp: ``sigmoid``'s
output and ``ops.bce_loss_mean``'s input lie in [_CLAMP, 1 - _CLAMP].
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import weakref

import numpy as np

from .errors import ShapeError, StateError

_CLAMP = 1e-12
_stamps = itertools.count()


class _Buffers(threading.local):
    """One thread's (request, array) pairs in draw order, per dtype of the
    draw: ``last`` from the last block that drew in that dtype, and
    ``drawn`` from the open block so far (None outside one)."""

    def __init__(self):
        self.last: dict[np.dtype, list[tuple[tuple, np.ndarray]]] = {}
        self.drawn: dict[np.dtype, list[tuple[tuple, np.ndarray]]] | None = None


_buffers = _Buffers()


@contextlib.contextmanager
def reuse_buffers():
    """Let ``buffer`` reuse this thread's arrays from its previous blocks,
    per dtype of the draw, by the rule the module docstring states.
    Blocks do not nest."""
    _buffers.drawn = {}
    try:
        yield
    finally:
        _buffers.last.update(_buffers.drawn)
        _buffers.drawn = None


def buffer(like: tuple[int, ...] | np.ndarray, dtype=np.float64) -> np.ndarray:
    """An uninitialised array: ``np.empty(like, dtype)`` for a shape, or
    ``np.empty_like(like)`` for an array (whose dtype it takes); reused
    inside ``reuse_buffers`` by draw position within the draw's dtype."""
    if isinstance(like, tuple):
        dtype, request, fresh = np.dtype(dtype), like, lambda: np.empty(like, dtype)
    else:
        dtype, request, fresh = like.dtype, (like.shape, like.strides), lambda: np.empty_like(like)
    if _buffers.drawn is None:
        return fresh()
    drawn, last = _buffers.drawn.setdefault(dtype, []), _buffers.last.setdefault(dtype, [])
    i = len(drawn)
    if i < len(last) and last[i][0] != request:
        last.clear()  # the first differing draw: free the rest now, not at block exit
    a = last[i][1] if i < len(last) else fresh()
    drawn.append((request, a))
    return a


class Tensor:
    """A float64 or float32 ndarray plus gradient bookkeeping.

    Attributes:
        data: the value: a float32 array stays float32 (the scoring
            forward's), anything else becomes float64.
        grad: accumulated gradient, same shape as ``data``; ``None``
            until backward reaches this tensor; op outputs drop it once used.
        requires_grad: whether backward should reach this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_stamp", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _wrap(data: np.ndarray, parents: tuple["Tensor", ...], vjp) -> "Tensor":
        """Build an op output; records the graph edge only when needed.

        The recorded ``_backward`` passes the output gradient through
        ``vjp`` and accumulates each result into its parent, skipping
        parents that do not require gradients. It reads the output through
        a weak reference, so the output and its closure form no cycle.
        A recorded output is stamped after its parents, so stamps order the walk.
        """
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._stamp = next(_stamps)
            out._parents = tuple(p for p in parents if p.requires_grad)
            output = weakref.ref(out)

            def backward():
                for p, g in zip(parents, vjp(output().grad)):
                    if p.requires_grad:
                        p._accumulate(np.asarray(g))  # a 0-d product is a numpy scalar

            out._backward = backward
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        """Adopt ``g`` as ``.grad``, or add it in; ``g`` is this tensor's
        own, by the vjp contract the module docstring states."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    # -- basic protocol ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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

    def backward(self) -> None:
        """Backpropagate from this single-element root (gradient one), then release the graph.

        Recorded nodes run in reverse order of their ``_wrap`` stamps, so a
        node's consumers all run before it. Each node's closure, parent
        links and gradient are dropped right after its closure runs. A
        closure holds the tensor it produced only weakly, so a graph nobody
        walks is freed by reference counting once its root is dropped;
        releasing during the walk also frees what a closure alone kept
        for its backward (a pooling's gather indices, a padded conv's
        padded input) before the walk reaches its inputs. A later walk that
        reaches a released node raises ``StateError`` before any gradient
        moves, as does a root that requires no gradient (no leaf would get one)
        or a graph holding a float32 node (the vjps are float64).
        """
        if not self.requires_grad:
            raise StateError("backward() needs a root that requires a gradient")
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a single-element tensor, got shape {self.shape}")
        recorded, stack = {}, [self]
        while stack:
            node = stack.pop()
            if hasattr(node, "_stamp") and node._stamp not in recorded:
                if node._backward is None:
                    raise StateError("backward() reached a node that an earlier backward() already released")
                if node.data.dtype != np.float64:
                    raise StateError(f"backward() reached a {node.data.dtype} node; only float64 graphs are walked")
                recorded[node._stamp] = node
                stack.extend(node._parents)

        self._accumulate(np.ones_like(self.data))
        for _, node in sorted(recorded.items(), reverse=True):
            node._backward()
            node.grad = node._backward = None
            node._parents = ()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        if other.shape != self.shape:
            raise ShapeError(f"add needs matching shapes, got {self.shape} and {other.shape}")
        return Tensor._wrap(self.data + other.data, (self, other), lambda g: (g, g.copy()))

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ShapeError(f"mul needs matching shapes, got {self.shape} and {other.shape}")
            a, b = self, other
            return Tensor._wrap(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))
        if isinstance(other, (int, float)):
            c = float(other)
            return Tensor._wrap(self.data * c, (self,), lambda g: (g * c,))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        return self + (-other)

    def sum(self) -> "Tensor":
        return Tensor._wrap(np.asarray(self.data.sum()), (self,),
                            lambda g: (np.full_like(self.data, float(g)),))

    # -- elementwise nonlinearities -----------------------------------------

    def sigmoid(self) -> "Tensor":
        """Numerically stable logistic, clamped to [1e-12, 1 - 1e-12].

        The clamp keeps downstream log losses finite for saturated
        inputs; gradients use the clamped value in sig*(1-sig).
        """
        e = np.exp(-np.abs(self.data))  # exp(-x) at x >= 0, exp(x) below: never overflows
        out_data = np.where(self.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        np.clip(out_data, _CLAMP, 1.0 - _CLAMP, out=out_data)
        return Tensor._wrap(out_data, (self,), lambda g: (g * out_data * (1.0 - out_data),))

    def abs(self) -> "Tensor":
        """Elementwise absolute value; subgradient at 0 is 0."""
        return Tensor._wrap(np.abs(self.data, out=buffer(self.data)), (self,),
                            lambda g: (g * np.sign(self.data),))

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0); subgradient at 0 is 0."""
        return Tensor._wrap(np.maximum(self.data, 0.0, out=buffer(self.data)), (self,),
                            lambda g: (g * (self.data > 0.0),))
