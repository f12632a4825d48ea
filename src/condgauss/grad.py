"""Minimal reverse-mode gradient engine over numpy arrays.

A Tape records Tensors in construction order, which is automatically a
topological order; the backward pass walks that list once in reverse,
accumulating cotangents. Trainable leaves are the mean and raw-deviation
arrays of the model's parameter groups; everything else (inputs, noise draws,
masks) enters as plain numpy constants with no gradient.

Primitives are only what the training objectives need: arithmetic, the max
over the class axis with argmax routing, gathers, clamps and reductions.
A formula whose partial derivatives are known in closed form
(the KL term, the bound objectives) enters as a single ``closed_form`` node
rather than as a chain of primitives, and the network builds each sampled
layer (with its relu and dropout mask) and its conditional head as one node
with its own backward.
Accumulation stays in float64 and intermediates are saved rather than
recomputed. Tensors hold their tape weakly, so a training step's tape and
every array on it are freed by reference counting when the step drops its
references, without waiting for the cyclic garbage collector.
"""
from __future__ import annotations

import weakref

import numpy as np

__all__ = ["Tape", "Tensor", "fd_check"]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a cotangent down to the shape it was broadcast from."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node on the tape: a float64 array plus how to push gradients back.

    A Tensor refers to its tape only weakly: the tape owns its nodes, so a
    strong reference back would make a cycle that only the cyclic garbage
    collector could free.
    """

    __slots__ = ("_tape", "value", "parents", "vjp", "grad")

    def __init__(self, tape, value, parents=(), vjp=None):
        self._tape = tape._ref
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        tape._nodes.append(self)

    @property
    def tape(self):
        """The tape this node is recorded on, or None once that tape is gone."""
        return self._tape()

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Ordered record of operations for one forward pass.

    A tape and every array recorded on it are freed by reference counting as
    soon as the last reference to the tape and to its Tensors goes away.
    """

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._ref = weakref.ref(self)

    def leaf(self, value) -> Tensor:
        return Tensor(self, value)

    def backward(self, root: Tensor, seed: float = 1.0) -> None:
        """Accumulate d(root)/d(node) into .grad for every reachable node."""
        if root.tape is not self:
            raise ValueError("root tensor does not belong to this tape")
        if root.value.size != 1:
            raise ValueError(f"backward needs a scalar output, got shape {root.shape}")
        for node in self._nodes:
            node.grad = None
        root.grad = np.full_like(root.value, float(seed))
        for node in reversed(self._nodes):
            if node.grad is None or node.vjp is None:
                continue
            for parent, pgrad in zip(node.parents, node.vjp(node.grad)):
                if pgrad is None:
                    continue
                if parent.grad is None:
                    parent.grad = pgrad
                else:
                    parent.grad = parent.grad + pgrad


def _val(x):
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _tape_of(*args) -> Tape:
    for a in args:
        if isinstance(a, Tensor):
            return a.tape
    raise TypeError("at least one operand must be a Tensor")


def _binary(a, b, out_value, vjp_a, vjp_b) -> Tensor:
    """Build a node for a two-operand op, skipping constant sides."""
    tape = _tape_of(a, b)
    parents = []
    vjps = []
    if isinstance(a, Tensor):
        parents.append(a)
        vjps.append(lambda g: _unbroadcast(vjp_a(g), a.shape))
    if isinstance(b, Tensor):
        parents.append(b)
        vjps.append(lambda g: _unbroadcast(vjp_b(g), b.shape))
    return Tensor(
        tape, out_value, tuple(parents), lambda g: tuple(f(g) for f in vjps)
    )


def add(a, b) -> Tensor:
    va, vb = _val(a), _val(b)
    return _binary(a, b, va + vb, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    va, vb = _val(a), _val(b)
    return _binary(a, b, va - vb, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    va, vb = _val(a), _val(b)
    return _binary(a, b, va * vb, lambda g: g * vb, lambda g: g * va)


def div(a, b) -> Tensor:
    va, vb = _val(a), _val(b)
    out = va / vb
    return _binary(a, b, out, lambda g: g / vb, lambda g: -g * out / vb)


def closed_form(value, parents, partials) -> Tensor:
    """Node whose partial derivatives were computed together with its value.

    ``partials[k]`` is d(value)/d(parents[k]): an array of the parent's shape
    for a scalar node, or the elementwise derivative for an elementwise one.
    The backward pass multiplies each partial by the incoming cotangent.
    """
    return Tensor(
        parents[0].tape, value, tuple(parents), lambda g: tuple(g * p for p in partials)
    )


def log(a: Tensor) -> Tensor:
    va = _val(a)
    return Tensor(a.tape, np.log(va), (a,), lambda g: (g / va,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(_val(a))
    return closed_form(out, (a,), (out,))


def maximum_const(a: Tensor, c: float) -> Tensor:
    va = _val(a)
    return closed_form(np.maximum(va, c), (a,), (va > c,))


def minimum_const(a: Tensor, c: float) -> Tensor:
    va = _val(a)
    return closed_form(np.minimum(va, c), (a,), (va < c,))


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick entry idx[i] from row i of a [B, q] tensor; scatter-add backward."""
    va = _val(a)
    idx = np.asarray(idx)
    rows = np.arange(va.shape[0])

    def vjp(g):
        out = np.zeros_like(va)
        np.add.at(out, (rows, idx), g)
        return (out,)

    return Tensor(a.tape, va[rows, idx], (a,), vjp)


def max_last(a: Tensor) -> Tensor:
    """Max over the last axis; the cotangent routes to the stored argmax.

    np.argmax breaks ties toward the lowest index, which is the convention
    for the (probability-zero) tie case.
    """
    va = _val(a)
    idx = np.argmax(va, axis=-1)

    def vjp(g):
        out = np.zeros_like(va)
        np.put_along_axis(out, idx[..., None], np.asarray(g)[..., None], axis=-1)
        return (out,)

    return Tensor(a.tape, np.take_along_axis(va, idx[..., None], axis=-1)[..., 0], (a,), vjp)


def sum_last(a: Tensor) -> Tensor:
    va = _val(a)
    return Tensor(
        a.tape,
        va.sum(axis=-1),
        (a,),
        lambda g: (np.broadcast_to(np.asarray(g)[..., None], va.shape).copy(),),
    )


def expand_last(a: Tensor) -> Tensor:
    """Append a trailing axis of size 1 (for broadcasting against classes)."""
    va = _val(a)
    return Tensor(a.tape, va[..., None], (a,), lambda g: (np.asarray(g)[..., 0],))


def mean_all(a: Tensor) -> Tensor:
    va = _val(a)
    return Tensor(
        a.tape, va.mean(), (a,), lambda g: (np.full_like(va, float(g) / va.size),)
    )


def sigmoid(a: Tensor) -> Tensor:
    va = _val(a)
    out = 1.0 / (1.0 + np.exp(-va))
    return Tensor(a.tape, out, (a,), lambda g: (g * out * (1.0 - out),))


def fd_check(fn, point, step: float = 1e-5, coords=None) -> float:
    """Worst relative disagreement between analytic and central-difference
    gradients of a deterministic scalar function.

    ``fn`` maps a list of arrays to (value, grads) with grads aligned to the
    input list; it must be deterministic (freeze all noise outside). ``coords``
    optionally restricts the comparison to (array_index, flat_index) pairs,
    otherwise every coordinate is checked.
    """
    point = [np.asarray(p, dtype=np.float64).copy() for p in point]
    _, grads = fn(point)
    if coords is None:
        coords = [(k, i) for k, p in enumerate(point) for i in range(p.size)]
    worst = 0.0
    for k, i in coords:
        flat = point[k].reshape(-1)
        keep = flat[i]
        flat[i] = keep + step
        up, _ = fn(point)
        flat[i] = keep - step
        down, _ = fn(point)
        flat[i] = keep
        fd = (up - down) / (2.0 * step)
        an = float(np.asarray(grads[k]).reshape(-1)[i])
        denom = max(abs(fd), abs(an), 1e-10)
        worst = max(worst, abs(fd - an) / denom)
    return worst
