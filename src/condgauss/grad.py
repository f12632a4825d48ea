"""Minimal reverse-mode gradient engine over numpy arrays.

A Tape records Tensors in construction order, which is automatically a
topological order; the backward pass walks that list once in reverse,
accumulating cotangents. Trainable leaves are the mean and raw-deviation
arrays of the model's parameter groups; everything else (inputs, noise
draws, masks) enters as plain numpy constants with no gradient.

There is no general op set: ``trainer.batch_gradients`` builds the only
tape, and every node on it is a ``closed_form`` node over partials computed
together with its value: the batch error estimate (or the surrogate loss)
and the KL term, as their functions return them, and the bound objective.
Accumulation stays in float64 and intermediates are saved rather than
recomputed. Tensors hold their tape weakly, so a training step's tape and
every array on it are freed by reference counting when the step drops its
references, without waiting for the cyclic garbage collector.
"""
from __future__ import annotations

import weakref

import numpy as np

__all__ = ["Tape", "Tensor", "closed_form"]


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

    def backward(self, root: Tensor) -> None:
        """Accumulate d(root)/d(node) into .grad for every reachable node."""
        if root.tape is not self:
            raise ValueError("root tensor does not belong to this tape")
        if root.value.size != 1:
            raise ValueError(f"backward needs a scalar output, got shape {root.shape}")
        for node in self._nodes:
            node.grad = None
        root.grad = np.ones_like(root.value)
        for node in reversed(self._nodes):
            if node.grad is None or node.vjp is None:
                continue
            for parent, pgrad in zip(node.parents, node.vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = pgrad
                else:
                    parent.grad = parent.grad + pgrad


def closed_form(value, parents, partials, in_place: bool = False) -> Tensor:
    """Node whose partial derivatives were computed together with its value.

    ``partials[k]`` is d(value)/d(parents[k]): an array of the parent's shape
    for a scalar node, or the elementwise derivative for an elementwise one.
    The backward pass multiplies each partial by the incoming cotangent.
    With ``in_place`` the partials are float64 arrays the node owns: the
    backward pass scales them in place and hands them on, so no copy of a
    parameter-sized partial is made, and the node backpropagates once.
    """
    if in_place:

        def vjp(g):
            for p in partials:
                p *= g
            return partials

    else:

        def vjp(g):
            return tuple(g * p for p in partials)

    return Tensor(parents[0].tape, value, tuple(parents), vjp)
