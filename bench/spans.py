"""Span tracer that instruments condgauss from outside the package.

A span records name, start, end, parent span and thread. Spans are kept in
memory and written out by the caller once the traced run ends. Parents are
tracked per thread, so the children of a span never overlap in time and its
self time (duration minus the time its children cover) is never negative.

Functions are wrapped at every module-level binding that refers to them,
not only where they are defined: ``from .network import sample_full`` in
``certify`` creates a second binding, and that is the one the caller
resolves. Methods are wrapped on their class. ``Tracer.calls`` counts spans
per name, so a run can fail loudly when a wrapped function was never reached.

Two spans are synthesised from boundaries, because neither the trainer nor
the certification pool has a function per training step or per draw:

- ``trainer.step`` opens when ``make_leaves`` is called (the first thing a
  training batch does) and closes at the next step or at the epoch-end
  ``kl_diag_gauss``;
- ``certify.draw`` opens when ``sample_full`` is called and closes when the
  following ``exact_misclassification`` returns, in the same thread.
"""
from __future__ import annotations

import collections
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

STEP = "trainer.step"
DRAW = "certify.draw"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Records spans around condgauss entry points while installed.

    With ``full=False`` only the synthesised step and draw spans are made:
    that is the cheap clock behind the untraced timings.
    """

    def __init__(self, full: bool = True):
        self.full = full
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=stack[-1].id if stack else None,
            thread=threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` and any span still open inside it (left open when
        an exception unwound through a synthesised step or draw)."""
        now = time.perf_counter()
        stack = self._stack()
        if span not in stack:
            raise RuntimeError(f"span {span.name} is not open in this thread")
        while True:
            top = stack.pop()
            top.end = now
            if top is span:
                return

    def calls(self) -> collections.Counter:
        return collections.Counter(s.name for s in self.spans)

    def close_open(self, name: str) -> None:
        """Close the innermost open span if it is named ``name``."""
        stack = self._stack()
        if stack and stack[-1].name == name:
            self.end(stack[-1])

    def wrap(self, fn, name: str, before=None, after=None):
        """``before(args, kwargs)`` may return attributes for the span;
        ``after(args, kwargs, out, span)`` runs once the span is closed."""
        traced = self.full

        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else None
            span = self.begin(name) if traced else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if span is not None:
                    self.end(span)
            if attrs and span is not None:
                span.attrs.update(attrs)
            if after is not None:
                after(args, kwargs, out, span)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, fn, name: str, **hooks) -> None:
        """Replace every module-level binding of ``fn`` inside condgauss."""
        wrapper = self.wrap(fn, name, **hooks)
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "condgauss":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no binding of {name} found in condgauss")

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **hooks))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        stack = self._stack()
        if stack:
            raise RuntimeError(f"span {stack[-1].name} still open when tracing stopped")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def instrument(self, cg) -> "Tracer":
        """Wrap the public entry points of each condgauss module.

        ``cg`` is the imported ``condgauss`` package, which imports every
        submodule, so all bindings exist by now.
        """

        def open_step(args, kwargs):
            self.close_open(STEP)
            self.begin(STEP)

        def close_step(args, kwargs):
            self.close_open(STEP)

        def open_draw(args, kwargs):
            self.begin(DRAW)

        def close_draw(args, kwargs, out, span):
            self.close_open(DRAW)

        self.patch_function(cg.network.make_leaves, "network.make_leaves", before=open_step)
        self.patch_function(cg.gaussian.kl_diag_gauss, "gaussian.kl_diag_gauss", before=close_step)
        self.patch_function(cg.network.sample_full, "network.sample_full", before=open_draw)
        self.patch_function(
            cg.network.exact_misclassification, "network.exact_misclassification", after=close_draw
        )
        if not self.full:
            return self

        def tape_size(args, kwargs):
            nodes = args[0]._nodes
            return {"nodes": len(nodes), "bytes": sum(n.value.nbytes for n in nodes)}

        def count_values(args, kwargs, out, span):
            span.attrs["values"] = int(out.size)

        estimate_sig = inspect.signature(cg.network.batch_error_estimate)

        def l1_entries(args, kwargs):
            bound = estimate_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            return {"l1_entries": a["repeats"] * len(a["inputs"]) * a["model"].spec.q}

        self.patch_method(cg.rng.RngStream, "normal", "rng.normal", after=count_values)
        self.patch_method(cg.grad.Tape, "backward", "grad.backward", before=tape_size)
        self.patch_function(
            cg.network.batch_error_estimate, "network.batch_error_estimate", before=l1_entries
        )
        for mod, fname in (
            (cg.network, "hidden_forward_on_tape"),
            (cg.network, "forward_scores"),
            (cg.trainer, "train_condgauss"),
            (cg.trainer, "momentum_step"),
            (cg.bounds, "kl_inv"),
            (cg.certify, "final_certificate"),
            (cg.certify, "mc_empirical_error"),
            (cg.data, "synth_blobs"),
        ):
            self.patch_function(getattr(mod, fname), f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}")
        return self


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def nearest_ancestor(spans: list[Span], names: tuple[str, ...]) -> dict[int, Span | None]:
    """Span id -> its nearest ancestor whose name is in ``names``, or None."""
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        out[s.id] = by_id[p] if p is not None else None
    return out
