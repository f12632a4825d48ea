"""Stochastic fully-connected classifier with a conditionally Gaussian head.

Hidden-layer parameters are sampled pathwise; the last linear layer is never
sampled during conditional training. Given the sampled hidden activations,
the output is exactly Gaussian with moments (M, V) computed in closed form,
and the misclassification probability is estimated by averaging the L1
estimator over repeated output draws. The whole batch computation can be
recorded on a gradient tape so the objective differentiates end to end
through both the sampled hidden parameters and the explicit (M, V)
dependence on the last layer's hyper-parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grad
from .gaussian import (
    VARIANCE_FLOOR,
    GaussianParamGroup,
    dsigma_of_rho,
    l1_draws,
    misclassified,
    sample_gaussian,
    sigma_of_rho,
)
from .rng import RngStream

__all__ = [
    "ModelSpec",
    "StochasticModel",
    "ParamLeaves",
    "batch_error_estimate",
    "exact_misclassification",
    "apply_dropout",
    "sample_full",
    "forward_scores",
    "save_model",
    "load_model",
]

SNAPSHOT_HEADER = "CONDGAUSS-MODEL v1"
# A snapshot's arrays of one layer, in file order. Each names a
# GaussianParamGroup field; a w_ array is [out, in] and a b_ array [out].
_LAYER_ARRAYS = (
    "w_mean",
    "w_rho",
    "b_mean",
    "b_rho",
    "prior_w_mean",
    "prior_w_sigma",
    "prior_b_mean",
    "prior_b_sigma",
)

# Rows per forward in exact_misclassification: bounds a certification draw's
# activations at [h, SCORE_BLOCK] floats. At 784-200-10 and m = 10000 on a
# 2-core Xeon host, a draw took 2% longer than one forward over all rows
# with 2048-row blocks and 5% longer with 1024.
SCORE_BLOCK = 2048


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths (input p, hidden widths, output q) and activation."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError("widths need input, at least one hidden, and output entries")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("widths must be positive")
        if self.layer_widths[-1] < 2:
            raise ValueError("widths must end in an output width q >= 2")
        if self.activation != "relu":
            raise ValueError(f"activation must be relu, got {self.activation!r}")

    @property
    def p(self) -> int:
        return self.layer_widths[0]

    @property
    def q(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1


class StochasticModel:
    """One GaussianParamGroup per layer plus prior bookkeeping.

    The last group parametrizes the output layer, whose parameters are never
    sampled during conditional training. ``prior_fingerprint`` records the
    dataset the prior was trained on (None for a data-free prior) so that
    certification can refuse overlapping data.
    """

    def __init__(self, spec: ModelSpec, groups: list[GaussianParamGroup]):
        if len(groups) != spec.n_layers:
            raise ValueError("one parameter group per layer required")
        for k, g in enumerate(groups):
            if g.in_dim != spec.layer_widths[k] or g.out_dim != spec.layer_widths[k + 1]:
                raise ValueError(f"group {k} shape does not match spec widths")
        self.spec = spec
        self.groups = groups
        self.prior_fingerprint: str | None = None
        self.prior_pair_token: str | None = None

    @classmethod
    def initialize(cls, spec: ModelSpec, sigma0: float, rng: RngStream) -> "StochasticModel":
        """Fresh model: hidden means uniform on +-1/sqrt(fan_in), output-layer
        means zero, every sigma = sigma0.

        Zeroing the output means keeps the initial class margins within a
        conditional standard deviation of each other; a uniformly initialized
        head at small sigma0 starts whole classes many sigmas on the wrong
        side, where the error probability's gradient is numerically dead.
        The prior is frozen at the initial values immediately, so KL(Q||P)
        is well defined from the first step (and zero at start).
        """
        if sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        rho0 = sigma0 ** (2.0 / 3.0)
        groups = []
        for k in range(spec.n_layers):
            fan_in, fan_out = spec.layer_widths[k], spec.layer_widths[k + 1]
            bound = 1.0 / math.sqrt(fan_in)
            layer_rng = rng.child("init", k)
            last = k == spec.n_layers - 1
            groups.append(
                GaussianParamGroup(
                    w_mean=np.zeros((fan_out, fan_in))
                    if last
                    else layer_rng.child("w").uniform(-bound, bound, (fan_out, fan_in)),
                    w_rho=np.full((fan_out, fan_in), rho0),
                    b_mean=np.zeros(fan_out)
                    if last
                    else layer_rng.child("b").uniform(-bound, bound, fan_out),
                    b_rho=np.full(fan_out, rho0),
                )
            )
        model = cls(spec, groups)
        model.freeze_prior()
        return model

    @property
    def hidden_groups(self) -> list[GaussianParamGroup]:
        return self.groups[:-1]

    @property
    def prior_frozen(self) -> bool:
        return all(g.prior_frozen for g in self.groups)

    def n_params(self) -> int:
        return sum(g.n_params() for g in self.groups)

    def sigmas(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer's (w_sigma, b_sigma), derived from its raw deviations."""
        return [(g.w_sigma, g.b_sigma) for g in self.groups]

    def freeze_prior(self, fingerprint: str | None = None, pair_token: str | None = None):
        for g in self.groups:
            g.freeze_prior()
        self.prior_fingerprint = fingerprint
        self.prior_pair_token = pair_token

    def get_state(self) -> list[np.ndarray]:
        state = []
        for g in self.groups:
            state.extend([g.w_mean.copy(), g.w_rho.copy(), g.b_mean.copy(), g.b_rho.copy()])
        return state

    def set_state(self, state: list[np.ndarray]) -> None:
        it = iter(state)
        for g in self.groups:
            g.w_mean = next(it).copy()
            g.w_rho = next(it).copy()
            g.b_mean = next(it).copy()
            g.b_rho = next(it).copy()


def apply_dropout(h: np.ndarray, prob: float, rng: RngStream) -> np.ndarray:
    """Zero units independently with probability prob, rescale survivors.

    Inverted scaling by 1/(1-prob) keeps E[mask * h] = h. Used on activated
    hidden values during prior training only.
    """
    if not 0.0 <= prob < 1.0:
        raise ValueError("dropout prob must be in [0, 1)")
    if prob == 0.0:
        return h
    keep = ~rng.bernoulli_mask(np.shape(h), prob)
    return h * keep / (1.0 - prob)


@dataclass
class ParamLeaves:
    """Tape leaves for one layer's trainable hyper-parameters, plus sigma =
    |rho|^(3/2) and d sigma / d rho of both raw-deviation leaves, computed
    once per tape and shared by sampling, the conditional head and the KL."""

    w_mean: grad.Tensor
    w_rho: grad.Tensor
    b_mean: grad.Tensor
    b_rho: grad.Tensor
    w_sigma: np.ndarray
    w_dsigma: np.ndarray
    b_sigma: np.ndarray
    b_dsigma: np.ndarray

    def grads(self) -> list[np.ndarray]:
        out = []
        for leaf in (self.w_mean, self.w_rho, self.b_mean, self.b_rho):
            out.append(leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value))
        return out


def make_leaves(tape: grad.Tape, model: StochasticModel) -> list[ParamLeaves]:
    return [
        ParamLeaves(
            w_mean=tape.leaf(g.w_mean),
            w_rho=tape.leaf(g.w_rho),
            b_mean=tape.leaf(g.b_mean),
            b_rho=tape.leaf(g.b_rho),
            w_sigma=sigma_of_rho(g.w_rho),
            w_dsigma=dsigma_of_rho(g.w_rho),
            b_sigma=sigma_of_rho(g.b_rho),
            b_dsigma=dsigma_of_rho(g.b_rho),
        )
        for g in model.groups
    ]


def sampled_linear(
    a, lv: ParamLeaves, rng: RngStream, relu: bool = False, mask=None
) -> grad.Tensor:
    """One node for a @ W.T + b under the ``sample_gaussian`` draw of the
    layer from ``rng``; a hidden layer (``relu``) applies the relu and then
    the optional dropout ``mask`` in place on the same array.

    ``a`` is a [..., n] Tensor or constant input. The node's parents are
    the layer's four leaves (and ``a`` if it is a Tensor); the backward pass
    masks the cotangent once, forms the weight and bias cotangents once and
    chains them through the draw: d/dmean = gW and d/drho = gW * zeta * dsigma.
    """
    W, b, zw, zb = sample_gaussian(lv.w_mean.value, lv.w_sigma, lv.b_mean.value, lv.b_sigma, rng)
    parents = (lv.w_mean, lv.w_rho, lv.b_mean, lv.b_rho)
    through_a = isinstance(a, grad.Tensor)
    va = a.value if through_a else a
    if through_a:
        parents += (a,)

    out = va @ W.T
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
        if mask is not None:
            out *= mask

    def vjp(g):
        if relu:
            g = g * (out > 0)
            if mask is not None:
                g *= mask
        g2 = g.reshape(-1, g.shape[-1])
        gW = g2.T @ va.reshape(-1, va.shape[-1])
        gb = g2.sum(axis=0)
        grads = (gW, gW * zw * lv.w_dsigma, gb, gb * zb * lv.b_dsigma)
        return grads + (g @ W,) if through_a else grads

    return grad.Tensor(lv.w_mean.tape, out, parents, vjp)


def hidden_forward_on_tape(tape, leaves, x, rng, spec, dropout_prob):
    """Sample hidden layers pathwise and run the hidden forward on the tape,
    one node per layer.

    Returns the activated, optionally dropout-masked phi(H) tensor.
    """
    a = x
    for k in range(spec.n_layers - 1):
        mask = None
        if dropout_prob > 0.0:
            shape = np.shape(x)[:-1] + (spec.layer_widths[k + 1],)
            mask = apply_dropout(np.ones(shape), dropout_prob, rng.child("dropout", k))
        a = sampled_linear(a, leaves[k], rng.child("theta", k), relu=True, mask=mask)
    return a


def _conditional_l1_node(phi_h: grad.Tensor, last: ParamLeaves, y0, zeta) -> grad.Tensor:
    """The mean L1 estimate over ``zeta``'s [repeats, batch, q] output draws
    as one node over phi(H) and the output layer's leaves.

    Builds the conditional moments M = phi W_mean^T + b_mean and
    V = phi^2 (sigma_W^2)^T + sigma_b^2, floors V at VARIANCE_FLOOR, and
    sums each input's L1 gradient entries over the repeats through the
    sampled argmax class, so no [repeats, batch, q] gradient is formed. The
    backward pass builds the phi cotangent in one [batch, h] buffer, with
    the factor 2 of d(phi^2) moved onto the small [q, h] sigma_W^2.
    """
    phi = phi_h.value
    batch, q = phi.shape[0], zeta.shape[-1]
    M = phi @ last.w_mean.value.T
    M += last.b_mean.value
    phi2, sw2, sb2 = np.square(phi), np.square(last.w_sigma), np.square(last.b_sigma)
    V = phi2 @ sw2.T
    V += sb2
    np.maximum(V, VARIANCE_FLOOR, out=V)
    values, idx, dM, dV = l1_draws(M, V, y0, zeta)
    n = values.size
    # j != y, so each (input, class) bin sums entries of one kind, in repeat
    # order, whatever the layout of idx.
    flat = idx.reshape(-1)
    dM_sum = np.bincount(flat, dM.reshape(-1), batch * q).reshape(batch, q)
    dV_sum = np.bincount(flat, dV.reshape(-1), batch * q).reshape(batch, q)

    def vjp(g):
        gM = g * (dM_sum / n)
        gV = g * (dV_sum / n) * (V > VARIANCE_FLOOR)
        g_sw2 = gV.T @ phi2
        g_phi = gV @ (2.0 * sw2)
        g_phi *= phi
        g_phi += gM @ last.w_mean.value
        return (
            g_phi,
            gM.T @ phi,
            g_sw2 * (2.0 * last.w_sigma) * last.w_dsigma,
            gM.sum(axis=0),
            gV.sum(axis=0) * (2.0 * last.b_sigma) * last.b_dsigma,
        )

    parents = (phi_h, last.w_mean, last.w_rho, last.b_mean, last.b_rho)
    return grad.Tensor(phi_h.tape, values.mean(), parents, vjp)


def batch_error_estimate(
    model: StochasticModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    rng: RngStream,
    repeats: int = 100,
    tape: grad.Tape | None = None,
    leaves: list[ParamLeaves] | None = None,
    dropout_prob: float = 0.0,
) -> grad.Tensor:
    """Conditional Monte-Carlo estimate of the batch misclassification rate,
    as the tape node of its value.

    Samples one set of hidden parameters for the whole batch, computes the
    conditional output moments, then averages the L1 estimator over
    ``repeats`` independent output draws per input. The computation is
    recorded on the tape, one node per sampled hidden layer and one for the
    conditional head, so backward() yields pathwise gradients for every mean
    and raw deviation.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    x = np.asarray(inputs, dtype=np.float64)
    y0 = np.asarray(labels, dtype=np.int64) - 1
    batch = x.shape[0]
    q = model.spec.q
    if np.any(y0 < 0) or np.any(y0 >= q):
        raise ValueError("labels outside 1..q")
    if tape is None:
        tape = grad.Tape()
    if leaves is None:
        leaves = make_leaves(tape, model)

    phi_h = hidden_forward_on_tape(tape, leaves, x, rng, model.spec, dropout_prob)
    # One block of output draws per batch; entry [r, i, :] belongs to
    # repeat r of input i.
    zeta = rng.child("l1").normal((repeats, batch, q))
    return _conditional_l1_node(phi_h, leaves[-1], y0, zeta)


def sample_full(model: StochasticModel, rng: RngStream, sigmas=None) -> list[tuple]:
    """Draw every layer's parameters (including the output layer) as (W, b)
    pairs. ``sigmas`` holds each layer's (w_sigma, b_sigma); a caller that
    draws many times passes ``model.sigmas()`` taken once."""
    if sigmas is None:
        sigmas = model.sigmas()
    return [
        sample_gaussian(g.w_mean, w_sigma, g.b_mean, b_sigma, rng.child("layer", k))[:2]
        for k, (g, (w_sigma, b_sigma)) in enumerate(zip(model.groups, sigmas))
    ]


def forward_scores(x: np.ndarray, theta: list[tuple], spec: ModelSpec) -> np.ndarray:
    """Network outputs [n, q] under a full parameter draw of (W, b) pairs.

    Runs features-major: each layer computes W @ a into a fresh [width, n]
    array and adds the bias (and, before the next layer, the relu) in place,
    so a layer allocates one array and BLAS packs the inputs as its cheaper
    B operand. The result is the [n, q] transposed view of the last array.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != spec.p:
        raise ValueError(f"input width {x.shape[-1]} does not match spec p={spec.p}")
    if len(theta) != spec.n_layers:
        raise ValueError("theta must include a sample of every layer")
    h = x.T
    for k, (W, b) in enumerate(theta):
        if k:
            np.maximum(h, 0.0, out=h)
        h = W @ h
        h += b[:, None]
    return h.T


def exact_misclassification(
    model: StochasticModel, inputs: np.ndarray, labels: np.ndarray, theta: list[tuple]
) -> float:
    """0-1 error rate under a full parameter draw; output ties count as errors.

    Scores the inputs SCORE_BLOCK rows at a time and sums the blocks' error
    counts, so a call holds one [h, SCORE_BLOCK] activation whatever the
    number of inputs. The count over m is the mean of the 0/1 errors bit for
    bit. A ragged last block can change BLAS's summation order, moving its
    scores by a few ulps.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y0 = np.asarray(labels, dtype=np.int64) - 1
    if np.any(y0 < 0) or np.any(y0 >= model.spec.q):
        raise ValueError("labels outside 1..q")
    errors = 0
    for lo in range(0, len(y0), SCORE_BLOCK):
        scores = forward_scores(x[lo : lo + SCORE_BLOCK], theta, model.spec)
        errors += np.count_nonzero(misclassified(scores, y0[lo : lo + SCORE_BLOCK]))
    return errors / len(y0)


def _format_array(arr: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in np.asarray(arr, dtype=np.float64).reshape(-1))


def save_model(model: StochasticModel, path) -> None:
    """Text snapshot: spec line, then per-layer means, raw deviations, and
    frozen prior means/sigmas, all as decimal floats with 17 significant
    digits (lossless for float64)."""
    lines = [SNAPSHOT_HEADER]
    lines.append("widths " + " ".join(str(w) for w in model.spec.layer_widths))
    lines.append(f"activation {model.spec.activation}")
    lines.append("dropout 0")
    lines.append(f"prior_fingerprint {model.prior_fingerprint or 'none'}")
    lines.append(f"prior_pair_token {model.prior_pair_token or 'none'}")
    for k, g in enumerate(model.groups):
        if not g.prior_frozen:
            raise ValueError("snapshot requires a frozen prior")
        lines.append(f"layer {k} {g.out_dim} {g.in_dim}")
        for name in _LAYER_ARRAYS:
            lines.append(name)
            lines.append(_format_array(getattr(g, name)))
    lines.append("end")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> StochasticModel:
    """Read a ``save_model`` snapshot. A truncated or malformed file raises
    ValueError naming the line and the key, array or layer expected there."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise ValueError(f"not a model snapshot: missing '{SNAPSHOT_HEADER}' header")
    pos = 0  # index of the line last read

    def next_line(expected: str) -> str:
        nonlocal pos
        pos += 1
        if pos >= len(lines):
            raise ValueError(f"snapshot truncated: line {pos + 1} should hold {expected}")
        return lines[pos]

    def numbers(text: str, kind, what: str, line: int) -> list:
        try:
            return [kind(v) for v in text.split()]
        except ValueError:
            raise ValueError(f"snapshot line {line}: non-numeric value in {what}") from None

    fields = {}
    for key in ("widths", "activation", "dropout", "prior_fingerprint", "prior_pair_token"):
        name, _, rest = next_line(f"'{key}'").partition(" ")
        if name != key:
            raise ValueError(f"snapshot line {pos + 1}: expected '{key}', got '{name}'")
        fields[key] = rest
    widths = tuple(numbers(fields["widths"], int, "'widths'", 2))
    dropout = numbers(fields["dropout"], float, "'dropout'", 4)
    if len(dropout) != 1:
        raise ValueError(f"snapshot line 4: 'dropout' takes one value, got {len(dropout)}")
    if dropout[0] != 0.0:
        raise ValueError(f"snapshot line 4: 'dropout' must be 0, got {dropout[0]!r}")
    spec = ModelSpec(widths, fields["activation"])

    def parse_block(expect_name: str, shape) -> np.ndarray:
        what = f"array '{expect_name}' of layer {k}"
        if next_line(what) != expect_name:
            raise ValueError(f"snapshot line {pos + 1}: expected {what}")
        text = next_line(f"the values of {what}")
        vals = np.array(numbers(text, float, what, pos + 1))
        if vals.size != int(np.prod(shape)):
            raise ValueError(f"{what} has {vals.size} values, expected {np.prod(shape)}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{what} has non-finite values")
        return vals.reshape(shape)

    groups = []
    for k in range(spec.n_layers):
        out_dim, in_dim = widths[k + 1], widths[k]
        header = f"layer {k} {out_dim} {in_dim}"
        if next_line(f"'{header}'").split() != header.split():
            raise ValueError(f"snapshot line {pos + 1}: expected '{header}'")
        arrays = {}
        for name in _LAYER_ARRAYS:
            weights = name.removeprefix("prior_").startswith("w_")
            arrays[name] = parse_block(name, (out_dim, in_dim) if weights else (out_dim,))
            if name.startswith("prior_"):
                arrays[name].setflags(write=False)
        groups.append(GaussianParamGroup(**arrays))
    if next_line("'end'") != "end":
        raise ValueError(f"snapshot line {pos + 1}: expected 'end'")
    model = StochasticModel(spec, groups)
    model.prior_fingerprint = None if fields["prior_fingerprint"] == "none" else fields["prior_fingerprint"]
    model.prior_pair_token = None if fields["prior_pair_token"] == "none" else fields["prior_pair_token"]
    return model
