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
    SampledLayer,
    l1_draws,
    misclassified,
    sample_gaussian,
)
from .rng import RngStream

__all__ = [
    "ModelSpec",
    "StochasticModel",
    "ParamLeaves",
    "forward_hidden",
    "batch_error_estimate",
    "exact_misclassification",
    "apply_dropout",
    "sample_full",
    "forward_scores",
    "save_model",
    "load_model",
]

SNAPSHOT_HEADER = "CONDGAUSS-MODEL v1"


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths (input p, hidden widths, output q) and activation."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    dropout_prob: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError("need at least input, one hidden, and output widths")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if self.layer_widths[-1] < 2:
            raise ValueError("output width q must be at least 2")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation: {self.activation}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")

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


def forward_hidden(x: np.ndarray, theta_hidden: list[SampledLayer], spec: ModelSpec) -> np.ndarray:
    """Deterministic hidden forward pass under sampled hidden parameters.

    Applies affine + relu per hidden layer but returns the last hidden
    layer's PRE-activation values H; the activation of H happens inside the
    conditional-moments computation.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != spec.p:
        raise ValueError(f"input width {x.shape[-1]} does not match spec p={spec.p}")
    if len(theta_hidden) != spec.n_layers - 1:
        raise ValueError("need one sampled layer per hidden layer")
    a = x
    for k, theta in enumerate(theta_hidden):
        pre = a @ theta.W.T + theta.b
        if k == len(theta_hidden) - 1:
            return pre
        a = np.maximum(pre, 0.0)
    raise AssertionError("unreachable")


@dataclass
class ParamLeaves:
    """Tape leaves for one layer's trainable hyper-parameters."""

    w_mean: grad.Tensor
    w_rho: grad.Tensor
    b_mean: grad.Tensor
    b_rho: grad.Tensor

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
        )
        for g in model.groups
    ]


@dataclass
class EstimateResult:
    """A batch error estimate plus its tape context."""

    value: float
    node: grad.Tensor
    tape: grad.Tape
    leaves: list[ParamLeaves]


def sample_layer_on_tape(lv: ParamLeaves, rng: RngStream):
    """Pathwise draw (W, b) = mean + sigma(rho) * zeta of one layer on the
    tape, with zeta from rng's "w" and "b" children."""
    zw = rng.child("w").normal(lv.w_mean.shape)
    zb = rng.child("b").normal(lv.b_mean.shape)
    W = grad.add(lv.w_mean, grad.mul(grad.sigma_rho(lv.w_rho), zw))
    b = grad.add(lv.b_mean, grad.mul(grad.sigma_rho(lv.b_rho), zb))
    return W, b


def hidden_forward_on_tape(tape, leaves, x, rng, spec, dropout_prob):
    """Sample hidden layers pathwise and run the hidden forward on the tape.

    Returns the activated, optionally dropout-masked phi(H) tensor.
    """
    a = x
    for k in range(spec.n_layers - 1):
        pre = grad.linear(a, *sample_layer_on_tape(leaves[k], rng.child("theta", k)))
        a = grad.relu(pre)
        if dropout_prob > 0.0:
            mask = apply_dropout(np.ones(a.shape), dropout_prob, rng.child("dropout", k))
            a = grad.mul(a, mask)
    return a


def batch_error_estimate(
    model: StochasticModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    rng: RngStream,
    repeats: int = 100,
    tape: grad.Tape | None = None,
    leaves: list[ParamLeaves] | None = None,
    dropout_prob: float = 0.0,
) -> EstimateResult:
    """Conditional Monte-Carlo estimate of the batch misclassification rate.

    Samples one set of hidden parameters for the whole batch, computes the
    conditional output moments, then averages the L1 estimator over
    ``repeats`` independent output draws per input. The computation is
    recorded on the tape, the averaged estimator as one closed-form node over
    (M, V), so backward() yields pathwise gradients for every mean and raw
    deviation.
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

    last = leaves[-1]
    M = grad.linear(phi_h, last.w_mean, last.b_mean)
    sig_w = grad.sigma_rho(last.w_rho)
    sig_b = grad.sigma_rho(last.b_rho)
    V = grad.linear(grad.square(phi_h), grad.square(sig_w), grad.square(sig_b))
    Vc = grad.maximum_const(V, VARIANCE_FLOOR)

    # One block of output draws per batch; entry [r, i, :] belongs to
    # repeat r of input i.
    zeta = rng.child("l1").normal((repeats, batch, q))
    values, dM, dV = l1_draws(M.value, Vc.value, y0, zeta)
    n = values.size
    est = grad.closed_form(values.mean(), (M, Vc), (dM.sum(axis=0) / n, dV.sum(axis=0) / n))
    return EstimateResult(value=float(est.value), node=est, tape=tape, leaves=leaves)


def sample_full(model: StochasticModel, rng: RngStream) -> list[SampledLayer]:
    """Draw every layer's parameters (including the output layer)."""
    return [sample_gaussian(g, rng.child("layer", k)) for k, g in enumerate(model.groups)]


def forward_scores(x: np.ndarray, theta: list[SampledLayer], spec: ModelSpec) -> np.ndarray:
    """Network outputs under a full parameter draw."""
    H = forward_hidden(x, theta[:-1], spec)
    last = theta[-1]
    return np.maximum(H, 0.0) @ last.W.T + last.b


def exact_misclassification(
    model: StochasticModel, inputs: np.ndarray, labels: np.ndarray, theta: list[SampledLayer]
) -> float:
    """0-1 error rate under a full parameter draw; output ties count as errors."""
    if len(theta) != model.spec.n_layers:
        raise ValueError("theta must include a sample of every layer")
    scores = forward_scores(np.asarray(inputs, dtype=np.float64), theta, model.spec)
    return float(np.mean(misclassified(scores, np.asarray(labels, dtype=np.int64) - 1)))


def _format_array(arr: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in np.asarray(arr, dtype=np.float64).reshape(-1))


def save_model(model: StochasticModel, path) -> None:
    """Text snapshot: spec line, then per-layer means, raw deviations, and
    frozen prior means/sigmas, all as decimal floats with 17 significant
    digits (lossless for float64)."""
    lines = [SNAPSHOT_HEADER]
    lines.append("widths " + " ".join(str(w) for w in model.spec.layer_widths))
    lines.append(f"activation {model.spec.activation}")
    lines.append(f"dropout {model.spec.dropout_prob:.17g}")
    lines.append(f"prior_fingerprint {model.prior_fingerprint or 'none'}")
    lines.append(f"prior_pair_token {model.prior_pair_token or 'none'}")
    for k, g in enumerate(model.groups):
        if not g.prior_frozen:
            raise ValueError("snapshot requires a frozen prior")
        lines.append(f"layer {k} {g.out_dim} {g.in_dim}")
        for name, arr in (
            ("w_mean", g.w_mean),
            ("w_rho", g.w_rho),
            ("b_mean", g.b_mean),
            ("b_rho", g.b_rho),
            ("prior_w_mean", g.prior_w_mean),
            ("prior_w_sigma", g.prior_w_sigma),
            ("prior_b_mean", g.prior_b_mean),
            ("prior_b_sigma", g.prior_b_sigma),
        ):
            lines.append(name)
            lines.append(_format_array(arr))
    lines.append("end")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> StochasticModel:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise ValueError(f"not a model snapshot: missing '{SNAPSHOT_HEADER}' header")
    fields = {}
    pos = 1
    for key in ("widths", "activation", "dropout", "prior_fingerprint", "prior_pair_token"):
        name, _, rest = lines[pos].partition(" ")
        if name != key:
            raise ValueError(f"snapshot line {pos + 1}: expected '{key}', got '{name}'")
        fields[key] = rest
        pos += 1
    widths = tuple(int(w) for w in fields["widths"].split())
    spec = ModelSpec(widths, fields["activation"], float(fields["dropout"]))

    def parse_block(expect_name: str, shape) -> np.ndarray:
        nonlocal pos
        if lines[pos] != expect_name:
            raise ValueError(f"snapshot line {pos + 1}: expected '{expect_name}'")
        pos += 1
        vals = np.array([float(v) for v in lines[pos].split()])
        pos += 1
        if vals.size != int(np.prod(shape)):
            raise ValueError(f"array '{expect_name}' has {vals.size} values, expected {np.prod(shape)}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"array '{expect_name}' of layer {k} has non-finite values")
        return vals.reshape(shape)

    groups = []
    for k in range(spec.n_layers):
        parts = lines[pos].split()
        if parts[:2] != ["layer", str(k)]:
            raise ValueError(f"snapshot line {pos + 1}: expected 'layer {k}'")
        out_dim, in_dim = int(parts[2]), int(parts[3])
        pos += 1
        g = GaussianParamGroup(
            w_mean=parse_block("w_mean", (out_dim, in_dim)),
            w_rho=parse_block("w_rho", (out_dim, in_dim)),
            b_mean=parse_block("b_mean", (out_dim,)),
            b_rho=parse_block("b_rho", (out_dim,)),
        )
        g.prior_w_mean = parse_block("prior_w_mean", (out_dim, in_dim))
        g.prior_w_sigma = parse_block("prior_w_sigma", (out_dim, in_dim))
        g.prior_b_mean = parse_block("prior_b_mean", (out_dim,))
        g.prior_b_sigma = parse_block("prior_b_sigma", (out_dim,))
        for arr in (g.prior_w_mean, g.prior_w_sigma, g.prior_b_mean, g.prior_b_sigma):
            arr.setflags(write=False)
        groups.append(g)
    if lines[pos] != "end":
        raise ValueError("snapshot missing 'end' marker")
    model = StochasticModel(spec, groups)
    model.prior_fingerprint = None if fields["prior_fingerprint"] == "none" else fields["prior_fingerprint"]
    model.prior_pair_token = None if fields["prior_pair_token"] == "none" else fields["prior_pair_token"]
    return model
