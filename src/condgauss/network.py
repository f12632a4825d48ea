"""Stochastic fully-connected classifier with a conditionally Gaussian head.

Hidden-layer parameters are sampled pathwise; the last linear layer is never
sampled during conditional training. Given the sampled hidden activations,
the output is exactly Gaussian with moments (M, V) computed in closed form,
and the misclassification probability is estimated by averaging the L1
estimator over repeated output draws. The batch estimate is one node on a
gradient tape, with its partials in every mean and raw deviation: through
the sampled hidden parameters and through the explicit (M, V) dependence on
the last layer's hyper-parameters. It is built TRAIN_BLOCK rows at a time,
each block's backward run right after its forward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grad
from .gaussian import (
    TRAINABLE,
    VARIANCE_FLOOR,
    GaussianParamGroup,
    conditional_moments,
    dsigma_of_rho,
    l1_draws,
    misclassified,
    sample_gaussian,
)
from .rng import RngStream

__all__ = [
    "ModelSpec",
    "StochasticModel",
    "ParamLeaves",
    "check_fits",
    "batch_error_estimate",
    "exact_misclassification",
    "apply_dropout",
    "sample_full",
    "forward_scores",
    "ScoreScreen",
    "save_model",
    "load_model",
]

SNAPSHOT_HEADER = "CONDGAUSS-MODEL v1"
# A snapshot's arrays of one layer, in file order. Each names a
# GaussianParamGroup field; a w_ array is [out, in] and a b_ array [out].
_LAYER_ARRAYS = TRAINABLE + (
    "prior_w_mean",
    "prior_w_sigma",
    "prior_b_mean",
    "prior_b_sigma",
)

# Rows per block of exact_misclassification at most: bounds a certification
# draw's activations at [h, SCORE_BLOCK] floats. At 784-200-10 and m = 10000
# on a 2-core Xeon host, a float64 draw took 2% longer than one forward over
# all rows with 2048-row blocks and 5% longer with 1024.
SCORE_BLOCK = 2048

# Bytes of the float32 copy of one row block at most: one core's L2 on that
# host, 656 rows at p = 784.
SCREEN_BYTES = 2**21

# The float32 screen's error model. ``_UNIT`` is the unit roundoff of a
# float32 forward plus that of the float64 forward it stands in for, so one
# bound covers the distance of both from the exact scores (gamma_n is
# superadditive in u). ``_TINY`` is the absolute error of one operation or
# cast whose result underflows, or is flushed to zero. Every float32 value
# of a screened row stays below ``_SAFE``, far from overflow.
# ``_INFLATE`` covers the float64 rounding of the bound itself while the
# fan-ins sum to less than 2**22.
_UNIT = 2.0**-24 + 2.0**-53
_TINY = 2.0**-125
_SAFE = 2.0**120
_INFLATE = 1.0 + 2.0**-20

# Rows per block of a training step's estimate node: at 256 hidden units a
# block's activations and cotangents are 0.5 MB each, so the block's
# backward finds them in a core's L2 cache, and no [batch, h] array is made.
TRAIN_BLOCK = 256


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths: input p, hidden widths (all relu), output q."""

    layer_widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError("widths need input, at least one hidden, and output entries")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("widths must be positive")
        if self.layer_widths[-1] < 2:
            raise ValueError("widths must end in an output width q >= 2")

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
        """A copy of every layer's TRAINABLE arrays, layer by layer."""
        return [getattr(g, name).copy() for g in self.groups for name in TRAINABLE]

    def set_state(self, state: list[np.ndarray]) -> None:
        it = iter(state)
        for g in self.groups:
            for name in TRAINABLE:
                setattr(g, name, next(it).copy())


def check_fits(model: StochasticModel, dataset) -> None:
    """Refuse a dataset the model cannot be trained or scored on: one with
    no rows, rows of another width than p, or labels outside 1..q."""
    spec = model.spec
    if len(dataset) == 0:
        raise ValueError("data has no rows")
    if dataset.p != spec.p:
        raise ValueError(f"data rows have width {dataset.p}, but the model takes p={spec.p}")
    if dataset.labels.min() < 1 or dataset.labels.max() > spec.q:
        raise ValueError(
            f"data labels span {dataset.labels.min()}..{dataset.labels.max()}, "
            f"but the model's classes are 1..{spec.q}"
        )


def apply_dropout(h: np.ndarray, prob: float, rng: RngStream) -> np.ndarray:
    """Zero units independently with probability prob, rescale survivors.

    Inverted scaling by 1/(1-prob) keeps E[mask * h] = h. ``estimate_node``
    draws the same masks under ``rng`` block by block, as boolean keeps and
    the scale.
    """
    if not 0.0 <= prob < 1.0:
        raise ValueError("dropout prob must be in [0, 1)")
    if prob == 0.0:
        return h
    keep = ~rng.bernoulli_mask(np.shape(h), prob)
    return h * keep / (1.0 - prob)


class ParamLeaves:
    """One layer on a step's tape: its TRAINABLE arrays as the tape
    ``leaves``, and the arrays a GaussianParamGroup reads under the same
    names, so the estimate and the KL read a layer one way on and off the
    tape. A leaf's value is the group's own array; sigma = |rho|^(3/2) and
    d sigma / d rho of both raw deviations are computed once per tape."""

    def __init__(self, tape: grad.Tape, group: GaussianParamGroup):
        self.leaves = [tape.leaf(getattr(group, name)) for name in TRAINABLE]
        self.w_mean, self.b_mean = group.w_mean, group.b_mean
        self.w_sigma, self.b_sigma = group.w_sigma, group.b_sigma
        self.w_dsigma, self.b_dsigma = dsigma_of_rho(group.w_rho), dsigma_of_rho(group.b_rho)

    def grads(self) -> list[np.ndarray]:
        return [p.grad if p.grad is not None else np.zeros_like(p.value) for p in self.leaves]


def make_leaves(tape: grad.Tape, model: StochasticModel) -> list[ParamLeaves]:
    return [ParamLeaves(tape, g) for g in model.groups]


def draw_partials(lv: ParamLeaves, draw, gW, gb) -> list[np.ndarray]:
    """The partials in (w_mean, w_rho, b_mean, b_rho) of a layer drawn by
    ``sample_gaussian`` as ``draw`` = (W, b, zeta_w, zeta_b), from the
    summed cotangents ``gW`` of W and ``gb`` of b: the draw chains
    d/dmean = gW and d/drho = gW * zeta * dsigma."""
    return [gW, gW * draw[2] * lv.w_dsigma, gb, gb * draw[3] * lv.b_dsigma]


def accumulate(sums, parts):
    """A running sum of arrays: ``parts`` added in place to ``sums``, or
    ``parts`` themselves when ``sums`` is None (the first block)."""
    if sums is None:
        return list(parts)
    for acc, part in zip(sums, parts):
        acc += part
    return sums


def hidden_forward_on_tape(x, draws, keeps=None, scale=1.0) -> list[np.ndarray]:
    """The hidden forward of one row block under the step's hidden-layer
    draws, each (W, b, zeta_w, zeta_b): relu(a @ W.T + b), with the units
    the block's boolean dropout mask of the layer drops zeroed and the rest
    times ``scale``, when ``keeps`` holds the masks.

    Returns [x, phi_1, ..., phi_h], the input of every hidden layer and the
    last hidden output, which the block's backward pass reads while they
    are still in cache.
    """
    acts = [x]
    for k, (W, b, _, _) in enumerate(draws):
        out = acts[-1] @ W.T
        out += b
        np.maximum(out, 0.0, out=out)
        if keeps is not None:
            out *= keeps[k]
            out *= scale
        acts.append(out)
    return acts


def estimate_node(leaves, x, rng, spec, head, dropout_prob=0.0):
    """A batch estimate as one closed-form node over every parameter leaf,
    built TRAIN_BLOCK rows at a time.

    Each hidden layer is drawn once under ``rng``'s ("theta", k). Each row
    block draws its rows' dropout uniforms of layer k from the one generator
    of ("dropout", k), the values ``apply_dropout`` draws for the whole
    batch, and keeps them as a boolean mask. The block then runs the hidden
    forward, ``head.block`` (its value sum and the cotangent of its last
    hidden output under a unit cotangent of the estimate, an array the loop
    overwrites) and at once the backward through the hidden layers into
    per-layer weight and bias sums. The estimate is the sum of the block
    sums over ``head.n``, and the node's partials are the finished sums with
    the head's own ``head.partials()`` for the output layer, which the
    backward pass scales by the cotangent in place; the node lands on the
    leaves' tape. Given the model's groups in place of ``leaves``, no
    backward runs and the estimate is returned as a float.
    """
    n_hidden = spec.n_layers - 1
    need_grad = isinstance(leaves[-1], ParamLeaves)
    draws = [
        sample_gaussian(lv.w_mean, lv.w_sigma, lv.b_mean, lv.b_sigma, rng.child("theta", k))
        for k, lv in enumerate(leaves[:n_hidden])
    ]
    if not 0.0 <= dropout_prob < 1.0:
        raise ValueError("dropout prob must be in [0, 1)")
    gens = [rng.child("dropout", k).generator() for k in range(n_hidden)] if dropout_prob else []
    scale = 1.0 / (1.0 - dropout_prob)
    sums = [None] * n_hidden
    total = 0.0
    for lo in range(0, len(x), TRAIN_BLOCK):
        rows = slice(lo, lo + TRAIN_BLOCK)
        xb = x[rows]
        keeps = [
            gen.random((len(xb), spec.layer_widths[k + 1])) >= dropout_prob
            for k, gen in enumerate(gens)
        ] or None
        acts = hidden_forward_on_tape(xb, draws, keeps, scale)
        value, g = head.block(acts[-1], rows, need_grad)
        total += value
        if not need_grad:
            continue
        for k in reversed(range(n_hidden)):
            # A dropped unit's output is 0, so this also zeroes its row.
            g *= acts[k + 1] > 0
            if keeps is not None:
                g *= scale
            sums[k] = accumulate(sums[k], (g.T @ acts[k], g.sum(axis=0)))
            if k:
                g = g @ draws[k][0]
    total /= head.n
    if not need_grad:
        return float(total)
    partials = []
    for lv, draw, (gW, gb) in zip(leaves, draws, sums):
        partials += draw_partials(lv, draw, gW, gb)
    partials += head.partials()
    parents = [p for lv in leaves for p in lv.leaves]
    return grad.closed_form(total, parents, partials, in_place=True)


class _ConditionalL1Head:
    """The mean L1 estimate over ``zeta``'s [repeats, batch, q] output draws
    given the last hidden output, one row block at a time, with the output
    layer unsampled.

    A block builds the conditional moments (M, V) with
    ``conditional_moments`` and sums each input's L1 gradient entries over
    the repeats through the sampled argmax class, so no [repeats, rows, q]
    gradient is formed. Its phi cotangent takes the factor 2 of d(phi^2) on
    the small [q, h] sigma_W^2.
    """

    def __init__(self, last, y0, zeta):
        self.last, self.y0, self.zeta = last, y0, zeta
        self.n = zeta.shape[0] * zeta.shape[1]
        self.w_mean, self.b_mean = last.w_mean, last.b_mean
        self.sw2, self.sb2 = np.square(last.w_sigma), np.square(last.b_sigma)
        self.sums = None  # d/dw_mean, d/dsigma_W^2, d/db_mean, d/dsigma_b^2

    def block(self, phi, rows, need_grad):
        M, V, phi2 = conditional_moments(phi, self.w_mean, self.b_mean, self.sw2, self.sb2)
        values, idx, dM, dV = l1_draws(M, V, self.y0[rows], self.zeta[:, rows])
        if not need_grad:
            return values.sum(), None
        size = M.size
        # j != y, so each (input, class) bin sums entries of one kind, in
        # repeat order, whatever the layout of idx.
        flat = idx.reshape(-1)
        gM = np.bincount(flat, dM.reshape(-1), size).reshape(M.shape)
        gV = np.bincount(flat, dV.reshape(-1), size).reshape(M.shape)
        gM /= self.n
        gV /= self.n
        gV *= V > VARIANCE_FLOOR
        self.sums = accumulate(
            self.sums, (gM.T @ phi, gV.T @ phi2, gM.sum(axis=0), gV.sum(axis=0))
        )
        g_phi = gV @ (2.0 * self.sw2)
        g_phi *= phi
        g_phi += gM @ self.w_mean
        return values.sum(), g_phi

    def partials(self):
        last = self.last
        g_wm, g_sw2, g_bm, g_sb2 = self.sums
        return [
            g_wm,
            g_sw2 * (2.0 * last.w_sigma) * last.w_dsigma,
            g_bm,
            g_sb2 * (2.0 * last.b_sigma) * last.b_dsigma,
        ]


def batch_error_estimate(
    model: StochasticModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    rng: RngStream,
    repeats: int = 100,
    leaves: list[ParamLeaves] | None = None,
    dropout_prob: float = 0.0,
) -> grad.Tensor | float:
    """Conditional Monte-Carlo estimate of the batch misclassification rate,
    as the tape node of its value.

    Samples one set of hidden parameters for the whole batch, computes the
    conditional output moments, then averages the L1 estimator over
    ``repeats`` independent output draws per input. The estimate is one
    ``estimate_node`` over every mean and raw-deviation leaf of ``leaves``,
    on their tape, so backward() yields pathwise gradients for all of them.
    Without ``leaves`` the value alone is computed, from the model's groups
    with no tape, and returned as a float.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    x = np.asarray(inputs, dtype=np.float64)
    y0 = np.asarray(labels, dtype=np.int64) - 1
    batch = x.shape[0]
    q = model.spec.q
    if batch < 1:
        raise ValueError("the batch is empty")
    if np.any(y0 < 0) or np.any(y0 >= q):
        raise ValueError("labels outside 1..q")
    layers = model.groups if leaves is None else leaves
    # One block of output draws per batch; entry [r, i, :] belongs to
    # repeat r of input i.
    zeta = rng.child("l1").normal((repeats, batch, q))
    head = _ConditionalL1Head(layers[-1], y0, zeta)
    return estimate_node(layers, x, rng, model.spec, head, dropout_prob)


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
    """Network outputs [n, q] under a full parameter draw of (W, b) pairs,
    computed in the precision numpy promotes the inputs and the draw to:
    float32 when both are float32, float64 when either is float64.

    Runs features-major: each layer computes W @ a into a fresh [width, n]
    array and adds the bias (and, before the next layer, the relu) in place,
    so a layer allocates one array and BLAS packs the inputs as its cheaper
    B operand. The result is the [n, q] transposed view of the last array.
    """
    x = np.asarray(x)
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


class ScoreScreen:
    """One full draw cast to float32, with a proven bound on how far its
    scores lie from the float64 forward's.

    For a row x whose float32 copy has X = max_i |x_i| <= ``x_limit``, the
    float32 score of class c and the float64 score (``forward_scores`` of
    the float64 row and draw, in any summation order) differ by at most
    E_c = alpha_c + beta_c X. The bound (Higham 2002, Accuracy and Stability
    of Numerical Algorithms, sec. 3.1) runs layer by layer. A layer of
    fan-in n computes z = W a + b with error at most

        gamma_{n+3} (|W| |a| + |b|) + (1 + gamma_{n+3}) |W| d,

    where a is the exact input, d bounds the computed input's error, and
    gamma_k = k u / (1 - k u). The n + 3 roundings count the dot product,
    the bias add and the casts of W, b and (at the first layer) x. The relu
    is 1-Lipschitz, so the error reaches the next layer as its d. With
    |x_i| <= X, the bounds on |a| and on d are affine in X, propagated
    through |W| per unit. Taking u as float32's unit roundoff plus
    float64's bounds the distance of both forwards from the exact scores
    at once. Underflow adds an absolute ``_TINY`` per operation and cast.
    Below ``x_limit`` no float32 value of the forward can overflow; weights
    beyond ``_SAFE`` screen no row. The bound takes BLAS to form each entry
    as a sum of products, in any order, fused or not, as OpenBLAS and MKL
    kernels do; a Strassen-type GEMM would void it.
    """

    def __init__(self, theta: list[tuple], spec: ModelSpec):
        self.spec = spec
        # Per unit of the layer input: columns P, Q of the magnitude bound
        # P + Q X of its exact value, and F, G of the error bound F + G X
        # of its computed value.
        bound = np.zeros((spec.p, 4))
        bound[:, 1] = 1.0
        x_limit = _SAFE
        for W, b in theta:
            n = W.shape[1]
            gamma = (n + 3) * _UNIT / (1.0 - (n + 3) * _UNIT)
            abs_w = np.abs(W)
            if not (abs_w.max() <= _SAFE and np.abs(b).max() <= _SAFE):
                x_limit = -1.0
            spread = abs_w @ bound
            mag = spread[:, :2]
            mag[:, 0] += np.abs(b)
            err = gamma * mag + (1.0 + gamma) * spread[:, 2:]
            # Underflow in the products, the bias and the casts of W and x.
            inputs = bound.sum(axis=0)
            err[:, 0] += _TINY * (n + 2 + abs_w.sum(axis=1) + inputs[0] + inputs[2])
            err[:, 1] += _TINY * (inputs[1] + inputs[3])
            bound = np.hstack([mag, err])
            # Every float value of the layer, partial sums included, stays
            # below (P + F) + (Q + G) X; Q + G > 0 through the underflow term.
            reach = mag + err
            x_limit = np.minimum(x_limit, np.min((_SAFE - reach[:, 0]) / reach[:, 1]))
        # X is read off the float32 copy: |x_i| <= (X + _TINY) / (1 - 2**-24).
        self.beta = bound[:, 3] * _INFLATE / (1.0 - 2.0**-24)
        self.alpha = bound[:, 2] * _INFLATE + self.beta * _TINY
        self.x_limit = float(x_limit)
        with np.errstate(over="ignore"):
            self.theta32 = [(W.astype(np.float32), b.astype(np.float32)) for W, b in theta]

    def tolerance(self, x32: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The bound E [n, q] on |float32 score - float64 score| of each row
        of ``x32``, and whether the bound holds for the row. A row with a
        NaN, an inf or a value beyond ``x_limit`` has no bound."""
        size = np.maximum(x32.max(axis=1), -x32.min(axis=1))
        bound = np.multiply.outer(size, self.beta)
        bound += self.alpha
        return bound, size <= self.x_limit

    def decide(self, x32: np.ndarray, y0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Screen the float32 rows ``x32`` with 0-based labels ``y0``.

        A row is correct when s_y - s_c > E_y + E_c for every c != y, and an
        error when s_c - s_y > E_y + E_c for some c: the float64 forward
        would count it the same. Returns the error mask and the indices of
        the rows the bound cannot decide (near-ties, ties, non-finite or
        unbounded rows), which the float64 forward must score.
        """
        # A draw or row beyond float32's range leaves infs and NaNs here;
        # such rows have no bound and fall back.
        with np.errstate(over="ignore", invalid="ignore"):
            gap = forward_scores(x32, self.theta32, self.spec).astype(np.float64)
            bound, held = self.tolerance(x32)
            at_y = (np.arange(len(y0)), y0)
            gap -= gap[at_y][:, None]
            bound += bound[at_y][:, None]
            wrong = (gap > bound).any(axis=1)
            right = (gap < -bound).sum(axis=1) == self.spec.q - 1
        wrong &= held
        right &= held
        return wrong, np.flatnonzero(~(wrong | right))


def screen_rows(spec: ModelSpec) -> int:
    """Rows per block of ``exact_misclassification``: at most SCORE_BLOCK,
    and few enough that the block's float32 copy fills at most SCREEN_BYTES,
    in multiples of 16 (BLAS's sgemm slows on odd widths)."""
    fit = SCREEN_BYTES // (4 * spec.p) // 16 * 16
    return max(16, min(SCORE_BLOCK, fit))


def exact_misclassification(
    model: StochasticModel, inputs: np.ndarray, labels: np.ndarray, theta: list[tuple]
) -> float:
    """0-1 error rate under a full parameter draw; output ties count as errors.

    The count is the float64 forward's. Each block of ``screen_rows`` rows
    is cast into one float32 buffer and screened by a ``ScoreScreen`` of
    the draw; the rows it cannot decide are gathered into the same buffer,
    read as float64, and scored by the float64 forward. A call holds the
    float32 draw, that buffer and one block's activation whatever the
    number of inputs. The gathered rows can sum in another order inside
    BLAS than one forward over all rows, moving their scores by a few ulps.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y0 = np.asarray(labels, dtype=np.int64) - 1
    spec = model.spec
    if np.any(y0 < 0) or np.any(y0 >= spec.q):
        raise ValueError("labels outside 1..q")
    screen = ScoreScreen(theta, spec)
    rows = screen_rows(spec)
    buffer = np.empty(rows * spec.p, dtype=np.float32)
    wide = buffer.view(np.float64).reshape(-1, spec.p)
    errors = 0
    for lo in range(0, len(y0), rows):
        xb, yb = x[lo : lo + rows], y0[lo : lo + rows]
        block = buffer[: xb.size].reshape(xb.shape)
        with np.errstate(over="ignore"):
            np.copyto(block, xb)
        wrong, undecided = screen.decide(block, yb)
        errors += np.count_nonzero(wrong)
        for start in range(0, len(undecided), len(wide)):
            pick = undecided[start : start + len(wide)]
            # mode="clip" gathers straight into the buffer; the default
            # mode stages ``out`` in a temporary. ``pick`` is in range.
            rescored = np.take(xb, pick, axis=0, out=wide[: len(pick)], mode="clip")
            scores = forward_scores(rescored, theta, spec)
            errors += np.count_nonzero(misclassified(scores, yb[pick]))
    return errors / len(y0)


def _format_array(arr: np.ndarray) -> str:
    return " ".join(f"{v:.17g}" for v in np.asarray(arr, dtype=np.float64).reshape(-1))


def save_model(model: StochasticModel, path) -> None:
    """Text snapshot: spec line, then per-layer means, raw deviations, and
    frozen prior means/sigmas, all as decimal floats with 17 significant
    digits (lossless for float64)."""
    lines = [SNAPSHOT_HEADER]
    lines.append("widths " + " ".join(str(w) for w in model.spec.layer_widths))
    lines.append("activation relu")
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
    activation = fields["activation"]
    if activation != "relu":
        raise ValueError(f"snapshot line 3: 'activation' must be relu, got {activation!r}")
    dropout = numbers(fields["dropout"], float, "'dropout'", 4)
    if len(dropout) != 1:
        raise ValueError(f"snapshot line 4: 'dropout' takes one value, got {len(dropout)}")
    if dropout[0] != 0.0:
        raise ValueError(f"snapshot line 4: 'dropout' must be 0, got {dropout[0]!r}")
    spec = ModelSpec(widths)

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
        if expect_name in ("prior_w_sigma", "prior_b_sigma") and np.any(vals <= 0):
            raise ValueError(f"{what} must be strictly positive")
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
