"""Training: conditional PAC-Bayes descent, the lambda-alternating lbd
variant, prior training, and the surrogate cross-entropy baseline, all run by
``train_condgauss``; the phase and the objective kind pick the path.

All phases share one engine: per batch, ``batch_gradients`` samples the
stochastic parameters (hidden layers only for the conditional method, every
layer for the baseline), takes the error estimate and the KL with their
partials, chains them through the penalized objective on a fresh tape, and
``train_condgauss`` takes an SGD-with-momentum step
    v <- mu v + g,   p <- p - eta v.
The penalty always uses the size m of the dataset being trained on (the
bound dataset), never the batch size, and is recomputed each batch from the
current KL. At every epoch end the empirical invKL bound (at kappa = 1) is
logged; the returned model is the snapshot of the best epoch under that
metric.
"""
from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass

import numpy as np

from . import grad
from .bounds import BoundKind, BoundSpec, kl_inv, objective_partials, penalty
from .data import LabelledDataset
from .gaussian import TRAINABLE, kl_diag_gauss, kl_sum, prior_terms, sample_gaussian
from .network import (
    StochasticModel,
    accumulate,
    batch_error_estimate,
    check_fits,
    draw_partials,
    estimate_node,
    make_leaves,
)
from .rng import RngStream

__all__ = [
    "TrainConfig",
    "TrainLog",
    "LogRow",
    "TrainingDiverged",
    "batch_gradients",
    "lambda_batch",
    "momentum_step",
    "train_condgauss",
]

CSV_HEADER = "epoch,objective,emp_est,kl,pen,bound_est,lambda,seconds"

# Softmax floor of the bounded cross-entropy surrogate.
SURROGATE_PMIN = 1e-4

# Abort threshold of the divergence guard.
DIVERGENCE_LIMIT = 10.0


class TrainingDiverged(RuntimeError):
    """The objective left the finite, bounded regime; training aborted."""


@dataclass(frozen=True)
class TrainConfig:
    """One training phase.

    ``phase`` is "prior", "posterior" or "baseline" (the surrogate-loss
    baseline). ``objective`` None means plain empirical-risk minimization; a
    prior trains with ERM or invKL, the other phases need an objective.
    Dropout applies only in the prior phase. The schedule is a sequence of
    (epochs, learning_rate) entries run back to back; momentum buffers
    persist across entries.
    """

    objective: BoundSpec | None
    lr_schedule: tuple[tuple[int, float], ...]
    momentum: float = 0.9
    batch_size: int = 250
    repeats: int = 100
    seed: int = 0
    phase: str = "posterior"
    dropout_prob: float = 0.0

    def __post_init__(self):
        if self.phase not in ("prior", "posterior", "baseline"):
            raise ValueError(f"unknown phase: {self.phase}")
        for epochs, lr in self.lr_schedule:
            if epochs < 1:
                raise ValueError("schedule entries need epochs >= 1")
            if lr <= 0:
                raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.objective is None and self.phase != "prior":
            raise ValueError("ERM (objective=None) is only valid in the prior phase")
        if self.phase == "prior" and self.objective and self.objective.kind != BoundKind.INVKL:
            raise ValueError("prior training supports ERM (no objective) or invkl")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        if self.dropout_prob > 0.0 and self.phase != "prior":
            raise ValueError("dropout applies only in the prior phase")


@dataclass
class LogRow:
    epoch: int
    objective: float
    emp_est: float
    kl: float
    pen: float
    bound_est: float
    lam: float | None
    seconds: float

    def csv_line(self) -> str:
        """The fields in order, as repr; no lambda is written NA."""
        return ",".join("NA" if v is None else repr(v) for v in astuple(self))


@dataclass
class TrainLog:
    rows: list[LogRow]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in self.rows:
                fh.write(row.csv_line() + "\n")

    def numeric_rows(self) -> list[tuple]:
        """Rows without the wall-time column (the last field), for determinism
        comparisons."""
        return [astuple(r)[:-1] for r in self.rows]

    def best_bound(self) -> float:
        return min(r.bound_est for r in self.rows) if self.rows else math.inf


def momentum_step(param, grad_value, velocity, lr: float, mu: float):
    """One SGD-with-momentum update: v <- mu v + g, p <- p - lr v.

    Returns (new_param, new_velocity); works for scalars and arrays.
    """
    velocity = mu * velocity + grad_value
    return param - lr * velocity, velocity


def _bounded_cross_entropy(F, y0, batch: int):
    """The surrogate loss of sampled scores ``F`` [rows, q] against 0-based
    labels ``y0``, summed over the rows: min(1, -log(max(p_y, p_min)) /
    log(1/p_min)), p the softmax of F. Returns (loss sum, gradient in F of
    the loss's mean over a batch of ``batch`` rows).

    That gradient is (p - onehot(y)) / (batch log(1/p_min)) on rows where
    p_y > p_min and the loss is below 1, and 0 on the other rows.
    """
    rows = np.arange(F.shape[0])
    log_inv_pmin = math.log(1.0 / SURROGATE_PMIN)
    e = np.exp(F - F.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1)[:, None]
    p_y = p[rows, y0]
    ell = np.log(np.maximum(p_y, SURROGATE_PMIN)) * (-1.0 / log_inv_pmin)
    active = (p_y > SURROGATE_PMIN) & (ell < 1.0)
    p[rows, y0] -= 1.0
    p *= active[:, None] / (batch * log_inv_pmin)
    return np.minimum(ell, 1.0).sum(), p


class _SurrogateHead:
    """The baseline's head of ``estimate_node``, one row block at a time:
    the output layer drawn pathwise once from ``rng``, and the bounded
    cross-entropy of ``_bounded_cross_entropy`` of its scores in place of the
    error estimate (it stays in [0, 1], so the bound objectives remain
    valid)."""

    def __init__(self, last, y0, rng):
        self.last, self.y0, self.n = last, y0, len(y0)
        self.draw = sample_gaussian(last.w_mean, last.w_sigma, last.b_mean, last.b_sigma, rng)
        self.sums = None  # cotangent sums of the drawn W and b

    def block(self, phi, rows, need_grad):
        W, b = self.draw[:2]
        F = phi @ W.T
        F += b
        loss, gF = _bounded_cross_entropy(F, self.y0[rows], self.n)
        if not need_grad:
            return loss, None
        self.sums = accumulate(self.sums, (gF.T @ phi, gF.sum(axis=0)))
        return loss, gF @ W

    def partials(self):
        return draw_partials(self.last, self.draw, *self.sums)


def _batch_estimate(model, config: TrainConfig, x, y, rng, leaves=None):
    """``batch_error_estimate``, or for the baseline ``estimate_node`` under a
    ``_SurrogateHead``: (estimate, partials) from ``leaves``, or without
    them the estimate alone."""
    if config.phase != "baseline":
        return batch_error_estimate(model, x, y, rng, config.repeats, leaves, config.dropout_prob)
    # Every layer is sampled pathwise once: the hidden ones by estimate_node,
    # the output layer by the head.
    layers = model.groups if leaves is None else leaves
    head = _SurrogateHead(layers[-1], y - 1, rng.child("theta", model.spec.n_layers - 1))
    return estimate_node(layers, x, rng, model.spec, head)


def _guarded(objective) -> float:
    """The objective as a float; past DIVERGENCE_LIMIT or not finite, TrainingDiverged."""
    value = float(objective)
    if not math.isfinite(value) or value > DIVERGENCE_LIMIT:
        raise TrainingDiverged(f"objective {value}")
    return value


def batch_gradients(model, config: TrainConfig, m: int, prior, x, y, rng, lam=None):
    """One batch's objective and its gradients: the estimate and its
    partials (``_batch_estimate``), the penalized objective (the bare
    estimate under ERM), the divergence guard, and backward. ``m`` is the
    size of the dataset trained on, ``prior`` the model's ``prior_terms``
    and ``lam`` lbd's lambda (None for the other objectives).

    The penalty is (kappa/m)(KL(Q||P) + log(2 sqrt(m)/delta)), from the
    current KL (``kl_sum``, each sigma partial scaled by d sigma / d rho in
    place). On the tape, the estimate and KL nodes sit over one leaf per
    ``get_state()`` array and the objective node over those two, so the
    gradient is d_est * (estimate partials) + (d_pen kappa/m) * (KL
    partials); lbd's ``lam`` stays off the tape.

    Returns (objective, estimate, penalty, gradients) as plain numbers and
    arrays, the gradients in ``get_state()`` order, so the step's graph is
    freed on return. A diverged objective raises before backward.
    """
    spec = config.objective
    leaves = make_leaves(model)
    tape = grad.Tape()
    params = [tape.leaf(getattr(g, name)) for g in model.groups for name in TRAINABLE]
    est_value, est_partials = _batch_estimate(model, config, x, y, rng, leaves)
    obj = est = grad.closed_form(est_value, params, est_partials, in_place=True)
    pen = 0.0
    if spec is not None:
        kl_value, pairs = kl_sum(
            [(lv.w_mean, lv.w_sigma, lv.b_mean, lv.b_sigma) for lv in leaves], prior
        )
        dsigmas = [d for lv in leaves for d in (lv.w_dsigma, lv.b_dsigma)]
        kl_partials = []
        for (dmean, dsig), dsigma in zip(pairs, dsigmas):
            dsig *= dsigma
            kl_partials += [dmean, dsig]
        kl = grad.closed_form(kl_value, params, kl_partials, in_place=True)
        # Rounding can leave the summed KL a hair below 0; kl_diag_gauss clamps too.
        pen = penalty(max(kl_value, 0.0), m, spec.delta, spec.kappa)
        value, (d_est, d_pen, _) = objective_partials(spec.kind, est_value, pen, lam)
        obj = grad.closed_form(value, [est, kl], [d_est, d_pen * (spec.kappa / m)])
    obj_value = _guarded(obj.value)
    tape.backward(obj)
    return obj_value, est_value, pen, [p.grad for p in params]


def lambda_batch(model, config: TrainConfig, pen: float, x, y, rng, lam: float):
    """One batch of an lbd lambda epoch, with no tape: the parameters hold
    still, so it takes the estimate's value and the epoch's penalty ``pen``,
    adds the floats ``batch_gradients`` adds for the objective and applies
    the same divergence guard. Returns (objective, estimate, d objective /
    d ell), ell the logit of ``lam``.
    """
    est = _batch_estimate(model, config, x, y, rng)
    value, (_, _, d_lam) = objective_partials(config.objective.kind, est, pen, lam)
    # d lambda / d ell = lambda (1 - lambda) through the logistic map.
    return _guarded(value), est, d_lam * lam * (1.0 - lam)


def train_condgauss(
    model: StochasticModel, data: LabelledDataset, config: TrainConfig
) -> tuple[StochasticModel, TrainLog]:
    """Train ``model`` on ``data`` for one phase; returns (model at best
    epoch, TrainLog).

    The posterior and prior phases descend the conditional error estimate
    (an ERM prior descends it bare); the baseline phase descends the bounded
    cross-entropy surrogate of ``_SurrogateHead`` instead.

    An lbd objective doubles the epochs: even epochs step the parameters,
    odd epochs step only lambda, at the same learning rate. lambda lives
    behind a logistic reparametrization so it stays in (0, 1); its momentum
    restarts at every lambda epoch.

    A prior phase penalizes with m = len(data) and the initialization as the
    KL reference, and ends by freezing the trained means and sigmas into the
    model as its prior (so the KL reference restarts at zero), stamped with
    the data's fingerprint and pair token. Data the model cannot take
    (``check_fits``) is refused before the first step.
    """
    spec = config.objective
    if not model.prior_frozen:
        raise ValueError("freeze the prior (or the initialization) before training")
    check_fits(model, data)
    m = len(data)
    x_all = data.inputs
    y_all = data.labels
    delta_track = spec.delta if spec else 0.025
    rng_root = RngStream(config.seed).child("train", config.phase)

    alternating = spec is not None and spec.kind == BoundKind.LBD
    lrs = [lr for epochs, lr in config.lr_schedule for _ in range(epochs * (1 + alternating))]
    velocity = [np.zeros_like(a) for a in model.get_state()]
    prior = prior_terms(model.groups)
    ell = math.log(spec.lam / (1.0 - spec.lam)) if alternating else 0.0

    rows: list[LogRow] = []
    best_bound = math.inf
    best_state = None
    for epoch, lr in enumerate(lrs):
        t0 = time.perf_counter()
        is_lambda_epoch = alternating and epoch % 2 == 1
        lam_velocity = 0.0
        if is_lambda_epoch:
            pen = penalty(kl_diag_gauss(model.groups), m, spec.delta, spec.kappa)

        perm = rng_root.child("shuffle", epoch).permutation(m)
        obj_sum = 0.0
        emp_sum = 0.0
        for b_idx, start in enumerate(range(0, m, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            x, y = x_all[idx], y_all[idx]
            rng = rng_root.child("epoch", epoch, "batch", b_idx)
            lam = float(1.0 / (1.0 + np.exp(-ell))) if alternating else None
            try:
                if is_lambda_epoch:
                    obj_value, est_value, g_ell = lambda_batch(model, config, pen, x, y, rng, lam)
                else:
                    obj_value, est_value, pen, grads = batch_gradients(
                        model, config, m, prior, x, y, rng, lam
                    )
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"{exc} at epoch {epoch + 1}, batch {b_idx + 1}") from None
            if is_lambda_epoch:
                ell, lam_velocity = momentum_step(ell, g_ell, lam_velocity, lr, config.momentum)
            else:
                slots = ((group, name) for group in model.groups for name in TRAINABLE)
                for i, ((group, name), g_arr) in enumerate(zip(slots, grads)):
                    new_p, velocity[i] = momentum_step(
                        getattr(group, name), g_arr, velocity[i], lr, config.momentum
                    )
                    setattr(group, name, new_p)
                del grads  # freed before the next batch's forward pass
            obj_sum += obj_value * idx.size
            emp_sum += est_value * idx.size

        kl_now = kl_diag_gauss(model.groups)
        if config.phase == "baseline":
            # The surrogate loss is no error estimate; take a conditional
            # estimate of the epoch-end state instead.
            emp_mean = batch_error_estimate(
                model, x_all, y_all, rng_root.child("track", epoch), repeats=min(config.repeats, 5)
            )
        else:
            emp_mean = emp_sum / m
        pen_track = penalty(kl_now, m, delta_track)
        bound_est = kl_inv(emp_mean, pen_track)
        rows.append(
            LogRow(
                epoch=epoch + 1,
                objective=obj_sum / m,
                emp_est=emp_mean,
                kl=kl_now,
                pen=pen if spec is not None else pen_track,
                bound_est=bound_est,
                lam=lam,
                seconds=time.perf_counter() - t0,
            )
        )
        if bound_est < best_bound:
            best_bound = bound_est
            best_state = model.get_state()

    if best_state is not None:
        model.set_state(best_state)
    if config.phase == "prior":
        model.freeze_prior(fingerprint=data.fingerprint, pair_token=data.pair_token)
    return model, TrainLog(rows)
