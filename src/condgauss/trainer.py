"""Training loops: conditional PAC-Bayes descent, the lambda-alternating
variant, prior training, and the surrogate cross-entropy baseline.

All phases share one engine: per batch, sample the stochastic parameters
(hidden layers only for the conditional method, every layer for the
baseline), build the error estimate and the penalized objective on a fresh
tape, run backward, and take an SGD-with-momentum step
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
from dataclasses import dataclass

import numpy as np

from . import grad
from .bounds import BoundKind, BoundSpec, PenaltyInputs, kl_inv, objective_partials, penalty
from .data import LabelledDataset
from .gaussian import dsigma_of_rho, kl_diag, kl_diag_gauss, misclassified, sigma_of_rho
from .network import (
    StochasticModel,
    batch_error_estimate,
    hidden_forward_on_tape,
    make_leaves,
    sample_layer_on_tape,
)
from .rng import RngStream

__all__ = [
    "TrainConfig",
    "TrainLog",
    "LogRow",
    "TrainingDiverged",
    "kl_node",
    "momentum_step",
    "penalized_objective",
    "train_condgauss",
    "train_lambda_alternating",
    "train_prior",
    "train_surrogate_baseline",
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

    ``objective`` None means plain empirical-risk minimization (prior phase
    only). The schedule is a sequence of (epochs, learning_rate) entries run
    back to back; momentum buffers persist across entries.
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
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")

    def epoch_lrs(self) -> list[float]:
        out: list[float] = []
        for epochs, lr in self.lr_schedule:
            out.extend([lr] * epochs)
        return out


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
        lam = "NA" if self.lam is None else repr(self.lam)
        return ",".join(
            [
                str(self.epoch),
                repr(self.objective),
                repr(self.emp_est),
                repr(self.kl),
                repr(self.pen),
                repr(self.bound_est),
                lam,
                repr(self.seconds),
            ]
        )


@dataclass
class TrainLog:
    rows: list[LogRow]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in self.rows:
                fh.write(row.csv_line() + "\n")

    def numeric_rows(self) -> list[tuple]:
        """Rows without the wall-time column, for determinism comparisons."""
        return [
            (r.epoch, r.objective, r.emp_est, r.kl, r.pen, r.bound_est, r.lam)
            for r in self.rows
        ]

    def best_bound(self) -> float:
        return min(r.bound_est for r in self.rows) if self.rows else math.inf


def momentum_step(param, grad_value, velocity, lr: float, mu: float):
    """One SGD-with-momentum update: v <- mu v + g, p <- p - lr v.

    Returns (new_param, new_velocity); works for scalars and arrays.
    """
    velocity = mu * velocity + grad_value
    return param - lr * velocity, velocity


def kl_node(leaves, groups):
    """KL(Q||P) of the whole model as one closed-form node over every mean
    and raw-deviation leaf."""
    total = 0.0
    parents, partials = [], []
    for lv, g in zip(leaves, groups):
        for mean_leaf, rho_leaf, pmean, psigma in (
            (lv.w_mean, lv.w_rho, g.prior_w_mean, g.prior_w_sigma),
            (lv.b_mean, lv.b_rho, g.prior_b_mean, g.prior_b_sigma),
        ):
            rho = rho_leaf.value
            total, dmean, dsig = kl_diag(mean_leaf.value, sigma_of_rho(rho), pmean, psigma, total)
            parents += [mean_leaf, rho_leaf]
            partials += [dmean, dsig * dsigma_of_rho(rho)]
    return grad.closed_form(total, parents, partials)


def penalized_objective(est_node, leaves, groups, spec: BoundSpec, m: int, lam_node=None):
    """The bound objective of a batch estimate on the tape.

    The penalty is (kappa/m)(KL(Q||P) + log(2 sqrt(m)/delta)) with m the size
    of the dataset being trained on; the objective is one closed-form node
    over (estimate, penalty), plus ``lam_node`` for lbd. Returns (objective,
    penalty).
    """
    log_term = math.log(2.0 * math.sqrt(m) / spec.delta)
    pen_node = grad.mul(grad.add(kl_node(leaves, groups), log_term), spec.kappa / m)
    parents = [node for node in (est_node, pen_node, lam_node) if node is not None]
    value, partials = objective_partials(spec.kind, *[float(node.value) for node in parents])
    return grad.closed_form(value, parents, partials[: len(parents)]), pen_node


def _surrogate_batch(model, leaves, x, y0, rng, tape):
    """Baseline estimate: every layer sampled, bounded cross-entropy loss.

    Returns the surrogate loss node plus the plain 0-1 error of the sampled
    network on the batch (for bound tracking; ties count as errors).
    """
    phi_h = hidden_forward_on_tape(tape, leaves, x, rng, model.spec, 0.0)
    k_last = model.spec.n_layers - 1
    F = grad.linear(phi_h, *sample_layer_on_tape(leaves[-1], rng.child("theta", k_last)))

    z = grad.sub(F, grad.expand_last(grad.max_last(F)))
    e = grad.exp(z)
    p = grad.div(e, grad.expand_last(grad.sum_last(e)))
    p_y = grad.maximum_const(grad.gather_rows(p, y0), SURROGATE_PMIN)
    ell = grad.mul(grad.log(p_y), -1.0 / math.log(1.0 / SURROGATE_PMIN))
    surrogate = grad.mean_all(grad.minimum_const(ell, 1.0))

    return surrogate, float(np.mean(misclassified(F.value, y0)))


def _train_loop(
    model: StochasticModel,
    data: LabelledDataset,
    config: TrainConfig,
    lbd_alternating: bool = False,
) -> tuple[StochasticModel, TrainLog]:
    spec = config.objective
    if not model.prior_frozen:
        raise ValueError("freeze the prior (or the initialization) before training")
    m = len(data)
    x_all = data.inputs
    y_all = data.labels
    delta_track = spec.delta if spec else 0.025
    rng_root = RngStream(config.seed).child("train", config.phase)

    lrs = config.epoch_lrs()
    if lbd_alternating:
        # Doubled epoch count: even epochs step the hyper-parameters, odd
        # epochs step only lambda, at the same learning rate.
        lrs = [lr for lr in lrs for _ in range(2)]
    velocity = [np.zeros_like(a) for a in model.get_state()]
    ell = math.log(spec.lam / (1.0 - spec.lam)) if (spec and spec.kind == BoundKind.LBD) else 0.0
    lam_velocity = 0.0
    prev_lambda_epoch = False

    rows: list[LogRow] = []
    best_bound = math.inf
    best_state = None
    for epoch, lr in enumerate(lrs):
        t0 = time.perf_counter()
        is_lambda_epoch = lbd_alternating and (epoch % 2 == 1)
        if is_lambda_epoch != prev_lambda_epoch:
            lam_velocity = 0.0
        prev_lambda_epoch = is_lambda_epoch

        perm = rng_root.child("shuffle", epoch).permutation(m)
        obj_sum = 0.0
        emp_sum = 0.0
        lam_value = None
        last_pen = 0.0
        for b_idx, start in enumerate(range(0, m, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            bsize = idx.size
            rng_batch = rng_root.child("epoch", epoch, "batch", b_idx)
            tape = grad.Tape()
            leaves = make_leaves(tape, model)

            if config.phase == "baseline":
                est_node, emp_track = _surrogate_batch(
                    model, leaves, x_all[idx], y_all[idx] - 1, rng_batch, tape
                )
            else:
                result = batch_error_estimate(
                    model,
                    x_all[idx],
                    y_all[idx],
                    rng_batch,
                    repeats=config.repeats,
                    tape=tape,
                    leaves=leaves,
                    dropout_prob=config.dropout_prob if config.phase == "prior" else 0.0,
                )
                est_node, emp_track = result.node, result.value

            lam_node = None
            lam_leaf = None
            if spec and spec.kind == BoundKind.LBD:
                lam_leaf = tape.leaf(ell)
                lam_node = grad.sigmoid(lam_leaf)
                lam_value = float(lam_node.value)
            if spec is not None:
                obj, pen_node = penalized_objective(
                    est_node, leaves, model.groups, spec, m, lam_node
                )
                last_pen = float(pen_node.value)
            else:
                obj = est_node

            obj_value = float(obj.value)
            if not math.isfinite(obj_value) or obj_value > DIVERGENCE_LIMIT:
                raise TrainingDiverged(
                    f"objective {obj_value} at epoch {epoch + 1}, batch {b_idx + 1}"
                )
            tape.backward(obj)

            if is_lambda_epoch:
                g_ell = float(lam_leaf.grad) if lam_leaf.grad is not None else 0.0
                ell, lam_velocity = momentum_step(ell, g_ell, lam_velocity, lr, config.momentum)
            else:
                i = 0
                for group, lv in zip(model.groups, leaves):
                    for name, leaf in (
                        ("w_mean", lv.w_mean),
                        ("w_rho", lv.w_rho),
                        ("b_mean", lv.b_mean),
                        ("b_rho", lv.b_rho),
                    ):
                        g_arr = leaf.grad if leaf.grad is not None else 0.0
                        new_p, velocity[i] = momentum_step(
                            getattr(group, name), g_arr, velocity[i], lr, config.momentum
                        )
                        setattr(group, name, new_p)
                        i += 1

            obj_sum += obj_value * bsize
            emp_sum += emp_track * bsize

        kl_now = kl_diag_gauss(model.groups)
        if config.phase == "baseline":
            # The per-batch 0-1 tracking samples one network per batch and is
            # too noisy to pick a best epoch from; take a proper conditional
            # estimate of the epoch-end state instead.
            emp_mean = batch_error_estimate(
                model,
                x_all,
                y_all,
                rng_root.child("track", epoch),
                repeats=min(config.repeats, 5),
            ).value
        else:
            emp_mean = emp_sum / m
        pen_track = penalty(PenaltyInputs(kl_now, m, delta_track, 1.0))
        bound_est = kl_inv(emp_mean, pen_track)
        rows.append(
            LogRow(
                epoch=epoch + 1,
                objective=obj_sum / m,
                emp_est=emp_mean,
                kl=kl_now,
                pen=last_pen if spec is not None else pen_track,
                bound_est=bound_est,
                lam=lam_value,
                seconds=time.perf_counter() - t0,
            )
        )
        if bound_est < best_bound:
            best_bound = bound_est
            best_state = model.get_state()

    if best_state is not None:
        model.set_state(best_state)
    return model, TrainLog(rows)


def train_condgauss(model, data, config: TrainConfig):
    """Conditional PAC-Bayes training (posterior, or a prior trained with a
    bound objective). Returns (model at best epoch, TrainLog)."""
    if config.phase not in ("posterior", "prior"):
        raise ValueError("train_condgauss runs the posterior or prior phase")
    if config.objective is None and config.phase == "posterior":
        raise ValueError("posterior training needs a bound objective")
    if config.objective is not None and config.objective.kind == BoundKind.LBD:
        raise ValueError("use train_lambda_alternating for the lbd objective")
    return _train_loop(model, data, config)


def train_lambda_alternating(model, data, config: TrainConfig):
    """lbd training: doubled epochs alternating parameter and lambda steps.

    lambda lives behind a logistic reparametrization so it stays in (0,1);
    its momentum buffer is separate and reset at every phase switch.
    """
    if config.objective is None or config.objective.kind != BoundKind.LBD:
        raise ValueError("train_lambda_alternating requires the lbd objective")
    return _train_loop(model, data, config, lbd_alternating=True)


def train_prior(model, prior_data: LabelledDataset, config: TrainConfig):
    """Train the prior on its own split and freeze it into the model.

    The objective is either bare empirical risk (objective=None) or invKL
    with a small kappa; the penalty during an invKL prior run uses
    m = len(prior_data) and the initialization as the KL reference. On
    completion the trained means and sigmas become the frozen prior and the
    KL reference restarts at zero.
    """
    if config.phase != "prior":
        raise ValueError("train_prior requires phase='prior'")
    if config.objective is not None and config.objective.kind != BoundKind.INVKL:
        raise ValueError("prior training supports ERM (None) or an invKL objective")
    model, log = _train_loop(model, prior_data, config)
    model.freeze_prior(
        fingerprint=prior_data.fingerprint, pair_token=prior_data.pair_token
    )
    return model, log


def train_surrogate_baseline(model, data, config: TrainConfig):
    """Standard PAC-Bayes-with-backprop baseline.

    Samples every layer pathwise once per batch and replaces the error
    estimate with a bounded cross-entropy: per input,
    min(1, -log(p'_y) / log(1/p_min)) with the softmax clamped below at
    p_min = 1e-4, so the loss stays in [0, 1] and the bound objectives remain
    valid. Everything else matches the conditional loop.
    """
    if config.phase != "baseline":
        raise ValueError("train_surrogate_baseline requires phase='baseline'")
    if config.objective is None:
        raise ValueError("baseline training needs a bound objective")
    if config.objective.kind == BoundKind.LBD:
        return _train_loop(model, data, config, lbd_alternating=True)
    return _train_loop(model, data, config)
