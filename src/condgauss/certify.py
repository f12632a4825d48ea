"""Post-training certification.

The chain: draw N full parameter samples, average their exact 0-1 error on
the bound dataset (tilde_E), lift it to a high-probability bound on the true
posterior risk E_S(Q) via kl_inv with budget log(2/delta')/N, then lift once
more through kl_inv with the PAC-Bayes penalty at kappa = 1. The nested
bound holds with probability at least 1 - (delta + delta').

Certification refuses to run when the prior was trained on data that
overlaps the bound dataset; the prior/bound split fingerprints enforce the
disjointness.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .bounds import kl_inv, penalty
from .data import LabelledDataset
from .gaussian import kl_diag_gauss
from .network import (
    StochasticModel,
    check_fits,
    exact_misclassification,
    row_magnitudes,
    sample_full,
)
from .rng import RngStream

__all__ = [
    "Certificate",
    "CertificationRefused",
    "draw_errors",
    "mc_empirical_error",
    "inner_bound",
    "final_certificate",
    "worker_count",
]

class CertificationRefused(RuntimeError):
    """Prior/bound data overlap: the certificate would be invalid."""


@dataclass(frozen=True)
class Certificate:
    """Final bound record. ``final_bound`` upper-bounds the true error of the
    posterior with probability at least ``confidence`` = 1 - (delta+delta').

    Its text form is one ``key=value`` line per field, in field order."""

    tilde_e: float
    n_draws: int
    delta_prime: float
    inner_bound: float
    kl: float
    m: int
    delta: float
    pen: float
    final_bound: float
    confidence: float
    split_hash: str

    def __post_init__(self):
        if not self.tilde_e <= self.inner_bound <= self.final_bound:
            raise ValueError("bound nesting violated: need tilde_e <= inner <= final")
        if not 0.0 <= self.final_bound <= 1.0:
            raise ValueError("final bound outside [0, 1]")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            # repr keeps every float digit; an int's or the hash's str is its text.
            lines.append(f"{f.name}={repr(value) if isinstance(value, float) else value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Certificate":
        pairs = {}
        for line in text.strip().splitlines():
            key, _, val = line.partition("=")
            pairs[key] = val
        return cls(**{name: kind(pairs[name]) for name, kind in get_type_hints(cls).items()})


def worker_count() -> int:
    """Worker count from CONDGAUSS_THREADS; affects wall time only."""
    raw = os.environ.get("CONDGAUSS_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"CONDGAUSS_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError("CONDGAUSS_THREADS must be >= 1")
    return n


def draw_errors(
    model: StochasticModel, dataset: LabelledDataset, n_draws: int, rng: RngStream
) -> np.ndarray:
    """Exact 0-1 error of each of n_draws full posterior samples.

    Draw n uses the child stream ("draw", n) and lands in slot n, so the
    array is independent of the worker count and of scheduling. The layer
    sigmas and the inputs' row magnitudes, which the float32 screen reads,
    are taken once for all draws.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    check_fits(model, dataset)
    errors = np.empty(n_draws)
    sigmas = model.sigmas()
    sizes = row_magnitudes(dataset.inputs)

    def one(n: int) -> None:
        theta = sample_full(model, rng.child("draw", n), sigmas)
        errors[n] = exact_misclassification(model, dataset.inputs, dataset.labels, theta, sizes)

    workers = worker_count()
    if workers == 1:
        for n in range(n_draws):
            one(n)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(n_draws)))
    return errors


def mc_empirical_error(
    model: StochasticModel, dataset: LabelledDataset, n_draws: int, rng: RngStream
) -> float:
    """Average exact 0-1 error over n_draws full posterior samples, in draw
    order."""
    return float(np.mean(draw_errors(model, dataset, n_draws, rng)))


def inner_bound(tilde_e: float, n_draws: int, delta_prime: float) -> float:
    """High-probability bound on E_S(Q) from its N-draw Monte-Carlo estimate:
    kl_inv(tilde_E, log(2/delta')/N), valid with probability 1 - delta'."""
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError("delta_prime must be in (0, 1)")
    return kl_inv(tilde_e, math.log(2.0 / delta_prime) / n_draws)


def _check_disjoint(model: StochasticModel, dataset: LabelledDataset) -> None:
    if model.prior_fingerprint is None:
        return  # data-free prior: independent of everything
    if dataset.fingerprint == model.prior_fingerprint:
        raise CertificationRefused(
            "bound dataset is exactly the prior's training data"
        )
    if dataset.split_tag != "bound" or dataset.pair_token != model.prior_pair_token:
        raise CertificationRefused(
            "prior was trained on data not provably disjoint from this dataset; "
            "certify on the bound half of the same split"
        )


def final_certificate(
    model: StochasticModel,
    bound_dataset: LabelledDataset,
    n_draws: int,
    delta: float,
    delta_prime: float,
    rng: RngStream,
) -> Certificate:
    """Full certification: Monte-Carlo error, inner bound, nested outer bound.

    The penalty uses kappa = 1, m = len(bound_dataset), and the model's frozen
    prior. Refuses to certify when the prior saw any of the bound data.
    """
    m = len(bound_dataset)
    if m < 8:
        raise ValueError("bound dataset must have at least 8 points")
    if not (0.0 < delta < 1.0 and 0.0 < delta_prime < 1.0 and delta + delta_prime < 1.0):
        raise ValueError("need delta, delta' in (0,1) with delta + delta' < 1")
    if not model.prior_frozen:
        raise ValueError("prior must be frozen before certification")
    _check_disjoint(model, bound_dataset)

    # The KL term checks every sigma, so a bad one fails before any draw.
    kl = kl_diag_gauss(model.groups)
    pen = penalty(kl, m, delta)
    tilde_e = mc_empirical_error(model, bound_dataset, n_draws, rng)
    inner = inner_bound(tilde_e, n_draws, delta_prime)
    final = kl_inv(inner, pen)
    return Certificate(
        tilde_e=tilde_e,
        n_draws=n_draws,
        delta_prime=delta_prime,
        inner_bound=inner,
        kl=kl,
        m=m,
        delta=delta,
        pen=pen,
        final_bound=final,
        confidence=1.0 - (delta + delta_prime),
        split_hash=bound_dataset.fingerprint,
    )
