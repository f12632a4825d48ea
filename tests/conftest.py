"""Shared fixtures for the acceptance suite.

The desk-scale study (20 seeds of conditional training plus the surrogate
baseline on the same tasks) is expensive, so it runs once per session and
several acceptance criteria read from it.
"""
import time
from dataclasses import dataclass

import numpy as np
import pytest

from condgauss.bounds import BoundKind, BoundSpec
from condgauss.certify import final_certificate
from condgauss.data import split_holdout, synth_blobs
from condgauss.network import (
    ModelSpec,
    StochasticModel,
    exact_misclassification,
    row_magnitudes,
    sample_full,
)
from condgauss.rng import RngStream
from condgauss.trainer import TrainConfig, train_condgauss

DESK_CLASSES = 4
DESK_PER_CLASS = 1000
DESK_HOLDOUT_PER_CLASS = 250
DESK_DIM = 20
DESK_SEPARATION = 0.8
DESK_WIDTH = 256
DESK_SIGMA0 = 0.01
DESK_SEEDS = 20
DESK_CERT_DRAWS = 300
DESK_HOLDOUT_DRAWS = 50


def desk_task(seed: int):
    """Training set (m = 4000) and held-out set from the same mixture."""
    whole = synth_blobs(
        DESK_CLASSES,
        DESK_PER_CLASS + DESK_HOLDOUT_PER_CLASS,
        DESK_DIM,
        DESK_SEPARATION,
        seed=1000 + seed,
    )
    return split_holdout(whole, DESK_PER_CLASS)


def desk_model(seed: int) -> StochasticModel:
    return StochasticModel.initialize(
        ModelSpec((DESK_DIM, DESK_WIDTH, DESK_CLASSES)),
        DESK_SIGMA0,
        RngStream(seed).child("model"),
    )


def desk_train_config(seed: int, phase: str) -> TrainConfig:
    lr = 0.001 if phase == "posterior" else 0.1
    return TrainConfig(
        objective=BoundSpec(BoundKind.INVKL, kappa=1.0, delta=0.025),
        lr_schedule=((60, lr), (15, lr / 5.0)),
        momentum=0.5,
        batch_size=1000,
        repeats=10,
        seed=seed,
        phase=phase,
    )


def heldout_error(model, hold, seed: int) -> float:
    rng = RngStream(seed).child("heldout")
    sigmas, sizes = model.sigmas(), row_magnitudes(hold.inputs)
    errs = [
        exact_misclassification(
            model, hold.inputs, hold.labels, sample_full(model, rng.child("d", k), sigmas), sizes
        )
        for k in range(DESK_HOLDOUT_DRAWS)
    ]
    return float(np.mean(errs))


@dataclass
class SeedResult:
    seed: int
    bound: float
    heldout: float
    baseline_bound: float


@dataclass
class DeskStudy:
    results: list
    condgauss_seconds: float
    model0: StochasticModel
    data0: object
    pen0: float


@pytest.fixture(scope="session")
def desk_study() -> DeskStudy:
    results = []
    condgauss_seconds = 0.0
    model0 = data0 = None
    pen0 = 0.0
    for seed in range(DESK_SEEDS):
        ds, hold = desk_task(seed)

        t0 = time.perf_counter()
        model = desk_model(seed)
        model, _ = train_condgauss(model, ds, desk_train_config(seed, "posterior"))
        cert = final_certificate(
            model, ds, DESK_CERT_DRAWS, 0.025, 0.01, RngStream(seed).child("cert")
        )
        held = heldout_error(model, hold, seed)
        condgauss_seconds += time.perf_counter() - t0

        bmodel = desk_model(seed)
        bmodel, _ = train_condgauss(bmodel, ds, desk_train_config(seed, "baseline"))
        bcert = final_certificate(
            bmodel, ds, DESK_CERT_DRAWS, 0.025, 0.01, RngStream(seed).child("cert_b")
        )

        results.append(
            SeedResult(seed=seed, bound=cert.final_bound, heldout=held, baseline_bound=bcert.final_bound)
        )
        if seed == 0:
            model0, data0, pen0 = model, ds, cert.pen
    return DeskStudy(
        results=results,
        condgauss_seconds=condgauss_seconds,
        model0=model0,
        data0=data0,
        pen0=pen0,
    )
