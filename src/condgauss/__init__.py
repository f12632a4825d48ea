"""Direct PAC-Bayes bound minimization for stochastic Gaussian classifiers.

The library trains conditionally Gaussian networks by descending an
estimated generalization bound itself (no surrogate loss) and produces a
mathematically valid certificate for the trained posterior.

The package root re-exports the names that build, train and certify a
model; every other name is imported from its submodule.
"""
from .bounds import BoundKind, BoundSpec
from .certify import final_certificate
from .data import synth_blobs
from .network import ModelSpec, StochasticModel
from .rng import RngStream
from .trainer import TrainConfig, train_condgauss

__version__ = "0.1.0"
