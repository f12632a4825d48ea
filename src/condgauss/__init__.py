"""Direct PAC-Bayes bound minimization for stochastic Gaussian classifiers.

The library trains conditionally Gaussian networks by descending an
estimated generalization bound itself (no surrogate loss) and produces a
mathematically valid certificate for the trained posterior.
"""
from .bounds import (
    BoundKind,
    BoundSpec,
    kl_bernoulli,
    kl_inv,
    kl_inv_grad,
    objective_value,
    penalty,
)
from .certify import Certificate, final_certificate, inner_bound, mc_empirical_error
from .data import LabelledDataset, load_mnist_idx, split_prior_bound, synth_blobs
from .gaussian import (
    ConditionalHead,
    GaussianParamGroup,
    binary_error_prob,
    conditional_moments,
    kl_diag_gauss,
    sample_gaussian,
    sigma_of_rho,
    std_normal_cdf,
)
from .grad import Tape, Tensor, fd_check
from .network import (
    ModelSpec,
    StochasticModel,
    apply_dropout,
    batch_error_estimate,
    exact_misclassification,
    load_model,
    save_model,
)
from .rng import RngStream
from .trainer import TrainConfig, TrainLog, TrainingDiverged, train_condgauss

__version__ = "0.1.0"
