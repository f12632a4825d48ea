"""Gaussian primitives for conditionally Gaussian classifiers.

Covers the |rho|^(3/2) deviation parametrization, parameter sampling, the
conditional output moments of the last linear layer, the closed-form binary
error probability, the two unbiased Monte-Carlo estimators of the multiclass
error probability (with their exact pathwise gradients in M and V), the 0-1
error of sampled scores, and the diagonal-Gaussian KL divergence between
posterior and frozen prior (with its partials in the means and deviations).
Training, certification and the validators all call these single
implementations.

``std_normal_cdf`` is the one place that touches scipy: it imports
``scipy.special.ndtr`` at its first call, so training, ``check`` and the
estimators load scipy at their first normal-CDF evaluation, while importing
the package and certifying a saved model (the ``certify`` and ``eval``
commands) run on numpy alone.

Classes are numbered from 1 throughout, matching the label convention of the
datasets module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream

__all__ = [
    "GaussianParamGroup",
    "std_normal_cdf",
    "std_normal_pdf",
    "binary_error_prob",
    "l1_dense",
    "l1_draws",
    "l1_samples",
    "l2_samples",
    "argmax_error_frequency",
    "misclassified",
    "conditional_moments",
    "dsigma_of_rho",
    "kl_diag_gauss",
    "kl_sum",
    "prior_terms",
    "sigma_of_rho",
    "sample_gaussian",
    "TRAINABLE",
    "VARIANCE_FLOOR",
]

# A layer's trainable arrays, each a GaussianParamGroup field, in the order
# every state list, tape leaf list, momentum buffer and snapshot walks them.
TRAINABLE = ("w_mean", "w_rho", "b_mean", "b_rho")

# Conditional variances are clamped here before any division or square root;
# training could drive the bias deviations toward zero otherwise.
VARIANCE_FLOOR = 1e-12


def std_normal_cdf(t):
    """Standard normal CDF psi(t) = (1 + erf(t/sqrt(2))) / 2, vectorized."""
    # Imported here, not at module level: scipy.special is slow and large to
    # load, and certification never evaluates the CDF.
    from scipy.special import ndtr

    return ndtr(t)


def std_normal_pdf(t):
    return np.exp(-0.5 * np.square(t)) / math.sqrt(2.0 * math.pi)


def sigma_of_rho(rho):
    """Deviation sigma = |rho|^(3/2); works on scalars and arrays."""
    sigma = np.abs(np.asarray(rho, dtype=np.float64)) ** 1.5
    return float(sigma) if sigma.ndim == 0 else sigma


def dsigma_of_rho(rho):
    """d sigma / d rho = (3/2) sqrt(|rho|) sign(rho), taken as 0 at rho = 0."""
    rho = np.asarray(rho, dtype=np.float64)
    dsigma = 1.5 * np.sqrt(np.abs(rho)) * np.sign(rho)
    return float(dsigma) if dsigma.ndim == 0 else dsigma


@dataclass
class GaussianParamGroup:
    """Means and raw deviations for one layer's weight matrix and bias.

    The actual deviations are always derived as sigma = |rho|^(3/2), never
    stored. Prior copies (means and sigmas) are populated by freeze_prior and
    made read-only; the KL divergence is computed against them.
    """

    w_mean: np.ndarray
    w_rho: np.ndarray
    b_mean: np.ndarray
    b_rho: np.ndarray
    prior_w_mean: np.ndarray | None = field(default=None, repr=False)
    prior_w_sigma: np.ndarray | None = field(default=None, repr=False)
    prior_b_mean: np.ndarray | None = field(default=None, repr=False)
    prior_b_sigma: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in TRAINABLE:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.w_mean.shape != self.w_rho.shape:
            raise ValueError("w_mean and w_rho shapes differ")
        if self.b_mean.shape != self.b_rho.shape:
            raise ValueError("b_mean and b_rho shapes differ")
        if self.w_mean.ndim != 2 or self.b_mean.ndim != 1:
            raise ValueError("weights must be 2-D and biases 1-D")
        if self.w_mean.shape[0] != self.b_mean.shape[0]:
            raise ValueError("weight rows and bias length differ")

    @property
    def out_dim(self) -> int:
        return self.w_mean.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w_mean.shape[1]

    @property
    def w_sigma(self) -> np.ndarray:
        return sigma_of_rho(self.w_rho)

    @property
    def b_sigma(self) -> np.ndarray:
        return sigma_of_rho(self.b_rho)

    @property
    def prior_frozen(self) -> bool:
        return self.prior_w_mean is not None

    def freeze_prior(self) -> None:
        """Copy the current means and sigmas into the read-only prior slots."""
        for name, arr in (
            ("prior_w_mean", self.w_mean.copy()),
            ("prior_w_sigma", self.w_sigma),
            ("prior_b_mean", self.b_mean.copy()),
            ("prior_b_sigma", self.b_sigma),
        ):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            setattr(self, name, arr)


def sample_gaussian(w_mean, w_sigma, b_mean, b_sigma, rng: RngStream):
    """One pathwise draw of a layer, (W, b) = mean + sigma * zeta, with zeta
    from rng's "w" and "b" children; training and certification both draw
    through here. Returns (W, b, zeta_w, zeta_b), the zetas for chaining
    gradients in (mean, rho) through the draw."""
    zeta_w = rng.child("w").normal(np.shape(w_mean))
    zeta_b = rng.child("b").normal(np.shape(b_mean))
    return w_mean + w_sigma * zeta_w, b_mean + b_sigma * zeta_b, zeta_w, zeta_b


def conditional_moments(phi, w_mean, b_mean, w_var, b_var):
    """Output moments given the activated last-hidden values ``phi`` of any
    leading shape, and the layer's weight and bias means and variances:

    M = phi W_mean^T + b_mean
    V = phi^2 (sigma_W^2)^T + sigma_b^2, floored at VARIANCE_FLOOR

    Returns (M, V, phi^2); the training head reuses phi^2 in its backward.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[-1] != w_mean.shape[1]:
        raise ValueError(
            f"activation length {phi.shape[-1]} does not match layer fan-in {w_mean.shape[1]}"
        )
    M = phi @ w_mean.T
    M += b_mean
    phi2 = np.square(phi)
    V = phi2 @ w_var.T
    V += b_var
    np.maximum(V, VARIANCE_FLOOR, out=V)
    return M, V, phi2


def binary_error_prob(M, V, y: int) -> float:
    """Exact conditional misclassification probability for q = 2.

    For y = 1 this is psi((M2 - M1) / sqrt(V1 + V2)); y = 2 is symmetric.
    """
    M, V, y0 = _check_head_label(M, V, y)
    if M.size != 2:
        raise ValueError("binary_error_prob needs exactly 2 classes")
    diff = M[1 - y0] - M[y0]
    return float(std_normal_cdf(diff / math.sqrt(V[0] + V[1])))


def l1_draws(M, V, y0, zeta):
    """Draws of the L1 estimator with exact (M, V) gradients, over any
    leading axes.

    L1 = psi((max_{i != y} F_i - M_y) / sqrt(V_y)) with F = M + sqrt(V) zeta,
    so only the i != y draws matter. M and V are [..., q] with V > 0, y0
    holds 0-based labels of shape M.shape[:-1], and zeta holds the draws'
    full shape: M's, or M's with extra leading axes for repeats.

    A draw's gradient is nonzero in two classes only: the sampled argmax j
    of the i != y draws and the true class y. Returns per-draw (values
    [...], idx [2, ...], dM [2, ...], dV [2, ...]) in zeta's leading shape,
    where idx[0] and idx[1] are the flat positions in M (row offset plus
    class) of j and y, and dM, dV the gradient entries there; ``l1_dense``
    expands them to full arrays. The max is differentiated through its
    sampled argmax (ties break to the lowest index, an event of probability
    zero). Every gather goes through flat indices into one F buffer.
    """
    M = np.asarray(M)
    q = M.shape[-1]
    sqv = np.sqrt(V)
    F = sqv * zeta
    F += M
    shape = F.shape[:-1]
    rows = np.arange(0, F.size, q).reshape(shape)
    mrows = np.arange(0, M.size, q).reshape(M.shape[:-1])
    y_at = mrows + y0
    F_flat = F.reshape(-1)
    F_flat[rows + y0] = -np.inf
    j = np.argmax(F, axis=-1)
    j_at = rows + j
    idx = np.empty((2,) + shape, dtype=np.intp)
    np.add(mrows, j, out=idx[0])
    idx[1] = y_at
    sy = sqv.reshape(-1)[y_at]
    z = F_flat[j_at]
    z -= M.reshape(-1)[y_at]
    z /= sy
    dens = std_normal_pdf(z)
    dM = np.empty((2,) + shape)
    dV = np.empty((2,) + shape)
    np.divide(dens, sy, out=dM[0])
    np.multiply(dM[0], zeta.reshape(-1)[j_at], out=dV[0])
    dV[0] /= 2.0 * sqv.reshape(-1)[idx[0]]
    neg_dens = np.negative(dens)
    np.divide(neg_dens, sy, out=dM[1])
    np.multiply(neg_dens, z, out=dV[1])
    dV[1] /= 2.0 * np.asarray(V).reshape(-1)[y_at]
    return std_normal_cdf(z), idx, dM, dV


def l1_dense(idx, entries, size: int) -> np.ndarray:
    """Per-draw [..., size] gradient from the two (flat position, entry)
    pairs per draw returned by ``l1_draws``; every other position gets 0."""
    out = np.zeros(idx.shape[1:] + (size,))
    for k in range(2):
        np.put_along_axis(out, idx[k][..., None], entries[k][..., None], axis=-1)
    return out


def l1_samples(M, V, y: int, rng: RngStream, n: int = 1):
    """n independent draws of the L1 estimator with exact (M, V) gradients:
    (values [n], dM [n, q], dV [n, q]); see ``l1_draws``."""
    M, V, y0 = _check_head_label(M, V, y)
    values, idx, dM, dV = l1_draws(M, V, y0, rng.normal((n, M.size)))
    return values, l1_dense(idx, dM, M.size), l1_dense(idx, dV, M.size)


def l2_samples(M, V, y: int, rng: RngStream, n: int = 1):
    """n independent draws of the L2 estimator with exact (M, V) gradients.

    L2 = 1 - prod_{i != y} psi((F_y - M_i) / sqrt(V_i)) with only F_y sampled.
    Returns (values [n], dM [n, q], dV [n, q]).
    """
    M, V, y0 = _check_head_label(M, V, y)
    q = M.size
    zeta = rng.normal(n)
    sqv = np.sqrt(V)
    fy = M[y0] + sqv[y0] * zeta
    u = (fy[:, None] - M[None, :]) / sqv[None, :]
    psi_u = std_normal_cdf(u)
    psi_u[:, y0] = 1.0
    # Leave-one-out products via prefix/suffix cumulative products; the naive
    # full-product / psi_u ratio is unstable when a factor underflows to 0.
    left = np.ones_like(psi_u)
    right = np.ones_like(psi_u)
    left[:, 1:] = np.cumprod(psi_u[:, :-1], axis=1)
    right[:, :-1] = np.cumprod(psi_u[:, :0:-1], axis=1)[:, ::-1]
    loo = left * right
    prod = left[:, -1] * psi_u[:, -1]
    values = 1.0 - prod
    dens = std_normal_pdf(u)
    dens[:, y0] = 0.0
    w = loo * dens / sqv[None, :]
    dfy = -np.sum(w, axis=1)
    dM = w.copy()
    dV = w * u / (2.0 * sqv[None, :])
    dM[:, y0] = dfy
    dV[:, y0] = dfy * zeta / (2.0 * sqv[y0])
    return values, dM, dV


def argmax_error_frequency(M, V, y: int, rng: RngStream, n: int):
    """Brute-force misclassification frequency over n full output draws.

    Samples F ~ N(M, diag(V)) and counts draws where the true class fails to
    be the strict maximum (ties count as errors). Returns (frequency,
    standard_error). Independent of the psi-based estimators; used as their
    unbiasedness oracle. The standard error is the Beta(k+1, n-k+1)
    posterior deviation, which agrees with sqrt(p(1-p)/n) away from the
    endpoints but stays honest (nonzero) when every draw lands on one side.
    """
    M, V, y0 = _check_head_label(M, V, y)
    zeta = rng.normal((n, M.size))
    k = int(np.sum(misclassified(M + np.sqrt(V) * zeta, y0)))
    freq = k / n
    a, b = k + 1.0, n - k + 1.0
    se = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    return freq, se


def misclassified(scores, y0) -> np.ndarray:
    """Per-row 0-1 errors of class scores [..., q] against 0-based labels y0.

    A row is correct only when its true class is the strict maximum: ties
    count as errors, and so does any non-finite score in the comparison.
    """
    y = np.broadcast_to(np.asarray(y0)[..., None], scores.shape[:-1] + (1,))
    fy = np.take_along_axis(scores, y, axis=-1)[..., 0]
    others = np.array(scores, dtype=np.float64)
    np.put_along_axis(others, y, -np.inf, axis=-1)
    return ~(fy > others.max(axis=-1))


def prior_terms(groups):
    """Each group's frozen prior as a (mean, sigma, log sigma) triple for its
    weights and one for its bias: a training call takes it once, since its
    prior stays fixed."""
    return [
        (
            (g.prior_w_mean, g.prior_w_sigma, np.log(g.prior_w_sigma)),
            (g.prior_b_mean, g.prior_b_sigma, np.log(g.prior_b_sigma)),
        )
        for g in groups
    ]


def kl_sum(layers, prior):
    """KL(Q||P) of diagonal Gaussians, from each layer's (w_mean, w_sigma,
    b_mean, b_sigma) and its ``prior_terms``, with the partials of the KL in
    every mean and sigma array.

    Per array, 0.5 sum (s^2 - st^2)/st^2 + 0.5 sum ((m - mt)/st)^2 +
    sum log(st/s), tilde quantities the prior's, each sum added to the total
    in turn. Returns (total, partials), the partials one (d/dmean, d/dsigma)
    pair per array: weights, then bias, layer by layer.
    """
    total = 0.0
    partials = []
    for (w_mean, w_sigma, b_mean, b_sigma), (w_prior, b_prior) in zip(layers, prior):
        for mean, sigma, (pmean, psigma, log_psigma) in (
            (w_mean, w_sigma, w_prior),
            (b_mean, b_sigma, b_prior),
        ):
            r2m1 = sigma / psigma
            np.square(r2m1, out=r2m1)
            r2m1 -= 1.0
            shift = (mean - pmean) / psigma
            total += 0.5 * float(np.sum(r2m1))
            total += 0.5 * float(np.sum(np.square(shift)))
            total += float(np.sum(log_psigma - np.log(sigma)))
            shift /= psigma
            r2m1 /= sigma
            partials.append((shift, r2m1))
    return total, partials


def kl_diag_gauss(groups) -> float:
    """KL(Q||P) for diagonal Gaussians, summed over every parameter by
    ``kl_sum`` and clamped at 0 against rounding."""
    layers = []
    for g in groups:
        if not g.prior_frozen:
            raise ValueError("prior must be frozen before computing KL(Q||P)")
        w_sigma, b_sigma = g.w_sigma, g.b_sigma
        for sigma, psigma in ((w_sigma, g.prior_w_sigma), (b_sigma, g.prior_b_sigma)):
            if np.any(sigma <= 0):
                raise ValueError("posterior sigma must be strictly positive")
            if np.any(psigma <= 0):
                raise ValueError("prior sigma must be strictly positive")
        layers.append((g.w_mean, w_sigma, g.b_mean, b_sigma))
    return max(kl_sum(layers, prior_terms(groups))[0], 0.0)


def _check_head_label(M, V, y: int):
    """A single head's (M, V) as float64 arrays, V floored at VARIANCE_FLOOR,
    and the 0-based label; a batched or mismatched head, fewer than two
    classes, a variance that is not positive, or a label outside 1..q is a
    ValueError."""
    M = np.asarray(M, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if M.ndim != 1 or M.shape != V.shape:
        raise ValueError(f"a head is one M and one V of equal 1-D shape, got {M.shape}, {V.shape}")
    if M.size < 2:
        raise ValueError("a conditional head needs at least two classes")
    if not np.all(V > 0):
        raise ValueError("conditional variances must be strictly positive")
    if not 1 <= y <= M.size:
        raise ValueError(f"label {y} outside 1..{M.size}")
    return M, np.maximum(V, VARIANCE_FLOOR), y - 1
