"""Built-in numeric validators and diagnostics.

These back the `check` CLI command and double as test oracles: Gaussian
integration-by-parts identities verified by Gauss-Hermite quadrature, the
kl_inv round trip and gradient, estimator unbiasedness against a brute-force
argmax frequency, a finite-difference pass over a toy network objective, the
float32 screen of certification against extended precision, and the
linearization report that justifies treating the non-affine bounds as
almost affine where the error estimate concentrates. Each check of the
battery runs at one fixed seed and size, so `check` prints the same lines
on every run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import gaussian
from .bounds import BoundKind, BoundSpec, kl_bernoulli, kl_inv, kl_inv_grad
from .data import LabelledDataset
from .network import (
    ModelSpec,
    ScoreScreen,
    StochasticModel,
    batch_error_estimate,
    exact_misclassification,
    forward_scores,
    row_magnitudes,
    sample_full,
)
from .rng import RngStream
from .trainer import TrainConfig, batch_gradients

__all__ = [
    "gauss_hermite_normal",
    "stein_identity_gap",
    "price_swap_gaps",
    "TEST_FUNCTIONS",
    "kl_roundtrip_worst",
    "kl_inv_grad_worst",
    "estimator_bias_sigmas",
    "fd_check",
    "toy_objective_fd_error",
    "screened_scoring_worst",
    "LinearizationReport",
    "linearization_report",
    "run_battery",
]


def gauss_hermite_normal(n: int):
    """Nodes z and weights w with E[f(Z)] ~ sum w_i f(z_i) for Z ~ N(0,1)."""
    if n < 2:
        raise ValueError("need at least 2 quadrature nodes")
    x, w = hermgauss(n)
    return math.sqrt(2.0) * x, w / math.sqrt(math.pi)


def _softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# (name, g, g') triples for the integration-by-parts validators.
TEST_FUNCTIONS = (
    ("tanh", np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
    ("square", np.square, lambda x: 2.0 * x),
    ("softplus", _softplus, _sigmoid),
)


def stein_identity_gap(g, gprime, nodes: int = 96) -> float:
    """|E[Z g(Z)] - E[g'(Z)]| by quadrature; zero for well-behaved g."""
    z, w = gauss_hermite_normal(nodes)
    return abs(float(np.sum(w * z * g(z)) - np.sum(w * gprime(z))))


def price_swap_gaps(g, gprime, mean: float, std: float, nodes: int = 96):
    """Derivative/expectation swap for X = std*Z + mean.

    Compares central finite differences (step 1e-5) of the quadrature value
    of E[g(std Z + mean)] in mean and std against the quadrature values of
    E[g'(X)] and E[Z g'(X)]. Returns (gap_mean, gap_std).
    """
    z, w = gauss_hermite_normal(nodes)
    step = 1e-5

    def expect(m, s):
        return float(np.sum(w * g(s * z + m)))

    fd_m = (expect(mean + step, std) - expect(mean - step, std)) / (2.0 * step)
    fd_s = (expect(mean, std + step) - expect(mean, std - step)) / (2.0 * step)
    swap_m = float(np.sum(w * gprime(std * z + mean)))
    swap_s = float(np.sum(w * z * gprime(std * z + mean)))
    return abs(fd_m - swap_m), abs(fd_s - swap_s)


def kl_roundtrip_worst() -> float:
    """Worst |kl(u || kl_inv(u,c)) - c| over 1000 random (u, c), interior
    results only."""
    gen = RngStream(0).child("roundtrip").generator()
    u = gen.uniform(0.001, 0.999, 1000)
    c = gen.uniform(1e-6, 1.0, 1000)
    worst = 0.0
    for ui, ci in zip(u, c):
        v = kl_inv(float(ui), float(ci))
        if v < 1.0 - 1e-7:
            worst = max(worst, abs(kl_bernoulli(float(ui), v) - ci))
    return worst


def kl_inv_grad_worst() -> float:
    """Worst relative error of the closed-form kl_inv gradient against
    central finite differences (step 1e-6) at 100 random interior points."""
    gen = RngStream(0).child("klgrad").generator()
    us = gen.uniform(0.02, 0.95, 100)
    cs = gen.uniform(1e-3, 0.5, 100)
    step = 1e-6
    worst = 0.0
    for u, c in zip(us, cs):
        u, c = float(u), float(c)
        du, dc = kl_inv_grad(u, c)
        fd_u = (kl_inv(u + step, c) - kl_inv(u - step, c)) / (2.0 * step)
        fd_c = (kl_inv(u, c + step) - kl_inv(u, c - step)) / (2.0 * step)
        worst = max(
            worst,
            abs(du - fd_u) / max(abs(fd_u), 1e-12),
            abs(dc - fd_c) / max(abs(fd_c), 1e-12),
        )
    return worst


def estimator_bias_sigmas() -> float:
    """How many joint standard errors separate the L1/L2 means from the
    brute-force argmax-frequency oracle on a random 3-class head, 200 000
    draws each. Unbiased estimators stay within a few sigma."""
    q, draws = 3, 200_000
    rng = RngStream(0).child("bias")
    gen = rng.child("head").generator()
    M, V = gen.uniform(-1.0, 1.0, q), gen.uniform(0.2, 2.0, q)
    y = int(gen.integers(1, q + 1))
    freq, se_o = gaussian.argmax_error_frequency(M, V, y, rng.child("oracle"), draws)
    worst = 0.0
    for name, sampler in (("l1", gaussian.l1_samples), ("l2", gaussian.l2_samples)):
        values, _, _ = sampler(M, V, y, rng.child(name), draws)
        se = math.sqrt(max(float(np.var(values)) / draws, 1e-300))
        joint = math.sqrt(se**2 + se_o**2)
        worst = max(worst, abs(float(np.mean(values)) - freq) / joint)
    return worst


def fd_check(fn, point, step: float = 1e-5, coords=None) -> float:
    """Worst relative disagreement between analytic and central-difference
    gradients of a deterministic scalar function.

    ``fn`` maps a list of arrays to (value, grads) with grads aligned to the
    input list; it must be deterministic (freeze all noise outside). ``coords``
    optionally restricts the comparison to (array_index, flat_index) pairs,
    otherwise every coordinate is checked.
    """
    point = [np.asarray(p, dtype=np.float64).copy() for p in point]
    _, grads = fn(point)
    if coords is None:
        coords = [(k, i) for k, p in enumerate(point) for i in range(p.size)]
    worst = 0.0
    for k, i in coords:
        flat = point[k].reshape(-1)
        keep = flat[i]
        flat[i] = keep + step
        up, _ = fn(point)
        flat[i] = keep - step
        down, _ = fn(point)
        flat[i] = keep
        fd = (up - down) / (2.0 * step)
        an = float(np.asarray(grads[k]).reshape(-1)[i])
        denom = max(abs(fd), abs(an), 1e-10)
        worst = max(worst, abs(fd - an) / denom)
    return worst


def _toy_model(seed: int, widths=(6, 5, 3)) -> tuple[StochasticModel, np.ndarray, np.ndarray]:
    """Toy net at a generic operating point.

    The posterior is nudged away from the frozen prior: exactly at the
    initialization every KL derivative vanishes, so finite differences there
    only see rounding noise and the relative-error comparison degenerates.
    """
    rng = RngStream(seed).child("toy")
    model = StochasticModel.initialize(ModelSpec(widths), sigma0=0.05, rng=rng)
    # Nudge sizes keep the total KL around a desk-scale handful regardless of
    # net size, so the penalized objectives sit well inside their smooth
    # regime (kl_inv in particular curves violently near v = 1).
    n = sum(g.w_mean.size + g.b_mean.size for g in model.groups)
    mean_nudge = 0.05 * math.sqrt(8.0 / n)
    rho_width = min(0.15, math.sqrt(5.0 / n))
    for k, g in enumerate(model.groups):
        nudge = rng.child("nudge", k)
        g.w_mean = g.w_mean + mean_nudge * nudge.child("wm").normal(g.w_mean.shape)
        g.b_mean = g.b_mean + mean_nudge * nudge.child("bm").normal(g.b_mean.shape)
        g.w_rho = g.w_rho * nudge.child("wr").uniform(1.0 - rho_width, 1.0 + rho_width, g.w_rho.shape)
        g.b_rho = g.b_rho * nudge.child("br").uniform(1.0 - rho_width, 1.0 + rho_width, g.b_rho.shape)
    gen = rng.child("data").generator()
    x = gen.uniform(0.0, 1.0, (8, widths[0]))
    # Teacher labels from the deterministic mean forward, with every fourth
    # label flipped to the runner-up class. That parks the error estimate in
    # a comfortably interior band: near 0 (all-teacher) or near chance
    # (random labels) the invKL objective curves too hard for a fixed-step
    # finite-difference comparison to be meaningful.
    scores = forward_scores(x, [(g.w_mean, g.b_mean) for g in model.groups], model.spec)
    order = np.argsort(scores, axis=1)
    y = order[:, -1] + 1
    y[::4] = order[::4, -2] + 1
    return model, x, y


def toy_objective_fd_error(
    kind: BoundKind,
    seed: int = 0,
    step: float = 1e-4,
    max_coords: int = 60,
    widths=(6, 5, 3),
) -> float:
    """Finite-difference check of the full batch objective on a toy net.

    Freezes the noise keys, evaluates the gradient of the chosen bound
    objective that a posterior training step descends (``batch_gradients``
    at 3 repeats, lbd at lambda = 0.5), and compares a sampled subset of
    coordinates against central differences of the same frozen-noise
    forward pass. The penalty takes a bound-dataset size of 4000: a
    desk-realistic value keeps kl_inv away from its saturated v=1 regime
    where every gradient vanishes.
    """
    model, x, y = _toy_model(seed, widths)
    spec = BoundSpec(kind=kind, kappa=1.0, delta=0.025, lam=0.5 if kind == BoundKind.LBD else None)
    noise_rng = RngStream(seed).child("noise")

    state0 = model.get_state()
    prior = gaussian.prior_terms(model.groups)
    config = TrainConfig(objective=spec, lr_schedule=(), repeats=3)

    def fn(point):
        model.set_state(point)
        obj, _, _, grads = batch_gradients(model, config, 4000, prior, x, y, noise_rng, spec.lam)
        return obj, grads

    gen = RngStream(seed).child("coords").generator()
    flat_sizes = [a.size for a in state0]
    total = sum(flat_sizes)
    picks = gen.choice(total, size=min(max_coords, total), replace=False)
    coords = []
    for p in sorted(int(v) for v in picks):
        k = 0
        while p >= flat_sizes[k]:
            p -= flat_sizes[k]
            k += 1
        coords.append((k, p))
    try:
        return fd_check(fn, state0, step=step, coords=coords)
    finally:
        model.set_state(state0)


def screened_scoring_worst() -> tuple[float, int]:
    """The float32 screen of ``exact_misclassification`` on two toy nets,
    50 draws of each on 200 rows.

    Returns the worst ratio, over rows and classes, of |s32 - s_ref| +
    |s64 - s_ref| to the screen's bound E, with s_ref the forward in extended
    precision (np.longdouble), and how many draws' error counts differ from
    one float64 forward's. Every other draw gives output classes 1 and 2 the
    same weights, so exact ties reach the float64 fallback. A sound screen
    has a ratio of at most 1 and no differing draw.
    """
    draws, m = 50, 200
    worst, differ = 0.0, 0
    for k, widths in enumerate(((6, 5, 3), (20, 64, 32, 5))):
        rng = RngStream(0).child("screen", k)
        model = StochasticModel.initialize(ModelSpec(widths), sigma0=0.05, rng=rng.child("model"))
        spec = model.spec
        x = rng.child("x").uniform(0.0, 1.0, (m, widths[0]))
        y = rng.child("y").generator().integers(1, widths[-1] + 1, m)
        x32 = x.astype(np.float32)
        sizes = row_magnitudes(x)
        wide_x = x.astype(np.longdouble)
        sigmas = model.sigmas()
        for n in range(draws):
            theta = sample_full(model, rng.child("draw", n), sigmas)
            if n % 2:
                W, b = theta[-1]
                W[1], b[1] = W[0], b[0]
            screen = ScoreScreen(theta, spec)
            bound, _ = screen.tolerance(sizes)
            s64 = forward_scores(x, theta, spec)
            wide = [(W.astype(np.longdouble), b.astype(np.longdouble)) for W, b in theta]
            ref = forward_scores(wide_x, wide, spec)
            gap = np.abs(forward_scores(x32, screen.theta32, spec) - ref) + np.abs(s64 - ref)
            worst = float(np.maximum(worst, np.max(gap / bound)))  # NaN stays NaN
            count = np.count_nonzero(gaussian.misclassified(s64, y - 1))
            differ += int(exact_misclassification(model, x, y, theta, sizes) != count / m)
    return worst, differ


@dataclass
class LinearizationReport:
    """Distribution of the error estimate and local bound-slope variation.

    ``rel_variation`` is the largest relative change of the invKL bound's
    slope (d bound / d estimate) across mean +- 2 empirical standard
    deviations; small values mean the bound is effectively affine where the
    estimate concentrates, so its stochastic gradients are almost unbiased.
    """

    mean: float
    std: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray
    slope_mid: float
    slope_lo: float
    slope_hi: float
    rel_variation: float


def linearization_report(
    model: StochasticModel,
    dataset: LabelledDataset,
    pen: float,
    rng: RngStream,
    redraws: int = 1000,
    repeats: int = 20,
    bins: int = 30,
) -> LinearizationReport:
    """Redraw the error estimate many times and probe the bound's slope.

    Each redraw resamples the hidden parameters and the estimator noise with
    its own child stream. The slope of kl_inv(. | pen) is evaluated at the
    empirical mean and at +-2 standard deviations around it.
    """
    if redraws < 2:
        raise ValueError("need at least 2 redraws")
    values = np.empty(redraws)
    for k in range(redraws):
        values[k] = batch_error_estimate(
            model, dataset.inputs, dataset.labels, rng.child("redraw", k), repeats=repeats
        )
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    counts, edges = np.histogram(values, bins=bins)
    lo = min(max(mean - 2.0 * std, 1e-9), 1.0 - 1e-9)
    hi = min(max(mean + 2.0 * std, 1e-9), 1.0 - 1e-9)
    slope_mid = kl_inv_grad(mean, pen)[0]
    slope_lo = kl_inv_grad(lo, pen)[0]
    slope_hi = kl_inv_grad(hi, pen)[0]
    rel = max(abs(slope_lo - slope_mid), abs(slope_hi - slope_mid)) / abs(slope_mid)
    return LinearizationReport(
        mean=mean,
        std=std,
        hist_counts=counts,
        hist_edges=edges,
        slope_mid=slope_mid,
        slope_lo=slope_lo,
        slope_hi=slope_hi,
        rel_variation=rel,
    )


def run_battery():
    """The release-gate checks: name, pass flag, and a one-line detail each."""
    results = []

    worst = kl_roundtrip_worst()
    results.append(("kl_inv_round_trip", worst < 1e-8, f"worst |kl(u||v)-c| = {worst:.3e}"))

    worst = kl_inv_grad_worst()
    results.append(("kl_inv_gradient", worst < 1e-5, f"worst rel err = {worst:.3e}"))

    worst = 0.0
    for _, g, gp in TEST_FUNCTIONS:
        worst = max(worst, stein_identity_gap(g, gp))
    results.append(("stein_identity", worst < 1e-6, f"worst gap = {worst:.3e}"))

    worst = 0.0
    for _, g, gp in TEST_FUNCTIONS:
        for mean, std in ((0.3, 0.8), (-0.5, 1.3)):
            worst = max(worst, *price_swap_gaps(g, gp, mean, std))
    results.append(("price_derivative_swap", worst < 1e-6, f"worst gap = {worst:.3e}"))

    sig = estimator_bias_sigmas()
    results.append(("estimator_unbiasedness", sig < 5.0, f"bias = {sig:.2f} joint std errs"))

    for kind in BoundKind:
        err = toy_objective_fd_error(kind)
        results.append(
            (f"gradient_fd_{kind.value}", err < 1e-4, f"worst rel err = {err:.3e}")
        )

    ratio, differ = screened_scoring_worst()
    results.append(
        (
            "screened_scoring",
            ratio <= 1.0 and differ == 0,
            f"worst float error / bound = {ratio:.3e}, {differ} draw counts differ",
        )
    )
    return results
