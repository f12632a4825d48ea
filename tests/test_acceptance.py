"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see them. The 20-seed desk study behind criteria 8, 9, and 11 is built
once per session (see conftest).
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from condgauss.bounds import BoundKind, BoundSpec, kl_bernoulli, kl_inv, kl_inv_grad, objective_value
from condgauss.checks import (
    TEST_FUNCTIONS,
    linearization_report,
    price_swap_gaps,
    stein_identity_gap,
    toy_objective_fd_error,
)
from condgauss.cli import main, parse_config
from condgauss.gaussian import argmax_error_frequency, binary_error_prob, l1_samples, l2_samples
from condgauss.rng import RngStream

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_kl_inv_round_trip():
    gen = np.random.default_rng(2024)
    us = gen.uniform(0.001, 0.999, 1000)
    cs = gen.uniform(1e-6, 1.0, 1000)
    t0 = time.perf_counter()
    worst = 0.0
    interior = 0
    for u, c in zip(us, cs):
        v = kl_inv(float(u), float(c))
        if v < 1.0 - 1e-7:
            interior += 1
            worst = max(worst, abs(kl_bernoulli(float(u), v) - float(c)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    assert report(
        1, ok, f"worst |kl(u||v)-c| = {worst:.2e} over {interior} interior points in {elapsed:.3f}s"
    )


def test_criterion_02_table1_anchor():
    inner = kl_inv(0.0356, math.log(2.0 / 0.01) / 150000)
    outer = kl_inv(inner, 0.0556)
    ok = abs(outer - 0.1355) <= 2e-3
    assert report(2, ok, f"inner = {inner:.5f}, nested bound = {outer:.5f} (target 0.1355 +- 0.002)")


def test_criterion_03_kl_inv_gradients():
    gen = np.random.default_rng(77)
    worst = 0.0
    step = 1e-6
    for _ in range(100):
        u = float(gen.uniform(0.02, 0.95))
        c = float(gen.uniform(1e-3, 0.5))
        du, dc = kl_inv_grad(u, c)
        fd_u = (kl_inv(u + step, c) - kl_inv(u - step, c)) / (2 * step)
        fd_c = (kl_inv(u, c + step) - kl_inv(u, c - step)) / (2 * step)
        worst = max(worst, abs(du - fd_u) / abs(fd_u), abs(dc - fd_c) / abs(fd_c))
    ok = worst < 1e-5
    assert report(3, ok, f"worst relative error vs central differences = {worst:.2e}")


@pytest.mark.slow
def test_criterion_04_estimator_unbiasedness():
    t0 = time.perf_counter()
    draws = 1_000_000
    gen = np.random.default_rng(404)
    worst_sig = 0.0
    worst_binary = 0.0
    head_idx = 0
    for q in (2, 3, 5, 10):
        for _ in range(5):
            head = gen.uniform(-1.5, 1.5, q), gen.uniform(0.1, 2.0, q)
            y = int(gen.integers(1, q + 1))
            rng = RngStream(5000 + head_idx)
            freq, se_o = argmax_error_frequency(*head, y, rng.child("oracle"), draws)
            for name, sampler in (("l1", l1_samples), ("l2", l2_samples)):
                vals, _, _ = sampler(*head, y, rng.child(name), draws)
                se = max(float(vals.std()) / math.sqrt(draws), 1e-12)
                joint = math.hypot(se, se_o)
                worst_sig = max(worst_sig, abs(float(vals.mean()) - freq) / joint)
                if q == 2:
                    exact = binary_error_prob(*head, y)
                    worst_binary = max(worst_binary, abs(float(vals.mean()) - exact) / max(se, 1e-12))
            head_idx += 1
    elapsed = time.perf_counter() - t0
    ok = worst_sig <= 4.0 and worst_binary <= 4.0 and elapsed < 120.0
    assert report(
        4,
        ok,
        f"20 heads x 1e6 draws: worst oracle gap {worst_sig:.2f} sigma, "
        f"worst binary gap {worst_binary:.2f} sigma, {elapsed:.0f}s",
    )


def test_criterion_05_end_to_end_gradients():
    errs = {}
    for kind in (BoundKind.INVKL, BoundKind.MCALL):
        errs[kind.value] = toy_objective_fd_error(
            kind, seed=5, widths=(784, 20, 10), max_coords=200, step=1e-4
        )
    ok = all(e < 1e-4 for e in errs.values())
    assert report(
        5,
        ok,
        "784-20-10 net, 200 sampled coordinates: "
        + ", ".join(f"{k} rel err {v:.2e}" for k, v in errs.items()),
    )


def test_criterion_06_stein_and_price():
    worst = 0.0
    for name, g, gp in TEST_FUNCTIONS:
        worst = max(worst, stein_identity_gap(g, gp, nodes=96))
        for mean, std in ((0.3, 0.8), (-0.5, 1.3)):
            worst = max(worst, *price_swap_gaps(g, gp, mean, std, nodes=96))
    ok = worst < 1e-6
    assert report(6, ok, f"worst Stein/Price gap over tanh, x^2, softplus = {worst:.2e}")


def test_criterion_07_bound_ordering():
    lams = np.linspace(0.001, 0.999, 999)
    worst_slack = math.inf
    for e in np.linspace(0.0, 1.0, 50):
        for pen in np.linspace(0.0, 0.5, 50):
            inv = objective_value(e, pen, BoundSpec(BoundKind.INVKL))
            competitors = [
                objective_value(e, pen, BoundSpec(BoundKind.MCALL)),
                objective_value(e, pen, BoundSpec(BoundKind.QUAD)),
            ]
            if pen > 0:
                competitors.append(float(np.min((e + pen / lams) / (1.0 - lams / 2.0))))
            worst_slack = min(worst_slack, min(competitors) - inv)
    ok = worst_slack >= -1e-9
    assert report(7, ok, f"min(other bounds) - invKL >= {worst_slack:.2e} on the 50x50 grid")


@pytest.mark.slow
def test_criterion_08_desk_scale_training(desk_study):
    bounds = [r.bound for r in desk_study.results]
    violations = sum(r.heldout > r.bound for r in desk_study.results)
    ok = (
        all(b < 0.5 for b in bounds)
        and violations <= 1
        and desk_study.condgauss_seconds < 900.0
    )
    assert report(
        8,
        ok,
        f"20 seeds: max bound {max(bounds):.4f} (< 0.5), held-out violations {violations}/20, "
        f"{desk_study.condgauss_seconds:.0f}s",
    )


@pytest.mark.slow
def test_criterion_09_method_comparison(desk_study):
    wins = sum(r.bound <= r.baseline_bound for r in desk_study.results)
    ok = wins >= 0.6 * len(desk_study.results)
    mean_g = float(np.mean([r.bound for r in desk_study.results]))
    mean_s = float(np.mean([r.baseline_bound for r in desk_study.results]))
    assert report(
        9,
        ok,
        f"certified bound condgauss <= surrogate in {wins}/20 seeds "
        f"(means {mean_g:.3f} vs {mean_s:.3f})",
    )


def test_criterion_10_full_scale_recipe_documented(tmp_path):
    # Tables 1-3 / Figure 2 are not desk-reproducible; the artifact instead
    # ships a documented long-running MNIST recipe whose config must parse.
    recipe = REPO_ROOT / "configs" / "mnist_invkl.cfg"
    readme = (REPO_ROOT / "README.md").read_text()
    text = recipe.read_text()
    data_dir = tmp_path / "data" / "mnist"
    data_dir.mkdir(parents=True)
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
        (data_dir / name).write_bytes(b"")
    patched = tmp_path / "mnist_invkl.cfg"
    patched.write_text(text.replace("data/mnist", str(data_dir)))
    cfg = parse_config(patched)
    ok = (
        cfg.spec.layer_widths == (784, 200, 10)
        and cfg.posterior_train.objective.kind.value == "invkl"
        and cfg.posterior_train.objective.kappa == 1.0
        and "mnist_invkl.cfg" in readme
        and "0.35" in readme
    )
    assert report(
        10,
        ok,
        "MNIST 784-200-10 invKL recipe config parses and is documented in the README "
        "(advisory target: certified bound < 0.35)",
    )


@pytest.mark.slow
def test_criterion_11_linearization_diagnostic(desk_study):
    rep = linearization_report(
        desk_study.model0,
        desk_study.data0,
        pen=desk_study.pen0,
        rng=RngStream(808),
        redraws=1000,
        repeats=20,
        bins=30,
    )
    ok = math.isfinite(rep.rel_variation) and rep.rel_variation < 0.10 and rep.hist_counts.sum() == 1000
    assert report(
        11,
        ok,
        f"1000 redraws: mean {rep.mean:.4f}, std {rep.std:.4f}, "
        f"bound-slope variation over +-2 sd = {rep.rel_variation:.4%} (< 10%)",
    )


DETERMINISM_CONFIG = """\
[data]
source = synth
classes = 3
per_class = 50
dim = 8
separation = 0.8

[model]
widths = 8 32 3
sigma0 = 0.01

[posterior]
method = condgauss
objective = invkl
kappa = 1.0
schedule = 5:0.002
momentum = 0.5
batch_size = 75
repeats = 5

[certify]
n_draws = 30
delta = 0.025
delta_prime = 0.01

[run]
seed = 17
output_dir = {out}
"""


def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    def run(tag, threads):
        out = tmp_path / f"out_{tag}"
        cfg = tmp_path / f"run_{tag}.cfg"
        cfg.write_text(DETERMINISM_CONFIG.format(out=out))
        monkeypatch.setenv("CONDGAUSS_THREADS", str(threads))
        assert main(["train", "--config", str(cfg)]) == 0
        rows = (out / "train_posterior.csv").read_text().strip().splitlines()
        numeric = [",".join(r.split(",")[:-1]) for r in rows]  # drop wall-time
        return numeric, (out / "certificate.txt").read_text(), (out / "posterior.model").read_text()

    a = run("a", 1)
    b = run("b", 1)
    c = run("c", 2)
    ok = a == b == c
    assert report(
        12,
        ok,
        "two reruns plus a 2-worker rerun: numeric CSV columns, certificate, "
        "and snapshot are byte-identical",
    )
