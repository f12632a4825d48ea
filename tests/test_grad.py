"""Reverse-mode engine: chain rule, primitives, determinism, the
finite-difference harness, the closed-form KL and L1 nodes against the
chained-primitive subgraphs they replaced, and the averaged-gradient (affine
objective) check against an independent numpy re-implementation."""
import math

import numpy as np
import pytest

from condgauss import grad
from condgauss.bounds import BoundKind, BoundSpec
from condgauss.checks import linearization_report, toy_objective_fd_error
from condgauss.data import synth_blobs
from condgauss.gaussian import VARIANCE_FLOOR, std_normal_cdf, std_normal_pdf
from condgauss.network import (
    ModelSpec,
    StochasticModel,
    batch_error_estimate,
    hidden_forward_on_tape,
    make_leaves,
)
from condgauss.rng import RngStream
from condgauss.trainer import TrainConfig, kl_node, penalized_objective, train_condgauss


# Chained-primitive reference nodes: the closed-form nodes must reproduce
# what these compute step by step through the chain rule.
def _sum_all(a):
    va = a.value
    return grad.Tensor(a.tape, va.sum(), (a,), lambda g: (np.full_like(va, float(g)),))


def _sqrt(a):
    out = np.sqrt(a.value)
    return grad.Tensor(a.tape, out, (a,), lambda g: (0.5 * g / out,))


def _ncdf(a):
    va = a.value
    return grad.Tensor(a.tape, std_normal_cdf(va), (a,), lambda g: (g * std_normal_pdf(va),))


def _chained_kl(leaves, groups):
    """KL(Q||P) of the whole model as a chain of elementwise and sum nodes."""
    total = None
    for lv, g in zip(leaves, groups):
        for mean_leaf, rho_leaf, pmean, psigma in (
            (lv.w_mean, lv.w_rho, g.prior_w_mean, g.prior_w_sigma),
            (lv.b_mean, lv.b_rho, g.prior_b_mean, g.prior_b_sigma),
        ):
            half_inv_ps2 = 0.5 / np.square(psigma)
            sig = grad.sigma_rho(rho_leaf)
            t1 = _sum_all(grad.mul(grad.square(sig), half_inv_ps2))
            t2 = _sum_all(grad.mul(grad.square(grad.sub(mean_leaf, pmean)), half_inv_ps2))
            t3 = _sum_all(grad.log(sig))
            const = float(np.sum(np.log(psigma))) - 0.5 * psigma.size
            part = grad.add(grad.sub(grad.add(t1, t2), t3), const)
            total = part if total is None else grad.add(total, part)
    return total


def _chained_estimate(model, x, y, rng, repeats, tape, leaves):
    """The batch L1 estimate with the head built from gathers, a masked max
    and the normal-CDF primitive."""
    y0 = y - 1
    batch, q = x.shape[0], model.spec.q
    phi_h = hidden_forward_on_tape(tape, leaves, x, rng, model.spec, 0.0)
    last = leaves[-1]
    M = grad.linear(phi_h, last.w_mean, last.b_mean)
    V = grad.linear(
        grad.square(phi_h),
        grad.square(grad.sigma_rho(last.w_rho)),
        grad.square(grad.sigma_rho(last.b_rho)),
    )
    Vc = grad.maximum_const(V, VARIANCE_FLOOR)
    zeta = rng.child("l1").normal((repeats, batch, q))
    mask = np.zeros((batch, q))
    mask[np.arange(batch), y0] = -1e30
    F = grad.add(M, grad.mul(_sqrt(Vc), zeta))
    fmax = grad.max_last(grad.add(F, mask))
    z = grad.div(grad.sub(fmax, grad.gather_rows(M, y0)), _sqrt(grad.gather_rows(Vc, y0)))
    return grad.mean_all(_ncdf(z))


class TestTapeBasics:
    def test_pathwise_sample_chain_rule(self):
        # theta = m + sigma(rho) * zeta with zeta=0.7, rho=1:
        # dtheta/dm = 1, dtheta/drho = 0.7 * 1.5 = 1.05
        tape = grad.Tape()
        m = tape.leaf(np.array(0.3))
        rho = tape.leaf(np.array(1.0))
        theta = grad.add(m, grad.mul(grad.sigma_rho(rho), 0.7))
        tape.backward(theta)
        assert float(m.grad) == pytest.approx(1.0, abs=1e-15)
        assert float(rho.grad) == pytest.approx(1.05, abs=1e-12)

    def test_constant_objective_zero_gradients(self):
        tape = grad.Tape()
        a = tape.leaf(np.arange(4.0))
        out = grad.mean_all(grad.mul(a, 0.0))
        tape.backward(out)
        np.testing.assert_array_equal(a.grad, np.zeros(4))

    def test_backward_requires_scalar(self):
        tape = grad.Tape()
        a = tape.leaf(np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(grad.mul(a, 2.0))

    def test_fanout_accumulates(self):
        tape = grad.Tape()
        a = tape.leaf(np.array(2.0))
        out = grad.add(grad.square(a), grad.mul(a, 3.0))  # a^2 + 3a
        tape.backward(out)
        assert float(a.grad) == pytest.approx(7.0, abs=1e-14)

    def test_max_tie_routes_to_lowest_index(self):
        tape = grad.Tape()
        a = tape.leaf(np.array([[1.0, 1.0, 0.5]]))
        tape.backward(_sum_all(grad.max_last(a)))
        np.testing.assert_array_equal(a.grad, [[1.0, 0.0, 0.0]])

    def test_gather_scatter_roundtrip(self):
        tape = grad.Tape()
        a = tape.leaf(np.arange(6.0).reshape(2, 3))
        out = _sum_all(grad.gather_rows(a, np.array([2, 0])))
        tape.backward(out)
        np.testing.assert_array_equal(a.grad, [[0, 0, 1], [1, 0, 0]])

    def test_broadcast_unbroadcast(self):
        tape = grad.Tape()
        a = tape.leaf(np.ones(3))
        b = np.ones((5, 2, 3))
        out = _sum_all(grad.mul(a, b))
        tape.backward(out)
        np.testing.assert_array_equal(a.grad, np.full(3, 10.0))

    def test_clamp_gradients_gate(self):
        tape = grad.Tape()
        a = tape.leaf(np.array([0.5, 2.0]))
        tape.backward(_sum_all(grad.maximum_const(a, 1.0)))
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])
        tape = grad.Tape()
        a = tape.leaf(np.array([0.5, 2.0]))
        tape.backward(_sum_all(grad.minimum_const(a, 1.0)))
        np.testing.assert_array_equal(a.grad, [1.0, 0.0])


class TestFdCheck:
    def test_quadratic_is_exact(self):
        def fn(point):
            (p,) = point
            return float(np.sum(p * p) + 2.0 * p[0]), [2.0 * p + np.array([2.0, 0.0, 0.0])]

        err = grad.fd_check(fn, [np.array([0.3, -1.2, 2.0])], step=1e-5)
        assert err < 1e-10

    def test_detects_wrong_gradient(self):
        def fn(point):
            (p,) = point
            return float(np.sum(p * p)), [3.0 * p]  # deliberately wrong

        assert grad.fd_check(fn, [np.array([1.0, 2.0])], step=1e-5) > 0.2

    @pytest.mark.parametrize("kind", [BoundKind.INVKL, BoundKind.MCALL])
    def test_toy_objective_gradients(self, kind):
        assert toy_objective_fd_error(kind, seed=0) < 1e-4


class TestDeterminism:
    def test_bit_identical_forward_and_gradients(self):
        model = StochasticModel.initialize(ModelSpec((5, 4, 3)), 0.05, RngStream(4).child("m"))
        gen = np.random.default_rng(0)
        x = gen.uniform(0, 1, (6, 5))
        y = gen.integers(1, 4, 6)

        def run():
            tape = grad.Tape()
            leaves = make_leaves(tape, model)
            est = batch_error_estimate(model, x, y, RngStream(9).child("n"), 4, tape, leaves)
            obj = grad.add(est.node, grad.mul(kl_node(leaves, model.groups), 1e-3))
            tape.backward(obj)
            return float(obj.value), [g.copy() for lv in leaves for g in lv.grads()]

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)


def _perturbed_model(widths, seed):
    """A model away from its prior and its zero output means: at the
    initialization every output mean is 0, so the hidden gradients through M
    are pure cancellation noise and a relative comparison means nothing."""
    model = StochasticModel.initialize(ModelSpec(widths), 0.01, RngStream(seed).child("m"))
    nudge = RngStream(seed).child("nudge")
    for k, g in enumerate(model.groups):
        g.w_mean = g.w_mean + 0.1 * nudge.child(k, "wm").normal(g.w_mean.shape)
        g.b_mean = g.b_mean + 0.1 * nudge.child(k, "bm").normal(g.b_mean.shape)
        g.w_rho = g.w_rho * nudge.child(k, "wr").uniform(0.5, 1.5, g.w_rho.shape)
        g.b_rho = g.b_rho * nudge.child(k, "br").uniform(0.5, 1.5, g.b_rho.shape)
    return model


def _assert_leaf_grads_match(leaves, ref_leaves):
    for lv, ref in zip(leaves, ref_leaves):
        for a, b in zip(ref.grads(), lv.grads()):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


@pytest.mark.parametrize(
    "widths", [(20, 256, 4), (784, 200, 10)], ids=["20-256-4", "784-200-10"]
)
class TestClosedFormNodes:
    def test_kl_node_matches_chained_kl(self, widths):
        model = _perturbed_model(widths, 11)
        ref_tape, new_tape = grad.Tape(), grad.Tape()
        ref_leaves, leaves = make_leaves(ref_tape, model), make_leaves(new_tape, model)
        ref = _chained_kl(ref_leaves, model.groups)
        new = kl_node(leaves, model.groups)
        ref_tape.backward(ref)
        new_tape.backward(new)
        assert float(new.value) == pytest.approx(float(ref.value), rel=1e-12)
        _assert_leaf_grads_match(leaves, ref_leaves)

    def test_l1_node_matches_chained_estimate(self, widths):
        model = _perturbed_model(widths, 12)
        gen = np.random.default_rng(13)
        x = gen.uniform(0, 1, (32, widths[0]))
        y = gen.integers(1, widths[-1] + 1, 32)
        rng = RngStream(14)
        ref_tape = grad.Tape()
        ref_leaves = make_leaves(ref_tape, model)
        ref = _chained_estimate(model, x, y, rng, 5, ref_tape, ref_leaves)
        ref_tape.backward(ref)
        est = batch_error_estimate(model, x, y, rng, repeats=5)
        est.tape.backward(est.node)
        assert est.value == float(ref.value)
        _assert_leaf_grads_match(est.leaves, ref_leaves)


def _mcall_numpy_forward(state, x, y0, rng, pen_const, repeats):
    """Independent numpy evaluation of the McAll objective for a one-hidden
    layer net, vectorized over a leading draw axis. Mirrors the rng key
    derivation of the tape path so both see the same noise."""
    w0m, w0r, b0m, b0r, w1m, w1r, b1m, b1r = state
    zw = rng.child("theta", 0).child("w").normal(w0m.shape)
    zb = rng.child("theta", 0).child("b").normal(b0m.shape)
    W0 = w0m + np.abs(w0r) ** 1.5 * zw
    b0 = b0m + np.abs(b0r) ** 1.5 * zb
    H = x @ W0.T + b0
    phi = np.maximum(H, 0.0)
    M = phi @ w1m.T + b1m
    V = np.maximum(phi**2 @ (np.abs(w1r) ** 3).T + np.abs(b1r) ** 3, VARIANCE_FLOOR)
    q = M.shape[-1]
    zeta = rng.child("l1").normal((repeats, x.shape[0], q))
    F = M + np.sqrt(V) * zeta
    mask = np.zeros_like(M)
    mask[np.arange(x.shape[0]), y0] = -1e30
    fmax = (F + mask).max(axis=-1)
    rows = np.arange(x.shape[0])
    z = (fmax - M[rows, y0]) / np.sqrt(V[rows, y0])
    from condgauss.gaussian import std_normal_cdf

    est = std_normal_cdf(z).mean()
    return est + math.sqrt(pen_const / 2.0)


class TestAffineObjectiveAveraging:
    def test_averaged_gradient_matches_fd_of_averaged_objective(self):
        """For the affine McAll objective, the mean of the stochastic tape
        gradients over many draws must agree with finite differences of the
        noise-averaged objective built from the same draws (evaluated by an
        independent numpy forward)."""
        n_draws = 2000
        repeats = 2
        model = StochasticModel.initialize(ModelSpec((3, 4, 2)), 0.05, RngStream(31).child("m"))
        # Perturb away from the prior so the KL part has nonzero gradients.
        nud = RngStream(31).child("nudge")
        for k, g in enumerate(model.groups):
            g.w_mean = g.w_mean + 0.05 * nud.child(k, "w").normal(g.w_mean.shape)
            g.b_mean = g.b_mean + 0.05 * nud.child(k, "b").normal(g.b_mean.shape)
        gen = np.random.default_rng(77)
        x = gen.uniform(0, 1, (16, 3))
        y = gen.integers(1, 3, 16)
        y0 = y - 1
        spec = BoundSpec(BoundKind.MCALL, kappa=1.0, delta=0.025)
        m_pen = 4000

        def tape_grad(d):
            tape = grad.Tape()
            leaves = make_leaves(tape, model)
            est = batch_error_estimate(
                model, x, y, RngStream(123).child("noise", d), repeats, tape, leaves
            )
            obj, _ = penalized_objective(est.node, leaves, model.groups, spec, m_pen)
            tape.backward(obj)
            return np.concatenate([g.reshape(-1) for lv in leaves for g in lv.grads()])

        grads = np.stack([tape_grad(d) for d in range(n_draws)])
        mean_grad = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / math.sqrt(n_draws)

        state0 = model.get_state()
        from condgauss.gaussian import kl_diag_gauss

        def averaged_objective(state):
            model.set_state(state)
            kl = kl_diag_gauss(model.groups)
            pen_const = (kl + math.log(2 * math.sqrt(m_pen) / spec.delta)) / m_pen
            vals = [
                _mcall_numpy_forward(
                    state, x, y0, RngStream(123).child("noise", d), pen_const, repeats
                )
                for d in range(n_draws)
            ]
            return float(np.mean(vals))

        step = 1e-3
        gen2 = np.random.default_rng(5)
        sizes = [a.size for a in state0]
        offsets = np.cumsum([0] + sizes)
        picks = sorted(gen2.choice(offsets[-1], size=40, replace=False))
        for flat_idx in picks:
            k = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
            i = int(flat_idx - offsets[k])
            up = [a.copy() for a in state0]
            dn = [a.copy() for a in state0]
            up[k].reshape(-1)[i] += step
            dn[k].reshape(-1)[i] -= step
            fd = (averaged_objective(up) - averaged_objective(dn)) / (2 * step)
            tol = 4.0 * se[flat_idx] + 1e-5
            assert abs(mean_grad[flat_idx] - fd) <= tol, (k, i, mean_grad[flat_idx], fd, tol)
        model.set_state(state0)


class TestLinearizationDiagnostic:
    def test_report_on_trained_model(self):
        ds = synth_blobs(3, 120, 10, 0.8, seed=90)
        model = StochasticModel.initialize(ModelSpec((10, 64, 3)), 0.01, RngStream(90).child("m"))
        cfg = TrainConfig(
            objective=BoundSpec(BoundKind.INVKL, kappa=1.0, delta=0.025),
            lr_schedule=((15, 0.002),),
            momentum=0.5,
            batch_size=180,
            repeats=5,
            seed=90,
            phase="posterior",
        )
        model, _ = train_condgauss(model, ds, cfg)
        report = linearization_report(
            model, ds, pen=0.05, rng=RngStream(91), redraws=200, repeats=5, bins=20
        )
        assert math.isfinite(report.rel_variation)
        assert report.hist_counts.sum() == 200
        assert report.std >= 0.0
        assert "rel_variation" in report.to_text()
