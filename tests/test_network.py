"""Stochastic network: forwards, conditional Gaussianity, estimator wiring,
dropout, the last-layer independence invariant, and snapshot round trips."""
import math

import numpy as np
import pytest

import condgauss.network as network
from condgauss import grad
from condgauss.data import synth_blobs
from condgauss.gaussian import (
    GaussianParamGroup,
    SampledLayer,
    conditional_moments,
    estimator_L1,
    kl_diag_gauss,
)
from condgauss.network import (
    ModelSpec,
    StochasticModel,
    apply_dropout,
    batch_error_estimate,
    exact_misclassification,
    forward_hidden,
    load_model,
    make_leaves,
    sample_full,
    save_model,
)
from condgauss.rng import RngStream


def perfect_linear_model(q=3, p=6, gain=50.0):
    """One-hidden-layer model that routes coordinate blocks to classes.

    Inputs built as one-hot-ish blocks are classified with margins ~gain,
    far above the sigma0 noise floor.
    """
    spec = ModelSpec((p, q, q))
    model = StochasticModel.initialize(spec, sigma0=1e-4, rng=RngStream(0).child("m"))
    w0 = np.zeros((q, p))
    for c in range(q):
        w0[c, 2 * c : 2 * c + 2] = gain
    model.groups[0].w_mean = w0
    model.groups[0].b_mean = np.zeros(q)
    model.groups[1].w_mean = np.eye(q)
    model.groups[1].b_mean = np.zeros(q)
    model.freeze_prior()  # hand-picked values are the (data-free) prior
    return model


def block_inputs(gen, n, q=3, p=6):
    labels = gen.integers(1, q + 1, n)
    x = gen.uniform(0.0, 0.05, (n, p))
    for i, c in enumerate(labels):
        x[i, 2 * (c - 1) : 2 * (c - 1) + 2] += 0.8
    return x, labels


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec((5, 3))  # no hidden layer
        with pytest.raises(ValueError):
            ModelSpec((5, 4, 1))  # q < 2
        with pytest.raises(ValueError):
            ModelSpec((5, 4, 3), activation="tanh")
        with pytest.raises(ValueError):
            ModelSpec((5, 4, 3), dropout_prob=1.0)

    def test_zero_head_initialization(self):
        model = StochasticModel.initialize(ModelSpec((5, 4, 3)), 0.01, RngStream(1))
        assert np.any(model.groups[0].w_mean != 0.0)
        np.testing.assert_array_equal(model.groups[-1].w_mean, 0.0)
        np.testing.assert_array_equal(model.groups[-1].b_mean, 0.0)
        np.testing.assert_allclose(model.groups[0].w_sigma, 0.01, rtol=1e-12)
        assert model.prior_frozen
        assert kl_diag_gauss(model.groups) == 0.0


class TestForwardHidden:
    def test_zero_parameters_give_zero(self):
        spec = ModelSpec((3, 2, 2))
        theta = [SampledLayer(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 3)), np.zeros(2))]
        out = forward_hidden(np.ones((4, 3)), theta, spec)
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_hand_computed_two_layer(self):
        # x -> relu(A x + a) -> B . + b, H returned pre-activation.
        spec = ModelSpec((2, 2, 2, 2))
        A = np.array([[1.0, -1.0], [0.5, 2.0]])
        a = np.array([0.1, -0.2])
        B = np.array([[2.0, 0.0], [1.0, 1.0]])
        b = np.array([0.0, 0.3])
        theta = [
            SampledLayer(A, a, np.zeros_like(A), np.zeros_like(a)),
            SampledLayer(B, b, np.zeros_like(B), np.zeros_like(b)),
        ]
        x = np.array([[1.0, 2.0]])
        first = np.maximum(A @ x[0] + a, 0.0)
        expect = B @ first + b
        np.testing.assert_allclose(forward_hidden(x, theta, spec)[0], expect, atol=1e-14)

    def test_last_hidden_not_activated(self):
        spec = ModelSpec((2, 2, 2))
        W = np.array([[-5.0, 0.0], [0.0, -5.0]])
        theta = [SampledLayer(W, np.zeros(2), np.zeros_like(W), np.zeros(2))]
        out = forward_hidden(np.ones((1, 2)), theta, spec)
        assert np.all(out < 0)  # relu not applied to H itself

    def test_shape_mismatch(self):
        spec = ModelSpec((3, 2, 2))
        theta = [SampledLayer(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 3)), np.zeros(2))]
        with pytest.raises(ValueError):
            forward_hidden(np.ones((4, 5)), theta, spec)


class TestConditionalGaussianity:
    def test_sampled_head_matches_moments(self):
        gen = np.random.default_rng(30)
        group = GaussianParamGroup(
            w_mean=gen.normal(size=(3, 4)),
            w_rho=gen.uniform(0.3, 0.7, (3, 4)),
            b_mean=gen.normal(size=3),
            b_rho=gen.uniform(0.3, 0.7, 3),
        )
        phi = gen.uniform(0.0, 1.0, 4)
        head = conditional_moments(phi, group)
        n = 300_000
        rng = RngStream(33)
        zw = rng.child("w").normal((n, 3, 4))
        zb = rng.child("b").normal((n, 3))
        F = (group.w_mean + group.w_sigma * zw) @ phi + group.b_mean + group.b_sigma * zb
        for i in range(3):
            se = F[:, i].std() / math.sqrt(n)
            assert abs(F[:, i].mean() - head.M[i]) <= 4 * se
            var = F[:, i].var()
            assert abs(var - head.V[i]) <= 4 * var * math.sqrt(2.0 / (n - 1))


class TestBatchErrorEstimate:
    def test_symmetric_head_near_chance(self):
        # Huge last-layer noise with zero means: every class equally likely.
        model = StochasticModel.initialize(ModelSpec((4, 3, 4)), 0.05, RngStream(40))
        model.groups[-1].w_rho = np.full((4, 3), 4.0)  # sigma = 8
        model.groups[-1].b_rho = np.full(4, 4.0)
        gen = np.random.default_rng(41)
        x = gen.uniform(0, 1, (200, 4))
        y = gen.integers(1, 5, 200)
        est = batch_error_estimate(model, x, y, RngStream(42), repeats=50)
        assert abs(est.value - 0.75) < 0.02

    def test_perfect_model_near_zero(self):
        model = perfect_linear_model()
        gen = np.random.default_rng(43)
        x, labels = block_inputs(gen, 200)
        est = batch_error_estimate(model, x, labels, RngStream(44), repeats=20)
        assert est.value < 0.01

    def test_repeats_reduce_variance_not_mean(self):
        model = StochasticModel.initialize(ModelSpec((4, 16, 3)), 0.05, RngStream(45))
        gen = np.random.default_rng(46)
        x = gen.uniform(0, 1, (40, 4))
        y = gen.integers(1, 4, 40)
        vals = {}
        for repeats in (1, 25):
            vals[repeats] = np.array(
                [
                    batch_error_estimate(model, x, y, RngStream(47).child(k), repeats).value
                    for k in range(300)
                ]
            )
        se = math.hypot(
            vals[1].std() / math.sqrt(300), vals[25].std() / math.sqrt(300)
        )
        assert abs(vals[1].mean() - vals[25].mean()) <= 4 * se
        assert vals[25].std() < vals[1].std()

    def test_label_range_checked(self):
        model = StochasticModel.initialize(ModelSpec((4, 3, 3)), 0.05, RngStream(48))
        with pytest.raises(ValueError):
            batch_error_estimate(model, np.ones((2, 4)), np.array([0, 1]), RngStream(49))


class TestExactMisclassification:
    def test_perfect_model(self):
        model = perfect_linear_model()
        gen = np.random.default_rng(50)
        x, labels = block_inputs(gen, 300)
        theta = sample_full(model, RngStream(51))
        assert exact_misclassification(model, x, labels, theta) == 0.0

    def test_constant_scores_error_rate(self):
        # Zero weights, distinct constant biases: argmax is class 1 always,
        # so the error is the fraction of labels different from class 1.
        model = StochasticModel.initialize(ModelSpec((4, 3, 4)), 1e-6, RngStream(52))
        model.groups[-1].b_mean = np.array([1.0, 0.5, 0.2, 0.1])
        gen = np.random.default_rng(53)
        x = gen.uniform(0, 1, (400, 4))
        labels = np.tile(np.arange(1, 5), 100)
        theta = [
            SampledLayer(g.w_mean, g.b_mean, np.zeros_like(g.w_mean), np.zeros_like(g.b_mean))
            for g in model.groups
        ]
        assert exact_misclassification(model, x, labels, theta) == pytest.approx(0.75)

    def test_tie_counts_as_error(self):
        model = StochasticModel.initialize(ModelSpec((2, 2, 2)), 1e-6, RngStream(54))
        theta = [
            SampledLayer(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2)),
            SampledLayer(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2)),
        ]
        x = np.ones((10, 2))
        labels = np.ones(10, dtype=int)  # all class 1; outputs all tie at 0
        assert exact_misclassification(model, x, labels, theta) == 1.0

    def test_non_finite_scores_count_as_errors(self):
        ds = synth_blobs(4, 100, 20, 0.8, 0)
        model = StochasticModel.initialize(ModelSpec((20, 16, 4)), 0.01, RngStream(0))
        theta = sample_full(model, RngStream(1))
        assert exact_misclassification(model, ds.inputs, ds.labels, theta) == 0.75
        nan_inputs = np.full_like(ds.inputs, np.nan)
        assert exact_misclassification(model, nan_inputs, ds.labels, theta) == 1.0

    def test_agreement_with_conditional_estimator(self):
        # Both estimate E_S(Q); their Monte-Carlo means must agree.
        model = StochasticModel.initialize(ModelSpec((4, 8, 3)), 0.1, RngStream(55))
        gen = np.random.default_rng(56)
        x = gen.uniform(0, 1, (60, 4))
        y = gen.integers(1, 4, 60)
        draws = 400
        exact_vals = np.array(
            [
                exact_misclassification(model, x, y, sample_full(model, RngStream(57).child(k)))
                for k in range(draws)
            ]
        )
        cond_vals = np.array(
            [
                batch_error_estimate(model, x, y, RngStream(58).child(k), repeats=2).value
                for k in range(draws)
            ]
        )
        joint = math.hypot(
            exact_vals.std() / math.sqrt(draws), cond_vals.std() / math.sqrt(draws)
        )
        assert abs(exact_vals.mean() - cond_vals.mean()) <= 4 * joint


class TestDropout:
    def test_zero_prob_identity(self):
        h = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(apply_dropout(h, 0.0, RngStream(60)), h)

    def test_high_prob_mostly_zero(self):
        h = np.ones((100, 100))
        out = apply_dropout(h, 0.99, RngStream(61))
        assert np.mean(out == 0.0) > 0.98

    def test_mean_preservation(self):
        h = np.full(200, 2.0)
        masks = np.stack([apply_dropout(h, 0.3, RngStream(62).child(k)) for k in range(500)])
        se = masks.mean(axis=0).std() / math.sqrt(200)
        assert abs(masks.mean() - 2.0) <= 4 * max(se, 2.0 * math.sqrt(0.3 / 0.7 / masks.size))

    def test_invalid_prob(self):
        with pytest.raises(ValueError):
            apply_dropout(np.ones(3), 1.0, RngStream(63))


class TestLastLayerIndependence:
    def test_no_last_layer_sample_during_conditional_estimate(self):
        """Conditional training never samples the output layer: the rng keys
        requested during the estimate must not include a theta stream for the
        last layer, while its hyper-parameters still receive gradients
        through (M, V)."""
        model = StochasticModel.initialize(ModelSpec((4, 5, 3)), 0.05, RngStream(64))
        gen = np.random.default_rng(65)
        x = gen.uniform(0, 1, (8, 4))
        y = gen.integers(1, 4, 8)

        requested = []
        original_child = RngStream.child

        def spying_child(self, *parts):
            requested.append(parts)
            return original_child(self, *parts)

        tape = grad.Tape()
        leaves = make_leaves(tape, model)
        RngStream.child = spying_child
        try:
            est = batch_error_estimate(model, x, y, RngStream(66), 3, tape, leaves)
        finally:
            RngStream.child = original_child
        last_idx = model.spec.n_layers - 1
        assert ("theta", 0) in requested
        assert ("theta", last_idx) not in requested
        tape.backward(est.node)
        last = leaves[-1]
        assert np.any(last.w_mean.grad != 0.0)
        assert np.any(last.w_rho.grad != 0.0)

    def test_last_layer_gradient_matches_closed_form_chain(self):
        """With one input and one repeat, the tape gradient w.r.t. the output
        layer equals the L1 estimator's analytic (dM, dV) chained through the
        conditional-moments formulas by hand."""
        model = StochasticModel.initialize(ModelSpec((3, 4, 3)), 0.05, RngStream(67))
        g_last = model.groups[-1]
        g_last.w_mean = np.random.default_rng(1).normal(0, 0.3, (3, 4))
        gen = np.random.default_rng(68)
        x = gen.uniform(0, 1, (1, 3))
        y = np.array([2])
        rng = RngStream(69)
        tape = grad.Tape()
        leaves = make_leaves(tape, model)
        est = batch_error_estimate(model, x, y, rng, 1, tape, leaves)
        tape.backward(est.node)

        # Reproduce the same hidden sample and estimator draw by key.
        theta_h = []
        for k, g in enumerate(model.hidden_groups):
            zw = rng.child("theta", k).child("w").normal(g.w_mean.shape)
            zb = rng.child("theta", k).child("b").normal(g.b_mean.shape)
            theta_h.append(SampledLayer(g.w_mean + g.w_sigma * zw, g.b_mean + g.b_sigma * zb, zw, zb))
        H = forward_hidden(x, theta_h, model.spec)
        phi = np.maximum(H[0], 0.0)
        head = conditional_moments(phi, g_last)

        class _FixedStream:
            def __init__(self, z):
                self.z = z

            def normal(self, shape):
                return self.z.reshape(shape)

        zeta = rng.child("l1").normal((1, 1, 3))
        _, (dM, dV) = estimator_L1(head, 2, _FixedStream(zeta))
        dw_mean = np.outer(dM, phi)
        db_mean = dM
        dw_sigma = dV[:, None] * 2.0 * g_last.w_sigma * phi[None, :] ** 2
        db_sigma = dV * 2.0 * g_last.b_sigma
        _, dsig_w = np.abs(g_last.w_rho) ** 1.5, 1.5 * np.sqrt(np.abs(g_last.w_rho)) * np.sign(g_last.w_rho)
        dw_rho = dw_sigma * dsig_w
        db_rho = db_sigma * 1.5 * np.sqrt(np.abs(g_last.b_rho)) * np.sign(g_last.b_rho)

        last = leaves[-1]
        np.testing.assert_allclose(last.w_mean.grad, dw_mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(last.b_mean.grad, db_mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(last.w_rho.grad, dw_rho, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(last.b_rho.grad, db_rho, rtol=1e-10, atol=1e-12)


class TestKlAdditivity:
    def test_model_kl_equals_layer_sum(self):
        model = StochasticModel.initialize(ModelSpec((4, 5, 4, 3)), 0.05, RngStream(70))
        gen = np.random.default_rng(71)
        for g in model.groups:
            g.w_mean = g.w_mean + gen.normal(0, 0.02, g.w_mean.shape)
            g.w_rho = g.w_rho * gen.uniform(0.9, 1.1, g.w_rho.shape)
        total = kl_diag_gauss(model.groups)
        per_layer = sum(kl_diag_gauss([g]) for g in model.groups)
        assert total == pytest.approx(per_layer, rel=1e-12)


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        model = StochasticModel.initialize(ModelSpec((5, 4, 3), dropout_prob=0.1), 0.01, RngStream(72))
        gen = np.random.default_rng(73)
        for g in model.groups:
            g.w_mean = g.w_mean + gen.normal(0, 0.3, g.w_mean.shape)
            g.w_rho = g.w_rho * gen.uniform(0.5, 2.0, g.w_rho.shape)
        model.prior_fingerprint = "abc123"
        model.prior_pair_token = "tok456"
        path = tmp_path / "snap.model"
        save_model(model, path)
        assert path.read_text().startswith(network.SNAPSHOT_HEADER)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        assert loaded.prior_fingerprint == "abc123"
        assert loaded.prior_pair_token == "tok456"
        for a, b in zip(model.groups, loaded.groups):
            np.testing.assert_array_equal(a.w_mean, b.w_mean)
            np.testing.assert_array_equal(a.w_rho, b.w_rho)
            np.testing.assert_array_equal(a.b_mean, b.b_mean)
            np.testing.assert_array_equal(a.b_rho, b.b_rho)
            np.testing.assert_array_equal(a.prior_w_mean, b.prior_w_mean)
            np.testing.assert_array_equal(a.prior_w_sigma, b.prior_w_sigma)

    def test_rejects_non_finite_parameters(self, tmp_path):
        model = StochasticModel.initialize(ModelSpec((5, 4, 3)), 0.01, RngStream(74))
        model.groups[1].b_rho = np.array([0.1, np.nan, 0.1])
        path = tmp_path / "nan.model"
        save_model(model, path)
        with pytest.raises(ValueError, match="b_rho"):
            load_model(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("NOT-A-MODEL\n")
        with pytest.raises(ValueError):
            load_model(path)
