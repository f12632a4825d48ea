"""Stochastic network: forwards, conditional Gaussianity, estimator wiring,
dropout, the last-layer independence invariant, and snapshot round trips."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import condgauss.network as network
from condgauss import trainer
from condgauss.certify import draw_errors
from condgauss.data import LabelledDataset, synth_blobs
from condgauss.gaussian import (
    GaussianParamGroup,
    conditional_moments,
    kl_diag_gauss,
    l1_samples,
    misclassified,
    sample_gaussian,
)
from condgauss.network import (
    ModelSpec,
    ScoreScreen,
    StochasticModel,
    apply_dropout,
    batch_error_estimate,
    estimate_node,
    exact_misclassification,
    forward_scores,
    load_model,
    make_leaves,
    row_magnitudes,
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
        with pytest.raises(TypeError):  # every hidden layer is relu; there is no choice
            ModelSpec((5, 4, 3), activation="tanh")

    def test_zero_head_initialization(self):
        model = StochasticModel.initialize(ModelSpec((5, 4, 3)), 0.01, RngStream(1))
        assert np.any(model.groups[0].w_mean != 0.0)
        np.testing.assert_array_equal(model.groups[-1].w_mean, 0.0)
        np.testing.assert_array_equal(model.groups[-1].b_mean, 0.0)
        np.testing.assert_allclose(model.groups[0].w_sigma, 0.01, rtol=1e-12)
        assert model.prior_frozen
        assert kl_diag_gauss(model.groups) == 0.0


def zero_layers(widths):
    return [(np.zeros((o, i)), np.zeros(o)) for i, o in zip(widths[:-1], widths[1:])]


class TestForwardScoresContract:
    def test_zero_parameters_give_zero(self):
        spec = ModelSpec((3, 2, 2))
        out = forward_scores(np.ones((4, 3)), zero_layers(spec.layer_widths), spec)
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_hand_computed_three_layer(self):
        # x -> relu(A x + a) -> relu(B . + b) -> C . + c.
        spec = ModelSpec((2, 2, 2, 2))
        A = np.array([[1.0, -1.0], [0.5, 2.0]])
        a = np.array([0.1, -0.2])
        B = np.array([[2.0, 0.0], [1.0, 1.0]])
        b = np.array([0.0, 0.3])
        C = np.array([[1.0, -3.0], [0.5, 0.25]])
        c = np.array([-0.1, 0.2])
        x = np.array([[1.0, 2.0]])
        first = np.maximum(A @ x[0] + a, 0.0)
        expect = C @ np.maximum(B @ first + b, 0.0) + c
        got = forward_scores(x, [(A, a), (B, b), (C, c)], spec)
        np.testing.assert_allclose(got[0], expect, atol=1e-14)

    def test_scores_not_activated(self):
        spec = ModelSpec((2, 2, 2))
        W = np.array([[-5.0, 0.0], [0.0, -5.0]])
        theta = [(np.eye(2), np.zeros(2)), (W, np.zeros(2))]
        out = forward_scores(np.ones((1, 2)), theta, spec)
        assert np.all(out < 0)  # relu only between layers, never on the scores

    def test_shape_mismatch(self):
        spec = ModelSpec((3, 2, 2))
        with pytest.raises(ValueError, match="input width"):
            forward_scores(np.ones((4, 5)), zero_layers(spec.layer_widths), spec)
        with pytest.raises(ValueError, match="every layer"):
            forward_scores(np.ones((4, 3)), zero_layers(spec.layer_widths)[:1], spec)


def row_major_scores(x, theta):
    """Reference forward: the plain row-major chain relu(x W^T + b) ... ."""
    a = x
    for W, b in theta[:-1]:
        a = np.maximum(a @ W.T + b, 0.0)
    W, b = theta[-1]
    return a @ W.T + b


def drawn_network(widths, m, seed):
    """A full draw of a fresh model at ``widths`` and m inputs in [0, 1]."""
    spec = ModelSpec(widths)
    model = StochasticModel.initialize(spec, sigma0=0.05, rng=RngStream(seed).child("m"))
    theta = sample_full(model, RngStream(seed).child("draw"))
    x = RngStream(seed).child("x").uniform(0.0, 1.0, (m, widths[0]))
    return model, theta, x


class TestForwardScores:
    @pytest.mark.parametrize("widths", [(20, 256, 4), (784, 200, 10), (20, 64, 32, 5)])
    @pytest.mark.parametrize("m", [300, 2000])
    def test_matches_row_major_chain(self, widths, m):
        model, theta, x = drawn_network(widths, m, seed=sum(widths) + m)
        got = forward_scores(x, theta, model.spec)
        ref = row_major_scores(x, theta)
        assert got.shape == (m, widths[-1])
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
        y0 = np.argmax(ref, axis=1)
        y0[::3] = (y0[::3] + 1) % widths[-1]
        np.testing.assert_array_equal(misclassified(got, y0), misclassified(ref, y0))

    def test_matches_training_forward_on_same_draw(self, monkeypatch):
        # The surrogate training path (the hidden layers, then the sampled
        # output layer, in row blocks of 256 and 44) and the certification
        # forward score one draw taken under the training keys ("theta", k).
        model, _, x = drawn_network((20, 64, 32, 5), 300, seed=9)
        rng = RngStream(10)
        blocks = []
        loss = trainer._bounded_cross_entropy

        def recording(F, y0, batch):
            blocks.append(F.copy())
            return loss(F, y0, batch)

        monkeypatch.setattr(trainer, "_bounded_cross_entropy", recording)
        leaves = make_leaves(model)
        theta_rng = rng.child("theta", model.spec.n_layers - 1)
        head = trainer._SurrogateHead(leaves[-1], np.zeros(300, int), theta_rng)
        estimate_node(leaves, x, rng, model.spec, head)
        assert [len(F) for F in blocks] == [256, 44]
        batch_major = np.concatenate(blocks)
        theta = [
            sample_gaussian(g.w_mean, g.w_sigma, g.b_mean, g.b_sigma, rng.child("theta", k))[:2]
            for k, g in enumerate(model.groups)
        ]
        ref = forward_scores(x, theta, model.spec)
        assert batch_major.shape == ref.shape == (300, 5)
        np.testing.assert_allclose(batch_major, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())

    def test_draw_errors_independent_of_workers(self, monkeypatch):
        model, _, x = drawn_network((20, 64, 32, 5), 1000, seed=5)
        labels = RngStream(5).child("y").generator().integers(1, 6, 1000)
        ds = LabelledDataset(inputs=x, labels=labels, q=5)
        monkeypatch.setenv("CONDGAUSS_THREADS", "1")
        one = draw_errors(model, ds, 8, RngStream(6))
        monkeypatch.setenv("CONDGAUSS_THREADS", "2")
        two = draw_errors(model, ds, 8, RngStream(6))
        np.testing.assert_array_equal(one, two)

    def test_one_hidden_array_per_call(self):
        # The features-major forward holds one [h, m] float64 array (plus the
        # small [q, m] scores); the row-major chain needed about two.
        m, h = 2000, 200
        model, theta, x = drawn_network((784, h, 10), m, seed=7)
        forward_scores(x, theta, model.spec)
        tracemalloc.start()
        try:
            forward_scores(x, theta, model.spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * m * h * 8


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
        M, V, _ = conditional_moments(
            phi, group.w_mean, group.b_mean, group.w_sigma**2, group.b_sigma**2
        )
        n = 300_000
        rng = RngStream(33)
        zw = rng.child("w").normal((n, 3, 4))
        zb = rng.child("b").normal((n, 3))
        F = (group.w_mean + group.w_sigma * zw) @ phi + group.b_mean + group.b_sigma * zb
        for i in range(3):
            se = F[:, i].std() / math.sqrt(n)
            assert abs(F[:, i].mean() - M[i]) <= 4 * se
            var = F[:, i].var()
            assert abs(var - V[i]) <= 4 * var * math.sqrt(2.0 / (n - 1))


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
        assert abs(est - 0.75) < 0.02

    def test_perfect_model_near_zero(self):
        model = perfect_linear_model()
        gen = np.random.default_rng(43)
        x, labels = block_inputs(gen, 200)
        est = batch_error_estimate(model, x, labels, RngStream(44), repeats=20)
        assert est < 0.01

    def test_repeats_reduce_variance_not_mean(self):
        model = StochasticModel.initialize(ModelSpec((4, 16, 3)), 0.05, RngStream(45))
        gen = np.random.default_rng(46)
        x = gen.uniform(0, 1, (40, 4))
        y = gen.integers(1, 4, 40)
        vals = {}
        for repeats in (1, 25):
            vals[repeats] = np.array(
                [
                    batch_error_estimate(model, x, y, RngStream(47).child(k), repeats)
                    for k in range(300)
                ]
            )
        se = math.hypot(
            vals[1].std() / math.sqrt(300), vals[25].std() / math.sqrt(300)
        )
        assert abs(vals[1].mean() - vals[25].mean()) <= 4 * se
        assert vals[25].std() < vals[1].std()

    @pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["plain", "dropout"])
    def test_value_only_equals_taped_value(self, monkeypatch, dropout):
        """Without leaves the estimate makes no leaves and runs no backward;
        its value is that of the estimate with partials bit for bit, over
        more rows than one TRAIN_BLOCK, and both are Python floats."""
        model, _, x = drawn_network((20, 256, 4), network.TRAIN_BLOCK + 44, seed=50)
        model.groups[-1].w_mean = RngStream(51).normal(model.groups[-1].w_mean.shape)
        y = RngStream(52).generator().integers(1, 5, len(x))
        with monkeypatch.context() as patch:
            patch.setattr(network, "make_leaves", None)
            plain = batch_error_estimate(model, x, y, RngStream(53), 5, dropout_prob=dropout)
        value, partials = batch_error_estimate(
            model, x, y, RngStream(53), 5, make_leaves(model), dropout
        )
        assert len(partials) == 4 * model.spec.n_layers
        assert type(plain) is float and type(value) is float
        assert plain == value

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
        theta = [(g.w_mean, g.b_mean) for g in model.groups]
        assert exact_misclassification(model, x, labels, theta) == pytest.approx(0.75)

    def test_tie_counts_as_error(self):
        model = StochasticModel.initialize(ModelSpec((2, 2, 2)), 1e-6, RngStream(54))
        theta = zero_layers((2, 2, 2))
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
                batch_error_estimate(model, x, y, RngStream(58).child(k), repeats=2)
                for k in range(draws)
            ]
        )
        joint = math.hypot(
            exact_vals.std() / math.sqrt(draws), cond_vals.std() / math.sqrt(draws)
        )
        assert abs(exact_vals.mean() - cond_vals.mean()) <= 4 * joint

    @pytest.mark.parametrize("labels", [[0, 1, 2], [1, 2, 4]], ids=["zero", "above_q"])
    def test_label_range_checked(self, labels):
        # Label 0 would otherwise wrap to class q through index -1.
        model = StochasticModel.initialize(ModelSpec((4, 3, 3)), 0.05, RngStream(48))
        theta = sample_full(model, RngStream(49))
        with pytest.raises(ValueError, match="labels outside 1..q"):
            exact_misclassification(model, np.ones((3, 4)), np.array(labels), theta)


def mixed_labels(scores):
    """1-based labels that make about a third of the rows errors: the
    argmax class, shifted by one on every third row."""
    y0 = np.argmax(scores, axis=1)
    y0[::3] = (y0[::3] + 1) % scores.shape[1]
    return y0 + 1


class TestBlockedScoring:
    """exact_misclassification scores row blocks of at most SCORE_BLOCK
    rows; it must count the errors of one forward over every row."""

    @pytest.mark.parametrize(
        "widths, m", [((784, 200, 10), 10000), ((20, 256, 4), 4000), ((784, 200, 10), 5)]
    )
    def test_bit_identical_to_one_forward(self, widths, m):
        model, theta, x = drawn_network(widths, m, seed=m)
        scores = forward_scores(x, theta, model.spec)
        labels = mixed_labels(scores)
        expect = float(np.mean(misclassified(scores, labels - 1)))
        assert exact_misclassification(model, x, labels, theta) == expect

    @pytest.mark.parametrize(
        "m",
        [2500, 1000, 2 * network.SCORE_BLOCK],
        ids=["ragged_tail", "below_one_block", "whole_blocks"],
    )
    def test_block_scores_match_one_forward(self, m):
        # A ragged last block may sum in another order inside BLAS, so its
        # scores may move by ulps; on these inputs the 0-1 errors do not.
        model, theta, x = drawn_network((784, 200, 10), m, seed=m + 1)
        full = forward_scores(x, theta, model.spec)
        labels = mixed_labels(full)
        blocks = np.concatenate(
            [
                forward_scores(x[lo : lo + network.SCORE_BLOCK], theta, model.spec)
                for lo in range(0, m, network.SCORE_BLOCK)
            ]
        )
        np.testing.assert_allclose(blocks, full, rtol=0.0, atol=1e-12 * np.abs(full).max())
        np.testing.assert_array_equal(
            misclassified(blocks, labels - 1), misclassified(full, labels - 1)
        )
        expect = float(np.mean(misclassified(full, labels - 1)))
        assert exact_misclassification(model, x, labels, theta) == expect

    def test_peak_memory_bounded_by_one_block(self):
        # One call holds one [h, SCORE_BLOCK] activation however large m is;
        # a single forward over m = 10000 rows peaked at 16.8 MB.
        m, h = 10000, 200
        model, theta, x = drawn_network((784, h, 10), m, seed=8)
        labels = np.tile(np.arange(1, 11), m // 10)
        tracemalloc.start()
        try:
            exact_misclassification(model, x, labels, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * h * network.SCORE_BLOCK * 8


def float64_error(model, x, labels, theta):
    """The count the screen must reproduce: one float64 forward over all rows."""
    return float(np.mean(misclassified(forward_scores(x, theta, model.spec), labels - 1)))


def assert_float64_count(model, x, labels, theta):
    expect = float64_error(model, x, labels, theta)
    assert exact_misclassification(model, x, labels, theta) == expect


def extended_scores(x, theta, spec):
    """The forward in extended precision (np.longdouble), the reference the
    float32 and float64 forwards are measured against."""
    wide = [(W.astype(np.longdouble), b.astype(np.longdouble)) for W, b in theta]
    return forward_scores(np.asarray(x, dtype=np.longdouble), wide, spec)


def top_pair(theta, x, spec):
    """Make output classes 1 and 2 share their weights and bias, shifted so
    that the pair tops about half the rows; returns those rows' mask."""
    W, b = theta[-1]
    scores = forward_scores(x, theta, spec)
    b[0] += np.median(scores[:, 2:].max(axis=1) - scores[:, 0])
    W[1], b[1] = W[0], b[0]
    return np.argmax(forward_scores(x, theta, spec), axis=1) <= 1


def exact_scores(row, theta):
    """The exact scores of one row in rational arithmetic."""
    a = [Fraction(v) for v in row]
    for k, (W, b) in enumerate(theta):
        if k:
            a = [max(v, Fraction(0)) for v in a]
        a = [
            sum((Fraction(w) * v for w, v in zip(row_w, a)), Fraction(b_i))
            for row_w, b_i in zip(W, b)
        ]
    return a


def screened(theta, spec, x, labels):
    """``ScoreScreen.decide`` of the float64 rows ``x`` with 1-based
    ``labels``, fed as exact_misclassification feeds it."""
    with np.errstate(over="ignore"):
        x32 = x.astype(np.float32)
    return ScoreScreen(theta, spec).decide(x32, labels - 1, row_magnitudes(x))


class TestScoreScreen:
    """exact_misclassification counts in float32 every row whose outcome the
    proven bound E decides and rescores the rest in float64; its count must
    be the float64 forward's."""

    @pytest.mark.parametrize(
        "widths", [(784, 200, 10), (20, 256, 4), (20, 64, 32, 5), (12, 16, 16, 16, 3)]
    )
    def test_bound_covers_both_forwards(self, widths):
        model, theta, x = drawn_network(widths, 300, seed=sum(widths))
        screen = ScoreScreen(theta, model.spec)
        x32 = x.astype(np.float32)
        bound, held = screen.tolerance(row_magnitudes(x))
        assert held.all()
        ref = extended_scores(x, theta, model.spec)
        s32 = forward_scores(x32, screen.theta32, model.spec)
        s64 = forward_scores(x, theta, model.spec)
        assert s32.dtype == np.float32
        assert np.all(np.abs(s32 - ref) + np.abs(s64 - ref) <= bound)

    def test_bound_covers_both_forwards_exactly(self):
        # Rational arithmetic on a tiny net: the bound is a theorem about
        # the exact scores, not a tolerance.
        model, theta, x = drawn_network((3, 4, 4, 2), 20, seed=9)
        screen = ScoreScreen(theta, model.spec)
        x32 = x.astype(np.float32)
        bound, held = screen.tolerance(row_magnitudes(x))
        assert held.all()
        s32 = forward_scores(x32, screen.theta32, model.spec)
        s64 = forward_scores(x, theta, model.spec)
        for j, row in enumerate(x):
            for c, exact in enumerate(exact_scores(row, theta)):
                gap = abs(Fraction(float(s32[j, c])) - exact) + abs(Fraction(s64[j, c]) - exact)
                assert gap <= Fraction(bound[j, c])

    @pytest.mark.parametrize(
        "widths, m", [((784, 200, 10), 1000), ((20, 256, 4), 700), ((20, 64, 32, 5), 500)]
    )
    def test_counts_equal_float64_over_draws(self, widths, m):
        model, _, x = drawn_network(widths, m, seed=m)
        labels = RngStream(m).child("y").generator().integers(1, widths[-1] + 1, m)
        sigmas = model.sigmas()
        for n in range(200):
            theta = sample_full(model, RngStream(m).child("draw", n), sigmas)
            assert_float64_count(model, x, labels, theta)

    def test_screen_decides_most_rows(self):
        # Correct either way, but a bound too loose to decide rows would
        # send every draw through the float64 forward. This net's top two
        # scores are close: 89% of the rows were decided when written.
        model, theta, x = drawn_network((784, 200, 10), 2000, seed=12)
        labels = mixed_labels(forward_scores(x, theta, model.spec))
        wrong, undecided = screened(theta, model.spec, x, labels)
        assert len(undecided) < 0.2 * len(x)
        assert np.count_nonzero(wrong) > 0.2 * len(x)

    def test_draw_errors_equal_float64_reference(self, monkeypatch):
        model, _, x = drawn_network((20, 64, 32, 5), 500, seed=4)
        labels = RngStream(4).child("y").generator().integers(1, 6, 500)
        ds = LabelledDataset(inputs=x, labels=labels, q=5)
        sigmas = model.sigmas()
        thetas = [sample_full(model, RngStream(6).child("draw", n), sigmas) for n in range(200)]
        expect = [float64_error(model, x, labels, theta) for theta in thetas]
        for workers in ("1", "2"):
            monkeypatch.setenv("CONDGAUSS_THREADS", workers)
            np.testing.assert_array_equal(draw_errors(model, ds, 200, RngStream(6)), expect)

    def test_exact_ties_fall_back(self):
        model, theta, x = drawn_network((20, 64, 5), 400, seed=13)
        tied = top_pair(theta, x, model.spec)
        assert 100 < np.count_nonzero(tied) < 300
        labels = np.where(np.arange(400) % 2, 1, 2)
        _, undecided = screened(theta, model.spec, x, labels)
        assert set(np.flatnonzero(tied)) <= set(undecided)
        assert_float64_count(model, x, labels, theta)

    def test_near_ties_inside_the_bound_fall_back(self):
        # Classes 1 and 2 differ by about 1e-13, far inside E: float64 tells
        # them apart, float32 cannot, so the screen must leave them undecided.
        model, theta, x = drawn_network((20, 64, 5), 400, seed=14)
        near = top_pair(theta, x, model.spec)
        W = theta[-1][0]
        W[1] *= 1.0 + 1e-13 * RngStream(14).child("v").normal(W.shape[1])
        s64 = forward_scores(x, theta, model.spec)
        assert np.all(s64[near, 0] != s64[near, 1])
        labels = np.where(np.arange(400) % 2, 1, 2)
        _, undecided = screened(theta, model.spec, x, labels)
        assert set(np.flatnonzero(near)) <= set(undecided)
        assert_float64_count(model, x, labels, theta)

    def test_non_finite_inputs_fall_back(self):
        model, theta, x = drawn_network((20, 64, 5), 400, seed=15)
        labels = mixed_labels(forward_scores(x, theta, model.spec))
        x[::7] = np.nan
        x[3, 5] = np.inf
        x[4, 2] = -np.inf
        x[::11, 1] = 1e39  # finite in float64, inf in float32
        _, undecided = screened(theta, model.spec, x, labels)
        assert {0, 3, 4, 7, 11} <= set(undecided)
        with np.errstate(invalid="ignore"):  # the float64 forward meets inf - inf
            assert_float64_count(model, x, labels, theta)

    def test_weights_beyond_float32_fall_back(self):
        model, theta, x = drawn_network((20, 64, 5), 400, seed=16)
        labels = mixed_labels(forward_scores(x, theta, model.spec))
        theta[0][0][3, 4] = 1e39
        screen = ScoreScreen(theta, model.spec)
        assert screen.x_limit < 0
        _, undecided = screen.decide(x.astype(np.float32), labels - 1, row_magnitudes(x))
        assert len(undecided) == len(x)
        assert_float64_count(model, x, labels, theta)

    def test_fallback_memory_bounded_by_one_block(self):
        # With every row left to the float64 forward, a call still holds
        # the one buffer and one block's activation, as the screen does.
        m, h = 10000, 200
        model, theta, x = drawn_network((784, h, 10), m, seed=17)
        theta[0][0][0, 0] = 1e39
        labels = np.tile(np.arange(1, 11), m // 10)
        tracemalloc.start()
        try:
            with np.errstate(over="ignore"):
                exact_misclassification(model, x, labels, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * h * network.SCORE_BLOCK * 8


class TestRowMagnitudes:
    """The screen's max_i |x_ji| is taken once per certificate from the
    float64 rows; it must equal the reduction over the float32 copy that
    each block used to take."""

    @staticmethod
    def awkward_rows(m=3000, width=7, seed=31):
        # A third of the rows each draw from: values past float32's range
        # (1e39, and the tie just above its largest value, which rounds to
        # inf), its largest value, NaN and plain values; signed zeros,
        # float64 subnormals and float32 subnormals and their ties; values
        # halfway between float32 neighbours. Every value gets a random sign.
        f32max = float(np.finfo(np.float32).max)
        above = f32max + 2.0**103
        f32 = np.float32(RngStream(seed).child("f").uniform(0.0, 4.0, 64))
        halves = (f32.astype(np.float64) + np.nextafter(f32, np.float32(np.inf))) / 2.0
        wide = [1e39, above, np.nextafter(above, 0.0), f32max, np.nan, 1.0, 0.5, 1e-3]
        tiny = [0.0, 5e-324, 1e-310, 2.0**-1022, 2.0**-150, 3 * 2.0**-150, 2.0**-149, 1e-40]
        gen = RngStream(seed).child("pick").generator()
        x = np.empty((m, width))
        for k, pool in enumerate((np.array(wide), np.array(tiny), halves)):
            x[k::3] = pool[gen.integers(0, len(pool), x[k::3].shape)]
        x *= np.where(gen.integers(0, 2, x.shape) == 1, -1.0, 1.0)
        return x

    def test_equals_float32_copy_reduction(self):
        x = self.awkward_rows()
        with np.errstate(over="ignore"):
            x32 = x.astype(np.float32)
        expect = np.maximum(x32.max(axis=1), -x32.min(axis=1))
        got = row_magnitudes(x)
        assert got.dtype == np.float32
        nan = np.isnan(expect)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert 0 < nan.sum() < len(x) and np.isinf(expect).any()
        # Bit for bit, but for the sign of a zero, which numpy's reductions
        # pick by summation order; both signs give the same bound below.
        np.testing.assert_array_equal(
            (got[~nan] + np.float32(0.0)).view(np.uint32),
            (expect[~nan] + np.float32(0.0)).view(np.uint32),
        )
        model, theta, _ = drawn_network((7, 5, 3), 1, seed=32)
        screen = ScoreScreen(theta, model.spec)
        bound, held = screen.tolerance(got)
        expect_bound, expect_held = screen.tolerance(expect)
        np.testing.assert_array_equal(held, expect_held)
        np.testing.assert_array_equal(bound, expect_bound)

    def test_draw_errors_match_per_draw_calls(self, monkeypatch):
        # Three screen blocks of 784-wide rows of magnitudes 0.01 to 100,
        # some beyond float32's range: taking the magnitudes once changes no
        # draw's count, and every block is screened with its own rows'.
        model, _, x = drawn_network((784, 16, 4), 1500, seed=33)
        x *= 10.0 ** RngStream(33).child("s").uniform(-2.0, 2.0, (len(x), 1))
        x[::97, 5] = 1e39
        labels = RngStream(33).child("y").generator().integers(1, 5, len(x))
        ds = LabelledDataset(inputs=x, labels=labels, q=4)
        rng = RngStream(34)
        expect = [
            exact_misclassification(model, x, labels, sample_full(model, rng.child("draw", n)))
            for n in range(12)
        ]
        true_decide = ScoreScreen.decide
        blocks = []

        def checked(self, x32, y0, size):
            np.testing.assert_array_equal(size, np.maximum(x32.max(axis=1), -x32.min(axis=1)))
            blocks.append(len(y0))
            return true_decide(self, x32, y0, size)

        monkeypatch.setattr(ScoreScreen, "decide", checked)
        for workers in ("1", "2"):
            monkeypatch.setenv("CONDGAUSS_THREADS", workers)
            np.testing.assert_array_equal(draw_errors(model, ds, 12, rng), expect)
        assert len(blocks) == 2 * 12 * 3

    def test_wrong_length_rejected(self):
        model, theta, x = drawn_network((6, 5, 3), 10, seed=35)
        with pytest.raises(ValueError, match="one value per input row"):
            exact_misclassification(model, x, np.ones(10, int), theta, row_magnitudes(x[:9]))


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

        leaves = make_leaves(model)
        RngStream.child = spying_child
        try:
            _, partials = batch_error_estimate(model, x, y, RngStream(66), 3, leaves)
        finally:
            RngStream.child = original_child
        last_idx = model.spec.n_layers - 1
        assert ("theta", 0) in requested
        assert ("theta", last_idx) not in requested
        w_mean, w_rho, _, _ = partials[-4:]
        assert np.any(w_mean != 0.0)
        assert np.any(w_rho != 0.0)

    def test_last_layer_gradient_matches_closed_form_chain(self):
        """With one input and one repeat, the estimate's partials in the
        output layer equal the L1 estimator's analytic (dM, dV) chained through the
        conditional-moments formulas by hand."""
        model = StochasticModel.initialize(ModelSpec((3, 4, 3)), 0.05, RngStream(67))
        g_last = model.groups[-1]
        g_last.w_mean = np.random.default_rng(1).normal(0, 0.3, (3, 4))
        gen = np.random.default_rng(68)
        x = gen.uniform(0, 1, (1, 3))
        y = np.array([2])
        rng = RngStream(69)
        _, partials = batch_error_estimate(model, x, y, rng, 1, make_leaves(model))

        # Reproduce the same hidden sample and estimator draw by key; an
        # identity output layer makes forward_scores return phi(H).
        theta = [
            sample_gaussian(g.w_mean, g.w_sigma, g.b_mean, g.b_sigma, rng.child("theta", k))[:2]
            for k, g in enumerate(model.hidden_groups)
        ]
        phi = forward_scores(x, theta + [(np.eye(4), np.zeros(4))], model.spec)[0]
        M, V, _ = conditional_moments(
            phi, g_last.w_mean, g_last.b_mean, g_last.w_sigma**2, g_last.b_sigma**2
        )

        class _FixedStream:
            def __init__(self, z):
                self.z = z

            def normal(self, shape):
                return self.z.reshape(shape)

        zeta = rng.child("l1").normal((1, 1, 3))
        _, (dM,), (dV,) = l1_samples(M, V, 2, _FixedStream(zeta))
        dw_mean = np.outer(dM, phi)
        db_mean = dM
        dw_sigma = dV[:, None] * 2.0 * g_last.w_sigma * phi[None, :] ** 2
        db_sigma = dV * 2.0 * g_last.b_sigma
        _, dsig_w = np.abs(g_last.w_rho) ** 1.5, 1.5 * np.sqrt(np.abs(g_last.w_rho)) * np.sign(g_last.w_rho)
        dw_rho = dw_sigma * dsig_w
        db_rho = db_sigma * 1.5 * np.sqrt(np.abs(g_last.b_rho)) * np.sign(g_last.b_rho)

        w_mean, w_rho, b_mean, b_rho = partials[-4:]
        np.testing.assert_allclose(w_mean, dw_mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(b_mean, db_mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(w_rho, dw_rho, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(b_rho, db_rho, rtol=1e-10, atol=1e-12)


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
        model = StochasticModel.initialize(ModelSpec((5, 4, 3)), 0.01, RngStream(72))
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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ls: ls[:3], r"line 4 should hold 'dropout'"),
            (lambda ls: ls[:10], r"line 11 should hold the values of array 'w_rho' of layer 0"),
            (lambda ls: ls[:-1], r"should hold 'end'"),
            (lambda ls: ls[:6] + ["layer 0 3"] + ls[7:], r"line 7: expected 'layer 0 3 4'"),
            (lambda ls: ls[:8] + ["abc " + ls[8]] + ls[9:],
             r"line 9: non-numeric value in array 'w_mean' of layer 0"),
            (lambda ls: ls[:1] + ["widths 4 x 2"] + ls[2:], r"line 2: non-numeric value in 'widths'"),
            (lambda ls: ls[:2] + ["activation tanh"] + ls[3:],
             r"line 3: 'activation' must be relu, got 'tanh'"),
            (lambda ls: ls[:3] + ["dropout abc"] + ls[4:], r"line 4: non-numeric value in 'dropout'"),
            (lambda ls: ls[:3] + ["dropout 0 0.5"] + ls[4:], r"line 4: 'dropout' takes one value"),
            (lambda ls: ls[:3] + ["dropout 0.3"] + ls[4:], r"line 4: 'dropout' must be 0, got 0.3"),
            (lambda ls: ls[:22] + ["-0.01 " + ls[22].split(" ", 1)[1]] + ls[23:],
             r"array 'prior_b_sigma' of layer 0 must be strictly positive"),
        ],
        ids=["cut_after_3", "cut_after_10", "cut_before_end", "short_layer_header",
             "non_numeric_value", "non_numeric_width", "non_relu_activation", "non_numeric_dropout",
             "two_dropouts", "nonzero_dropout", "negative_prior_sigma"],
    )
    def test_rejects_truncated_or_malformed(self, tmp_path, edit, message):
        model = StochasticModel.initialize(ModelSpec((4, 3, 2)), 0.01, RngStream(75))
        path = tmp_path / "snap.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[6] == "layer 0 3 4" and lines[7] == "w_mean" and lines[21] == "prior_b_sigma"
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("NOT-A-MODEL\n")
        with pytest.raises(ValueError):
            load_model(path)
