"""Training: momentum semantics, phase rules and wiring, penalty bookkeeping,
lambda alternation, the surrogate baseline, logging, reproducibility, and
a step's tape and peak memory."""
import math
import re
import tracemalloc

import numpy as np
import pytest

from condgauss import grad, network, trainer
from condgauss.bounds import BoundKind, BoundSpec, kl_inv, penalty
from condgauss.data import LabelledDataset, synth_blobs
from condgauss.gaussian import TRAINABLE, kl_diag_gauss, kl_sum, prior_terms
from condgauss.network import ModelSpec, StochasticModel, make_leaves, save_model
from condgauss.rng import RngStream
from condgauss.trainer import (
    CSV_HEADER,
    LogRow,
    TrainConfig,
    TrainingDiverged,
    batch_gradients,
    lambda_batch,
    momentum_step,
    train_condgauss,
)


def blob_task(seed=100, classes=3, per_class=150, dim=10, separation=0.8):
    return synth_blobs(classes, per_class, dim, separation, seed)


def fresh_model(seed=0, widths=(10, 64, 3), sigma0=0.01):
    return StochasticModel.initialize(ModelSpec(widths), sigma0, RngStream(seed).child("model"))


def quick_config(**kwargs):
    base = dict(
        objective=BoundSpec(BoundKind.INVKL, kappa=1.0, delta=0.025),
        lr_schedule=((12, 0.002),),
        momentum=0.5,
        batch_size=450,
        repeats=5,
        seed=3,
        phase="posterior",
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestMomentumStep:
    def test_matches_reference_recursion_on_quadratic(self):
        # Minimize 0.5 a p^2: gradient a p. Reference recursion:
        # v_{t+1} = mu v_t + g_t, p_{t+1} = p_t - lr v_{t+1}.
        a, lr, mu = 3.0, 0.05, 0.9
        p, v = 2.0, 0.0
        p_ref, v_ref = 2.0, 0.0
        for _ in range(50):
            g = a * p
            p, v = momentum_step(p, g, v, lr, mu)
            v_ref = mu * v_ref + a * p_ref
            p_ref = p_ref - lr * v_ref
            assert p == pytest.approx(p_ref, rel=1e-14)
            assert v == pytest.approx(v_ref, rel=1e-14)

    def test_array_form(self):
        p = np.array([1.0, -2.0])
        p2, v2 = momentum_step(p, np.array([0.5, 0.5]), np.zeros(2), 0.1, 0.0)
        np.testing.assert_allclose(p2, [0.95, -2.05])
        np.testing.assert_allclose(v2, [0.5, 0.5])


class TestTrainCondgauss:
    def test_zero_epochs_leaves_model_untouched(self):
        ds = blob_task()
        model = fresh_model()
        before = model.get_state()
        model, log = train_condgauss(model, ds, quick_config(lr_schedule=()))
        assert log.rows == []
        for a, b in zip(before, model.get_state()):
            np.testing.assert_array_equal(a, b)

    def test_separable_toy_reaches_nonvacuous_bound(self):
        ds = blob_task(classes=2, per_class=250)
        model = fresh_model(widths=(10, 64, 2))
        model, log = train_condgauss(model, ds, quick_config(lr_schedule=((25, 0.002),)))
        assert log.best_bound() < 0.5

    def test_best_epoch_selection(self):
        ds = blob_task()
        model = fresh_model()
        model, log = train_condgauss(model, ds, quick_config())
        best = log.best_bound()
        # The returned model reproduces the best epoch's KL.
        best_row = min(log.rows, key=lambda r: r.bound_est)
        assert kl_diag_gauss(model.groups) == pytest.approx(best_row.kl, rel=1e-9)
        assert all(r.bound_est >= best - 1e-15 for r in log.rows)

    def test_large_kappa_keeps_posterior_near_prior(self):
        ds = blob_task()
        kl_by_kappa = {}
        for kappa in (1.0, 200.0):
            model = fresh_model()
            spec = BoundSpec(BoundKind.MCALL, kappa=kappa, delta=0.025)
            model, log = train_condgauss(model, ds, quick_config(objective=spec))
            kl_by_kappa[kappa] = log.rows[-1].kl
        assert kl_by_kappa[200.0] < kl_by_kappa[1.0]

    def test_penalty_uses_dataset_size_not_batch(self):
        ds = blob_task()
        model = fresh_model()
        spec = BoundSpec(BoundKind.MCALL, kappa=1.0, delta=0.025)
        model, log = train_condgauss(
            model, ds, quick_config(objective=spec, lr_schedule=((1, 1e-9),), batch_size=50)
        )
        row = log.rows[0]
        expect = penalty(row.kl, len(ds), 0.025, 1.0)
        assert row.pen == pytest.approx(expect, rel=1e-6)

    def test_rounding_negative_kl_penalized_as_zero(self):
        # A posterior a few ulps from its prior can sum to a KL a hair
        # below 0; the objective takes it as the KL of 0 it is.
        model = fresh_model(widths=(20, 64, 4), sigma0=0.05)
        gen = np.random.default_rng(0)
        for g in model.groups:
            g.w_rho = g.w_rho * (1.0 + gen.normal(0.0, 1e-14, g.w_rho.shape))
        prior = prior_terms(model.groups)
        layers = [(lv.w_mean, lv.w_sigma, lv.b_mean, lv.b_sigma) for lv in make_leaves(model)]
        assert kl_sum(layers, prior)[0] < 0.0
        data = blob_task(classes=4, per_class=10, dim=20)
        config = quick_config(objective=BoundSpec(BoundKind.INVKL, kappa=1.0, delta=0.025))
        pen = batch_gradients(model, config, 1000, prior, data.inputs, data.labels, RngStream(1))[2]
        assert pen == penalty(0.0, 1000, 0.025)

    def test_reproducibility(self):
        ds = blob_task()
        logs = []
        for _ in range(2):
            model = fresh_model()
            _, log = train_condgauss(model, ds, quick_config())
            logs.append(log)
        assert logs[0].numeric_rows() == logs[1].numeric_rows()

    # The model is driven to overflow on purpose, so numpy's overflow warnings
    # are expected here and only here.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", [BoundKind.MCALL, BoundKind.INVKL])
    def test_divergence_guard(self, kind):
        ds = blob_task()
        model = fresh_model()
        spec = BoundSpec(kind, kappa=1.0, delta=0.025)
        with pytest.raises(TrainingDiverged):
            train_condgauss(
                model, ds, quick_config(objective=spec, lr_schedule=((20, 5e4),), momentum=0.9)
            )


@pytest.mark.parametrize(
    "phase, kind, nodes",
    [
        ("posterior", BoundKind.INVKL, 11),
        ("posterior", BoundKind.LBD, 11),
        ("baseline", BoundKind.INVKL, 11),
    ],
    ids=["invkl", "lbd", "surrogate"],
)
def test_step_tape_holds_one_node_per_formula(monkeypatch, phase, kind, nodes):
    """A 20-256-4 step's tape at backward: eight parameter leaves, one
    estimate node (the L1 estimate, or the baseline's surrogate loss), the
    KL node and the objective node; lbd's lambda stays off the tape, and
    its lambda epoch builds none."""
    sizes = []
    backward = grad.Tape.backward

    def counting(tape, root):
        sizes.append(len(tape._nodes))
        return backward(tape, root)

    monkeypatch.setattr(grad.Tape, "backward", counting)
    spec = BoundSpec(kind, kappa=1.0, delta=0.025, lam=0.5 if kind == BoundKind.LBD else None)
    cfg = quick_config(
        objective=spec, phase=phase, lr_schedule=((1, 0.002),), batch_size=50, repeats=2
    )
    data = blob_task(classes=4, per_class=25, dim=20)
    train_condgauss(fresh_model(widths=(20, 256, 4)), data, cfg)
    assert len(sizes) == 2
    assert set(sizes) == {nodes}


def test_trainable_layout_follows_one_declaration(monkeypatch, tmp_path):
    """The state list, the step's tape leaves and the snapshot walk each
    layer's TRAINABLE arrays in that order, and one step's gradients come
    back in that order with every array reached."""
    model = fresh_model(widths=(20, 64, 32, 5))
    marks = {}
    for k, g in enumerate(model.groups):
        for i, name in enumerate(TRAINABLE):
            marks[k, name] = 0.1 + 0.01 * (len(TRAINABLE) * k + i)
            setattr(g, name, np.full_like(getattr(g, name), marks[k, name]))
    order = [marks[k, name] for k in range(len(model.groups)) for name in TRAINABLE]
    assert [a.flat[0] for a in model.get_state()] == order
    leaf = grad.Tape.leaf
    leaf_firsts = []

    def recording(tape, value):
        leaf_firsts.append(value.flat[0])
        return leaf(tape, value)

    monkeypatch.setattr(grad.Tape, "leaf", recording)
    save_model(model, tmp_path / "m.model")
    lines = (tmp_path / "m.model").read_text().splitlines()
    for k in range(len(model.groups)):
        at = next(i for i, ln in enumerate(lines) if ln.startswith(f"layer {k} "))
        names = lines[at + 1 : at + 1 + 2 * len(TRAINABLE) : 2]
        firsts = [float(ln.split()[0]) for ln in lines[at + 2 : at + 2 + 2 * len(TRAINABLE) : 2]]
        assert tuple(names) == TRAINABLE
        assert firsts == [marks[k, name] for name in TRAINABLE]

    data = blob_task(classes=5, per_class=20, dim=20)
    config = quick_config(batch_size=100)
    prior = prior_terms(model.groups)
    rng = RngStream(5)
    grads = batch_gradients(model, config, len(data), prior, data.inputs, data.labels, rng)[3]
    assert leaf_firsts == order
    assert [g.shape for g in grads] == [a.shape for a in model.get_state()]
    assert all(np.any(g != 0.0) for g in grads)


def test_step_peak_memory_below_batch_by_hidden_arrays():
    """A steady-state 20-256-4 step at batch 1000, the synth_quick shape,
    peaks below 4.5 MB of traced allocations: it holds [256, 256] row-block
    arrays, where a single [1000, 256] array takes 2.05 MB. A step that
    builds the estimate over the whole batch at once peaked at 9.0 MB."""
    model = fresh_model(widths=(20, 256, 4))
    data = blob_task(classes=4, per_class=250, dim=20)
    config = quick_config(batch_size=1000, repeats=10)
    prior = prior_terms(model.groups)

    def step(b):
        rng = RngStream(5).child("batch", b)
        batch_gradients(model, config, len(data), prior, data.inputs, data.labels, rng)

    step(0)
    tracemalloc.start()
    try:
        step(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


def test_dropout_step_peak_memory_near_plain_step():
    """A 20-256-4 prior step at batch 1000 with dropout 0.3 draws each
    block's dropout uniforms and keeps a boolean mask, so it peaks within
    10% of the same step without dropout (3.46 MB against 3.39 MB when
    written). Whole-batch float64 masks peaked at 5.44 MB."""

    def step_peak(dropout):
        model = fresh_model(widths=(20, 256, 4))
        data = blob_task(classes=4, per_class=250, dim=20)
        config = quick_config(batch_size=1000, repeats=10, phase="prior", dropout_prob=dropout)
        prior = prior_terms(model.groups)

        def step(b):
            rng = RngStream(5).child("batch", b)
            batch_gradients(model, config, len(data), prior, data.inputs, data.labels, rng)

        step(0)
        tracemalloc.start()
        try:
            step(1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert step_peak(0.3) < 1.1 * step_peak(0.0)


class TestLambdaAlternating:
    @staticmethod
    def _lbd_objective(ell, pen_val=0.02):
        """One lambda-epoch batch of the trainer at lambda logit ``ell`` and
        fixed noise, on a model at its prior (KL 0) with kappa picked so the
        penalty is ``pen_val``. Returns (objective, d objective / d ell,
        penalty, estimate)."""
        model = fresh_model(widths=(3, 4, 2))
        m = 1000
        log_term = math.log(2.0 * math.sqrt(m) / 0.025)
        spec = BoundSpec(BoundKind.LBD, kappa=pen_val * m / log_term, delta=0.025, lam=0.5)
        gen = np.random.default_rng(11)
        x, y = gen.uniform(0.0, 1.0, (8, 3)), gen.integers(1, 3, 8)
        pen = penalty(kl_diag_gauss(model.groups), m, spec.delta, spec.kappa)
        lam = 1.0 / (1.0 + math.exp(-ell))
        config = quick_config(objective=spec)
        obj, est, g_ell = lambda_batch(model, config, pen, x, y, RngStream(12), lam)
        return obj, g_ell, pen, est

    def test_lbd_gradient_matches_finite_differences(self):
        # d/d ell of (E + Pen/lam) / (1 - lam/2) at lam = sigmoid(ell) = 0.5,
        # through the logistic reparametrization used in training.
        _, analytic, _, _ = self._lbd_objective(0.0)
        step = 1e-6
        up = self._lbd_objective(step)[0]
        dn = self._lbd_objective(-step)[0]
        assert analytic == pytest.approx((up - dn) / (2 * step), rel=1e-6)

    def test_lambda_only_updates_converge_to_grid_optimum(self):
        _, _, pen_val, e_val = self._lbd_objective(0.0)
        lams = np.linspace(0.001, 0.999, 999)
        grid_best = lams[np.argmin((e_val + pen_val / lams) / (1 - lams / 2))]

        ell, vel = 0.0, 0.0
        for _ in range(600):
            g_ell = self._lbd_objective(ell)[1]
            ell, vel = momentum_step(ell, g_ell, vel, 0.5, 0.5)
        lam_final = 1.0 / (1.0 + math.exp(-ell))
        assert abs(lam_final - grid_best) <= 1e-3

    @pytest.mark.parametrize("phase", ["posterior", "baseline"])
    def test_lambda_batch_adds_the_taped_floats(self, phase):
        """A lambda epoch's value path gives the objective, estimate and
        penalty of the taped step at the same state, lambda and noise, to
        the last bit, so lbd runs do not move."""
        model = fresh_model(widths=(10, 16, 3), sigma0=0.05)
        gen = np.random.default_rng(21)
        for g in model.groups:
            g.w_mean = g.w_mean + gen.normal(0.0, 0.05, g.w_mean.shape)
            g.w_rho = g.w_rho * gen.uniform(0.8, 1.2, g.w_rho.shape)
        data = blob_task(per_class=40)
        spec = BoundSpec(BoundKind.LBD, kappa=1.0, delta=0.025, lam=0.3)
        config = quick_config(objective=spec, phase=phase)
        m, lam = 4000, 0.37
        rng = RngStream(22).child("batch")
        obj, est, pen, _ = batch_gradients(
            model, config, m, prior_terms(model.groups), data.inputs, data.labels, rng, lam
        )
        assert pen > penalty(0.0, m, spec.delta)
        pen_epoch = penalty(kl_diag_gauss(model.groups), m, spec.delta, spec.kappa)
        assert pen_epoch == pen
        value_path = lambda_batch(model, config, pen_epoch, data.inputs, data.labels, rng, lam)
        assert value_path[:2] == (obj, est)

    def test_lambda_epoch_builds_no_tape(self, monkeypatch):
        """Parameter epochs build a tape per batch; lambda epochs build none."""
        calls = []

        def leaves(model):
            calls.append("leaves")
            return make_leaves(model)

        def value_batch(*args):
            calls.append("lambda")
            return lambda_batch(*args)

        monkeypatch.setattr(trainer, "make_leaves", leaves)
        monkeypatch.setattr(trainer, "lambda_batch", value_batch)
        spec = BoundSpec(BoundKind.LBD, kappa=1.0, delta=0.025, lam=0.5)
        cfg = quick_config(objective=spec, lr_schedule=((2, 0.002),), batch_size=150)
        _, log = train_condgauss(fresh_model(), blob_task(), cfg)
        assert len(log.rows) == 4
        assert calls == (["leaves"] * 3 + ["lambda"] * 3) * 2
        assert log.rows[1].lam != log.rows[2].lam  # the lambda epoch stepped lambda

    def test_alternating_run_doubles_epochs_and_keeps_lambda_interior(self):
        ds = blob_task()
        model = fresh_model()
        cfg = quick_config(
            objective=BoundSpec(BoundKind.LBD, kappa=1.0, delta=0.025, lam=0.5),
            lr_schedule=((6, 0.002),),
        )
        model, log = train_condgauss(model, ds, cfg)
        assert len(log.rows) == 12
        assert all(0.0 < r.lam < 1.0 for r in log.rows)
        # Parameter epochs (even) keep lambda fixed; lambda epochs move it.
        assert log.rows[0].lam == pytest.approx(0.5)


class TestTrainPrior:
    def test_erm_prior_freezes_and_zeroes_kl(self):
        ds = blob_task()
        s1, s2 = ds.subset(np.arange(0, 225), "prior", "tok"), ds.subset(np.arange(225, 450), "bound", "tok")
        model = fresh_model()
        cfg = quick_config(objective=None, phase="prior", lr_schedule=((5, 0.002),))
        model, log = train_condgauss(model, s1, cfg)
        assert kl_diag_gauss(model.groups) == 0.0
        assert model.prior_fingerprint == s1.fingerprint
        assert model.prior_pair_token == "tok"
        assert len(log.rows) == 5
        # ERM logs the bare estimate as the objective.
        for r in log.rows:
            assert r.objective == pytest.approx(r.emp_est, abs=0.2)

    def test_invkl_prior_uses_prior_split_size(self):
        ds = blob_task()
        s1 = ds.subset(np.arange(0, 200), "prior", "tok2")
        model = fresh_model()
        spec = BoundSpec(BoundKind.INVKL, kappa=0.01, delta=0.025)
        cfg = quick_config(objective=spec, phase="prior", lr_schedule=((1, 1e-9),))
        model, log = train_condgauss(model, s1, cfg)
        row = log.rows[0]
        expect = penalty(0.0, 200, 0.025, 0.01)
        assert row.pen == pytest.approx(expect, rel=1e-3)

    def test_dropout_only_in_prior_phase(self):
        ds = blob_task()
        model = fresh_model()
        cfg = quick_config(objective=None, phase="prior", dropout_prob=0.2, lr_schedule=((3, 0.002),))
        model, log = train_condgauss(model, ds.subset(np.arange(300), "prior", "t"), cfg)
        assert len(log.rows) == 3
        for phase in ("posterior", "baseline"):
            with pytest.raises(ValueError, match="dropout"):
                quick_config(phase=phase, dropout_prob=0.2)

    def test_rejects_wrong_phase_or_objective(self):
        for phase in ("posterior", "baseline"):
            with pytest.raises(ValueError, match="prior phase"):
                quick_config(objective=None, phase=phase)
        for spec in (
            BoundSpec(BoundKind.QUAD),
            BoundSpec(BoundKind.MCALL),
            BoundSpec(BoundKind.LBD, lam=0.5),
        ):
            with pytest.raises(ValueError, match="prior training"):
                quick_config(objective=spec, phase="prior")


@pytest.mark.parametrize("phase", ["posterior", "baseline"])
@pytest.mark.parametrize(
    "data, message",
    [
        (synth_blobs(3, 20, 4, 0.8, 1), "data rows have width 4, but the model takes p=6"),
        (synth_blobs(5, 20, 6, 0.8, 1), "data labels span 1..5, but the model's classes are 1..3"),
        (LabelledDataset(np.zeros((0, 6)), np.zeros(0, dtype=int), q=3), "data has no rows"),
    ],
    ids=["width", "labels", "empty"],
)
def test_data_not_matching_model_rejected_before_first_step(monkeypatch, phase, data, message):
    def no_step(model):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "make_leaves", no_step)
    cfg = quick_config(phase=phase, lr_schedule=((1, 0.002),))
    with pytest.raises(ValueError, match=re.escape(message)):
        train_condgauss(fresh_model(widths=(6, 8, 3)), data, cfg)

class TestSurrogateBaseline:
    def test_surrogate_objective_stays_bounded(self):
        ds = blob_task()
        model = fresh_model()
        cfg = quick_config(phase="baseline", lr_schedule=((6, 0.05),))
        model, log = train_condgauss(model, ds, cfg)
        for r in log.rows:
            assert 0.0 <= r.emp_est <= 1.0
            assert math.isfinite(r.objective)

    def test_surrogate_loss_values(self):
        # Direct check of the bounded cross-entropy construction.
        from condgauss.network import estimate_node
        from condgauss.trainer import _SurrogateHead

        def surrogate(x, y0, rng):
            """The baseline step's estimate."""
            leaves = make_leaves(model)
            head = _SurrogateHead(leaves[-1], y0, rng.child("theta", model.spec.n_layers - 1))
            return estimate_node(leaves, x, rng, model.spec, head)[0]

        model = fresh_model(widths=(10, 8, 3), sigma0=1e-5)
        gen = np.random.default_rng(7)
        x = gen.uniform(0, 1, (20, 10))
        y = gen.integers(1, 4, 20)
        assert 0.0 <= surrogate(x, y - 1, RngStream(8)) <= 1.0
        # Probability-1 correct prediction drives the loss to zero.
        model.groups[-1].b_mean = np.array([1e4, 0.0, 0.0])
        assert surrogate(x[:4], np.zeros(4, dtype=int), RngStream(9)) < 1e-6

    def test_epoch_end_estimate_builds_no_step(self, monkeypatch):
        """A 3-epoch baseline run of 2 batches an epoch builds 6 step tapes:
        the epoch-end conditional estimate computes its value with no
        leaves, so a step counter keyed on ``make_leaves`` sees only steps."""
        calls = []
        make = network.make_leaves

        def counting(model):
            calls.append(1)
            return make(model)

        for module in (network, trainer):
            monkeypatch.setattr(module, "make_leaves", counting)
        cfg = quick_config(phase="baseline", lr_schedule=((3, 0.01),), batch_size=225)
        train_condgauss(fresh_model(), blob_task(), cfg)
        assert len(calls) == 6


class TestTrainLogCsv:
    def test_csv_line_literal(self):
        row = LogRow(3, 0.25, 0.1, 12.0, 0.05, 0.30000000000000004, None, 1.5)
        assert row.csv_line() == "3,0.25,0.1,12.0,0.05,0.30000000000000004,NA,1.5"
        row.lam = 0.4
        assert row.csv_line() == "3,0.25,0.1,12.0,0.05,0.30000000000000004,0.4,1.5"

    def test_csv_layout(self, tmp_path):
        ds = blob_task()
        model = fresh_model()
        model, log = train_condgauss(model, ds, quick_config(lr_schedule=((2, 0.002),)))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[6] == "NA"  # no lambda for invKL
        float(first[1]), float(first[4])  # parseable floats

    def test_lambda_column_present_for_lbd(self, tmp_path):
        ds = blob_task()
        model = fresh_model()
        cfg = quick_config(
            objective=BoundSpec(BoundKind.LBD, kappa=1.0, delta=0.025, lam=0.5),
            lr_schedule=((2, 0.002),),
        )
        model, log = train_condgauss(model, ds, cfg)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        rows = path.read_text().strip().splitlines()[1:]
        assert all(r.split(",")[6] != "NA" for r in rows)

    def test_bound_est_consistent_with_logged_quantities(self):
        ds = blob_task()
        model = fresh_model()
        model, log = train_condgauss(model, ds, quick_config(lr_schedule=((3, 0.002),)))
        for r in log.rows:
            pen1 = penalty(r.kl, len(ds), 0.025, 1.0)
            assert r.bound_est == pytest.approx(kl_inv(r.emp_est, pen1), rel=1e-9)
