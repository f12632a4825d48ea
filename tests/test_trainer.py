"""Training loops: momentum semantics, phase wiring, penalty bookkeeping,
lambda alternation, the surrogate baseline, logging, and reproducibility."""
import math

import numpy as np
import pytest

from condgauss import grad
from condgauss.bounds import BoundKind, BoundSpec, PenaltyInputs, kl_inv, penalty
from condgauss.data import synth_blobs
from condgauss.gaussian import kl_diag_gauss
from condgauss.network import ModelSpec, StochasticModel
from condgauss.rng import RngStream
from condgauss.trainer import (
    CSV_HEADER,
    TrainConfig,
    TrainingDiverged,
    momentum_step,
    train_condgauss,
    train_lambda_alternating,
    train_prior,
    train_surrogate_baseline,
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
        expect = penalty(PenaltyInputs(row.kl, len(ds), 0.025, 1.0))
        assert row.pen == pytest.approx(expect, rel=1e-6)

    def test_reproducibility(self):
        ds = blob_task()
        logs = []
        for _ in range(2):
            model = fresh_model()
            _, log = train_condgauss(model, ds, quick_config())
            logs.append(log)
        assert logs[0].numeric_rows() == logs[1].numeric_rows()

    def test_rejects_lbd_kind(self):
        with pytest.raises(ValueError):
            train_condgauss(fresh_model(), blob_task(), quick_config(
                objective=BoundSpec(BoundKind.LBD, lam=0.5)))

    @pytest.mark.parametrize("kind", [BoundKind.MCALL, BoundKind.INVKL])
    def test_divergence_guard(self, kind):
        ds = blob_task()
        model = fresh_model()
        spec = BoundSpec(kind, kappa=1.0, delta=0.025)
        with pytest.raises(TrainingDiverged):
            train_condgauss(
                model, ds, quick_config(objective=spec, lr_schedule=((20, 5e4),), momentum=0.9)
            )


class TestLambdaAlternating:
    def test_lbd_gradient_matches_finite_differences(self):
        # d/dlam (E + Pen/lam) / (1 - lam/2) at lam = 0.5, via the logistic
        # reparametrization used in training.
        e_val, pen_val = 0.1, 0.02

        def value(ell):
            tape = grad.Tape()
            leaf = tape.leaf(np.array(ell))
            lam = grad.sigmoid(leaf)
            obj = grad.div(grad.add(grad.div(np.array(pen_val), lam), e_val),
                           grad.sub(1.0, grad.mul(lam, 0.5)))
            tape.backward(obj)
            return float(obj.value), float(leaf.grad)

        v, analytic = value(0.0)
        step = 1e-6
        up, _ = value(step)
        dn, _ = value(-step)
        assert analytic == pytest.approx((up - dn) / (2 * step), rel=1e-6)

    def test_lambda_only_updates_converge_to_grid_optimum(self):
        e_val, pen_val = 0.1, 0.02
        lams = np.linspace(0.001, 0.999, 999)
        grid_best = lams[np.argmin((e_val + pen_val / lams) / (1 - lams / 2))]

        ell, vel = 0.0, 0.0
        for _ in range(600):
            tape = grad.Tape()
            leaf = tape.leaf(np.array(ell))
            lam = grad.sigmoid(leaf)
            obj = grad.div(grad.add(grad.div(np.array(pen_val), lam), e_val),
                           grad.sub(1.0, grad.mul(lam, 0.5)))
            tape.backward(obj)
            ell, vel = momentum_step(ell, float(leaf.grad), vel, 0.5, 0.5)
        lam_final = 1.0 / (1.0 + math.exp(-ell))
        assert abs(lam_final - grid_best) <= 1e-3

    def test_alternating_run_doubles_epochs_and_keeps_lambda_interior(self):
        ds = blob_task()
        model = fresh_model()
        cfg = quick_config(
            objective=BoundSpec(BoundKind.LBD, kappa=1.0, delta=0.025, lam=0.5),
            lr_schedule=((6, 0.002),),
        )
        model, log = train_lambda_alternating(model, ds, cfg)
        assert len(log.rows) == 12
        assert all(0.0 < r.lam < 1.0 for r in log.rows)
        # Parameter epochs (even) keep lambda fixed; lambda epochs move it.
        assert log.rows[0].lam == pytest.approx(0.5)

    def test_requires_lbd(self):
        with pytest.raises(ValueError):
            train_lambda_alternating(fresh_model(), blob_task(), quick_config())


class TestTrainPrior:
    def test_erm_prior_freezes_and_zeroes_kl(self):
        ds = blob_task()
        s1, s2 = ds.subset(np.arange(0, 225), "prior", "tok"), ds.subset(np.arange(225, 450), "bound", "tok")
        model = fresh_model()
        cfg = quick_config(objective=None, phase="prior", lr_schedule=((5, 0.002),))
        model, log = train_prior(model, s1, cfg)
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
        model, log = train_prior(model, s1, cfg)
        row = log.rows[0]
        expect = penalty(PenaltyInputs(0.0, 200, 0.025, 0.01))
        assert row.pen == pytest.approx(expect, rel=1e-3)

    def test_dropout_only_in_prior_phase(self):
        ds = blob_task()
        model = fresh_model()
        cfg = quick_config(objective=None, phase="prior", dropout_prob=0.2, lr_schedule=((3, 0.002),))
        model, log = train_prior(model, ds.subset(np.arange(300), "prior", "t"), cfg)
        assert len(log.rows) == 3

    def test_rejects_wrong_phase_or_objective(self):
        with pytest.raises(ValueError):
            train_prior(fresh_model(), blob_task(), quick_config(objective=None, phase="posterior"))
        with pytest.raises(ValueError):
            train_prior(
                fresh_model(), blob_task(),
                quick_config(objective=BoundSpec(BoundKind.QUAD), phase="prior"),
            )


class TestSurrogateBaseline:
    def test_surrogate_objective_stays_bounded(self):
        ds = blob_task()
        model = fresh_model()
        cfg = quick_config(phase="baseline", lr_schedule=((6, 0.05),))
        model, log = train_surrogate_baseline(model, ds, cfg)
        for r in log.rows:
            assert 0.0 <= r.emp_est <= 1.0
            assert math.isfinite(r.objective)

    def test_surrogate_loss_values(self):
        # Direct check of the bounded cross-entropy construction.
        from condgauss.network import make_leaves
        from condgauss.trainer import _surrogate_batch

        model = fresh_model(widths=(10, 8, 3), sigma0=1e-5)
        gen = np.random.default_rng(7)
        x = gen.uniform(0, 1, (20, 10))
        y = gen.integers(1, 4, 20)
        tape = grad.Tape()
        leaves = make_leaves(tape, model)
        node, emp01 = _surrogate_batch(model, leaves, x, y - 1, RngStream(8), tape)
        assert 0.0 <= float(node.value) <= 1.0
        assert 0.0 <= emp01 <= 1.0
        # Probability-1 correct prediction drives the loss to zero.
        model.groups[-1].b_mean = np.array([1e4, 0.0, 0.0])
        tape = grad.Tape()
        leaves = make_leaves(tape, model)
        node, _ = _surrogate_batch(
            model, leaves, x[:4], np.zeros(4, dtype=int), RngStream(9), tape
        )
        assert float(node.value) < 1e-6

    def test_requires_baseline_phase(self):
        with pytest.raises(ValueError):
            train_surrogate_baseline(fresh_model(), blob_task(), quick_config())


class TestTrainLogCsv:
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
        model, log = train_lambda_alternating(model, ds, cfg)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        rows = path.read_text().strip().splitlines()[1:]
        assert all(r.split(",")[6] != "NA" for r in rows)

    def test_bound_est_consistent_with_logged_quantities(self):
        ds = blob_task()
        model = fresh_model()
        model, log = train_condgauss(model, ds, quick_config(lr_schedule=((3, 0.002),)))
        for r in log.rows:
            pen1 = penalty(PenaltyInputs(r.kl, len(ds), 0.025, 1.0))
            assert r.bound_est == pytest.approx(kl_inv(r.emp_est, pen1), rel=1e-9)
