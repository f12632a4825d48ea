"""Certification chain: Monte-Carlo error, inner bound, nested final bound,
the data-disjointness guard, and the serialized certificate format."""
import math
import re

import numpy as np
import pytest

import condgauss.certify as certify
import condgauss.gaussian as gaussian
from condgauss.bounds import kl_inv, penalty
from condgauss.certify import (
    Certificate,
    CertificationRefused,
    draw_errors,
    final_certificate,
    inner_bound,
    mc_empirical_error,
    worker_count,
)
from condgauss.data import split_prior_bound, synth_blobs
from condgauss.network import (
    ModelSpec,
    StochasticModel,
    exact_misclassification,
    sample_full,
)
from condgauss.rng import RngStream
from condgauss.trainer import TrainConfig, train_condgauss


def toy_model(seed=0, widths=(8, 16, 3), sigma0=0.05):
    return StochasticModel.initialize(ModelSpec(widths), sigma0, RngStream(seed).child("m"))


def toy_data(seed=5, classes=3, per_class=60, dim=8):
    return synth_blobs(classes, per_class, dim, 0.8, seed)


class TestInnerBound:
    def test_zero_error_closed_form(self):
        # kl_inv(0, log(2/d')/N) = 1 - (d'/2)^(1/N)
        for n, dp in ((100, 0.01), (5000, 0.05)):
            expect = 1.0 - (dp / 2.0) ** (1.0 / n)
            assert inner_bound(0.0, n, dp) == pytest.approx(expect, rel=1e-10)

    def test_monotone_decreasing_in_draws(self):
        vals = [inner_bound(0.1, n, 0.01) for n in (10, 100, 1000, 100000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.1, abs=0.01)

    def test_paper_anchor(self):
        # Table 1 "G invKL": the N=150000 correction of .0356 is ~.0372.
        assert inner_bound(0.0356, 150000, 0.01) == pytest.approx(0.0372, abs=2e-4)

    def test_newton_agrees_with_bisection(self):
        # Cross-check the solver against plain bisection on the same kl.
        from condgauss.bounds import kl_bernoulli

        u, c = 0.0356, math.log(200.0) / 150000
        lo, hi = u, 1.0 - 1e-12
        for _ in range(200):
            mid = (lo + hi) / 2
            if kl_bernoulli(u, mid) > c:
                hi = mid
            else:
                lo = mid
        assert inner_bound(u, 150000, 0.01) == pytest.approx((lo + hi) / 2, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            inner_bound(0.1, 0, 0.01)
        with pytest.raises(ValueError):
            inner_bound(0.1, 10, 1.5)


class TestMcEmpiricalError:
    def test_single_draw_equals_exact_call(self):
        model = toy_model()
        ds = toy_data()
        rng = RngStream(9).child("cert")
        got = mc_empirical_error(model, ds, 1, rng)
        theta = sample_full(model, rng.child("draw", 0))
        assert got == exact_misclassification(model, ds.inputs, ds.labels, theta)

    def test_sigmas_taken_once_per_call(self, monkeypatch):
        # sigma = |rho|^(3/2) of every layer is derived once per call, so the
        # count of sigma_of_rho calls does not grow with the draw count.
        model = toy_model()
        ds = toy_data()
        calls = []
        original = gaussian.sigma_of_rho

        def counting(rho):
            calls.append(1)
            return original(rho)

        monkeypatch.setattr(gaussian, "sigma_of_rho", counting)
        counts = []
        for n_draws in (1, 8):
            calls.clear()
            draw_errors(model, ds, n_draws, RngStream(12))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_deterministic(self):
        model = toy_model()
        ds = toy_data()
        a = mc_empirical_error(model, ds, 25, RngStream(10))
        b = mc_empirical_error(model, ds, 25, RngStream(10))
        assert a == b

    def test_worker_count_does_not_change_result(self, monkeypatch):
        model = toy_model()
        ds = toy_data()
        monkeypatch.setenv("CONDGAUSS_THREADS", "1")
        a = mc_empirical_error(model, ds, 30, RngStream(11))
        monkeypatch.setenv("CONDGAUSS_THREADS", "3")
        assert worker_count() == 3
        b = mc_empirical_error(model, ds, 30, RngStream(11))
        assert a == b

    @pytest.mark.parametrize(
        "widths, data, message",
        [
            ((6, 8, 3), (5, 6), "labels span 1..5, but the model's classes are 1..3"),
            ((7, 8, 3), (3, 6), "rows have width 6, but the model takes p=7"),
        ],
        ids=["labels_above_q", "width"],
    )
    def test_data_not_matching_model_rejected_before_draws(self, monkeypatch, widths, data, message):
        classes, dim = data
        model = toy_model(widths=widths)
        drawn = []
        monkeypatch.setattr(certify, "sample_full", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=re.escape(message)):
            final_certificate(model, toy_data(classes=classes, dim=dim), 5, 0.025, 0.01, RngStream(3))
        assert drawn == []

    @pytest.mark.parametrize(
        "array, value, message",
        [
            ("prior_b_sigma", -0.01, "prior sigma must be strictly positive"),
            ("w_rho", 0.0, "posterior sigma must be strictly positive"),
        ],
        ids=["negative_prior_sigma", "zero_rho"],
    )
    def test_bad_kl_rejected_before_draws(self, monkeypatch, array, value, message):
        model = toy_model()
        bad = getattr(model.groups[0], array).copy()
        bad.flat[0] = value
        setattr(model.groups[0], array, bad)
        drawn = []
        monkeypatch.setattr(certify, "sample_full", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=message):
            final_certificate(model, toy_data(), 5, 0.025, 0.01, RngStream(3))
        assert drawn == []

    def test_rejects_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv("CONDGAUSS_THREADS", "zero")
        with pytest.raises(ValueError):
            worker_count()
        monkeypatch.setenv("CONDGAUSS_THREADS", "0")
        with pytest.raises(ValueError):
            worker_count()


class TestFinalCertificate:
    def test_paper_anchor_chain(self):
        # Table 1 "G invKL" row: emp err .0356, Pen .0556 -> bound .1355.
        inner = inner_bound(0.0356, 150000, 0.01)
        assert kl_inv(inner, 0.0556) == pytest.approx(0.1355, abs=2e-3)

    def test_zero_kl_zero_error_structure(self):
        model = toy_model(sigma0=1e-4)
        # Perfectly separable by construction: reuse training-free structure
        # with a huge-margin head.
        from tests.test_network import block_inputs, perfect_linear_model

        model = perfect_linear_model()
        gen = np.random.default_rng(13)
        x, labels = block_inputs(gen, 120)
        from condgauss.data import LabelledDataset

        ds = LabelledDataset(inputs=np.clip(x, 0, 1), labels=labels, q=3)
        cert = final_certificate(model, ds, 50, 0.025, 0.01, RngStream(14))
        assert cert.tilde_e == 0.0
        m = len(ds)
        expect_inner = 1.0 - (0.01 / 2.0) ** (1.0 / 50)
        assert cert.inner_bound == pytest.approx(expect_inner, rel=1e-9)
        assert cert.final_bound == pytest.approx(
            kl_inv(expect_inner, penalty(0.0, m, 0.025, 1.0)), rel=1e-9
        )

    def test_nesting_order(self):
        model = toy_model()
        ds = toy_data()
        cert = final_certificate(model, ds, 40, 0.025, 0.01, RngStream(15))
        assert cert.tilde_e <= cert.inner_bound <= cert.final_bound
        assert 0.0 <= cert.final_bound <= 1.0
        assert cert.confidence == pytest.approx(0.965)

    def test_monotone_in_kl(self):
        # The outer lift is nondecreasing in the KL divergence.
        inner = 0.12
        bounds = [
            kl_inv(inner, penalty(kl, 5000, 0.025, 1.0))
            for kl in np.linspace(0.0, 400.0, 17)
        ]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))

    def test_determinism(self):
        model = toy_model()
        ds = toy_data()
        a = final_certificate(model, ds, 20, 0.025, 0.01, RngStream(16))
        b = final_certificate(model, ds, 20, 0.025, 0.01, RngStream(16))
        assert a == b

    def test_refuses_tiny_dataset_and_bad_deltas(self):
        model = toy_model()
        ds = toy_data().subset(np.arange(5), "whole")
        with pytest.raises(ValueError):
            final_certificate(model, ds, 10, 0.025, 0.01, RngStream(17))
        with pytest.raises(ValueError):
            final_certificate(model, toy_data(), 10, 0.6, 0.5, RngStream(17))


class TestDisjointnessGuard:
    def make_trained_prior(self):
        ds = toy_data(per_class=80)
        s1, s2 = split_prior_bound(ds, 0.5, seed=21)
        model = toy_model()
        cfg = TrainConfig(
            objective=None,
            lr_schedule=((2, 0.001),),
            momentum=0.0,
            batch_size=120,
            repeats=3,
            seed=21,
            phase="prior",
        )
        model, _ = train_condgauss(model, s1, cfg)
        return model, ds, s1, s2

    def test_data_free_prior_certifies_anywhere(self):
        model = toy_model()
        ds = toy_data()
        cert = final_certificate(model, ds, 10, 0.025, 0.01, RngStream(22))
        assert cert.split_hash == ds.fingerprint

    def test_bound_half_accepted(self):
        model, ds, s1, s2 = self.make_trained_prior()
        cert = final_certificate(model, s2, 10, 0.025, 0.01, RngStream(23))
        assert cert.m == len(s2)
        assert cert.split_hash == s2.fingerprint

    def test_prior_half_refused(self):
        model, ds, s1, s2 = self.make_trained_prior()
        with pytest.raises(CertificationRefused):
            final_certificate(model, s1, 10, 0.025, 0.01, RngStream(24))

    def test_whole_dataset_refused(self):
        model, ds, s1, s2 = self.make_trained_prior()
        with pytest.raises(CertificationRefused):
            final_certificate(model, ds, 10, 0.025, 0.01, RngStream(25))

    def test_foreign_bound_split_refused(self):
        model, ds, s1, s2 = self.make_trained_prior()
        other = toy_data(seed=99, per_class=80)
        _, other_bound = split_prior_bound(other, 0.5, seed=21)
        with pytest.raises(CertificationRefused):
            final_certificate(model, other_bound, 10, 0.025, 0.01, RngStream(26))


class TestCertificateSerialization:
    def test_keys_exact_and_round_trip(self):
        cert = Certificate(
            tilde_e=0.1,
            n_draws=100,
            delta_prime=0.01,
            inner_bound=0.13,
            kl=12.5,
            m=4000,
            delta=0.025,
            pen=0.005,
            final_bound=0.2,
            confidence=0.965,
            split_hash="deadbeef",
        )
        text = cert.to_text()
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert tuple(keys) == (
            "tilde_e", "n_draws", "delta_prime", "inner_bound", "kl", "m",
            "delta", "pen", "final_bound", "confidence", "split_hash",
        )
        assert text == (
            "tilde_e=0.1\nn_draws=100\ndelta_prime=0.01\ninner_bound=0.13\nkl=12.5\n"
            "m=4000\ndelta=0.025\npen=0.005\nfinal_bound=0.2\nconfidence=0.965\n"
            "split_hash=deadbeef\n"
        )
        assert Certificate.from_text(text) == cert

    def test_nesting_enforced(self):
        with pytest.raises(ValueError):
            Certificate(
                tilde_e=0.3,
                n_draws=10,
                delta_prime=0.01,
                inner_bound=0.2,  # below tilde_e
                kl=0.0,
                m=100,
                delta=0.025,
                pen=0.01,
                final_bound=0.4,
                confidence=0.965,
                split_hash="x",
            )
