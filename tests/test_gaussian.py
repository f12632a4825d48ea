"""Gaussian primitives: CDF accuracy, estimators and their gradients,
conditional moments, diagonal KL, and the integration-by-parts validators."""
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest

from condgauss.checks import TEST_FUNCTIONS, price_swap_gaps, stein_identity_gap
from condgauss.gaussian import (
    ConditionalHead,
    GaussianParamGroup,
    argmax_error_frequency,
    binary_error_prob,
    conditional_moments,
    dsigma_of_rho,
    kl_diag_gauss,
    l1_samples,
    l2_samples,
    sample_gaussian,
    sigma_of_rho,
    std_normal_cdf,
)
from condgauss.rng import RngStream

NCDF_ONE = 0.84134474606854294859  # mpmath.ncdf(1), 60 digits
SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: certification of a saved model must not load
# scipy.special, and the first estimator call must.
SCIPY_LOAD_SCRIPT = textwrap.dedent(
    """
    import sys, tempfile
    from pathlib import Path

    import condgauss
    from condgauss import cli
    from condgauss.certify import final_certificate
    from condgauss.data import synth_blobs
    from condgauss.network import ModelSpec, StochasticModel, batch_error_estimate, save_model
    from condgauss.rng import RngStream

    def loaded(stage):
        print("loaded", stage, "scipy.special" in sys.modules)

    loaded("import")
    model = StochasticModel.initialize(ModelSpec((4, 5, 3)), 0.01, RngStream(1))
    ds = synth_blobs(3, 10, 4, 0.8, 2)
    final_certificate(model, ds, 5, 0.025, 0.01, RngStream(3))
    loaded("final_certificate")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "m.model")
        save_model(model, path)
        synth = ["--synth", "3,10,4,0.8,2", "--n-draws", "5"]
        assert cli.main(["certify", "--model", path, *synth]) == 0
        loaded("certify")
        assert cli.main(["eval", "--model", path, *synth]) == 0
        loaded("eval")
    batch_error_estimate(model, ds.inputs, ds.labels, RngStream(4), repeats=2)
    loaded("batch_error_estimate")
    """
)


def random_head(gen, q):
    return ConditionalHead(M=gen.uniform(-1.5, 1.5, q), V=gen.uniform(0.1, 2.0, q))


def quadrature_error_prob(head, y, nodes=200):
    """Independent truth: P(err) = 1 - E_{t~N(My,Vy)} prod_{i!=y} Phi(...)."""
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(nodes)
    z = math.sqrt(2.0) * x
    w = w / math.sqrt(math.pi)
    y0 = y - 1
    t = head.M[y0] + math.sqrt(head.V[y0]) * z
    prod = np.ones_like(t)
    for i in range(head.q):
        if i != y0:
            prod = prod * std_normal_cdf((t - head.M[i]) / math.sqrt(head.V[i]))
    return 1.0 - float(np.sum(w * prod))


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_reference_value(self):
        assert std_normal_cdf(1.0) == pytest.approx(NCDF_ONE, abs=1e-12)

    def test_matches_mpmath_on_grid(self):
        with mpmath.workdps(30):
            for t in np.linspace(-6, 6, 25):
                assert std_normal_cdf(t) == pytest.approx(float(mpmath.ncdf(t)), abs=1e-12)

    def test_deep_tail_no_underflow_crash(self):
        v = std_normal_cdf(-50.0)
        assert 0.0 <= v <= 1e-300

    def test_reflection(self):
        t = np.linspace(-8, 8, 33)
        np.testing.assert_allclose(std_normal_cdf(t) + std_normal_cdf(-t), 1.0, atol=1e-14)

    def test_bit_identical_to_scipy_ndtr(self):
        from scipy.special import ndtr

        t = np.array([0.0, 1e-300, -1e-300, 1.0, -1.0, 8.0, -8.0, 40.0, -40.0, np.inf, -np.inf, np.nan])
        assert std_normal_cdf(t).tobytes() == ndtr(t).tobytes()
        for v in t:
            assert np.float64(std_normal_cdf(v)).tobytes() == np.float64(ndtr(v)).tobytes()

    def test_scipy_loads_only_at_first_cdf_call(self):
        env = dict(os.environ, CONDGAUSS_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_LOAD_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        stages = dict(line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("loaded "))
        assert stages == {
            "import": "False",
            "final_certificate": "False",
            "certify": "False",
            "eval": "False",
            "batch_error_estimate": "True",
        }


class TestSigmaOfRho:
    @pytest.mark.parametrize("rho,sigma,dsigma", [(1.0, 1.0, 1.5), (4.0, 8.0, 3.0), (-1.0, 1.0, -1.5), (0.0, 0.0, 0.0)])
    def test_values(self, rho, sigma, dsigma):
        assert sigma_of_rho(rho) == pytest.approx(sigma, abs=1e-14)
        assert dsigma_of_rho(rho) == pytest.approx(dsigma, abs=1e-14)

    def test_array_form(self):
        rho = np.array([1.0, 4.0, -1.0])
        np.testing.assert_allclose(sigma_of_rho(rho), [1.0, 8.0, 1.0])
        np.testing.assert_allclose(dsigma_of_rho(rho), [1.5, 3.0, -1.5])


class TestBinaryErrorProb:
    def test_symmetric_head(self):
        head = ConditionalHead(M=np.zeros(2), V=np.ones(2))
        assert binary_error_prob(head, 1) == 0.5
        assert binary_error_prob(head, 2) == 0.5

    def test_closed_form_value(self):
        head = ConditionalHead(M=np.array([1.0, 0.0]), V=np.array([0.5, 0.5]))
        assert binary_error_prob(head, 1) == pytest.approx(1.0 - NCDF_ONE, abs=1e-12)

    def test_against_sampling_oracle(self):
        gen = np.random.default_rng(5)
        head = random_head(gen, 2)
        for y in (1, 2):
            freq, se = argmax_error_frequency(head, y, RngStream(50).child("mc", y), 400_000)
            assert abs(binary_error_prob(head, y) - freq) <= 4.0 * se

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            binary_error_prob(ConditionalHead(M=np.zeros(3), V=np.ones(3)), 1)

    def test_gradient_never_vanishes_at_moderate_scores(self):
        # Unlike the raw 0-1 loss, the closed form has nonzero derivatives in
        # every direction wherever psi' is representable.
        step = 1e-6
        gen = np.random.default_rng(123)
        for _ in range(20):
            M = gen.uniform(-3, 3, 2)
            V = gen.uniform(0.2, 2.0, 2)
            for i in range(2):
                up, dn = M.copy(), M.copy()
                up[i] += step
                dn[i] -= step
                fd = (
                    binary_error_prob(ConditionalHead(up, V), 1)
                    - binary_error_prob(ConditionalHead(dn, V), 1)
                ) / (2 * step)
                assert fd != 0.0
            upv = V.copy()
            upv[0] += step
            fd_v = (
                binary_error_prob(ConditionalHead(M, upv), 1)
                - binary_error_prob(ConditionalHead(M, V), 1)
            ) / step
            if abs(M[0] - M[1]) > 1e-3:
                assert fd_v != 0.0


class TestSamplingOracle:
    def test_oracle_matches_quadrature(self):
        # The argmax-frequency oracle itself is validated against numerical
        # integration before it judges the estimators.
        gen = np.random.default_rng(21)
        head = random_head(gen, 4)
        truth = quadrature_error_prob(head, 2)
        freq, se = argmax_error_frequency(head, 2, RngStream(51), 500_000)
        assert abs(freq - truth) <= 4.0 * se


class TestEstimators:
    @pytest.mark.parametrize("sampler", [l1_samples, l2_samples])
    def test_exchangeable_head_gives_chance_error(self, sampler):
        for q in (2, 5):
            head = ConditionalHead(M=np.zeros(q), V=np.full(q, 1.3))
            values, _, _ = sampler(head, 1, RngStream(60).child(q), 200_000)
            se = values.std() / math.sqrt(len(values))
            assert abs(values.mean() - (1.0 - 1.0 / q)) <= 4.0 * se

    @pytest.mark.parametrize("sampler", [l1_samples, l2_samples])
    def test_binary_matches_closed_form(self, sampler):
        gen = np.random.default_rng(8)
        head = random_head(gen, 2)
        exact = binary_error_prob(head, 2)
        values, _, _ = sampler(head, 2, RngStream(61), 400_000)
        se = max(values.std() / math.sqrt(len(values)), 1e-6)
        assert abs(values.mean() - exact) <= 4.0 * se

    def test_dominated_class_never_errs(self):
        head = ConditionalHead(M=np.array([1e6, 0.0, 0.0]), V=np.ones(3))
        values, _, _ = l1_samples(head, 1, RngStream(62), 1000)
        assert np.all(values < 1e-12)

    def test_l1_l2_agree_on_multiclass(self):
        gen = np.random.default_rng(9)
        head = random_head(gen, 3)
        v1, _, _ = l1_samples(head, 3, RngStream(63).child("a"), 400_000)
        v2, _, _ = l2_samples(head, 3, RngStream(63).child("b"), 400_000)
        joint = math.hypot(v1.std() / math.sqrt(len(v1)), v2.std() / math.sqrt(len(v2)))
        assert abs(v1.mean() - v2.mean()) <= 4.0 * joint

    def test_single_draws_deterministic(self):
        gen = np.random.default_rng(10)
        head = random_head(gen, 4)
        rng = RngStream(64).child("det")
        v1, dm1, dv1 = l1_samples(head, 2, rng, n=1)
        v2, dm2, dv2 = l1_samples(head, 2, rng, n=1)
        assert v1.shape == (1,) and dm1.shape == dv1.shape == (1, 4)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(dm1, dm2)
        np.testing.assert_array_equal(dv1, dv2)
        w1, _, _ = l2_samples(head, 2, rng, n=1)
        w2, _, _ = l2_samples(head, 2, rng, n=1)
        np.testing.assert_array_equal(w1, w2)

    @pytest.mark.parametrize("sampler", [l1_samples, l2_samples])
    def test_pathwise_gradients_match_fd_with_frozen_noise(self, sampler):
        # With the noise held fixed the estimator is a deterministic function
        # of (M, V); its returned gradients must match finite differences.
        gen = np.random.default_rng(12)
        head = random_head(gen, 4)
        y = 3
        rng = RngStream(65).child("frozen")
        _, dM, dV = sampler(head, y, rng, 1)
        step = 1e-6
        for i in range(4):
            for arr, grads in (("M", dM), ("V", dV)):
                up = ConditionalHead(M=head.M.copy(), V=head.V.copy())
                dn = ConditionalHead(M=head.M.copy(), V=head.V.copy())
                getattr(up, arr)[i] += step
                getattr(dn, arr)[i] -= step
                vu, _, _ = sampler(up, y, rng, 1)
                vd, _, _ = sampler(dn, y, rng, 1)
                fd = (vu[0] - vd[0]) / (2 * step)
                assert grads[0, i] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_gradient_mean_matches_truth_gradient(self):
        # Averaged pathwise gradients approximate the gradient of the true
        # error probability (computed by quadrature + finite differences).
        gen = np.random.default_rng(14)
        head = random_head(gen, 3)
        y = 1
        n = 300_000
        _, dM, dV = l1_samples(head, y, RngStream(66), n)
        step = 1e-3
        for i in range(3):
            for arr, grads in (("M", dM), ("V", dV)):
                up = ConditionalHead(M=head.M.copy(), V=head.V.copy())
                dn = ConditionalHead(M=head.M.copy(), V=head.V.copy())
                getattr(up, arr)[i] += step
                getattr(dn, arr)[i] -= step
                fd = (quadrature_error_prob(up, y) - quadrature_error_prob(dn, y)) / (2 * step)
                se = max(grads[:, i].std() / math.sqrt(n), 1e-7)
                gap = abs(grads[:, i].mean() - fd)
                assert gap <= 4.0 * se or gap <= 0.02 * abs(fd)

    def test_label_validation(self):
        head = ConditionalHead(M=np.zeros(3), V=np.ones(3))
        with pytest.raises(ValueError):
            l1_samples(head, 0, RngStream(0), 1)
        with pytest.raises(ValueError):
            l1_samples(head, 4, RngStream(0), 1)


class TestConditionalMoments:
    def make_group(self, gen, q=3, n=4):
        return GaussianParamGroup(
            w_mean=gen.uniform(-1, 1, (q, n)),
            w_rho=gen.uniform(0.2, 0.8, (q, n)),
            b_mean=gen.uniform(-1, 1, q),
            b_rho=gen.uniform(0.2, 0.8, q),
        )

    def test_deterministic_weights(self):
        # All weight deviations zero, bias deviation c: V_i = c^2.
        c = 0.3
        group = GaussianParamGroup(
            w_mean=np.array([[1.0, 2.0], [0.5, -1.0]]),
            w_rho=np.zeros((2, 2)),
            b_mean=np.array([0.1, -0.2]),
            b_rho=np.full(2, c ** (2.0 / 3.0)),
        )
        head = conditional_moments(np.array([1.0, 1.0]), group)
        np.testing.assert_allclose(head.M, [3.1, -0.7], atol=1e-12)
        np.testing.assert_allclose(head.V, c * c, rtol=1e-12)

    def test_zero_activations(self):
        gen = np.random.default_rng(15)
        group = self.make_group(gen)
        head = conditional_moments(np.zeros(4), group)
        np.testing.assert_allclose(head.M, group.b_mean, atol=1e-15)
        np.testing.assert_allclose(head.V, group.b_sigma**2, rtol=1e-12)

    def test_against_monte_carlo_moments(self):
        gen = np.random.default_rng(16)
        group = self.make_group(gen)
        phi = gen.uniform(0.0, 1.5, 4)
        head = conditional_moments(phi, group)
        n = 400_000
        rng = RngStream(67)
        zw = rng.child("w").normal((n, 3, 4))
        zb = rng.child("b").normal((n, 3))
        F = (group.w_mean + group.w_sigma * zw) @ phi + group.b_mean + group.b_sigma * zb
        for i in range(3):
            se_mean = F[:, i].std() / math.sqrt(n)
            assert abs(F[:, i].mean() - head.M[i]) <= 4 * se_mean
            var = F[:, i].var()
            se_var = var * math.sqrt(2.0 / (n - 1))
            assert abs(var - head.V[i]) <= 4 * se_var

    def test_batched_input(self):
        gen = np.random.default_rng(17)
        group = self.make_group(gen)
        batch = gen.uniform(0, 1, (5, 4))
        head = conditional_moments(batch, group)
        assert head.M.shape == (5, 3)
        single = conditional_moments(batch[2], group)
        np.testing.assert_allclose(head.M[2], single.M, atol=1e-14)

    def test_shape_mismatch(self):
        gen = np.random.default_rng(18)
        with pytest.raises(ValueError):
            conditional_moments(np.zeros(5), self.make_group(gen))


class TestKlDiagGauss:
    def make_frozen_group(self, gen, shape=(3, 4)):
        g = GaussianParamGroup(
            w_mean=gen.uniform(-1, 1, shape),
            w_rho=gen.uniform(0.2, 0.9, shape),
            b_mean=gen.uniform(-1, 1, shape[0]),
            b_rho=gen.uniform(0.2, 0.9, shape[0]),
        )
        g.freeze_prior()
        return g

    def test_posterior_equals_prior(self):
        gen = np.random.default_rng(19)
        assert kl_diag_gauss([self.make_frozen_group(gen)]) == 0.0

    def test_single_parameter_value(self):
        g = GaussianParamGroup(
            w_mean=np.array([[0.0]]), w_rho=np.array([[1.0]]),
            b_mean=np.array([0.0]), b_rho=np.array([1.0]),
        )
        g.freeze_prior()
        g.w_mean = np.array([[1.0]])  # mean moved by one prior sigma
        assert kl_diag_gauss([g]) == pytest.approx(0.5, abs=1e-14)

    def test_against_mpmath_oracle(self):
        gen = np.random.default_rng(20)
        g = self.make_frozen_group(gen, (10, 9))
        g.w_mean = g.w_mean + gen.uniform(-0.5, 0.5, (10, 9))
        g.w_rho = g.w_rho * gen.uniform(0.7, 1.3, (10, 9))
        g.b_mean = g.b_mean + gen.uniform(-0.5, 0.5, 10)
        g.b_rho = g.b_rho * gen.uniform(0.7, 1.3, 10)
        with mpmath.workdps(40):
            total = mpmath.mpf(0)
            for mean, rho, pm, ps in (
                (g.w_mean, g.w_rho, g.prior_w_mean, g.prior_w_sigma),
                (g.b_mean, g.b_rho, g.prior_b_mean, g.prior_b_sigma),
            ):
                for m, r, m0, s0 in zip(
                    mean.reshape(-1), rho.reshape(-1), pm.reshape(-1), ps.reshape(-1)
                ):
                    s = abs(mpmath.mpf(r)) ** mpmath.mpf(1.5)
                    s0 = mpmath.mpf(s0)
                    total += (s**2 - s0**2) / (2 * s0**2)
                    total += ((mpmath.mpf(m) - mpmath.mpf(m0)) / s0) ** 2 / 2
                    total += mpmath.log(s0 / s)
        got = kl_diag_gauss([g])
        assert got >= 0.0
        assert got == pytest.approx(float(total), abs=1e-10)

    def test_rejects_unfrozen_and_bad_sigma(self):
        gen = np.random.default_rng(22)
        g = GaussianParamGroup(
            w_mean=np.zeros((2, 2)), w_rho=np.full((2, 2), 0.5),
            b_mean=np.zeros(2), b_rho=np.full(2, 0.5),
        )
        with pytest.raises(ValueError):
            kl_diag_gauss([g])
        g.freeze_prior()
        g.w_rho = np.zeros((2, 2))  # sigma collapses to zero
        with pytest.raises(ValueError):
            kl_diag_gauss([g])


class TestSampleGaussian:
    def test_zero_sigma_returns_means(self):
        g = GaussianParamGroup(
            w_mean=np.array([[1.0, -2.0]]), w_rho=np.zeros((1, 2)),
            b_mean=np.array([0.5]), b_rho=np.zeros(1),
        )
        W, b, _, _ = sample_gaussian(g.w_mean, g.w_sigma, g.b_mean, g.b_sigma, RngStream(70))
        np.testing.assert_array_equal(W, g.w_mean)
        np.testing.assert_array_equal(b, g.b_mean)

    def test_same_stream_same_draw(self):
        gen = np.random.default_rng(23)
        g = GaussianParamGroup(
            w_mean=gen.normal(size=(3, 2)), w_rho=np.full((3, 2), 0.5),
            b_mean=gen.normal(size=3), b_rho=np.full(3, 0.5),
        )
        rng = RngStream(71).child("layer", 0)
        a, b = (sample_gaussian(g.w_mean, g.w_sigma, g.b_mean, g.b_sigma, rng) for _ in range(2))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_draw_is_mean_plus_sigma_zeta(self):
        gen = np.random.default_rng(24)
        g = GaussianParamGroup(
            w_mean=gen.normal(size=(3, 2)), w_rho=gen.uniform(0.2, 0.6, (3, 2)),
            b_mean=gen.normal(size=3), b_rho=gen.uniform(0.2, 0.6, 3),
        )
        rng = RngStream(73)
        W, b, zeta_w, zeta_b = sample_gaussian(g.w_mean, g.w_sigma, g.b_mean, g.b_sigma, rng)
        np.testing.assert_array_equal(zeta_w, rng.child("w").normal((3, 2)))
        np.testing.assert_array_equal(zeta_b, rng.child("b").normal(3))
        np.testing.assert_array_equal(W, g.w_mean + g.w_sigma * zeta_w)
        np.testing.assert_array_equal(b, g.b_mean + g.b_sigma * zeta_b)

    def test_moments_over_many_draws(self):
        # A large group with identical scalar hyper-parameters stands in for
        # many draws of one parameter.
        mean, rho = 0.7, 0.25
        sigma = abs(rho) ** 1.5
        n = 1000
        g = GaussianParamGroup(
            w_mean=np.full((n, n), mean), w_rho=np.full((n, n), rho),
            b_mean=np.zeros(n), b_rho=np.zeros(n),
        )
        W, _, _, _ = sample_gaussian(g.w_mean, g.w_sigma, g.b_mean, g.b_sigma, RngStream(72))
        draws = W.reshape(-1)
        se = sigma / math.sqrt(draws.size)
        assert abs(draws.mean() - mean) <= 4 * se
        assert abs(draws.std() - sigma) <= 4 * sigma / math.sqrt(2 * draws.size)


class TestIntegrationByParts:
    def test_stein_identity(self):
        for name, g, gp in TEST_FUNCTIONS:
            assert stein_identity_gap(g, gp) < 1e-6, name

    def test_price_derivative_swap(self):
        for name, g, gp in TEST_FUNCTIONS:
            for mean, std in ((0.3, 0.8), (-0.5, 1.3), (0.0, 1.0)):
                gap_m, gap_s = price_swap_gaps(g, gp, mean, std)
                assert gap_m < 1e-6, (name, mean, std)
                assert gap_s < 1e-6, (name, mean, std)
