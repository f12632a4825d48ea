"""Binary-KL machinery: exact values, inversion, gradients, objectives.

Frozen expected values were computed in extended precision (mpmath, 60
digits) independently of the implementation; the inversion oracle used for
them is plain bisection on the mpmath kl.
"""
import math

import mpmath
import numpy as np
import pytest

from condgauss.bounds import (
    BoundKind,
    BoundSpec,
    kl_bernoulli,
    kl_inv,
    kl_inv_grad,
    objective_partials,
    objective_value,
    penalty,
)

# mpmath oracles, 60-digit working precision.
KL_QUARTER_HALF = 0.13081203594113695913
KL_INV_01_005 = 0.22007860110692461786
KL_INV_05_002 = 0.5990082835520301182
ONE_MINUS_EXP_M03 = 0.25918177931828213393
PEN_MNIST = 1.6471794258793334135e-4


class TestKlBernoulli:
    def test_identical_distributions(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0

    def test_zero_u_closed_form(self):
        # kl(0||v) = -log(1-v)
        assert kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_extended_precision_value(self):
        assert kl_bernoulli(0.25, 0.5) == pytest.approx(KL_QUARTER_HALF, abs=1e-15)

    def test_endpoint_sentinels(self):
        assert kl_bernoulli(0.3, 0.0) == math.inf
        assert kl_bernoulli(0.3, 1.0) == math.inf
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_domain_errors(self):
        for u, v in ((-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1), (float("nan"), 0.5)):
            with pytest.raises(ValueError):
                kl_bernoulli(u, v)

    def test_nonnegative_with_equality_iff_equal(self):
        gen = np.random.default_rng(7)
        for u, v in gen.uniform(0.01, 0.99, (300, 2)):
            val = kl_bernoulli(float(u), float(v))
            if abs(u - v) > 1e-9:
                assert val > 0.0
        for u in gen.uniform(0.0, 1.0, 50):
            assert kl_bernoulli(float(u), float(u)) == 0.0


class TestKlInv:
    def test_zero_budget_returns_u(self):
        for u in (0.0, 0.3, 0.99, 1.0):
            assert kl_inv(u, 0.0) == u

    def test_u_zero_closed_form(self):
        assert kl_inv(0.0, 0.3) == pytest.approx(ONE_MINUS_EXP_M03, abs=1e-15)

    def test_oracle_values(self):
        assert kl_inv(0.1, 0.05) == pytest.approx(KL_INV_01_005, abs=1e-12)
        assert kl_inv(0.5, 0.02) == pytest.approx(KL_INV_05_002, abs=1e-12)

    def test_table1_inner_correction(self):
        # Paper anchor: the N=150000 Monte-Carlo correction of .0356.
        inner = kl_inv(0.0356, math.log(2.0 / 0.01) / 150000)
        assert inner == pytest.approx(0.0372, abs=2e-4)

    def test_round_trip(self):
        gen = np.random.default_rng(11)
        for _ in range(500):
            u = float(gen.uniform(0.001, 0.999))
            c = float(gen.uniform(1e-6, 1.0))
            v = kl_inv(u, c)
            assert v >= u
            if v < 1.0 - 1e-7:
                assert abs(kl_bernoulli(u, v) - c) < 1e-8

    def test_monotone_in_both_arguments(self):
        gen = np.random.default_rng(13)
        for _ in range(200):
            u = float(gen.uniform(0.01, 0.9))
            c = float(gen.uniform(1e-4, 0.5))
            du = float(gen.uniform(0.0, 0.9 - u + 0.05))
            dcv = float(gen.uniform(0.0, 0.3))
            assert kl_inv(min(u + du, 0.999), c) >= kl_inv(u, c) - 1e-12
            assert kl_inv(u, c + dcv) >= kl_inv(u, c) - 1e-12

    def test_infinite_budget(self):
        assert kl_inv(0.4, math.inf) == 1.0

    def test_rounds_up_in_exact_arithmetic(self):
        """kl(u||v) >= c at 50 digits, so a bound built on v never
        under-reports; and v is tight: within 1e-12 of c, or one float lower
        would be (where float64 cannot resolve the root that closely)."""
        gen = np.random.default_rng(0)
        points = list(zip(gen.uniform(0.001, 0.5, 2000), gen.uniform(1e-4, 0.5, 2000)))
        edges = [0.0, 1e-300, 1e-12, 1e-6, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]
        points += [(u, c) for u in edges for c in (1e-12, 1e-6, 1e-3, 0.1, 1.0, 5.0)]

        def kl_mp(u, v):
            if v == 1.0:
                return mpmath.inf
            u, v = mpmath.mpf(u), mpmath.mpf(v)
            out = (1 - u) * (mpmath.log1p(-u) - mpmath.log1p(-v))
            return out + u * mpmath.log(u / v) if u > 0 else out

        with mpmath.workdps(50):
            for u, c in points:
                u, c = float(u), float(c)
                v = kl_inv(u, c)
                assert kl_mp(u, v) >= c, (u, c, v)
                if kl_mp(u, v) - c > 1e-12:
                    assert kl_mp(u, math.nextafter(v, 0.0)) - c <= 1e-12, (u, c, v)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kl_inv(-0.1, 0.1)
        with pytest.raises(ValueError):
            kl_inv(0.5, -1.0)


class TestKlInvGrad:
    @pytest.mark.parametrize("u,c", [(0.1, 0.05), (0.5, 0.02)])
    def test_matches_finite_differences(self, u, c):
        du, dc = kl_inv_grad(u, c)
        step = 1e-6
        fd_u = (kl_inv(u + step, c) - kl_inv(u - step, c)) / (2 * step)
        fd_c = (kl_inv(u, c + step) - kl_inv(u, c - step)) / (2 * step)
        assert du == pytest.approx(fd_u, rel=1e-5)
        assert dc == pytest.approx(fd_c, rel=1e-5)

    def test_both_partials_positive(self):
        gen = np.random.default_rng(3)
        for _ in range(100):
            du, dc = kl_inv_grad(float(gen.uniform(0.01, 0.95)), float(gen.uniform(1e-4, 0.5)))
            assert du > 0.0
            assert dc > 0.0

    def test_clamped_edges_do_not_blow_up(self):
        for u, c in ((0.0, 0.5), (1.0, 0.5), (0.5, 1e-12)):
            du, dc = kl_inv_grad(u, c)
            assert math.isfinite(du) and math.isfinite(dc)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            kl_inv_grad(0.5, 0.0)


class TestPenalty:
    def test_mnist_scale_value(self):
        got = penalty(0.0, 60000, 0.025, 1.0)
        assert got == pytest.approx(PEN_MNIST, abs=1e-8)

    def test_linear_in_kappa(self):
        base = penalty(3.0, 500, 0.05, 1.0)
        doubled = penalty(3.0, 500, 0.05, 2.0)
        assert doubled == pytest.approx(2.0 * base, rel=1e-14)

    def test_zero_kl_formula(self):
        m, delta = 777, 0.1
        got = penalty(0.0, m, delta, 1.0)
        assert got == pytest.approx(math.log(2 * math.sqrt(m) / delta) / m, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            penalty(-1.0, 10, 0.1)
        with pytest.raises(ValueError):
            penalty(0.0, 0, 0.1)
        with pytest.raises(ValueError):
            penalty(0.0, 10, 1.5)


class TestObjectiveValue:
    def test_degenerate_mcall(self):
        spec = BoundSpec(BoundKind.MCALL)
        assert objective_value(0.0, 0.0, spec) == 0.0

    def test_quad_oracle_value(self):
        # Direct evaluation of (sqrt(0.11) + sqrt(0.01))^2 in mpmath.
        spec = BoundSpec(BoundKind.QUAD)
        assert objective_value(0.1, 0.02, spec) == pytest.approx(0.18633249580710800, abs=1e-14)

    def test_lbd_grid_never_beats_invkl(self):
        inv = objective_value(0.1, 0.02, BoundSpec(BoundKind.INVKL))
        best = min(
            objective_value(0.1, 0.02, BoundSpec(BoundKind.LBD, lam=lam))
            for lam in np.linspace(0.001, 0.999, 999)
        )
        assert inv <= best + 1e-9

    def test_invkl_tightest_on_small_grid(self):
        kinds = (BoundKind.MCALL, BoundKind.QUAD)
        lams = np.linspace(0.001, 0.999, 999)
        for e in np.linspace(0.0, 1.0, 9):
            for pen in np.linspace(0.0, 0.5, 9):
                inv = objective_value(e, pen, BoundSpec(BoundKind.INVKL))
                others = [objective_value(e, pen, BoundSpec(k)) for k in kinds]
                if pen > 0:
                    others.append(min((e + pen / lam) / (1 - lam / 2) for lam in lams))
                assert inv <= min(others) + 1e-9

    @pytest.mark.parametrize("kind", list(BoundKind))
    def test_partials_match_finite_differences(self, kind):
        point = [0.1, 0.02] + ([0.3] if kind == BoundKind.LBD else [])
        _, partials = objective_partials(kind, *point)
        step = 1e-6
        for k in range(len(point)):
            up, dn = list(point), list(point)
            up[k] += step
            dn[k] -= step
            fd = (objective_partials(kind, *up)[0] - objective_partials(kind, *dn)[0]) / (2 * step)
            assert partials[k] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("kind", list(BoundKind))
    def test_non_finite_input_gives_nan_value(self, kind):
        lam = 0.3 if kind == BoundKind.LBD else None
        for e, pen in ((math.nan, 0.02), (0.1, math.inf)):
            assert math.isnan(objective_partials(kind, e, pen, lam)[0])

    def test_boundspec_validation(self):
        with pytest.raises(ValueError):
            BoundSpec(BoundKind.LBD)  # lam missing
        with pytest.raises(ValueError):
            BoundSpec(BoundKind.INVKL, lam=0.5)  # lam not meaningful
        with pytest.raises(ValueError):
            BoundSpec(BoundKind.INVKL, kappa=0.0)
        with pytest.raises(ValueError):
            BoundSpec(BoundKind.INVKL, delta=0.0)
