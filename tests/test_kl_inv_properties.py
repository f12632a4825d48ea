"""Property tests of kl_inv: the exact round trip kl(u||kl_inv(u, c)) >= c
and monotonicity in both arguments, over the whole unit interval and the
float64 edges near u = 0 and u = 1.

kl_inv stops at the first v whose kl(u||v) lies in [c, c + 1e-12], so it
is monotone up to that tolerance: two results are compared through
kl(u_lo||.), the kl of the smaller probability. Exact kl values come from
mpmath at 50 digits.
"""
import math

import mpmath
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from condgauss.bounds import kl_inv  # noqa: E402

TOL = 1e-12  # kl_inv's tolerance on kl(u||v) - c

probs = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-9),
    st.floats(1.0 - 1e-9, 1.0),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-16, 1.0 - 1e-12, 1.0 - 2.0**-53, 1.0]),
)
budgets = st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 1e-9), st.sampled_from([5e-324, 1e-300]))
property_settings = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def kl_exact(u: float, v: float):
    if u == v:
        return mpmath.mpf(0)
    if v == 1.0 or (v == 0.0 and u > 0.0):
        return mpmath.inf
    with mpmath.workdps(50):
        u, v = mpmath.mpf(u), mpmath.mpf(v)
        out = (1 - u) * (mpmath.log1p(-u) - mpmath.log1p(-v)) if u < 1 else mpmath.mpf(0)
        return out + u * mpmath.log(u / v) if u > 0 else out


@property_settings
@given(probs, budgets)
def test_round_trip_never_under_reports(u, c):
    v = kl_inv(u, c)
    assert u <= v <= 1.0
    # v = 1 is the trivial bound, the only one left at u = 1.
    assert v == 1.0 or kl_exact(u, v) >= c, (u, c, v)


@property_settings
@given(probs, probs, budgets)
def test_monotone_in_u(a, b, c):
    lo, hi = sorted((a, b))
    v_lo, v_hi = kl_inv(lo, c), kl_inv(hi, c)
    assert v_lo <= v_hi or kl_exact(lo, v_lo) <= kl_exact(lo, v_hi) + TOL, (lo, hi, c)


@property_settings
@given(probs, budgets, budgets)
def test_monotone_in_c(u, a, b):
    lo, hi = sorted((a, b))
    v_lo, v_hi = kl_inv(u, lo), kl_inv(u, hi)
    assert v_lo <= v_hi or kl_exact(u, v_lo) <= kl_exact(u, v_hi) + TOL, (u, lo, hi)


@property_settings
@given(probs, budgets)
def test_monotone_beyond_tolerance_is_strict(u, c):
    """A budget larger by more than the tolerance never gives a smaller v."""
    c_up = c + 2.0 * TOL + 1e-9 * c
    assert kl_inv(u, c) <= kl_inv(u, c_up), (u, c)


def test_edges_near_zero_and_one():
    # Within 1e-12 of 1 the Newton guess is clamped onto u itself, where
    # the slope of kl(u||.) is zero; the solve must bisect instead.
    u = 1.0 - 1e-12
    v = kl_inv(u, 2e-12)
    assert u < v < 1.0 and kl_exact(u, v) >= 2e-12
    assert kl_inv(0.0, 0.3) == pytest.approx(-math.expm1(-0.3), abs=1e-15)
    assert kl_inv(5e-324, 1e-3) >= kl_inv(0.0, 1e-3) - 1e-15
    assert kl_inv(1.0 - 2.0**-53, 1e-3) == 1.0
    assert kl_inv(1.0, 1e-300) == 1.0
