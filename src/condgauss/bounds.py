"""Binary-KL machinery, penalty term, and the four PAC-Bayes objectives.

The central primitive is the inverse of the Bernoulli KL divergence in its
second argument, kl_inv(u, c) = sup{v in [0,1] : kl(u||v) <= c}, which turns
an empirical error plus a divergence budget into a high-probability bound on
the true error. For u < 1 the divergence blows up as v -> 1, so the sup is an
interior root found by Newton's method with a bisection safeguard, then
rounded up far enough that kl(u||v) >= c holds despite float64 rounding.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BoundKind",
    "BoundSpec",
    "kl_bernoulli",
    "kl_inv",
    "kl_inv_grad",
    "penalty",
    "objective_partials",
    "objective_value",
]

# Newton/bisection controls for kl_inv. Tolerance is on |kl(u||v) - c|.
_KL_TOL = 1e-12
_KL_MAX_ITER = 100

# Clamps applied before the closed-form kl_inv derivative formulas, which are
# singular at v = u (c = 0) and at v = 1.
_GRAD_U_CLIP = 1e-6
_GRAD_V_GAP = 1e-9


class BoundKind(str, Enum):
    INVKL = "invkl"
    MCALL = "mcall"
    QUAD = "quad"
    LBD = "lbd"


@dataclass(frozen=True)
class BoundSpec:
    """Which bound to optimize, its KL weight kappa, and PAC parameters.

    ``lam`` is the trainable mixing parameter of the lbd objective and must be
    supplied (in (0,1)) only for that kind; the lbd infimum over lam is taken
    by training, never in closed form here.
    """

    kind: BoundKind
    kappa: float = 1.0
    delta: float = 0.025
    lam: float | None = None

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if self.kind == BoundKind.LBD:
            if self.lam is None or not 0 < self.lam < 1:
                raise ValueError("lbd objective requires lam in (0,1)")
        elif self.lam is not None:
            raise ValueError(f"lam is only meaningful for kind=lbd, got kind={self.kind}")


def _check_prob(name: str, x: float) -> float:
    if not 0.0 <= x <= 1.0 or math.isnan(x):
        raise ValueError(f"{name} must be a probability in [0,1], got {x}")
    return float(x)


def kl_bernoulli(u: float, v: float) -> float:
    """KL divergence between Bernoulli(u) and Bernoulli(v).

    Uses 0*log(0) = 0 and returns +inf when v sits on an endpoint that u does
    not share. The (1-u)/(1-v) term goes through log1p so values near 0 and 1
    keep full precision.
    """
    u = _check_prob("u", u)
    v = _check_prob("v", v)
    if u == v:
        return 0.0
    if v == 0.0 or v == 1.0:
        return math.inf
    acc = 0.0
    if u > 0.0:
        acc += u * (math.log(u) - math.log(v))
    if u < 1.0:
        acc += (1.0 - u) * (math.log1p(-u) - math.log1p(-v))
    # Rounding can produce a tiny negative value when u ~ v.
    return max(acc, 0.0)


def _kl_dv(u: float, v: float) -> float:
    """d/dv kl(u||v) = (1-u)/(1-v) - u/v, positive for v > u."""
    return (1.0 - u) / (1.0 - v) - u / v


def _kl_rounding(u: float, v: float) -> float:
    """Bound on the float64 rounding error of kl_bernoulli(u, v), 0 <= u < v < 1.

    Each logarithm is within one ulp and each of the few products and sums
    adds at most half an ulp of its result, so the error is a small multiple
    of machine epsilon times the magnitudes of the terms; the factor 8
    leaves room to spare.
    """
    terms = (1.0 - u) * (abs(math.log1p(-u)) + abs(math.log1p(-v)))
    if u > 0.0:
        terms += u * (abs(math.log(u)) + abs(math.log(v)))
    return 8.0 * sys.float_info.epsilon * terms


def _round_up(u: float, c: float, v: float) -> float:
    """The solved v, moved up until kl(u||v) >= c holds in exact arithmetic.

    A v qualifies when its float64 kl(u||v) clears c by the rounding bound.
    Steps aim at twice that margin by Newton (which lands on the qualifying
    side, kl being convex in v) inside the bracket of the largest v known
    not to qualify and the smallest known to qualify, falling back to
    bisection, and stop at the first qualifying v within _KL_TOL of c or
    at the smallest qualifying float. 1.0 always qualifies.
    """
    lo, hi = u, 1.0
    while v < hi:
        err = _kl_rounding(u, v)
        f = kl_bernoulli(u, v) - c
        if f >= err:
            if f <= _KL_TOL:
                return v
            hi = v
        else:
            lo = v
        slope = _kl_dv(u, v)
        nxt = v + (2.0 * err - f) / slope if slope > 0.0 else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        v = nxt
    return hi


def kl_inv(u: float, c: float) -> float:
    """Largest v with kl(u||v) <= c, rounded up.

    Newton iterations start from the Pinsker-motivated guess u + sqrt(c/2)
    and fall back to bisection on [u, 1) whenever a step leaves the current
    bracket. The result is then moved up until kl(u||v) >= c holds in exact
    arithmetic, so a bound built on it never under-reports. It satisfies
    |kl(u||v) - c| <= 1e-12 except where the root lies closer to 1 than
    float64 can resolve, and is 1.0 where no float below 1 qualifies.
    """
    u = _check_prob("u", u)
    if c < 0 or math.isnan(c):
        raise ValueError(f"c must be non-negative, got {c}")
    if c == 0.0:
        return u
    if u == 1.0 or math.isinf(c):
        return 1.0
    if u == 0.0:
        # kl(0||v) = -log(1-v) <= c  <=>  v <= 1 - exp(-c)
        return _round_up(u, c, min(1.0, -math.expm1(-c)))

    lo = u
    hi = 1.0 - 1e-16
    if kl_bernoulli(u, hi) <= c:
        # The root is not representable below 1 in float64.
        return 1.0

    v = min(max(u + math.sqrt(c / 2.0), u + 1e-12), 1.0 - 1e-12)
    if v <= lo:
        # u within 1e-12 of 1: the clamped guess is not above u.
        v = 0.5 * (lo + hi)
    for _ in range(_KL_MAX_ITER):
        f = kl_bernoulli(u, v) - c
        if abs(f) <= _KL_TOL:
            break
        if f > 0.0:
            hi = v
        else:
            lo = v
        step = f / _kl_dv(u, v)
        nxt = v - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == v:
            break
        v = nxt
    return _round_up(u, c, v)


def kl_inv_grad(u: float, c: float) -> tuple[float, float]:
    """Partial derivatives (du, dc) of kl_inv at (u, c).

    With v = kl_inv(u, c) and D = (1-u)/(1-v) - u/v:
        dc = 1 / D
        du = (log((1-u)/(1-v)) - log(u/v)) / D
    Both are positive on the interior. The formulas are singular at v = u and
    v = 1, so u is clamped to [1e-6, 1-1e-6] and v to [u+1e-9, 1-1e-9] first.
    """
    u = _check_prob("u", u)
    if c <= 0 or math.isnan(c):
        raise ValueError(f"c must be positive, got {c}")
    u = _clamp_grad_u(u)
    return _kl_inv_partials(u, kl_inv(u, c))


def _clamp_grad_u(u: float) -> float:
    return min(max(u, _GRAD_U_CLIP), 1.0 - _GRAD_U_CLIP)


def _kl_inv_partials(u: float, v: float) -> tuple[float, float]:
    """The (du, dc) formulas of ``kl_inv_grad`` at a clamped u and its
    solved v = kl_inv(u, c)."""
    v = min(max(v, u + _GRAD_V_GAP), 1.0 - _GRAD_V_GAP)
    a = (1.0 - u) / (1.0 - v)
    b = u / v
    d = a - b
    dc = 1.0 / d
    du = (math.log(a) - math.log(b)) / d
    return du, dc


def penalty(kl_div: float, m: int, delta: float, kappa: float = 1.0) -> float:
    """Complexity term (kappa/m) * (KL(Q||P) + log(2*sqrt(m)/delta))."""
    if kl_div < 0:
        raise ValueError("kl_div must be non-negative")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return (kappa / m) * (kl_div + math.log(2.0 * math.sqrt(m) / delta))


def objective_partials(kind: BoundKind, emp_err: float, pen: float, lam: float | None = None):
    """One of the four bound objectives at (E, Pen) and its partials.

    invkl -> kl_inv(E, Pen)
    mcall -> E + sqrt(Pen/2)
    quad  -> (sqrt(E + Pen/2) + sqrt(Pen/2))^2
    lbd   -> (E + Pen/lam) / (1 - lam/2)

    Returns (value, (dE, dPen, dlam)); dlam is 0 except for lbd. Inputs are
    not validated: a non-finite input gives a NaN value, which a training
    loop reports as divergence, and the partials at Pen = 0 are infinite.
    """
    if not all(math.isfinite(x) for x in (emp_err, pen, 0.5 if lam is None else lam)):
        return math.nan, (math.nan, math.nan, math.nan)
    if kind == BoundKind.INVKL:
        v = kl_inv(emp_err, pen)
        if not pen > 0:
            return v, (1.0, math.inf, 0.0)
        # One solve serves the value and the partials unless the clamp moved u.
        u = _clamp_grad_u(emp_err)
        d_e, d_pen = _kl_inv_partials(u, v if u == emp_err else kl_inv(u, pen))
        return v, (d_e, d_pen, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        e, p = np.float64(emp_err), np.float64(pen)
        r = np.sqrt(p / 2.0)
        if kind == BoundKind.MCALL:
            return float(e + r), (1.0, float(0.25 / r), 0.0)
        if kind == BoundKind.QUAD:
            a = np.sqrt(e + p / 2.0)
            s = a + r
            return float(s * s), (float(s / a), float(0.5 * s * (1.0 / a + 1.0 / r)), 0.0)
        if kind == BoundKind.LBD:
            scale = 1.0 / (1.0 - lam / 2.0)
            value = (e + p / lam) / (1.0 - lam / 2.0)
            return float(value), (scale, scale / lam, float((value / 2.0 - p / lam**2) * scale))
    raise ValueError(f"unknown bound kind: {kind}")


def objective_value(emp_err: float, pen: float, spec: BoundSpec) -> float:
    """Evaluate spec's bound objective at (emp_err, pen); see
    ``objective_partials``."""
    emp_err = _check_prob("emp_err", emp_err)
    if pen < 0:
        raise ValueError(f"pen must be non-negative, got {pen}")
    return objective_partials(spec.kind, emp_err, pen, spec.lam)[0]
