"""Gradients: the reverse-mode engine's chain rule through test-local
reference ops, determinism, tape lifetime, the finite-difference harness,
a step's gradient as the two-term chain rule of the estimate's and the
KL's partials, those partials (the KL's, and the block-built estimate's
through its hidden layers, conditional head and surrogate head) against
chained-primitive subgraphs, the block sums against one block, and the
averaged-gradient (affine objective) check against an independent numpy
re-implementation."""
import gc
import math
import weakref

import numpy as np
import pytest

from condgauss import checks, grad, network
from condgauss.bounds import BoundKind, BoundSpec, objective_partials, penalty
from condgauss.checks import _toy_model, fd_check, linearization_report, toy_objective_fd_error
from condgauss.data import synth_blobs
from condgauss.gaussian import (
    TRAINABLE,
    VARIANCE_FLOOR,
    dsigma_of_rho,
    kl_sum,
    l1_dense,
    l1_draws,
    prior_terms,
    sample_gaussian,
    sigma_of_rho,
    std_normal_cdf,
    std_normal_pdf,
)
from condgauss.network import (
    ModelSpec,
    StochasticModel,
    apply_dropout,
    batch_error_estimate,
    estimate_node,
    hidden_forward_on_tape,
    make_leaves,
)
from condgauss.rng import RngStream
from condgauss.trainer import (
    SURROGATE_PMIN,
    TrainConfig,
    _batch_estimate,
    _bounded_cross_entropy,
    _SurrogateHead,
    batch_gradients,
    train_condgauss,
)


# Chained-primitive reference nodes: the closed-form and fused nodes must
# reproduce what these compute step by step through the chain rule. The
# engine has no generic ops, so the chain is built from these local ones,
# which TestTapeBasics checks in turn.
def _val(x):
    return x.value if isinstance(x, grad.Tensor) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g, shape):
    """Sum a cotangent down to the shape it was broadcast from."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, out, vjp_a, vjp_b):
    """A two-operand node; a constant side gets no gradient."""
    parents, vjps = [], []
    for x, vjp in ((a, vjp_a), (b, vjp_b)):
        if isinstance(x, grad.Tensor):
            parents.append(x)
            vjps.append(lambda g, x=x, vjp=vjp: _unbroadcast(vjp(g), x.shape))
    return grad.Tensor(parents[0].tape, out, tuple(parents), lambda g: tuple(f(g) for f in vjps))


def _add(a, b):
    return _binary(a, b, _val(a) + _val(b), lambda g: g, lambda g: g)


def _sub(a, b):
    return _binary(a, b, _val(a) - _val(b), lambda g: g, lambda g: -g)


def _mul(a, b):
    va, vb = _val(a), _val(b)
    return _binary(a, b, va * vb, lambda g: g * vb, lambda g: g * va)


def _div(a, b):
    va, vb = _val(a), _val(b)
    out = va / vb
    return _binary(a, b, out, lambda g: g / vb, lambda g: -g * out / vb)


def _log(a):
    va = a.value
    return grad.Tensor(a.tape, np.log(va), (a,), lambda g: (g / va,))


def _exp(a):
    out = np.exp(a.value)
    return grad.closed_form(out, (a,), (out,))


def _maximum_const(a, c):
    return grad.closed_form(np.maximum(a.value, c), (a,), (a.value > c,))


def _minimum_const(a, c):
    return grad.closed_form(np.minimum(a.value, c), (a,), (a.value < c,))


def _gather_rows(a, idx):
    """Entry idx[i] of row i of a [B, q] tensor; scatter-add backward."""
    rows = np.arange(a.shape[0])

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, (rows, idx), g)
        return (out,)

    return grad.Tensor(a.tape, a.value[rows, idx], (a,), vjp)


def _max_last(a):
    """Max over the last axis; the cotangent routes to np.argmax's index,
    the lowest one on a tie."""
    idx = np.argmax(a.value, axis=-1)[..., None]

    def vjp(g):
        out = np.zeros_like(a.value)
        np.put_along_axis(out, idx, np.asarray(g)[..., None], axis=-1)
        return (out,)

    return grad.Tensor(a.tape, np.take_along_axis(a.value, idx, axis=-1)[..., 0], (a,), vjp)


def _sum_last(a):
    va = a.value
    return grad.Tensor(
        a.tape, va.sum(axis=-1), (a,),
        lambda g: (np.broadcast_to(np.asarray(g)[..., None], va.shape).copy(),),
    )


def _expand_last(a):
    return grad.Tensor(a.tape, a.value[..., None], (a,), lambda g: (np.asarray(g)[..., 0],))


def _mean_all(a):
    va = a.value
    return grad.Tensor(a.tape, va.mean(), (a,), lambda g: (np.full_like(va, float(g) / va.size),))


def _sum_all(a):
    va = a.value
    return grad.Tensor(a.tape, va.sum(), (a,), lambda g: (np.full_like(va, float(g)),))


def _sqrt(a):
    out = np.sqrt(a.value)
    return grad.Tensor(a.tape, out, (a,), lambda g: (0.5 * g / out,))


def _ncdf(a):
    va = a.value
    return grad.Tensor(a.tape, std_normal_cdf(va), (a,), lambda g: (g * std_normal_pdf(va),))


def _square(a):
    va = a.value
    return grad.closed_form(np.square(va), (a,), (2.0 * va,))


def _relu(a):
    va = a.value
    mask = va > 0
    return grad.closed_form(va * mask, (a,), (mask,))


def _sigma_rho(a):
    va = a.value
    return grad.closed_form(sigma_of_rho(va), (a,), (dsigma_of_rho(va),))


def _linear(x, W, b):
    """Affine map x @ W.T + b; x may be a constant, W and b are Tensors."""
    vx = x.value if isinstance(x, grad.Tensor) else x
    parents, vjps = [], []
    if isinstance(x, grad.Tensor):
        parents.append(x)
        vjps.append(lambda g: g @ W.value)
    parents += [W, b]
    vjps.append(lambda g: g.reshape(-1, g.shape[-1]).T @ vx.reshape(-1, vx.shape[-1]))
    vjps.append(lambda g: g.reshape(-1, g.shape[-1]).sum(axis=0))
    return grad.Tensor(
        W.tape, vx @ W.value.T + b.value, tuple(parents), lambda g: tuple(f(g) for f in vjps)
    )


def _sample_layer(lv, rng):
    """Pathwise draw (W, b) = mean + sigma(rho) * zeta as a chain of nodes
    from the layer's leaves (w_mean, w_rho, b_mean, b_rho)."""
    w_mean, w_rho, b_mean, b_rho = lv
    zw = rng.child("w").normal(w_mean.shape)
    zb = rng.child("b").normal(b_mean.shape)
    W = _add(w_mean, _mul(_sigma_rho(w_rho), zw))
    b = _add(b_mean, _mul(_sigma_rho(b_rho), zb))
    return W, b


def _chained_hidden(leaves, x, rng, spec, dropout_prob):
    """The hidden forward with each sampled layer as a chain of nodes."""
    a = x
    for k in range(spec.n_layers - 1):
        a = _relu(_linear(a, *_sample_layer(leaves[k], rng.child("theta", k))))
        if dropout_prob > 0.0:
            mask = apply_dropout(np.ones(a.shape), dropout_prob, rng.child("dropout", k))
            a = _mul(a, mask)
    return a


def _chained_moments(phi_h, last):
    """Conditional moments (M, floored V) as a chain of nodes."""
    w_mean, w_rho, b_mean, b_rho = last
    M = _linear(phi_h, w_mean, b_mean)
    V = _linear(_square(phi_h), _square(_sigma_rho(w_rho)), _square(_sigma_rho(b_rho)))
    return M, _maximum_const(V, VARIANCE_FLOOR)


def _chained_kl(leaves, groups):
    """KL(Q||P) of the whole model as a chain of elementwise and sum nodes."""
    total = None
    for (w_mean, w_rho, b_mean, b_rho), g in zip(leaves, groups):
        for mean_leaf, rho_leaf, pmean, psigma in (
            (w_mean, w_rho, g.prior_w_mean, g.prior_w_sigma),
            (b_mean, b_rho, g.prior_b_mean, g.prior_b_sigma),
        ):
            half_inv_ps2 = 0.5 / np.square(psigma)
            sig = _sigma_rho(rho_leaf)
            t1 = _sum_all(_mul(_square(sig), half_inv_ps2))
            t2 = _sum_all(_mul(_square(_sub(mean_leaf, pmean)), half_inv_ps2))
            t3 = _sum_all(_log(sig))
            const = float(np.sum(np.log(psigma))) - 0.5 * psigma.size
            part = _add(_sub(_add(t1, t2), t3), const)
            total = part if total is None else _add(total, part)
    return total


def _chained_estimate(model, x, y, rng, repeats, leaves, dropout_prob=0.0):
    """The batch L1 estimate with the head built from gathers, a masked max
    and the normal-CDF primitive."""
    y0 = y - 1
    batch, q = x.shape[0], model.spec.q
    phi_h = _chained_hidden(leaves, x, rng, model.spec, dropout_prob)
    M, Vc = _chained_moments(phi_h, leaves[-1])
    zeta = rng.child("l1").normal((repeats, batch, q))
    mask = np.zeros((batch, q))
    mask[np.arange(batch), y0] = -1e30
    F = _add(M, _mul(_sqrt(Vc), zeta))
    fmax = _max_last(_add(F, mask))
    z = _div(_sub(fmax, _gather_rows(M, y0)), _sqrt(_gather_rows(Vc, y0)))
    return _mean_all(_ncdf(z))


def _chained_surrogate(F, y0):
    """The bounded cross-entropy of scores F as a chain of nodes."""
    e = _exp(_sub(F, _expand_last(_max_last(F))))
    p = _div(e, _expand_last(_sum_last(e)))
    p_y = _maximum_const(_gather_rows(p, y0), SURROGATE_PMIN)
    return _mean_all(_minimum_const(_mul(_log(p_y), -1.0 / math.log(1.0 / SURROGATE_PMIN)), 1.0))


def _dense_estimate(model, x, y, rng, repeats, leaves, dropout_prob=0.0):
    """The batch L1 estimate as one closed-form node over (M, V), its
    partials the dense per-draw l1_draws gradients summed over repeats."""
    y0 = y - 1
    batch, q = x.shape[0], model.spec.q
    phi_h = _chained_hidden(leaves, x, rng, model.spec, dropout_prob)
    M, Vc = _chained_moments(phi_h, leaves[-1])
    zeta = rng.child("l1").normal((repeats, batch, q))
    values, idx, dM, dV = l1_draws(M.value, Vc.value, y0, zeta)
    n = values.size
    cols = idx % q  # flat positions in M -> classes
    dM, dV = l1_dense(cols, dM, q), l1_dense(cols, dV, q)
    return grad.closed_form(values.mean(), (M, Vc), (dM.sum(axis=0) / n, dV.sum(axis=0) / n))


class _ReadoutHead:
    """An estimate-node head reading phi(H) out through a fixed [batch, h]
    array: value sum(phi * readout), phi cotangent the readout. The output
    layer's partials are zero."""

    n = 1

    def __init__(self, last, readout):
        self.last, self.readout = last, readout

    def block(self, phi, rows, need_grad):
        return np.sum(phi * self.readout[rows]), self.readout[rows].copy()

    def partials(self):
        last = self.last
        return [np.zeros_like(a) for a in (last.w_mean, last.w_sigma, last.b_mean, last.b_sigma)]


def _surrogate_node(F, y0):
    """The bounded cross-entropy's batch mean as a closed-form node over
    the scores F."""
    loss, dF = _bounded_cross_entropy(F.value, y0, F.shape[0])
    return grad.closed_form(loss / F.shape[0], (F,), (dF,))


def _estimate(head, model, x, y, rng, dropout_prob):
    """The estimate and its partials under the conditional L1 head (repeats
    5) or the baseline's surrogate head."""
    leaves = make_leaves(model)
    if head == "l1":
        return batch_error_estimate(model, x, y, rng, 5, leaves, dropout_prob)
    last = _SurrogateHead(leaves[-1], y - 1, rng.child("theta", model.spec.n_layers - 1))
    return estimate_node(leaves, x, rng, model.spec, last, dropout_prob)


def _kl_partials(model, prior):
    """KL(Q||P) from ``kl_sum`` and its partials in ``get_state()`` order,
    each sigma partial chained through d sigma / d rho."""
    leaves = make_leaves(model)
    kl, pairs = kl_sum([(lv.w_mean, lv.w_sigma, lv.b_mean, lv.b_sigma) for lv in leaves], prior)
    dsigmas = [d for lv in leaves for d in (lv.w_dsigma, lv.b_dsigma)]
    return kl, [p for (dmean, dsig), dsigma in zip(pairs, dsigmas) for p in (dmean, dsig * dsigma)]


class TestTapeBasics:
    def test_pathwise_sample_chain_rule(self):
        # theta = m + sigma(rho) * zeta with zeta=0.7, rho=1:
        # dtheta/dm = 1, dtheta/drho = 0.7 * 1.5 = 1.05
        tape = grad.Tape()
        m = tape.leaf(np.array(0.3))
        rho = tape.leaf(np.array(1.0))
        theta = _add(m, _mul(_sigma_rho(rho), 0.7))
        tape.backward(theta)
        assert float(m.grad) == pytest.approx(1.0, abs=1e-15)
        assert float(rho.grad) == pytest.approx(1.05, abs=1e-12)

    def test_constant_objective_zero_gradients(self):
        tape = grad.Tape()
        a = tape.leaf(np.arange(4.0))
        out = _mean_all(_mul(a, 0.0))
        tape.backward(out)
        np.testing.assert_array_equal(a.grad, np.zeros(4))

    def test_backward_requires_scalar(self):
        tape = grad.Tape()
        a = tape.leaf(np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(_mul(a, 2.0))

    def test_fanout_accumulates(self):
        tape = grad.Tape()
        a = tape.leaf(np.array(2.0))
        out = _add(_square(a), _mul(a, 3.0))  # a^2 + 3a
        tape.backward(out)
        assert float(a.grad) == pytest.approx(7.0, abs=1e-14)

    def test_max_tie_routes_to_lowest_index(self):
        tape = grad.Tape()
        a = tape.leaf(np.array([[1.0, 1.0, 0.5]]))
        tape.backward(_sum_all(_max_last(a)))
        np.testing.assert_array_equal(a.grad, [[1.0, 0.0, 0.0]])

    def test_gather_scatter_roundtrip(self):
        tape = grad.Tape()
        a = tape.leaf(np.arange(6.0).reshape(2, 3))
        out = _sum_all(_gather_rows(a, np.array([2, 0])))
        tape.backward(out)
        np.testing.assert_array_equal(a.grad, [[0, 0, 1], [1, 0, 0]])

    def test_broadcast_unbroadcast(self):
        tape = grad.Tape()
        a = tape.leaf(np.ones(3))
        b = np.ones((5, 2, 3))
        out = _sum_all(_mul(a, b))
        tape.backward(out)
        np.testing.assert_array_equal(a.grad, np.full(3, 10.0))

    def test_clamp_gradients_gate(self):
        tape = grad.Tape()
        a = tape.leaf(np.array([0.5, 2.0]))
        tape.backward(_sum_all(_maximum_const(a, 1.0)))
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])
        tape = grad.Tape()
        a = tape.leaf(np.array([0.5, 2.0]))
        tape.backward(_sum_all(_minimum_const(a, 1.0)))
        np.testing.assert_array_equal(a.grad, [1.0, 0.0])


class TestFdCheck:
    def test_quadratic_is_exact(self):
        def fn(point):
            (p,) = point
            return float(np.sum(p * p) + 2.0 * p[0]), [2.0 * p + np.array([2.0, 0.0, 0.0])]

        err = fd_check(fn, [np.array([0.3, -1.2, 2.0])], step=1e-5)
        assert err < 1e-10

    def test_detects_wrong_gradient(self):
        def fn(point):
            (p,) = point
            return float(np.sum(p * p)), [3.0 * p]  # deliberately wrong

        assert fd_check(fn, [np.array([1.0, 2.0])], step=1e-5) > 0.2

    @pytest.mark.parametrize("kind", list(BoundKind))
    def test_toy_objective_gradients(self, monkeypatch, kind):
        """Each gradient_fd_* validator differentiates the trainer's own
        batch function: once for the gradient, twice per checked
        coordinate."""
        kinds = []

        def counting(model, config, *args):
            kinds.append(config.objective.kind)
            return batch_gradients(model, config, *args)

        monkeypatch.setattr(checks, "batch_gradients", counting)
        assert toy_objective_fd_error(kind, seed=0, max_coords=60) < 1e-4
        assert kinds == [kind] * (1 + 2 * 60)


class TestDeterminism:
    def test_bit_identical_forward_and_gradients(self):
        model = StochasticModel.initialize(ModelSpec((5, 4, 3)), 0.05, RngStream(4).child("m"))
        gen = np.random.default_rng(0)
        x = gen.uniform(0, 1, (6, 5))
        y = gen.integers(1, 4, 6)

        config = TrainConfig(BoundSpec(BoundKind.MCALL), lr_schedule=(), repeats=4)
        prior = prior_terms(model.groups)

        def run():
            obj, _, _, grads = batch_gradients(model, config, 1000, prior, x, y, RngStream(9))
            return obj, grads

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "phase, kind, dropout",
    [
        ("posterior", BoundKind.INVKL, 0.0),
        ("posterior", BoundKind.MCALL, 0.0),
        ("posterior", BoundKind.QUAD, 0.0),
        ("posterior", BoundKind.LBD, 0.0),
        ("prior", None, 0.3),
        ("baseline", BoundKind.INVKL, 0.0),
    ],
    ids=["invkl", "mcall", "quad", "lbd", "erm-prior-dropout", "surrogate"],
)
def test_step_gradient_is_two_term_chain_rule(phase, kind, dropout):
    """A step's gradients are exactly d_est * (estimate partials) +
    (d_pen * (kappa / m)) * (KL partials), from the estimate's (value,
    partials) under the same stream, ``kl_sum``'s partials chained through
    d sigma / d rho, and ``objective_partials`` at the clamped penalty; under
    ERM they are the estimate partials alone."""
    model, x, y = _toy_model(40, (10, 16, 8, 3))
    lam = 0.3 if kind == BoundKind.LBD else None
    spec = None if kind is None else BoundSpec(kind, kappa=2.5, lam=0.5 if lam else None)
    config = TrainConfig(spec, lr_schedule=(), repeats=3, phase=phase, dropout_prob=dropout)
    m = 4000
    prior = prior_terms(model.groups)
    rng = RngStream(42).child("batch")
    obj, est, pen, grads = batch_gradients(model, config, m, prior, x, y, rng, lam)

    value, partials = _batch_estimate(model, config, x, y, rng, make_leaves(model))
    assert est == value
    if spec is None:
        assert (obj, pen) == (est, 0.0)
        expected = partials
    else:
        kl, kl_partials = _kl_partials(model, prior)
        assert pen == penalty(max(kl, 0.0), m, spec.delta, spec.kappa)
        obj_value, (d_est, d_pen, _) = objective_partials(kind, est, pen, lam)
        assert obj == obj_value
        scale = d_pen * (spec.kappa / m)
        expected = [d_est * e + scale * k for e, k in zip(partials, kl_partials)]
    assert [g.shape for g in grads] == [a.shape for a in model.get_state()]
    assert len(expected) == len(grads)
    for g, e in zip(grads, expected):
        assert np.array_equal(g, e)


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


def _assert_grads_match(grads, ref_grads):
    assert len(grads) == len(ref_grads)
    for a, b in zip(ref_grads, grads):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def _chained_grads(model, build):
    """The value of build(leaves) on a fresh tape, ``leaves`` each layer's
    (w_mean, w_rho, b_mean, b_rho) leaves, and its gradients after backward
    in ``get_state()`` order."""
    tape = grad.Tape()
    leaves = [[tape.leaf(getattr(g, name)) for name in TRAINABLE] for g in model.groups]
    out = build(leaves)
    tape.backward(out)
    grads = [p.grad if p.grad is not None else np.zeros_like(p.value) for lv in leaves for p in lv]
    return float(out.value), grads


_FUSED_SHAPES = pytest.mark.parametrize(
    "widths, dropout",
    [((20, 256, 4), 0.0), ((784, 200, 10), 0.0), ((20, 64, 32, 5), 0.3)],
    ids=["20-256-4", "784-200-10", "20-64-32-5-dropout"],
)


def _check_fused_estimate(widths, dropout, reference):
    model = _perturbed_model(widths, 12)
    gen = np.random.default_rng(13)
    x = gen.uniform(0, 1, (32, widths[0]))
    y = gen.integers(1, widths[-1] + 1, 32)
    rng = RngStream(14)
    ref, ref_grads = _chained_grads(model, lambda lv: reference(model, x, y, rng, 5, lv, dropout))
    got, grads = _estimate("l1", model, x, y, rng, dropout)
    assert got == ref
    _assert_grads_match(grads, ref_grads)


class TestClosedFormNodes:
    @pytest.mark.parametrize(
        "widths", [(20, 256, 4), (784, 200, 10)], ids=["20-256-4", "784-200-10"]
    )
    def test_kl_node_matches_chained_kl(self, widths):
        model = _perturbed_model(widths, 11)
        ref, ref_grads = _chained_grads(model, lambda lv: _chained_kl(lv, model.groups))
        new, grads = _kl_partials(model, prior_terms(model.groups))
        assert new == pytest.approx(ref, rel=1e-12)
        _assert_grads_match(grads, ref_grads)

    @pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["plain", "dropout"])
    @pytest.mark.parametrize(
        "widths", [(20, 256, 4), (784, 200, 10), (20, 64, 32, 5)],
        ids=["20-256-4", "784-200-10", "20-64-32-5"],
    )
    def test_fused_hidden_matches_chained_relu_and_mask(self, widths, dropout):
        """The estimate node's hidden forward and backward, relu and dropout
        mask inside, against the chain sampled layer -> relu -> mask,
        through a fixed random readout of phi(H) as the head."""
        model = _perturbed_model(widths, 21)
        gen = np.random.default_rng(22)
        x = gen.uniform(0, 1, (32, widths[0]))
        readout = gen.normal(size=(32, widths[-2]))
        rng = RngStream(23)

        def chained(leaves):
            phi_h = _chained_hidden(leaves, x, rng, model.spec, dropout)
            return grad.closed_form(np.sum(phi_h.value * readout), (phi_h,), (readout,))

        leaves = make_leaves(model)
        head = _ReadoutHead(leaves[-1], readout)
        new, grads = estimate_node(leaves, x, rng, model.spec, head, dropout)
        ref, ref_grads = _chained_grads(model, chained)
        assert new == ref
        _assert_grads_match(grads, ref_grads)
        draws = [
            sample_gaussian(g.w_mean, g.w_sigma, g.b_mean, g.b_sigma, rng.child("theta", k))
            for k, g in enumerate(model.groups[:-1])
        ]
        assert np.all(hidden_forward_on_tape(x, draws)[-1] >= 0.0)

    @_FUSED_SHAPES
    def test_l1_node_matches_chained_estimate(self, widths, dropout):
        """Fused sampled-layer and conditional-head nodes against the chain
        of primitives."""
        _check_fused_estimate(widths, dropout, _chained_estimate)

    @_FUSED_SHAPES
    def test_reduced_l1_matches_dense_l1_sum(self, widths, dropout):
        """The head's per-input sums of L1 gradients over repeats against a
        closed-form head over the dense per-draw gradients."""
        _check_fused_estimate(widths, dropout, _dense_estimate)

    @_FUSED_SHAPES
    def test_surrogate_last_layer_matches_chain(self, widths, dropout):
        """The estimate node under the baseline's head (the sampled output
        layer and the bounded cross-entropy) against the chain of
        primitives."""
        model = _perturbed_model(widths, 15)
        gen = np.random.default_rng(16)
        x = gen.uniform(0, 1, (32, widths[0]))
        y0 = gen.integers(0, widths[-1], 32)
        rng = RngStream(17)
        theta_rng = rng.child("theta", model.spec.n_layers - 1)

        def chained(leaves):
            phi_h = _chained_hidden(leaves, x, rng, model.spec, dropout)
            return _chained_surrogate(_linear(phi_h, *_sample_layer(leaves[-1], theta_rng)), y0)

        leaves = make_leaves(model)
        head = _SurrogateHead(leaves[-1], y0, theta_rng)
        new, grads = estimate_node(leaves, x, rng, model.spec, head, dropout)
        ref, ref_grads = _chained_grads(model, chained)
        assert new == ref
        _assert_grads_match(grads, ref_grads)

    def test_surrogate_saturated_rows(self):
        """Rows with p_y within 1e-10 of 1, rows clamped at p_min and rows
        at the clamp, where the loss is 1 up to rounding: the closed-form
        gradient agrees with the chain to a few ulps of its scale, and is
        exactly zero on the rows the chain's clamp gates off."""
        batch, q = 12, 4
        gen = np.random.default_rng(24)
        F = gen.normal(size=(batch, q))
        y0 = gen.integers(0, q, batch)
        rows = np.arange(batch)
        F[rows, y0] = F.max(axis=1) + 2.0
        # Rows 0-8: zero scores except the true class's s, so p_y =
        # e^s / (e^s + q - 1). Rows 0-2 put 1 - p_y near 4e-11, 8e-13 and
        # 1e-14; rows 3-5 put p_y far below p_min; rows 6-8 put it a hair
        # above, at and a hair below p_min.
        at_pmin = math.log((q - 1) * SURROGATE_PMIN / (1.0 - SURROGATE_PMIN))
        scores = [25.0, 29.0, 33.0, -20.0, -15.0, -12.0, at_pmin + 1e-9, at_pmin, at_pmin - 1e-9]
        F[: len(scores)] = 0.0
        F[np.arange(len(scores)), y0[: len(scores)]] = scores

        def run(build):
            tape = grad.Tape()
            leaf = tape.leaf(F)
            out = build(leaf, y0)
            tape.backward(out)
            return float(out.value), leaf.grad

        ref, ref_grad = run(_chained_surrogate)
        new, new_grad = run(_surrogate_node)
        e = np.exp(F - F.max(axis=1)[:, None])
        p_y = e[rows, y0] / e.sum(axis=1)
        assert np.all((1.0 - p_y[:3] < 1e-10) & (p_y[:3] < 1.0))
        clamped = p_y <= SURROGATE_PMIN
        assert clamped[3:6].all() and clamped[8] and not clamped[6]
        np.testing.assert_array_equal(np.any(ref_grad != 0.0, axis=1), ~clamped)
        assert new == ref
        tol = 4.0 * np.finfo(float).eps / (batch * math.log(1.0 / SURROGATE_PMIN))
        assert np.max(np.abs(new_grad - ref_grad)) <= tol
        np.testing.assert_array_equal(new_grad[clamped], 0.0)


_HEADS = pytest.mark.parametrize("head", ["l1", "surrogate"])


class TestBlockBuiltEstimate:
    @_HEADS
    @pytest.mark.parametrize(
        "widths, batch, dropout",
        [((20, 256, 4), 1000, 0.0), ((784, 200, 10), 250, 0.0), ((20, 64, 32, 5), 600, 0.3)],
        ids=["20-256-4-b1000", "784-200-10-b250", "20-64-32-5-dropout"],
    )
    def test_block_sums_match_one_block(self, monkeypatch, widths, batch, dropout, head):
        """TRAIN_BLOCK-row blocks (1000 rows: 256, 256, 256 and 232) and
        one block of the whole batch give the same estimate and leaf
        gradients up to the reordered float sums."""
        model = _perturbed_model(widths, 25)
        gen = np.random.default_rng(26)
        x = gen.uniform(0, 1, (batch, widths[0]))
        y = gen.integers(1, widths[-1] + 1, batch)
        rng = RngStream(27)

        blocked, grads = _estimate(head, model, x, y, rng, dropout)
        monkeypatch.setattr(network, "TRAIN_BLOCK", batch + 1)
        whole, ref_grads = _estimate(head, model, x, y, rng, dropout)
        assert blocked == pytest.approx(whole, rel=1e-12, abs=0.0)
        _assert_grads_match(grads, ref_grads)

    @_HEADS
    def test_node_gradients_match_finite_differences(self, monkeypatch, head):
        """Every leaf gradient of the node, over ragged blocks of 3, 3 and
        2 rows with dropout, against central differences of the
        frozen-noise value, on the check battery's toy net."""
        monkeypatch.setattr(network, "TRAIN_BLOCK", 3)
        model, x, y = _toy_model(0, (5, 6, 4, 3))
        rng = RngStream(30)

        def fn(point):
            model.set_state(point)
            return _estimate(head, model, x, y, rng, 0.3)

        state0 = model.get_state()
        try:
            assert fd_check(fn, state0, step=1e-5) < 1e-4
        finally:
            model.set_state(state0)


def test_step_tape_freed_without_cyclic_collector(monkeypatch):
    """A finished step's tape, and the arrays on it, are freed by reference
    counting alone once ``batch_gradients`` returns: nothing on the tape
    refers back to it strongly."""
    model = _perturbed_model((20, 64, 32, 5), 18)
    gen = np.random.default_rng(19)
    x = gen.uniform(0, 1, (16, 20))
    y = gen.integers(1, 6, 16)
    spec = BoundSpec(BoundKind.INVKL, kappa=1.0, delta=0.025)
    config = TrainConfig(spec, lr_schedule=(), repeats=3, phase="prior", dropout_prob=0.3)
    prior = prior_terms(model.groups)
    refs = []
    backward = grad.Tape.backward

    def recording(tape, root):
        refs.extend((weakref.ref(tape), weakref.ref(root.value)))
        return backward(tape, root)

    monkeypatch.setattr(grad.Tape, "backward", recording)
    gc.collect()
    gc.disable()
    try:
        grads = batch_gradients(model, config, 4000, prior, x, y, RngStream(20))[3]
        assert len(grads) == 12 and len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


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
    @pytest.mark.slow
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
        prior = prior_terms(model.groups)

        config = TrainConfig(objective=spec, lr_schedule=(), repeats=repeats)

        def tape_grad(d):
            rng = RngStream(123).child("noise", d)
            grads = batch_gradients(model, config, m_pen, prior, x, y, rng)[3]
            return np.concatenate([g.reshape(-1) for g in grads])

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
