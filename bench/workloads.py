"""Workload shapes, thread pinning and metric names of the condgauss benchmark.

Plain data with no imports beyond the standard library, so the launcher can
read it without importing numpy.

Every workload's inputs are Gaussian class blobs from ``synth_blobs`` with
the run's seed. One *episode* is the job a user runs on them: train from a
fresh model, certify, or both. A run repeats episodes until its time is up,
and every episode of a run must produce the same numbers.

- ``desk_train``: the ``configs/synth_quick.cfg`` shape (m = 4000, 20-256-4,
  invkl, batch 1000, repeats 10, momentum 0.5, its 75-epoch schedule) and a
  300-draw certificate. Arrays are tiny, so a step costs Python and tape
  overhead; tape and node-fusion changes show here.
- ``mnist_train``: 784-200-10 on 10-class blobs of MNIST shape with the
  ``configs/mnist_invkl.cfg`` batch, repeats and learning rate, and no
  certificate. Philox draws, the L1 estimator and BLAS dominate.
- ``certify``: a 50-draw certificate of a freshly initialised, seeded
  784-200-10 model on an m = 10000 bound set, drawn by two pool workers. No
  tape and no trainer run, so training-step changes predict no change here.
"""

SEPARATION = 0.8
SIGMA0 = 0.01
DELTA = 0.025
DELTA_PRIME = 0.01
MOMENTUM = 0.5

WORKLOADS = {
    "desk_train": {
        "classes": 4,
        "per_class": 1000,
        "dim": 20,
        "widths": (20, 256, 4),
        "batch": 1000,
        "repeats": 10,
        "schedule": ((60, 0.001), (15, 0.00002)),
        "cert_draws": 300,
        "workers": 1,
    },
    "mnist_train": {
        "classes": 10,
        "per_class": 250,
        "dim": 784,
        "widths": (784, 200, 10),
        "batch": 250,
        "repeats": 100,
        "schedule": ((5, 0.001),),
        "cert_draws": 0,
        "workers": 1,
    },
    "certify": {
        "classes": 10,
        "per_class": 1000,
        "dim": 784,
        "widths": (784, 200, 10),
        "schedule": (),
        "cert_draws": 50,
        "workers": 2,
    },
}

# name -> unit. Timings here are taken with tracing off. An episode's wall
# time is its timed steps or draws plus about 1%, so ``samples_per_s``
# already gates it; the median episode is reported, not gated.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> unit, from the traced run.
PER_LAYER = {
    "rng.normal_ms_per_step": "ms",
    "rng.normal_values_per_step": "count",
    "rng.normal_ms_per_draw": "ms",
    "grad.backward_ms_per_step": "ms",
    "grad.tape_nodes_per_step": "count",
    "grad.tape_mb_per_step": "MB",
    "network.hidden_forward_ms_per_step": "ms",
    "network.estimate_ms_per_step": "ms",
    "network.l1_entries_per_step": "count",
    "network.sample_full_ms_per_draw": "ms",
    "network.forward_ms_per_draw": "ms",
    "network.forward_gflop_per_draw": "GFLOP",
    "network.forward_gflops": "GFLOP/s",
    "trainer.momentum_ms_per_step": "ms",
    "trainer.step_self_ms": "ms",
    "gaussian.kl_diag_gauss_ms": "ms",
    "bounds.kl_inv_calls": "count",
    "bounds.kl_inv_us_per_call": "us",
    "certify.draw_ms_p50": "ms",
    "certify.pool_busy_share": "ratio",
    "data.synth_blobs_ms": "ms",
    "trace.overhead_share": "ratio",
}

# Spans a traced episode must reach, and spans it must not.
_TRAIN = {
    "rng.normal",
    "grad.backward",
    "network.make_leaves",
    "network.hidden_forward_on_tape",
    "network.batch_error_estimate",
    "trainer.train_condgauss",
    "trainer.momentum_step",
    "trainer.step",
    "gaussian.kl_diag_gauss",
    "bounds.kl_inv",
    "data.synth_blobs",
}
_CERTIFY = {
    "rng.normal",
    "network.sample_full",
    "network.exact_misclassification",
    "network.forward_scores",
    "certify.final_certificate",
    "certify.mc_empirical_error",
    "certify.draw",
    "gaussian.kl_diag_gauss",
    "bounds.kl_inv",
    "data.synth_blobs",
}
MUST_REACH = {
    "desk_train": _TRAIN | _CERTIFY,
    "mnist_train": _TRAIN,
    "certify": _CERTIFY,
}
MUST_BYPASS = {
    "desk_train": set(),
    "mnist_train": _CERTIFY - _TRAIN,
    "certify": _TRAIN - _CERTIFY,
}
