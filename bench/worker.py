"""One benchmark process: build a workload's inputs, run its episodes, and
print timings, outputs and check results as one JSON line.

``run.py`` starts this with the thread settings pinned; run the benchmark
through it rather than calling this file directly.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import condgauss as cg  # noqa: E402
from spans import DRAW, STEP, Tracer, nearest_ancestor, self_times  # noqa: E402
from workloads import (  # noqa: E402
    DELTA,
    DELTA_PRIME,
    MOMENTUM,
    MUST_BYPASS,
    MUST_REACH,
    SEPARATION,
    SIGMA0,
    WORKLOADS,
)

EPISODE = "bench.episode"
REFERENCE = HERE / "reference.json"
SPAN_DIR = ROOT / ".bench_out"
# Relative tolerance of the reference comparison. On one machine at the
# pinned thread settings the numbers are bit-identical; the slack absorbs
# BLAS kernels that round differently on another CPU.
REFERENCE_RTOL = 1e-6


def build_inputs(spec: dict, seed: int):
    ds = cg.synth_blobs(spec["classes"], spec["per_class"], spec["dim"], SEPARATION, seed)
    model = cg.StochasticModel.initialize(
        cg.ModelSpec(spec["widths"]), SIGMA0, cg.RngStream(seed).child("bench", "init")
    )
    return ds, model


def run_episode(spec: dict, seed: int, ds, model0) -> dict:
    """The workload's job, from a fresh copy of the initial model."""
    model = copy.deepcopy(model0)
    out = {}
    if spec["schedule"]:
        config = cg.TrainConfig(
            objective=cg.BoundSpec(cg.BoundKind.INVKL, kappa=1.0, delta=DELTA),
            lr_schedule=spec["schedule"],
            momentum=MOMENTUM,
            batch_size=spec["batch"],
            repeats=spec["repeats"],
            seed=seed,
        )
        model, log = cg.train_condgauss(model, ds, config)
        out["objectives"] = [row.objective for row in log.rows]
        out["best_bound_est"] = log.best_bound()
    if spec["cert_draws"]:
        cert = cg.final_certificate(
            model, ds, spec["cert_draws"], DELTA, DELTA_PRIME, cg.RngStream(seed).child("bench", "certify")
        )
        out["certificate"] = {
            k: getattr(cert, k) for k in ("tilde_e", "inner_bound", "final_bound", "confidence")
        }
    return out


def headline(out: dict) -> dict:
    """The numbers a reference pins: best_bound_est and final_bound."""
    h = {}
    if "best_bound_est" in out:
        h["best_bound_est"] = out["best_bound_est"]
    if "certificate" in out:
        h["final_bound"] = out["certificate"]["final_bound"]
    return h


def episode_checks(out: dict) -> list[tuple[str, bool]]:
    checks = []
    if "objectives" in out:
        checks.append(("objectives_finite", all(math.isfinite(v) for v in out["objectives"])))
    if "certificate" in out:
        c = out["certificate"]
        nests = c["tilde_e"] <= c["inner_bound"] <= c["final_bound"] <= 1.0
        checks.append(("certificate_nests", nests and c["confidence"] == 0.965))
    return checks


def reference_check(workload: str, seed: int, out: dict) -> tuple[list, str]:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None:
        return [], "none recorded for this seed"
    got = headline(out)
    ok = set(ref) == set(got) and all(abs(got[k] - ref[k]) <= REFERENCE_RTOL * abs(ref[k]) for k in ref)
    exact = ok and all(got[k] == ref[k] for k in ref)
    return [("reference_match", ok)], "exact" if exact else ("within tolerance" if ok else "MISMATCH")


def pool_walls(spans: list) -> list[float]:
    """Per episode, from the first draw's start to the last draw's end."""
    draws = [s for s in spans if s.name == DRAW]
    walls = []
    for ep in (s for s in spans if s.name == EPISODE):
        inside = [d for d in draws if ep.start <= d.start and d.end <= ep.end]
        if inside:
            walls.append(max(d.end for d in inside) - min(d.start for d in inside))
    return walls


class Run:
    """The episodes of one process and the spans they left.

    Untraced episodes run under ``clock``, which only marks training steps
    and certification draws; traced episodes run under ``tracer``.
    """

    def __init__(self, workload: str, seed: int, traced_setup: bool, spec: dict | None = None):
        self.workload = workload
        self.spec = spec or WORKLOADS[workload]
        self.seed = seed
        self.clock = Tracer(full=False)
        self.tracer = Tracer(full=True)
        with self.tracer.instrument(cg) if traced_setup else contextlib.nullcontext():
            self.ds, self.model0 = build_inputs(self.spec, seed)
        self.outputs: list[dict] = []
        self.checks: list[tuple[str, bool]] = []
        self.errors: list[str] = []
        self.reference = None
        self.peak_rss_mb = None

    def episode(self, traced: bool) -> bool:
        tracer = self.tracer if traced else self.clock
        with tracer.instrument(cg):
            span = tracer.begin(EPISODE)
            try:
                out = run_episode(self.spec, self.seed, self.ds, self.model0)
            except Exception:  # reported as a failed operation; the run stops
                self.errors.append(traceback.format_exc())
                return False
            finally:
                tracer.end(span)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.checks.extend(episode_checks(out))
        if not self.outputs:
            self.outputs.append(out)
            checks, self.reference = reference_check(self.workload, self.seed, out)
            self.checks.extend(checks)
        else:
            self.checks.append(("trace_identical" if traced else "repeat_identical", out == self.outputs[0]))
        return True

    @property
    def op_kind(self) -> str:
        """The timed operation: a training step, or a draw if nothing trains."""
        return STEP if self.spec["schedule"] else DRAW

    def op_count(self) -> int:
        return sum(1 for t in (self.clock, self.tracer) for s in t.spans if s.name in (STEP, DRAW))

    def measured(self) -> dict:
        """Untraced timings and results under the workload's own names."""
        spans = self.clock.spans
        steps = [1000.0 * s.duration for s in spans if s.name == STEP]
        draws = [1000.0 * s.duration for s in spans if s.name == DRAW]
        out = {
            "episodes": sum(1 for s in spans if s.name == EPISODE),
            "episode_s": statistics.median(s.duration for s in spans if s.name == EPISODE),
            "steps": len(steps),
            "draws": len(draws),
        }
        if steps:
            out["step_ms_p50"] = statistics.median(steps)
            out["step_ms_p90"] = statistics.quantiles(steps, n=10)[-1] if len(steps) > 1 else steps[0]
            out["train_samples_per_s"] = len(steps) * self.spec["batch"] * 1000.0 / sum(steps)
        if draws:
            out["draw_ms_p50"] = statistics.median(draws)
            out["cert_draws_per_s"] = len(draws) / sum(pool_walls(spans))
        out.update(headline(self.outputs[0]))
        return out

    def end_to_end(self, measured: dict) -> dict:
        if self.op_kind == STEP:
            op_ms, samples_per_s = measured["step_ms_p50"], measured["train_samples_per_s"]
        else:
            op_ms, samples_per_s = measured["draw_ms_p50"], measured["cert_draws_per_s"] * len(self.ds)
        return {
            "op_ms_p50": op_ms,
            "samples_per_s": samples_per_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def layer_metrics(self, overhead_share: float) -> dict:
        spans = self.tracer.spans
        own = self_times(spans)
        owner = nearest_ancestor(spans, (STEP, DRAW))
        steps = [s for s in spans if s.name == STEP]
        draws = [s for s in spans if s.name == DRAW]
        n_episodes = sum(1 for s in spans if s.name == EPISODE)

        def per(total, n):
            return total / n if n else 0.0

        def under(name, kind):
            return [s for s in spans if s.name == name and owner[s.id] is not None and owner[s.id].name == kind]

        def ms_per_step(name, self_only=False):
            picked = under(name, STEP)
            return per(1000.0 * sum(own[s.id] if self_only else s.duration for s in picked), len(steps))

        def attr_per_step(name, key):
            return per(sum(s.attrs[key] for s in under(name, STEP)), len(steps))

        def ms_per_draw(name):
            return per(1000.0 * sum(s.duration for s in under(name, DRAW)), len(draws))

        def mean_ms(name):
            picked = [s.duration for s in spans if s.name == name]
            return 1000.0 * statistics.fmean(picked) if picked else 0.0

        widths = self.spec["widths"]
        flop = 2.0 * len(self.ds) * sum(a * b for a, b in zip(widths[:-1], widths[1:]))
        gflop_per_draw = flop / 1e9 if draws else 0.0
        forward_ms = ms_per_draw("network.forward_scores")
        pool_s = sum(s.duration for s in spans if s.name == "certify.mc_empirical_error")
        return {
            "rng.normal_ms_per_step": ms_per_step("rng.normal"),
            "rng.normal_values_per_step": attr_per_step("rng.normal", "values"),
            "rng.normal_ms_per_draw": ms_per_draw("rng.normal"),
            "grad.backward_ms_per_step": ms_per_step("grad.backward"),
            "grad.tape_nodes_per_step": attr_per_step("grad.backward", "nodes"),
            "grad.tape_mb_per_step": attr_per_step("grad.backward", "bytes") / 1e6,
            "network.hidden_forward_ms_per_step": ms_per_step("network.hidden_forward_on_tape", True),
            "network.estimate_ms_per_step": ms_per_step("network.batch_error_estimate", True),
            "network.l1_entries_per_step": attr_per_step("network.batch_error_estimate", "l1_entries"),
            "network.sample_full_ms_per_draw": ms_per_draw("network.sample_full"),
            "network.forward_ms_per_draw": forward_ms,
            "network.forward_gflop_per_draw": gflop_per_draw,
            "network.forward_gflops": per(gflop_per_draw, forward_ms / 1000.0),
            "trainer.momentum_ms_per_step": ms_per_step("trainer.momentum_step"),
            "trainer.step_self_ms": per(1000.0 * sum(own[s.id] for s in steps), len(steps)),
            "gaussian.kl_diag_gauss_ms": mean_ms("gaussian.kl_diag_gauss"),
            "bounds.kl_inv_calls": per(sum(1 for s in spans if s.name == "bounds.kl_inv"), n_episodes),
            "bounds.kl_inv_us_per_call": 1000.0 * mean_ms("bounds.kl_inv"),
            "certify.draw_ms_p50": statistics.median(1000.0 * s.duration for s in draws) if draws else 0.0,
            "certify.pool_busy_share": per(sum(s.duration for s in draws), pool_s * self.spec["workers"]),
            "data.synth_blobs_ms": mean_ms("data.synth_blobs"),
            "trace.overhead_share": overhead_share,
        }

    def reach_checks(self) -> list[tuple[str, bool]]:
        calls = self.tracer.calls()
        checks = [(f"reached:{n}", calls[n] > 0) for n in sorted(MUST_REACH[self.workload])]
        return checks + [(f"bypassed:{n}", calls[n] == 0) for n in sorted(MUST_BYPASS[self.workload])]

    def write_spans(self) -> Path:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{self.workload}-seed{self.seed}.jsonl"
        with open(path, "w", encoding="ascii") as fh:
            for s in self.tracer.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
        return path


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{
            k: os.environ.get(k)
            for k in ("CONDGAUSS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONHASHSEED")
        },
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("run", "setup", "record"), default="run")
    args = p.parse_args()

    run = Run(args.workload, args.seed, traced_setup=bool(args.trace))
    ready = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    if args.mode == "record":
        out = run_episode(run.spec, args.seed, run.ds, run.model0)
        print(json.dumps({"headline": headline(out), "env": environment()}))
        return 0

    # Whole episodes until time is up; a traced run alternates untraced
    # and traced episodes.
    start = time.perf_counter()
    while run.episode(traced=False) and (not args.trace or run.episode(traced=True)):
        if time.perf_counter() - start >= args.seconds:
            break

    result = {"ready": ready, "env": environment(), "errors": run.errors}
    if not run.errors:
        timing = [("ops_timed", any(s.name == run.op_kind for s in run.clock.spans))]
        if args.trace:
            timing += run.reach_checks()
        run.checks.extend(timing)
        # A missed boundary fails its check above and leaves nothing to measure.
        if all(ok for _, ok in timing):
            result["summary"] = run.measured()
            if args.trace:
                untraced = statistics.median(s.duration for s in run.clock.spans if s.name == run.op_kind)
                traced = statistics.median(s.duration for s in run.tracer.spans if s.name == run.op_kind)
                result["metrics"] = run.layer_metrics(traced / untraced - 1.0)
                result["spans_file"] = str(run.write_spans().relative_to(ROOT))
            else:
                result["metrics"] = run.end_to_end(result["summary"])
        result["reference"] = run.reference
    result["checks"] = run.checks
    result["attempted"] = run.op_count() + len(run.checks) + len(run.errors)
    result["failed"] = sum(1 for _, ok in run.checks if not ok) + len(run.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
