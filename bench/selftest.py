"""Self-test of the benchmark harness at toy sizes.

    python3 bench/selftest.py

Runs one untraced and one traced episode of a tiny train-and-certify job
and checks that every metric named in BENCHMARK.json is emitted under a
valid name, that every wrapped entry point was reached at each binding,
and that span self times are non-negative and sum to their root span.
Exits non-zero on the first failed check.
"""
from __future__ import annotations

import json
import math
import os
import re
import sys
import threading
from collections import defaultdict

os.environ["CONDGAUSS_THREADS"] = "2"  # exercise the certification pool

import worker  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import END_TO_END, PER_LAYER  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TOY = {
    "classes": 3,
    "per_class": 20,
    "dim": 6,
    "widths": (6, 8, 3),
    "batch": 20,
    "repeats": 3,
    "schedule": ((2, 0.001),),
    "cert_draws": 6,
    "workers": 2,
}


def check(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    if not ok:
        sys.exit(1)


def main() -> None:
    cg = worker.cg
    originals = (cg.network.sample_full, cg.certify.sample_full, cg.rng.RngStream.normal)
    with Tracer().instrument(cg):
        check(
            "every binding is wrapped while tracing",
            all(hasattr(f, "__wrapped__") for f in (cg.certify.sample_full, cg.network.sample_full,
                                                      cg.trainer.batch_error_estimate,
                                                      cg.rng.RngStream.normal)),
        )
    check(
        "bindings restored after tracing",
        (cg.network.sample_full, cg.certify.sample_full, cg.rng.RngStream.normal) == originals,
    )

    worker.REFERENCE = worker.HERE / "no-reference-for-toy-sizes.json"
    run = worker.Run("desk_train", 3, traced_setup=True, spec=TOY)
    check("untraced episode", run.episode(traced=False))
    check("traced episode", run.episode(traced=True))
    check("episode checks pass", all(ok for _, ok in run.checks) and not run.errors)
    reach = run.reach_checks()
    check(f"all {len(reach)} wrapped entry points reached", all(ok for _, ok in reach))

    end_to_end = run.end_to_end(run.measured())
    end_to_end["setup_s"] = 0.1
    layers = run.layer_metrics(0.0)
    check("end-to-end names match workloads.END_TO_END", set(end_to_end) == set(END_TO_END))
    check("per-layer names match workloads.PER_LAYER", set(layers) == set(PER_LAYER))
    with open(worker.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check(
        "BENCHMARK.json lists the same metrics and units",
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        and {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
    )
    every = {**end_to_end, **layers}
    check("metric names are valid", all(NAME.match(n) for n in every))
    check("metric values are finite numbers", all(isinstance(v, (int, float)) and math.isfinite(v)
                                                   for v in every.values()))
    check("toy run has steps and draws", layers["grad.tape_nodes_per_step"] > 0
          and layers["certify.draw_ms_p50"] > 0)

    for tracer in (run.clock, run.tracer):
        spans = tracer.spans
        own = self_times(spans)
        check("all spans closed", all(s.end is not None and s.end >= s.start for s in spans))
        check("self times are non-negative", all(v >= -1e-12 for v in own.values()))
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)

        def subtree_self(span) -> float:
            return own[span.id] + sum(subtree_self(c) for c in children[span.id])

        roots = children[None]
        check(
            f"self times sum to each of {len(roots)} root spans",
            all(abs(subtree_self(r) - r.duration) <= 1e-9 for r in roots),
        )
        threads = {s.thread for s in spans if s.name == "certify.draw"}
        check("draws ran on pool threads", bool(threads) and threading.get_ident() not in threads)

    path = run.write_spans()
    lines = path.read_text().splitlines()
    check("spans file holds every span", len(lines) == len(run.tracer.spans)
          and all("name" in json.loads(ln) for ln in lines))
    print("selftest passed")


if __name__ == "__main__":
    main()
