"""condgauss benchmark launcher.

    python3 bench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The launcher pins the thread
settings of the workload, starts ``worker.py`` in fresh processes and prints
a report whose last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, timed with tracing off.
``setup_s`` is the median, over several fresh processes, of the time from
process start to the first timed step or draw. ``--trace 1`` reports the
per-layer metrics of a traced run and writes its spans under
``.bench_out/``. ``--record`` stores the run's bounds as the reference for
its seed in ``bench/reference.json``.

Workloads and metric names are defined in ``workloads.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

# Fresh processes that only set up, besides the measured one.
SETUP_PROBES = 4
# Every run, including its setup probes, ends within this many seconds.
RUN_BUDGET_S = 170.0


def pinned_env(workload: str) -> dict:
    """One BLAS thread per process; certification workers never exceed nproc.

    A fixed hash seed fixes set and dict order, and with it when the cyclic
    collector frees the tapes, which otherwise moves peak RSS by up to 5%.
    """
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    workers = min(WORKLOADS[workload]["workers"], nproc)
    env.update(
        CONDGAUSS_THREADS=str(workers),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def worker(args, mode: str, deadline: float) -> tuple[dict, float]:
    """Run one worker process; return its JSON line and its start time."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd,
        env=pinned_env(args.workload),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def record(args, deadline: float) -> None:
    out, _ = worker(args, "record", deadline)
    path = HERE / "reference.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    refs.setdefault(args.workload, {})[str(args.seed)] = out["headline"]
    refs[args.workload] = dict(sorted(refs[args.workload].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(dict(sorted(refs.items())), indent=1) + "\n")
    print(f"recorded {args.workload} seed {args.seed}: {out['headline']}")


def main() -> int:
    p = argparse.ArgumentParser(description="condgauss benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="store this seed's reference bounds")
    args = p.parse_args()
    deadline = time.perf_counter() + RUN_BUDGET_S

    if not (ROOT / "src" / "condgauss" / "__init__.py").is_file():
        print(f"error: no condgauss sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record:
        record(args, deadline)
        return 0

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, started = worker(args, "setup", deadline)
            setup.append(probe["ready"] - started)
    res, started = worker(args, "run", deadline)
    setup.append(res["ready"] - started)

    metrics = res.get("metrics", {})
    if not args.trace and metrics:
        metrics["setup_s"] = statistics.median(setup)
    units = PER_LAYER if args.trace else END_TO_END
    correct = not res["errors"] and res["failed"] == 0 and set(metrics) == set(units)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in res["env"].items()))
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    for name, value in res.get("summary", {}).items():
        print(f"  {name} = {value}")
    if not args.trace:
        print(f"  setup_s samples = {[round(s, 4) for s in setup]}")
    failed_checks = [name for name, ok in res["checks"] if not ok]
    print(f"checks: {len(res['checks']) - len(failed_checks)} passed, failed: {failed_checks or 'none'}"
          f"; reference: {res.get('reference')}")
    for err in res["errors"]:
        print(f"error: {err}")
    if "spans_file" in res:
        print(f"spans written to {res['spans_file']}")
    print(f"fail_ratio = {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']})")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
