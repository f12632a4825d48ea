"""Paired benchmark runs of two source checkouts.

    python3 scripts/bench_pairs.py --parent ../base --change . --workload desk_train --pairs 10

Runs ``bench/run.py`` of each checkout, in that checkout, ``--pairs`` times
per side. Pair i runs the parent first when i is even and the change first
when i is odd. Each run's last output line is its JSON result. Seeds cycle
through ``--seeds``, the same seed for both runs of a pair.

For every end-to-end metric of the change's ``BENCHMARK.json`` the report
gives each side's median and quartiles and the change's wins, ties counting
for neither side. A gain holds when the change wins at least nine tenths of
the pairs and its median beats the parent's by more than the distance
between the parent's quartiles. Beside it stands a no-regression verdict
against the metric's ``bound``: ``regressed`` when the change's median is
worse than the parent's by more than bound times the parent median,
``unresolved`` when the parent's quartile distance exceeds that amount
(unless every change run beats every parent run), ``holds`` otherwise.
Each side's median ``episode_s``, the wall time of a whole episode that
``bench/run.py`` prints and does not gate, follows: it shows work moved out
of the timed steps or draws into the rest of the episode. Failed operations
and the reference check of every run are listed too. The exit status is
nonzero when a run failed or a metric regressed.

With ``--trace``, one ``--trace 1`` run per side follows the pairs, on the
first seed, and the report adds each per-layer metric of ``BENCHMARK.json``
for both sides with the change's difference, and every reach or other
check the traced runs failed: it shows in which layer a saving sits.

Standard library only, so it runs whatever the checkouts' environments hold.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``bench/run.py`` run, read by ``parse_run``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{checkout}: bench/run.py failed\n{proc.stdout}{proc.stderr}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """A run's JSON line plus its reference status, the names of the checks
    it failed and its median ``episode_s`` (NaN when not printed)."""
    result = json.loads(stdout.strip().splitlines()[-1])
    match = re.search(r"; reference: (.*)$", stdout, re.MULTILINE)
    result["reference"] = match.group(1) if match else "not reported"
    match = re.search(r"^checks: .*failed: (.*); reference", stdout, re.MULTILINE)
    result["failed_checks"] = match.group(1) if match else "not reported"
    match = re.search(r"^\s+episode_s = (\S+)$", stdout, re.MULTILINE)
    result["episode_s"] = float(match.group(1)) if match else float("nan")
    return result


def value(result: dict, name: str) -> float:
    """A metric of one run, NaN when the run did not report it."""
    return result["metrics"].get(name, {}).get("value", float("nan"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def regression_verdict(parent: list[float], change: list[float], bound: float,
                       higher: bool) -> str:
    """``regressed``, ``unresolved`` or ``holds`` for one metric's runs: see
    the module docstring. A metric some run did not report is unresolved."""
    if any(math.isnan(v) for v in parent + change):
        return "unresolved"
    (pq1, pmed, pq3), (_, cmed, _) = quartiles(parent), quartiles(change)
    allowed = bound * abs(pmed)
    worse = (pmed - cmed) if higher else (cmed - pmed)
    if worse > allowed:
        return "regressed"
    beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
    if pq3 - pq1 > allowed and not beats_all:
        return "unresolved"
    return "holds"


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> bool:
    """Print per-metric medians, quartiles, wins and both verdicts; True if
    every run was correct and failed nothing and no metric regressed."""
    print(f"{'metric':<15}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'wins':>8}  gain rule; no-regression")
    ok = True
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        par = [value(r, name) for r in runs["parent"]]
        chg = [value(r, name) for r in runs["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(par), quartiles(chg)
        gain = (cmed - pmed) if higher else (pmed - cmed)
        holds = wins >= 0.9 * len(par) and gain > pq3 - pq1
        verdict = regression_verdict(par, chg, m["bound"], higher)
        ok = ok and verdict != "regressed"
        print(f"{name:<15}{pmed:>14.5g} [{pq1:.5g}, {pq3:.5g}]{cmed:>14.5g} [{cq1:.5g}, {cq3:.5g}]"
              f"{wins:>5}/{len(par)}  {'holds' if holds else 'not met'}"
              f" (median change {100.0 * (cmed - pmed) / pmed:+.1f}%); {verdict}"
              f" (bound {100.0 * m['bound']:.0f}%)")
    episodes = {side: statistics.median(r["episode_s"] for r in results)
                for side, results in runs.items()}
    print(f"episode_s (whole job, not gated): parent median {episodes['parent']:.5g} s, "
          f"change median {episodes['change']:.5g} s "
          f"({100.0 * (episodes['change'] - episodes['parent']) / episodes['parent']:+.1f}%)")
    for side, results in runs.items():
        failed = [r["failed"] for r in results]
        refs = sorted({r["reference"] for r in results})
        correct = all(r["correct"] for r in results)
        ok = ok and correct and not any(failed)
        print(f"{side}: failed operations {failed}; all correct {correct}; reference {refs}")
    return ok


def report_layers(metrics: list[dict], traced: dict[str, dict]) -> None:
    """Print each per-layer metric of both traced runs, with the change's
    difference, and the checks each traced run failed."""
    print(f"{'per-layer metric':<38}{'parent':>12}{'change':>12}  change vs parent")
    for m in metrics:
        name = m["name"]
        par, chg = value(traced["parent"], name), value(traced["change"], name)
        if par == 0.0 and chg == 0.0:
            continue
        diff = f"{100.0 * (chg - par) / par:+.1f}%" if par else "n/a"
        print(f"{name:<38}{par:>12.5g}{chg:>12.5g}  {diff} ({m['better']} is better)")
    for side, result in traced.items():
        print(f"{side} traced run: failed checks {result['failed_checks']}; "
              f"reference {result['reference']}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="parent source checkout")
    p.add_argument("--change", required=True, type=Path, help="changed source checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--seconds", type=float, help="run length (default: the benchmark's)")
    p.add_argument("--trace", action="store_true",
                   help="after the pairs, compare one traced run per side layer by layer")
    args = p.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], args.workload, seed, seconds))
        line = "  ".join(
            f"{side} {name}={value(runs[side][-1], name):.5g}"
            for side in ("parent", "change")
            for name in ("op_ms_p50", "samples_per_s", "peak_rss_mb")
        )
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {line}", flush=True)
    ok = report(spec["end_to_end"], runs)
    if args.trace:
        traced = {side: run_bench(path, args.workload, args.seeds[0], seconds, trace=1)
                  for side, path in sides.items()}
        report_layers(spec["per_layer"], traced)
        ok = ok and all(r["correct"] and not r["failed"] for r in traced.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
