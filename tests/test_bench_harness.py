"""The benchmark harness's self-test, run as part of the suite: a refactor
that renames or rebinds an entry point the harness wraps fails here rather
than in a benchmark run. Also the paired-run report's no-regression verdict
and how it reads a run's output."""
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "parent, change, higher, verdict",
    [
        # Medians 10 and 13: 30% worse than the parent, beyond a 25% bound.
        ([9.9, 10.0, 10.1], [12.9, 13.0, 13.1], False, "regressed"),
        ([9.9, 10.0, 10.1], [7.0, 7.1, 7.2], True, "regressed"),
        # Medians equal, but the parent's quartiles lie 4 apart: wider than
        # the 2.5 the bound allows, so no regression can be ruled out.
        ([7.0, 8.0, 10.0, 12.0, 13.0], [7.1, 8.1, 10.0, 11.9, 12.9], False, "unresolved"),
        # Just as wide, but every change run beats every parent run.
        ([7.0, 8.0, 10.0, 12.0, 13.0], [6.0, 6.2, 6.5, 6.7, 6.9], False, "holds"),
        ([9.9, 10.0, 10.1], [10.5, 10.6, 10.7], False, "holds"),
        ([9.9, 10.0, float("nan")], [9.9, 10.0, 10.1], False, "unresolved"),
    ],
    ids=["regressed_lower_better", "regressed_higher_better", "unresolved_spread",
         "spread_beaten_by_every_run", "holds_within_bound", "unresolved_missing_metric"],
)
def test_regression_verdict(parent, change, higher, verdict):
    assert load_bench_pairs().regression_verdict(parent, change, 0.25, higher) == verdict


def test_parse_run_reads_episode_s():
    stdout = "\n".join([
        "workload certify  seed 1  trace 0",
        "op_ms_p50 = 69.8 ms",
        "  episodes = 5",
        "  episode_s = 1.8512",
        "checks: 4 passed, failed: none; reference: exact",
        '{"correct": true, "attempted": 250, "failed": 0, "metrics": {}}',
    ])
    result = load_bench_pairs().parse_run(stdout)
    assert result["episode_s"] == 1.8512
    assert result["reference"] == "exact" and result["failed_checks"] == "none"
    assert result["attempted"] == 250
    without = stdout.replace("  episode_s = 1.8512\n", "")
    assert math.isnan(load_bench_pairs().parse_run(without)["episode_s"])
