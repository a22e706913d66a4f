"""Smoke check of the benchmark itself (about two minutes):

    python3 bench/smoke.py

1. Every workload, untraced and traced, emits exactly the metrics that
   ``BENCHMARK.json`` names, with their units, as finite numbers, and
   passes its checks.
2. A violated invariant and a digest mismatch each count as a failed
   operation, so they raise ``error_ratio``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from worker import Checker  # noqa: E402


def check_emitted(spec: dict) -> None:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                spec["command"] + ["--workload", w["name"], "--seed", "1",
                                   "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stdout
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == expected[trace], (w["name"], trace, got)
            for k, m in result["metrics"].items():
                assert math.isfinite(m["value"]), (w["name"], k, m)
            print(f"ok {w['name']} trace={trace}: {len(got)} metrics")


def check_error_ratio() -> None:
    broken = dataclasses.replace(workloads.WORKLOADS["collapse"], K=2)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ctx = broken.setup(1, Path(tmp))
        checker = Checker(broken, ctx)
        checker.account(broken.run(ctx), "cold")
        assert checker.failed == 1, checker.failures  # fraction_zero < 0.99

        good = workloads.WORKLOADS["collapse"]
        ctx = good.setup(1, Path(tmp))
        checker = Checker(good, ctx)
        checker.account(good.run(ctx), "cold")
        assert checker.failed == 0, checker.failures
        ops = good.run(ctx)
        ops[0].digest = "0" * 64
        checker.account(ops, "warm")
        assert checker.failed == 1 and checker.attempted == 2
    print("ok violated invariant and digest mismatch raise error_ratio")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_error_ratio()
    check_emitted(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
