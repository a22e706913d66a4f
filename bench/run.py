"""depthlab benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload collapse --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30   # all four, both modes

Workloads (``workloads.py`` documents each): ``collapse``, ``blocks``,
``certify`` and ``infimum``.  The seed becomes the CLI master ``--seed``
and the library sample seeds; the same seed gives the same inputs.

Untraced (``--trace 0``), fresh worker processes run one after another.
Each times the import of ``depthlab`` and ``depthlab.cli`` plus the
workload's set-up, then its first run.  At least two of them do only
that, within half of ``--seconds`` when they fit; the last one goes on
with warm runs (at least three) for the rest of the time.  Every run is
timed together with a fixed pure-Python reference loop
(``worker.reference_s``), run on the same CPU just before and just after
it.  End-to-end metrics, all medians:

    run_ref      a warm run's wall time over the reference loop's
    cold_ref     the same for a worker's first run (lazy tables land here)
    setup_s      fresh-process import plus building specs, models and
                 points, over the reference loop's time, times the loop's
                 nominal 10 ms: seconds at a fixed machine speed
    peak_rss_mb  peak resident memory of a worker process

The host's speed drifts by up to 1.5 times in phases of seconds to
minutes, and moves the workload and the reference loop alike, so the
ratio is steady where seconds are not.  The wall times in seconds are in
the report line (``run_wall_s``, ``cold_wall_s``, ``setup_wall_s``).
Workers are pinned to the first CPU the benchmark may use, so the pool's
threads never contend for the interpreter lock across CPUs.

Traced (``--trace 1``), one worker traces its first run and every second
warm run (``spans.py``) and reports the per-layer metrics, medians over
the traced runs, with ``trace_overhead`` (traced over untraced run time)
and ``error_ratio``.

Every operation's outputs are checked against the workload's invariants
and digested; a digest that differs between runs or workers of the same
seed, or between traced and untraced runs, is a failed operation.  The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The run exits 2 without a result when ``src/depthlab`` is missing, and 1
when a worker process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("collapse", "blocks", "certify", "infimum")
END_TO_END = {"run_ref": "ref", "cold_ref": "ref", "setup_s": "s",
              "peak_rss_mb": "MB"}
MIN_FRESH = 2      # set-up-only worker processes per untraced run, at least
FRESH_SHARE = 0.5  # share of --seconds they may take
MIN_WARM = 3       # warm runs per run, at least
# the reference loop's median time on the reference machine (README.md):
# setup_s is the set-up time at the speed where the loop takes this long
NOMINAL_LOOP_S = 0.010
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _python(args: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable] + args, cwd=ROOT, text=True,
                              capture_output=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc


def worker(workload: str, seed: int, workdir: Path, budget: float,
           min_warm: int, cpu: int, trace: bool) -> dict:
    proc = _python([str(BENCH / "worker.py"), "--workload", workload,
                    "--seed", str(seed), "--workdir", str(workdir),
                    "--budget", str(budget), "--min-warm", str(min_warm),
                    "--cpu", str(cpu)] + ["--trace"] * trace)
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workers for one workload; return the result and a report."""
    start = time.monotonic()
    # compile and page in depthlab, numpy and scipy before the timed imports
    warm = _python(["-c", "import sys; sys.path.insert(0, 'src'); "
                          "import depthlab.cli"])
    if warm.returncode != 0:
        raise BenchError(f"cannot import depthlab:\n{warm.stderr}")
    cpu = min(os.sched_getaffinity(0))
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}"
    results = []
    try:
        if not trace:
            # fresh processes that set up and run once: setup_s, cold_ref
            last = 0.0
            while (len(results) < MIN_FRESH or time.monotonic() - start
                   + last <= FRESH_SHARE * seconds):
                t = time.monotonic()
                results.append(worker(workload, seed,
                                      workdir / str(len(results)), 0.0, 0,
                                      cpu, False))
                last = time.monotonic() - t
        # one process for the warm runs; its first run is a cold one too
        budget = max(seconds - (time.monotonic() - start), 0.0)
        results.append(worker(workload, seed, workdir / str(len(results)),
                              budget, MIN_WARM, cpu, trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    first, last = results[0], results[-1]
    for i, r in enumerate(results[1:], start=1):
        for op, digest in r["digests"].items():
            if digest != first["digests"].get(op):
                failed += 1
                failures.append(f"worker {i} {op}: digest differs from "
                                "worker 0")
        if r["stream_fingerprint"] != first["stream_fingerprint"]:
            failures.append(f"worker {i}: sampling stream differs")
            failed += 1

    samples = {
        "run_ref": [t for r in results for t in r["run_ref"]],
        "cold_ref": [r["cold_ref"] for r in results],
        "setup_s": [r["setup_ref"] * NOMINAL_LOOP_S for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "run_wall_s": [t for r in results for t in r["run_s"]],
        "cold_wall_s": [r["cold_s"] for r in results],
        "setup_wall_s": [r["setup_s"] for r in results],
    }
    if trace:
        metrics = dict(last["layers"])
        metrics["error_ratio"] = failed / attempted
        units = {k: spans.unit(k) for k in metrics}
    else:
        metrics = {k: statistics.median(samples[k]) for k in END_TO_END}
        units = END_TO_END
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "commit": git_commit(),
        "cpu": cpu,
        "provenance": first["provenance"],
        "stream_fingerprint": first["stream_fingerprint"],
        "digests": first["digests"],
        "samples": samples,
        "failures": failures,
    }
    if trace:
        report["traced_run_s"] = last["traced_run_s"]
        report["undecided_reasons"] = last["undecided_reasons"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
            "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, both modes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "depthlab" / "__init__.py").is_file():
        print(f"no depthlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload:
        plan = [(args.workload, bool(args.trace))]
    else:
        traces = [False, True] if args.trace is None else [bool(args.trace)]
        plan = [(w, t) for t in traces for w in WORKLOADS]
    try:
        results = {(w, t): measure(w, args.seed, args.seconds, t)
                   for w, t in plan}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for (w, t), res in results.items():
        print(json.dumps(res["report"], sort_keys=True))
        for name, m in res["metrics"].items():
            print(f"{w:9s} {name:36s} {m['value']:14.6g} {m['unit']}")
        for failure in res["report"]["failures"]:
            print(f"{w:9s} FAILED {failure}")
    if args.workload:
        metrics = results[plan[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for (w, _), res in results.items()
                   for k, m in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
