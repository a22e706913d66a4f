"""Measure one workload in a fresh Python process.

Started by ``run.py``, never by hand:

    python3 bench/worker.py --workload NAME --seed N --workdir DIR \
        --budget SECONDS --min-warm COUNT --cpu CPU [--trace]

It first pins itself to ``--cpu``.  It times the import of ``depthlab``
and ``depthlab.cli`` plus the workload's set-up (``setup_s``) and the
first run (``cold_s``), then makes warm runs while another one fits in
``--budget`` seconds from its start, and at least ``--min-warm`` of
them.  The set-up and each run are also divided by the mean time of a
fixed pure-Python loop timed just before and just after them
(``setup_ref``, ``cold_ref``, ``run_ref``).
With ``--trace`` the first run and every second warm run are traced, and
at least one of each kind is made.  It prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS", "DEPTHLAB_THREADS")


class Checker:
    """Counts operations and failures; the first run's digests are the
    reference every later run of the same seed must match."""

    def __init__(self, workload, ctx):
        self.workload, self.ctx = workload, ctx
        self.reference: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def account(self, ops, label: str) -> None:
        problems = {op.name: [op.error] if op.error else [] for op in ops}
        if not any(problems.values()):
            try:
                found = self.workload.violations(self.ctx, ops)
            except (KeyError, IndexError, TypeError) as exc:
                found = {op.name: [f"unreadable output: {exc!r}"]
                         for op in ops}
            for name, bad in found.items():
                problems[name] += bad
        for op in ops:
            ref = self.reference.setdefault(op.name, op.digest)
            if op.digest is not None and op.digest != ref:
                problems[op.name].append(
                    f"{label} digest differs from the first run")
        self.attempted += len(ops)
        for name, bad in problems.items():
            if bad:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{label} {name}: {'; '.join(bad)}")


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop of about 10 ms.  It never calls
    depthlab, so only the machine moves it: it says how fast this CPU runs
    interpreted code at this moment."""
    t = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t


def pool_workers() -> int:
    """Threads that run experiment seeds: 1 once the pool is gone."""
    pool = sys.modules.get("depthlab._parallel")
    return pool.worker_count() if pool else 1


def provenance(depthlab) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "depthlab": depthlab.__version__,
        "worker_count": pool_workers(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--min-warm", type=int, default=0)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # before numpy is imported, so its thread pools see one CPU
    os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, str(ROOT / "src"))
    before = reference_s()
    t0 = time.perf_counter()
    import depthlab
    import depthlab.cli
    import_s = time.perf_counter() - t0
    if Path(depthlab.__file__).resolve().parent != ROOT / "src" / "depthlab":
        print(f"depthlab imported from {depthlab.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2

    import spans
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    ctx = workload.setup(args.seed, args.workdir)
    build_s = time.perf_counter() - t0
    setup_s = import_s + build_s
    setup_ref = setup_s / ((before + reference_s()) / 2.0)

    checker = Checker(workload, ctx)
    tracer = spans.Tracer() if args.trace else None

    def timed(traced: bool):
        """Run once; return the ops, the wall time, that time over the
        reference loop's (timed just before and after) and the spans."""
        before = reference_s()
        taken = None
        if traced:
            tracer.take()
            with tracer.installed():
                t = time.perf_counter()
                ops = workload.run(ctx)
                elapsed = time.perf_counter() - t
            taken = tracer.take()
        else:
            t = time.perf_counter()
            ops = workload.run(ctx)
            elapsed = time.perf_counter() - t
        ref = (before + reference_s()) / 2.0
        return ops, elapsed, elapsed / ref, taken

    ops, cold_s, cold_ref, _ = timed(args.trace)
    checker.account(ops, "cold")
    warm: list[float] = []
    warm_ref: list[float] = []
    traced_runs: list[float] = []
    layer_runs: list[dict] = []
    reasons: set[str] = set()
    i = 0
    last = cold_s
    while (len(warm) < args.min_warm or (args.trace and not traced_runs)
           or time.perf_counter() - start + last < args.budget):
        traced = args.trace and i % 2 == 1
        ops, elapsed, rel, taken = timed(traced)
        checker.account(ops, "traced" if traced else "warm")
        if traced:
            traced_runs.append(elapsed)
            layer_runs.append(spans.layer_metrics(
                taken, tracer.first, pool_workers()))
            reasons |= spans.aggregate(taken)[3]
        else:
            warm.append(elapsed)
            warm_ref.append(rel)
        last = elapsed
        i += 1

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        "cold_s": cold_s,
        "cold_ref": cold_ref,
        "run_s": warm,
        "run_ref": warm_ref,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "digests": checker.reference,
        "stream_fingerprint": workloads.stream_fingerprint(),
        "provenance": provenance(depthlab),
    }
    if args.trace:
        layers = spans.median_metrics(layer_runs)
        layers["trace_overhead"] = (statistics.median(traced_runs)
                                    / statistics.median(warm))
        result.update(traced_run_s=traced_runs, layers=layers,
                      undecided_reasons=sorted(reasons))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
