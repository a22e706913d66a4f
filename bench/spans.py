"""Spans and counters around depthlab's public entry points, recorded from
the benchmark's own files.

``Tracer.installed()`` replaces each entry point in ``ENTRY_POINTS`` by a
timing wrapper under every name a caller looks it up by: the defining
module, the package, and each module that imported it by name (for
example ``depthlab.bounds.series_report``).  Names resolved at call time,
such as the local ``from .models import sample`` in ``simplicial``, see
the patched module attribute.  Leaving the context restores the originals.

A span's self time is its duration minus the spans it called on the same
thread.  The ``_parallel`` pool runs seeds on worker threads, so a seed's
spans start with an empty stack and the caller's wait shows as
``pool.map`` self time; worker-thread self times include waits for the
interpreter lock.  Counts come from each call's returned value (and, for
``cli.write``, from the files it wrote).
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

UNDECIDED = "UNDECIDED"


def _draws(result, args, kwargs) -> dict:
    return {"draws": kwargs["draws"] if "draws" in kwargs else args[2]}


def _written_bytes(result, args, kwargs) -> dict:
    outdir = Path(kwargs["outdir"] if "outdir" in kwargs else args[0])
    return {"bytes": sum(p.stat().st_size for p in outdir.iterdir()
                         if p.is_file())}


def _decision(result, args, kwargs) -> dict:
    if result.decision == UNDECIDED:
        return {"undecided": 1, "reason": result.reason}
    return {"undecided": 0}


# (span name, defining module, attribute, counter on the returned value)
ENTRY_POINTS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("models.sample", "depthlab.models", "sample",
     lambda r, a, k: {"columns": r.K}),
    ("models.project", "depthlab.models", "project_sample", None),
    ("empirical.depth", "depthlab.empirical", "empirical_half_space_depth",
     None),
    ("empirical.materialize", "depthlab.empirical",
     "DirectionFamily.materialize", lambda r, a, k: {"directions": len(r)}),
    ("simplicial.experiment", "depthlab.simplicial", "block_depth_experiment",
     None),
    ("simplicial.block_depth", "depthlab.simplicial", "empirical_block_depth",
     None),
    ("simplicial.ustat", "depthlab.simplicial", "u_statistic_depth",
     lambda r, a, k: {"hull_tests": r.n_subsets, "degenerate": r.degenerate}),
    ("simplicial.mc", "depthlab.simplicial", "simplicial_depth_mc", _draws),
    ("analytic.stable_cdf", "depthlab.analytic", "stable_cdf",
     lambda r, a, k: {"stderr_max": r[1]}),
    ("analytic.series", "depthlab.analytic", "series_report", None),
    ("analytic.depth", "depthlab.analytic", "gaussian_sequence_depth", None),
    ("analytic.depth", "depthlab.analytic", "stable_depth", None),
    ("bounds.curve", "depthlab.bounds", "markov_bound_curve",
     lambda r, a, k: {"points": len(r)}),
    ("bounds.cert", "depthlab.bounds", "markov_zero_certificate",
     lambda r, a, k: {"witness_terms": sum(len(w.support)
                                           for w in r.witnesses)}),
    ("admissibility.decision", "depthlab.admissibility",
     "positivity_decision", _decision),
    ("admissibility.hellinger", "depthlab.admissibility",
     "hellinger_affinity", None),
    ("admissibility.kakutani", "depthlab.admissibility", "kakutani_product",
     None),
    ("admissibility.fisher", "depthlab.admissibility", "fisher_information",
     None),
    ("cli.parse", "depthlab.cli", "build_parser", None),
    ("cli.load", "depthlab.cli", "load_model", None),
    ("cli.load", "depthlab.cli", "load_point", None),
    ("cli.write", "depthlab.cli", "write_outputs", _written_bytes),
    ("cli.command", "depthlab.cli", "main", None),
    ("cli.command", "depthlab.cli", "cmd_analytic", None),
    ("cli.command", "depthlab.cli", "cmd_bounds", None),
    ("cli.command", "depthlab.cli", "cmd_admissible", None),
    ("cli.command", "depthlab.cli", "cmd_empirical", None),
    ("cli.command", "depthlab.cli", "cmd_simplicial", None),
    ("pool.map", "depthlab._parallel", "ordered_map", None),
]

# groups of spans whose share of the traced busy time is reported
SHARES = ("models.sample", "models.project", "empirical", "simplicial",
          "analytic", "bounds", "admissibility", "cli")


class Tracer:
    """Collects closed spans as (name, duration, self time, counts)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, Optional[dict]]] = []
        self.first: dict[str, float] = {}
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        spans, local, first = self.spans, self._local, self.first

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            children = [0.0]
            stack.append(children)
            counts = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(result, args, kwargs)
                return result
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                first.setdefault(name, duration)
                spans.append((name, duration, duration - children[0], counts))

        traced.__wrapped__ = fn
        return traced

    def _build_parser(self, original: Callable) -> Callable:
        """``cli.parse`` covers building the parser and parsing argv."""

        def build_parser():
            parser = original()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return self.wrap("cli.parse", build_parser)

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block.

        An entry point the package no longer has is skipped, and its
        metrics read 0, so that a refactor that deletes one (such as the
        ``_parallel`` pool) is measured rather than breaking the run.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "depthlab" or n.startswith("depthlab.")]
        patches = []  # (owner, attribute, original)
        for name, module, attr, count in ENTRY_POINTS:
            owner = sys.modules.get(module)
            owners = modules
            if "." in attr:  # a method: patch the class only
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
                owners = [owner]
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if attr == "build_parser":
                wrapper = self._build_parser(original)
            else:
                wrapper = self.wrap(name, original, count)
            for o in owners:
                if vars(o).get(attr) is original:
                    patches.append((o, attr, original))
                    setattr(o, attr, wrapper)
        try:
            yield self
        finally:
            for o, attr, original in reversed(patches):
                setattr(o, attr, original)

    def take(self) -> list:
        """Spans closed since the last take, removed from the tracer."""
        taken = list(self.spans)
        del self.spans[:len(taken)]
        return taken


def aggregate(spans: list) -> tuple[dict, dict, dict, set]:
    """Per-name calls, self time and summed counts, plus UNDECIDED reasons."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    reasons: set[str] = set()
    for name, _, self_time, c in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_time
        for key, value in (c or {}).items():
            full = f"{name}.{key}"
            if key == "reason":
                reasons.add(value)
            elif key.endswith("_max"):
                counts[full] = max(counts.get(full, 0.0), value)
            else:
                counts[full] = counts.get(full, 0) + value
    return calls, self_s, counts, reasons


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list, first: dict, workers: int) -> dict[str, float]:
    """The per-layer metrics of one traced run (units from ``unit``)."""
    calls, self_s, counts, _ = aggregate(spans)
    c = lambda name: calls.get(name, 0)
    s = lambda name: self_s.get(name, 0.0)
    n = lambda key: counts.get(key, 0)
    busy = sum(v for k, v in self_s.items() if not k.startswith("pool."))
    m = {
        "models.sample.calls": c("models.sample"),
        "models.sample.columns": n("models.sample.columns"),
        "models.sample.self_s": s("models.sample"),
        "models.sample.us_per_column": _per(s("models.sample"),
                                            n("models.sample.columns"), 1e6),
        "models.project.calls": c("models.project"),
        "models.project.self_s": s("models.project"),
        "empirical.depth.calls": c("empirical.depth"),
        "empirical.depth.self_s": s("empirical.depth")
        + s("empirical.materialize"),
        "empirical.directions_materialized":
            n("empirical.materialize.directions"),
        "empirical.eval_ratio": _per(c("models.project"),
                                     n("empirical.materialize.directions")),
        "simplicial.experiment.self_s": s("simplicial.experiment"),
        "simplicial.block_depth.calls": c("simplicial.block_depth"),
        "simplicial.block_depth.self_s": s("simplicial.block_depth"),
        "simplicial.ustat.calls": c("simplicial.ustat"),
        "simplicial.ustat.self_s": s("simplicial.ustat"),
        "simplicial.hull_tests": n("simplicial.ustat.hull_tests"),
        "simplicial.hull_tests_per_s": _per(n("simplicial.ustat.hull_tests"),
                                            s("simplicial.ustat")),
        "simplicial.degenerate": n("simplicial.ustat.degenerate"),
        "simplicial.mc.draws": n("simplicial.mc.draws"),
        "simplicial.mc.self_s": s("simplicial.mc"),
        "analytic.stable_cdf.calls": c("analytic.stable_cdf"),
        "analytic.stable_cdf.first_s": first.get("analytic.stable_cdf", 0.0),
        "analytic.stable_cdf.self_s": s("analytic.stable_cdf"),
        "analytic.stable_cdf.max_stderr": n("analytic.stable_cdf.stderr_max"),
        "analytic.series.calls": c("analytic.series"),
        "analytic.series.self_s": s("analytic.series"),
        "analytic.depth.self_s": s("analytic.depth"),
        "bounds.curve.points": n("bounds.curve.points"),
        "bounds.curve.self_s": s("bounds.curve"),
        "bounds.curve.us_per_point": _per(s("bounds.curve"),
                                          n("bounds.curve.points"), 1e6),
        "bounds.cert.calls": c("bounds.cert"),
        "bounds.cert.witness_terms": n("bounds.cert.witness_terms"),
        "bounds.cert.self_s": s("bounds.cert"),
        "admissibility.decision.calls": c("admissibility.decision"),
        "admissibility.decision.self_s": s("admissibility.decision"),
        "admissibility.undecided": n("admissibility.decision.undecided"),
        "admissibility.hellinger.calls": c("admissibility.hellinger"),
        "admissibility.hellinger.self_s": s("admissibility.hellinger"),
        "admissibility.kakutani.self_s": s("admissibility.kakutani"),
        "admissibility.fisher.calls": c("admissibility.fisher"),
        "admissibility.fisher.self_s": s("admissibility.fisher"),
        "cli.parse.self_s": s("cli.parse"),
        "cli.load.self_s": s("cli.load"),
        "cli.write.self_s": s("cli.write"),
        "cli.write.bytes": n("cli.write.bytes"),
        "cli.command.self_s": s("cli.command"),
        "pool.map.calls": c("pool.map"),
        "pool.map.self_s": s("pool.map"),
        "pool.workers": workers,
    }
    for group in SHARES:
        group_self = sum(v for k, v in self_s.items()
                         if k == group or k.startswith(group + "."))
        m[f"share.{group}"] = _per(group_self, busy)
    return m


def median_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-metric median over the traced runs."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def unit(metric: str) -> str:
    if metric.endswith(("us_per_column", "us_per_point")):
        return "us"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.startswith("share.") or metric.endswith(
            ("_ratio", "max_stderr", "trace_overhead")):
        return "ratio"
    return "count"
