"""The four benchmark workloads: collapse, blocks, certify and infimum.

Each workload is built from the workload seed (``setup``), run end to end
against the public library and ``depthlab.cli.main`` called in-process
(``run``), and checked (``violations``).  A run is a closed loop with one
client: every operation starts after the previous one has returned.

Every call into depthlab goes through a module attribute
(``depthlab.cli.main``, ``depthlab.sample``), never through a name bound at
import time, so that the tracer in ``spans.py`` sees the calls it patches.

An operation is one CLI invocation or, for ``infimum``, one point.  It
fails on an exception, a non-zero exit, a violated invariant or a digest
that differs from the first run of the same seed.  No invariant may be
loosened or re-seeded to make it hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import ndtr

import depthlab
import depthlab.cli

# 1 - Phi(pi/sqrt 6): the true depth of t_k(a) = 1/k under N(0,1) coordinates
INVERSE_K_DEPTH = 1.0 - float(ndtr(math.pi / math.sqrt(6.0)))


@dataclass
class Op:
    """Outcome of one operation: output digest, parsed values, or an error."""

    name: str
    digest: Optional[str] = None
    values: dict = field(default_factory=dict)
    error: Optional[str] = None


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def invoke(name: str, argv: list, out: Path, files: tuple[str, ...]) -> Op:
    """Run ``depth <argv> --out <out>`` in-process and digest the named files.

    The output directory is removed first, so a stale file from an earlier
    run can never stand in for a missing write.
    """
    shutil.rmtree(out, ignore_errors=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = depthlab.cli.main([str(a) for a in argv]
                                   + ["--out", str(out)])
        if rc != 0:
            return Op(name, error=f"exit code {rc}")
        blobs = [(out / f).read_bytes() for f in files]
        return Op(name, _digest(*blobs), json.loads(blobs[0]))
    except Exception as exc:  # boundary: a crash is a failed operation
        return Op(name, error=f"{type(exc).__name__}: {exc}")


def stream_fingerprint() -> str:
    """Digest of one fixed small draw: changes exactly when the sampling
    stream changes, so a declared stream change shows in every report."""
    s = depthlab.sample(depthlab.gaussian_model(), 4, 8, seed=20131001)
    return _digest(s.data.tobytes())[:16]


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# collapse: the empirical-depth consistency failure (criteria 4 and 9)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Collapse:
    """``depth empirical`` at t_k(a) = 1/k on N(0,1)^N, n=2, K=200, 100 seeds.

    Why: the paper's headline experiment, many tiny samples.  Per run it
    draws 20 000 columns, each with its own SeedSequence + Philox set-up
    (``models.sample`` is about three quarters of the time), and builds
    20 000 coordinate directions (``empirical``, about a fifth).
    Predicted unchanged by: analytic, bounds, admissibility changes (they
    run once, for the reference depth).
    """

    name: str = "collapse"
    n: int = 2
    K: int = 200
    seeds: int = 100

    def setup(self, seed: int, workdir: Path) -> dict:
        argv = ["empirical", "--model", "gaussian_unit",
                "--point", "inverse-k", "--n", self.n, "--K", self.K,
                "--seeds", self.seeds, "--seed", seed]
        return {"argv": argv, "out": workdir / "collapse"}

    def run(self, ctx: dict) -> list[Op]:
        return [invoke("empirical", ctx["argv"], ctx["out"],
                       ("summary.json", "empirical.csv"))]

    def violations(self, ctx: dict, ops: list[Op]) -> dict[str, list[str]]:
        s = ops[0].values
        bad = []
        if not s["fraction_zero"] >= 0.99:
            bad.append(f"fraction_zero {s['fraction_zero']} < 0.99")
        if s["consistency_failure"] is not True:
            bad.append("consistency_failure is not true")
        if not abs(s["true_depth_reference"] - INVERSE_K_DEPTH) <= 1e-4:
            bad.append(f"true depth {s['true_depth_reference']} is not "
                       f"1 - Phi(pi/sqrt 6) = {INVERSE_K_DEPTH}")
        return {ops[0].name: bad}


# ---------------------------------------------------------------------------
# blocks: the block simplicial-depth failure (criteria 5 and 9)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Blocks:
    """``depth simplicial`` on uniform(0,1) coordinates at [0.5, 0.5] x 200,
    n=4, d=2, kmax=200, 50 seeds.

    Why: 10 000 ``u_statistic_depth`` calls test 4 subsets each, against
    one 10^5-draw ``simplicial_depth_mc`` batch: the same open-hull test
    run as many tiny batches and as one large batch.  ``simplicial`` and
    ``models.sample`` (20 000 columns) take most of the time.  50 seeds,
    not the 100 of criteria 5 and 9, keep a run near 1.8 s, so that a
    benchmark run holds enough runs for a steady median on a noisy host.
    Predicted unchanged by: empirical, analytic, bounds, admissibility.
    """

    name: str = "blocks"
    n: int = 4
    d: int = 2
    kmax: int = 200
    seeds: int = 50

    def setup(self, seed: int, workdir: Path) -> dict:
        model = _write_json(workdir / "uniform01.json",
                            {"family": "uniform", "lo": 0.0, "hi": 1.0})
        point = _write_json(workdir / "median.json",
                            {"coords": [0.5] * (self.d * self.kmax)})
        argv = ["simplicial", "--model", model, "--point", point,
                "--n", self.n, "--d", self.d, "--kmax", self.kmax,
                "--seeds", self.seeds, "--seed", seed]
        return {"argv": argv, "out": workdir / "blocks"}

    def run(self, ctx: dict) -> list[Op]:
        return [invoke("simplicial", ctx["argv"], ctx["out"],
                       ("summary.json", "simplicial.csv"))]

    def violations(self, ctx: dict, ops: list[Op]) -> dict[str, list[str]]:
        s = ops[0].values
        bad = []
        if not s["fraction_zero"] >= 0.99:
            bad.append(f"fraction_zero {s['fraction_zero']} < 0.99")
        if not s["lambda_hat"] > 0.2:
            bad.append(f"lambda_hat {s['lambda_hat']} <= 0.2")
        if not s["lambda_stderr"] < 0.01:
            bad.append(f"lambda_stderr {s['lambda_stderr']} >= 0.01")
        return {ops[0].name: bad}


# ---------------------------------------------------------------------------
# certify: deterministic certificates through the CLI
# ---------------------------------------------------------------------------

# stable (p = 1.5) depths at the seed commit, from 10^6 cached MC draws
STABLE_SEED_VALUES = {"inverse-k": 0.231168, "inverse-sqrt-k": 0.1772145,
                      "explicit100": 0.231168}
# Gaussian analytic depths at inverse-k, to five decimals
GAUSSIAN_INVERSE_K = {"gaussian_unit": 0.09982, "gaussian_pow": 0.05302}


@dataclass(frozen=True)
class Certify:
    """24 deterministic CLI invocations: {analytic, bounds, admissible} x
    {gaussian_unit, Gaussian with scales k^-1/4, unit 1.5-stable} x
    {inverse-k, inverse-sqrt-k, 100 explicit coordinates 1/k + tail k^-1}.
    ``bounds`` is skipped on the stable model, which has no variance.

    Why: it exercises analytic, bounds, admissibility and the CLI
    parse/load/write path and never calls ``models.sample``, so a sampling
    change must leave it unchanged.  Markov curves and certificates (one
    CoordinateLaw per index) take about half of a pass, 218 Hellinger
    quadratures most of the rest; the first stable-CDF call builds its
    10^6-draw table, which lands in ``cold_ref``.  The workload seed does
    not change its inputs: every invocation is deterministic.
    """

    name: str = "certify"
    depths: str = "4,16,64,1024"
    curve_max: int = 10000

    def setup(self, seed: int, workdir: Path) -> dict:
        models = {
            "gaussian_unit": "gaussian_unit",
            "gaussian_pow": _write_json(workdir / "gaussian_pow.json", {
                "family": "gaussian",
                "scale_rule": {"kind": "power", "coef": 1.0,
                               "exponent": -0.25}}),
            "stable15": _write_json(workdir / "stable15.json",
                                    {"family": "stable", "p": 1.5}),
        }
        points = {
            "inverse-k": "inverse-k",
            "inverse-sqrt-k": "inverse-sqrt-k",
            "explicit100": _write_json(workdir / "explicit100.json", {
                "coords": [1.0 / k for k in range(1, 101)],
                "tail": {"coef": 1.0, "exponent": -1.0}}),
        }
        calls = []
        for m, model in models.items():
            for p, point in points.items():
                base = ["--model", model, "--point", point]
                calls.append(("analytic", m, p, ["analytic"] + base,
                              ("summary.json",)))
                if m != "stable15":
                    calls.append(("bounds", m, p, ["bounds"] + base + [
                        "--depths", self.depths,
                        "--curve-max", self.curve_max],
                        ("summary.json", "markov_curve.csv")))
                calls.append(("admissible", m, p, ["admissible"] + base,
                              ("summary.json",)))
        return {"calls": calls, "out": workdir / "certify"}

    def run(self, ctx: dict) -> list[Op]:
        return [invoke(f"{sub} {m} {p}", argv, ctx["out"] / sub, files)
                for sub, m, p, argv, files in ctx["calls"]]

    def violations(self, ctx: dict, ops: list[Op]) -> dict[str, list[str]]:
        got = {op.name: op.values for op in ops}
        bad: dict[str, list[str]] = {op.name: [] for op in ops}

        def expect(name: str, key: str, want) -> None:
            value = got[name][key]
            if key == "certificates":
                value = value[0]["status"]
            if value != want:
                bad[name].append(f"{key} is {value!r}, not {want!r}")

        for m, value in GAUSSIAN_INVERSE_K.items():
            for p in ("inverse-k", "explicit100"):
                expect(f"admissible {m} {p}", "decision", "POSITIVE")
                expect(f"bounds {m} {p}", "certificates", "NON-VANISHING")
            if round(got[f"analytic {m} inverse-k"]["value"], 5) != value:
                bad[f"analytic {m} inverse-k"].append(f"value is not {value}")
            expect(f"analytic {m} inverse-sqrt-k", "value", 0.0)
            expect(f"analytic {m} inverse-sqrt-k", "zero_certified", True)
            expect(f"admissible {m} inverse-sqrt-k", "decision", "ZERO")
            expect(f"bounds {m} inverse-sqrt-k", "certificates", "VANISHING")
        for p, seed_value in STABLE_SEED_VALUES.items():
            expect(f"admissible stable15 {p}", "decision", "UNDECIDED")
            rep = got[f"analytic stable15 {p}"]
            tol = 3.0 * rep["certificate"]["detail"]["cdf_stderr"] + 1e-3
            if not abs(rep["value"] - seed_value) <= tol:
                bad[f"analytic stable15 {p}"].append(
                    f"value {rep['value']} is not within {tol:.2e} of "
                    f"{seed_value}")
        for m in ("gaussian_unit", "gaussian_pow", "stable15"):
            explicit = got[f"analytic {m} explicit100"]["value"]
            preset = got[f"analytic {m} inverse-k"]["value"]
            if not abs(explicit - preset) <= 1e-12:
                bad[f"analytic {m} explicit100"].append(
                    f"value {explicit} differs from inverse-k {preset}")
        return bad


# ---------------------------------------------------------------------------
# infimum: the criterion-1 shape through the library
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Infimum:
    """Three points on N(0,1)^6: one ``sample(., 10^5, 6)`` each, then the
    empirical depth over ``random_sparse(500, 3)`` and over the explicit
    optimal direction, checked against 1 - Phi(|a|).

    Why: one tall sample and many directions, so projection dominates and
    sampling is about 4% -- the opposite shape to ``collapse`` (few rows,
    many coordinate directions, early exit).  A change to the direction
    representation that helps one shape and costs the other shows here.
    Predicted unchanged by: simplicial, analytic, bounds, admissibility,
    cli.
    """

    name: str = "infimum"
    points: int = 3
    n: int = 10 ** 5
    width: int = 6
    directions: int = 500
    support: int = 3

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng([seed, 0x1F])
        model = depthlab.gaussian_model()
        cases = []
        for i in range(self.points):
            coords = rng.standard_normal(self.width)
            coords *= rng.uniform(0.3, 1.5) / np.linalg.norm(coords)
            sample_seed, family_seed = (int(v) for v in
                                        rng.integers(2 ** 32, size=2))
            optimal = depthlab.Direction(tuple(range(1, self.width + 1)),
                                         tuple(coords))
            cases.append({
                "name": f"point{i}",
                "point": depthlab.Point(tuple(coords)),
                "closed": 1.0 - float(ndtr(np.linalg.norm(coords))),
                "seed": sample_seed,
                "random": depthlab.DirectionFamily.random_sparse(
                    self.directions, self.support, seed=family_seed),
                "optimal": depthlab.DirectionFamily.explicit([optimal]),
            })
        return {"model": model, "cases": cases}

    def run(self, ctx: dict) -> list[Op]:
        return [self._one(ctx["model"], case) for case in ctx["cases"]]

    def _one(self, model, case: dict) -> Op:
        try:
            s = depthlab.sample(model, self.n, self.width, case["seed"])
            mc, argmin = depthlab.empirical_half_space_depth(
                case["point"], s, case["random"])
            opt, _ = depthlab.empirical_half_space_depth(
                case["point"], s, case["optimal"])
        except Exception as exc:  # boundary: a crash is a failed operation
            return Op(case["name"], error=f"{type(exc).__name__}: {exc}")
        record = repr((mc, argmin.support, argmin.coeffs, opt)).encode()
        return Op(case["name"], _digest(s.data.tobytes(), record),
                  {"mc": mc, "opt": opt, "closed": case["closed"]})

    def violations(self, ctx: dict, ops: list[Op]) -> dict[str, list[str]]:
        bad = {}
        for op in ops:
            v = op.values
            excess = v["closed"] - v["mc"]
            gap = abs(min(v["mc"], v["opt"]) - v["closed"])
            bad[op.name] = []
            if not excess <= 0.005:
                bad[op.name].append(f"excess {excess:.4f} > 0.005")
            if not gap <= 0.01:
                bad[op.name].append(f"gap {gap:.4f} > 0.01")
        return bad


WORKLOADS = {w.name: w for w in (Collapse(), Blocks(), Certify(), Infimum())}
