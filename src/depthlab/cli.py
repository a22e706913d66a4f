"""Single executable exposing the depth computations and experiments.

Subcommands: analytic, bounds, admissible, empirical, simplicial, plotdata.
Every run resolves its configuration (a JSON document merged with CLI
flags, flags winning), echoes the resolved config into the output
directory for provenance, and writes machine-readable JSON/CSV artifacts.
All randomness flows from one mandatory master seed; reruns of the same
config reproduce outputs byte for byte.  The CSV dialect is part of that
contract: the bytes of ``csv.writer``'s default dialect (comma separators,
CRLF line ends, ints as ``str``, floats as ``repr``, an empty string as an
empty field).  Each subcommand hands ``write_table`` its table as numpy
columns and one ``%`` row format, and ``write_table`` formats and writes
the rows a batch at a time.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import admissibility, analytic, bounds, empirical, simplicial
from .errors import DepthLabError
from .models import (
    STREAM_VERSION,
    Point,
    PowerTail,
    SequenceModel,
    gaussian_model,
    rademacher_model,
    stable_model,
    uniform_model,
)


class ConfigError(Exception):
    pass


# preset name -> constructor
MODEL_PRESETS = {"gaussian_unit": gaussian_model,
                 "rademacher": rademacher_model,
                 "cauchy_unit": lambda: stable_model(1.0),
                 "uniform_unit": lambda: uniform_model(-1.0, 1.0)}
POINT_PRESETS = {"zero": Point.zero, "inverse-k": lambda: Point.inverse_k(1.0),
                 "inverse-sqrt-k": lambda: Point.inverse_k(0.5)}
ASSUMPTIONS = (admissibility.AI_AII, admissibility.AIII)


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------

def load_model(spec: str) -> SequenceModel:
    if isinstance(spec, str) and spec in MODEL_PRESETS:
        return MODEL_PRESETS[spec]()
    path = _spec_file("model", spec, MODEL_PRESETS)
    try:
        doc = json.loads(path.read_text())
        return model_from_document(doc)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model file {spec}: {_reason(exc)}") from exc


def model_from_document(doc: dict) -> SequenceModel:
    family = doc["family"]
    K = doc.get("K")
    if K is not None:
        K = _int_in_range("K", K, 1)
    if family in ("rademacher", "uniform") and "scale_rule" in doc:
        raise ConfigError(f"a {family} model takes no scale_rule")
    if family == "rademacher":
        return rademacher_model(K)
    if family == "uniform":
        return uniform_model(_number("lo", doc.get("lo", -1.0)),
                             _number("hi", doc.get("hi", 1.0)), K)
    rule = doc.get("scale_rule", {"kind": "constant", "value": 1.0})
    if not isinstance(rule, dict):
        raise ConfigError("scale_rule must be a JSON object")
    kind = rule.get("kind", "constant")
    if kind == "explicit":
        scales = _numbers("values", rule["values"])
        tail = None
    elif kind == "constant":
        value = _number("value", rule["value"])
        scales = None if K is None else [value] * K
        tail = PowerTail(value, 0.0)
    elif kind == "power":
        tail = PowerTail(_number("coef", rule["coef"]),
                         _number("exponent", rule["exponent"]))
        scales = (None if K is None
                  else tail.values(np.arange(1, K + 1)).tolist())
    else:
        raise ConfigError(f"unknown scale rule kind {kind!r}")
    if family == "gaussian":
        return gaussian_model(scales, tail)
    if family == "stable":
        return stable_model(_number("p", doc["p"]), scales, tail)
    raise ConfigError(f"unknown model family {family!r}")


def load_point(spec: str) -> Point:
    if isinstance(spec, str) and spec in POINT_PRESETS:
        return POINT_PRESETS[spec]()
    path = _spec_file("point", spec, POINT_PRESETS)
    try:
        if path.suffix.lower() == ".json":
            return _point_from_document(json.loads(path.read_text()))
        return _point_from_csv(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid point file {spec}: {_reason(exc)}") from exc


def _spec_file(kind: str, spec, presets) -> Path:
    """The existing file that a model or point spec, not a preset, names."""
    if not isinstance(spec, str):
        raise ConfigError(f"{kind} spec must be a string, not {spec!r}")
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"{kind} spec {spec!r} is neither a preset "
                          f"({', '.join(presets)}) nor a file")
    return path


def _reason(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _number(name: str, value) -> float:
    """A document's JSON number as a float; a boolean, a string or any
    other value is an error, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of range, got {value!r}") from None


def _numbers(name: str, value) -> list[float]:
    """A document's JSON array of numbers as floats."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array, got {value!r}")
    return [_number(name, v) for v in value]


def _point_from_document(doc) -> Point:
    if not isinstance(doc, dict):
        raise ValueError("a point document must be a JSON object")
    tail = doc.get("tail")
    return Point(tuple(_numbers("coords", doc.get("coords", []))),
                 tail=None if tail is None else
                 PowerTail(_number("coef", tail["coef"]),
                           _number("exponent", tail["exponent"])))


def _point_from_csv(path: Path) -> Point:
    coords: dict[int, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["k", "value"]:
            raise ConfigError(f"point CSV {path} must have header k,value")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"row {row} needs a k and a value")
            k = int(row[0])
            if k < 1:
                raise ValueError(f"coordinate index k={k} must be >= 1")
            if k in coords:
                raise ValueError(f"coordinate index k={k} repeats")
            coords[k] = float(row[1])
    if not coords:
        return Point.zero()
    width = max(coords)
    return Point(tuple(coords.get(k, 0.0) for k in range(1, width + 1)))


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

# least admissible value of every integer setting, checked once the config
# file and the flags are merged
_LEAST = {"n": 1, "K": 1, "seeds": 1, "d": 1, "kmax": 1, "mc_draws": 1,
          "budget": 1, "curve_max": 1, "seed": 0}
# greatest admissible value of the settings that have one.  A master seed
# is one 64-bit Philox key word.  Each size sets the length of an array,
# which far past its limit cannot be allocated: at the limit of n, K or
# curve_max one run peaked under 700 MB, and at a depth of 10**6 (which also
# sets a witness's length) under 400 MB.
_MOST = {"seed": 2 ** 64 - 1, "n": 10 ** 7, "K": 10 ** 7, "seeds": 10 ** 7,
         "kmax": 10 ** 7, "curve_max": 10 ** 7, "depths": 10 ** 6}


def _int_in_range(name: str, value, least: int) -> int:
    """``value`` as an int >= least and, where ``_MOST`` names a limit,
    <= that limit.  A boolean or a number with a fractional part is an
    error, not truncated: the echoed config would hold another value than
    the run used."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    if number > _MOST.get(name, number):
        raise ConfigError(f"{name} must be <= {_MOST[name]}, got {value!r}")
    return number


def _positive_float(name: str, value) -> float:
    """``value`` as a finite float > 0; a boolean is an error."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (math.isfinite(number) and number > 0.0):
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
    return number


def resolve_config(args: argparse.Namespace, stochastic: bool) -> dict:
    """File config overlaid by CLI flags; a master seed is mandatory for
    stochastic runs."""
    cfg: dict = {}
    if getattr(args, "config", None):
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        cfg.update(doc)
    for key, value in vars(args).items():
        if key in ("config", "func") or value is None:
            continue
        cfg[key] = value
    cfg.pop("command", None)
    if stochastic and cfg.get("seed") is None:
        raise ConfigError("a master --seed is mandatory for stochastic runs")
    if "out" not in cfg:
        raise ConfigError("--out directory is required")
    if not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a path, got {cfg['out']!r}")
    # checked before the run: the outputs are written after it
    out = Path(cfg["out"])
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out {cfg['out']} is not a directory: "
                                  f"{path} is a file")
            break
    for key, least in _LEAST.items():
        if cfg.get(key) is not None:
            _int_in_range(key, cfg[key], least)
    if stochastic:
        # an echoed config reproduces its run only on the stream it used
        version = cfg.setdefault("stream_version", STREAM_VERSION)
        if version != STREAM_VERSION:
            raise ConfigError(f"config was drawn with sampling stream "
                              f"{version!r}; this build draws stream "
                              f"{STREAM_VERSION}")
    return cfg


def _depths(value) -> list[int]:
    """Witness depths from a comma list or a JSON list, each >= 1."""
    entries = value if isinstance(value, list) else str(value).split(",")
    if not entries:
        raise ConfigError("depths must name at least one depth")
    return [_int_in_range("depths", m, 1) for m in entries]


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")


# rows formatted and written per ``write`` call: bounds the text held at once
TABLE_BATCH = 1024


def write_table(path, header: Sequence[str], row_format: str,
                columns: Sequence[np.ndarray]) -> None:
    """Write a CSV table from equal-length numpy columns, ``TABLE_BATCH``
    rows at a time.

    ``row_format`` is one row without its line end, with one ``%``
    conversion per column: ``%d`` for an integer dtype (it would truncate
    a float), ``%r`` for floats and ``%s`` for text.  Each batch converts
    its column slices with ``.tolist()``, so no numpy scalar reaches the
    format (``%r`` of one is not a float's repr), and is formatted with
    one ``%`` and written before the next: one batch's text is held at a
    time.  The
    bytes are those of ``csv.writer``'s default dialect for the fields the
    package writes: comma separators, ``\\r\\n`` line ends, ints as
    ``str``, floats as ``repr`` and an empty string as an empty field; no
    field needs quoting.
    """
    line, width = row_format + "\r\n", len(columns)
    total = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, total, TABLE_BATCH):
            rows = min(TABLE_BATCH, total - lo)
            cells = [None] * (rows * width)
            for i, column in enumerate(columns):
                cells[i::width] = column[lo:lo + rows].tolist()
            fh.write(line * rows % tuple(cells))


def _echo_config(outdir: Path, cfg: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def write_outputs(outdir: Path, cfg: dict, summary: dict,
                  table: tuple | None = None) -> str:
    """Write config.json, summary.json and the optional CSV table, given
    as (file name, header, row format, columns) for ``write_table``;
    returns the summary's JSON text, which the subcommand also prints."""
    _echo_config(outdir, cfg)
    # no NaN or Infinity token, which is not JSON: _json_num spells them
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    (outdir / "summary.json").write_text(text + "\n")
    if table is not None:
        name, *spec = table
        write_table(outdir / name, *spec)
    return text


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_analytic(args) -> int:
    cfg = resolve_config(args, stochastic=False)
    _require(cfg, "model", "point")
    model = load_model(cfg["model"])
    point = load_point(cfg["point"])
    fams = model.families()
    if fams == {"rademacher"}:
        cls = analytic.rademacher_classify(point)
        summary = {
            "classification": cls.label, "reason": cls.reason,
            "series": _json_num(cls.series), "sup": _json_num(cls.sup),
        }
    else:
        if fams == {"gaussian"}:
            report = analytic.gaussian_sequence_depth(point, model)
            # a divergence certificate has no norm, and "inf" as its series
            norms = {"cameron_martin":
                     report.certificate.detail.get("cm_norm", math.inf)}
        elif fams == {"stable"}:
            report = analytic.stable_depth(point, model)
            norms = {"dual": report.certificate.detail["norm"]}
        else:
            raise ConfigError(
                f"no closed form for model families {sorted(fams)}")
        detail = report.certificate.detail
        summary = {
            "value": report.value,
            "zero_certified": report.zero_certified,
            "certificate": {"kind": report.certificate.kind,
                            "detail": _json_dict(detail)},
            "series": _json_num(detail.get("series")),
            "norms": _json_dict(norms),
        }
    print(write_outputs(Path(cfg["out"]), cfg, summary))
    return 0


def cmd_bounds(args) -> int:
    cfg = resolve_config(args, stochastic=False)
    _require(cfg, "model", "point")
    model = load_model(cfg["model"])
    point = load_point(cfg["point"])
    depths = _depths(cfg.get("depths", "4,16,64"))
    tail_c = _positive_float("tail_c", cfg.get("tail_c", 1.0))
    tail_t0 = _positive_float("tail_t0", cfg.get("tail_t0", 1.0))
    curve_max = int(cfg.get("curve_max", max(depths)))
    cfg["depths"] = ",".join(str(m) for m in depths)
    cfg["curve_max"] = curve_max
    cert = bounds.markov_zero_certificate(point, model, depths)
    curve = bounds.markov_bound_curve(point, model, curve_max)
    lower: list[dict] = []
    rep = cert.series
    if rep.finite and rep.value < 1.0:
        c = bounds.kurtosis_bound(model)
        # capped below 1, where a tiny series would round it
        delta = min(1.0 - math.sqrt(rep.value), 1.0 - 1e-12)
        lower.append({"kind": "PZ", "value": bounds.pz_lower_bound(delta, c),
                      "params": {"delta": delta, "c": c}})
    if model.families() == {"rademacher"}:
        small = bounds.small_point_lower_bound(point)
        if small is not None:
            lower.append({"kind": small.kind, "value": small.value,
                          "params": _json_dict(small.params)})
        tail = bounds.rademacher_tail_lower_bound(point, tail_c, tail_t0)
        if tail is not None:
            lower.append({"kind": tail.kind, "value": tail.value,
                          "params": _json_dict(tail.params),
                          "suspect": tail.suspect})
    summary = {
        "certificates": [{
            "depths": list(cert.depths),
            "bound_values": [_json_num(b) for b in cert.bound_values],
            "status": cert.status,
            "witnesses": [w.to_dict() for w in cert.witnesses],
        }],
        "lower_bounds": lower,
        "series": _json_num(rep.value),
    }
    finite = np.flatnonzero(np.isfinite(curve))
    print(write_outputs(Path(cfg["out"]), cfg, summary,
                        ("markov_curve.csv", ["m", "B_m"], "%d,%r",
                         (finite + 1, curve[finite]))))
    return 0


def cmd_admissible(args) -> int:
    cfg = resolve_config(args, stochastic=False)
    _require(cfg, "model", "point")
    model = load_model(cfg["model"])
    point = load_point(cfg["point"])
    cfg["assumptions"] = cfg.get("assumptions", admissibility.AIII)
    if cfg["assumptions"] not in ASSUMPTIONS:
        raise ConfigError(f"assumptions must be one of {', '.join(ASSUMPTIONS)}"
                          f", got {cfg['assumptions']!r}")
    decision = admissibility.positivity_decision(
        point, model, assumptions=cfg["assumptions"])
    summary = {"decision": decision.decision, "reason": decision.reason}
    if decision.verdict is not None:
        summary["verdict"] = decision.verdict.to_dict()
    print(write_outputs(Path(cfg["out"]), cfg, summary))
    return 0


def cmd_empirical(args) -> int:
    cfg = resolve_config(args, stochastic=True)
    _require(cfg, "model", "point", "n", "K", "seeds")
    model = load_model(cfg["model"])
    point = load_point(cfg["point"])
    family = str(cfg.get("family", "coordinates"))
    cfg["family"] = family
    if family != "coordinates":
        raise ConfigError("the CLI exposes the coordinate family; other "
                          "families are available through the library API")
    result = empirical.zero_depth_experiment(
        model, point, n=int(cfg["n"]), K=int(cfg["K"]),
        seeds=int(cfg["seeds"]), master_seed=int(cfg["seed"]))
    summary = {
        "fraction_zero": result.fraction_zero,
        "fraction_zero_stderr": result.fraction_zero_stderr,
        "mean_depth": result.mean_depth,
        "true_depth_reference": _json_num(result.true_depth_reference),
        "analytic_floor": _json_num(result.analytic_floor),
        "consistency_failure": result.consistency_failure,
        "ratio_vanishes": result.ratio_vanishes,
        "family": result.family,
        "n": result.n, "K": result.K, "seeds": int(cfg["seeds"]),
    }
    depths = result.counts / result.n
    print(write_outputs(Path(cfg["out"]), cfg, summary,
                        ("empirical.csv",
                         ["seed", "n", "K", "empirical_depth", "zero_hit"],
                         f"%d,{result.n},{result.K},%r,%d",
                         (result.seeds, depths, depths == 0.0))))
    return 0


def cmd_simplicial(args) -> int:
    cfg = resolve_config(args, stochastic=True)
    _require(cfg, "model", "point", "n", "d", "kmax", "seeds")
    if int(cfg["n"]) < int(cfg["d"]) + 1:
        raise ConfigError(f"n must be >= d+1 = {int(cfg['d']) + 1}, "
                          f"got {cfg['n']!r}")
    model = load_model(cfg["model"])
    point = load_point(cfg["point"])
    try:
        simplicial.require_iid_continuous(model)
        simplicial.periodic_block_target(point, int(cfg["d"]), int(cfg["kmax"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg["mc_draws"] = int(cfg.get("mc_draws", 10 ** 5))
    cfg["budget"] = int(cfg.get("budget", simplicial.DEFAULT_BUDGET))
    result = simplicial.block_depth_experiment(
        model, point, n=int(cfg["n"]), d=int(cfg["d"]),
        k_max=int(cfg["kmax"]), seeds=int(cfg["seeds"]),
        master_seed=int(cfg["seed"]),
        mc_draws=cfg["mc_draws"], budget=cfg["budget"])
    summary = {
        "fraction_zero": result.fraction_zero,
        "fraction_zero_stderr": result.fraction_zero_stderr,
        "lambda_hat": result.lambda_hat,
        "lambda_stderr": result.lambda_stderr,
        "gap": result.gap,
        "n": result.n, "d": result.d, "k_max": result.k_max,
    }
    # each seed's and each k's field, and each distinct count's Z,N,ratio
    # fields, are formatted once
    N, (seeds, kmax) = result.n_subsets, result.block_counts.shape
    counts, slot = np.unique(result.block_counts.ravel(), return_inverse=True)
    tails = np.array([f"{z},{N},{z / N!r}" for z in counts.tolist()],
                     dtype=object)
    heads = np.array([f"{seed}," for seed in result.seeds.tolist()],
                     dtype=object)
    ks = np.array([f"{k}," for k in range(1, kmax + 1)], dtype=object)
    print(write_outputs(Path(cfg["out"]), cfg, summary,
                        ("simplicial.csv", ["seed", "k", "Z", "N", "ratio"],
                         "%s%s%s",
                         (np.repeat(heads, kmax), np.tile(ks, seeds),
                          tails[slot]))))
    return 0


def cmd_plotdata(args) -> int:
    cfg = resolve_config(args, stochastic=False)
    _require(cfg, "input")
    path = Path(cfg["input"])
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    try:
        if "certificates" in doc:
            pairs = [(_plot_x(m), float(b)) for cert in doc["certificates"]
                     for m, b in zip(cert["depths"], cert["bound_values"])]
            row_format = "markov_bound,%s,%r,"
            columns = [[x for x, _ in pairs], [y for _, y in pairs]]
        elif "fraction_zero" in doc:
            row_format = "fraction_zero,%s,%r,%r"
            columns = [[_plot_x(doc.get("k_max", doc.get("K", 0)))],
                       [float(doc["fraction_zero"])],
                       [float(doc.get("fraction_zero_stderr", 0.0))]]
        else:
            raise ConfigError(f"unrecognized summary document {path}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"malformed summary document {path}: {_reason(exc)}") from exc
    outdir = Path(cfg["out"])
    _echo_config(outdir, cfg)
    write_table(outdir / "plotdata.csv", ("series", "x", "y", "stderr"),
                row_format, [np.array(c, dtype=object) for c in columns])
    return 0


def _plot_x(x) -> str:
    """A summary's depth or width as its CSV field: a JSON number, written
    as csv.writer writes it (str of a float is its repr)."""
    if not isinstance(x, (int, float)):
        raise ConfigError(f"plot abscissa must be a number, got {x!r}")
    return str(x)


def _json_num(x):
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf"
    if math.isnan(x):
        return "nan"
    return x


def _json_dict(d: dict) -> dict:
    return {k: _json_num(v) if isinstance(v, (int, float)) else v
            for k, v in d.items()}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depth",
        description="Half-space, simplicial and band depth laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stochastic=False):
        p.add_argument("--model", help="model preset or JSON file")
        p.add_argument("--point", help="point preset, CSV or JSON file")
        p.add_argument("--config", help="JSON config; flags override it")
        p.add_argument("--out", help="output directory")
        if stochastic:
            p.add_argument("--seed", type=int, help="master seed (mandatory)")

    p = sub.add_parser("analytic", help="closed-form depth value")
    common(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("bounds", help="Markov certificates and lower bounds")
    common(p)
    p.add_argument("--depths", help="comma list of witness depths m")
    p.add_argument("--curve-max", dest="curve_max", type=int)
    p.add_argument("--ms-c", dest="tail_c", type=float)
    p.add_argument("--ms-t0", dest="tail_t0", type=float)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("admissible", help="admissibility / positivity verdict")
    common(p)
    p.add_argument("--assumptions", choices=ASSUMPTIONS)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("empirical", help="empirical-depth zero experiment")
    common(p, stochastic=True)
    p.add_argument("--family", help="direction family (coordinates)")
    p.add_argument("--n", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--seeds", type=int)
    p.set_defaults(func=cmd_empirical)

    p = sub.add_parser("simplicial", help="block simplicial depth experiment")
    common(p, stochastic=True)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--mc-draws", dest="mc_draws", type=int)
    p.set_defaults(func=cmd_simplicial)

    p = sub.add_parser("plotdata", help="convert summaries to plot series")
    p.add_argument("--input", required=True, help="summary.json to convert")
    p.add_argument("--config", help="JSON config; flags override it")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_plotdata)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DepthLabError, ValueError, KeyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
