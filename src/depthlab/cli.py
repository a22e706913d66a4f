"""Single executable exposing the depth computations and experiments.

Subcommands: analytic, bounds, admissible, empirical, simplicial, plotdata,
declared in ``COMMANDS``; each setting is declared once, in ``SETTINGS``.
``main`` resolves the configuration (a JSON document merged with CLI
flags, flags winning), loads the model and point, runs the subcommand,
echoes the resolved config into the output directory for provenance, and
writes machine-readable JSON/CSV artifacts.  All randomness flows from
one mandatory master seed; reruns of the same config reproduce outputs
byte for byte.  The CSV dialect is part of that contract: the bytes of
``csv.writer``'s default dialect (comma separators, CRLF line ends, ints
as ``str``, floats as ``repr``, an empty string as an empty field).  Each
subcommand hands ``write_table`` its table as numpy columns and a row
format of one ``%`` conversion per column, and ``write_table`` writes the
rows a batch at a time: joined as text when every conversion is ``%s``,
formatted with ``%`` otherwise.

Exit codes: 0 success, 2 configuration error (an ``InputError``, raised
here or by the library), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import admissibility, analytic, bounds, empirical, simplicial
from .errors import DepthLabError, InputError
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


# preset name -> constructor
MODEL_PRESETS = {"gaussian_unit": gaussian_model,
                 "rademacher": rademacher_model,
                 "cauchy_unit": lambda: stable_model(1.0),
                 "uniform_unit": lambda: uniform_model(-1.0, 1.0)}
POINT_PRESETS = {"zero": Point.zero, "inverse-k": lambda: Point.inverse_k(1.0),
                 "inverse-sqrt-k": lambda: Point.inverse_k(0.5)}
ASSUMPTIONS = (admissibility.AI_AII, admissibility.AIII)

# Each size sets the length of an array, which far past its limit cannot be
# allocated: at the limit of n, K or curve_max one run peaked under 700 MB,
# and at a depth of 10**6 (which also sets a witness's length) under 400 MB.
MAX_SIZE = 10 ** 7


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------

def load_model(spec: str) -> SequenceModel:
    return _load("model", spec, MODEL_PRESETS,
                 lambda path: model_from_document(json.loads(path.read_text())))


def load_point(spec: str) -> Point:
    return _load("point", spec, POINT_PRESETS, lambda path: (
        _point_from_document(json.loads(path.read_text()))
        if path.suffix.lower() == ".json" else _point_from_csv(path)))


def _load(kind: str, spec, presets: dict, read: Callable):
    """The preset ``spec`` names, or what ``read`` makes of its file."""
    if isinstance(spec, str) and spec in presets:
        return presets[spec]()
    if not isinstance(spec, str):
        raise InputError(f"{kind} spec must be a string, not {spec!r}")
    if not Path(spec).exists():
        raise InputError(f"{kind} spec {spec!r} is neither a preset "
                         f"({', '.join(presets)}) nor a file")
    try:
        return read(Path(spec))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid {kind} file {spec}: {_reason(exc)}") from exc


def model_from_document(doc: dict) -> SequenceModel:
    family = doc["family"]
    K = doc.get("K")
    if K is not None:
        K = SETTINGS["K"].check("K", K)
    if family in ("rademacher", "uniform") and "scale_rule" in doc:
        raise InputError(f"a {family} model takes no scale_rule")
    if family == "rademacher":
        return rademacher_model(K)
    if family == "uniform":
        return uniform_model(_number("lo", doc.get("lo", -1.0)),
                             _number("hi", doc.get("hi", 1.0)), K)
    rule = doc.get("scale_rule", {"kind": "constant", "value": 1.0})
    if not isinstance(rule, dict):
        raise InputError("scale_rule must be a JSON object")
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
        raise InputError(f"unknown scale rule kind {kind!r}")
    if family == "gaussian":
        return gaussian_model(scales, tail)
    if family == "stable":
        return stable_model(_number("p", doc["p"]), scales, tail)
    raise InputError(f"unknown model family {family!r}")


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
            raise ValueError("the header must be k,value")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"row {row} needs a k and a value")
            k = int(row[0])
            if k < 1:
                raise ValueError(f"coordinate index k={k} must be >= 1")
            if k > MAX_SIZE:  # the largest k sets the point's length
                raise ValueError(
                    f"coordinate index k={k} must be <= {MAX_SIZE}")
            if k in coords:
                raise ValueError(f"coordinate index k={k} repeats")
            coords[k] = float(row[1])
    if not coords:
        return Point.zero()
    width = max(coords)
    return Point(tuple(coords.get(k, 0.0) for k in range(1, width + 1)))


# ---------------------------------------------------------------------------
# Settings and their checks
# ---------------------------------------------------------------------------

class Setting:
    """One setting: ``flag`` and argparse ``options`` (no flag: a config
    key only); ``check(name, value)``, which returns the value a run uses
    or raises ``InputError``; ``default``, a value, a function of the
    settings resolved before it, or None if required.  config.json echoes
    ``show(value)``, and a default only if ``echo_default``."""

    def __init__(self, flag: str | None,
                 check: Callable = lambda name, value: value, default=None,
                 *, show: Callable = lambda value: value,
                 echo_default: bool = True, **options):
        self.flag, self.check, self.default = flag, check, default
        self.show, self.echo_default, self.options = show, echo_default, options


def _int_in_range(name: str, value, least: int, most: int | None = None
                  ) -> int:
    """``value`` as an int in [least, most].  A boolean or a number with a
    fractional part is an error, not truncated: the run would use another
    value than the one given."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise InputError(f"{name} must be an integer, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise InputError(f"{name} must be >= {least}, got {value!r}")
    if most is not None and number > most:
        raise InputError(f"{name} must be <= {most}, got {value!r}")
    return number


def _count(flag: str, least: int = 1, most: int | None = None, default=None,
           **options) -> Setting:
    """An integer setting in [least, most]."""
    return Setting(flag, lambda name, value: _int_in_range(
        name, value, least, most), default, type=int, **options)


def _depths(name: str, value) -> tuple[int, ...]:
    """Witness depths from a comma list or a JSON list, each in [1, 10**6]."""
    entries = value if isinstance(value, list) else str(value).split(",")
    if not entries:
        raise InputError(f"{name} must name at least one depth")
    return tuple(_int_in_range(name, m, 1, 10 ** 6) for m in entries)


def _one_of(*choices) -> Callable:
    def check(name: str, value):
        if value in choices:
            return value
        raise InputError(f"{name} must be one of "
                         f"{', '.join(map(str, choices))}, got {value!r}")
    return check


def _positive(name: str, value) -> float:
    """``value`` as a finite float > 0; a boolean is an error."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (math.isfinite(number) and number > 0.0):
        raise InputError(f"{name} must be a finite number > 0, got {value!r}")
    return number


def _out_dir(name: str, value) -> str:
    """A path to a directory, or to make one at: checked before the run.
    An empty path is an error: it would name the working directory."""
    if not isinstance(value, str) or not value:
        raise InputError(f"{name} must be a path, got {value!r}")
    out = Path(value)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise InputError(f"--out {value} is not a directory: "
                                 f"{path} is a file")
            break
    return value


SETTINGS = {
    "model": Setting("--model", help="model preset or JSON file"),
    "point": Setting("--point", help="point preset, CSV or JSON file"),
    "input": Setting("--input", required=True,
                     help="summary.json to convert"),
    "out": Setting("--out", _out_dir, help="output directory"),
    # a master seed is one 64-bit Philox key word
    "seed": _count("--seed", 0, 2 ** 64 - 1, help="master seed (mandatory)"),
    # an echoed config reproduces its run only on the stream it used
    "stream_version": Setting(None, _one_of(STREAM_VERSION), STREAM_VERSION),
    "family": Setting("--family", _one_of("coordinates"), "coordinates",
                      help="direction family (coordinates)"),
    "n": _count("--n", most=MAX_SIZE),
    "K": _count("--K", most=MAX_SIZE),
    "seeds": _count("--seeds", most=MAX_SIZE),
    "d": _count("--d"),
    "kmax": _count("--kmax", most=MAX_SIZE),
    "budget": _count("--budget", default=simplicial.DEFAULT_BUDGET),
    "mc_draws": _count("--mc-draws", default=simplicial.DEFAULT_MC_DRAWS),
    "depths": Setting("--depths", _depths, (4, 16, 64),
                      show=lambda ms: ",".join(map(str, ms)),
                      help="comma list of witness depths m"),
    "curve_max": _count("--curve-max", most=MAX_SIZE,
                        default=lambda cfg: max(cfg["depths"])),
    "tail_c": Setting("--ms-c", _positive, 1.0, echo_default=False,
                      type=float),
    "tail_t0": Setting("--ms-t0", _positive, 1.0, echo_default=False,
                       type=float),
    "assumptions": Setting("--assumptions", _one_of(*ASSUMPTIONS),
                           admissibility.AIII, choices=ASSUMPTIONS),
}


def _json_object(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not isinstance(doc, dict):
        raise InputError(f"{path} must hold a JSON object")
    return doc


def resolve_config(args: argparse.Namespace, command: Command
                   ) -> tuple[dict, dict]:
    """The settings a run uses, checked and converted, and its echo: the
    config file overlaid by the flags, each setting as the run uses it and
    the echoed defaults added; other keys stay as given."""
    if args.config == "":
        raise InputError("config must be a path to a JSON file, got ''")
    echo = _json_object(args.config) if args.config is not None else {}
    echo.update((key, value) for key, value in vars(args).items()
                if key != "config" and value is not None)
    echo.pop("command")
    missing = [key for key in command.settings
               if SETTINGS[key].default is None and echo.get(key) is None]
    if missing:
        raise InputError(f"missing required parameter(s): {', '.join(missing)}")
    cfg: dict = {}
    for key in command.settings:
        setting = SETTINGS[key]
        if echo.get(key) is not None:
            cfg[key] = setting.check(key, echo[key])
        else:
            default = setting.default
            cfg[key] = default(cfg) if callable(default) else default
            if not setting.echo_default:
                continue
        echo[key] = setting.show(cfg[key])
    return cfg, echo


# rows formatted and written per ``write`` call: bounds the text held at once
TABLE_BATCH = 1024


def write_table(path, header: Sequence[str], row_format: str,
                columns: Sequence[np.ndarray]) -> None:
    """Write a CSV table from equal-length numpy columns, ``TABLE_BATCH``
    rows at a time.

    ``row_format`` is one row without its line end, with one ``%``
    conversion per column: ``%d`` for an integer dtype (it would truncate
    a float), ``%r`` for floats and ``%s`` for a column of ``str``.  Each
    batch converts its column slices with ``.tolist()``, so no numpy
    scalar reaches the format (``%r`` of one is not a float's repr), and
    is written before the next: one batch's text is held at a time.  A
    format whose only conversions are ``%s`` is written with one
    ``"".join`` per batch, its literal pieces interleaved with the fields,
    which is faster than ``%`` for text; any other format is applied with
    one ``%`` per batch (for numbers a join, which needs a ``str`` or
    ``repr`` call per field, gains nothing).  The bytes are those
    of ``csv.writer``'s default dialect for the fields the package writes:
    comma separators, ``\\r\\n`` line ends, ints as ``str``, floats as
    ``repr`` and an empty string as an empty field; no field needs
    quoting.
    """
    line, width = row_format + "\r\n", len(columns)
    total = len(columns[0])
    slots = None
    if ("%" not in row_format.replace("%s", "")
            and row_format.count("%s") == width):
        # a row's pieces in order: a column's index for each field, and
        # each non-empty literal piece around them (the last holds the
        # line end)
        slots = []
        for i, piece in enumerate(line.split("%s")):
            if i:
                slots.append(i - 1)
            if piece:
                slots.append(piece)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, total, TABLE_BATCH):
            rows = min(TABLE_BATCH, total - lo)
            if slots is None:
                cells = [None] * (rows * width)
                for i, column in enumerate(columns):
                    cells[i::width] = column[lo:lo + rows].tolist()
                fh.write(line * rows % tuple(cells))
            else:
                step = len(slots)
                cells = [None] * (rows * step)
                for at, slot in enumerate(slots):
                    cells[at::step] = (
                        columns[slot][lo:lo + rows].tolist()
                        if isinstance(slot, int) else [slot] * rows)
                fh.write("".join(cells))


def write_outputs(outdir: Path, cfg: dict, summary: dict | None,
                  table: tuple | None = None) -> str | None:
    """Write config.json, then summary.json and the CSV table given as
    (file name, header, row format, columns), each unless it is None;
    returns the summary's JSON text, which ``main`` prints."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    text = None
    if summary is not None:
        # no NaN or Infinity token, which is not JSON: _json_num spells them
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
        (outdir / "summary.json").write_text(text + "\n")
    if table is not None:
        name, *spec = table
        write_table(outdir / name, *spec)
    return text


# ---------------------------------------------------------------------------
# Subcommand implementations: (settings, model, point) -> (summary, table)
# ---------------------------------------------------------------------------

def cmd_analytic(cfg: dict, model: SequenceModel, point: Point):
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
            raise InputError(
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
    return summary, None


def cmd_bounds(cfg: dict, model: SequenceModel, point: Point):
    cert = bounds.markov_zero_certificate(point, model, cfg["depths"])
    curve = bounds.markov_bound_curve(point, model, cfg["curve_max"])
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
        tail = bounds.rademacher_tail_lower_bound(point, cfg["tail_c"],
                                                  cfg["tail_t0"])
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
    return summary, ("markov_curve.csv", ["m", "B_m"], "%d,%r",
                     (finite + 1, curve[finite]))


def cmd_admissible(cfg: dict, model: SequenceModel, point: Point):
    decision = admissibility.positivity_decision(
        point, model, assumptions=cfg["assumptions"])
    summary = {"decision": decision.decision, "reason": decision.reason}
    if decision.verdict is not None:
        summary["verdict"] = decision.verdict.to_dict()
    return summary, None


def cmd_empirical(cfg: dict, model: SequenceModel, point: Point):
    result = empirical.zero_depth_experiment(
        model, point, n=cfg["n"], K=cfg["K"], seeds=cfg["seeds"],
        master_seed=cfg["seed"])
    summary = {
        "fraction_zero": result.fraction_zero,
        "fraction_zero_stderr": result.fraction_zero_stderr,
        "mean_depth": result.mean_depth,
        "true_depth_reference": _json_num(result.true_depth_reference),
        "analytic_floor": _json_num(result.analytic_floor),
        "consistency_failure": result.consistency_failure,
        "ratio_vanishes": result.ratio_vanishes,
        "family": result.family,
        "n": result.n, "K": result.K, "seeds": cfg["seeds"],
    }
    depths = result.counts / result.n
    return summary, ("empirical.csv",
                     ["seed", "n", "K", "empirical_depth", "zero_hit"],
                     f"%d,{result.n},{result.K},%r,%d",
                     (result.seeds, depths, depths == 0.0))


def cmd_simplicial(cfg: dict, model: SequenceModel, point: Point):
    result = simplicial.block_depth_experiment(
        model, point, n=cfg["n"], d=cfg["d"], k_max=cfg["kmax"],
        seeds=cfg["seeds"], master_seed=cfg["seed"],
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
    return summary, ("simplicial.csv", ["seed", "k", "Z", "N", "ratio"],
                     "%s%s%s",
                     (np.repeat(heads, kmax), np.tile(ks, seeds),
                      tails[slot]))


def cmd_plotdata(cfg: dict, model: None, point: None):
    path = cfg["input"]
    doc = _json_object(path)
    if "certificates" not in doc and "fraction_zero" not in doc:
        raise InputError(f"unrecognized summary document {path}")
    try:
        if "certificates" in doc:
            pairs = [(_plot_x(m), float(b)) for cert in doc["certificates"]
                     for m, b in zip(cert["depths"], cert["bound_values"])]
            row_format = "markov_bound,%s,%r,"
            columns = [[x for x, _ in pairs], [y for _, y in pairs]]
        else:
            row_format = "fraction_zero,%s,%r,%r"
            columns = [[_plot_x(doc.get("k_max", doc.get("K", 0)))],
                       [float(doc["fraction_zero"])],
                       [float(doc.get("fraction_zero_stderr", 0.0))]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(
            f"malformed summary document {path}: {_reason(exc)}") from exc
    return None, ("plotdata.csv", ("series", "x", "y", "stderr"), row_format,
                  [np.array(c, dtype=object) for c in columns])


def _plot_x(x) -> str:
    """A summary's depth or width as its CSV field: a JSON number, written
    as csv.writer writes it (str of a float is its repr)."""
    if not isinstance(x, (int, float)):
        raise ValueError(f"plot abscissa must be a number, got {x!r}")
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
# Subcommands and parser
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    """A subcommand: its function from (settings, model, point) to
    (summary, table), its help line, and its settings in flag order.  A
    setting without a default is required, so a stochastic subcommand,
    one with a ``seed``, cannot run without a master seed."""

    run: Callable
    help: str
    settings: tuple[str, ...]


_SPECS = ("model", "point", "out")
_SEEDED = _SPECS + ("seed", "stream_version")
COMMANDS = {
    "analytic": Command(cmd_analytic, "closed-form depth value", _SPECS),
    "bounds": Command(cmd_bounds, "Markov certificates and lower bounds",
                      _SPECS + ("depths", "curve_max", "tail_c", "tail_t0")),
    "admissible": Command(cmd_admissible, "admissibility / positivity verdict",
                          _SPECS + ("assumptions",)),
    "empirical": Command(cmd_empirical, "empirical-depth zero experiment",
                         _SEEDED + ("family", "n", "K", "seeds")),
    "simplicial": Command(cmd_simplicial, "block simplicial depth experiment",
                          _SEEDED + ("n", "d", "kmax", "seeds", "budget",
                                     "mc_draws")),
    "plotdata": Command(cmd_plotdata, "convert summaries to plot series",
                        ("input", "out")),
}


def _top_parser(metavar: str | None = None
                ) -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    """The ``depth`` parser and its subparsers action, which holds no
    subcommand yet."""
    parser = argparse.ArgumentParser(
        prog="depth",
        description="Half-space, simplicial and band depth laboratory")
    return parser, parser.add_subparsers(dest="command", required=True,
                                         metavar=metavar)


def _add_command(sub: argparse._SubParsersAction, name: str) -> None:
    """Add subcommand ``name`` and the flags of its settings to ``sub``."""
    command = COMMANDS[name]
    p = sub.add_parser(name, help=command.help)
    for key in command.settings:
        if key == "out":
            p.add_argument("--config", help="JSON config; flags override it")
        setting = SETTINGS[key]
        if setting.flag is not None:
            p.add_argument(setting.flag, dest=key, **setting.options)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand and its flags."""
    parser, sub = _top_parser()
    for name in COMMANDS:
        _add_command(sub, name)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The full parser, built on its first use: parsing does not change
    it.  ``main`` uses it when argv does not start with a subcommand."""
    return build_parser()


@lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """A parser holding subcommand ``name`` only, cached per name: it
    parses an argv that starts with ``name`` as the full parser does, with
    the same help, usage and error text.  Its subparsers metavar lists
    every subcommand, so that the top-level usage line, which argparse
    prints with an unrecognized flag, is the full parser's.  (On the full
    parser a metavar would change the invalid-choice and missing-command
    messages, which name the action by it.)"""
    parser, sub = _top_parser(metavar="{" + ",".join(COMMANDS) + "}")
    _add_command(sub, name)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = (_command_parser(argv[0]) if argv and argv[0] in COMMANDS
              else _parser())
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg, echo = resolve_config(args, command)
        model = load_model(cfg["model"]) if "model" in cfg else None
        point = load_point(cfg["point"]) if "point" in cfg else None
        summary, table = command.run(cfg, model, point)
        text = write_outputs(Path(cfg["out"]), echo, summary, table)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DepthLabError, ValueError, KeyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if text is not None:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
