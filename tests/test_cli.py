import argparse
import csv
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from depthlab import admissibility, analytic, bounds, cli, empirical, simplicial
from depthlab.cli import (COMMANDS, TABLE_BATCH, build_parser, load_point,
                          main, model_from_document,
                          write_table)
from depthlab.models import (
    STREAM_VERSION,
    Point,
    PowerTail,
    Sample,
    gaussian_model,
    rademacher_model,
    sample,
    stable_model,
    uniform_model,
)


def run(args):
    return main([str(a) for a in args])


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.fixture(autouse=True)
def summaries_are_strict_json(request):
    """Every summary.json under a test's tmp_path parses with a JSON
    parser that rejects the NaN and Infinity tokens."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    root = request.getfixturevalue("tmp_path")
    yield
    for path in root.rglob("summary.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def test_analytic_gaussian_inverse_k(tmp_path):
    out = tmp_path / "run"
    assert run(["analytic", "--model", "gaussian_unit",
                "--point", "inverse-k", "--out", out]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["value"] == pytest.approx(0.0998, abs=5e-4)
    assert doc["series"] == pytest.approx(math.pi ** 2 / 6.0)
    assert (out / "config.json").exists()


def test_analytic_rademacher_classification(tmp_path):
    out = tmp_path / "rad"
    assert run(["analytic", "--model", "rademacher",
                "--point", "inverse-k", "--out", out]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["classification"] == "POSITIVE"


def test_missing_seed_is_config_error(tmp_path):
    code = run(["empirical", "--model", "rademacher", "--point", "zero",
                "--n", 3, "--K", 10, "--seeds", 5, "--out", tmp_path / "x"])
    assert code == 2


def test_missing_required_param_is_config_error(tmp_path):
    code = run(["empirical", "--model", "rademacher", "--point", "zero",
                "--seed", 1, "--out", tmp_path / "x"])
    assert code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_bad_model_file_is_config_error(tmp_path):
    code = run(["analytic", "--model", "no_such_preset", "--point", "zero",
                "--out", tmp_path / "x"])
    assert code == 2


def test_numeric_failure_exit_code(tmp_path):
    # the zero point admits no Markov witness
    code = run(["bounds", "--model", "gaussian_unit", "--point", "zero",
                "--out", tmp_path / "x"])
    assert code == 3


def test_empirical_reruns_are_byte_identical(tmp_path):
    args = ["empirical", "--model", "rademacher", "--point", "zero",
            "--n", 3, "--K", 50, "--seeds", 30, "--seed", 1]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    for name in ("empirical.csv", "summary.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "rademacher", "point": "zero",
        "n": 3, "K": 20, "seeds": 10, "seed": 4}))
    out1 = tmp_path / "c1"
    assert run(["empirical", "--config", cfg, "--out", out1]) == 0
    doc = json.loads((out1 / "summary.json").read_text())
    assert doc["K"] == 20
    out2 = tmp_path / "c2"
    assert run(["empirical", "--config", cfg, "--K", 25, "--out", out2]) == 0
    doc2 = json.loads((out2 / "summary.json").read_text())
    assert doc2["K"] == 25


def test_resolved_config_round_trips(tmp_path):
    out1 = tmp_path / "r1"
    assert run(["empirical", "--model", "rademacher", "--point", "zero",
                "--n", 2, "--K", 30, "--seeds", 20, "--seed", 9,
                "--out", out1]) == 0
    out2 = tmp_path / "r2"
    assert run(["empirical", "--config", out1 / "config.json",
                "--out", out2]) == 0
    assert ((out1 / "empirical.csv").read_bytes()
            == (out2 / "empirical.csv").read_bytes())
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1 == s2


def test_model_file_simplicial_and_plotdata(tmp_path):
    model = tmp_path / "unif.json"
    model.write_text(json.dumps({"family": "uniform", "lo": 0.0, "hi": 1.0}))
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"coords": [0.5, 0.5] * 5}))
    out = tmp_path / "simp"
    assert run(["simplicial", "--model", model, "--point", point,
                "--n", 4, "--d", 2, "--kmax", 5, "--seeds", 5, "--seed", 2,
                "--out", out]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["lambda_hat"] == pytest.approx(0.25, abs=0.02)
    lines = (out / "simplicial.csv").read_text().splitlines()
    assert lines[0] == "seed,k,Z,N,ratio"
    assert len(lines) == 1 + 5 * 5

    pout = tmp_path / "plot"
    assert run(["plotdata", "--input", out / "summary.json",
                "--out", pout]) == 0
    plines = (pout / "plotdata.csv").read_text().splitlines()
    assert plines[0] == "series,x,y,stderr"
    assert plines[1].startswith("fraction_zero,5,")


def test_plotdata_markov(tmp_path):
    out = tmp_path / "b"
    assert run(["bounds", "--model", "gaussian_unit", "--point", "inverse-k",
                "--depths", "4,16", "--curve-max", 16, "--out", out]) == 0
    curve = (out / "markov_curve.csv").read_text().splitlines()
    assert curve[0] == "m,B_m"
    assert len(curve) == 17
    pout = tmp_path / "p"
    assert run(["plotdata", "--input", out / "summary.json",
                "--out", pout]) == 0
    rows = (pout / "plotdata.csv").read_text().splitlines()
    assert rows[1].startswith("markov_bound,4,")


@pytest.mark.parametrize("doc", [
    {"certificates": [{}]},
    {"certificates": [{"depths": [4], "bound_values": ["x"]}]},
    {"certificates": 5},
    {"fraction_zero": "x"},
    {"fraction_zero": 0.5, "fraction_zero_stderr": [0.1]},
], ids=["certificate-empty", "bound-text", "certificates-number",
        "fraction-text", "stderr-list"])
def test_plotdata_malformed_summary_is_config_error(tmp_path, capsys, doc):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(doc))
    assert run(["plotdata", "--input", summary, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: malformed summary document")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("out", ["file", "file/sub", "file/sub/deeper"])
def test_out_under_a_file_is_config_error_before_the_run(tmp_path, capsys,
                                                         monkeypatch, out):
    (tmp_path / "file").write_text("keep")
    monkeypatch.setattr(bounds, "markov_zero_certificate", None)  # never run
    assert run(BOUNDS + ["--out", tmp_path / out]) == 2
    assert capsys.readouterr().err.startswith("config error: --out")
    assert (tmp_path / "file").read_text() == "keep"


def test_out_that_is_not_a_path_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "gaussian_unit", "point": "zero",
                               "out": 5}))
    assert run(["analytic", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: out must be")


# the collapse shape, scaled down
COLLAPSE = ["empirical", "--model", "gaussian_unit", "--point", "inverse-k",
            "--n", 2, "--K", 20, "--seeds", 5, "--seed", 1]


@pytest.mark.parametrize("args, setting", [
    (["--out", ""], "out"),
    (["--config", "cfg.json"], "out"),
    (["--config", "", "--out", "run"], "config"),
], ids=["out-flag", "out-in-config", "config-flag"])
def test_empty_path_settings_are_config_errors(tmp_path, capsys, monkeypatch,
                                               args, setting):
    # an empty path would name the working directory, or no config at all
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": ""}))
    assert run(COLLAPSE + args) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {setting} must be a path")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("args, setting", [
    (["analytic", "--model", "", "--point", "zero"], "model"),
    (["analytic", "--config", "cfg.json", "--model", "gaussian_unit"],
     "point"),
    (["plotdata", "--input", ""], "input"),
], ids=["model-flag", "point-in-config", "input-flag"])
def test_empty_spec_settings_are_config_errors(tmp_path, capsys, monkeypatch,
                                               args, setting):
    # Path('') is the working directory: the message names the setting
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"point": ""}))
    assert run(args + ["--out", "run"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {setting} must not be empty\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_bounds_pz_delta_is_capped_below_one(tmp_path):
    # the series 1e-34 gives 1 - sqrt(series) = 1.0 in floating point; the
    # cap keeps delta in (0, 1), as at a zero series
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"coords": [1e-17]}))
    out = tmp_path / "b"
    assert run(["bounds", "--model", "gaussian_unit", "--point", point,
                "--out", out]) == 0
    pz, = json.loads((out / "summary.json").read_text())["lower_bounds"]
    assert pz["params"]["delta"] == 1.0 - 1e-12
    assert pz["value"] == bounds.pz_lower_bound(1.0 - 1e-12, 3.0)


@pytest.mark.parametrize("coord", [1e-160, 1e-170])
def test_bounds_of_a_tiny_point_are_infinite_not_dropped(tmp_path, coord):
    # (t_1/sigma_1)^2 overflows 1/x at 1e-320 and underflows to 0 at
    # 1e-340: the witness stays, with B_m = inf written as "inf"
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"coords": [coord]}))
    out = tmp_path / "b"
    assert run(["bounds", "--model", "rademacher", "--point", point,
                "--out", out]) == 0
    text = (out / "summary.json").read_text()
    assert "Infinity" not in text
    cert, = json.loads(text)["certificates"]
    assert cert["depths"] == [4, 16, 64]
    assert cert["bound_values"] == ["inf"] * 3
    assert (out / "markov_curve.csv").read_bytes() == b"m,B_m\r\n"


def test_point_csv_loading(tmp_path):
    pt = tmp_path / "point.csv"
    pt.write_text("k,value\n1,0.5\n3,-0.25\n")
    out = tmp_path / "o"
    assert run(["analytic", "--model", "gaussian_unit", "--point", pt,
                "--out", out]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["series"] == pytest.approx(0.25 + 0.0625)


def test_point_csv_index_above_the_width_limit_is_rejected(tmp_path):
    # the largest index sets the length of the point's tuple: 10**7 + 1
    # would ask for an 80 MB tuple, and 10**9 for one of 8 GB
    pt = tmp_path / "far.csv"
    pt.write_text(f"k,value\n{10 ** 7 + 1},1\n")
    with pytest.raises(ValueError, match="k=10000001 must be <= 10000000"):
        load_point(str(pt))
    assert run(["analytic", "--model", "gaussian_unit", "--point", pt,
                "--out", tmp_path / "x"]) == 2
    assert not (tmp_path / "x").exists()


def _sample_columns(s: Sample):
    """A sample in long form, columns j,k,value with 1-based indices."""
    return (np.repeat(np.arange(1, s.n + 1), s.K),
            np.tile(np.arange(1, s.K + 1), s.n), s.data.ravel())


def test_sample_csv_export(tmp_path):
    s = sample(gaussian_model(), 2, 2, seed=3)
    path = tmp_path / "sample.csv"
    write_table(path, ("j", "k", "value"), "%d,%d,%r", _sample_columns(s))
    lines = path.read_text().splitlines()
    assert lines[0] == "j,k,value"
    assert len(lines) == 5
    assert float(lines[1].split(",")[2]) == s.data[0, 0]


def test_admissible_subcommand(tmp_path):
    out = tmp_path / "adm"
    assert run(["admissible", "--model", "gaussian_unit",
                "--point", "inverse-sqrt-k", "--out", out]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["decision"] == "ZERO"

    # an asymmetric law is a verdict the routes cannot give, not a failure
    model = tmp_path / "unif01.json"
    model.write_text(json.dumps({"family": "uniform", "lo": 0.0, "hi": 1.0}))
    assert run(["admissible", "--model", model, "--point", "inverse-k",
                "--out", out]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc == {"decision": "UNDECIDED", "reason": "symmetry not declared"}


def test_admissible_summary_carries_the_verdict(tmp_path):
    out = tmp_path / "adm"
    assert run(["admissible", "--model", "gaussian_unit",
                "--point", "inverse-k", "--out", out]) == 0
    doc = json.loads((out / "summary.json").read_text())
    dec = admissibility.positivity_decision(Point.inverse_k(1.0),
                                            gaussian_model())
    assert doc["decision"] == dec.decision == "POSITIVE"
    assert doc["verdict"] == dec.verdict.to_dict()
    assert doc["verdict"]["admissible"] is True
    assert doc["verdict"]["route"] == "SHEPP-SERIES"


def test_admissible_underflowed_affinity_is_undecided(tmp_path):
    # the Hellinger affinity at shift 60 underflows to 0, which is not a
    # vanishing Kakutani product: the Cameron-Martin norm is a finite 60
    pt = tmp_path / "far.csv"
    pt.write_text("k,value\n1,60\n")
    args = ["--model", "gaussian_unit", "--point", pt]
    assert run(["admissible", *args, "--out", tmp_path / "adm"]) == 0
    doc = json.loads((tmp_path / "adm" / "summary.json").read_text())
    assert doc["decision"] == "UNDECIDED" and "verdict" not in doc
    assert "shift 60.0" in doc["reason"]
    assert run(["analytic", *args, "--out", tmp_path / "an"]) == 0
    doc = json.loads((tmp_path / "an" / "summary.json").read_text())
    assert doc["norms"] == {"cameron_martin": 60.0}


def test_analytic_stable_model_reports_the_dual_norm(tmp_path):
    out = tmp_path / "st"
    assert run(["analytic", "--model", "cauchy_unit", "--point", "inverse-k",
                "--out", out]) == 0
    doc = json.loads((out / "summary.json").read_text())
    report = analytic.stable_depth(Point.inverse_k(1.0), stable_model(1.0))
    assert doc["norms"] == {"dual": report.certificate.detail["norm"]} == {
        "dual": 1.0}
    assert doc["value"] == report.value == pytest.approx(0.25)
    assert doc["certificate"]["kind"] == report.certificate.kind


EMPIRICAL = ["empirical", "--model", "rademacher", "--point", "zero"]
SIMPLICIAL = ["simplicial", "--model", "uniform_unit", "--point", "zero",
              "--n", 4, "--d", 2, "--kmax", 3]
BOUNDS = ["bounds", "--model", "gaussian_unit", "--point", "inverse-k"]


@pytest.mark.parametrize("args", [
    EMPIRICAL + ["--n", 3, "--K", 5, "--seeds", 0, "--seed", 1],
    SIMPLICIAL + ["--seeds", 0, "--seed", 1],
    EMPIRICAL + ["--n", 0, "--K", 5, "--seeds", 2, "--seed", 1],
    EMPIRICAL + ["--n", 3, "--K", 0, "--seeds", 2, "--seed", 1],
    EMPIRICAL + ["--n", 3, "--K", 5, "--seeds", 2, "--seed", -1],
    SIMPLICIAL + ["--seeds", 2, "--seed", 1, "--mc-draws", 0],
    SIMPLICIAL + ["--seeds", 2, "--seed", 1, "--budget", 0],
    SIMPLICIAL + ["--seeds", 2, "--seed", 1, "--budget", 3],
    BOUNDS + ["--curve-max", 0],
    BOUNDS + ["--depths", "4,x"],
    BOUNDS + ["--depths", "0,4"],
    SIMPLICIAL + ["--seeds", 2, "--seed", 1, "--model", "rademacher"],
], ids=["seeds-0", "simplicial-seeds-0", "n-0", "K-0", "seed-negative",
        "mc-draws-0", "budget-0", "budget-below-tests", "curve-max-0", "depth-not-int", "depth-0",
        "simplicial-atomic"])
def test_bad_counts_and_seeds_are_config_errors(tmp_path, capsys, args):
    assert run(args + ["--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("args", [
    BOUNDS + ["--curve-max", 10 ** 12],
    BOUNDS + ["--depths", f"4,{10 ** 11}"],
    EMPIRICAL + ["--n", 3, "--K", 5, "--seeds", 10 ** 12, "--seed", 1],
    EMPIRICAL + ["--n", 10 ** 12, "--K", 5, "--seeds", 2, "--seed", 1],
    EMPIRICAL + ["--n", 3, "--K", 10 ** 12, "--seeds", 2, "--seed", 1],
    SIMPLICIAL + ["--seeds", 10 ** 12, "--seed", 1],
    SIMPLICIAL + ["--seeds", 2, "--kmax", 10 ** 12, "--seed", 1],
], ids=["curve-max", "depth", "seeds", "n", "K", "simplicial-seeds",
        "kmax"])
def test_sizes_too_large_to_allocate_are_config_errors(tmp_path, capsys,
                                                       args):
    # each run's first array of that length would raise numpy's MemoryError
    assert run(args + ["--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and " must be <= " in err
    assert not (tmp_path / "x").exists()


def test_simplicial_point_that_is_not_periodic_is_config_error(tmp_path,
                                                               capsys):
    # block 2 of [0.5, 0.5, 5, 5] x 3 is outside the support of uniform(0, 1):
    # the true depth is 0, not lambda of block 1
    model = tmp_path / "unif01.json"
    model.write_text(json.dumps({"family": "uniform", "lo": 0.0, "hi": 1.0}))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"coords": [0.5, 0.5, 5.0, 5.0] * 3}))
    assert run(["simplicial", "--model", model, "--point", point, "--n", 4,
                "--d", 2, "--kmax", 6, "--seeds", 2, "--seed", 1,
                "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "periodic" in err
    assert not (tmp_path / "x").exists()


def test_simplicial_power_scale_model_is_config_error(tmp_path, capsys):
    # scales k^-1/4: the coordinates are not identically distributed
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "family": "gaussian",
        "scale_rule": {"kind": "power", "coef": 1.0, "exponent": -0.25}}))
    args = SIMPLICIAL + ["--seeds", 2, "--seed", 1, "--model", model]
    assert run(args + ["--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "x").exists()


ADMISSIBLE = ["admissible", "--model", "gaussian_unit", "--point", "inverse-k"]
RADEMACHER_BOUNDS = ["bounds", "--model", "rademacher", "--point", "zero"]


@pytest.mark.parametrize("args, settings", [
    (BOUNDS, {"tail_c": "abc"}),
    (BOUNDS, {"tail_c": -1}),
    (BOUNDS, {"tail_t0": 0}),
    (BOUNDS, {"tail_t0": True}),
    (BOUNDS, {"tail_c": [1.0]}),
    (RADEMACHER_BOUNDS, {"tail_c": "inf"}),
    (RADEMACHER_BOUNDS + ["--ms-c", -1], {}),
    (RADEMACHER_BOUNDS + ["--ms-c", "nan"], {}),
    (RADEMACHER_BOUNDS + ["--ms-t0", 0], {}),
    (RADEMACHER_BOUNDS + ["--ms-t0", "inf"], {}),
    (ADMISSIBLE, {"assumptions": "XYZ"}),
    (ADMISSIBLE, {"assumptions": ["AIII"]}),
    (["analytic"], {"model": ["x"], "point": "zero"}),
    (["analytic"], {"model": "gaussian_unit", "point": 7}),
    (["analytic"], {"model": "gaussian_unit", "point": {"coords": "12"}}),
    (["analytic"], {"model": "gaussian_unit",
                    "point": {"coords": [10 ** 400]}}),
    (["analytic"], {"model": "gaussian_unit",
                    "point": {"coords": [1.0], "tail": {"coef": "1",
                                                        "exponent": -1.0}}}),
    (["analytic"], {"model": {"family": "gaussian", "scale_rule": {
        "kind": "explicit", "values": "12"}}, "point": "zero"}),
    (["analytic"], {"model": {"family": "gaussian", "scale_rule": {
        "kind": "constant", "value": True}}, "point": "zero"}),
    (["analytic"], {"model": {"family": "stable", "p": True},
                    "point": "zero"}),
    (["admissible"], {"model": {"family": "uniform", "lo": "0"},
                      "point": "zero"}),
    (["admissible"], {"model": {"family": "uniform", "hi": True},
                      "point": "zero"}),
    (["analytic"], {"model": "gaussian_unit",
                    "point": [["k", "value"], [1, 0.5], [2, 0.1], [1, 0.7]]}),
], ids=["tail-c-text", "tail-c-negative", "tail-t0-zero", "tail-t0-boolean",
        "tail-c-list", "tail-c-infinite", "ms-c-negative", "ms-c-nan",
        "ms-t0-zero", "ms-t0-infinite", "assumptions-unknown",
        "assumptions-list", "model-list", "point-number", "coords-text",
        "coords-huge", "tail-coef-text", "scales-text", "scale-boolean",
        "p-boolean", "lo-text", "hi-boolean", "csv-repeated-k"])
def test_bad_settings_are_config_errors(tmp_path, capsys, args, settings):
    # a model or point document given inline is written to its own file: a
    # JSON object as JSON, a list of rows as CSV
    for key, value in settings.items():
        if isinstance(value, dict):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(value))
        elif key == "point" and isinstance(value, list):
            path = tmp_path / f"{key}.csv"
            path.write_text("".join(f"{k},{v}\n" for k, v in value))
        else:
            continue
        settings = {**settings, key: str(path)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    assert run(args + ["--config", cfg, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "x").exists()


def test_counts_from_config_file_are_checked(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "rademacher", "point": "zero",
                               "n": 3, "K": 5, "seeds": 0, "seed": 1}))
    assert run(["empirical", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert run(["empirical", "--config", cfg, "--seeds", 2,
                "--out", tmp_path / "y"]) == 0
    echo = json.loads((tmp_path / "y" / "config.json").read_text())
    assert (echo["n"], echo["K"], echo["seeds"], echo["seed"]) == (3, 5, 2, 1)


@pytest.mark.parametrize("key", ["n", "K", "seeds", "seed"])
@pytest.mark.parametrize("value", [3.7, True, float("inf")],
                         ids=["fraction", "boolean", "infinite"])
def test_non_integral_counts_from_config_file_are_config_errors(
        tmp_path, capsys, key, value):
    settings = {"model": "rademacher", "point": "zero",
                "n": 3, "K": 5, "seeds": 2, "seed": 1, key: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    assert run(["empirical", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be")
    assert not (tmp_path / "x").exists()


BLOCKS = {"model": "uniform_unit", "point": "zero", "n": 4, "d": 2,
          "kmax": 3, "seeds": 2, "seed": 1}
MARKOV = {"model": "gaussian_unit", "point": "inverse-k"}


@pytest.mark.parametrize("command, settings", [
    ("simplicial", {**BLOCKS, "d": 1.5}),
    ("simplicial", {**BLOCKS, "kmax": 2.5}),
    ("simplicial", {**BLOCKS, "mc_draws": 100.5}),
    ("simplicial", {**BLOCKS, "budget": False}),
    ("bounds", {**MARKOV, "curve_max": 10.5}),
    ("bounds", {**MARKOV, "depths": [4, 2.5]}),
    ("bounds", {**MARKOV, "depths": [True]}),
], ids=["d", "kmax", "mc_draws", "budget", "curve_max", "depths",
        "depths-boolean"])
def test_non_integral_settings_are_config_errors(tmp_path, capsys, command,
                                                 settings):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    assert run([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "must be an integer" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, settings", [
    ("bounds", {**MARKOV, "curve_max": 1e12}),
    ("bounds", {**MARKOV, "depths": [4, 1e11]}),
    ("simplicial", {**BLOCKS, "seeds": 1e12}),
], ids=["curve_max", "depths", "seeds"])
def test_sizes_too_large_from_config_file_are_config_errors(
        tmp_path, capsys, command, settings):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    assert run([command, "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and " must be <= " in err
    assert not (tmp_path / "x").exists()


def test_integral_float_counts_are_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "rademacher", "point": "zero",
                               "n": 3.0, "K": 5, "seeds": 2, "seed": 1}))
    assert run(["empirical", "--config", cfg, "--out", tmp_path / "x"]) == 0
    summary = json.loads((tmp_path / "x" / "summary.json").read_text())
    assert summary["n"] == 3


def test_config_echoes_the_values_the_run_used(tmp_path):
    # an integral float count runs as an int, and an integer constant as a
    # float: the echo holds what the run used
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "rademacher", "point": "zero",
                               "n": 3.0, "K": 5, "seeds": 2, "seed": 1.0}))
    assert run(["empirical", "--config", cfg, "--out", tmp_path / "e"]) == 0
    text = (tmp_path / "e" / "config.json").read_text()
    assert '"n": 3,' in text and '"seed": 1,' in text
    cfg.write_text(json.dumps({"model": "rademacher", "point": "inverse-k",
                               "tail_c": 2}))
    assert run(["bounds", "--config", cfg, "--out", tmp_path / "b"]) == 0
    echo = json.loads((tmp_path / "b" / "config.json").read_text())
    assert echo["tail_c"] == 2.0 and isinstance(echo["tail_c"], float)
    assert "tail_t0" not in echo  # a default echoed by no earlier run


@pytest.mark.parametrize("command, settings, echoed", [
    ("simplicial", {**BLOCKS, "mc_draws": None, "budget": None},
     {"mc_draws": 10 ** 5, "budget": 10 ** 7}),
    ("bounds", {**MARKOV, "depths": None, "curve_max": None},
     {"depths": "4,16,64", "curve_max": 64}),
], ids=["simplicial", "bounds"])
def test_null_config_values_take_their_defaults(tmp_path, command, settings,
                                                echoed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    assert run([command, "--config", cfg, "--out", tmp_path / "x"]) == 0
    echo = json.loads((tmp_path / "x" / "config.json").read_text())
    assert {key: echo[key] for key in echoed} == echoed


@pytest.mark.parametrize("name, text", [
    ("bad.json", '{"coords": [1, 2'),
    ("no-exponent.json", '{"coords": [1], "tail": {"coef": 1}}'),
    ("list.json", "[0.5, 0.25]"),
    ("k-not-int.csv", "k,value\nx,1\n"),
    ("k-zero.csv", "k,value\n0,1\n"),
    ("one-column.csv", "k,value\n1\n"),
])
def test_malformed_point_file_is_config_error(tmp_path, capsys, name, text):
    pt = tmp_path / name
    pt.write_text(text)
    assert run(["analytic", "--model", "gaussian_unit", "--point", pt,
                "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("config error: invalid point")


def test_config_file_holding_an_array_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["analytic", "--model", "gaussian_unit", "--point", "zero",
                "--config", cfg, "--out", tmp_path / "x"]) == 2


@pytest.mark.parametrize("doc", [
    {"family": "rademacher",
     "scale_rule": {"kind": "power", "coef": 2.0, "exponent": 0.0}},
    {"family": "uniform", "scale_rule": {"kind": "constant", "value": 2.0}},
    {"family": "gaussian", "K": -3},
    ["gaussian"],
], ids=["rademacher-rule", "uniform-rule", "negative-width", "array"])
def test_model_file_rejections(tmp_path, doc):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert run(["analytic", "--model", model, "--point", "zero",
                "--out", tmp_path / "x"]) == 2


def test_model_document_gaussian_and_stable_rules():
    assert model_from_document({"family": "gaussian"}) == gaussian_model()
    rule = {"kind": "power", "coef": 2.0, "exponent": -0.5}
    doc = {"family": "stable", "p": 1.5, "K": 2, "scale_rule": rule}
    assert model_from_document(doc) == stable_model(
        1.5, [2.0, 2.0 * 2 ** -0.5], tail=PowerTail(2.0, -0.5))
    explicit = {"family": "gaussian",
                "scale_rule": {"kind": "explicit", "values": [1.0, 3.0]}}
    assert model_from_document(explicit) == gaussian_model([1.0, 3.0])


@pytest.mark.parametrize("args", [
    ["empirical", "--n", 2, "--K", 10, "--seeds", 2, "--seed", 1],
    ["bounds"],
], ids=["empirical", "bounds"])
def test_overflowing_tail_scale_is_numeric_failure(tmp_path, capsys, args):
    # 6**400 overflows: the scale row holds inf, which the row check rejects
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "family": "gaussian",
        "scale_rule": {"kind": "power", "coef": 1, "exponent": 400}}))
    assert run(args + ["--model", model, "--point", "inverse-k",
                       "--out", tmp_path / "x"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numeric failure: scale must be a positive finite real"]


def test_bounds_summary_is_printed_as_written(tmp_path, capsys):
    out = tmp_path / "b"
    assert run(BOUNDS + ["--depths", "4,16", "--out", out]) == 0
    assert capsys.readouterr().out == (out / "summary.json").read_text()
    rows = (out / "markov_curve.csv").read_text().splitlines()
    assert rows[0] == "m,B_m" and len(rows) == 17
    m, b = rows[16].split(",")
    assert m == "16" and float(b) == json.loads(
        (out / "summary.json").read_text())["certificates"][0][
            "bound_values"][1]


def test_module_entry_point_reports_config_error(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "depthlab.cli", "empirical", "--model",
         "rademacher", "--point", "zero", "--n", "3", "--K", "5",
         "--seeds", "0", "--seed", "1", "--out", str(tmp_path / "x")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert "Traceback" not in proc.stderr


def test_simplicial_n_below_d_plus_one_is_config_error(tmp_path, capsys):
    code = run(["simplicial", "--model", "uniform_unit", "--point", "zero",
                "--n", 2, "--d", 2, "--kmax", 3, "--seeds", 2, "--seed", 1,
                "--out", tmp_path / "x"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "d+1" in err[0]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("args", [
    EMPIRICAL + ["--n", 3, "--K", 5, "--seeds", 2, "--seed", 1],
    SIMPLICIAL + ["--seeds", 2, "--seed", 1, "--mc-draws", 100],
], ids=["empirical", "simplicial"])
def test_stochastic_config_records_stream_version(tmp_path, args):
    assert run(args + ["--out", tmp_path / "a"]) == 0
    echo = json.loads((tmp_path / "a" / "config.json").read_text())
    assert echo["stream_version"] == STREAM_VERSION == 4
    echo["stream_version"] = 3  # the (seed, column) key pairs came at 4
    old = tmp_path / "old.json"
    old.write_text(json.dumps(echo))
    assert run([args[0], "--config", old, "--out", tmp_path / "b"]) == 2
    assert run([args[0], "--config", tmp_path / "a" / "config.json",
                "--out", tmp_path / "c"]) == 0


@pytest.mark.parametrize("args", [
    EMPIRICAL + ["--n", 3, "--K", 5, "--seeds", 2],
    SIMPLICIAL + ["--seeds", 2, "--mc-draws", 100],
], ids=["empirical", "simplicial"])
def test_seed_outside_64_bits_is_config_error(tmp_path, capsys, args):
    # a master seed is one Philox key word
    for i, seed in enumerate((2 ** 64, 2 ** 130 + 3)):
        assert run(args + ["--seed", seed, "--out", tmp_path / f"x{i}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not (tmp_path / f"x{i}").exists()
    assert run(args + ["--seed", 2 ** 64 - 1, "--out", tmp_path / "y"]) == 0


# ---------------------------------------------------------------------------
# CSV tables: byte-equal to csv.writer's default dialect
# ---------------------------------------------------------------------------

def csv_oracle(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def test_sample_csv_matches_csv_writer(tmp_path):
    # more cells than one write batch, with negative, subnormal and large
    # values among them
    data = np.random.default_rng(8).standard_normal((70, 70))
    data[0, :6] = [-1.5, 5e-324, -2.2250738585072014e-309,
                   1.7976931348623157e308, -3.0e300, 0.0]
    s = Sample(data, seed=0)
    assert s.n * s.K > TABLE_BATCH
    path = tmp_path / "sample.csv"
    write_table(path, ("j", "k", "value"), "%d,%d,%r", _sample_columns(s))
    rows = [[j + 1, k + 1, repr(float(s.data[j, k]))]
            for j in range(s.n) for k in range(s.K)]
    assert path.read_bytes() == csv_oracle(["j", "k", "value"], rows)


def test_numpy_columns_match_csv_writer(tmp_path):
    # the writer converts numpy columns itself: no np.float64(...) repr, no
    # float truncated by %d, no uint64 seed wrapped to a negative int
    rows = TABLE_BATCH + 300
    rng = np.random.default_rng(21)
    seeds = rng.integers(0, 2 ** 64, rows, dtype=np.uint64, endpoint=False)
    seeds[:4] = [0, 2 ** 63, 2 ** 64 - 1, 2 ** 63 + 1]
    counts = rng.integers(-2 ** 40, 2 ** 40, rows)
    counts[:3] = [-2 ** 63, 2 ** 63 - 1, 0]
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    special = [5e-324, -5e-324, -2.2250738585072014e-309, 0.0, -0.0,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-300]
    values[:len(special)] = special
    values[TABLE_BATCH - 2:TABLE_BATCH + 2] = special[:4]
    assert (seeds.dtype, counts.dtype, values.dtype) == (
        np.uint64, np.int64, np.float64)
    path = tmp_path / "t.csv"
    write_table(path, ("seed", "count", "value"), "%d,%d,%r",
                (seeds, counts, values))
    text = path.read_bytes()
    assert b"np." not in text
    assert text == csv_oracle(["seed", "count", "value"],
                              zip(seeds.tolist(), counts.tolist(),
                                  values.tolist()))


@pytest.mark.parametrize("row_format", ["%d,%r", "%s,%s"],
                         ids=["numbers", "text"])
def test_table_writer_holds_one_batch(tmp_path, row_format):
    # 2**17 rows, 128 batches, about 2 MB of text in either path (the
    # numbers formatted with %, the same text joined); a writer that built
    # it whole before writing would peak above it, one batch is ~100 kB
    ms = np.arange(1, (1 << 17) + 1)
    columns = (ms, ms * 0.5)
    if row_format == "%s,%s":
        # made before tracing starts: the strings are the table's, not
        # the writer's
        columns = tuple(np.array(list(map(repr, column.tolist())),
                                 dtype=object) for column in columns)
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_table(path, ("m", "B_m"), row_format, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1 << 20
    assert peak < size / 8


def _text_column(rows, prefix, empty=0):
    """An object column of distinct strs, every seventh one from row
    ``empty`` on empty."""
    column = np.array([f"{prefix}{i}" for i in range(rows)], dtype=object)
    column[empty::7] = ""
    return column


@pytest.mark.parametrize("row_format, fields", [
    ("x%s,%s;", lambda a, b: ["x" + a, b + ";"]),
    ("%s,,y%s", lambda a, b: [a, "", "y" + b]),
    ("%s%s", lambda a, b: [a + b]),
], ids=["before-between-after", "empty-field", "no-literal"])
def test_text_format_is_joined_with_its_literals(tmp_path, row_format,
                                                 fields):
    # an all-%s format is joined, its literal pieces around the fields,
    # across batch boundaries
    rows = 2 * TABLE_BATCH + 300
    # never both empty: csv.writer quotes a row of one empty field
    a, b = _text_column(rows, "a"), _text_column(rows, "-2.5e", empty=3)
    path = tmp_path / "t.csv"
    write_table(path, ("h1", "h2"), row_format, (a, b))
    assert path.read_bytes() == csv_oracle(
        ["h1", "h2"], [fields(u, v) for u, v in zip(a.tolist(), b.tolist())])


@pytest.mark.parametrize("row_format, fields", [
    ("%s,%r", lambda i, x: [i, x]),
    ("%s,%s%%", lambda i, x: [i, f"{x!r}%"]),
    ("%d,%s", lambda i, x: [i, x]),
], ids=["repr", "percent-escape", "int"])
def test_other_formats_take_the_percent_path(tmp_path, row_format, fields):
    # ints and floats under %s: only % converts them, a join of non-str
    # raises, so these bytes show that the format took the % path
    rows = TABLE_BATCH + 300
    ints = np.arange(-5, rows - 5)
    floats = np.linspace(-1.0, 1.0, rows) ** 3
    path = tmp_path / "t.csv"
    write_table(path, ("i", "x"), row_format, (ints, floats))
    assert path.read_bytes() == csv_oracle(
        ["i", "x"], [fields(i, x) for i, x in zip(ints.tolist(),
                                                  floats.tolist())])


def test_format_not_matching_the_columns_raises(tmp_path):
    # one %s short of the columns: not joined (which would drop a column)
    # but formatted with %, which refuses it
    column = _text_column(10, "a")
    with pytest.raises(TypeError):
        write_table(tmp_path / "t.csv", ("a", "b"), "%s", (column, column))


def test_markov_curve_matches_csv_writer(tmp_path):
    # leading zero coordinates leave B_m infinite, and unwritten, for m < 4
    point = Point((0.0, 0.0, 0.0, 0.5, 0.25), tail=PowerTail(1.0, -1.0))
    pt = tmp_path / "lead0.json"
    pt.write_text(json.dumps({"coords": list(point.coords),
                              "tail": {"coef": 1.0, "exponent": -1.0}}))
    curve_max = TABLE_BATCH + 1000
    out = tmp_path / "b"
    assert run(["bounds", "--model", "gaussian_unit", "--point", pt,
                "--depths", "4,16", "--curve-max", curve_max,
                "--out", out]) == 0
    curve = bounds.markov_bound_curve(point, gaussian_model(), curve_max)
    rows = [[m, b] for m, b in enumerate(curve.tolist(), start=1)
            if math.isfinite(b)]
    assert len(rows) == curve_max - 3 > TABLE_BATCH
    assert ((out / "markov_curve.csv").read_bytes()
            == csv_oracle(["m", "B_m"], rows))

    pout = tmp_path / "p"
    assert run(["plotdata", "--input", out / "summary.json",
                "--out", pout]) == 0
    cert = json.loads((out / "summary.json").read_text())["certificates"][0]
    rows = [["markov_bound", m, float(b), ""]
            for m, b in zip(cert["depths"], cert["bound_values"])]
    assert ((pout / "plotdata.csv").read_bytes()
            == csv_oracle(["series", "x", "y", "stderr"], rows))


def test_empirical_table_matches_csv_writer(tmp_path):
    seeds = TABLE_BATCH + 100
    out = tmp_path / "e"
    assert run(EMPIRICAL + ["--n", 3, "--K", 5, "--seeds", seeds,
                            "--seed", 6, "--out", out]) == 0
    result = empirical.zero_depth_experiment(
        rademacher_model(), Point.zero(), n=3, K=5, seeds=seeds,
        master_seed=6)
    rows = [[seed, 3, 5, count / 3, int(count == 0)]
            for seed, count in zip(result.seeds.tolist(),
                                   result.counts.tolist())]
    assert (result.n, result.K) == (3, 5)
    assert (result.seeds >= 2 ** 63).any()
    assert ((out / "empirical.csv").read_bytes()
            == csv_oracle(["seed", "n", "K", "empirical_depth", "zero_hit"],
                          rows))

    pout = tmp_path / "p"
    assert run(["plotdata", "--input", out / "summary.json",
                "--out", pout]) == 0
    doc = json.loads((out / "summary.json").read_text())
    rows = [["fraction_zero", doc["K"], doc["fraction_zero"],
             doc["fraction_zero_stderr"]]]
    assert ((pout / "plotdata.csv").read_bytes()
            == csv_oracle(["series", "x", "y", "stderr"], rows))


def test_simplicial_table_matches_csv_writer(tmp_path):
    kmax, seeds = 100, 50
    out = tmp_path / "s"
    assert run(["simplicial", "--model", "uniform_unit", "--point", "zero",
                "--n", 6, "--d", 2, "--kmax", kmax, "--seeds", seeds,
                "--seed", 11, "--mc-draws", 1000, "--out", out]) == 0
    result = simplicial.block_depth_experiment(
        uniform_model(-1.0, 1.0), Point.zero(), n=6, d=2, k_max=kmax,
        seeds=seeds, master_seed=11, mc_draws=1000)
    N = result.n_subsets
    rows = [[seed, k, z, N, z / N]
            for seed, counts in zip(result.seeds.tolist(),
                                    result.block_counts.tolist())
            for k, z in enumerate(counts, start=1)]
    assert len(rows) > TABLE_BATCH
    assert (result.seeds >= 2 ** 63).any()
    assert len({row[2] for row in rows}) > 2
    assert ((out / "simplicial.csv").read_bytes()
            == csv_oracle(["seed", "k", "Z", "N", "ratio"], rows))


def test_blocks_outputs_pinned(tmp_path):
    # depth simplicial at the benchmark's blocks shape (uniform(0,1) at
    # 0.5, n 4, d 2, kmax 200, 50 seeds): the bytes that the hull counts'
    # plane layout and the text join of simplicial.csv must not move
    model = tmp_path / "uniform01.json"
    model.write_text(json.dumps({"family": "uniform", "lo": 0.0, "hi": 1.0}))
    point = tmp_path / "median.json"
    point.write_text(json.dumps({"coords": [0.5] * 400}))
    out = tmp_path / "blocks"
    assert run(["simplicial", "--model", model, "--point", point, "--n", 4,
                "--d", 2, "--kmax", 200, "--seeds", 50, "--seed", 7,
                "--out", out]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("summary.json", "simplicial.csv")} == {
        "summary.json":
            "fa367730195745e69417efd6efbc619b9fd92f2a0c117ea7de2eb89f1cad1ac2",
        "simplicial.csv":
            "3cc71113391489e675a6f638f93975cf657647c5725369b09fe02e4f0cb1c9ba",
    }


def test_plotdata_echoes_its_config(tmp_path):
    out = tmp_path / "b"
    assert run(BOUNDS + ["--depths", "4,16", "--out", out]) == 0
    pout = tmp_path / "p"
    assert run(["plotdata", "--input", out / "summary.json",
                "--out", pout]) == 0
    echo = json.loads((pout / "config.json").read_text())
    assert echo == {"input": str(out / "summary.json"), "out": str(pout)}


def test_plotdata_rejects_a_non_numeric_abscissa(tmp_path, capsys):
    doc = tmp_path / "summary.json"
    doc.write_text(json.dumps({"fraction_zero": 0.5, "K": "2,3"}))
    assert run(["plotdata", "--input", doc, "--out", tmp_path / "p"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "p").exists()


def test_depths_as_json_list(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depths": [4, 16]}))
    assert run(BOUNDS + ["--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run(BOUNDS + ["--depths", "4,16", "--out", tmp_path / "b"]) == 0
    echo = json.loads((tmp_path / "a" / "config.json").read_text())
    assert echo["depths"] == "4,16"
    for name in ("summary.json", "markov_curve.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


@pytest.mark.parametrize("depths", [[4, 0], [4, "x"], [[4]], []],
                         ids=["zero", "not-int", "nested", "empty"])
def test_bad_depth_list_is_config_error(tmp_path, capsys, depths):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depths": depths}))
    assert run(BOUNDS + ["--config", cfg, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("config error: depths")
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# The parser: main builds only the subcommand it runs, with the full
# parser's text
# ---------------------------------------------------------------------------

PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["frobnicate"],
    *([name, "--help"] for name in COMMANDS),
    *([name, "--bogus", "1"] for name in COMMANDS),
    ["empirical", "--n", "x"],
    ["admissible", "--assumptions", "X"],
    ["simplicial", "--seed"],
]


def _exit(call, capsys) -> tuple:
    """The exit code, stdout and stderr of ``call``, which argparse ends."""
    with pytest.raises(SystemExit) as exc:
        call()
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSER_ARGVS,
                         ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_as_the_full_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _exit(lambda: build_parser().parse_args(argv), capsys)
    assert _exit(lambda: main(argv), capsys) == expected


@pytest.mark.parametrize("argv", [["empirical", "--help"], ["-h"],
                                  ["bounds", "--bogus"]])
def test_main_without_argv_parses_sys_argv(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["depth", *argv])
    expected = _exit(lambda: build_parser().parse_args(), capsys)
    assert _exit(main, capsys) == expected


def test_main_without_argv_runs_sys_argv(tmp_path, monkeypatch):
    argv = [str(a) for a in COLLAPSE]
    monkeypatch.setattr(sys, "argv",
                        ["depth", *argv, "--out", str(tmp_path / "a")])
    assert main() == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("summary.json", "empirical.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_a_run_builds_only_its_subcommand_once(tmp_path, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    cli._command_parser.cache_clear()
    assert run(COLLAPSE + ["--out", tmp_path / "a"]) == 0
    assert run(COLLAPSE + ["--out", tmp_path / "b"]) == 0
    assert built == ["empirical"]


def test_build_parser_holds_every_subcommand():
    assert not inspect.signature(build_parser).parameters
    sub, = (action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMANDS)
