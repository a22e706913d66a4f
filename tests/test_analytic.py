import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from depthlab import (
    GridFunction,
    Point,
    PowerTail,
    band_depth_1d,
    brownian_depths,
    dual_norm,
    gaussian_model,
    gaussian_sequence_depth,
    modified_band_depth,
    rademacher_classify,
    series_report,
    stable_cdf,
    stable_depth,
    stable_model,
)
from depthlab import models, quadrature, special
from depthlab.cli import main as cli_main
from depthlab.errors import (
    GridCoverageError,
    HeterogeneousModelError,
    QuadratureError,
)
from depthlab.models import _column_rng, stable_law
from depthlab.models import SequenceModel

BASEL = math.pi ** 2 / 6.0


# -- dual norms ---------------------------------------------------------------

def test_dual_norm_examples():
    assert dual_norm([3.0, 4.0], 2.0) == pytest.approx(5.0)
    assert dual_norm([1.0, -2.0, 0.5], 1.0) == pytest.approx(2.0)
    assert dual_norm([1.0, 1.0], 1.5) == pytest.approx(2.0 ** (1.0 / 3.0))


def _unit_p_candidates(rng, length, p, count=4000):
    xs = rng.standard_normal((count, length))
    xs[np.abs(xs) < 1e-12] = 1.0
    norms = np.sum(np.abs(xs) ** p, axis=1) ** (1.0 / p)
    return xs / norms[:, None]


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_dual_norm_brute_force(p):
    rng = _column_rng(77, int(p * 10))
    for _ in range(6):
        length = int(rng.integers(1, 5))
        y = rng.standard_normal(length) * 2.0
        target = dual_norm(y, p)
        cands = _unit_p_candidates(rng, length, p)
        # attaining vector: conjugate-power pattern (p>1) or best axis (p<=1)
        if p > 1.0:
            q = p / (p - 1.0)
            star = np.sign(y) * np.abs(y) ** (q - 1.0)
            if np.any(star != 0.0):
                star /= np.sum(np.abs(star) ** p) ** (1.0 / p)
                cands = np.vstack([cands, star])
        else:
            star = np.zeros(length)
            star[np.argmax(np.abs(y))] = np.sign(y[np.argmax(np.abs(y))]) or 1.0
            cands = np.vstack([cands, star])
        vals = np.abs(cands) @ np.abs(y)
        assert np.max(vals) <= target + 1e-9
        assert np.max(vals) == pytest.approx(target, abs=1e-3)


# -- stable depth -------------------------------------------------------------

def test_stable_depth_examples():
    m2 = stable_model(2.0)
    assert stable_depth(Point.zero(), m2).value == pytest.approx(0.5)
    r = stable_depth(Point((1.0,)), m2)
    assert r.value == pytest.approx(1.0 - ndtr(1.0), abs=1e-12)
    m1 = stable_model(1.0)
    r1 = stable_depth(Point((1.0,)), m1)
    assert r1.value == pytest.approx(0.25, abs=1e-12)
    # p = 1.5, q = 3: the depth is the CDF at -norm, and the certificate
    # carries its error bound
    r15 = stable_depth(Point((1.0, -1.0)), stable_model(1.5))
    tail, err = stable_cdf(1.5, -(2.0 ** (1.0 / 3.0)))
    assert r15.value == tail
    assert r15.certificate.detail["cdf_stderr"] == err <= 1e-8


def test_stable_depth_keeps_far_tail_precision():
    # 1 - P(S <= x) reads 0 here; the tail is Gamma(p) sin(pi p/2)/pi x^-p
    # up to a relative O(x^-p) term
    p, x = 1.5, 1e12
    r = stable_depth(Point((x,)), stable_model(p))
    tail = math.gamma(p) * math.sin(math.pi * p / 2.0) / math.pi * x ** -p
    assert r.value > 0.0
    assert abs(r.value - tail) <= r.certificate.detail["cdf_stderr"]


def test_stable_depth_antitone_and_centered():
    for p in (0.5, 1.0, 1.5, 2.0):
        m = stable_model(p)
        assert stable_depth(Point.zero(), m).value == 0.5
        values = [stable_depth(Point((x,)), m).value for x in (0.2, 0.7, 1.9, 4.0)]
        assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))


def test_stable_depth_divergent_norm_is_zero_certified():
    m = stable_model(2.0)
    r = stable_depth(Point((), tail=PowerTail(1.0, -0.4)), m)
    assert r.value == 0.0 and r.zero_certified
    # p <= 1 uses the sup norm: a bounded nonvanishing tail stays positive
    m1 = stable_model(1.0)
    r1 = stable_depth(Point((), tail=PowerTail(0.5, 0.0)), m1)
    assert r1.value == pytest.approx(1.0 - (0.5 + math.atan(0.5) / math.pi))


def test_stable_depth_heterogeneous_error():
    m = SequenceModel(laws=(stable_law(1.0), stable_law(2.0)))
    with pytest.raises(HeterogeneousModelError):
        stable_depth(Point((1.0, 1.0)), m)
    with pytest.raises(HeterogeneousModelError):
        stable_depth(Point((1.0,)), gaussian_model())


def test_stable_cdf_matches_levy_stable():
    # levy_stable returns exactly 1/2 below |x| = 0.01 and 1 from x = 1000,
    # so the probes stay between
    from scipy import stats
    for p in (0.5, 1.5, 1.9):
        for x in (-10.0, -3.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 3.0, 10.0):
            value, err = stable_cdf(p, x)
            assert 0.0 < err <= 1e-8
            assert value == pytest.approx(
                float(stats.levy_stable.cdf(x, p, 0.0)), abs=1e-9)


def test_stable_cdf_far_tail():
    # 1 - F(30) at p = 1.99, from a 40-digit evaluation of the integral
    assert 1.0 - stable_cdf(1.99, 30.0)[0] == pytest.approx(5.762557493533e-6,
                                                           rel=1e-6)
    assert stable_cdf(1.99, -30.0)[0] == pytest.approx(5.762557493533e-6,
                                                       rel=1e-6)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
def test_stable_cdf_symmetry_and_limits(p):
    assert stable_cdf(p, 0.0) == (0.5, 0.0)
    assert stable_cdf(p, math.inf) == (1.0, 0.0)
    assert stable_cdf(p, -math.inf) == (0.0, 0.0)
    for x in (0.01, 0.7, 2.0, 50.0):
        assert stable_cdf(p, -x)[0] == pytest.approx(1.0 - stable_cdf(p, x)[0],
                                                     abs=1e-15)
    with pytest.raises(ValueError):
        stable_cdf(2.5, 1.0)


def test_stable_cdf_jumps_at_p2():
    # exp(-|t|^p) tends to N(0, 2) as p -> 2, while p = 2 is N(0, 1)
    for x in (-3.0, -1.0, 0.3, 1.0, 2.0, 4.0):
        assert abs(stable_cdf(1.9999, x)[0] - ndtr(x / math.sqrt(2.0))) < 1e-5
        assert stable_cdf(2.0, x) == (special.ndtr(x), 0.0)
        assert special.ndtr(x) == pytest.approx(float(ndtr(x)), rel=1e-15)


def test_stable_cdf_quadrature_gate(monkeypatch, tmp_path):
    # split only at g = 50 and g = e^-50 and capped at two panels, the
    # shared rule cannot bring the integral within 1e-8
    monkeypatch.setattr(models, "_STABLE_LEVELS",
                        np.array([math.log(50.0), -50.0]))
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
    with pytest.raises(QuadratureError) as exc:
        stable_cdf(1.5, 1.0)
    assert exc.value.partial > 0.0
    stable = tmp_path / "stable.json"
    stable.write_text(json.dumps({"family": "stable", "p": 1.5}))
    assert cli_main(["analytic", "--model", str(stable), "--point",
                     "inverse-k", "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("rising", [True, False])
def test_stable_crossings_keep_the_outer_side(rising):
    # each point lies within one final bracket (1380 / 47^3) of its
    # crossing, the first on the side where f >= level, the last where
    # f <= level; a level beyond f's range sits at an end
    def f(u):
        v = np.sinh(u / 50.0) * 60.0
        return v if rising else -v

    levels = np.array([3.9, 0.0, -50.0, 1e9])
    u = models._crossings(f, levels, -690.0, 690.0,
                          np.array([1.0, 0.0, -1.0, 1.0]))
    roots = 50.0 * np.arcsinh(levels[:3] / 60.0) * (1.0 if rising else -1.0)
    assert np.all(np.abs(u[:3] - roots) <= 1380.0 / 47 ** 3)
    assert f(u[0]) >= 3.9 and f(u[2]) <= -50.0
    assert u[3] == (690.0 if rising else -690.0)


def _scipy_loaded(code):
    """The scipy modules loaded after running ``code`` in a fresh
    interpreter, from the last line it prints."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sorted("
         "m for m in sys.modules if m.startswith('scipy'))) or 'none')"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_package_import_leaves_scipy_out():
    # the package's special functions and quadrature are its own, so
    # neither the library nor the CLI loads any part of scipy, whose
    # special-function module alone took over half of the start-up
    assert _scipy_loaded("import depthlab, depthlab.cli") == ["none"]


def test_commands_leave_scipy_out(tmp_path):
    # the stable CDF, the Fisher information, the Hellinger affinities, the
    # normal CDF and zeta sums, and every sampler run on the package's own
    # code
    stable = tmp_path / "stable.json"
    stable.write_text(json.dumps({"family": "stable", "p": 1.5}))
    calls = [
        ["analytic", "--model", str(stable), "--point", "inverse-k"],
        ["analytic", "--model", "gaussian_unit", "--point", "inverse-k"],
        ["bounds", "--model", "gaussian_unit", "--point", "inverse-k"],
        ["admissible", "--model", "gaussian_unit", "--point", "inverse-k"],
        ["empirical", "--model", "gaussian_unit", "--point", "inverse-k",
         "--n", "3", "--K", "20", "--seeds", "4", "--seed", "1"],
        ["simplicial", "--model", "uniform_unit", "--point", "zero",
         "--n", "4", "--d", "2", "--kmax", "3", "--seeds", "2", "--seed",
         "1", "--mc-draws", "100"],
    ]
    code = "from depthlab.cli import main\n" + "".join(
        f"assert main({args + ['--out', str(tmp_path / str(i))]!r}) == 0\n"
        for i, args in enumerate(calls))
    assert _scipy_loaded(code) == ["none"]
    summary = json.loads((tmp_path / "3" / "summary.json").read_text())
    assert summary["decision"] == "POSITIVE"


# -- gaussian sequence depth --------------------------------------------------

def test_gaussian_depth_examples():
    g = gaussian_model()
    assert gaussian_sequence_depth(Point.zero(), g).value == pytest.approx(0.5)
    r = gaussian_sequence_depth(Point.inverse_k(1.0), g)
    assert r.value == pytest.approx(float(ndtr(-math.pi / math.sqrt(6.0))),
                                    abs=1e-12)
    r2 = gaussian_sequence_depth(Point.inverse_k(0.5), g)
    assert r2.zero_certified and r2.value == 0.0
    assert r2.certificate.kind == "divergence"


def test_gaussian_matches_stable_p2():
    rng = _column_rng(5150, 1)
    for _ in range(10):
        width = int(rng.integers(1, 7))
        scales = rng.uniform(0.5, 2.0, width)
        coords = rng.standard_normal(width)
        a = Point(tuple(coords))
        g = gaussian_model(scales=scales.tolist())
        s = SequenceModel(laws=tuple(stable_law(2.0, sc) for sc in scales))
        assert gaussian_sequence_depth(a, g).value == pytest.approx(
            stable_depth(a, s).value, abs=1e-12)


# -- Brownian example ---------------------------------------------------------

def test_brownian_depths_examples():
    zero = GridFunction.from_callable(lambda t: 0.0, k_max=64)
    assert brownian_depths(zero, 64) == (pytest.approx(0.5), pytest.approx(0.5))

    wedge = GridFunction.from_callable(lambda t: math.sqrt(1.0 + t), k_max=64)
    ev, _ = brownian_depths(wedge, 64)
    assert ev == pytest.approx(1.0 - ndtr(1.0), abs=1e-12)

    ident = GridFunction.from_callable(lambda t: t, k_max=64)
    ev_i, diff_i = brownian_depths(ident, 64)
    assert diff_i == pytest.approx(float(ndtr(-1.0 / math.sqrt(2.0))), abs=1e-12)


def test_brownian_grid_coverage_error():
    bad = GridFunction(np.linspace(0.0, 1.0, 7), np.zeros(7))
    with pytest.raises(GridCoverageError) as err:
        brownian_depths(bad, 8)
    assert err.value.missing


def test_brownian_overflow_reports_zero():
    # 1 - Phi(sup) underflows to exactly 0.0 once sup passes about 38.5,
    # far below a jump of 1e9 (or 1e300)
    for jump in (40.0, 1e9, 1e300):
        f = GridFunction.from_callable(
            lambda t: jump if t >= 0.999 else 0.0, k_max=8)
        ev, diff = brownian_depths(f, 1)
        assert diff == 0.0


# -- Rademacher classification ------------------------------------------------

def test_rademacher_classify_examples():
    spike = Point((0.0, 0.0, 0.0, 0.0, 2.0))
    c1 = rademacher_classify(spike)
    assert c1.label == "ZERO" and "sup" in c1.reason

    c2 = rademacher_classify(Point.zero())
    assert c2.label == "POSITIVE"

    c3 = rademacher_classify(Point.inverse_k(1.0))
    assert c3.label == "POSITIVE"
    assert c3.series == pytest.approx(BASEL, abs=1e-9) and c3.sup == 1.0

    c4 = rademacher_classify(Point.inverse_k(0.4))
    assert c4.label == "ZERO" and "series" in c4.reason


def test_rademacher_zero_depth_brute_force_at_center():
    # inf over sign-pattern directions of P(sum alpha_k eps_k >= 0) is 1/2
    from depthlab.bounds import rademacher_depth_over
    from depthlab.models import Direction
    dirs = [Direction.coordinate(k) for k in range(1, 4)]
    dirs += [Direction((1, 2, 3), signs) for signs in
             [(1., 1., 1.), (1., -1., 1.), (1., 1., -1.), (1., -1., -1.)]]
    assert rademacher_depth_over(Point.zero(), dirs) == pytest.approx(0.5)


def test_rademacher_scale_consistency_flip():
    a = Point((0.9, 0.4))
    assert rademacher_classify(a).label == "POSITIVE"
    factor = 1.3  # > 1/sup raises the sup above 1
    flipped = Point(tuple(factor * c for c in a.coords))
    assert rademacher_classify(flipped).label == "ZERO"


# -- band depths --------------------------------------------------------------

def test_band_depth_1d_examples():
    unif = lambda x: min(max(x, 0.0), 1.0)
    assert band_depth_1d(0.5, unif, 2) == pytest.approx(0.5)
    assert band_depth_1d(-1.0, unif, 2) == pytest.approx(0.0)
    assert band_depth_1d(0.5, unif, 3) == pytest.approx(0.75)


def test_band_depth_1d_monte_carlo_cross_check():
    rng = _column_rng(88, 1)
    for r in (2, 3):
        draws = rng.random((100_000, r))
        mc = np.mean((draws.min(axis=1) <= 0.5) & (0.5 <= draws.max(axis=1)))
        value = band_depth_1d(0.5, lambda x: min(max(x, 0.0), 1.0), r)
        assert value == pytest.approx(mc, abs=0.006)


def test_band_depth_1d_atom_left_limit():
    # point mass at 0: F(0)=1, F(0-)=0, so the band always contains 0
    cdf = lambda x: 1.0 if x >= 0.0 else 0.0
    cdf_left = lambda x: 1.0 if x > 0.0 else 0.0
    assert band_depth_1d(0.0, cdf, 2, cdf_left=cdf_left) == pytest.approx(1.0)


def _const_path(grid, v):
    return GridFunction(grid, np.full_like(grid, v))


def test_modified_band_depth_examples():
    grid = np.linspace(0.0, 1.0, 33)
    a = _const_path(grid, 0.0)
    assert modified_band_depth(a, [_const_path(grid, -1.0),
                                   _const_path(grid, 1.0)], r=2) == 1.0
    above = _const_path(grid, 5.0)
    assert modified_band_depth(above, [_const_path(grid, -1.0),
                                       _const_path(grid, 1.0)], r=2) == 0.0
    pair = [_const_path(grid, -1.0), _const_path(grid, 1.0)]
    assert modified_band_depth(_const_path(grid, 1.0), pair, r=2) == 1.0
    with pytest.raises(ValueError):
        modified_band_depth(a, pair, r=3)


def test_modified_band_depth_converges_to_analytic_integral():
    # paths are constant N(0,1) lines: integrand is 1-Phi(a)^2-(1-Phi(a))^2
    grid = np.linspace(0.0, 1.0, 65)
    a_vals = 0.3 * np.sin(2.0 * math.pi * grid) + 0.1
    a = GridFunction(grid, a_vals)
    rng = _column_rng(1234, 2)
    paths = [_const_path(grid, z) for z in rng.standard_normal(1000)]
    estimate = modified_band_depth(a, paths, r=2)
    integrand = 1.0 - ndtr(a_vals) ** 2 - (1.0 - ndtr(a_vals)) ** 2
    oracle = float(np.trapezoid(integrand, grid))
    assert estimate == pytest.approx(oracle, abs=0.02)


# -- weighted series ----------------------------------------------------------

def test_weighted_series_examples():
    g = gaussian_model()
    assert series_report(Point.zero(), g).value == 0.0
    assert series_report(Point.inverse_k(1.0), g).value == pytest.approx(
        BASEL, abs=1e-6)
    assert series_report(Point((1.0,) * 4), g).value == 4.0
    assert series_report(Point.inverse_k(0.5), g).value == math.inf
