"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import itertools
import json
import math
import time

import numpy as np
from scipy import stats
from scipy.optimize import minimize
from scipy.special import ndtr

from depthlab import (
    Direction,
    DirectionFamily,
    Point,
    PowerTail,
    empirical_block_depth,
    empirical_half_space_depth,
    fisher_information,
    fourth_moment_ratio,
    gaussian_model,
    gaussian_sequence_depth,
    hellinger_affinities,
    k_functional,
    kakutani_product,
    markov_bound_curve,
    markov_zero_certificate,
    normal_density,
    positivity_decision,
    small_point_lower_bound,
    rademacher_model,
    sample,
    stable_depth,
    uniform_model,
    zero_depth_experiment,
)
from depthlab.cli import main as cli_main
from depthlab.models import SequenceModel, _column_rng, project_sample, stable_law


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} - {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


# -----------------------------------------------------------------------------
# 1. Gaussian closed form against a Monte Carlo direction infimum
# -----------------------------------------------------------------------------

def test_criterion_1_gaussian_formula():
    t0 = time.time()
    g = gaussian_model()
    rng = _column_rng(11, 0)
    n, width, n_dirs = 10 ** 5, 6, 500
    worst_gap, worst_excess = 0.0, 0.0
    for i in range(20):
        coords = rng.standard_normal(width)
        coords *= rng.uniform(0.3, 1.5) / np.linalg.norm(coords)
        a = Point(tuple(coords))
        closed = 1.0 - float(ndtr(np.linalg.norm(coords)))
        s = sample(g, n, width, seed=9100 + i)
        random_family = DirectionFamily.random_sparse(n_dirs, 3, seed=50 + i)
        mc_inf, _ = empirical_half_space_depth(a, s, random_family)
        optimal = Direction(tuple(range(1, width + 1)), tuple(coords))
        opt_val, _ = empirical_half_space_depth(
            a, s, DirectionFamily.explicit([optimal]))
        worst_excess = max(worst_excess, closed - mc_inf)
        worst_gap = max(worst_gap, abs(min(mc_inf, opt_val) - closed))
    elapsed = time.time() - t0
    ok = worst_excess <= 0.005 and worst_gap <= 0.01 and elapsed < 120.0
    report(1, "Gaussian closed form matches MC direction infimum", ok,
           f"max deficit {worst_excess:.4f}, max gap {worst_gap:.4f}, "
           f"{elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 2. Stable closed form against a brute-force direction grid
# -----------------------------------------------------------------------------

def _stable_bf_depth(tau, c, p):
    """inf over gridded directions (supports <= 3, 50-point grid) of the exact
    single-direction probability 1 - F(<alpha,tau>/||alpha*c||_p)."""
    grid = np.linspace(-1.0, 1.0, 50)
    best_ratio = -math.inf
    idx = range(len(tau))
    for size in (1, 2, 3):
        for support in itertools.combinations(idx, size):
            axes = np.meshgrid(*([grid] * size), indexing="ij")
            alphas = np.stack([ax.ravel() for ax in axes], axis=1)
            num = alphas @ tau[list(support)]
            den = np.sum(np.abs(alphas * c[list(support)]) ** p,
                         axis=1) ** (1.0 / p)
            keep = den > 0.0
            best_ratio = max(best_ratio, float(np.max(num[keep] / den[keep])))
    if p == 2.0:
        return 1.0 - float(ndtr(best_ratio))
    if p == 1.0:
        return 0.5 - math.atan(best_ratio) / math.pi
    return 1.0 - float(stats.levy_stable.cdf(best_ratio, p, 0.0))


def test_criterion_2_stable_formula():
    t0 = time.time()
    rng = _column_rng(22, 0)
    worst = 0.0
    for p in (1.0, 2.0, 1.5):
        for i in range(10):
            tau = rng.uniform(-1.5, 1.5, 3)
            c = rng.uniform(0.5, 2.0, 3)
            model = SequenceModel(laws=tuple(stable_law(p, sc) for sc in c))
            closed = stable_depth(Point(tuple(tau)), model).value
            bf = _stable_bf_depth(tau, c, p)
            worst = max(worst, abs(bf - closed))
    elapsed = time.time() - t0
    ok = worst <= 0.01 and elapsed < 300.0
    report(2, "stable closed form matches brute-force direction search",
           ok, f"max |bf-closed| {worst:.5f}, {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 3. Markov certificate: exact decay and MC validity
# -----------------------------------------------------------------------------

def test_criterion_3_markov_certificate():
    g = gaussian_model()
    ones = Point((), tail=PowerTail(1.0, 0.0))
    curve = markov_bound_curve(ones, g, 10 ** 4)
    ms = np.arange(1, 10 ** 4 + 1)
    rel_err = float(np.max(np.abs(curve * ms - 1.0)))

    n = 10 ** 5
    s = sample(g, n, 64, seed=333)
    cert = markov_zero_certificate(ones, g, [4, 16, 64])
    mc_ok = True
    for w, b in zip(cert.witnesses, cert.bound_values):
        target = sum(c * ones.value_at(k) for k, c in zip(w.support, w.coeffs))
        phat = float(np.mean(project_sample(w, s) >= target))
        mc_ok &= phat <= b + 3.0 * math.sqrt(b * (1.0 - b) / n)
    ok = rel_err < 1e-12 and mc_ok and cert.status == "VANISHING"
    report(3, "Markov certificate: B_m = 1/m exactly and MC-consistent",
           ok, f"max rel err {rel_err:.2e}")


# -----------------------------------------------------------------------------
# 4. Consistency-failure demo for the coordinate family
# -----------------------------------------------------------------------------

def test_criterion_4_consistency_failure_demo():
    t0 = time.time()
    a = Point.inverse_k(1.0)
    res = zero_depth_experiment(gaussian_model(), a, n=2, K=200, seeds=100,
                                master_seed=1)
    truth = gaussian_sequence_depth(a, gaussian_model()).value
    expected = 1.0 - float(ndtr(math.pi / math.sqrt(6.0)))
    elapsed = time.time() - t0
    ok = (res.fraction_zero >= 0.99
          and abs(truth - expected) <= 1e-4
          and truth > 0.0
          and res.consistency_failure is True
          and elapsed < 60.0)
    report(4, "empirical depth collapses while true depth ~ 0.0999", ok,
           f"fraction_zero {res.fraction_zero:.3f}, true {truth:.5f}, "
           f"{elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 5. Block-depth failure demo plus per-block U-statistic consistency
# -----------------------------------------------------------------------------

def test_criterion_5_simplicial_failure_demo():
    from depthlab import block_depth_experiment
    model = uniform_model(0.0, 1.0)
    a = Point.periodic([0.5, 0.5], repeats=200)
    res = block_depth_experiment(model, a, n=4, d=2, k_max=200, seeds=100,
                           master_seed=2, mc_draws=10 ** 5)
    demo_ok = (res.fraction_zero >= 0.99 and res.lambda_hat > 0.2
               and res.lambda_stderr < 0.01)

    # large-sample consistency of the per-block estimator at n = 60
    ratios = []
    for i in range(10):
        s = sample(model, 60, 2, seed=62000 + i)
        ratios.append(empirical_block_depth(Point((0.5, 0.5)), s, d=2,
                                            k_max=1).depth)
    mean_ratio = float(np.mean(ratios))
    combined = math.sqrt(np.var(ratios, ddof=1) / len(ratios)
                         + res.lambda_stderr ** 2)
    lln_ok = abs(mean_ratio - res.lambda_hat) <= 3.0 * combined
    report(5, "block depth collapses while lambda > 0.2",
           demo_ok and lln_ok,
           f"fraction_zero {res.fraction_zero:.3f}, "
           f"lambda {res.lambda_hat:.4f}+-{res.lambda_stderr:.4f}, "
           f"Z/N(n=60) {mean_ratio:.4f}")


# -----------------------------------------------------------------------------
# 6. Paley-Zygmund suite: moment ratios and the 3/32 bound
# -----------------------------------------------------------------------------

def test_criterion_6_paley_zygmund_suite():
    rng = _column_rng(66, 0)
    families = {
        "gaussian": (gaussian_model(), 3.0),
        "rademacher": (rademacher_model(), 1.0),
        "uniform": (uniform_model(-1.0, 1.0), 9.0 / 5.0),
    }
    ratio_ok = True
    for name, (model, c) in families.items():
        for _ in range(1000):
            size = int(rng.integers(1, 7))
            support = tuple(sorted(rng.choice(30, size=size, replace=False) + 1))
            coeffs = rng.standard_normal(size)
            coeffs[coeffs == 0.0] = 1.0
            ratio = fourth_moment_ratio(model, Direction(support, tuple(coeffs)))
            ratio_ok &= ratio >= 1.0 / (3.0 * c) - 1e-12

    r_model = rademacher_model()
    width, n = 20, 2000
    accepted = 0
    depth_ok = True
    threshold = 3.0 / 32.0 - 3.0 * math.sqrt(
        (3.0 / 32.0) * (29.0 / 32.0) / n)
    tries = 0
    while accepted < 50 and tries < 500:
        tries += 1
        mask = rng.random(width) < 0.5
        coords = rng.uniform(-0.2, 0.2, width) * mask
        a = Point(tuple(coords))
        if small_point_lower_bound(a) is None:
            continue
        accepted += 1
        s = sample(r_model, n, width, seed=70000 + tries)
        fam_r = DirectionFamily.random_sparse(100, 4, seed=400 + tries)
        v1, _ = empirical_half_space_depth(a, s, fam_r)
        v2, _ = empirical_half_space_depth(
            a, s, DirectionFamily.coordinates(width))
        depth_ok &= min(v1, v2) >= threshold
    ok = ratio_ok and depth_ok and accepted == 50
    report(6, "PZ suite: moment ratios >= 1/(3c); accepted points >= 3/32",
           ok, f"{accepted} accepted points, threshold {threshold:.4f}")


# -----------------------------------------------------------------------------
# 7. K-functional exactness and duality
# -----------------------------------------------------------------------------

def _k_brute_force(x, t):
    x = np.asarray(x, dtype=float)

    def objective(xp):
        return np.sum(np.abs(xp)) + t * np.linalg.norm(x - xp)

    best = math.inf
    for start in (np.zeros_like(x), x.copy(), 0.5 * x):
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxiter": 40000, "maxfev": 40000})
        best = min(best, float(res.fun))
    return best


def _duality_grid_sup(x, t):
    x = np.asarray(x, dtype=float)
    n = x.size

    def best_on(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        ys = np.stack([g.ravel() for g in grids], axis=1)
        feas = np.linalg.norm(ys, axis=1) <= t
        vals = ys[feas] @ x
        i = int(np.argmax(vals))
        return ys[feas][i], float(vals[i])

    y0, v0 = best_on([np.linspace(-1, 1, 21)] * n)
    axes = [np.clip(np.linspace(cc - 0.1, cc + 0.1, 21), -1, 1) for cc in y0]
    _, v1 = best_on(axes)
    return max(v0, v1)


def test_criterion_7_k_functional():
    rng = _column_rng(77, 1)
    exact_ok, worst_exact = True, 0.0
    for _ in range(100):
        length = int(rng.integers(1, 4))
        x = rng.standard_normal(length) * 2.0
        t = float(rng.uniform(0.05, 3.0))
        diff = abs(k_functional(x, t) - _k_brute_force(x, t))
        worst_exact = max(worst_exact, diff)
        exact_ok &= diff <= 1e-6
    dual_ok, worst_dual = True, 0.0
    for _ in range(10):
        length = int(rng.integers(1, 5))
        x = rng.standard_normal(length)
        x /= max(1.0, float(np.sum(np.abs(x))))
        t = float(rng.uniform(0.4, 2.0))
        diff = abs(k_functional(x, t) - _duality_grid_sup(x, t))
        worst_dual = max(worst_dual, diff)
        dual_ok &= diff <= 2e-2
    report(7, "K-functional exact vs brute force; duality identity",
           exact_ok and dual_ok,
           f"max split err {worst_exact:.2e}, max duality err {worst_dual:.4f}")


# -----------------------------------------------------------------------------
# 8. Admissibility suite
# -----------------------------------------------------------------------------

def test_criterion_8_admissibility_suite():
    phi = normal_density()
    fisher_ok = abs(fisher_information(phi) - 1.0) <= 1e-6
    hell_ok = all(
        abs(hellinger_affinities(phi, [m])[0] - math.exp(-m * m / 8.0)) <= 1e-8
        for m in (0.5, 1.0, 2.0))
    conv = kakutani_product(phi, Point(tuple(1.0 / k for k in range(1, 101)),
                                       tail=PowerTail(1.0, -1.0)))
    div = kakutani_product(phi, Point((), tail=PowerTail(1.0, -0.5)))
    kak_ok = conv.positive and conv.product > 0.0 and not div.positive

    g = gaussian_model()
    rng = _column_rng(88, 2)
    agree = True
    for i in range(100):
        if i % 3 == 0:
            a = Point((), tail=PowerTail(float(rng.uniform(0.2, 2.0)),
                                         float(rng.uniform(-1.5, -0.2))))
        else:
            a = Point(tuple(rng.standard_normal(int(rng.integers(1, 9)))))
        decision = positivity_decision(a, g).decision
        positive = gaussian_sequence_depth(a, g).value > 0.0
        agree &= decision == ("POSITIVE" if positive else "ZERO")
    ok = fisher_ok and hell_ok and kak_ok and agree
    report(8, "Admissibility: Fisher info, affinities, Kakutani, positivity",
           ok)


# -----------------------------------------------------------------------------
# 9. Determinism of the criteria 3-5 CLI configs
# -----------------------------------------------------------------------------

def _run_cli(args):
    assert cli_main([str(a) for a in args]) == 0


def test_criterion_9_determinism(tmp_path):
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps({"coords": [],
                                "tail": {"coef": 1.0, "exponent": 0.0}}))
    unif = tmp_path / "unif.json"
    unif.write_text(json.dumps({"family": "uniform", "lo": 0.0, "hi": 1.0}))
    med = tmp_path / "median.json"
    med.write_text(json.dumps({"coords": [0.5, 0.5] * 200}))

    configs = {
        "bounds": ["bounds", "--model", "gaussian_unit", "--point", ones,
                   "--depths", "4,16,64", "--curve-max", 10000],
        "empirical": ["empirical", "--model", "gaussian_unit",
                      "--point", "inverse-k", "--n", 2, "--K", 200,
                      "--seeds", 100, "--seed", 1],
        "simplicial": ["simplicial", "--model", unif, "--point", med,
                       "--n", 4, "--d", 2, "--kmax", 200, "--seeds", 100,
                       "--seed", 2],
    }
    csv_names = {"bounds": "markov_curve.csv", "empirical": "empirical.csv",
                 "simplicial": "simplicial.csv"}
    ok = True
    for name, args in configs.items():
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        _run_cli(args + ["--out", out_a])
        _run_cli(args + ["--out", out_b])
        csv_same = ((out_a / csv_names[name]).read_bytes()
                    == (out_b / csv_names[name]).read_bytes())
        json_same = ((out_a / "summary.json").read_bytes()
                     == (out_b / "summary.json").read_bytes())
        ok &= csv_same and json_same
    report(9, "criteria 3-5 configs rerun byte-identically", ok)
