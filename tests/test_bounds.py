import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import ndtr

from depthlab import (
    Direction,
    Point,
    PowerTail,
    fourth_moment_ratio,
    gaussian_model,
    j_functional,
    k_functional,
    kurtosis_bound,
    markov_bound_curve,
    markov_zero_certificate,
    rademacher_tail_lower_bound,
    projection_lower_bound,
    small_point_lower_bound,
    pz_lower_bound,
    rademacher_model,
    sample,
    uniform_model,
    wlln_second_moment,
)
from depthlab import models
from depthlab.analytic import _power_sum, point_sup
from depthlab.bounds import exact_rademacher_probability, rademacher_depth_over
from depthlab.errors import MomentUnavailableError
from depthlab.models import _column_rng, project_sample, stable_model

BASEL = math.pi ** 2 / 6.0
ONES = Point((), tail=PowerTail(1.0, 0.0))  # t_k(a) = 1 for every k


# -- Markov certificates -------------------------------------------------------

def test_markov_constant_point():
    g = gaussian_model()
    cert = markov_zero_certificate(ONES, g, [4, 100])
    assert cert.bound_values == (0.25, 0.01)
    assert cert.status == "VANISHING"
    w4 = cert.witnesses[0]
    assert w4.support == (1, 2, 3, 4) and w4.coeffs == (1.0,) * 4


def test_markov_inverse_k_non_vanishing():
    g = gaussian_model()
    cert = markov_zero_certificate(Point.inverse_k(1.0), g, [10, 200, 3000])
    assert cert.status == "NON-VANISHING"
    assert cert.bound_values[-1] == pytest.approx(6.0 / math.pi ** 2, abs=2e-4)
    assert all(b1 >= b2 for b1, b2 in
               zip(cert.bound_values, cert.bound_values[1:]))


def test_markov_zero_point_has_no_witness():
    with pytest.raises(ValueError):
        markov_zero_certificate(Point.zero(), gaussian_model(), [4])


def test_markov_skips_depths_seeing_only_zeros():
    a = Point((0.0, 0.0, 1.0))
    cert = markov_zero_certificate(a, gaussian_model(), [2, 3])
    assert cert.depths == (3,)
    assert cert.bound_values == (1.0,)


def test_markov_bounds_reproducible_from_witness():
    g = gaussian_model(scales=None, tail=PowerTail(1.0, 0.25))
    a = Point(tuple(0.3 * k for k in range(1, 9)))
    cert = markov_zero_certificate(a, g, [2, 5, 8])
    for i in range(len(cert.depths)):
        assert cert.recompute(i, g) == pytest.approx(cert.bound_values[i],
                                                     rel=1e-12)


@pytest.mark.parametrize("coord,bound", [(1e-100, 1e200), (1e-160, math.inf),
                                         (1e-170, math.inf)])
def test_markov_bounds_of_tiny_points_reproducible(coord, bound):
    # den^2 underflows below about 1e-77; the recomputation divides twice
    model = rademacher_model()
    cert = markov_zero_certificate(Point((coord,)), model, [4])
    assert cert.bound_values[0] == pytest.approx(bound, rel=1e-15)
    assert cert.recompute(0, model) == pytest.approx(cert.bound_values[0],
                                                     rel=1e-12)


def _markov_per_depth(a, model, depths):
    """Depth by depth, each sum restarted at k = 1 and added left to right."""
    kept, witnesses, bounds = [], [], []
    for m in sorted(set(depths)):
        s = 0.0
        for k in range(1, m + 1):
            s += (a.value_at(k) / model.sigma(k)) ** 2
        if s <= 0.0:
            continue
        support = [k for k in range(1, m + 1) if a.value_at(k) != 0.0]
        coeffs = [a.value_at(k) / model.sigma(k) ** 2 for k in support]
        kept.append(m)
        witnesses.append(Direction(tuple(support), tuple(coeffs)))
        bounds.append(1.0 / s)
    return tuple(kept), tuple(witnesses), tuple(bounds)


@pytest.mark.parametrize("a, model, depths", [
    (Point.inverse_k(1.0), gaussian_model(), [300, 7, 7, 1, 64, 300, 2]),
    (Point((0.0, 0.0, 0.7, 0.0, -1.3), tail=PowerTail(0.4, -0.6)),
     gaussian_model(scales=[2.0, 0.5, 3.0], tail=PowerTail(1.1, -0.3)),
     [9, 1, 2, 3, 50, 4, 4, 1000]),
    (Point(tuple(0.1 * k for k in range(1, 40))), uniform_model(-1.0, 1.0),
     [39, 5, 17, 5]),
])
def test_markov_certificate_matches_per_depth_sums(a, model, depths):
    cert = markov_zero_certificate(a, model, depths)
    assert (cert.depths, cert.witnesses, cert.bound_values) == \
        _markov_per_depth(a, model, depths)


def test_markov_bound_holds_in_monte_carlo():
    g = gaussian_model()
    n = 20_000
    s = sample(g, n, 16, seed=97)
    cert = markov_zero_certificate(ONES, g, [4, 16])
    for w, b in zip(cert.witnesses, cert.bound_values):
        target = sum(c * ONES.value_at(k) for k, c in zip(w.support, w.coeffs))
        phat = float(np.mean(project_sample(w, s) >= target))
        assert phat <= b + 3.0 * math.sqrt(b * (1.0 - b) / n)


def test_markov_bound_curve_matches_certificate():
    g = gaussian_model()
    curve = markov_bound_curve(ONES, g, 100)
    assert curve[3] == pytest.approx(0.25, rel=1e-15)
    assert curve[99] == pytest.approx(0.01, rel=1e-15)


@pytest.mark.parametrize("a, model", [
    (Point((), tail=PowerTail(0.7, -0.3)), gaussian_model()),
    (Point.inverse_k(0.5), gaussian_model(tail=PowerTail(1.0, -0.25))),
], ids=["0.7k^-0.3-unit", "k^-0.5-scales-k^-0.25"])
def test_markov_certificate_bounds_equal_curve_bitwise(a, model):
    # windows where a curve read from Point.values (numpy's power) parts
    # from the certificate in the last bit, for one model or the other
    depths = [*range(1, 50), *range(2980, 3030), *range(4440, 4460)]
    cert = markov_zero_certificate(a, model, depths)
    curve = markov_bound_curve(a, model, depths[-1])
    assert cert.depths == tuple(depths)
    assert cert.bound_values == tuple(curve[m - 1] for m in depths)
    # coefficients square sigma_k as a Python float; numpy's square rounds
    # some sigma_k of a k^-0.25 scale tail differently
    assert cert.witnesses[-1].coeffs == tuple(
        a.value_at(k) / model.sigma(k) ** 2 for k in range(1, depths[-1] + 1))


def test_markov_bound_curve_builds_no_law_per_index(monkeypatch):
    model = gaussian_model([2.0, 0.5], tail=PowerTail(1.0, -0.25))
    built = []
    post_init = models.CoordinateLaw.__post_init__

    def counting(self):
        built.append(self.family)
        post_init(self)

    monkeypatch.setattr(models.CoordinateLaw, "__post_init__", counting)
    curve = markov_bound_curve(Point.inverse_k(0.5), model, 10_000)
    assert curve.shape == (10_000,) and built == []


# -- fourth-moment ratios -------------------------------------------------------

def test_fourth_moment_ratio_examples():
    r = rademacher_model()
    assert fourth_moment_ratio(r, Direction.coordinate(1)) == pytest.approx(1.0)
    g = gaussian_model()
    for d in (Direction.coordinate(2),
              Direction.from_mapping({1: 0.3, 4: -1.7, 9: 2.2})):
        assert fourth_moment_ratio(g, d) == pytest.approx(1.0 / 3.0, rel=1e-12)
    pair = Direction.from_mapping({1: 1.0, 2: 1.0})
    assert fourth_moment_ratio(r, pair) == pytest.approx(0.5)


def test_fourth_moment_ratio_brute_force_rademacher():
    rng = _column_rng(404, 1)
    r = rademacher_model()
    for _ in range(20):
        size = int(rng.integers(1, 5))
        coeffs = rng.standard_normal(size)
        d = Direction(tuple(range(1, size + 1)), tuple(coeffs))
        sums = np.array([np.dot(coeffs, signs) for signs in
                         itertools.product((-1.0, 1.0), repeat=size)])
        oracle = float(np.mean(sums ** 2)) ** 2 / float(np.mean(sums ** 4))
        assert fourth_moment_ratio(r, d) == pytest.approx(oracle, rel=1e-12)


def test_fourth_moment_ratio_lower_bound_invariant():
    rng = _column_rng(405, 1)
    models = {
        gaussian_model(): 3.0,
        rademacher_model(): 1.0,
        uniform_model(-1.0, 1.0): 9.0 / 5.0,
    }
    for model, c in models.items():
        assert kurtosis_bound(model) == pytest.approx(c, rel=1e-9)
        for _ in range(200):
            size = int(rng.integers(1, 7))
            support = tuple(sorted(rng.choice(40, size=size, replace=False) + 1))
            coeffs = rng.standard_normal(size)
            coeffs[coeffs == 0.0] = 1.0
            ratio = fourth_moment_ratio(model, Direction(support, tuple(coeffs)))
            assert ratio >= 1.0 / (3.0 * c) - 1e-12


def test_fourth_moment_unavailable_for_stable():
    with pytest.raises(MomentUnavailableError):
        fourth_moment_ratio(stable_model(1.0), Direction.coordinate(1))


# -- Paley-Zygmund lower bound ---------------------------------------------------

def test_pz_lower_bound_examples():
    assert pz_lower_bound(0.5, 1.0) == pytest.approx(0.09375)
    assert pz_lower_bound(1.0 - 1e-12, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert pz_lower_bound(0.5, 3.0) == pytest.approx(0.03125)
    for bad in (0.0, 1.0, -0.3, 1.4):
        with pytest.raises(ValueError):
            pz_lower_bound(bad, 1.0)
    with pytest.raises(ValueError):
        pz_lower_bound(0.5, 0.9)


def test_pz_bound_respected_by_direction_sweep():
    # gaussian model, series 0.2 < (1-delta)^2 at delta=0.5: every direction
    # satisfies P(t_alpha(X) >= t_alpha(a)) = 1 - Phi(<alpha,tau>/||alpha||)
    a = Point((math.sqrt(0.2),))
    bound = pz_lower_bound(0.5, 3.0)
    rng = _column_rng(406, 2)
    tau = a.values(12)
    worst = 1.0
    for _ in range(1000):
        alpha = rng.standard_normal(12)
        prob = 1.0 - ndtr(np.dot(alpha, tau) / np.linalg.norm(alpha))
        worst = min(worst, float(prob))
    assert worst >= bound


# -- the 3/32 bound ---------------------------------------------------------------

def _small_point_feasible_oracle(a: Point, r_scan: int = 400) -> bool:
    s = point_sup(a)
    for r in range(1, r_scan + 1):
        delta = 0.25 / math.sqrt(r)
        if s <= delta and _power_sum(a, 2.0, r) <= 0.25:
            return True
    return False


def test_small_point_bound_examples():
    rep = small_point_lower_bound(Point.zero())
    assert rep is not None and rep.value == pytest.approx(3.0 / 32.0)
    assert rep.params["r"] == 1 and rep.params["delta"] == pytest.approx(0.25)

    assert small_point_lower_bound(Point((1.0,))) is None  # sup forces delta > 1/4
    # 1/(16 s^2) overflows at s = 1e-160, and 16 s^2 underflows at 1e-170
    for tiny in (1e-160, 1e-170):
        assert small_point_lower_bound(Point((tiny,))).params["r"] == 1

    flat = Point((0.05,) * 16)
    assert (small_point_lower_bound(flat) is not None) == _small_point_feasible_oracle(flat)


def test_small_point_bound_matches_exhaustive_oracle_on_random_points():
    rng = _column_rng(407, 3)
    for _ in range(60):
        width = int(rng.integers(1, 12))
        coords = rng.uniform(-0.6, 0.6, width) * (rng.random(width) < 0.7)
        a = Point(tuple(coords))
        assert (small_point_lower_bound(a) is not None) == _small_point_feasible_oracle(a)


def test_small_point_bound_returns_the_least_r():
    # `head` coordinates at the sup s, then smaller ones whose squares sum
    # to 1/4 less a random part of (head - 1) s^2: the least feasible r lies
    # in (1, head], found by the bisection and checked by a scan of every r
    rng = _column_rng(408, 3)
    seen = 0
    for i in range(40):
        s = rng.uniform(0.02, 0.06)
        head = int(rng.integers(2, math.floor(1.0 / (16.0 * s * s)) + 1))
        rest = 0.25 - rng.uniform(0.0, head - 1) * s * s
        w = rng.uniform(0.1, 1.0, int(4.0 * rest / (s * s)) + 1)
        coords = np.concatenate((np.full(head, s),
                                 w * math.sqrt(rest / np.sum(w * w))))
        a = Point(tuple(coords),
                  tail=PowerTail(0.01, -0.75) if i % 3 == 0 else None)
        sup = point_sup(a)
        feasible = [r for r in range(1, math.floor(1.0 / (16.0 * sup * sup)) + 1)
                    if _power_sum(a, 2.0, r) <= 0.25]
        rep = small_point_lower_bound(a)
        assert (rep is None) == (not feasible)
        if feasible:
            assert rep.params["r"] == feasible[0]
            assert rep.params["delta"] == 0.25 / math.sqrt(feasible[0])
            seen += feasible[0] > 1
    assert seen >= 20


def test_small_point_bound_with_divergent_tail_is_not_applicable():
    assert small_point_lower_bound(Point((), tail=PowerTail(0.1, -0.3))) is None


# -- K- and J-functionals ----------------------------------------------------------

def test_k_functional_examples():
    assert k_functional([1.0], 2.0) == pytest.approx(1.0)
    assert k_functional([1.0], 0.5) == pytest.approx(0.5)
    assert k_functional([0.0, 0.0], 3.0) == 0.0


def _k_brute_force(x, t):
    x = np.asarray(x, dtype=float)

    def objective(xp):
        return np.sum(np.abs(xp)) + t * np.linalg.norm(x - xp)

    best = math.inf
    starts = [np.zeros_like(x), x.copy(), 0.5 * x,
              np.clip(x, -np.median(np.abs(x)), np.median(np.abs(x)))]
    for s in starts:
        res = minimize(objective, s, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxiter": 20000, "maxfev": 20000})
        best = min(best, float(res.fun))
    return best


def test_k_functional_matches_exhaustive_splits():
    rng = _column_rng(408, 4)
    for _ in range(25):
        length = int(rng.integers(1, 4))
        x = rng.standard_normal(length) * 2.0
        t = float(rng.uniform(0.05, 3.0))
        assert k_functional(x, t) == pytest.approx(_k_brute_force(x, t),
                                                   abs=1e-6)


def test_k_functional_upper_envelope_and_concavity():
    rng = _column_rng(409, 5)
    ts = np.linspace(0.05, 4.0, 10)
    for _ in range(10):
        x = rng.standard_normal(5)
        vals = np.array([k_functional(x, t) for t in ts])
        assert np.all(np.diff(vals) >= -1e-12)  # nondecreasing in t
        l1 = np.sum(np.abs(x))
        l2 = np.linalg.norm(x)
        for t, v in zip(ts, vals):
            assert v <= min(l1, t * l2) + 1e-12
        chords = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] >= chords - 1e-9)  # concave in t


def _duality_grid_sup(x, t):
    """sup{<x,y> : ||y||_inf <= 1, ||y||_2 <= t} by a refined grid search."""
    x = np.asarray(x, dtype=float)
    n = x.size

    def best_on(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        ys = np.stack([g.ravel() for g in grids], axis=1)
        feas = np.linalg.norm(ys, axis=1) <= t
        if not np.any(feas):
            return None, -math.inf
        vals = ys[feas] @ x
        i = int(np.argmax(vals))
        return ys[feas][i], float(vals[i])

    y0, v0 = best_on([np.linspace(-1, 1, 21)] * n)
    axes = [np.clip(np.linspace(c - 0.1, c + 0.1, 21), -1, 1) for c in y0]
    _, v1 = best_on(axes)
    return max(v0, v1)


def test_k_functional_duality_identity():
    rng = _column_rng(410, 6)
    for _ in range(6):
        length = int(rng.integers(1, 5))
        x = rng.standard_normal(length)
        x /= max(1.0, np.sum(np.abs(x)))
        t = float(rng.uniform(0.4, 2.0))
        # J(y, 1/t) <= 1 is exactly {||y||_inf <= 1, ||y||_2 <= t}
        assert k_functional(x, t) == pytest.approx(
            _duality_grid_sup(x, t), abs=2e-2)


def test_j_functional_examples():
    assert j_functional([3.0, 4.0], 1.0) == pytest.approx(5.0)
    assert j_functional([3.0, 4.0], 0.0) == pytest.approx(4.0)
    assert j_functional([1.0, 1.0, 1.0, 1.0], 1.0) == pytest.approx(2.0)


# -- Rademacher tail bound ---------------------------------------------------------

def test_rademacher_tail_lower_bound_examples():
    rep = rademacher_tail_lower_bound(Point.zero(), c=1.0, t0=1.0)
    assert rep is not None and rep.value == pytest.approx(math.exp(-1.0))
    assert not rep.suspect

    assert rademacher_tail_lower_bound(Point((1.2,)), c=1.0, t0=1.0) is None

    rep2 = rademacher_tail_lower_bound(Point((0.5,)), c=1.0, t0=0.5)
    assert rep2 is not None
    assert rep2.value == pytest.approx(math.exp(-0.25))
    assert rep2.suspect  # exceeds the exact single-coordinate depth 1/2

    with pytest.raises(ValueError):
        rademacher_tail_lower_bound(Point.zero(), c=0.0, t0=1.0)
    with pytest.raises(ValueError):
        rademacher_tail_lower_bound(Point.zero(), c=1.0, t0=-1.0)


def test_exact_rademacher_enumeration():
    d = Direction.from_mapping({1: 1.0, 2: 1.0})
    assert exact_rademacher_probability(d, Point.zero()) == pytest.approx(0.75)
    assert exact_rademacher_probability(Direction.coordinate(1),
                                        Point.zero()) == pytest.approx(0.5)
    dirs = [Direction.coordinate(1), d]
    assert rademacher_depth_over(Point.zero(), dirs) == pytest.approx(0.5)


def _grid_rademacher_probability(coeffs, target):
    sums = np.array([np.dot(coeffs, signs) for signs in
                     itertools.product((-1.0, 1.0), repeat=len(coeffs))])
    return float(np.mean(sums >= target - 1e-12))


def test_exact_rademacher_matches_grid_enumeration():
    rng = _column_rng(411, 0)
    for s in range(1, 13):
        for trial in range(4):
            if trial % 2:
                # integer coefficients and point: sums tie with the target
                coeffs = rng.integers(1, 4, s) * rng.choice([-1.0, 1.0], s)
                coords = rng.integers(-1, 2, s).astype(float)
            else:
                coeffs = rng.standard_normal(s)
                coords = rng.uniform(-1.0, 1.0, s)
            d = Direction(tuple(range(1, s + 1)), tuple(coeffs))
            target = float(np.dot(coeffs, coords))
            assert exact_rademacher_probability(d, Point(tuple(coords))) == \
                _grid_rademacher_probability(coeffs, target)


def test_exact_rademacher_s20_memory():
    # coefficients 1..20 at the zero point: P = 1/2 + P(sum = 0)/2, with the
    # zero-sum patterns counted by a subset-sum table
    d = Direction(tuple(range(1, 21)), tuple(float(k) for k in range(1, 21)))
    ways = np.zeros(211, dtype=np.int64)
    ways[0] = 1
    for k in range(1, 21):
        ways[k:] = ways[k:] + ways[:-k]
    tracemalloc.start()
    try:
        value = exact_rademacher_probability(d, Point.zero())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0.5 + ways[105] / 2.0 ** 21
    assert peak < 10 * 2 ** 20
    with pytest.raises(ValueError):
        exact_rademacher_probability(
            Direction(tuple(range(1, 22)), (1.0,) * 21), Point.zero())


# -- projection bound ----------------------------------------------------------------

def test_projection_bound_tight_at_corner_point():
    # at t = (1,1,1) the direction (1,1,1) attains exactly 2^{-3}
    a = Point((1.0, 1.0, 1.0))
    rep = projection_lower_bound(a, 3)
    n = 4000
    s = sample(rademacher_model(), n, 3, seed=911)
    rng = _column_rng(912, 0)
    worst = 1.0
    dirs = [rng.standard_normal(3) for _ in range(200)] + [np.ones(3)]
    tau = np.array(a.coords)
    for alpha in dirs:
        phat = float(np.mean(s.data @ alpha >= np.dot(alpha, tau) - 1e-12))
        worst = min(worst, phat)
    se = math.sqrt(rep.value * (1.0 - rep.value) / n)
    assert rep.value <= worst + 3.0 * se


def test_tail_bound_below_monte_carlo_depth_at_center():
    rep = rademacher_tail_lower_bound(Point.zero(), c=1.0, t0=1.0)
    n = 4000
    s = sample(rademacher_model(), n, 8, seed=913)
    rng = _column_rng(914, 0)
    worst = 1.0
    for _ in range(200):
        alpha = rng.standard_normal(8)
        worst = min(worst, float(np.mean(s.data @ alpha >= 0.0)))
    se = math.sqrt(rep.value * (1.0 - rep.value) / n)
    assert rep.value <= worst + 3.0 * se


def test_projection_lower_bound():
    a = Point((0.6, -0.4, 1.0))
    assert projection_lower_bound(a, 1).value == pytest.approx(0.5)
    assert projection_lower_bound(a, 3).value == pytest.approx(0.125)
    with pytest.raises(ValueError):
        projection_lower_bound(Point((1.5,)), 1)


# -- WLLN second moment ----------------------------------------------------------------

def test_wlln_second_moment_examples():
    assert wlln_second_moment(rademacher_model(), 7) == pytest.approx(0.0)
    assert wlln_second_moment(gaussian_model(), 10) == pytest.approx(0.2)
    assert wlln_second_moment(uniform_model(-1.0, 1.0), 5) == pytest.approx(0.16)


def test_wlln_second_moment_monte_carlo():
    g = gaussian_model()
    n, reps = 10, 40_000
    s = sample(g, reps, n, seed=660)
    stat = np.mean(s.data ** 2, axis=1) - 1.0
    mc = float(np.mean(stat ** 2))
    # var of the squared statistic is about 2*(2/n)^2, so se ~ 0.28/sqrt(reps)
    assert mc == pytest.approx(wlln_second_moment(g, n), abs=0.005)


@pytest.mark.parametrize("coord", [1e-160, 1e-170])
def test_markov_bounds_of_tiny_points(coord):
    # the sum of squares is subnormal at 1e-160 (1/x overflows) and zero
    # at 1e-170; a nonzero t_k still gives a witness, with B_m = inf, and
    # no floating-point warning is raised
    a = Point((coord, 0.0, 0.5))
    model = rademacher_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = markov_zero_certificate(a, model, [1, 2, 3])
        curve = markov_bound_curve(a, model, 3)
    assert cert.depths == (1, 2, 3)
    assert cert.bound_values == (math.inf, math.inf, 4.0)
    assert curve.tolist() == [math.inf, math.inf, 4.0]
    assert [w.support for w in cert.witnesses] == [(1,), (1,), (1, 3)]
    with pytest.raises(ValueError, match="only zeros"):
        markov_zero_certificate(Point((0.0, 0.0, coord)), model, [1, 2])
