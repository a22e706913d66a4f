import math

import pytest
from scipy.special import ndtr

from depthlab import (
    Direction,
    DirectionFamily,
    Point,
    PowerTail,
    consistency_gap,
    empirical_half_space_depth,
    gaussian_model,
    gaussian_sequence_depth,
    rademacher_model,
    sample,
    zero_depth_experiment,
)
from depthlab.bounds import markov_zero_certificate
from depthlab.empirical import _analytic_floor
from depthlab.errors import DirectionRangeError
from depthlab.models import Density, SequenceModel, density_law, gaussian_law

ONES = Point((), tail=PowerTail(1.0, 0.0))


def test_self_sample_depth_is_one():
    s = sample(gaussian_model(), 1, 6, seed=21)
    a = Point(tuple(s.data[0]))
    value, argmin = empirical_half_space_depth(
        a, s, DirectionFamily.coordinates(6))
    assert value == 1.0
    assert argmin == Direction.coordinate(1)


def test_two_sample_rademacher_zero_probability():
    m = rademacher_model()
    hits = 0
    trials = 40
    for i in range(trials):
        s = sample(m, 2, 50, seed=1000 + i)
        value, _ = empirical_half_space_depth(
            Point.zero(), s, DirectionFamily.coordinates(50))
        hits += (value == 0.0)
    # per-trial probability 1 - (3/4)^50 ~ 1 - 5.7e-7
    assert hits / trials >= 0.9


def test_single_direction_clt():
    d = Direction.from_mapping({1: 1.0, 2: 1.0})
    a = Point((1.0, 0.0))
    n = 10 ** 4
    s = sample(gaussian_model(), n, 2, seed=77)
    value, _ = empirical_half_space_depth(
        a, s, DirectionFamily.explicit([d]))
    truth = 1.0 - float(ndtr(1.0 / math.sqrt(2.0)))
    assert value == pytest.approx(truth, abs=3.0 / math.sqrt(n))


def test_depth_monotone_in_family():
    s = sample(gaussian_model(), 40, 6, seed=5)
    a = Point((0.4, -0.1, 0.2))
    small, _ = empirical_half_space_depth(a, s, DirectionFamily.coordinates(3))
    large, _ = empirical_half_space_depth(a, s, DirectionFamily.coordinates(6))
    assert large <= small


def test_depth_invariant_under_positive_rescaling():
    a = Point((0.25, -0.5))
    d = Direction.from_mapping({1: 1.0, 2: -0.75})
    for model in (rademacher_model(), gaussian_model()):
        s = sample(model, 64, 2, seed=9)
        base, _ = empirical_half_space_depth(
            a, s, DirectionFamily.explicit([d]))
        scaled, _ = empirical_half_space_depth(
            a, s, DirectionFamily.explicit([d.scaled(4.0)]))  # power of two
        assert scaled == base


def test_direction_out_of_range():
    s = sample(gaussian_model(), 5, 2, seed=4)
    with pytest.raises(DirectionRangeError):
        empirical_half_space_depth(Point.zero(), s,
                                   DirectionFamily.coordinates(3))


def test_markov_witness_family_consistency():
    g = gaussian_model()
    n = 50
    cert = markov_zero_certificate(ONES, g, [4, 16])
    family = DirectionFamily.markov_witnesses([4, 16])
    for i in range(50):
        s = sample(g, n, 16, seed=3000 + i)
        value, _ = empirical_half_space_depth(ONES, s, family, model=g)
        for b in cert.bound_values:
            assert value <= b + 3.0 * math.sqrt(b / n)


def test_random_sparse_family_is_deterministic():
    fam = DirectionFamily.random_sparse(count=10, support_size=3, seed=13)
    assert fam.materialize(20) == fam.materialize(20)


# -- zero-depth experiments ------------------------------------------------------

def test_zero_depth_experiment_rademacher_center():
    res = zero_depth_experiment(rademacher_model(), Point.zero(),
                                n=3, K=100, seeds=200, master_seed=1)
    assert res.fraction_zero >= 0.99
    # per-coordinate zero probability is (1/2)^3 = 1/8
    assert res.analytic_floor == pytest.approx(1.0 - (7.0 / 8.0) ** 100)
    assert res.fraction_zero >= res.analytic_floor - 3.0 * res.fraction_zero_stderr


def test_zero_depth_experiment_gaussian_consistency_failure():
    a = Point.inverse_k(1.0)
    res = zero_depth_experiment(gaussian_model(), a, n=2, K=200, seeds=40,
                                master_seed=2)
    assert res.fraction_zero >= 0.99
    truth = gaussian_sequence_depth(a, gaussian_model()).value
    assert res.true_depth_reference == pytest.approx(truth)
    assert truth > 0.0
    assert res.consistency_failure is True
    assert res.ratio_vanishes


def test_zero_depth_experiment_single_coordinate():
    res = zero_depth_experiment(gaussian_model(), Point((0.0,)),
                                n=3, K=1, seeds=400, master_seed=3)
    expected = 0.125  # all three draws below zero
    se = math.sqrt(expected * (1.0 - expected) / 400)
    assert res.fraction_zero == pytest.approx(expected, abs=3.0 * se + 1e-9)
    assert res.analytic_floor == pytest.approx(expected)


def test_experiment_records_independent_of_seed_count():
    a = Point.inverse_k(1.0)
    res20 = zero_depth_experiment(gaussian_model(), a, n=2, K=50, seeds=20,
                                  master_seed=5)
    res40 = zero_depth_experiment(gaussian_model(), a, n=2, K=50, seeds=40,
                                  master_seed=5)
    assert res20.records == res40.records[:20]


def test_analytic_floor_none_past_model_width():
    model = SequenceModel(laws=(gaussian_law(1.0),) * 3)
    assert _analytic_floor(Point((0.5,)), model, n=2, K=5) is None


def test_analytic_floor_propagates_density_errors():
    def broken_pdf(x):
        raise RuntimeError("pdf failed")

    model = SequenceModel.iid(density_law(Density(pdf=broken_pdf)), 3)
    with pytest.raises(RuntimeError):
        _analytic_floor(Point((0.5,)), model, n=2, K=3)


# -- consistency gap ------------------------------------------------------------

def test_consistency_gap_divergent_point_is_consistent():
    a = Point.inverse_k(0.5)
    rows = consistency_gap(a, gaussian_model(),
                           DirectionFamily.coordinates(150),
                           n_grid=[2, 4], seeds=25, master_seed=6)
    for row in rows:
        assert row.true_depth == 0.0
        assert row.gap <= 0.02


def test_consistency_gap_convergent_point_fails():
    a = Point.inverse_k(1.0)
    rows = consistency_gap(a, gaussian_model(),
                           DirectionFamily.coordinates(200),
                           n_grid=[2, 3], seeds=25, master_seed=7)
    truth = gaussian_sequence_depth(a, gaussian_model()).value
    for row in rows:
        assert row.true_depth == pytest.approx(truth)
        assert row.gap == pytest.approx(truth, abs=0.02)


def test_consistency_gap_single_direction_clt_rate():
    d = Direction.from_mapping({1: 1.0, 3: 2.0})
    a = Point((0.5, 0.0, 0.25))
    sigma = math.sqrt(1.0 + 4.0)
    truth = 1.0 - float(ndtr((0.5 + 0.5) / sigma))
    rows = consistency_gap(a, gaussian_model(),
                           DirectionFamily.explicit([d]),
                           n_grid=[100, 400, 1600], seeds=20, master_seed=8,
                           true_depth=truth)
    for row in rows:
        assert row.gap <= 3.0 / math.sqrt(row.n)
