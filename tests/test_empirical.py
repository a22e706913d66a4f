import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from depthlab import (
    Direction,
    DirectionFamily,
    Point,
    PowerTail,
    Sample,
    apply_direction,
    empirical_half_space_depth,
    gaussian_model,
    gaussian_sequence_depth,
    project_sample,
    rademacher_model,
    sample,
    zero_depth_experiment,
)
from depthlab import empirical, models
from depthlab.bounds import markov_zero_certificate
from depthlab.empirical import _analytic_floor, _coordinate_depth
from depthlab.errors import DirectionRangeError, LawUnavailableError
from depthlab.models import (
    RECORD_SEEDS,
    Density,
    LawTail,
    SequenceModel,
    _derive_seed,
    density_law,
    gaussian_law,
    rademacher_law,
    stable_law,
    stable_model,
    uniform_law,
)

ONES = Point((), tail=PowerTail(1.0, 0.0))


def _directions(family, width):
    """The family's directions in order, each built (and so validated) as a
    Direction from its ragged arrays."""
    ptr, index, coeffs = family.arrays(width)
    bounds = ptr.tolist()
    return [Direction(index[lo:hi], coeffs[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]


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
    # the error shrinks at the CLT rate: within 3/sqrt(n), six standard
    # errors, at every n of the grid
    cases = [({1: 1.0, 2: 1.0}, (1.0, 0.0), 10 ** 4)] + [
        ({1: 1.0, 3: 2.0}, (0.5, 0.0, 0.25), n) for n in (100, 400, 1600)]
    for mapping, coords, n in cases:
        d = Direction.from_mapping(mapping)
        a = Point(coords)
        s = sample(gaussian_model(), n, d.max_index, seed=77)
        value, _ = empirical_half_space_depth(
            a, s, DirectionFamily.explicit([d]))
        sigma = math.sqrt(sum(c * c for c in d.coeffs))
        truth = 1.0 - float(ndtr(apply_direction(d, a) / sigma))
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
            a, s, DirectionFamily.explicit([Direction(
                d.support, tuple(4.0 * c for c in d.coeffs))]))  # power of two
        assert scaled == base


def test_direction_out_of_range():
    g = gaussian_model()
    s = sample(g, 5, 2, seed=4)
    for family in (DirectionFamily.coordinates(3),
                   DirectionFamily.explicit([Direction.coordinate(1),
                                             Direction.coordinate(3)]),
                   DirectionFamily.explicit(
                       markov_zero_certificate(ONES, g, [2, 4]).witnesses)):
        with pytest.raises(DirectionRangeError):
            empirical_half_space_depth(ONES, s, family)


@pytest.mark.parametrize("build", [
    lambda: DirectionFamily.coordinates(0),
    lambda: DirectionFamily.random_sparse(0, 2, seed=1),
    lambda: DirectionFamily.random_sparse(5, 2, seed=-1),
    lambda: DirectionFamily.random_sparse(5, 2, seed=2 ** 64),
    lambda: DirectionFamily.explicit([]),
], ids=["coordinates", "sparse_count", "sparse_seed", "sparse_seed_64_bits",
        "explicit_empty"])
def test_bad_family_arguments_are_rejected_when_built(build):
    with pytest.raises(ValueError):
        build()


def test_markov_witness_family_consistency():
    g = gaussian_model()
    n = 50
    cert = markov_zero_certificate(ONES, g, [4, 16])
    family = DirectionFamily.explicit(cert.witnesses)
    for i in range(50):
        s = sample(g, n, 16, seed=3000 + i)
        value, _ = empirical_half_space_depth(ONES, s, family)
        for b in cert.bound_values:
            assert value <= b + 3.0 * math.sqrt(b / n)


def test_random_sparse_family_is_deterministic():
    fam = DirectionFamily.random_sparse(count=10, support_size=3, seed=13)
    assert _directions(fam, 20) == _directions(fam, 20)


# -- zero-depth experiments ------------------------------------------------------

def test_zero_depth_experiment_rademacher_center():
    res = zero_depth_experiment(rademacher_model(), Point.zero(),
                                n=3, K=100, seeds=200, master_seed=1)
    assert res.fraction_zero >= 0.99
    # per-coordinate zero probability is (1/2)^3 = 1/8
    assert res.analytic_floor == pytest.approx(1.0 - (7.0 / 8.0) ** 100)
    assert res.fraction_zero >= res.analytic_floor - 3.0 * res.fraction_zero_stderr


def test_zero_depth_experiment_gaussian_consistency_failure():
    # t_k = 1/k has positive true depth, so its collapse is a failure;
    # t_k = k^-1/2 diverges in l2, its true depth is 0 and the collapse
    # is consistent
    for exponent, failure in ((1.0, True), (0.5, False)):
        a = Point.inverse_k(exponent)
        res = zero_depth_experiment(gaussian_model(), a, n=2, K=200,
                                    seeds=40, master_seed=2)
        assert res.fraction_zero >= 0.99
        truth = gaussian_sequence_depth(a, gaussian_model()).value
        assert res.true_depth_reference == pytest.approx(truth)
        assert (truth > 0.0) is failure
        assert res.consistency_failure is failure
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
    for name in ("seeds", "counts", "argmin"):
        assert np.array_equal(getattr(res20, name), getattr(res40, name)[:20])


def test_analytic_floor_none_past_model_width():
    model = SequenceModel(laws=(gaussian_law(1.0),) * 3)
    assert _analytic_floor(Point((0.5,)), model, n=2, K=5) is None


@pytest.mark.parametrize("model", [
    gaussian_model(scales=[1.0, 0.5, 2.0], tail=PowerTail(1.0, -0.3)),
    SequenceModel(laws=(uniform_law(-1.0, 1.0, 2.0), rademacher_law(0.4)),
                  tail=LawTail(gaussian_law(), PowerTail(0.5, 0.0))),
    rademacher_model(),
    stable_model(1.5, scales=[1.0, 3.0], tail=PowerTail(2.0, -0.2)),
], ids=["gaussian", "mixed", "rademacher", "stable1.5"])
def test_analytic_floor_is_the_per_coordinate_minimum(model):
    # one CDF read per law-shape run gives the least of the K probabilities
    K, n = 40, 3
    a = Point((0.3, -1.2, 0.8), tail=PowerTail(0.7, -0.5))
    dhat = min(model.law(k).prob_below(a.value_at(k)) for k in range(1, K + 1))
    assert _analytic_floor(a, model, n, K) == pytest.approx(
        1.0 - (1.0 - dhat ** n) ** K, rel=1e-14, abs=0.0)


def test_analytic_floor_reads_one_stable_cdf_per_run(monkeypatch):
    calls = []
    real = models.stable_cdf

    def counted(p, x):
        calls.append(x)
        return real(p, x)

    monkeypatch.setattr(models, "stable_cdf", counted)
    model = stable_model(1.5, scales=[1.0, 3.0], tail=PowerTail(2.0, -0.2))
    _analytic_floor(Point.inverse_k(0.5), model, n=2, K=2000)
    # the least t_k(a)/c_k, k^-0.5 / (2 k^-0.2), is at k = K
    assert calls == [pytest.approx(2000.0 ** -0.3 / 2.0, rel=1e-12)]


def test_analytic_floor_propagates_density_errors():
    def broken_pdf(x):
        raise RuntimeError("pdf failed")

    model = SequenceModel.iid(density_law(Density(pdf=broken_pdf)), 3)
    with pytest.raises(RuntimeError):
        _analytic_floor(Point((0.5,)), model, n=2, K=3)


# -- array-shaped evaluation against the per-direction loop --------------------

def _loop_depth(a, s, family):
    """The direction-by-direction definition on a row-major copy of the
    sample: project, compare, mean, in family order, stopping at the first
    zero."""
    s = Sample(np.ascontiguousarray(s.data), s.seed)
    best_value, best_dir = math.inf, None
    for d in _directions(family, s.K):
        with np.errstate(over="ignore", invalid="ignore"):
            above = project_sample(d, s) >= apply_direction(d, a)
        value = float(np.mean(above))
        if value < best_value:
            best_value, best_dir = value, d
            if value == 0.0:
                break
    return best_value, best_dir


WIDTH = 9
FAR = Point((0.3, 9.0, -0.2, 9.0, 0.1))  # coordinates 2 and 4 are never reached
DUPLICATED = DirectionFamily.explicit([
    Direction.coordinate(1),
    Direction.from_mapping({1: 1.0, 3: -0.5}),
    Direction.from_mapping({2: 1.0, 5: 1e-3}),
    Direction.coordinate(1),
    Direction.from_mapping({1: 1.0, 3: -0.5}),
    Direction.coordinate(4),
    Direction(tuple(range(1, WIDTH + 1)), tuple(np.linspace(-2.0, 2.5, WIDTH))),
    Direction.from_mapping({2: 1.0, 5: 1e-3}),
])
FAMILY_CASES = {
    "coordinates": (DirectionFamily.coordinates(WIDTH), ONES),
    "coordinates_far": (DirectionFamily.coordinates(WIDTH), FAR),
    "sparse_pairs": (DirectionFamily.random_sparse(120, 2, seed=31), ONES),
    "sparse_mixed": (DirectionFamily.random_sparse(60, 4, seed=32),
                     Point.inverse_k(0.5)),
    "sparse_full": (DirectionFamily.random_sparse(20, WIDTH, seed=33),
                    Point((0.1, -0.4))),
    "explicit_duplicates": (DUPLICATED, FAR),
    # the coordinate compare path, and the projection path for coefficient 2
    "explicit_coordinates": (DirectionFamily.explicit(
        [Direction.coordinate(k) for k in range(1, WIDTH + 1)]), ONES),
    "explicit_coordinates_doubled": (DirectionFamily.explicit(
        [Direction((k,), (2.0,)) for k in range(1, WIDTH + 1)]), ONES),
    # the witnesses are the same under both unit-variance models
    "markov_witnesses": (DirectionFamily.explicit(markov_zero_certificate(
        Point.inverse_k(1.0), gaussian_model(), [5, 2, 9, 2, 7]).witnesses),
                         Point.inverse_k(1.0)),
}


# above one projection chunk: three row chunks, the last a shorter one
ABOVE_CHUNK = 5 * empirical.PROJECT_CHUNK // 2 + 1


@pytest.mark.parametrize("n", [1, 2, 7, 10 ** 4, ABOVE_CHUNK])
@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
@pytest.mark.parametrize("model_name",
                         ["gaussian", "rademacher", "rademacher_at_zero"])
def test_depth_matches_per_direction_loop(model_name, case, n):
    # Rademacher rows tie with ONES on every coordinate and on every sum of
    # coefficients, so the >= indicator is exercised, not only its strict part
    model = gaussian_model() if model_name == "gaussian" else rademacher_model()
    family, a = FAMILY_CASES[case]
    if model_name == "rademacher_at_zero" and case != "markov_witnesses":
        a = Point.zero()
    s = sample(model, n, WIDTH, seed=_derive_seed(4040, n))
    expected = _loop_depth(a, s, family)
    for data in (s.data, np.ascontiguousarray(s.data)):
        value, argmin = empirical_half_space_depth(a, Sample(data, s.seed),
                                                   family)
        assert type(value) is float
        assert value == expected[0]
        assert argmin == expected[1]


@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("support_size", [2, 3, 5, WIDTH])
def test_self_sample_ties_match_per_direction_loop(support_size, n):
    # every row equals the point, so every projection ties with t(a) and the
    # depth is 1 in every direction; a projection summed unlike t(a) can
    # round below it and make it 0
    for seed in range(3):
        row = sample(gaussian_model(), 1, WIDTH, seed=seed).data[0]
        a = Point(tuple(row))
        s = Sample(np.asfortranarray(np.tile(row, (n, 1))), seed)
        family = DirectionFamily.random_sparse(200, support_size, seed=seed)
        expected = _loop_depth(a, s, family)
        assert expected[0] == 1.0
        assert empirical_half_space_depth(a, s, family) == expected
        assert empirical_half_space_depth(
            a, Sample(np.ascontiguousarray(s.data), seed), family) == expected


@pytest.mark.parametrize("n", [1, 2, 4, 16, 100, 1000])
@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_sample_row_as_point_has_depth_at_least_one_over_n(case, n):
    # the row itself is on the closed side of every half-space through it
    family = FAMILY_CASES[case][0]
    model = gaussian_model()
    s = sample(model, n, WIDTH, seed=_derive_seed(4042, n))
    for j in sorted({0, n // 2, n - 1}):
        a = Point(tuple(s.data[j]))
        value, _ = empirical_half_space_depth(a, s, family)
        assert value >= 1.0 / n


# explicit directions whose coefficients leave float32's range
TINY_AND_HUGE = DirectionFamily.explicit([
    Direction((1, 3), (1e-300, 1.0)),
    Direction((2,), (1e300,)),
    Direction((2, 4), (1e300, -1e-300)),
    Direction((1, 2, 5), (-1e-300, 1e-300, 1e-300)),
    Direction((1, 3), (1.0, -1.0)),
    Direction((1, 2), (1e5, 1e5)),  # inf - inf in float32 at scale 1e35
])


@pytest.mark.parametrize("scale", [1.0, 1e-42, 1e-300, 1e35, 1e300],
                         ids=["unit", "f32-subnormal", "f32-zero",
                              "1e35", "past-f32"])
@pytest.mark.parametrize("model_name", ["gaussian", "rademacher", "stable0.5"])
@pytest.mark.parametrize("case", ["sparse_pairs", "sparse_full",
                                  "explicit_duplicates", "tiny_and_huge"])
def test_depth_is_exact_whatever_the_magnitudes(case, model_name, scale):
    # the point is a sample row, so rows tie with it; Rademacher rows tie on
    # every coordinate; stable(0.5) columns spread over ten decades, which
    # widens the band to most rows
    model = {"gaussian": gaussian_model(), "rademacher": rademacher_model(),
             "stable0.5": stable_model(0.5)}[model_name]
    family = (TINY_AND_HUGE if case == "tiny_and_huge"
              else FAMILY_CASES[case][0])
    s = sample(model, 200, WIDTH, seed=_derive_seed(4044, 200))
    s = Sample(s.data * scale, s.seed)
    for a in (Point(tuple(s.data[7])), Point.zero()):
        assert empirical_half_space_depth(a, s, family) == \
            _loop_depth(a, s, family)


@pytest.mark.parametrize("case", ["sparse_pairs", "sparse_mixed",
                                  "explicit_duplicates", "tiny_and_huge"])
def test_depth_is_exact_on_a_sample_holding_inf_and_nan(case):
    family = (TINY_AND_HUGE if case == "tiny_and_huge"
              else FAMILY_CASES[case][0])
    data = np.array(sample(gaussian_model(), 100, WIDTH, seed=8).data)
    data[3, 0], data[10, 1], data[11, 2] = np.inf, -np.inf, np.nan
    data[20, :] = np.nan
    s = Sample(data, seed=8)
    for a in (Point(tuple(data[50])), ONES):
        assert empirical_half_space_depth(a, s, family) == \
            _loop_depth(a, s, family)


def _reversed_screen(c32, block, out):
    """The float32 products summed last to first, in float32: (batch, m)
    coefficients times (m, rows) columns."""
    np.multiply(c32[:, -1:], block[-1], out=out)
    for j in range(c32.shape[1] - 2, -1, -1):
        out += c32[:, j:j + 1] * block[j]
    return out


def _pushed_screen(rng):
    """The exact dot products of the float32 factors, pushed up or down at
    random by 0.9 gamma_{m-1}(2^-24) sum_k |c_k x_jk|, then rounded to
    float32: within the gamma_m bound of any float32 evaluation."""
    def matmul(c32, block, out):
        # (batch, m, rows), exact
        products = c32.astype(float)[:, :, None] * block.astype(float)
        m = c32.shape[1]
        gamma = (m - 1) * 2.0 ** -24 / (1.0 - (m - 1) * 2.0 ** -24)
        push = rng.choice([-0.9, 0.9], size=out.shape) * gamma
        out[:] = (products.sum(axis=1)
                  + push * np.abs(products).sum(axis=1))
        return out
    return matmul


@pytest.mark.parametrize("screen", ["reversed", "pushed"])
@pytest.mark.parametrize("case", ["sparse_pairs", "sparse_mixed",
                                  "sparse_full", "explicit_duplicates",
                                  "explicit_coordinates_doubled"])
def test_depth_does_not_depend_on_how_the_screen_is_evaluated(
        monkeypatch, case, screen):
    # any float32 evaluation within the error bound counts the same rows:
    # ties with a sample row taken as the point, and Rademacher ties
    family = FAMILY_CASES[case][0]
    fake = (_reversed_screen if screen == "reversed"
            else _pushed_screen(np.random.default_rng(7)))
    for model, point in ((gaussian_model(), None), (rademacher_model(), ONES),
                         (rademacher_model(), None)):
        s = sample(model, 300, WIDTH, seed=_derive_seed(4045, 300))
        a = Point(tuple(s.data[11])) if point is None else point
        expected = _loop_depth(a, s, family)
        with monkeypatch.context() as patched:
            patched.setattr(np, "matmul", fake)
            assert empirical_half_space_depth(a, s, family) == expected


@pytest.mark.parametrize("case", sorted(set(FAMILY_CASES) - {
    "coordinates", "coordinates_far", "explicit_coordinates"}))
def test_depth_matches_per_direction_loop_in_small_chunks(monkeypatch, case):
    # chunks of 8 rows: most directions stop counting after a few chunks
    monkeypatch.setattr(empirical, "PROJECT_CHUNK", 8)
    family, a = FAMILY_CASES[case]
    for model in (gaussian_model(), rademacher_model()):
        s = sample(model, 61, WIDTH, seed=_derive_seed(4041, 61))
        assert empirical_half_space_depth(a, s, family) == \
            _loop_depth(a, s, family)


@pytest.mark.parametrize("chunk", [None, 4])
def test_tie_across_support_groups_goes_to_lower_index(monkeypatch, chunk):
    # supports (1,) = directions 0 and 2, counted first; support (2,) =
    # direction 1.  Directions 1 and 2 tie at the least count, and the
    # later-counted group holds the lower index.
    if chunk is not None:
        monkeypatch.setattr(empirical, "PROJECT_CHUNK", chunk)
    rows = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, -1.0], [-1.0, -1.0]])
    s = Sample(np.tile(rows, (5, 1)), seed=0)
    family = DirectionFamily.explicit([
        Direction.coordinate(1),            # count 15
        Direction.coordinate(2),            # count 5
        Direction((1,), (-1.0,)),           # count 5
    ])
    expected = (0.25, Direction.coordinate(2))
    assert empirical_half_space_depth(Point.zero(), s, family) == expected
    assert _loop_depth(Point.zero(), s, family) == expected


def _logged_counts(monkeypatch):
    """The family indices of every batch the exact count takes, in order."""
    counted = []
    real = empirical._SupportGroup.count

    def logged(self, data, rs, chunks, limits):
        counted.append(self.members[rs].tolist())
        return real(self, data, rs, chunks, limits)

    monkeypatch.setattr(empirical._SupportGroup, "count", logged)
    return counted


@pytest.mark.parametrize("chunk", [None, 4, 8])
def test_pilot_of_higher_index_loses_a_tie(monkeypatch, chunk):
    # direction 3 counts the rows direction 1 counts: column 2 is zero but
    # for a NaN in a row below the point.  The NaN makes its screen bound
    # infinite, so its first-chunk screen count, 0, is the least and it is
    # the pilot; direction 1 (and 2, an exact duplicate of it) ties with it
    # and the lowest index must win.
    if chunk is not None:
        monkeypatch.setattr(empirical, "PROJECT_CHUNK", chunk)
    data = np.full((20, 3), -1.0)
    data[::5, 0] = 1.0
    data[:, 1], data[:, 2] = 0.0, 1.0
    data[1, 1] = np.nan
    s = Sample(data, seed=0)
    family = DirectionFamily.explicit([
        Direction.coordinate(3),                # count 20
        Direction.coordinate(1),                # count 4
        Direction.coordinate(1),                # count 4
        Direction((1, 2), (1.0, 1.0)),          # count 4, the pilot
        Direction((1, 3), (1.0, 1.0)),          # count 20
    ])
    counted = _logged_counts(monkeypatch)
    expected = (0.2, Direction.coordinate(1))
    assert empirical_half_space_depth(Point.zero(), s, family) == expected
    assert _loop_depth(Point.zero(), s, family) == expected
    assert counted[0] == [3]
    assert sorted(sum(counted[1:], [])) == [1, 2]


def test_every_direction_but_the_pilot_pruned_in_the_first_chunk(
        monkeypatch):
    # 21 rows in chunks of 8: the pilot's only row at or above the point is
    # in the last, shorter chunk, and every other direction's screen puts
    # two or more rows above it in the first chunk
    monkeypatch.setattr(empirical, "PROJECT_CHUNK", 8)
    data = np.ones((21, 3))
    data[:20, 0] = -1.0
    s = Sample(data, seed=0)
    family = DirectionFamily.explicit([
        Direction.coordinate(2),
        Direction.coordinate(1),                # the pilot, count 1
        Direction((2, 3), (1.0, 1.0)),
        Direction((3,), (2.0,)),
    ])
    counted = _logged_counts(monkeypatch)
    screened = []
    real = np.matmul

    def logged(c32, block, out):
        screened.append(out.shape)
        return real(c32, block, out=out)

    monkeypatch.setattr(np, "matmul", logged)
    expected = (1 / 21, Direction.coordinate(1))
    assert empirical_half_space_depth(Point.zero(), s, family) == expected
    monkeypatch.undo()
    assert _loop_depth(Point.zero(), s, family) == expected
    assert counted == [[1]]
    assert screened and all(rows == 8 for _, rows in screened)


def test_depth_working_set_does_not_grow_with_rows():
    # every buffer is one chunk long: from 4 to 16 chunks of rows, the peak
    # grows by less than one chunk's buffers (the float32 cast of the used
    # columns, and one batch's float32 projections and booleans)
    width = 4
    family = DirectionFamily.random_sparse(60, 2, seed=41)
    peaks = []
    for chunks in (4, 16):
        s = sample(gaussian_model(), chunks * empirical.PROJECT_CHUNK, width,
                   seed=9)
        a = Point(tuple(s.data[0]))
        # an untraced call first, so one-time allocations do not count
        empirical_half_space_depth(a, s, family)
        tracemalloc.start()
        try:
            empirical_half_space_depth(a, s, family)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    buffers = empirical.PROJECT_CHUNK * (4 * width
                                         + 5 * empirical.SCREEN_BATCH)
    assert peaks[1] - peaks[0] < buffers


def test_first_direction_with_count_zero_is_the_minimizer():
    s = sample(gaussian_model(), 50, 4, seed=3)
    family = DirectionFamily.explicit([
        Direction.from_mapping({2: 1.0, 4: 1.0}),  # never reaches 100
        Direction.coordinate(1),
        Direction.from_mapping({2: 2.0, 4: 2.0}),  # count 0 again
        Direction.coordinate(3),
    ])
    a = Point((0.0, 50.0, 0.0, 50.0))
    expected = (0.0, Direction.from_mapping({2: 1.0, 4: 1.0}))
    assert empirical_half_space_depth(a, s, family) == expected
    assert _loop_depth(a, s, family) == expected


def test_random_sparse_builds_only_the_minimizer(monkeypatch):
    built = []

    class Counted(Direction):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    s = sample(gaussian_model(), 500, 6, seed=4)
    family = DirectionFamily.random_sparse(300, 3, seed=5)
    value, argmin = _loop_depth(ONES, s, family)
    monkeypatch.setattr(empirical, "Direction", Counted)
    got, got_argmin = empirical_half_space_depth(ONES, s, family)
    assert len(built) == 1
    assert (got, got_argmin.support, got_argmin.coeffs) == (
        value, argmin.support, argmin.coeffs)


def test_compare_path_only_for_unit_coordinates(monkeypatch):
    # coordinates 1..K in order with coefficient 1.0 are compared, not
    # projected, whichever constructor built them
    compared = []
    real = empirical._coordinate_depth

    def recorded(data, thresholds):
        compared.append(thresholds.size)
        return real(data, thresholds)

    monkeypatch.setattr(empirical, "_coordinate_depth", recorded)
    s = sample(gaussian_model(), 20, WIDTH, seed=6)
    for case, (family, a) in sorted(FAMILY_CASES.items()):
        compared.clear()
        empirical_half_space_depth(a, s, family)
        assert bool(compared) is (case in {
            "coordinates", "coordinates_far", "explicit_coordinates"}), case


def test_coordinate_thresholds_read_the_point_as_the_definition():
    # a row holding the point's own values sits exactly at the point, where
    # any reading of k**-0.5 other than value_at's would flip a count
    a = Point.inverse_k(0.5)
    s = Sample(a.values(40)[None, :], seed=0)
    family = DirectionFamily.coordinates(40)
    assert empirical_half_space_depth(a, s, family) == _loop_depth(a, s, family)


def test_first_zero_after_positive_directions():
    s = sample(gaussian_model(), 7, WIDTH, seed=12)
    value, argmin = empirical_half_space_depth(FAR, s, DUPLICATED)
    assert value == 0.0
    assert argmin == Direction.from_mapping({2: 1.0, 5: 1e-3})
    assert _loop_depth(FAR, s, DUPLICATED) == (value, argmin)
    value, argmin = empirical_half_space_depth(
        FAR, s, DirectionFamily.coordinates(WIDTH))
    assert (value, argmin) == (0.0, Direction.coordinate(2))


def test_zero_depth_experiment_records_match_loop():
    a = Point.inverse_k(1.0)
    res = zero_depth_experiment(gaussian_model(), a, n=3, K=40, seeds=30,
                                master_seed=11)
    family = DirectionFamily.coordinates(40)
    for seed, count, k in zip(res.seeds.tolist(), res.counts.tolist(),
                              res.argmin.tolist()):
        expected = _loop_depth(a, sample(gaussian_model(), 3, 40, seed),
                               family)
        assert (count / 3, Direction.coordinate(k)) == expected


@pytest.mark.parametrize("n", [1, 7, 300])
def test_coordinate_compare_chunk_of_one(monkeypatch, n):
    cases = []
    for model, a in ((rademacher_model(), Point.zero()),
                     (gaussian_model(), Point.zero()),
                     (gaussian_model(), FAR),
                     (gaussian_model(), Point((), tail=PowerTail(-3.0, 0.0)))):
        s = sample(model, n, 60, seed=n)
        cases.append((a, s, empirical_half_space_depth(
            a, s, DirectionFamily.coordinates(60))))
    monkeypatch.setattr(empirical, "COMPARE_CHUNK", 1)
    for a, s, expected in cases:
        assert empirical_half_space_depth(
            a, s, DirectionFamily.coordinates(60)) == expected


class _SliceLog(np.ndarray):
    """An array that records every column range it is sliced with."""

    def __getitem__(self, key):
        if isinstance(key, tuple) and isinstance(key[1], slice):
            _SliceLog.seen.append((key[1].start, key[1].stop))
        return super().__getitem__(key)


def test_coordinate_compare_stops_after_first_zero_chunk(monkeypatch):
    data = np.zeros((4, 12))
    data[:, 5] = -1.0  # column 6 is the first with no sample >= 0
    data[:, 9] = -1.0
    _SliceLog.seen = []
    monkeypatch.setattr(empirical, "COMPARE_CHUNK", 8)  # two columns a chunk
    value, argmin = _coordinate_depth(data.view(_SliceLog), np.zeros(12))
    assert (value, argmin) == (0.0, Direction.coordinate(6))
    assert _SliceLog.seen == [(0, 2), (2, 4), (4, 6)]


# -- batched experiment draws --------------------------------------------------

# explicit laws whose runs of one shape cross the doubling column windows,
# then a stable tail
MIXED = SequenceModel(
    laws=(gaussian_law(1.0), uniform_law(-1.0, 1.0, 2.0),
          uniform_law(-1.0, 1.0), rademacher_law(0.4), gaussian_law(2.0),
          gaussian_law(0.5), gaussian_law(1.0), stable_law(0.5),
          uniform_law(0.0, 1.0), gaussian_law(3.0)),
    tail=LawTail(stable_law(1.5), PowerTail(1.0, -0.5)))
# below every draw's reach: at -3 the three rows of MIXED's columns 5, 8
# and 10 all fall below the point with probability 0.0104 per seed
NEVER_ZERO = Point((), tail=PowerTail(-1e12, 0.0))


@pytest.mark.parametrize("chunk", [None, 1, 3 * 40 * 7],
                         ids=["default", "one-seed", "seven-seeds"])
def test_zero_depth_records_match_per_seed_recompute(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(models, "DRAW_CHUNK", chunk)
    a = Point((0.3, -0.2), tail=PowerTail(0.5, -1.0))
    for model, point, count in ((gaussian_model(), a, 30),
                                (rademacher_model(), a, 30),
                                (gaussian_model(), NEVER_ZERO, 10),
                                (MIXED, a, 10), (MIXED, NEVER_ZERO, 10)):
        res = zero_depth_experiment(model, point, n=3, K=40, seeds=count,
                                    master_seed=2 ** 33 + 11)
        if point is NEVER_ZERO:  # every column of every seed is compared
            assert res.counts.min() > 0
        seeds = _derive_seed(2 ** 33 + 11, RECORD_SEEDS, count)
        assert res.seeds.dtype == np.uint64
        assert res.seeds.tolist() == seeds.tolist()
        assert res.counts.dtype == res.argmin.dtype == np.int64
        assert res.counts.shape == res.argmin.shape == (count,)
        for seed, least, depth, k in zip(
                res.seeds.tolist(), res.counts.tolist(),
                (res.counts / res.n).tolist(), res.argmin.tolist()):
            s = sample(model, 3, 40, seed)
            value, argmin = empirical_half_space_depth(
                point, s, DirectionFamily.coordinates(40))
            assert (depth, Direction.coordinate(k)) == (value, argmin)
            assert type(depth) is float
            assert (least == 0) is (value == 0.0)


def _logged_draws(monkeypatch) -> list:
    """Route the experiment's draws through a wrapper that records the
    (columns, seeds) shape of every draw."""
    shapes = []

    def draw(plan, n, keys, first=0):
        shapes.append(keys.shape[:2])
        return models._draw(plan, n, keys, first)

    monkeypatch.setattr(empirical, "_draw", draw)
    return shapes


def test_zero_depth_draws_split_at_one_value(monkeypatch):
    monkeypatch.setattr(models, "DRAW_CHUNK", 1)
    shapes = _logged_draws(monkeypatch)
    res = zero_depth_experiment(gaussian_model(),
                                Point((), tail=PowerTail(-0.5, 0.0)), n=3,
                                K=40, seeds=30, master_seed=4)
    assert set(shapes) == {(1, 1)}
    # every seed draws up to its first zero count, or all K columns
    assert len(shapes) == np.where(res.counts == 0, res.argmin, 40).sum()
    assert 0 < np.count_nonzero(res.counts == 0) < 30


def test_zero_depth_law_checked_before_any_draw(monkeypatch):
    shapes = _logged_draws(monkeypatch)
    model = SequenceModel(laws=(gaussian_law(1.0),) * 3)
    far = Point((50.0,) * 3)  # every column-1 count is 0
    with pytest.raises(LawUnavailableError):
        zero_depth_experiment(model, far, n=2, K=4, seeds=5)
    assert shapes == []
    assert zero_depth_experiment(model, far, n=2, K=3, seeds=5).argmin.tolist() \
        == [1] * 5


def test_zero_depth_collapse_draws_in_two_windows(monkeypatch):
    shapes = _logged_draws(monkeypatch)
    zero_depth_experiment(gaussian_model(), Point.inverse_k(1.0), n=2, K=200,
                          seeds=100, master_seed=31)
    assert len(shapes) <= 2
    # every window holds at least _WINDOW_FLOOR values
    assert all(2 * k * s >= empirical._WINDOW_FLOOR for k, s in shapes)


@pytest.mark.parametrize("n, K, seeds, message", [
    (0, 5, 3, "n and K must be >= 1"),
    (2, 0, 3, "n and K must be >= 1"),
    (2, -1, 3, "n and K must be >= 1"),
    (2, 5, 0, "seeds must be >= 1"),
], ids=["n0", "K0", "K-1", "seeds0"])
def test_zero_depth_checks_arguments_first(monkeypatch, n, K, seeds, message):
    shapes = _logged_draws(monkeypatch)
    with pytest.raises(ValueError, match=message):
        zero_depth_experiment(gaussian_model(), Point.inverse_k(1.0), n=n,
                              K=K, seeds=seeds)
    assert shapes == []


def test_zero_depth_collapse_draws_few_columns(monkeypatch):
    shapes = _logged_draws(monkeypatch)
    res = zero_depth_experiment(gaussian_model(), Point.inverse_k(1.0), n=2,
                                K=200, seeds=100, master_seed=31)
    assert res.fraction_zero == 1.0
    assert sum(k * s for k, s in shapes) < 0.05 * 100 * 200


@pytest.mark.parametrize("a", [Point((), tail=PowerTail(3.0, 0.0)),
                               NEVER_ZERO], ids=["zero-hit", "never-zero"])
def test_zero_depth_working_set_is_bounded(a):
    tracemalloc.start()
    try:
        res = zero_depth_experiment(gaussian_model(), a, n=400, K=5000,
                                    seeds=3, master_seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one whole sample is 400 * 5000 * 8 bytes, 15.3 MiB
    assert peak < 8 * 2 ** 20
    assert bool((res.counts == 0).all()) is (a is not NEVER_ZERO)


def test_random_sparse_draws_sorted_distinct_supports():
    fam = DirectionFamily.random_sparse(count=400, support_size=3, seed=21)
    dirs = _directions(fam, 6)
    assert len(dirs) == 400
    for d in dirs:
        assert len(d.support) == 3 and 1 <= d.support[0]
        assert d.support[-1] <= 6  # Direction checks strictly increasing
    # every 3-subset of 6 appears, about 20 times each
    assert len({d.support for d in dirs}) == 20
    assert all(len(d.support) == 2
               for d in _directions(DirectionFamily.random_sparse(5, 4, seed=3),
                                    2))


def test_random_sparse_zero_coefficient_becomes_one(monkeypatch):
    class ZeroNormals:
        def __init__(self, rng):
            self.integers = rng.integers

        def standard_normal(self, size):
            return np.zeros(size)

    real = empirical._column_rng
    monkeypatch.setattr(empirical, "_column_rng",
                        lambda seed, k: ZeroNormals(real(seed, k)))
    dirs = _directions(DirectionFamily.random_sparse(4, 2, seed=8), 5)
    assert all(d.coeffs == (1.0, 1.0) for d in dirs)
