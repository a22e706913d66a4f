import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from depthlab import (
    Density,
    Direction,
    Point,
    PowerTail,
    Sample,
    SequenceModel,
    apply_direction,
    gaussian_law,
    gaussian_model,
    logistic_density,
    project_sample,
    rademacher_model,
    sample,
    stable_law,
    stable_model,
    uniform_density,
    uniform_law,
    uniform_model,
)
from depthlab.errors import (
    DirectionRangeError,
    LawUnavailableError,
    MomentUnavailableError,
)
from depthlab import models, special
from depthlab.models import (
    DENSITY,
    LAMBDA_SEED,
    RECORD_SEEDS,
    GAUSSIAN,
    RADEMACHER,
    STABLE,
    UNIFORM,
    CoordinateLaw,
    LawTail,
    _cached_density_table,
    _column_keys,
    _column_rng,
    _derive_seed,
    _philox_words,
    _random_subsets,
    _transform,
    density_law,
    rademacher_law,
    sample_chunks,
)


def test_rademacher_support():
    s = sample(rademacher_model(), 3, 2, seed=7)
    assert s.data.shape == (3, 2)
    assert set(np.unique(s.data)) <= {-1.0, 1.0}


def test_gaussian_column_mean_clt():
    s = sample(gaussian_model(), 10 ** 5, 1, seed=1)
    assert abs(s.data[:, 0].mean()) < 3.0 / math.sqrt(10 ** 5)


def test_sampler_determinism():
    m = gaussian_model()
    s1 = sample(m, 50, 8, seed=123)
    s2 = sample(m, 50, 8, seed=123)
    assert np.array_equal(s1.data, s2.data)
    assert not np.array_equal(s1.data, sample(m, 50, 8, seed=124).data)


def test_column_substreams_are_schedule_independent():
    # column k depends only on (seed, k): drawing a single column in
    # isolation reproduces the same bits as the full matrix
    m = stable_model(1.5)
    full = sample(m, 40, 6, seed=9)
    for K in (1, 3, 6):
        part = sample(m, 40, K, seed=9)
        assert np.array_equal(part.data, full.data[:, :K])


def _oracle_philox(*key):
    return np.random.Philox(key=np.array(key, dtype=np.uint64))


def _oracle_column(law, n, seed, k):
    """Column k of sample(., n, ., seed) as stream version 4 defines it:
    numpy's Philox4x64-10 words under the key (seed, k), each family's
    fixed transform on the kernels of ``depthlab.special``, times the
    scale."""
    w = _oracle_philox(seed, k).random_raw(2 * n if law.family == STABLE
                                           else n)
    if law.family == GAUSSIAN:
        x = special.ndtri(((w >> 12) + 0.5) * 2.0 ** -52)
    elif law.family == RADEMACHER:
        x = np.where(w >> 63 == 1, 1.0, -1.0)
    elif law.family == UNIFORM:
        x = law.lo + (law.hi - law.lo) * ((w >> 11) * 2.0 ** -53)
    elif law.family == DENSITY:
        xs, cdf = _cached_density_table(law.density)
        x = np.interp((w >> 11) * 2.0 ** -53, cdf, xs)
    else:
        p = law.p
        v = (((w[0::2] >> 12) + 0.5) * 2.0 ** -52 - 0.5) * math.pi
        e = -special.log(((w[1::2] >> 12) + 0.5) * 2.0 ** -52)
        x = special.sin(p * v) * special.exp(
            ((1.0 - p) * (special.log(special.cos((1.0 - p) * v))
                          - special.log(e))
             - special.log(special.cos(v))) / p)
    return law.scale * x


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5,
                                  2 ** 64 - 1])
def test_column_keys_are_seed_column_pairs(seed):
    ks = list(range(301)) + [0x51D, 0x5B5, 0xA11A, 2 ** 32 - 1]
    keys = _column_keys(seed, ks)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [[seed, k] for k in ks]
    with pytest.raises(ValueError):
        _column_keys(seed, [2 ** 32])


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        sample(gaussian_model(), 2, 3, seed=-1)
    with pytest.raises(ValueError):
        _column_rng(-1, 0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 130 + 987654321])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ValueError):
        sample(gaussian_model(), 2, 3, seed=seed)
    with pytest.raises(ValueError):
        _column_keys(seed, [1])
    with pytest.raises(ValueError):
        _column_rng(seed, 0)
    with pytest.raises(ValueError):
        _derive_seed(seed, RECORD_SEEDS, 3)
    with pytest.raises(ValueError):
        _derive_seed(seed, LAMBDA_SEED)


@pytest.mark.parametrize("model", [
    gaussian_model(),
    stable_model(1.5),
    rademacher_model(),
    uniform_model(-1.0, 3.0),
    SequenceModel.iid(density_law(logistic_density())),
    gaussian_model([2.0, 0.5], tail=PowerTail(0.7, -1.3)),
    stable_model(1.5, tail=PowerTail(2.0, -0.5)),
    SequenceModel(laws=(uniform_law(0.0, 1.0),),
                  tail=LawTail(uniform_law(-2.0, 5.0), PowerTail(3.0, 0.3))),
], ids=["gaussian", "stable1.5", "rademacher", "uniform", "density",
        "gaussian-power-tail", "stable-power-tail", "uniform-power-tail"])
def test_sample_columns_match_fresh_generators(model):
    # every column equals its definition from a fresh numpy Philox
    n, K, seed = 7, 12, 2024
    full = sample(model, n, K, seed).data
    for part in (1, 5):
        assert np.array_equal(sample(model, n, part, seed).data,
                              full[:, :part])
    for k in range(1, K + 1):
        column = _oracle_column(model.law(k), n, seed, k)
        assert np.array_equal(full[:, k - 1], column)
    assert np.array_equal(_column_rng(seed, 3).random(4),
                          np.random.Generator(_oracle_philox(seed, 3)
                                              ).random(4))


def test_law_unavailable_past_explicit_width():
    m = SequenceModel(laws=(gaussian_law(1.0), gaussian_law(2.0)))
    sample(m, 5, 2, seed=0)
    with pytest.raises(LawUnavailableError):
        sample(m, 5, 3, seed=0)


@pytest.mark.parametrize("tail", [PowerTail(-1.0, 0.0), PowerTail(0.0, 1.0),
                                  PowerTail(1e300, 200.0)],
                         ids=["negative", "zero", "overflow"])
def test_sample_rejects_nonpositive_tail_scale(tail):
    # the scale of a tail column is checked as a CoordinateLaw checks it: a
    # coefficient that is not positive when the tail is built, a scale that
    # overflows in the scale row of the sample
    if tail.coef <= 0.0:
        with pytest.raises(ValueError, match="positive finite"):
            gaussian_model([1.0, 1.0], tail=tail)
        return
    m = gaussian_model([1.0, 1.0], tail=tail)
    sample(m, 3, 2, seed=0)
    with pytest.raises(ValueError, match="positive finite"):
        sample(m, 3, 12, seed=0)
    with pytest.raises(ValueError, match="positive finite"):
        m.law(12)


def test_law_validation():
    with pytest.raises(ValueError):
        stable_law(2.5)
    with pytest.raises(ValueError):
        stable_law(0.0)
    with pytest.raises(ValueError):
        uniform_law(1.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_law(-1.0)


@pytest.mark.parametrize("build", [
    lambda: LawTail("bogus"),
    lambda: LawTail(CoordinateLaw("bogus")),
    lambda: LawTail(CoordinateLaw(STABLE)),
    lambda: LawTail(CoordinateLaw(UNIFORM, lo=1.0, hi=0.0)),
    lambda: LawTail(gaussian_law(2.0), PowerTail(1.0, -0.5)),
], ids=["not-a-law", "unknown-family", "stable-without-p",
        "uniform-lo-above-hi", "unit-not-scale-1"])
def test_law_tail_rejects_bad_shapes_at_construction(build):
    with pytest.raises((TypeError, ValueError)):
        build()


def test_law_tail_rescales_its_unit_law():
    tail = LawTail(uniform_law(-2.0, 5.0), PowerTail(3.0, 0.3))
    assert tail.law(7) == uniform_law(-2.0, 5.0, scale=3.0 * 7.0 ** 0.3)
    iid = SequenceModel.iid(gaussian_law(2.5)).tail
    assert iid.unit == gaussian_law() and iid.law(9) == gaussian_law(2.5)


SIGMA_TAIL = PowerTail(1.7, -0.25)


@pytest.mark.parametrize("model", [
    gaussian_model([2.0, 0.5], tail=SIGMA_TAIL),
    stable_model(2.0, [3.0], tail=SIGMA_TAIL),
    SequenceModel(tail=LawTail(rademacher_law(), SIGMA_TAIL)),
    SequenceModel(laws=(uniform_law(0.0, 1.0),),
                  tail=LawTail(uniform_law(-2.0, 5.0), SIGMA_TAIL)),
    SequenceModel(tail=LawTail(density_law(logistic_density()), SIGMA_TAIL)),
], ids=["gaussian", "stable2", "rademacher", "uniform", "density"])
def test_sigma_equals_law_std_bitwise(model):
    for k in range(1, 2000):
        assert model.sigma(k) == model.law(k).std
    # the row is the scalar sigma bit for bit, at every length
    assert model.sigmas(1999).tolist() == [model.sigma(k)
                                           for k in range(1, 2000)]
    assert model.sigmas(1).tolist() == [model.sigma(1)]


def test_sigma_on_tail_checks_the_scale():
    m = gaussian_model([1.0], tail=PowerTail(1e300, 200.0))
    assert m.sigma(1) == 1.0
    assert m.sigmas(1).tolist() == [1.0]
    with pytest.raises(ValueError, match="positive finite"):
        m.sigma(2)
    with pytest.raises(ValueError, match="positive finite"):
        m.sigmas(2)
    with pytest.raises(MomentUnavailableError):
        stable_model(1.5).sigma(3)
    with pytest.raises(MomentUnavailableError):
        stable_model(1.5).sigmas(3)
    with pytest.raises(LawUnavailableError):
        gaussian_model([1.0, 2.0]).sigmas(3)


# -- marginal correctness ----------------------------------------------------
# KS on 10^4 samples at threshold 0.02 fails with probability < 1e-3.

N_KS = 10 ** 4
KS_TOL = 0.02


def _ks(draws, cdf_values):
    n = draws.size
    hi = np.max(np.abs(cdf_values - np.arange(1, n + 1) / n))
    lo = np.max(np.abs(cdf_values - np.arange(0, n) / n))
    return max(hi, lo)


@pytest.mark.parametrize("model,cdf", [
    (gaussian_model(), stats.norm.cdf),
    (uniform_model(-1.0, 3.0), stats.uniform(loc=-1.0, scale=4.0).cdf),
    (stable_model(1.0), stats.cauchy.cdf),
    (stable_model(2.0), stats.norm.cdf),
])
def test_marginals_ks(model, cdf):
    draws = np.sort(sample(model, N_KS, 1, seed=31).data[:, 0])
    assert _ks(draws, cdf(draws)) < KS_TOL


def test_marginal_ks_stable_p15():
    draws = np.sort(sample(stable_model(1.5), N_KS, 1, seed=32).data[:, 0])
    xs = np.linspace(-40.0, 40.0, 161)
    ref = stats.levy_stable.cdf(xs, 1.5, 0.0)
    interp = np.interp(draws, xs, ref, left=0.0, right=1.0)
    assert _ks(draws, interp) < KS_TOL


def test_marginal_ks_custom_density():
    m = SequenceModel.iid(density_law(logistic_density()), 1)
    draws = np.sort(sample(m, N_KS, 1, seed=33).data[:, 0])
    assert _ks(draws, stats.logistic.cdf(draws)) < KS_TOL


def _scipy_density_table(density):
    # the sampler table as scipy's cumulative_trapezoid builds it
    from scipy.integrate import cumulative_trapezoid
    xs, _ = models._density_sampler_table(density)
    cdf = cumulative_trapezoid(np.asarray(density.pdf(xs), dtype=float), xs,
                               initial=0.0)
    return xs, cdf / cdf[-1]


def test_density_table_matches_scipy_trapezoid(monkeypatch):
    # the in-house running trapezoid is scipy's arithmetic term for term, so
    # tables and density draws are bit-identical to scipy-built ones
    for density in (logistic_density(), uniform_density(-1.0, 2.0)):
        xs, cdf = models._density_sampler_table(density)
        assert np.array_equal(cdf, _scipy_density_table(density)[1])
    m = SequenceModel.iid(density_law(logistic_density()), 3)
    ours = sample(m, 500, 3, seed=35).data
    monkeypatch.setattr(models, "_cached_density_table", _scipy_density_table)
    assert np.array_equal(sample(m, 500, 3, seed=35).data, ours)


@pytest.mark.parametrize("pdf", [
    lambda x: 1.0 / (math.pi * (1.0 + np.square(x))),
    lambda x: 6.0 * math.sqrt(3.0) / (math.pi * np.square(3.0 + np.square(x))),
], ids=["cauchy", "student-t3"])
def test_heavy_tailed_density_table_is_refused(pdf):
    # the table's window stops at +-2^20 and its cells are 64 or 512 wide,
    # so its draws would put P(|X| < 1) near 0.002, not 0.5
    m = SequenceModel.iid(density_law(Density(pdf=pdf, symmetric=True)), 1)
    with pytest.raises(LawUnavailableError, match="misses its deciles"):
        sample(m, 1000, 1, seed=3)


def test_density_quadratures_closed_forms():
    # CDF, normalization and moments of the logistic density, whose
    # variance is pi^2/3 and fourth moment 7 pi^4/15
    phi = logistic_density()
    for x in (-30.0, -2.5, -0.1, 0.0, 0.7, 4.0):
        assert phi.cdf(x) == pytest.approx(1.0 / (1.0 + math.exp(-x)),
                                           rel=1e-12, abs=1e-15)
    assert phi.normalization_defect() < 1e-13
    assert models._density_moment(phi, 2) == pytest.approx(math.pi ** 2 / 3,
                                                           rel=1e-12)
    assert models._density_moment(phi, 4) == pytest.approx(
        7.0 * math.pi ** 4 / 15.0, rel=1e-12)
    assert uniform_density(-1.0, 2.0).cdf(0.5) == pytest.approx(0.5,
                                                                 abs=1e-15)


def test_marginal_rademacher_frequency():
    s = sample(rademacher_model(), N_KS, 1, seed=34)
    frac = np.mean(s.data[:, 0] == 1.0)
    assert abs(frac - 0.5) < 4.0 * math.sqrt(0.25 / N_KS)


# -- apply_direction ---------------------------------------------------------

def test_apply_direction_examples():
    d = Direction.from_mapping({1: 1.0, 3: -2.0})
    assert apply_direction(d, (5.0, 0.0, 1.0)) == 3.0
    with pytest.raises(ValueError):
        Direction.from_mapping({})
    assert apply_direction(Direction.from_mapping({1: 1.0}), (0.0,)) == 0.0
    assert apply_direction(Direction.from_mapping({2: 1.0}), Point((7.0,))) == 0.0


def test_apply_direction_sums_term_by_term_in_support_order():
    # (1e16 + 1) rounds to 1e16; a compensated sum (math.fsum, or sum() of
    # floats from Python 3.12 on) would give 1.0
    d = Direction((1, 2, 3), (1.0, 1.0, 1.0))
    assert apply_direction(d, Point((1e16, 1.0, -1e16))) == 0.0
    assert apply_direction(d, (1e16, 1.0, -1e16)) == 0.0
    assert math.fsum((1e16, 1.0, -1e16)) == 1.0


def test_apply_direction_power_tail():
    d = Direction.from_mapping({5: 2.0})
    a = Point((1.0,), tail=PowerTail(1.0, -1.0))
    assert apply_direction(d, a) == pytest.approx(2.0 / 5.0)


def test_direction_invariants():
    with pytest.raises(ValueError):
        Direction((2, 1), (1.0, 1.0))
    with pytest.raises(ValueError):
        Direction((1,), (0.0,))
    with pytest.raises(ValueError):
        Direction((0,), (1.0,))


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.dictionaries(st.integers(1, 8),
                          st.floats(-5, 5).filter(lambda x: abs(x) > 1e-6),
                          min_size=1, max_size=4),
    beta=st.dictionaries(st.integers(1, 8),
                         st.floats(-5, 5).filter(lambda x: abs(x) > 1e-6),
                         min_size=1, max_size=4),
    coords=st.lists(st.floats(-10, 10), min_size=1, max_size=8),
)
def test_apply_direction_linear_after_merge(alpha, beta, coords):
    da, db = Direction.from_mapping(alpha), Direction.from_mapping(beta)
    summed = {k: alpha.get(k, 0.0) + beta.get(k, 0.0)
              for k in alpha.keys() | beta.keys()}
    summed = {k: v for k, v in summed.items() if v != 0.0}
    lhs = (apply_direction(Direction.from_mapping(summed), coords)
           if summed else 0.0)
    rhs = apply_direction(da, coords) + apply_direction(db, coords)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_project_sample_range_error():
    s = sample(gaussian_model(), 10, 3, seed=5)
    with pytest.raises(DirectionRangeError):
        project_sample(Direction.coordinate(4), s)
    proj = project_sample(Direction.from_mapping({1: 1.0, 3: -2.0}), s)
    assert proj == pytest.approx(s.data[:, 0] - 2.0 * s.data[:, 2])


@pytest.mark.parametrize("support_size", [1, 3, 5, 9])
def test_project_sample_is_apply_direction_per_row(support_size):
    # bit for bit on every row and both layouts; zero entries and a
    # negative first coefficient make signed zeros
    s = sample(gaussian_model(), 300, 9, seed=support_size)
    data = np.array(s.data, order="F")
    data[:7, :] = 0.0
    data[7:20:3, :] = -0.0
    rng = np.random.default_rng(support_size)
    support = np.sort(rng.choice(9, support_size, replace=False)) + 1
    coeffs = rng.standard_normal(support_size)
    coeffs[0] = -abs(coeffs[0])
    d = Direction(tuple(support.tolist()), tuple(coeffs.tolist()))
    for layout in (data, np.ascontiguousarray(data)):
        proj = project_sample(d, Sample(layout, s.seed))
        expected = np.array([apply_direction(d, row) for row in layout])
        assert proj.tobytes() == expected.tobytes()


def test_sample_is_column_major_and_read_only():
    s = sample(gaussian_model(), 5, 3, seed=8)
    assert s.data.flags.f_contiguous and not s.data.flags.c_contiguous
    assert not s.data.flags.writeable
    with pytest.raises(ValueError):
        s.data[0, 0] = 1.0


SRC = Path(__file__).resolve().parents[1] / "src"

# one density whose table is built from +, -, * and / alone (the logistic
# density's table follows the CPU's np.exp kernel)
EPANECHNIKOV = Density(
    pdf=lambda x: np.where(np.abs(x) <= 1.0, 0.75 * (1.0 - x * x), 0.0),
    support=(-1.0, 1.0), symmetric=True, name="epanechnikov")

# one model per family and stable index, drawn through every transform
FAMILY_MODELS = {
    "gaussian": gaussian_model(),
    "stable0.5": stable_model(0.5),
    "stable1": stable_model(1.0),
    "stable1.5": stable_model(1.5),
    "stable2": stable_model(2.0),
    "uniform": uniform_model(-1.0, 3.0),
    "uniform01": uniform_model(0.0, 1.0),   # skips the factor 1 and the +0
    "rademacher": rademacher_model(),
    "density": SequenceModel.iid(density_law(EPANECHNIKOV)),
}


def _family_digests(n, K):
    """The first 128 bits of the SHA-256 of one sample of every family."""
    return {name: hashlib.sha256(
        sample(model, n, K, seed=20131001).data.tobytes()).hexdigest()[:32]
        for name, model in FAMILY_MODELS.items()}


def test_sample_stream_pinned():
    # the sampling stream at a fixed seed, one pin per family; a change
    # here must be declared (README, Determinism)
    assert _family_digests(4, 8) == {
        "gaussian": "b8114d577791bdeb8ccc7f0c6ed45fee",
        "stable0.5": "d7402e46585c8a4996e285815f157b06",
        "stable1": "49ef040b91e00c13fe0dea78adb5af33",
        "stable1.5": "a8ad47a910f6ddf0507305782ae49093",
        "stable2": "fb7bea4fe6da5880c09fe4f04a578674",
        "uniform": "17a1cbfa2fd19477dde6530fa9d05ae7",
        "uniform01": "314c3ec58860b37f8715e0eceaf63f1d",
        "rademacher": "31f0ba25f3beb21273cc588b8cd7f5b1",
        "density": "5934988cf702f3a92faa46b0f45ab279",
    }


def test_sample_stream_does_not_follow_cpu_dispatch():
    # numpy picks its SIMD kernels by CPU at run time; with the widest ones
    # turned off in a child process (nothing else changed), every family's
    # sample must keep its bits.  On a CPU without those features both
    # children run the same kernels.
    code = ("import json, sys\n"
            f"sys.path[:0] = {[str(SRC), str(Path(__file__).parent)]!r}\n"
            "from test_models import _family_digests\n"
            "print(json.dumps(_family_digests(1000, 50)))")
    digests = []
    for disabled in (None, "AVX512_SPR AVX512_ICL X86_V4"):
        env = {k: v for k, v in os.environ.items()
               if k != "NPY_DISABLE_CPU_FEATURES"}
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout.splitlines()[-1]))
    assert digests[0] == digests[1]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_point_tail_values():
    a = Point((2.0,), tail=PowerTail(1.0, -2.0))
    assert a.value_at(1) == 2.0
    assert a.value_at(4) == pytest.approx(1.0 / 16.0)
    assert a.values(4) == pytest.approx([2.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])
    assert Point((1.0, 0.0)).value_at(3) == 0.0
    ks = np.arange(1, 10_001)
    for coef, exponent in ((1.0, -1.0), (1.0, -0.25), (0.7, -0.5),
                           (2.5, 1.3)):
        tail = PowerTail(coef, exponent)
        assert _bits(tail.values(ks)) == _bits([tail.value(k)
                                                for k in ks.tolist()])


def test_power_tail_values_at_exponent_zero():
    # the row is coef itself: pow(k, +-0) is 1 for every k, however large
    ks = np.concatenate([np.arange(1, 10_001),
                         [2.0 ** 53 + 2, 2.0 ** 64, 1e300,
                          1.7976931348623157e308]])
    for coef, exponent in ((1.0, 0.0), (-2.5, 0.0), (0.0, 0.0),
                           (-0.0, 0.0), (-1e-300, -0.0), (5e-324, -0.0),
                           (-1.7976931348623157e308, 0.0)):
        tail = PowerTail(coef, exponent)
        assert _bits(tail.values(ks)) == _bits([tail.value(k)
                                                for k in ks.tolist()])


@pytest.mark.parametrize("point", [
    Point.inverse_k(1.0),
    Point.inverse_k(0.5),
    Point((0.3, -2.0, 0.0), tail=PowerTail(-0.7, -0.6)),
], ids=["inverse-k", "inverse-sqrt-k", "explicit-and-tail"])
def test_point_values_equal_value_at_bitwise(point):
    # numpy's vector power differs from the scalar pow in the last bit for
    # some k at exponent -0.5; the row must be the scalar reading
    assert point.values(2000).tolist() == [point.value_at(k)
                                           for k in range(1, 2001)]
    assert point.values(2).tolist() == [point.value_at(1), point.value_at(2)]


def test_power_tail_overflow_is_infinite():
    tail = PowerTail(1.0, 400.0)
    assert tail.value(2) == 2.0 ** 400
    assert tail.value(10) == math.inf
    assert PowerTail(-3.0, 400.0).value(10) == -math.inf
    ks = np.arange(1, 11)
    for tail in (tail, PowerTail(-3.0, 400.0), PowerTail(1e300, 30.0),
                 PowerTail(-1e300, 30.0), PowerTail(0.0, 400.0),
                 PowerTail(1.0, -1.0), PowerTail(1.0, -0.25),
                 PowerTail(0.7, -0.5), PowerTail(2.5, 1.3)):
        assert _bits(tail.values(ks)) == _bits([tail.value(k)
                                                for k in range(1, 11)])
    # k**30 is finite at k = 10 and the product with 1e300 is not
    assert PowerTail(1e300, 30.0).values(ks)[-1] == math.inf


# -- sampling stream version 4 -------------------------------------------------

PHILOX_KEYS = np.array([[0, 0], [2 ** 64 - 1, 2 ** 64 - 1],
                        [2 ** 63 + 5, 2 ** 63 + 1234567],
                        [0xDEADBEEFCAFEF00D, 0x8000000000000000],
                        [17, 2 ** 64 - 2]], dtype=np.uint64)


@pytest.mark.parametrize("vector_words", [0, 64, 1 << 20],
                         ids=["c-philox", "default", "array-philox"])
def test_philox_words_match_numpy(monkeypatch, vector_words):
    monkeypatch.setattr(models, "VECTOR_WORDS", vector_words)
    for m in list(range(1, 10)) + [63, 64, 65, 257]:
        words = np.empty((len(PHILOX_KEYS), m), dtype=np.uint64)
        _philox_words(PHILOX_KEYS, words)
        for key, row in zip(PHILOX_KEYS, words):
            assert np.array_equal(row, np.random.Philox(key=key).random_raw(m))


EDGE = 2 ** 64 - 1


@pytest.mark.parametrize("law", [
    gaussian_law(), rademacher_law(), uniform_law(-1.0, 3.0),
    density_law(logistic_density()), stable_law(0.5), stable_law(1.0),
    stable_law(1.5), stable_law(2.0),
], ids=["gaussian", "rademacher", "uniform", "density", "stable0.5",
        "stable1", "stable1.5", "stable2"])
def test_transforms_are_finite_at_extreme_words(law):
    if law.family == STABLE:  # every (angle, exponential) pair of extremes
        words = np.array([0, 0, 0, EDGE, EDGE, 0, EDGE, EDGE], dtype=np.uint64)
    else:
        words = np.array([0, EDGE], dtype=np.uint64)
    out = np.empty(len(words) // (2 if law.family == STABLE else 1))
    _transform(law, words, out)
    assert np.all(np.isfinite(out))
    if law.family in (GAUSSIAN, RADEMACHER):
        assert out[0] < 0.0 < out[1]


def test_open_unit_equals_its_arithmetic_form():
    # the exponent-bit form against ((w >> 12) + 0.5) * 2**-52, at the
    # edges of the shifted-out bits and of the word range, and at random
    edges = np.array([0, 1, 2 ** 12 - 1, 2 ** 12, 2 ** 63,
                      2 ** 64 - 2 ** 12 - 1, 2 ** 64 - 2 ** 12, 2 ** 64 - 1],
                     dtype=np.uint64)
    random = np.random.default_rng(12).integers(
        0, 2 ** 64, size=10 ** 5, dtype=np.uint64, endpoint=False)
    for words in (edges, random):
        expected = ((words >> np.uint64(12)).astype(float) + 0.5) * 2.0 ** -52
        aliased = words.copy()
        got = models._open_unit(aliased, aliased.view(np.float64))
        assert _bits(got) == _bits(expected)
        # a strided view of the words into a separate array, as the
        # stable transform reads one word of each pair
        pairs = np.repeat(words, 2)
        got = models._open_unit(pairs[::2], np.empty(words.size))
        assert _bits(got) == _bits(expected)
        assert 0.0 < expected.min() and expected.max() < 1.0


STREAM_MODELS = {
    "gaussian": gaussian_model([2.0, 0.5], tail=PowerTail(0.7, -1.3)),
    "stable1.5": stable_model(1.5, tail=PowerTail(2.0, -0.5)),
    "rademacher": rademacher_model(),
    "uniform": SequenceModel(laws=(uniform_law(0.0, 1.0),),
                             tail=LawTail(uniform_law(-2.0, 5.0),
                                          PowerTail(3.0, 0.3))),
    "density": SequenceModel.iid(density_law(logistic_density())),
    "mixed": SequenceModel(laws=(gaussian_law(2.0), stable_law(1.0),
                                 gaussian_law(0.5), rademacher_law()),
                           tail=LawTail(gaussian_law(), PowerTail(1.0, 0.1))),
}


@pytest.mark.parametrize("name", sorted(STREAM_MODELS))
def test_column_is_a_prefix_of_longer_and_wider_samples(name):
    # value j of column k depends on (seed, k, j) alone: rows 40 and 100
    # straddle VECTOR_WORDS, so the two word paths must agree
    model = STREAM_MODELS[name]
    small = sample(model, 40, 5, seed=2 ** 40 + 3).data
    large = sample(model, 100, 9, seed=2 ** 40 + 3).data
    assert np.array_equal(small, large[:40, :5])
    assert np.array_equal(sample(model, 1, 9, seed=2 ** 40 + 3).data,
                          large[:1])


@pytest.mark.parametrize("name", sorted(STREAM_MODELS))
def test_seed_chunks_match_single_samples(monkeypatch, name):
    model = STREAM_MODELS[name]
    seeds = _derive_seed(9, RECORD_SEEDS, 7)
    for chunk in (None, 1, 3 * 6 * 4):  # default, one seed, four seeds
        if chunk is not None:
            monkeypatch.setattr(models, "DRAW_CHUNK", chunk)
        drawn = 0
        for lo, block in sample_chunks(model, 3, 6, seeds):
            assert block.shape == (6, min(len(seeds) - lo,
                                          max(1, models.DRAW_CHUNK // 18)), 3)
            for i in range(block.shape[1]):
                assert np.array_equal(
                    block[:, i].T, sample(model, 3, 6, int(seeds[lo + i])).data)
            drawn += block.shape[1]
        assert drawn == len(seeds)


def test_column_keys_of_seed_arrays_match_single_seeds():
    seeds = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1],
                     dtype=np.uint64)
    ks = np.array([0, 1, 7, 2 ** 32 - 1])
    keys = _column_keys(seeds, ks[:, None])
    assert keys.shape == (len(ks), len(seeds), 2)
    for i, seed in enumerate(seeds.tolist()):
        assert np.array_equal(keys[:, i], _column_keys(seed, ks))


@pytest.mark.parametrize("master", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5,
                                    2 ** 64 - 1])
def test_derived_seeds_match_philox(master):
    # seed i of a domain is word i of numpy's Philox keyed by
    # (master, domain * 2**32)
    seeds = _derive_seed(master, RECORD_SEEDS, 68856)
    assert seeds.dtype == np.uint64
    assert np.array_equal(
        seeds, _oracle_philox(master, RECORD_SEEDS << 32).random_raw(68856))
    # row i depends on (master, i) alone
    assert np.array_equal(_derive_seed(master, RECORD_SEEDS, 3), seeds[:3])
    lam = _derive_seed(master, LAMBDA_SEED)
    assert type(lam) is int
    assert lam == int(_oracle_philox(master, LAMBDA_SEED << 32).random_raw())
    for domain in (1, 0x6A9, 2 ** 32 - 1):
        assert np.array_equal(_derive_seed(master, domain, 5),
                              _oracle_philox(master, domain << 32
                                             ).random_raw(5))


def test_derived_seeds_do_not_collide():
    # under 32-bit seeds, records 2983 and 68855 of master 0 shared a seed,
    # and the lambda estimate's (0, 0xA11A) was record 0xA11A's seed
    records = _derive_seed(0, RECORD_SEEDS, 68856)
    pair = records[[2983, 68855]]
    assert pair[0] != pair[1]
    keys = _column_keys(pair, np.arange(1, 4)[:, None])
    assert not np.any(np.all(keys[:, 0] == keys[:, 1], axis=-1))
    assert _derive_seed(0, LAMBDA_SEED) != int(records[0xA11A])
    assert len({int(records[0]), _derive_seed(0, LAMBDA_SEED),
                _derive_seed(0, 0x6A9)}) == 3
    for domain in (0, 2 ** 32, -1):
        with pytest.raises(ValueError):
            _derive_seed(0, domain)


def test_derived_keys_are_never_column_keys(monkeypatch):
    # a derived stream's second key word is domain * 2**32 >= 2**32, and a
    # column's is its index k < 2**32
    seen = []
    fresh = models._fresh_philox_state

    def record(key):
        seen.append(np.array(key, dtype=np.uint64))
        return fresh(key)

    monkeypatch.setattr(models, "_fresh_philox_state", record)
    for master in (0, 2 ** 64 - 1):
        for domain in (1, RECORD_SEEDS, LAMBDA_SEED, 2 ** 32 - 1):
            _derive_seed(master, domain, 2)
        columns = _column_keys(master, [0, 1, 2 ** 32 - 1])
        for key in seen:
            assert key[1] > columns[:, 1].max()
            assert not np.any(np.all(columns == key, axis=-1))
    assert len(seen) == 8


def test_random_subsets_are_uniform_subsets():
    rows = 60_000
    picks = _random_subsets(_column_rng(5, 0), 5, 2, rows)
    assert picks.shape == (rows, 2)
    assert np.all((0 <= picks) & (picks < 5))
    assert np.all(picks[:, 0] != picks[:, 1])
    pairs = np.sort(picks, axis=1)
    freq = np.bincount(pairs[:, 0] * 5 + pairs[:, 1], minlength=25) / rows
    assert np.all(np.abs(freq[freq > 0] - 0.1) < 4.0 * math.sqrt(0.09 / rows))
    assert np.count_nonzero(freq) == 10
    full = _random_subsets(_column_rng(6, 0), 4, 4, 10)
    assert np.array_equal(np.sort(full, axis=1), np.tile(np.arange(4), (10, 1)))
