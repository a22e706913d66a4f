"""depthlab.special against the C library, mpmath and scipy as oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from depthlab import special


def _ordinal(x):
    """Each float's place in the ordered float64 line: adjacent floats
    differ by 1, and -0.0 and 0.0 are one place."""
    i = np.asarray(x, dtype=float).view(np.int64)
    return np.where(i < 0, np.int64(-2 ** 63) - i, i)


def _ulps(ours, ref):
    return np.abs(_ordinal(ours) - _ordinal(ref))


# the arguments each kernel meets in the stream's transforms: open-unit
# uniforms and exponentials for log, the stable exponent for exp, angles
# p v with |v| < pi/2 and p <= 2 for sin and cos; ten million each, in
# chunks, from a fixed generator
KERNEL_POINTS = 10_000_000
KERNEL_CHUNK = 1 << 20


def _log_args(rng, m):
    return np.concatenate([
        ((rng.integers(0, 2 ** 52, m // 2, dtype=np.uint64)) + 0.5)
        * 2.0 ** -52,
        np.exp2(rng.uniform(-60.0, 6.0, m - m // 2))])


def _exp_args(rng, m):
    return np.concatenate([rng.uniform(-745.0, 709.0, m // 2),
                           rng.uniform(-2.0, 2.0, m - m // 2)])


def _angles(rng, m):
    return np.concatenate([rng.uniform(-math.pi, math.pi, m // 2),
                           rng.uniform(-1e-3, 1e-3, m // 4),
                           math.pi / 2 + rng.uniform(-1e-9, 1e-9,
                                                     m - m // 2 - m // 4)])


@pytest.mark.parametrize("name, ref, args", [
    ("log", math.log, _log_args),
    ("exp", math.exp, _exp_args),
    ("sin", math.sin, _angles),
    ("cos", math.cos, _angles),
])
def test_kernels_within_one_ulp_of_libm(name, ref, args):
    # fdlibm's kernels are within one ulp of the true value, and the C
    # library's nearly always round it correctly, so the two are at most
    # one ulp apart
    rng = np.random.default_rng(1988)
    kernel = getattr(special, name)
    worst = 0
    for lo in range(0, KERNEL_POINTS, KERNEL_CHUNK):
        x = args(rng, min(KERNEL_CHUNK, KERNEL_POINTS - lo))
        expected = np.fromiter(map(ref, x.tolist()), float, len(x))
        worst = max(worst, int(_ulps(kernel(x), expected).max()))
    assert worst <= 1


@pytest.mark.parametrize("name", ["log", "exp", "sin", "cos"])
def test_kernels_within_one_ulp_of_mpmath(name):
    rng = np.random.default_rng(241)
    x = {"log": _log_args, "exp": _exp_args, "sin": _angles,
         "cos": _angles}[name](rng, 2000)
    with mpmath.workprec(200):
        f = getattr(mpmath, name)
        expected = np.array([float(f(mpmath.mpf(v))) for v in x.tolist()])
    assert _ulps(getattr(special, name)(x), expected).max() <= 1


def test_kernels_keep_their_edges():
    assert special.log(np.array([1.0, 2.0 ** -1074, 2.0 ** 1023])).tolist(
    ) == [0.0, math.log(2.0 ** -1074), math.log(2.0 ** 1023)]
    assert special.exp(np.array([0.0, -746.0, 710.0, -1e-300])).tolist() == [
        1.0, 0.0, math.inf, 1.0]
    assert special.sin(np.array([0.0, 1e-300])).tolist() == [0.0, 1e-300]
    assert special.cos(np.array([0.0])).tolist() == [1.0]
    with pytest.raises(ValueError):
        special.sin(np.array([special.TRIG_LIMIT]))
    with pytest.raises(ValueError):
        special.cos(np.array([math.nan]))


def _mp_ndtri(p):
    with mpmath.workprec(200):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


# the stream's extreme uniforms, both sides of the central split, and both
# sides of r = sqrt(-log p) = 5, where the far tail rational takes over
NDTRI_EDGES = [2.0 ** -53, 1.0 - 2.0 ** -53, 0.075, 0.925,
               math.exp(-25.0), 1.0 - math.exp(-25.0), 0.5, 0.5 + 2.0 ** -53]
NDTRI_EDGES += [math.nextafter(p, 0.0) for p in NDTRI_EDGES[2:6]]
NDTRI_EDGES += [math.nextafter(p, 1.0) for p in NDTRI_EDGES[2:6]]


def test_ndtri_matches_mpmath_at_edges_and_tails():
    # AS 241 is good to about 1e-16 relative
    p = np.array(NDTRI_EDGES)
    ours = special.ndtri(p)
    for pi, x in zip(NDTRI_EDGES, ours.tolist()):
        ref = _mp_ndtri(pi)
        assert abs(x - ref) <= 1e-15 * abs(ref), pi


def test_ndtri_matches_mpmath_on_stream_uniforms():
    rng = np.random.default_rng(5)
    w = rng.integers(0, 2 ** 64, 1000, dtype=np.uint64, endpoint=False)
    p = ((w >> np.uint64(12)) + 0.5) * 2.0 ** -52
    ref = np.array([_mp_ndtri(v) for v in p.tolist()])
    assert np.all(np.abs(special.ndtri(p) - ref) <= 1e-15 * np.abs(ref))


def test_ndtri_in_place_and_in_chunks(monkeypatch):
    # values do not depend on the pass size or on aliasing; 1 - p is exact
    # on the stream's grid, and the quantile is odd about it
    rng = np.random.default_rng(7)
    w = rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64, endpoint=False)
    p = ((w >> np.uint64(12)) + 0.5) * 2.0 ** -52
    whole = special.ndtri(p)
    monkeypatch.setattr(special, "_CHUNK", 777)
    inplace = p.copy()
    assert special.ndtri(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, whole)
    assert np.array_equal(special.ndtri(1.0 - p), -whole)
    assert np.array_equal(special.ndtri(p[::2]), whole[::2])
    with pytest.raises(ValueError):
        special.ndtri(p[::2], out=np.empty(len(p))[::2])


def test_ndtr_matches_mpmath():
    # through erf(a / sqrt 2), whose argument carries one rounding: the
    # relative error grows like a^2 in the far tail
    rng = np.random.default_rng(11)
    args = np.concatenate([rng.uniform(-37.0, 38.0, 3000),
                           rng.uniform(-1.5, 1.5, 2000),
                           [0.0, 1.0, -1.0, math.nextafter(1.0, 0.0), 8.5]])
    with mpmath.workprec(200):
        for a in args.tolist():
            ref = float(mpmath.ncdf(a))
            assert abs(special.ndtr(a) - ref) <= 2.0 ** -51 * (1 + a * a) * ref
    assert special.ndtr(-math.inf) == 0.0 and special.ndtr(math.inf) == 1.0


def test_zeta_is_scipys_bit_for_bit():
    # the same recurrence in the same order over the same pow
    rng = np.random.default_rng(13)
    xs = [1.0000001, 1.001, 1.1, 1.5, 2.0, 2.6, 4.0, 7.0, 20.0, 100.0,
          1000.0] + rng.uniform(1.0, 60.0, 200).tolist()
    qs = [1.0, 2.0, 3.0, 8.999, 9.0, 10.0, 101.0, 12345.0, 1e8, 1e8 + 1.0,
          2e9] + np.floor(np.exp(rng.uniform(0.0, 25.0, 20))).tolist()
    for x in xs:
        for q in qs:
            assert special.zeta(x, q) == float(scipy_zeta(x, q)), (x, q)
    with pytest.raises(ValueError):
        special.zeta(1.0, 2.0)
