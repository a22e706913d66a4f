"""Empirical half-space depth over finite direction families, and the
consistency-failure experiments.

The infimum over an infinite class of functionals is always replaced by an
explicit finite family; results name the family and never claim the true
infimum.  Coordinate families alone already force empirical depth to zero
in the regimes of interest, so finite families suffice for every
demonstrated phenomenon.

A family is a description and a builder of ragged arrays (ptr, index,
coeffs) in family order: direction i has the 1-based, increasing support
``index[ptr[i]:ptr[i + 1]]`` and the matching slice of ``coeffs``.
Evaluation reads these arrays, and no ``Direction`` is built except the
minimizer.  When the directions are the coordinates 1..K in order, each
with coefficient exactly 1.0, the depth is one column-chunked comparison
of the sample against the point's coordinates; only for coefficient 1.0
is that exact, since c*x >= c*a can round differently from x >= a.

Any other family is counted against the reference arithmetic of
``project_sample`` and ``apply_direction`` (c_1 x_1, then + c_j x_j in
support order, in float64), which computes t(a) and t(X_j) alike, so a
sample row equal to the point ties with it.  The count is a filtered
predicate (Shewchuk 1997): the support columns of each distinct support
are rounded once into a float32 column-major array, and every direction
on that support is screened by a float32 matrix-vector product, one
chunk of ``PROJECT_CHUNK`` rows at a time.  The screen is within a proven
bound delta of the reference on every row, whatever summation order or fused
multiply-adds the BLAS uses (``_band``); a row above t(a) + delta counts,
and a lower bound on the count suffices to stop counting a direction
once it exceeds the least complete count so far: a count only grows, so
it cannot be the minimum.  A direction that is never stopped is settled:
the rows of its band, within delta of t(a) or NaN, are recounted in the
reference arithmetic.  The counts are therefore those of a loop over
``project_sample``, bit for bit, under every BLAS build and thread count.
Ties go to the first direction in family order, whichever support group
is counted first.

The consistency-failure experiment compares column windows of at least
``_WINDOW_FLOOR`` values with the point at once, stops drawing a seed at
its first zero count, and keeps its rows as arrays, one entry per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import models
from .analytic import gaussian_sequence_depth, rademacher_classify, stable_depth
from .errors import DirectionRangeError, LawUnavailableError
from .models import (
    GAUSSIAN,
    RADEMACHER,
    RECORD_SEEDS,
    STABLE,
    Direction,
    Point,
    Sample,
    SequenceModel,
    _column_keys,
    _column_plan,
    _column_rng,
    _derive_seed,
    _draw,
    _random_subsets,
    _support_order_sum,
)

# Most booleans one chunk of the coordinate family's comparison may hold
# (1 MiB); a chunk is at least one column.
COMPARE_CHUNK = 1 << 20
# Rows of one chunk of the float32 screen (64 KiB of projections); read at
# call time
PROJECT_CHUNK = 1 << 14
# Coefficient sums and column maxima past which a support group is out of
# the float32 screen's range (2^128, less room for rounding): its band is
# every row
_SCREEN_LIMIT = 2.0 ** 120
# Fewest values a column window of ``zero_depth_experiment`` draws (4 KiB),
# unless fewer columns remain: below it a draw costs about the same
# whatever its size
_WINDOW_FLOOR = 512

# (ptr, index, coeffs): direction i is index[ptr[i]:ptr[i + 1]], 1-based
# and increasing, with coefficients coeffs[ptr[i]:ptr[i + 1]]
Arrays = tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# Direction families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DirectionFamily:
    """A finite direction family: its description, and a builder of its
    ragged arrays from the sample width.

    Families compare by identity: two explicit families of equal size share
    a description but not their directions.
    """

    description: str
    build: Callable[[int], Arrays]

    @staticmethod
    def coordinates(K: int) -> "DirectionFamily":
        if K < 1:
            raise ValueError("K must be >= 1")
        return DirectionFamily(
            f"coordinates(K={K})",
            lambda width: (np.arange(K + 1), np.arange(1, K + 1), np.ones(K)))

    @staticmethod
    def random_sparse(count: int, support_size: int, seed: int
                      ) -> "DirectionFamily":
        if count < 1 or support_size < 1:
            raise ValueError("count and support_size must be >= 1")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must lie in [0, 2**64)")

        def build(width) -> Arrays:
            rng = _column_rng(seed, 0xD1CE)
            size = min(support_size, width)
            supports = np.sort(_random_subsets(rng, width, size, count),
                               axis=1) + 1
            coeffs = rng.standard_normal((count, size))
            coeffs[coeffs == 0.0] = 1.0
            return (np.arange(0, count * size + 1, size), supports.ravel(),
                    coeffs.ravel())

        return DirectionFamily(f"random_sparse(count={count}, "
                               f"support={support_size}, seed={seed})", build)

    @staticmethod
    def explicit(directions: Sequence[Direction]) -> "DirectionFamily":
        if len(directions) == 0:
            raise ValueError("explicit family must be nonempty")
        directions = tuple(directions)
        return DirectionFamily(f"explicit({len(directions)} directions)",
                               lambda width: _ragged(directions))

    def arrays(self, width: int) -> Arrays:
        """The ragged arrays, all supports within the given sample width."""
        ptr, index, coeffs = self.build(width)
        if index.max() > width:
            raise DirectionRangeError(
                f"direction out of range: support reaches {index.max()}, "
                f"width is {width}")
        return ptr, index, coeffs


def _ragged(directions: Sequence[Direction]) -> Arrays:
    """The ragged arrays of the given directions, in their order."""
    sizes = [len(d.support) for d in directions]
    return (np.concatenate(([0], np.cumsum(sizes))),
            np.concatenate([d.support for d in directions]),
            np.concatenate([d.coeffs for d in directions]))


# ---------------------------------------------------------------------------
# Empirical half-space depth
# ---------------------------------------------------------------------------

def _row_chunks(n: int) -> list[tuple[int, int]]:
    """Row bounds (lo, hi) of ``PROJECT_CHUNK`` rows each, the last one
    shorter, in which the screen reads an n-row sample."""
    return [(lo, min(lo + PROJECT_CHUNK, n))
            for lo in range(0, n, PROJECT_CHUNK)]


def empirical_half_space_depth(a: Point, s: Sample, family: DirectionFamily
                               ) -> tuple[float, Direction]:
    """min over the family of n^{-1} sum_j 1{t(X_j) >= t(a)}.

    Ties count toward the depth (the indicator is >=). Returns the first
    minimizer in family order.
    """
    ptr, index, coeffs = family.arrays(s.K)
    count = len(ptr) - 1
    if (index.size == count and np.array_equal(index, np.arange(1, count + 1))
            and np.all(coeffs == 1.0)):
        return _coordinate_depth(s.data, a.values(count))
    bounds, indices = ptr.tolist(), index.tolist()
    by_support: dict[tuple[int, ...], list[int]] = {}
    for i in range(count):
        support = tuple(indices[bounds[i]:bounds[i + 1]])
        by_support.setdefault(support, []).append(i)
    point = a.values(s.K)
    # max |x| of every support column, taken once whatever the groups
    peaks = np.empty(s.K)
    for k in np.unique(index - 1).tolist():
        column = s.data[:, k]
        peaks[k] = np.maximum(column.max(), -column.min())
    chunks = _row_chunks(s.n)
    width = max(len(support) for support in by_support)
    cols = np.empty((s.n, width), dtype=np.float32, order="F")
    proj = np.empty(chunks[0][1], dtype=np.float32)
    above = np.empty(chunks[0][1], dtype=bool)
    best, first = s.n + 1, count
    # float32 overflow is caught by the band, not reported
    with np.errstate(over="ignore", invalid="ignore"):
        for support, members in by_support.items():
            idx = np.asarray(support) - 1
            m = len(support)
            group = coeffs[ptr[members][:, None] + np.arange(m)]
            # t(a) as apply_direction sums it
            thresholds = _support_order_sum(group.T, point[idx])
            for j, k in enumerate(idx):
                cols[:, j] = s.data[:, k]
            screen = cols[:, :m]
            highs, lows = _band(group, peaks[idx], thresholds)
            blocks = [(lo, screen[lo:hi], proj[:hi - lo], above[:hi - lo])
                      for lo, hi in chunks]
            for i, c, c32, t, high, low in zip(
                    members, group, group.astype(np.float32), thresholds,
                    highs, lows):
                # i becomes the minimizer with a count of at most `limit`: a
                # tie goes to the lower family index
                limit = best if i < first else best - 1
                total = 0
                for _, block, out, mask in blocks:
                    np.greater(np.matmul(block, c32, out=out), high, out=mask)
                    total += np.count_nonzero(mask)
                    if total > limit:
                        break
                else:
                    total = _settle(s.data, idx, c, t, c32, high, low, blocks)
                    if total <= limit:
                        best, first = total, i
    lo, hi = bounds[first], bounds[first + 1]
    return int(best) / s.n, Direction(index[lo:hi], coeffs[lo:hi])


def _gamma(m: int, u: float) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error bound of an
    m-term dot product in unit roundoff u, in any order, with or without
    fused multiply-adds."""
    return m * u / (1.0 - m * u) if m * u < 1.0 else math.inf


def _band(group: np.ndarray, col_max: np.ndarray, thresholds: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """float32 bounds (high, low) per direction of a support group, such
    that a row whose screen value exceeds high has reference projection
    >= t(a), and one whose screen value is below low has one < t(a).

    The screen value is the float32 product of the float32-rounded columns
    and coefficients.  Whatever order and fusion the BLAS uses, it is within
    delta = rel * sum_k |c_k| max_j |x_jk| + abs of the reference (Higham
    2002, section 3.1), where rel sums the float32 dot product's bound
    gamma_m(2^-24) (1 + 2^-24)^2, the float32 rounding of both factors,
    2 * 2^-24 + 2^-48, and the float64 reference's gamma_m(2^-53); abs
    covers underflow, each rounding below float32's normal range losing
    less than 2^-126 even where a BLAS flushes subnormals to zero.  A
    group whose coefficient sum, column maxima or weighted sum pass
    ``_SCREEN_LIMIT``, or are not finite, is past float32's range: delta
    is infinite and every row is in the band.
    """
    m = group.shape[1]
    u, eta = 2.0 ** -24, 2.0 ** -126
    magnitudes = np.abs(group)
    coeff_sum, weighted = magnitudes.sum(axis=1), magnitudes @ col_max
    col_sum = col_max.sum()
    rel = (_gamma(m, u) * (1.0 + u) ** 2 + 2.0 * u + u * u
           + _gamma(m, 2.0 ** -53))
    absolute = ((1.0 + _gamma(m, u)) * (1.0 + u) * eta
                * (coeff_sum + col_sum + 2 * m) + m * 2.0 ** -1074)
    # the last factor covers the float64 rounding of delta's own evaluation
    delta = (rel * weighted + absolute) * (1.0 + (m + 4) * 2.0 ** -52)
    delta[~(np.maximum(coeff_sum, weighted) <= _SCREEN_LIMIT)
          | ~(col_sum <= _SCREEN_LIMIT)] = math.inf
    high = np.nextafter(thresholds + delta, math.inf)
    low = np.nextafter(thresholds - delta, -math.inf)
    return _to_float32(high, math.inf), _to_float32(low, -math.inf)


def _to_float32(values: np.ndarray, toward: float) -> np.ndarray:
    """float32 values rounded toward +inf or -inf from float64 ones."""
    out = values.astype(np.float32)
    off = (out > values) if toward < 0 else (out < values)
    out[off] = np.nextafter(out[off], np.float32(toward))
    return out


def _settle(data: np.ndarray, idx: np.ndarray, c: np.ndarray, t: float,
            c32: np.ndarray, high: np.float32, low: np.float32,
            blocks: list) -> int:
    """The exact count of rows whose reference projection is >= t.

    A row whose screen value exceeds high counts and one below low does
    not; the rest, the band (NaN included), are recounted in the reference
    arithmetic: gathered, or with the whole chunk when the band holds more
    than an eighth of it, where the gather would cost more.
    """
    total = 0
    for lo, block, out, mask in blocks:
        np.matmul(block, c32, out=out)
        np.greater(out, high, out=mask)
        band = np.flatnonzero(~(mask | (out < low)))
        if 8 * band.size > out.size:
            band = slice(lo, lo + out.size)
        else:
            total += np.count_nonzero(mask)
            band += lo
        values = _support_order_sum([data[band, k] for k in idx], c)
        total += np.count_nonzero(values >= t)
    return total


def _coordinate_depth(data: np.ndarray, thresholds: np.ndarray
                      ) -> tuple[float, Direction]:
    """Depth over coordinates 1..K, K = len(thresholds), and its first
    minimizer.

    Compares column chunks of at most ``COMPARE_CHUNK`` entries and stops
    after the first chunk with a zero count: no later column can beat it.
    """
    n, K = data.shape[0], thresholds.size
    step = max(1, COMPARE_CHUNK // n)
    chunks = []
    for lo in range(0, K, step):
        hi = min(lo + step, K)
        chunks.append(np.count_nonzero(data[:, lo:hi] >= thresholds[lo:hi],
                                       axis=0))
        if not chunks[-1].all():
            break
    counts = np.concatenate(chunks)
    k = int(np.argmin(counts))
    return int(counts[k]) / n, Direction.coordinate(k + 1)


# ---------------------------------------------------------------------------
# Experiment results
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """The coordinate experiment's summary and its rows, arrays of shape
    (seeds,): ``seeds`` (uint64), ``counts``, the least number of rows at
    or above the point over coordinates 1..K, so the empirical depth is
    ``counts / n``, and ``argmin``, the first minimizing coordinate, 1-based
    (int64)."""

    n: int
    K: int
    seeds: np.ndarray
    counts: np.ndarray
    argmin: np.ndarray
    fraction_zero: float
    fraction_zero_stderr: float
    mean_depth: float
    true_depth_reference: Optional[float]
    analytic_floor: Optional[float]
    consistency_failure: Optional[bool]
    ratio_vanishes: bool
    family: str


def reference_depth(a: Point, model: SequenceModel) -> Optional[float]:
    """True half-space depth from the analytic module, when available."""
    fams = model.families()
    if fams == {GAUSSIAN}:
        return gaussian_sequence_depth(a, model).value
    if fams == {STABLE}:
        return stable_depth(a, model).value
    if fams == {RADEMACHER}:
        cls = rademacher_classify(a)
        return 0.0 if cls.label == "ZERO" else None
    return None


def _ratio_vanishes(a: Point, model: SequenceModel, K: int) -> bool:
    """Heuristic check of the normalization t_k(a)/sigma_k -> 0."""
    if a.tail is not None and not a.tail.is_zero:
        if model.tail is None:
            return False
        # std is proportional to the scale tail for every family, so the
        # ratio vanishes exactly when the exponents say so
        return a.tail.exponent < model.tail.scale.exponent
    # explicit point: the ratio is eventually zero by the zero tail
    return True


def _analytic_floor(a: Point, model: SequenceModel, n: int, K: int
                    ) -> Optional[float]:
    """1 - (1 - dhat^n)^K with dhat = min_k P(t_k(X) < t_k(a)), read at scale
    1 once per run of one law shape, at its least t_k(a)/c_k (the CDF is
    nondecreasing); None when the model has no law for a coordinate <= K."""
    try:
        runs, scales = _column_plan(model, K)
    except LawUnavailableError:
        return None
    z = a.values(K) / scales
    dhat = min(replace(law, scale=1.0).prob_below(float(z[lo:hi].min()))
               for lo, hi, law in runs)
    return 1.0 - (1.0 - dhat ** n) ** K


def zero_depth_experiment(model: SequenceModel, a: Point, n: int, K: int,
                          seeds: int, master_seed: int = 0) -> ExperimentResult:
    """Per-seed empirical depth under the coordinate family, with summary.

    Reports the fraction of seeds whose empirical depth is exactly zero,
    its binomial standard error, the analytic floor on the zero
    probability, and a consistency-failure flag when the true depth is
    positive while the empirical depth collapses.  Row i holds seed
    ``_derive_seed(master_seed, RECORD_SEEDS, seeds)[i]`` and the least
    count and first minimizer of ``sample(model, n, K, seed)``.

    Seeds are taken in chunks of at most ``DRAW_CHUNK // n``, and a
    chunk's columns are drawn in windows for its live seeds.
    A window holds at least ``_WINDOW_FLOOR`` values, or the chunk's
    remaining columns, and at most ``DRAW_CHUNK`` values (one column of
    one seed at least); its width doubles from one column, or from the
    floor's width where that is wider.  A seed leaves at its first zero
    count: no later column can lower it, and a tie keeps the earlier
    column.  Value j of column k depends on (seed, k, j) alone, so the rows
    are those of the whole samples, bit for bit, and a draw never holds a
    whole sample.
    """
    if n < 1 or K < 1:
        raise ValueError("n and K must be >= 1")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    thresholds = a.values(K)
    plan = _column_plan(model, K)
    seed_row = _derive_seed(master_seed, RECORD_SEEDS, seeds)
    # above every count, so a seed's first window sets its row
    least = np.full(seeds, n + 1, dtype=np.int64)
    first = np.zeros(seeds, dtype=np.int64)
    per = max(1, models.DRAW_CHUNK // n)
    for lo in range(0, seeds, per):
        live = np.arange(lo, min(lo + per, seeds))
        start, width = 0, 1
        while live.size and start < K:
            values = n * live.size
            width = max(width, -(-_WINDOW_FLOOR // values))
            end = min(start + width, K,
                      start + max(1, models.DRAW_CHUNK // values))
            keys = _column_keys(seed_row[live],
                                np.arange(start + 1, end + 1)[:, None])
            block = _draw(plan, n, keys, start)
            counts = np.count_nonzero(
                block >= thresholds[start:end, None, None], axis=2)
            low = counts.min(axis=0)
            better = low < least[live]
            least[live[better]] = low[better]
            first[live[better]] = counts.argmin(axis=0)[better] + start + 1
            live = live[least[live] > 0]
            start, width = end, 2 * width
    frac = int(np.count_nonzero(least == 0)) / seeds
    stderr = math.sqrt(frac * (1.0 - frac) / seeds)
    true_depth = reference_depth(a, model)
    failure = None
    if true_depth is not None:
        failure = bool(true_depth > 0.0 and frac >= 0.5)
    return ExperimentResult(
        n=n, K=K, seeds=seed_row, counts=least, argmin=first,
        fraction_zero=frac, fraction_zero_stderr=stderr,
        mean_depth=float(np.mean(least / n)),
        true_depth_reference=true_depth,
        analytic_floor=_analytic_floor(a, model, n, K),
        consistency_failure=failure,
        ratio_vanishes=_ratio_vanishes(a, model, K),
        family=DirectionFamily.coordinates(K).description)
