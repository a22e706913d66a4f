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
predicate (Shewchuk 1997), taken one chunk of ``PROJECT_CHUNK`` rows at a
time: the chunk's used columns are rounded to float32 once, and the live
directions of each support are screened on them by one float32 matrix
product per batch of at most ``SCREEN_BATCH``.  The screen is within a
proven bound delta of the reference on every row, whatever summation
order or fused multiply-adds the BLAS uses (``_band``), so a row above
t(a) + delta counts, and a direction's screen count is a lower bound on
its count.  After the first chunk the pilot, the direction with the least
screen count, is counted exactly; from then on a direction is dropped once
its screen count passes the pilot's count, or reaches it from a higher
family index: a count only grows, so it cannot be the minimum.  The
directions never dropped are counted exactly.  An exact count is the
reference arithmetic over the sample's columns, one chunk at a time, so
the counts are those of a loop over ``project_sample``, bit for bit, under
every BLAS build and thread count, and no buffer grows with the number of
rows.  Ties go to the first direction in family order, whichever
direction is counted first.

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
# Rows of one chunk of the float32 screen and of the exact count (64 KiB of
# float32 projections per direction); read at call time
PROJECT_CHUNK = 1 << 14
# Most directions of one support group screened by one float32 product
SCREEN_BATCH = 8
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
    shorter, in which the screen and the exact count read an n-row
    sample."""
    return [(lo, min(lo + PROJECT_CHUNK, n))
            for lo in range(0, n, PROJECT_CHUNK)]


@dataclass(frozen=True, eq=False)
class _SupportGroup:
    """The directions of one support, in family order: their family
    indices, the support's 0-based columns and their rows in the chunk's
    float32 cast, the coefficients in float64 and float32, t(a) and the
    screen's bound ``high``."""

    members: np.ndarray
    idx: np.ndarray
    pos: np.ndarray
    coeffs: np.ndarray
    c32: np.ndarray
    thresholds: np.ndarray
    high: np.ndarray

    def screen(self, block: np.ndarray, rs: np.ndarray, proj: np.ndarray,
               above: np.ndarray, screened: np.ndarray) -> None:
        """Add to ``screened`` the rows of ``block``, one chunk of the
        support's float32 columns, whose screen value in the directions
        ``members[rs]`` exceeds high: one float32 product into ``proj`` and
        one comparison into ``above`` per batch of at most ``len(proj)``
        directions, and one ``count_nonzero`` per direction."""
        rows = block.shape[1]
        for b in range(0, rs.size, len(proj)):
            batch = rs[b:b + len(proj)]
            out, mask = proj[:batch.size, :rows], above[:batch.size, :rows]
            np.matmul(self.c32[batch], block, out=out)
            np.greater(out, self.high[batch, None], out=mask)
            screened[self.members[batch]] += [np.count_nonzero(row)
                                              for row in mask]

    def count(self, data: np.ndarray, rs: np.ndarray, chunks: list,
              limits: np.ndarray) -> np.ndarray:
        """The exact counts of rows whose reference projection in the
        directions ``members[rs]`` is >= t(a), summed chunk by chunk, the
        batch's directions at once in the arithmetic of
        ``_support_order_sum``.  Counting stops once every count passes its
        limit; a count past its limit is then only known to be so."""
        totals = np.zeros(rs.size, dtype=np.int64)
        c, t = self.coeffs[rs].T[:, :, None], self.thresholds[rs, None]
        for lo, hi in chunks:
            values = _support_order_sum([data[lo:hi, k] for k in self.idx], c)
            totals += [np.count_nonzero(row) for row in values >= t]
            if np.all(totals > limits):
                break
        return totals


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
    data, point = s.data, a.values(s.K)
    used = np.unique(index - 1)
    columns = used.tolist()
    # max |x| of every used column, NaN where the column holds one
    peaks = np.empty(used.size)
    for j, k in enumerate(columns):
        peaks[j] = np.maximum(data[:, k].max(), -data[:, k].min())
    chunks = _row_chunks(s.n)
    length = chunks[0][1]
    cast = np.empty((used.size, length), dtype=np.float32)
    batch = min(SCREEN_BATCH, max(map(len, by_support.values())))
    proj = np.empty((batch, length), dtype=np.float32)
    above = np.empty((batch, length), dtype=bool)
    # lower bounds on the counts: rows whose screen value exceeds high
    screened = np.zeros(count, dtype=np.int64)
    groups = []
    owner = np.empty(count, dtype=np.intp)  # each direction's group
    best, first = s.n + 1, count
    # float32 overflow is caught by the band, not reported
    with np.errstate(over="ignore", invalid="ignore"):
        for support, members in by_support.items():
            idx = np.asarray(support) - 1
            pos = np.searchsorted(used, idx)
            group = coeffs[ptr[members][:, None] + np.arange(len(support))]
            # t(a) as apply_direction sums it
            thresholds = _support_order_sum(group.T, point[idx])
            owner[members] = len(groups)
            groups.append(_SupportGroup(
                np.asarray(members), idx, pos, group, group.astype(np.float32),
                thresholds, _band(group, peaks[pos], thresholds)))
        order = np.arange(count)
        live = np.ones(count, dtype=bool)
        for lo, hi in chunks:
            rows = hi - lo
            for j, k in enumerate(columns):
                cast[j, :rows] = data[lo:hi, k]
            for g in groups:
                rs = np.flatnonzero(live[g.members])
                if rs.size:
                    g.screen(cast[g.pos, :rows], rs, proj, above, screened)
            if lo == 0:
                # the pilot, the least screen count: its exact count bounds
                # every other direction's
                first = int(np.argmin(screened))
                g = groups[owner[first]]
                pilot = np.searchsorted(g.members, [first])
                best = int(g.count(data, pilot, chunks, [s.n])[0])
                live[first] = False
            # direction i becomes the minimizer with a count of at most best
            # if i < first, else best - 1 (a tie goes to the lower family
            # index), and its count is at least its screen count
            live &= screened <= np.where(order < first, best, best - 1)
            if not live.any():
                break
        # the directions still live, counted exactly in batches whose values
        # fill at most one chunk: within a batch, the least count that meets
        # its limit, the lowest index among ties
        step = max(1, PROJECT_CHUNK // length)
        for g in groups:
            rs = np.flatnonzero(live[g.members])
            for b in range(0, rs.size, step):
                ids = g.members[rs[b:b + step]]
                limits = np.where(ids < first, best, best - 1)
                totals = g.count(data, rs[b:b + step], chunks, limits)
                j = int(np.argmin(totals))
                if totals[j] <= limits[j]:
                    best, first = int(totals[j]), int(ids[j])
    lo, hi = bounds[first], bounds[first + 1]
    return int(best) / s.n, Direction(index[lo:hi], coeffs[lo:hi])


def _gamma(m: int, u: float) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error bound of an
    m-term dot product in unit roundoff u, in any order, with or without
    fused multiply-adds."""
    return m * u / (1.0 - m * u) if m * u < 1.0 else math.inf


def _band(group: np.ndarray, col_max: np.ndarray, thresholds: np.ndarray
          ) -> np.ndarray:
    """float32 bound ``high`` per direction of a support group, such that
    a row whose screen value exceeds high has reference projection >= t(a).

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
    is infinite and no row passes high.
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
    # rounded up to float32: a screen value above the result is above high
    out = high.astype(np.float32)
    below = out < high
    out[below] = np.nextafter(out[below], np.float32(math.inf))
    return out


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
