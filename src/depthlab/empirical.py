"""Empirical half-space depth over finite direction families, and the
consistency-failure experiments.

The infimum over an infinite class of functionals is always replaced by an
explicit finite family; results name the family and never claim the true
infimum.  Coordinate families alone already force empirical depth to zero
in the regimes of interest, so finite families suffice for every
demonstrated phenomenon.

Evaluation is array-shaped.  The coordinate family is one column-chunked
comparison of the sample against the point's coordinates, and no
``Direction`` is built except the minimizer.  Any other family gathers the
sample columns of each distinct support once and projects every direction
on that support by its own matrix-vector product, one row chunk at a time
(``models._row_chunks``), into one preallocated chunk buffer; these are
bitwise the products ``project_sample`` computes.  A direction stops being
counted once its partial count exceeds the least complete count so far: a
count only grows, so it cannot be the minimum, and the result is exact.
Ties go to the first direction in family order, whichever support group
is counted first.  Directions are never batched into one matrix-matrix
product: that sums in another order and changes low bits of the
projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .analytic import gaussian_sequence_depth, rademacher_classify, stable_depth
from .errors import DirectionRangeError, LawUnavailableError
from .models import (
    GAP_SEEDS,
    GAUSSIAN,
    RADEMACHER,
    RECORD_SEEDS,
    STABLE,
    Direction,
    Point,
    Sample,
    SequenceModel,
    _column_plan,
    _column_rng,
    _derive_seed,
    _random_subsets,
    _row_chunks,
    sample,
    sample_chunks,
)

COORDINATES = "coordinates"
RANDOM_SPARSE = "random_sparse"
MARKOV_WITNESSES = "markov_witnesses"
EXPLICIT = "explicit"

# Most booleans one chunk of the coordinate family's comparison may hold
# (1 MiB); a chunk is at least one column.
COMPARE_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# Direction families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionFamily:
    kind: str
    K: Optional[int] = None
    count: Optional[int] = None
    support_size: Optional[int] = None
    seed: Optional[int] = None
    depths: Optional[tuple[int, ...]] = None
    directions: Optional[tuple[Direction, ...]] = None

    @staticmethod
    def coordinates(K: int) -> "DirectionFamily":
        if K < 1:
            raise ValueError("K must be >= 1")
        return DirectionFamily(COORDINATES, K=K)

    @staticmethod
    def random_sparse(count: int, support_size: int, seed: int
                      ) -> "DirectionFamily":
        if count < 1 or support_size < 1:
            raise ValueError("count and support_size must be >= 1")
        return DirectionFamily(RANDOM_SPARSE, count=count,
                               support_size=support_size, seed=seed)

    @staticmethod
    def markov_witnesses(depths: Sequence[int]) -> "DirectionFamily":
        return DirectionFamily(MARKOV_WITNESSES, depths=tuple(depths))

    @staticmethod
    def explicit(directions: Sequence[Direction]) -> "DirectionFamily":
        if len(directions) == 0:
            raise ValueError("explicit family must be nonempty")
        return DirectionFamily(EXPLICIT, directions=tuple(directions))

    def materialize(self, width: int, point: Optional[Point] = None,
                    model: Optional[SequenceModel] = None) -> list[Direction]:
        """Concrete direction list, all within the given sample width."""
        if self.kind == COORDINATES:
            _check_coordinate_width(self.K, width)
            return [Direction.coordinate(k) for k in range(1, self.K + 1)]
        if self.kind == RANDOM_SPARSE:
            supports, coeffs = _random_sparse_arrays(self, width)
            return [Direction(tuple(support), tuple(c)) for support, c
                    in zip(supports.tolist(), coeffs.tolist())]
        if self.kind == MARKOV_WITNESSES:
            if point is None or model is None:
                raise ValueError("markov witnesses need the point and model")
            from .bounds import markov_zero_certificate
            cert = markov_zero_certificate(point, model, self.depths)
            for w in cert.witnesses:
                if w.max_index > width:
                    raise DirectionRangeError(
                        f"direction out of range: witness reaches "
                        f"{w.max_index}, width is {width}")
            return list(cert.witnesses)
        for d in self.directions:
            if d.max_index > width:
                raise DirectionRangeError(
                    f"direction out of range: support reaches {d.max_index}, "
                    f"width is {width}")
        return list(self.directions)

    def required_width(self, default: int) -> int:
        if self.kind == COORDINATES:
            return self.K
        if self.kind == EXPLICIT:
            return max(d.max_index for d in self.directions)
        if self.kind == MARKOV_WITNESSES:
            return max(self.depths)
        return default

    def describe(self) -> str:
        if self.kind == COORDINATES:
            return f"coordinates(K={self.K})"
        if self.kind == RANDOM_SPARSE:
            return (f"random_sparse(count={self.count}, "
                    f"support={self.support_size}, seed={self.seed})")
        if self.kind == MARKOV_WITNESSES:
            return f"markov_witnesses(depths={list(self.depths)})"
        return f"explicit({len(self.directions)} directions)"


def _random_sparse_arrays(family: DirectionFamily, width: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Supports (1-based, increasing) and coefficients of a random_sparse
    family, one row per direction in family order."""
    rng = _column_rng(family.seed, 0xD1CE)
    size = min(family.support_size, width)
    supports = np.sort(_random_subsets(rng, width, size, family.count),
                       axis=1) + 1
    coeffs = rng.standard_normal((family.count, size))
    coeffs[coeffs == 0.0] = 1.0
    return supports, coeffs


def _check_coordinate_width(K: int, width: int) -> None:
    if K > width:
        raise DirectionRangeError(
            f"direction out of range: K={K} exceeds width {width}")


# ---------------------------------------------------------------------------
# Empirical half-space depth
# ---------------------------------------------------------------------------

def empirical_half_space_depth(a: Point, s: Sample,
                               family: DirectionFamily,
                               model: Optional[SequenceModel] = None
                               ) -> tuple[float, Direction]:
    """min over the family of n^{-1} sum_j 1{t(X_j) >= t(a)}.

    Ties count toward the depth (the indicator is >=). Returns the first
    minimizer in family order.
    """
    if family.kind == COORDINATES:
        _check_coordinate_width(family.K, s.K)
        return _coordinate_depth(s.data, a.values(family.K))
    if family.kind == RANDOM_SPARSE:
        rows, coeffs = _random_sparse_arrays(family, s.K)
        supports = [tuple(row) for row in rows.tolist()]
    else:
        directions = family.materialize(s.K, point=a, model=model)
        supports = [d.support for d in directions]
        coeffs = [d.coeffs for d in directions]
    by_support: dict[tuple[int, ...], list[int]] = {}
    for i, support in enumerate(supports):
        by_support.setdefault(support, []).append(i)
    point = a.values(s.K)
    chunks = _row_chunks(s.n)
    size = max(hi - lo for lo, hi in chunks)
    proj, above = np.empty(size), np.empty(size, dtype=bool)
    best, first = s.n + 1, len(supports)
    for support, members in by_support.items():
        idx = np.asarray(support) - 1
        group = np.array([coeffs[i] for i in members], dtype=float)
        # t(a) as apply_direction sums it: term by term in support order
        terms = group * point[idx]
        thresholds = terms[:, 0].copy()
        for j in range(1, len(support)):
            thresholds += terms[:, j]
        cols = s.data[:, idx]
        blocks = [(cols[lo:hi], proj[:hi - lo], above[:hi - lo])
                  for lo, hi in chunks]
        for i, c, t in zip(members, group, thresholds.tolist()):
            # i becomes the minimizer with a count of at most `limit`: a
            # tie goes to the lower family index
            limit = best if i < first else best - 1
            count = 0
            for block, out, mask in blocks:
                np.greater_equal(np.matmul(block, c, out=out), t, out=mask)
                count += np.count_nonzero(mask)
                if count > limit:
                    break
            else:
                best, first = count, i
    return int(best) / s.n, Direction(supports[first], tuple(coeffs[first]))


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
# Experiment records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedRecord:
    seed: int
    n: int
    K: int
    empirical_depth: float
    argmin: Direction
    zero_hit: bool


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[SeedRecord, ...]
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
                          seeds: int, master_seed: int = 0,
                          true_depth: Optional[float] = None
                          ) -> ExperimentResult:
    """Per-seed empirical depth under the coordinate family, with summary.

    Reports the fraction of seeds whose empirical depth is exactly zero,
    its binomial standard error, the analytic floor on the zero
    probability, and a consistency-failure flag when the true depth is
    positive while the empirical depth collapses.  Record i holds seed
    ``_derive_seed(master_seed, RECORD_SEEDS, i)`` and the depth of
    ``sample(model, n, K, seed)``; the samples are drawn and compared a
    seed chunk at a time.
    """
    family = DirectionFamily.coordinates(K)
    thresholds = a.values(K)
    seed_row = _derive_seed(master_seed, RECORD_SEEDS, np.arange(seeds))
    least = np.empty(seeds, dtype=np.int64)
    first = np.empty(seeds, dtype=np.int64)
    for lo, block in sample_chunks(model, n, K, seed_row):
        counts = np.count_nonzero(block >= thresholds[:, None, None], axis=2)
        least[lo:lo + counts.shape[1]] = counts.min(axis=0)
        first[lo:lo + counts.shape[1]] = counts.argmin(axis=0)
    records = [SeedRecord(seed=seed, n=n, K=K, empirical_depth=low / n,
                          argmin=Direction.coordinate(k + 1),
                          zero_hit=(low == 0))
               for seed, low, k in zip(seed_row.tolist(), least.tolist(),
                                       first.tolist())]
    zeros = sum(r.zero_hit for r in records)
    frac = zeros / seeds
    stderr = math.sqrt(frac * (1.0 - frac) / seeds)
    mean_depth = float(np.mean([r.empirical_depth for r in records]))
    if true_depth is None:
        true_depth = reference_depth(a, model)
    failure = None
    if true_depth is not None:
        failure = bool(true_depth > 0.0 and frac >= 0.5)
    return ExperimentResult(
        records=tuple(records), fraction_zero=frac,
        fraction_zero_stderr=stderr, mean_depth=mean_depth,
        true_depth_reference=true_depth,
        analytic_floor=_analytic_floor(a, model, n, K),
        consistency_failure=failure,
        ratio_vanishes=_ratio_vanishes(a, model, K),
        family=family.describe())


@dataclass(frozen=True)
class GapRow:
    n: int
    mean_empirical: float
    true_depth: Optional[float]
    gap: Optional[float]


def consistency_gap(a: Point, model: SequenceModel, family: DirectionFamily,
                    n_grid: Sequence[int], seeds: int, master_seed: int = 0,
                    K: Optional[int] = None,
                    true_depth: Optional[float] = None) -> list[GapRow]:
    """Mean empirical depth against the analytic true depth along n_grid."""
    if K is None:
        K = family.required_width(default=max(
            a.explicit_width, model.explicit_width, 1))
    if true_depth is None:
        true_depth = reference_depth(a, model)

    rows = []
    for j, n in enumerate(n_grid):
        values = []
        for i in range(seeds):
            s = sample(model, n, K,
                       _derive_seed(master_seed, GAP_SEEDS, j, i))
            value, _ = empirical_half_space_depth(a, s, family, model=model)
            values.append(value)
        mean_emp = float(np.mean(values))
        gap = None if true_depth is None else abs(mean_emp - true_depth)
        rows.append(GapRow(n=int(n), mean_empirical=mean_emp,
                           true_depth=true_depth, gap=gap))
    return rows
