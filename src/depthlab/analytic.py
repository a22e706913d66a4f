"""Closed-form depth values over coordinate-sequence models.

Covers dual norms, the symmetric-stable and diagonal-Gaussian half-space
depth formulas, the Brownian example with evaluation versus difference
functionals, the Rademacher positivity classification, one-dimensional
band depth and the modified band depth, and the weighted series whose
convergence separates positive depth from certified zero depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    GridCoverageError,
    HeterogeneousModelError,
    LawUnavailableError,
)
from .models import (
    GAUSSIAN,
    STABLE,
    Point,
    PowerTail,
    SequenceModel,
    stable_cdf,
)
from .special import ndtr, zeta

FINITE = "finite"
DIVERGENT = "divergent"

ZERO = "ZERO"
POSITIVE = "POSITIVE"
UNDECIDED = "UNDECIDED"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record attached to a depth value."""

    kind: str  # "closed-form" | "divergence" | "witness" | "bounds" | "admissibility"
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DepthReport:
    """A depth value in [0, 1] with the certificate it rests on."""

    value: float
    certificate: Certificate
    zero_certified: bool = False

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("depth values live in [0, 1]")
        if self.zero_certified and self.value != 0.0:
            raise ValueError("a zero certificate carries value 0")


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of summing a nonnegative coordinate series with a power tail."""

    kind: str           # FINITE | DIVERGENT
    value: float        # total (math.inf when divergent)
    explicit_sum: float
    tail_sum: float
    explicit_terms: int
    detail: str = ""

    @property
    def finite(self) -> bool:
        return self.kind == FINITE


# ---------------------------------------------------------------------------
# Power-tail series: sum_{k>m} |coef * k^e|^s decided by the integral test
# ---------------------------------------------------------------------------

def power_tail_sum(tail: Optional[PowerTail], start: int, power: float
                   ) -> tuple[str, float]:
    """(kind, value) of sum_{k >= start} |tail(k)|^power.

    Exact via the Hurwitz zeta function when convergent.
    """
    if tail is None or tail.is_zero:
        return FINITE, 0.0
    s = -power * tail.exponent
    if s <= 1.0:
        return DIVERGENT, math.inf
    return FINITE, abs(tail.coef) ** power * zeta(s, float(start))


def power_tail_sup(tail: Optional[PowerTail], start: int) -> float:
    """sup_{k >= start} |tail(k)|."""
    if tail is None or tail.is_zero:
        return 0.0
    if tail.exponent > 0.0:
        return math.inf
    return abs(tail.coef) * float(start) ** tail.exponent


def _power_sum(a: Point, q: float, r: int = 0) -> float:
    """sum_{k>r} |t_k(a)|^q: the explicit terms past r, then the power tail
    (math.inf when the tail series diverges)."""
    head = float(np.sum(np.abs(np.asarray(a.coords)[r:]) ** q))
    kind, tail = power_tail_sum(a.tail, max(r, a.explicit_width) + 1, q)
    if kind == DIVERGENT:
        return math.inf
    return head + tail


def point_sup(a: Point) -> float:
    """sup_k |t_k(a)| over the explicit prefix and the power tail."""
    coords = np.asarray(a.coords)
    explicit = float(np.max(np.abs(coords))) if coords.size else 0.0
    return max(explicit, power_tail_sup(a.tail, a.explicit_width + 1))


def _ratio_tail(point: Point, model: SequenceModel, start: int,
                use_std: bool) -> Optional[PowerTail]:
    """Power tail of t_k(a)/sigma_k (or /c_k) beyond index start-1.

    Raises LawUnavailableError if the point has mass where the model has
    no law.
    """
    pt = point.tail
    if pt is None or pt.is_zero:
        return None
    if model.tail is None:
        raise LawUnavailableError(
            "law unavailable: point tail extends beyond the model")
    mt = model.tail.scale
    if use_std:
        # convert the scale tail to a std tail via the family's std factor
        factor = model.tail.law(max(start, 1)).std / mt.value(max(start, 1))
    else:
        factor = 1.0
    return PowerTail(pt.coef / (mt.coef * factor), pt.exponent - mt.exponent)


def _explicit_span(point: Point, model: SequenceModel) -> int:
    """Number of leading coordinates handled term-by-term."""
    return max(point.explicit_width, model.explicit_width, 1)


# ---------------------------------------------------------------------------
# Weighted series  sum_k t_k(a)^2 / sigma_k^2
# ---------------------------------------------------------------------------

def series_report(a: Point, model: SequenceModel) -> SeriesReport:
    """Full record for sum_k t_k(a)^2 / sigma_k^2."""
    m = _explicit_span(a, model)
    explicit = 0.0
    for k in range(1, m + 1):
        t = a.value_at(k)
        if t == 0.0:
            continue
        explicit += (t / model.sigma(k)) ** 2
    tail = _ratio_tail(a, model, m + 1, use_std=True)
    kind, tail_sum = power_tail_sum(tail, m + 1, 2.0)
    if kind == DIVERGENT:
        return SeriesReport(DIVERGENT, math.inf, explicit, math.inf, m,
                            detail="tail fails the integral test")
    return SeriesReport(FINITE, explicit + tail_sum, explicit, tail_sum, m)


# ---------------------------------------------------------------------------
# Dual norms (conjugate-exponent suprema)
# ---------------------------------------------------------------------------

def dual_exponent(p: float) -> float:
    """Conjugate q to p: q = infinity for p <= 1, else 1/p + 1/q = 1."""
    if p <= 0.0:
        raise ValueError("p must be positive")
    if p <= 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def dual_norm(y, p: float) -> float:
    """sup of sum |x_k y_k| over unit-p-norm finitely supported x.

    Equals the conjugate-exponent norm of y; may be math.inf.
    """
    q = dual_exponent(p)
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        return 0.0
    if q == math.inf:
        return float(np.max(np.abs(y)))
    return float(np.sum(np.abs(y) ** q) ** (1.0 / q))


def _scaled_point(a: Point, model: SequenceModel) -> Point:
    """tau(a)/c, i.e. t_k(a)/c_k with c_k the scale of law k, as a Point:
    term by term over the explicit span, then the ratio of power tails."""
    m = _explicit_span(a, model)
    coords = tuple(a.value_at(k) / model.law(k).scale for k in range(1, m + 1))
    return Point(coords, tail=_ratio_tail(a, model, m + 1, use_std=False))


# ---------------------------------------------------------------------------
# Half-space depth formulas
# ---------------------------------------------------------------------------

def stable_depth(a: Point, model: SequenceModel) -> DepthReport:
    """Half-space depth 1 - P(S <= ||tau(a)/c||_q) for scaled p-stable models."""
    shapes = model.shape_laws()
    if any(law.family != STABLE for law in shapes):
        raise HeterogeneousModelError("stable depth requires stable laws")
    ps = {law.p for law in shapes}
    if len(ps) != 1:
        raise HeterogeneousModelError(
            f"heterogeneous model: stability indices {sorted(ps)}")
    p = ps.pop()
    q = dual_exponent(p)
    # ||tau(a)/c||_q with its tail, math.inf when divergent
    r = _scaled_point(a, model)
    norm = point_sup(r) if q == math.inf else _power_sum(r, q) ** (1.0 / q)
    if math.isinf(norm):
        cert = Certificate("divergence", {
            "norm": "inf", "q": q,
            "reason": "||tau(a)/c||_q diverges under the tail rule"})
        return DepthReport(0.0, cert, zero_certified=True)
    # P(S > x) read as P(S <= -x) by symmetry, not as 1 - P(S <= x): the
    # subtraction loses the tail's relative precision, and reads 0 once the
    # tail falls below the spacing of doubles near 1
    depth, err = stable_cdf(p, -norm)
    cert = Certificate("closed-form", {
        "formula": "1 - P(S <= ||tau(a)/c||_q)", "p": p, "q": q,
        "norm": norm, "cdf_stderr": err})
    return DepthReport(depth, cert)


def gaussian_sequence_depth(a: Point, model: SequenceModel) -> DepthReport:
    """1 - Phi(||a||_mu) on a diagonal Gaussian model, 0 off its Cameron-Martin ball."""
    if model.families() != {GAUSSIAN}:
        raise HeterogeneousModelError(
            "gaussian sequence depth requires Gaussian laws")
    rep = series_report(a, model)
    if not rep.finite:
        cert = Certificate("divergence", {
            "series": "inf",
            "reason": "sum t_k(a)^2/sigma_k^2 diverges", "detail": rep.detail})
        return DepthReport(0.0, cert, zero_certified=True)
    norm = math.sqrt(rep.value)
    cert = Certificate("closed-form", {
        "formula": "1 - Phi(||a||_mu)", "cm_norm": norm, "series": rep.value})
    return DepthReport(ndtr(-norm), cert)


# ---------------------------------------------------------------------------
# Brownian motion started at N(0,1): evaluations vs. differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """A function on [0,1] known at a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid.shape != values.shape:
            raise ValueError("grid and values must be matching 1-d arrays")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("grid must cover [0, 1] endpoints")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def _index(self, t: float) -> Optional[int]:
        """The grid index within 1e-12 of t, or None."""
        i = int(np.searchsorted(self.grid, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.grid.size and abs(self.grid[j] - t) <= 1e-12:
                return j
        return None

    def value_at(self, t: float) -> float:
        j = self._index(t)
        if j is None:
            raise GridCoverageError(f"grid does not contain t={t}", missing=[t])
        return float(self.values[j])

    def covers(self, t: float) -> bool:
        return self._index(t) is not None

    @staticmethod
    def from_callable(f: Callable[[float], float], k_max: int = 64,
                      resolution: int = 257) -> "GridFunction":
        """Grid containing 0, 1, a uniform mesh, and the points 1/k, k <= k_max+1."""
        pts = set(np.linspace(0.0, 1.0, resolution).tolist())
        pts.update(1.0 / k for k in range(1, k_max + 2))
        grid = np.array(sorted(pts))
        return GridFunction(grid, np.array([f(t) for t in grid]))


def brownian_depths(a: GridFunction, k_max: int = 64) -> tuple[float, float]:
    """(evaluation-map depth, difference-map depth) for the Brownian example.

    Evaluation maps give min over grid t of 1 - Phi(a(t)/sqrt(1+t)); the
    differences theta_k(a) = a(1/k) - a(1/(k+1)) give
    1 - Phi(sup_k sqrt(k(k+1)) * theta_k(a)) up to k_max.
    """
    missing = [1.0 / k for k in range(1, k_max + 2) if not a.covers(1.0 / k)]
    if missing:
        raise GridCoverageError(
            f"grid misses required points: {missing[:5]}...", missing=missing)
    eval_depth = min(map(ndtr, (-a.values / np.sqrt(1.0 + a.grid)).tolist()))
    sup = -math.inf
    for k in range(1, k_max + 1):
        theta = a.value_at(1.0 / k) - a.value_at(1.0 / (k + 1))
        sup = max(sup, math.sqrt(k * (k + 1)) * theta)
    return eval_depth, ndtr(-sup)


# ---------------------------------------------------------------------------
# Rademacher positivity classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RademacherClassification:
    """ZERO or POSITIVE Rademacher depth, from sum t_k^2 and sup |t_k|."""

    label: str  # ZERO | POSITIVE
    reason: str
    series: float
    sup: float


def rademacher_classify(a: Point) -> RademacherClassification:
    """ZERO iff sum t_k(a)^2 diverges or sup |t_k(a)| > 1, else POSITIVE."""
    series, sup = _power_sum(a, 2.0), point_sup(a)
    if sup > 1.0:
        return RademacherClassification(ZERO, "sup > 1", series, sup)
    if math.isinf(series):
        return RademacherClassification(ZERO, "series diverges", series, sup)
    return RademacherClassification(
        POSITIVE, "series finite and sup <= 1", series, sup)


# ---------------------------------------------------------------------------
# Band depth and modified band depth
# ---------------------------------------------------------------------------

def band_depth_1d(b: float, cdf: Callable[[float], float], r: int,
                  cdf_left: Optional[Callable[[float], float]] = None) -> float:
    """P(min of r iid draws <= b <= max), i.e. 1 - F(b-)^r - (1 - F(b))^r.

    The event fails only when all draws fall strictly below b (mass
    F(b-)^r) or strictly above it (mass (1-F(b))^r).  ``cdf_left``
    supplies the left limit at an atom; continuous laws may omit it.
    """
    if r < 2:
        raise ValueError("band depth needs r >= 2")
    fb = float(cdf(b))
    fbm = float(cdf_left(b)) if cdf_left is not None else fb
    return 1.0 - fbm ** r - (1.0 - fb) ** r


def modified_band_depth(a: GridFunction, sample_paths: Sequence[GridFunction],
                        r: int = 2) -> float:
    """Mean time-fraction that a stays inside the envelope of r sample paths.

    Paths are consumed in consecutive groups of r; the Lebesgue measure of
    the agreement set is a trapezoid-rule integral on the common grid.
    """
    if len(sample_paths) == 0 or len(sample_paths) % r != 0:
        raise ValueError("number of sample paths must be a positive multiple of r")
    for path in sample_paths:
        if path.grid.shape != a.grid.shape or np.any(path.grid != a.grid):
            raise ValueError("all functions must share the grid")
    total = 0.0
    groups = len(sample_paths) // r
    for g in range(groups):
        block = np.stack([p.values for p in sample_paths[g * r:(g + 1) * r]])
        lo = block.min(axis=0)
        hi = block.max(axis=0)
        inside = ((lo <= a.values) & (a.values <= hi)).astype(float)
        total += float(np.trapezoid(inside, a.grid))
    return total / groups
