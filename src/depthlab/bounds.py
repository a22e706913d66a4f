"""Certified upper and lower bounds on half-space depth.

Upper bounds come from Markov-inequality witness directions; lower bounds
from the Paley-Zygmund route (fourth-moment ratios), the 3/32 bound for
small Rademacher points, coordinate-projection induction, and the
K-functional tail bound for Rademacher sums.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .analytic import SeriesReport, _power_sum, point_sup, series_report
from .errors import MomentUnavailableError
from .models import Direction, Point, SequenceModel

# most nonzero coordinates of a point whose depth is bounded over all 2^m
# sign patterns of its support
_SMALL_SUPPORT = 10

# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroCertificate:
    """Markov witnesses alpha^(m) with bounds HD <= B_m = 1/sum_{k<=m} t_k^2/s_k^2.

    ``vanishing`` records whether the full series diverges (B_m -> 0, depth
    certified zero) or converges (bounds level off; reported NON-VANISHING).
    """

    point: Point
    depths: tuple[int, ...]
    witnesses: tuple[Direction, ...]
    bound_values: tuple[float, ...]
    vanishing: bool
    series: SeriesReport

    def __post_init__(self):
        bv = self.bound_values
        if any(b2 > b1 + 1e-15 for b1, b2 in zip(bv, bv[1:])):
            raise ValueError("bound values must be nonincreasing in m")

    @property
    def status(self) -> str:
        return "VANISHING" if self.vanishing else "NON-VANISHING"

    def recompute(self, i: int, model: SequenceModel) -> float:
        """B from the stored witness via the Markov formula (for auditing).

        num / den^2 does not change when the coefficients are scaled, so
        they are divided by their largest magnitude first, and den divides
        twice: den^2 would underflow for coordinates below about 1e-77,
        and num / den / den overflows to inf where B_m is inf.
        """
        w = self.witnesses[i]
        scale = max(abs(c) for c in w.coeffs)
        coeffs = [c / scale for c in w.coeffs]
        num = sum(c * c * model.sigma(k) ** 2
                  for k, c in zip(w.support, coeffs))
        den = sum(c * self.point.value_at(k)
                  for k, c in zip(w.support, coeffs))
        return num / den / den


@dataclass(frozen=True)
class LowerBoundReport:
    """A certified positive lower bound on half-space depth."""

    kind: str  # "PZ" | "SMALL-POINT" | "RAD-TAIL" | "PROJ"
    value: float
    params: dict = field(default_factory=dict)
    suspect: bool = False

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError("lower bounds live in (0, 1]")


# ---------------------------------------------------------------------------
# Markov zero certificates (witness directions alpha_k = t_k(a)/sigma_k^2)
# ---------------------------------------------------------------------------

def _markov_sums(a: Point, model: SequenceModel, m_max: int):
    """t_k(a) and sigma_k for k = 1..m_max (rows equal to the scalar
    ``value_at`` and ``sigma``), and B_m = 1 / the left-to-right
    cumulative sum of (t_k(a)/sigma_k)^2: inf where the sum is zero or
    its reciprocal overflows."""
    t, sig = a.values(m_max), model.sigmas(m_max)
    with np.errstate(divide="ignore", over="ignore"):
        return t, sig, 1.0 / np.cumsum((t / sig) ** 2)


def markov_bound_curve(a: Point, model: SequenceModel, m_max: int) -> np.ndarray:
    """B_m for m = 1..m_max (inf where no witness exists yet)."""
    return _markov_sums(a, model, m_max)[2]


def markov_zero_certificate(a: Point, model: SequenceModel,
                            depths: Sequence[int]) -> ZeroCertificate:
    """Witness directions and Markov bounds at the requested depths.

    Witness m has alpha_k = t_k(a)/sigma_k^2 for k <= m; depths whose
    leading coordinates are all zero are skipped.  A point with tau(a) = 0
    admits no witness at all.  B_m is read from the row that
    ``markov_bound_curve`` returns, so certificate and curve agree bit for
    bit; the sums add left to right, as a fresh sum to each m would.  A
    witness whose sum of squares underflows, or whose bound overflows,
    is kept with B_m = inf.
    """
    if a.is_zero:
        raise ValueError("no witness exists: tau(a) = 0")
    depths = sorted(set(int(m) for m in depths))
    if not depths or depths[0] < 1:
        raise ValueError("depths must be positive integers")
    t, sig, curve = _markov_sums(a, model, depths[-1])
    support = (np.flatnonzero(t) + 1).tolist()
    kept = [m for m in depths if support and m >= support[0]]
    if not kept:
        raise ValueError("no witness exists: all requested depths see only zeros")
    # Python floats: a float's ** 2 is the C library pow, which numpy's
    # x*x does not match in the last bit
    t, sig = t.tolist(), sig.tolist()
    coeffs = [t[k - 1] / sig[k - 1] ** 2 for k in support]
    witnesses = []
    for m in kept:
        j = bisect_right(support, m)
        witnesses.append(Direction(tuple(support[:j]), tuple(coeffs[:j])))
    rep = series_report(a, model)
    return ZeroCertificate(point=a, depths=tuple(kept),
                           witnesses=tuple(witnesses),
                           bound_values=tuple(float(curve[m - 1])
                                              for m in kept),
                           vanishing=not rep.finite, series=rep)


# ---------------------------------------------------------------------------
# Fourth-moment machinery (Paley-Zygmund route)
# ---------------------------------------------------------------------------

def fourth_moment_ratio(model: SequenceModel, direction: Direction) -> float:
    """[E t_alpha(X)^2]^2 / E t_alpha(X)^4 from analytic moments.

    For independent symmetric coordinates the fourth moment expands to
    sum alpha^4 E t^4 + 3 [ (sum alpha^2 s^2)^2 - sum alpha^4 s^4 ].
    """
    alphas = np.asarray(direction.coeffs)
    laws = [model.law(k) for k in direction.support]
    for law in laws:
        if not law.is_symmetric:
            raise MomentUnavailableError("moment expansion assumes symmetric laws")
    var = np.array([law.std ** 2 for law in laws])
    m4 = np.array([law.fourth_moment for law in laws])
    second = float(np.sum(alphas ** 2 * var))
    fourth = float(np.sum(alphas ** 4 * m4)
                   + 3.0 * (second ** 2 - np.sum(alphas ** 4 * var ** 2)))
    return second ** 2 / fourth


def kurtosis_bound(model: SequenceModel) -> float:
    """c = sup_k E t_k^4 / (E t_k^2)^2 over the model's laws."""
    ratios = [law.kurtosis_ratio for law in model.laws]
    if model.tail is not None:
        ratios.append(model.tail.law(model.explicit_width + 1).kurtosis_ratio)
    return max(ratios)


def pz_lower_bound(delta: float, c: float) -> float:
    """(2*delta - delta^2)^2 / (6c), valid once sum t_k^2/s_k^2 < (1-delta)^2."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if c < 1.0:
        raise ValueError("the moment-ratio constant satisfies c >= 1")
    return (2.0 * delta - delta * delta) ** 2 / (6.0 * c)


# ---------------------------------------------------------------------------
# The 3/32 bound for small Rademacher points
# ---------------------------------------------------------------------------

def small_point_lower_bound(a: Point) -> Optional[LowerBoundReport]:
    """3/32 whenever some (r, delta) satisfies the smallness conditions.

    Needs sum_{k>r} t_k(a)^2 <= 1/4, delta*sqrt(r) <= 1/4 and
    sup_k |t_k(a)| <= delta; returns None when no pair works.
    """
    s = point_sup(a)
    if s > 0.25:
        return None
    # the least r in [1, 1/(16 s^2)] with sum_{k>r} t_k(a)^2 <= 1/4: the sum
    # only falls as r grows, so bisect.  Below s = 2^-500 (s = 0 included),
    # where 1/(16 s^2) may leave the doubles, every such sum is far below
    # 1/4, and r = 1
    lo, hi = 1, 1 if s < 2.0 ** -500 else math.floor(1.0 / (16.0 * s * s))
    if _power_sum(a, 2.0, hi) > 0.25:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if _power_sum(a, 2.0, mid) <= 0.25:
            hi = mid
        else:
            lo = mid + 1
    r = hi
    delta = 0.25 / math.sqrt(r)
    return LowerBoundReport("SMALL-POINT", 3.0 / 32.0, params={"r": r, "delta": delta})


# ---------------------------------------------------------------------------
# Interpolation functionals and the Rademacher tail bound
# ---------------------------------------------------------------------------

def k_functional(x, t: float) -> float:
    """Exact inf of ||x'||_1 + t ||x''||_2 over splits x' + x'' = x.

    The optimal split clips x at a magnitude threshold theta; the scan
    below evaluates every kink and every per-segment stationary point of
    the resulting one-dimensional objective.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    mags = np.abs(np.asarray(x, dtype=float).ravel())
    if mags.size == 0 or not np.any(mags):
        return 0.0

    def objective(theta: float) -> float:
        clipped = np.minimum(mags, theta)
        return float(np.sum(mags - clipped) + t * math.sqrt(np.sum(clipped ** 2)))

    asc = np.sort(mags)
    n = asc.size
    prefix_sq = np.concatenate([[0.0], np.cumsum(asc ** 2)])
    candidates = [0.0] + asc.tolist()
    edges = np.concatenate([[0.0], asc])
    for j in range(n):
        lo, hi = float(edges[j]), float(edges[j + 1])
        if hi <= lo:
            continue
        n_above = n - j
        denom = t * t - n_above
        if denom > 0.0 and prefix_sq[j] > 0.0:
            theta_s = math.sqrt(prefix_sq[j] / denom)
            if lo < theta_s < hi:
                candidates.append(theta_s)
    return min(objective(theta) for theta in candidates)


def j_functional(x, t: float) -> float:
    """max(||x||_inf, t ||x||_2)."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    return max(float(np.max(np.abs(v))), t * float(np.linalg.norm(v)))


def rademacher_tail_lower_bound(a: Point, c: float, t0: float
                                ) -> Optional[LowerBoundReport]:
    """Rademacher tail bound c^{-1} e^{-c t0^2} when the norms of tau(a) allow.

    Applicable when max(c ||tau||_inf, c ||tau||_2 / t0) <= 1.  The
    universal constant c is a configuration input; when the resulting
    value contradicts an exact finite-support depth evaluation the report
    is flagged suspect.
    """
    if c <= 0.0 or t0 <= 0.0:
        raise ValueError("c and t0 must be positive")
    sup = point_sup(a)
    l2 = math.sqrt(_power_sum(a, 2.0))
    if math.isinf(l2):
        return None
    if max(c * sup, c * l2 / t0) > 1.0:
        return None
    value = math.exp(-c * t0 * t0) / c
    suspect = False
    if value > 1.0:
        value, suspect = 1.0, True
    if not suspect:
        upper = _small_support_depth_upper(a)
        if upper is not None and value > upper + 1e-12:
            suspect = True
    return LowerBoundReport("RAD-TAIL", value, params={"c": c, "t0": t0},
                            suspect=suspect)


def projection_lower_bound(a: Point, d: int) -> LowerBoundReport:
    """2^{-d} for the projected Rademacher depth when sup_{k<=d}|t_k(a)| <= 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    sup = max(abs(a.value_at(k)) for k in range(1, d + 1))
    if sup > 1.0:
        raise ValueError(
            "sup_{k<=d} |t_k(a)| > 1: the projected depth is exactly 0")
    return LowerBoundReport("PROJ", 2.0 ** (-d), params={"d": d})


# ---------------------------------------------------------------------------
# Exact Rademacher depth over finite direction families (small supports)
# ---------------------------------------------------------------------------

def exact_rademacher_probability(direction: Direction, a: Point) -> float:
    """P(sum alpha_k eps_k >= t_alpha(a)): half-sums meet in the middle."""
    s = len(direction.support)
    if s > 20:
        raise ValueError("enumeration limited to supports of size <= 20")
    coeffs = np.asarray(direction.coeffs)
    target = sum(c * a.value_at(k)
                 for k, c in zip(direction.support, direction.coeffs))
    h = s // 2
    left = _sign_patterns(h) @ coeffs[:h]
    right = np.sort(_sign_patterns(s - h) @ coeffs[h:])
    below = np.searchsorted(right, target - 1e-12 - left).sum()
    return float(1.0 - below / 2.0 ** s)


def rademacher_depth_over(a: Point, directions: Iterable[Direction]) -> float:
    """min over the family of exact probabilities: an upper bound on the depth."""
    return min(exact_rademacher_probability(d, a) for d in directions)


def _small_support_depth_upper(a: Point) -> Optional[float]:
    if a.tail is not None and not a.tail.is_zero:
        return None
    nz = [k for k in range(1, a.explicit_width + 1) if a.value_at(k) != 0.0]
    if len(nz) > _SMALL_SUPPORT:
        return None
    support = nz if nz else [1]
    dirs = [Direction.coordinate(k) for k in support]
    dirs += [Direction(tuple(support), tuple(signs))
             for signs in _sign_patterns(len(support))]
    return rademacher_depth_over(a, dirs)


def _sign_patterns(s: int) -> np.ndarray:
    """The 2^s sign vectors of length s, one per row."""
    return 1.0 - 2.0 * (np.arange(2 ** s)[:, None] >> np.arange(s) & 1)


# ---------------------------------------------------------------------------
# L^2 law of large numbers (stationary route, a_n = n)
# ---------------------------------------------------------------------------

def wlln_second_moment(model: SequenceModel, n: int) -> float:
    """E[(n^{-1} sum_{k<=n} t_k^2/s_k^2 - 1)^2] from analytic fourth moments."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = sum(model.law(k).kurtosis_ratio for k in range(1, n + 1))
    return total / n ** 2 - 1.0 / n
