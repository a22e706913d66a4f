"""Admissible-translate machinery: Fisher information, Hellinger affinities,
the Kakutani product criterion, and the combined depth-positivity decision.

The positivity decision validates one of two assumption bundles.  The
moment bundle needs a uniform fourth-moment ratio plus everywhere-positive
coordinate densities; the scaled-iid bundle needs a common density with
finite Fisher information and variance, after which convergence of
sum (t_k(a)/lambda_k)^2 settles admissibility of the translate and hence
positive depth.  Neither route produces a numeric depth value; positivity
is all the criterion yields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import (
    DIVERGENT,
    POSITIVE,
    UNDECIDED,
    ZERO,
    _scaled_point,
    power_tail_sum,
    power_tail_sup,
    series_report,
)
from .errors import (InputError, MomentUnavailableError, QuadratureError,
                     UndecidedTailError)
from .models import (
    DENSITY,
    GAUSSIAN,
    Density,
    Point,
    SequenceModel,
    _density_moment,
    normal_density,
)
from .quadrature import gauss_kronrod

SHEPP_SERIES = "SHEPP-SERIES"
KAKUTANI_NUMERIC = "KAKUTANI-NUMERIC"

# absolute error bound of ``fisher_information``
FISHER_TOL = 1e-6
# grid points at which ``fisher_information`` checks that phi is positive
_PROBE_POINTS = 201


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Whether the translate by tau(a) is admissible, from the certified
    Kakutani product bound and the Fisher information, and by which route."""

    admissible: bool
    kakutani_product: float  # certified lower bound on the infinite product
    fisher_information: float
    route: str

    def __post_init__(self):
        if self.admissible and not self.kakutani_product > 0.0:
            raise ValueError("admissibility requires a positive product bound")

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "kakutani_product": self.kakutani_product,
            "fisher_information": self.fisher_information,
            "route": self.route,
        }


@dataclass(frozen=True)
class PositivityDecision:
    """A POSITIVE, ZERO or UNDECIDED depth verdict, its reason, and the
    admissibility verdict it rests on, if any."""

    decision: str  # POSITIVE | ZERO | UNDECIDED
    reason: str
    verdict: Optional[AdmissibilityVerdict] = None


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def _positivity_probe(phi: Density) -> None:
    """Reject a density that is not positive at one of ``_PROBE_POINTS``
    grid points on its support (clipped to [-20, 20]).

    The Fisher quadrature does not catch such a zero: where phi' vanishes
    with phi, (phi')^2 / phi can stay bounded and its integral converges.
    For x^2 phi(x), zero at 0, the integrand is phi(x) (2 - x^2)^2 off 0,
    and without this check the rule returns 3.0000000000097 (exactly
    E(2 - X^2)^2 = 3), so a density the route does not cover would pass
    as having finite information.
    """
    lo, hi = phi.support
    lo_p = lo if math.isfinite(lo) else -20.0
    hi_p = hi if math.isfinite(hi) else 20.0
    pad = 1e-9 * (hi_p - lo_p)
    xs = np.linspace(lo_p + pad, hi_p - pad, _PROBE_POINTS)
    vals = np.asarray(phi.pdf(xs), dtype=float)
    if np.any(vals <= 0.0):
        bad = xs[np.argmin(vals)]
        raise ValueError(f"phi vanishes inside its support (near x={bad:.4g})")


def fisher_information(phi: Density) -> float:
    """integral of (phi')^2 / phi with absolute error <= ``FISHER_TOL``.

    The density must be positive on its support; a zero inside the support
    is rejected before quadrature.  ``phi.pdf`` and ``phi.derivative`` are
    read on the (panels, 21) node arrays of the shared Gauss-Kronrod rule.
    """
    _positivity_probe(phi)

    def integrand(x):
        p = np.asarray(phi.pdf(x), dtype=float)
        d = np.asarray(phi.derivative(x), dtype=float)
        # structural zeros are caught by the probe; here the density has
        # merely underflowed in a far tail, where the integrand vanishes (a
        # NaN density stays NaN and fails the gate)
        return np.divide(d * d, p, out=np.zeros(np.shape(x)),
                         where=~(p <= 0.0))

    lo, hi = phi.support
    val, err = gauss_kronrod(integrand, lo, hi, gate=FISHER_TOL,
                             what="Fisher-information")
    if err > FISHER_TOL:
        # the shared gate is relative above 1; this bound is absolute
        raise QuadratureError(
            f"Fisher-information quadrature did not converge (err {err:.2e})",
            partial=float(val))
    return float(val)


# ---------------------------------------------------------------------------
# Hellinger affinity and Kakutani products
# ---------------------------------------------------------------------------

def _overlap_quadrature(phi: Density, s: np.ndarray, integrand,
                        epsabs: float = 1e-12):
    """The integral of integrand(phi(t), phi(t - s)) over the overlap
    [max(lo, lo+s), min(hi, hi+s)] of phi's support [lo, hi] with its shift,
    for every shift s with a nonempty overlap, in one call of the shared
    rule (relative tolerance 1e-12, gate 1e-8).

    Returns the mask of those shifts and their integrals, with the shift
    as the last axis.  The overlap is read through a variable u common to
    every shift: the whole line as it is, a finite overlap mapped onto
    [0, 1], a half line onto [0, inf).  On the whole line x is u itself, so
    phi(x) is evaluated once for all shifts; ``phi.pdf`` sees (panels, 21)
    and (panels, 21, shifts) arrays.
    """
    lo, hi = phi.support
    a, b = np.maximum(lo, lo + s), np.minimum(hi, hi + s)
    live = a < b
    if not live.any():
        return live, np.zeros((0,))
    s, a, b = s[live], a[live], b[live]
    whole = not (math.isfinite(lo) or math.isfinite(hi))
    # x = base + u * step for u in [0, u_hi]; on the whole line x = u
    if whole:
        base, step, u_hi = None, 1.0, math.inf
    elif math.isfinite(lo) and math.isfinite(hi):
        base, step, u_hi = a, b - a, 1.0
    elif math.isfinite(lo):
        base, step, u_hi = a, 1.0, math.inf
    else:
        base, step, u_hi = b, -1.0, math.inf
    jac = np.abs(step)

    def f(u):
        if whole:
            p0 = phi.pdf(u)[..., None]
            x = u[..., None]
        else:
            x = base + u[..., None] * step
            p0 = phi.pdf(x)
        p1 = np.maximum(phi.pdf(x - s), 0.0)
        return integrand(np.maximum(p0, 0.0), p1) * jac

    total, _ = gauss_kronrod(f, -math.inf if whole else 0.0, u_hi,
                             epsabs=epsabs, what="Hellinger")
    return live, total


def hellinger_affinities(phi: Density, shifts) -> np.ndarray:
    """integral of sqrt(phi(t) phi(t - s)) dt for every shift s, within 1e-8.

    Shift s integrates over [max(lo, lo+s), min(hi, hi+s)] on phi's support
    [lo, hi]; an empty interval gives 0.  All shifts share one call of the
    adaptive Gauss-Kronrod rule (``quadrature.gauss_kronrod``, absolute
    and relative tolerance 1e-12 on the max norm over the shifts), which raises
    ``QuadratureError`` with the partial values unless the summed error is
    at most 1e-8 and every value is finite.  Results are clipped to [0, 1].
    """
    s = np.atleast_1d(np.asarray(shifts, dtype=float))
    out = np.zeros(s.shape)
    live, h = _overlap_quadrature(phi, s, lambda p0, p1: np.sqrt(p0 * p1))
    out[live] = np.clip(h, 0.0, 1.0)
    return out


def hellinger_defects(phi: Density, shifts) -> np.ndarray:
    """1 - H(s) for every shift s, integrated as a defect so that small
    shifts keep their digits.

    1 - H(s) = (1/2) integral over the overlap of (sqrt(phi(t)) -
    sqrt(phi(t - s)))^2 dt + (1 - (1/2) integral over the overlap of
    (phi(t) + phi(t - s)) dt).  On the whole line the overlap misses no
    mass, so the second term is 0 and is not computed.  One call of the
    shared rule serves all shifts, with relative tolerance 1e-12 on the max norm over
    them and no absolute floor; an empty overlap gives 1.  Results are
    clipped to [0, 1].
    """
    s = np.atleast_1d(np.asarray(shifts, dtype=float))
    lo, hi = phi.support
    whole = not (math.isfinite(lo) or math.isfinite(hi))

    def integrand(p0, p1):
        defect = 0.5 * np.square(np.sqrt(p0) - np.sqrt(p1))
        if whole:
            return defect
        return np.stack([defect, 0.5 * (p0 + p1)], axis=-2)

    out = np.ones(s.shape)
    live, parts = _overlap_quadrature(phi, s, integrand, epsabs=0.0)
    if live.any():
        out[live] = np.clip(parts if whole else parts[0] + (1.0 - parts[1]),
                            0.0, 1.0)
    return out


@dataclass(frozen=True)
class KakutaniResult:
    """A certified lower bound on a product of Hellinger affinities, the
    Kakutani verdict, and the constant C of the quadratic tail bound."""

    product: float        # certified lower bound for the infinite product
    positive: bool        # sum (1 - H_k) < infinity
    explicit_terms: int
    tail_constant: Optional[float] = None  # quadratic bound 1-H <= C s^2


def _quadratic_tail_constant(phi: Density, probe: float) -> float:
    """A constant C with 1 - H(s) <= C s^2 for |s| <= probe, from probes.

    Evaluates (1-H)/s^2 at four geometrically shrinking shifts, in one
    vector quadrature of the defect 1 - H itself (``hellinger_defects``),
    since 1 - H read off a rounded H loses about nine digits at the
    smallest probe; the quadratic regime must be visible (ratios within a
    factor 4), otherwise the tail is not certified.
    """
    shifts = probe / np.array([1.0, 2.0, 4.0, 8.0])
    ratios = (hellinger_defects(phi, shifts) / (shifts * shifts)).tolist()
    if max(ratios) > 4.0 * max(min(ratios), 1e-300):
        raise UndecidedTailError(
            "UNDECIDED: no quadratic regime visible at the probe shifts")
    return 1.25 * max(ratios)


def kakutani_product(phi: Density, shifts: Point) -> KakutaniResult:
    """Product of per-coordinate Hellinger affinities with a certified tail.

    The nonzero explicit shift entries are integrated in one vector
    quadrature (a zero shift has affinity 1); a power-law tail is bounded
    below through 1 - H(s) <= C s^2 with C measured at four probe shifts,
    in a second one.  ``positive`` is the Kakutani dichotomy verdict,
    equivalent to convergence of the shift-square series.

    An affinity of 0 on the whole line is an underflow, not disjoint
    supports (at shift 60 the normal affinity is exp(-450)): it raises
    ``UndecidedTailError``.
    """
    explicit = np.array(shifts.coords)
    moved = explicit[explicit != 0.0]
    h = hellinger_affinities(phi, moved)
    if np.any(h <= 0.0):
        if not (math.isfinite(phi.support[0]) or math.isfinite(phi.support[1])):
            raise UndecidedTailError(
                "UNDECIDED: the Hellinger affinity at shift "
                f"{float(moved[np.argmax(h <= 0.0)])!r} underflows to 0")
        return KakutaniResult(0.0, False, shifts.explicit_width)
    log_sum = float(np.sum(np.log(h)))

    start = shifts.explicit_width + 1
    tail = shifts.tail
    if tail is None or tail.is_zero:
        return KakutaniResult(math.exp(log_sum), True, shifts.explicit_width)

    kind, tail_sq = power_tail_sum(tail, start, 2.0)
    if kind == DIVERGENT:
        # shifts do not vanish or vanish too slowly: the product diverges to 0
        return KakutaniResult(0.0, False, shifts.explicit_width)
    s_max = power_tail_sup(tail, start)
    c_quad = _quadratic_tail_constant(phi, s_max)
    u_max = c_quad * s_max * s_max
    if u_max >= 0.5:
        raise UndecidedTailError(
            "UNDECIDED: probe constant too large for a tail certificate; "
            "supply more explicit shift terms")
    # log(1-u) >= -u/(1-u): a lower bound on the tail log-product
    tail_log = -c_quad * tail_sq / (1.0 - u_max)
    return KakutaniResult(math.exp(log_sum + tail_log), True,
                          shifts.explicit_width, tail_constant=c_quad)


# ---------------------------------------------------------------------------
# Positivity decision
# ---------------------------------------------------------------------------

AI_AII = "AI_AII"
AIII = "AIII"


def _model_common_density(model: SequenceModel) -> Optional[Density]:
    """The shared shape density phi when coordinates are scaled iid, else None."""
    fams = model.families()
    if fams == {GAUSSIAN}:
        return normal_density()
    if fams == {DENSITY}:
        dens = {law.density for law in model.shape_laws()}
        if len(dens) == 1:
            return dens.pop()
    return None


def positivity_decision(a: Point, model: SequenceModel,
                        assumptions: str = AIII) -> PositivityDecision:
    """Classify the half-space depth at a as POSITIVE, ZERO or UNDECIDED.

    ZERO requires the divergent weighted series; POSITIVE requires the
    convergent series plus a validated assumption bundle.  Both rest on
    coordinate laws symmetric about 0, as the family or the density
    declares it.  Anything the selected bundle cannot certify is UNDECIDED,
    never guessed.
    """
    if assumptions not in (AI_AII, AIII):
        raise InputError(f"unknown assumption bundle {assumptions!r}")
    shapes = model.shape_laws()
    if not all(law.is_symmetric for law in shapes):
        return PositivityDecision(UNDECIDED, "symmetry not declared")
    # the series and both bundles read a density's moments and symmetry
    # as given, so an unnormalized or asymmetric one settles nothing
    for law in shapes:
        if law.family == DENSITY:
            try:
                law.density.validate()
            except (ValueError, QuadratureError) as exc:
                return PositivityDecision(UNDECIDED, str(exc))

    try:
        rep = series_report(a, model)
    except MomentUnavailableError as exc:
        return PositivityDecision(UNDECIDED, f"series unavailable: {exc}")
    if rep.kind == DIVERGENT:
        return PositivityDecision(
            ZERO, "sum t_k(a)^2/sigma_k^2 diverges: depth is zero")

    if assumptions == AI_AII:
        try:
            from .bounds import kurtosis_bound
            c = kurtosis_bound(model)
        except MomentUnavailableError as exc:
            return PositivityDecision(UNDECIDED, f"fourth moment missing: {exc}")
        if not c >= 1.0:
            # E t^4 >= (E t^2)^2 for every law
            return PositivityDecision(
                UNDECIDED, f"moment-ratio constant c={c:.6g} is below 1")
        if not all(law.has_positive_density_on_r() for law in shapes):
            return PositivityDecision(
                UNDECIDED,
                "finite-dimensional positivity clause needs an everywhere "
                "positive coordinate density")
        return PositivityDecision(
            POSITIVE,
            f"convergent series with moment-ratio bound c={c:.6g} and "
            "positive coordinate densities")

    phi = _model_common_density(model)
    if phi is None:
        return PositivityDecision(
            UNDECIDED, "coordinates are not scaled iid with a common density")
    if math.isfinite(phi.support[0]) or math.isfinite(phi.support[1]):
        return PositivityDecision(
            UNDECIDED, "shape density is not positive a.e. on the line")
    try:
        info = fisher_information(phi)
    except (ValueError, QuadratureError) as exc:
        return PositivityDecision(UNDECIDED, f"Fisher information: {exc}")
    try:
        variance = (1.0 if model.families() == {GAUSSIAN} else
                    _density_moment(phi, 2) - _density_moment(phi, 1) ** 2)
    except MomentUnavailableError:
        variance = math.nan
    if not math.isfinite(variance) or variance <= 0.0:
        return PositivityDecision(UNDECIDED, "shape density has no finite variance")
    shifts = _scaled_point(a, model)
    try:
        kak = kakutani_product(phi, shifts)
    except UndecidedTailError as exc:
        return PositivityDecision(UNDECIDED, str(exc))
    verdict = AdmissibilityVerdict(
        admissible=kak.positive,
        kakutani_product=kak.product,
        fisher_information=info,
        route=SHEPP_SERIES if kak.positive else KAKUTANI_NUMERIC,
    )
    if kak.positive:
        return PositivityDecision(
            POSITIVE,
            "translate admissible: finite Fisher information and convergent "
            "shift-square series", verdict)
    return PositivityDecision(
        ZERO, "Kakutani product vanishes: translate not admissible", verdict)
