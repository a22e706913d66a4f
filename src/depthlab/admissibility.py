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
from scipy import integrate

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
from .errors import MomentUnavailableError, QuadratureError, UndecidedTailError
from .models import (
    DENSITY,
    GAUSSIAN,
    Density,
    Point,
    SequenceModel,
    normal_density,
)

SHEPP_SERIES = "SHEPP-SERIES"
KAKUTANI_NUMERIC = "KAKUTANI-NUMERIC"


@dataclass(frozen=True)
class AdmissibilityVerdict:
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
    decision: str  # POSITIVE | ZERO | UNDECIDED
    reason: str
    verdict: Optional[AdmissibilityVerdict] = None


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def _positivity_probe(phi: Density, n: int = 201) -> None:
    lo, hi = phi.support
    lo_p = lo if math.isfinite(lo) else -20.0
    hi_p = hi if math.isfinite(hi) else 20.0
    pad = 1e-9 * (hi_p - lo_p)
    xs = np.linspace(lo_p + pad, hi_p - pad, n)
    vals = np.asarray(phi.pdf(xs), dtype=float)
    if np.any(vals <= 0.0):
        bad = xs[np.argmin(vals)]
        raise ValueError(f"phi vanishes inside its support (near x={bad:.4g})")


def fisher_information(phi: Density, tol: float = 1e-6) -> float:
    """integral of (phi')^2 / phi with absolute error <= tol.

    The density must be positive on its support; a zero inside the support
    is rejected before quadrature.
    """
    _positivity_probe(phi)

    def integrand(x):
        p = float(phi.pdf(x))
        if p <= 0.0:
            # structural zeros are caught by the probe; here the density has
            # merely underflowed in a far tail, where the integrand vanishes
            return 0.0
        d = phi.derivative(x)
        return d * d / p

    lo, hi = phi.support
    val, err = integrate.quad(integrand, lo, hi, limit=400)
    if not math.isfinite(val) or err > tol:
        raise QuadratureError(
            f"Fisher-information quadrature did not converge (err {err:.2e})",
            partial=val)
    return val


# ---------------------------------------------------------------------------
# Hellinger affinity and Kakutani products
# ---------------------------------------------------------------------------

# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (Piessens et al. 1983):
# nodes from the end inwards, mirrored; row 0 holds the Kronrod weights, row
# 1 the 10-point Gauss weights, which sit on every second node
_GK21_HALF_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_KRONROD_HALF = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_GAUSS_HALF = (
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338)
_GK21_NODES = np.array(_GK21_HALF_NODES + (0.0,)
                       + tuple(-x for x in reversed(_GK21_HALF_NODES)))
_GK21_WEIGHTS = np.array([
    _KRONROD_HALF + (0.149445554002916905664936468389821,)
    + _KRONROD_HALF[::-1],
    _GAUSS_HALF + (0.0,) + _GAUSS_HALF[::-1]])
MAX_PANELS = 400


def hellinger_affinities(phi: Density, shifts) -> np.ndarray:
    """integral of sqrt(phi(t) phi(t - s)) dt for every shift s, within 1e-8.

    Shift s integrates over [max(lo, lo+s), min(hi, hi+s)] on phi's support
    [lo, hi], through a variable u common to every shift: the whole line as
    it is, a finite interval mapped onto [0, 1], a half line onto [0, inf).
    An empty interval gives 0.  An infinite u-range is read through the
    signed t = 1/(1 + |u|), so panels always tile a finite t-interval.

    One adaptive 21-point Gauss-Kronrod rule serves all shifts: each pass
    evaluates the 21 nodes of every live panel for every live shift at
    once, so ``phi.pdf`` sees (panels, 21) and (panels, 21, shifts) arrays.
    A panel's error is the max over shifts of |Kronrod - Gauss|; a panel
    within its width's share of the tolerance (1e-12, absolute and
    relative) is settled, the others are bisected, and all settle once the
    errors sum to the tolerance.  Past 400 panels, or on a non-finite
    value, the rule stops; unless the summed error is at most 1e-8 and
    every value is finite it raises ``QuadratureError`` with the partial
    values.  Results are clipped to [0, 1].
    """
    s = np.atleast_1d(np.asarray(shifts, dtype=float))
    lo, hi = phi.support
    a, b = np.maximum(lo, lo + s), np.minimum(hi, hi + s)
    out = np.zeros(s.shape)
    live = a < b
    if not live.any():
        return out
    s, a, b = s[live], a[live], b[live]
    # x = base + u * step; on the whole line x is u itself, so phi(x) is
    # evaluated once for all shifts
    finite = math.isfinite(lo) and math.isfinite(hi)
    if finite:
        base, step, edges = a, b - a, [0.0, 1.0]
    elif math.isfinite(lo):
        base, step, edges = a, 1.0, [0.0, 1.0]
    elif math.isfinite(hi):
        base, step, edges = b, -1.0, [0.0, 1.0]
    else:
        base, step, edges = None, 1.0, [-1.0, 0.0, 1.0]
    jac = np.abs(step)

    def panel_sums(left, width):
        """Kronrod and Gauss sums, shape (2, panels, shifts)."""
        h = 0.5 * width[:, None]
        t = (left[:, None] + h) + h * _GK21_NODES
        if finite:
            u, dt = t, 1.0
        else:
            # under the panel cap no node comes near t = 0, where 1/t^2
            # would overflow
            u, dt = (1.0 - np.abs(t)) / t, 1.0 / (t * t)
        if base is None:
            p0 = phi.pdf(u)[..., None]
            x = u[..., None]
        else:
            x = base + u[..., None] * step
            p0 = phi.pdf(x)
        # in place: the (panels, 21, shifts) arrays dominate the memory
        f = np.maximum(phi.pdf(x - s), 0.0)
        f *= np.maximum(p0, 0.0)
        np.sqrt(f, out=f)
        f *= jac * (h * dt)[..., None]
        return np.einsum("kn,pns->kps", _GK21_WEIGHTS, f)

    left = np.array(edges[:-1])
    width = np.diff(edges)
    span = edges[-1] - edges[0]
    total, total_err, settled = np.zeros(s.shape), 0.0, 0
    while True:
        kron, gauss = panel_sums(left, width)
        err = np.max(np.abs(kron - gauss), axis=1)
        # epsabs = epsrel = 1e-12 on the max norm over the shifts
        tol = 1e-12 * max(1.0, np.max(np.abs(total + kron.sum(axis=0))))
        done = (err <= tol * width / span) | (total_err + err.sum() <= tol)
        total = total + kron[done].sum(axis=0)
        total_err += err[done].sum()
        settled += done.sum()
        left, width, kron, err = (left[~done], width[~done], kron[~done],
                                  err[~done])
        if (not left.size or settled + 2 * left.size > MAX_PANELS
                or not np.isfinite(err).all()):
            break
        width = 0.5 * width
        left = np.concatenate([left, left + width])
        width = np.concatenate([width, width])
    # panels still live when the rule stops count with their estimates
    total = total + kron.sum(axis=0)
    total_err += err.sum()
    if not (total_err <= 1e-8 and np.isfinite(total).all()):
        raise QuadratureError(
            f"Hellinger quadrature did not converge (err {total_err:.2e})",
            partial=total)
    out[live] = np.clip(total, 0.0, 1.0)
    return out


def hellinger_affinity(phi: Density, shift: float) -> float:
    """integral of sqrt(phi(t) phi(t - shift)) dt, within 1e-8."""
    return float(hellinger_affinities(phi, [shift])[0])


@dataclass(frozen=True)
class KakutaniResult:
    product: float        # certified lower bound for the infinite product
    positive: bool        # sum (1 - H_k) < infinity
    explicit_terms: int
    tail_constant: Optional[float] = None  # quadratic bound 1-H <= C s^2

    def __iter__(self):
        yield self.product
        yield self.positive


def _quadratic_tail_constant(phi: Density, probe: float) -> float:
    """A constant C with 1 - H(s) <= C s^2 for |s| <= probe, from probes.

    Evaluates (1-H)/s^2 at four geometrically shrinking shifts, in one
    vector quadrature; the quadratic regime must be visible (ratios within
    a factor 4), otherwise the tail is not certified.
    """
    shifts = probe / np.array([1.0, 2.0, 4.0, 8.0])
    ratios = ((1.0 - hellinger_affinities(phi, shifts)) / (shifts * shifts)
              ).tolist()
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
    """
    explicit = np.array(shifts.coords)
    h = hellinger_affinities(phi, explicit[explicit != 0.0])
    if np.any(h <= 0.0):
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
    convergent series plus a validated assumption bundle.  Anything the
    selected bundle cannot certify is UNDECIDED, never guessed.
    """
    if assumptions not in (AI_AII, AIII):
        raise ValueError(f"unknown assumption bundle {assumptions!r}")
    shapes = model.shape_laws()
    if not all(law.is_symmetric for law in shapes):
        raise ValueError("symmetry required: asymmetric coordinate law")

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
    from .models import _density_moment
    variance = (1.0 if phi.name == "normal"
                else _density_moment(phi, 2) - _density_moment(phi, 1) ** 2)
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
