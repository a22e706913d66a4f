"""Coordinate-sequence probability models, points, directions and samplers.

A model is a sequence of independent scalar coordinate laws, one per index
k >= 1, given by an explicit list plus an optional tail rule so that models
with unbounded width stay finitely representable.  Candidate points carry
their coordinate values the same way: an explicit vector plus an optional
power-law tail (the tail of a point defaults to identically zero).

All types are immutable after construction.  Sampling is bit-reproducible
from a master seed and independent of how the work is scheduled: value j
of column k is a fixed transform of word j of the counter-based Philox
stream whose key is the pair (seed, k) itself, and columns are stored
contiguously (samples are column-major).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import special
from .errors import (
    DirectionRangeError,
    LawUnavailableError,
    MomentUnavailableError,
    QuadratureError,
)
from .quadrature import gauss_kronrod

GAUSSIAN = "gaussian"
STABLE = "stable"
RADEMACHER = "rademacher"
UNIFORM = "uniform"
DENSITY = "density"

_FAMILIES = (GAUSSIAN, STABLE, RADEMACHER, UNIFORM, DENSITY)

# largest |integral of pdf - 1| that ``Density.validate`` accepts
NORMALIZATION_TOL = 1e-8
# largest integral of |pdf(x) - pdf(-x)| that a declared symmetry admits
SYMMETRY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Power-law tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerTail:
    """Values coef * k**exponent for indices k beyond an explicit prefix.

    Restricting tails to power laws keeps every convergence question
    (series sums, suprema) decidable by the integral test, which the
    analytic modules rely on for certified verdicts.
    """

    coef: float
    exponent: float

    def __post_init__(self):
        if not math.isfinite(self.coef) or not math.isfinite(self.exponent):
            raise ValueError("tail parameters must be finite")

    def value(self, k: int) -> float:
        """coef * k**exponent, by the C library's ``pow``; an infinite
        value where k**exponent overflows (0 when coef is 0)."""
        try:
            return self.coef * float(k) ** self.exponent
        except OverflowError:
            return math.copysign(math.inf, self.coef) if self.coef else 0.0

    def values(self, ks: np.ndarray) -> np.ndarray:
        """``value(k)`` for every k in ``ks``, bit for bit.

        numpy's vectorised power rounds differently from ``pow`` in the
        last bit for about 5% of entries, so the row is built from the
        scalar formula: a model's scales and a point's coordinates then
        read the same wherever they are taken.
        """
        if self.exponent == 0.0:
            # pow(k, +-0) is 1 for every k (C99 F.9.4.4): the row is coef
            return np.full(len(ks), self.coef)
        ks = np.asarray(ks, dtype=float).tolist()
        try:
            row = np.fromiter(map(math.pow, ks, repeat(self.exponent)),
                              float, len(ks))
        except OverflowError:
            return np.array([self.value(k) for k in ks], dtype=float)
        # a product past the float range is infinite, as in ``value``
        with np.errstate(over="ignore"):
            row *= self.coef
        return row

    @property
    def is_zero(self) -> bool:
        return self.coef == 0.0


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Density:
    """A scalar probability density with optional analytic derivative.

    ``pdf`` and ``dpdf`` are vectorised: each maps a float or an array of
    floats of any shape to values of the same shape (the positivity probe
    and the sampler table call ``pdf`` on 1-D arrays, the quadratures on
    (panels, 21) and (panels, 21, shifts) arrays).  When ``dpdf`` is
    absent, derivatives fall back to a centered finite difference with
    step h = max(1e-6, 1e-6*|x|).  ``symmetric`` declares symmetry about
    0; a density that leaves it None is treated as asymmetric.

    Draws come from a table of ``pdf``, so they are byte-identical across
    machines only when ``pdf`` is built from arithmetic or from
    ``depthlab.special``: numpy's ``exp`` and ``log`` pick their kernels
    by CPU, and a pdf that calls them (``logistic_density``) gives draws
    that follow that choice.
    """

    pdf: Callable[[float], float]
    dpdf: Optional[Callable[[float], float]] = None
    support: tuple[float, float] = (-math.inf, math.inf)
    symmetric: Optional[bool] = None
    name: str = "custom"

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise ValueError("support must be a nonempty interval")

    def derivative(self, x):
        if self.dpdf is not None:
            return self.dpdf(x)
        h = np.maximum(1e-6, 1e-6 * np.abs(x))
        return (self.pdf(x + h) - self.pdf(x - h)) / (2.0 * h)

    def normalization_defect(self) -> float:
        """|integral of pdf - 1|, by adaptive quadrature."""
        lo, hi = self.support
        total, _ = gauss_kronrod(self.pdf, lo, hi, what="normalization")
        return abs(float(total) - 1.0)

    def asymmetry(self) -> float:
        """Integral of |pdf(x) - pdf(-x)| over the line, by adaptive
        quadrature on the half line (infinite when the support is not
        symmetric about 0)."""
        lo, hi = self.support
        if lo != -hi:
            return math.inf
        total, _ = gauss_kronrod(
            lambda x: np.abs(self.pdf(x) - self.pdf(-x)), 0.0, hi,
            what="symmetry")
        return 2.0 * float(total)

    def validate(self) -> None:
        """Raise ``ValueError`` unless the density integrates to 1 within
        ``NORMALIZATION_TOL`` and, where it is declared symmetric, is its
        own mirror image within ``SYMMETRY_TOL``."""
        defect = self.normalization_defect()
        if defect > NORMALIZATION_TOL:
            raise ValueError(
                f"density does not integrate to 1 (defect {defect:.3e})")
        if self.symmetric is True:
            asymmetry = self.asymmetry()
            if asymmetry > SYMMETRY_TOL:
                raise ValueError(
                    "declared symmetry does not hold (integral of "
                    f"|pdf(x) - pdf(-x)| {asymmetry:.3e})")

    def cdf(self, x: float) -> float:
        lo, hi = self.support
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        val, _ = gauss_kronrod(self.pdf, lo, x, what="density-CDF")
        return min(max(float(val), 0.0), 1.0)


def normal_density() -> Density:
    """Standard normal density with analytic derivative."""
    c = 1.0 / math.sqrt(2.0 * math.pi)

    def pdf(x):
        return c * np.exp(-0.5 * np.square(x))

    def dpdf(x):
        return -x * c * np.exp(-0.5 * np.square(x))

    return Density(pdf=pdf, dpdf=dpdf, symmetric=True, name="normal")


def logistic_density() -> Density:
    """Standard logistic density; location Fisher information is 1/3."""

    def pdf(x):
        e = np.exp(-np.abs(x))
        return e / np.square(1.0 + e)

    def dpdf(x):
        e = np.exp(-np.abs(x))
        mag = e * (1.0 - e) / (1.0 + e) ** 3
        return -np.sign(x) * mag

    return Density(pdf=pdf, dpdf=dpdf, symmetric=True, name="logistic")


def uniform_density(lo: float = -1.0, hi: float = 1.0) -> Density:
    if not lo < hi:
        raise ValueError("uniform density requires lo < hi")
    h = 1.0 / (hi - lo)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), h, 0.0)

    return Density(pdf=pdf, dpdf=lambda x: np.zeros(np.shape(x)),
                   support=(lo, hi), symmetric=(lo == -hi), name="uniform")


# ---------------------------------------------------------------------------
# Coordinate laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateLaw:
    """The law of one coordinate functional t_k(X).

    The realized variable is scale * base where base is the family's
    standard variable: N(0,1), the standard symmetric p-stable (c.f.
    exp(-|t|^p) for p < 2, so standard Cauchy at p = 1; N(0, 1) at p = 2,
    a jump in scale by sqrt(2) from the limit N(0, 2) as p -> 2), a +/-1
    sign, Uniform(lo, hi), or a draw from ``density``.
    """

    family: str
    scale: float = 1.0
    p: Optional[float] = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    density: Optional[Density] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        _check_scale(self.scale)
        if self.family == STABLE:
            if self.p is None or not 0.0 < self.p <= 2.0:
                raise ValueError("stable law requires 0 < p <= 2")
        if self.family == UNIFORM:
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise ValueError("uniform law requires lo < hi")
        if self.family == DENSITY and self.density is None:
            raise ValueError("density law requires a Density")

    # -- analytic structure -------------------------------------------------

    @property
    def is_symmetric(self) -> bool:
        """Symmetry about 0 as the family or the density declares it; a
        density with ``symmetric=None`` is not taken to be symmetric."""
        if self.family in (GAUSSIAN, STABLE, RADEMACHER):
            return True
        if self.family == UNIFORM:
            return self.lo == -self.hi
        return self.density.symmetric is True

    @property
    def std(self) -> float:
        """Standard deviation of scale * base; raises if it does not exist."""
        return self.std_at(self.scale)

    def std_at(self, scale):
        """Standard deviation of ``scale`` * base, whatever ``self.scale``
        is; ``scale`` may be a float or an array of scales."""
        if self.family in (GAUSSIAN, RADEMACHER):
            return scale
        if self.family == STABLE:
            if self.p == 2.0:
                return scale
            raise MomentUnavailableError(
                f"moment unavailable: p-stable with p={self.p} has no variance")
        if self.family == UNIFORM:
            return scale * (self.hi - self.lo) / math.sqrt(12.0)
        return scale * math.sqrt(_density_moment(self.density, 2))

    @property
    def fourth_moment(self) -> float:
        """E[(scale*base)^4]; requires a mean-zero (symmetric) law."""
        if not self.is_symmetric:
            raise MomentUnavailableError(
                "fourth moment bookkeeping assumes a symmetric law")
        s4 = self.scale ** 4
        if self.family == GAUSSIAN:
            return 3.0 * s4
        if self.family == RADEMACHER:
            return s4
        if self.family == STABLE:
            if self.p == 2.0:
                return 3.0 * s4
            raise MomentUnavailableError(
                f"moment unavailable: p-stable with p={self.p}")
        if self.family == UNIFORM:
            return s4 * self.hi ** 4 / 5.0
        return s4 * _density_moment(self.density, 4)

    @property
    def kurtosis_ratio(self) -> float:
        """E t^4 / (E t^2)^2, the uniform moment-ratio constant for this law."""
        sd = self.std
        return self.fourth_moment / sd ** 4

    def prob_below(self, x: float) -> float:
        """P(scale*base < x), with atoms handled strictly."""
        z = x / self.scale
        if self.family == GAUSSIAN:
            return special.ndtr(z)
        if self.family == RADEMACHER:
            if z <= -1.0:
                return 0.0
            if z <= 1.0:
                return 0.5
            return 1.0
        if self.family == UNIFORM:
            return float(np.clip((z - self.lo) / (self.hi - self.lo), 0.0, 1.0))
        if self.family == STABLE:
            return stable_cdf(self.p, z)[0]
        return self.density.cdf(z)

    def has_positive_density_on_r(self) -> bool:
        """True when the law has an a.e. positive density on the whole line."""
        if self.family in (GAUSSIAN, STABLE):
            return True
        if self.family in (RADEMACHER, UNIFORM):
            return False
        lo, hi = self.density.support
        return math.isinf(lo) and math.isinf(hi)


def _check_scale(scale: float) -> None:
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError("scale must be a positive finite real")


@lru_cache(maxsize=64)
def _density_moment(density: Density, order: int) -> float:
    lo, hi = density.support
    try:
        val, _ = gauss_kronrod(lambda x: x ** order * density.pdf(x), lo, hi,
                               what="density-moment")
    except QuadratureError as exc:
        # a heavy tail makes the integral diverge
        raise MomentUnavailableError(
            f"moment unavailable: the density's moment of order {order} "
            f"does not converge ({exc})") from exc
    return float(val)


def gaussian_law(scale: float = 1.0) -> CoordinateLaw:
    return CoordinateLaw(GAUSSIAN, scale=scale)


def stable_law(p: float, scale: float = 1.0) -> CoordinateLaw:
    return CoordinateLaw(STABLE, scale=scale, p=p)


def rademacher_law(scale: float = 1.0) -> CoordinateLaw:
    return CoordinateLaw(RADEMACHER, scale=scale)


def uniform_law(lo: float, hi: float, scale: float = 1.0) -> CoordinateLaw:
    return CoordinateLaw(UNIFORM, scale=scale, lo=lo, hi=hi)


def density_law(density: Density, scale: float = 1.0) -> CoordinateLaw:
    return CoordinateLaw(DENSITY, scale=scale, density=density)


# ---------------------------------------------------------------------------
# Sequence models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LawTail:
    """Rule k -> ``unit`` rescaled to ``scale.value(k)``, for indices past
    the explicit list.

    ``unit`` holds the tail's shape (family and parameters) once, at scale
    1, so a bad shape, or a coefficient that is not positive, fails when
    the tail is built.  Scales follow a power law so that weighted series
    over the tail stay analytically decidable; a scale that overflows far
    out is infinite, and the scale checks reject it where it is used.
    """

    unit: CoordinateLaw
    scale: PowerTail = PowerTail(1.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.unit, CoordinateLaw):
            raise TypeError("a tail's unit must be a CoordinateLaw")
        if self.unit.scale != 1.0:
            raise ValueError("a tail's unit law must have scale 1")
        _check_scale(self.scale.coef)

    def law(self, k: int) -> CoordinateLaw:
        return replace(self.unit, scale=self.scale.value(k))

    def scales(self, ks: np.ndarray) -> np.ndarray:
        """``scale.value(k)`` for every k in ``ks``, checked once as a row."""
        row = self.scale.values(ks)
        if not np.all((row > 0.0) & np.isfinite(row)):
            raise ValueError("scale must be a positive finite real")
        return row


@dataclass(frozen=True)
class SequenceModel:
    """A sequence of independent coordinate laws (independence is implicit)."""

    laws: tuple[CoordinateLaw, ...] = ()
    tail: Optional[LawTail] = None

    def __post_init__(self):
        if len(self.laws) == 0 and self.tail is None:
            raise ValueError("model must define at least one coordinate law")
        object.__setattr__(self, "laws", tuple(self.laws))

    @property
    def explicit_width(self) -> int:
        return len(self.laws)

    def law(self, k: int) -> CoordinateLaw:
        """Coordinate law for 1-based index k."""
        if k < 1:
            raise ValueError("coordinate indices are 1-based")
        if k <= len(self.laws):
            return self.laws[k - 1]
        if self.tail is not None:
            return self.tail.law(k)
        raise LawUnavailableError(f"law unavailable for coordinate {k}")

    def sigma(self, k: int) -> float:
        """Standard deviation of coordinate k; a tail index builds no law."""
        if self.tail is None or k <= len(self.laws):
            return self.law(k).std
        scale = self.tail.scale.value(k)
        _check_scale(scale)
        return self.tail.unit.std_at(scale)

    def sigmas(self, K: int) -> np.ndarray:
        """``sigma(k)`` for k = 1..K, bit for bit: each run of one law
        shape's std at its slice of the checked scale row."""
        runs, scales = _column_plan(self, K)
        out = np.empty(K)
        for lo, hi, law in runs:
            out[lo:hi] = law.std_at(scales[lo:hi])
        return out

    def shape_laws(self) -> tuple[CoordinateLaw, ...]:
        """The explicit laws, then the tail's unit law: every shape the
        model uses, for checks that do not depend on the scale."""
        tail = () if self.tail is None else (self.tail.unit,)
        return self.laws + tail

    def families(self) -> set[str]:
        return {law.family for law in self.shape_laws()}

    @staticmethod
    def iid(law: CoordinateLaw, K: Optional[int] = None) -> "SequenceModel":
        """K explicit copies of one law; unbounded (pure tail) when K is None."""
        if K is None:
            tail = LawTail(replace(law, scale=1.0), PowerTail(law.scale, 0.0))
            return SequenceModel(laws=(), tail=tail)
        return SequenceModel(laws=(law,) * K)


def gaussian_model(scales: Optional[Sequence[float]] = None,
                   tail: Optional[PowerTail] = None) -> SequenceModel:
    """Diagonal Gaussian model; defaults to unit scales for every k."""
    laws = tuple(gaussian_law(s) for s in (scales or ()))
    if tail is None and scales is None:
        tail = PowerTail(1.0, 0.0)
    law_tail = LawTail(gaussian_law(), tail) if tail is not None else None
    return SequenceModel(laws=laws, tail=law_tail)


def rademacher_model(K: Optional[int] = None) -> SequenceModel:
    return SequenceModel.iid(rademacher_law(), K)


def stable_model(p: float, scales: Optional[Sequence[float]] = None,
                 tail: Optional[PowerTail] = None) -> SequenceModel:
    laws = tuple(stable_law(p, s) for s in (scales or ()))
    if tail is None and scales is None:
        tail = PowerTail(1.0, 0.0)
    law_tail = LawTail(stable_law(p), tail) if tail is not None else None
    return SequenceModel(laws=laws, tail=law_tail)


def uniform_model(lo: float, hi: float, K: Optional[int] = None) -> SequenceModel:
    return SequenceModel.iid(uniform_law(lo, hi), K)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """A candidate a, represented by tau(a) = (t_1(a), t_2(a), ...).

    ``coords`` is the explicit prefix; beyond it the tail rule applies
    (identically zero when ``tail`` is None).
    """

    coords: tuple[float, ...] = ()
    tail: Optional[PowerTail] = None

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if any(not math.isfinite(c) for c in coords):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def explicit_width(self) -> int:
        return len(self.coords)

    def value_at(self, k: int) -> float:
        if k < 1:
            raise ValueError("coordinate indices are 1-based")
        if k <= len(self.coords):
            return self.coords[k - 1]
        if self.tail is not None:
            return self.tail.value(k)
        return 0.0

    def values(self, K: int) -> np.ndarray:
        """First K coordinate values as a dense vector."""
        out = np.zeros(K)
        m = min(K, len(self.coords))
        out[:m] = self.coords[:m]
        if self.tail is not None and K > len(self.coords):
            ks = np.arange(len(self.coords) + 1, K + 1)
            out[len(self.coords):] = self.tail.values(ks)
        return out

    @property
    def is_zero(self) -> bool:
        tail_zero = self.tail is None or self.tail.is_zero
        return tail_zero and all(c == 0.0 for c in self.coords)

    @staticmethod
    def zero() -> "Point":
        return Point(())

    @staticmethod
    def inverse_k(power: float = 1.0) -> "Point":
        """t_k(a) = k**(-power) for all k."""
        return Point((), tail=PowerTail(1.0, -power))

    @staticmethod
    def periodic(block: Sequence[float], repeats: int) -> "Point":
        return Point(tuple(block) * repeats)


# ---------------------------------------------------------------------------
# Directions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Direction:
    """A finitely supported coefficient vector alpha (an l0 element)."""

    support: tuple[int, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        support = tuple(int(k) for k in self.support)
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(support) != len(coeffs):
            raise ValueError("support and coeffs must have equal length")
        if len(support) == 0:
            raise ValueError("direction must have nonempty support")
        if any(k2 <= k1 for k1, k2 in zip(support, support[1:])):
            raise ValueError("support indices must be strictly increasing")
        if support[0] < 1:
            raise ValueError("coordinate indices are 1-based")
        if any(c == 0.0 or not math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be nonzero finite reals")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_mapping(mapping: Mapping[int, float]) -> "Direction":
        items = sorted((k, v) for k, v in mapping.items() if v != 0.0)
        return Direction(tuple(k for k, _ in items), tuple(v for _, v in items))

    @staticmethod
    def coordinate(k: int) -> "Direction":
        return Direction((k,), (1.0,))

    @property
    def max_index(self) -> int:
        return self.support[-1]

    def to_dict(self) -> dict[str, list]:
        return {"support": list(self.support), "coeffs": list(self.coeffs)}


def apply_direction(direction: Direction, coords) -> float:
    """sum_k alpha_k * coords_k, reading the implicit tail past the prefix.

    ``coords`` may be a Point (power or zero tail) or a plain vector
    (zero tail).  The sum is the reference arithmetic of a projection:
    c_1 x_1, then + c_j x_j in support order, one rounding per operation
    (not ``sum``, which compensates from Python 3.12 on).
    """
    if isinstance(coords, Point):
        values = [coords.value_at(k) for k in direction.support]
    else:
        vec = np.asarray(coords, dtype=float)
        values = [float(vec[k - 1]) if k <= vec.shape[-1] else 0.0
                  for k in direction.support]
    terms = [c * x for c, x in zip(direction.coeffs, values)]
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """An n x K matrix of realized coordinates, row j = (t_1(X_j), ..., t_K(X_j)).

    ``data`` is read-only and keeps the layout it is given; ``sample()``
    returns it column-major (Fortran order), so a coordinate column is
    contiguous.  Every computation reads values, never the layout, and
    ``data.tobytes()`` is in row-major order whatever the layout.
    """

    data: np.ndarray
    seed: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("sample must be a nonempty n x K matrix")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def K(self) -> int:
        return self.data.shape[1]


# The sampling stream: how a (seed, column, row) maps to a value.  Any
# change to it is a declared output change that bumps this number.
STREAM_VERSION = 4

# Columns of fewer words than this are enciphered by the array Philox,
# vectorised over (column, block); longer ones by numpy's C Philox.
VECTOR_WORDS = 64
# Most words one drawing pass holds (128 KiB), which bounds the cipher's
# temporaries; a pass holds one column at least
_WORD_CHUNK = 1 << 14
# Grid points of a custom density's inverse-CDF table
_DENSITY_GRID = 4097
# Largest |F(x_p) - p| at a sampler table's deciles x_p, F the density's
# own CDF: the normal, logistic, Laplace, uniform and Epanechnikov tables
# miss by 4e-5 at most; Cauchy and Student t(3), whose tails outrun the
# window, by 0.4, and an N(0, 0.001^2) peak narrower than a cell by 9e-3
_DENSITY_TABLE_TOL = 1e-3
# Most values one experiment draw holds (512 KiB), read at call time: a
# seed chunk of ``sample_chunks`` holds one whole sample at least, a column
# window of ``zero_depth_experiment`` one column of one seed at least.  The
# cap binds after that experiment's window floor (``_WINDOW_FLOOR``, 512
# values)
DRAW_CHUNK = 1 << 16


_MASK32 = 0xFFFFFFFF


def _seed_word(seed) -> np.ndarray:
    """``seed`` as a uint64 key word: an int in [0, 2**64), or a uint64
    array of seeds, returned as is."""
    if isinstance(seed, np.ndarray):
        if seed.dtype != np.uint64:
            raise TypeError("an array of seeds must have dtype uint64")
        return seed
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.uint64(seed)


def _column_keys(seed, ks) -> np.ndarray:
    """Philox keys of columns ``ks`` under ``seed``, of shape
    ``np.broadcast(seed, ks).shape + (2,)``: the key of (s, k) is the
    pair (s, k) itself.  ``seed`` is an int in [0, 2**64) or a uint64
    array of seeds; each k lies in [0, 2**32)."""
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size and (ks.min() < 0 or ks.max() > _MASK32):
        raise ValueError("column indices must lie in [0, 2**32)")
    return np.stack(np.broadcast_arrays(_seed_word(seed),
                                        ks.astype(np.uint64)), axis=-1)


# Domain words of derived seeds, so that experiment records and the lambda
# estimate never share a seed
RECORD_SEEDS, LAMBDA_SEED = 0x5EED, 0xA11A


def _derive_seed(master_seed: int, domain: int, count: Optional[int] = None):
    """Word 0 (an int), or words 0..count-1 (a uint64 array), of the
    Philox stream keyed by (master_seed, domain * 2**32).

    A domain lies in (0, 2**32), so the second key word is at least 2**32,
    above every column index: no derived stream shares a key with a sample
    column, and distinct (master, domain) pairs key distinct streams.
    Seed i of a row depends on (master_seed, domain, i) alone.
    """
    if not 0 < domain <= _MASK32:
        raise ValueError("a seed domain must lie in (0, 2**32)")
    key = np.array([_seed_word(master_seed), int(domain) << 32],
                   dtype=np.uint64)
    bitgen, _ = _keyed_rng()
    bitgen.state = _fresh_philox_state(key)
    if count is None:
        return int(bitgen.random_raw())
    return bitgen.random_raw(count)


def _fresh_philox_state(key: np.ndarray) -> dict:
    """State of a newly seeded Philox with the given key: zero counter,
    empty output buffer, no cached 32-bit half-word."""
    zeros = np.zeros(4, dtype=np.uint64)
    return {"bit_generator": "Philox",
            "state": {"counter": zeros, "key": key},
            "buffer": zeros, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


def _keyed_rng() -> tuple[np.random.Philox, np.random.Generator]:
    # an explicit seed keeps construction off OS entropy; the key is
    # replaced before any draw
    bitgen = np.random.Philox(0)
    return bitgen, np.random.Generator(bitgen)


def _column_rng(seed: int, k: int) -> np.random.Generator:
    """A Generator on the Philox stream of column k under ``seed``, for
    the estimators that draw through numpy's Generator methods."""
    bitgen, rng = _keyed_rng()
    bitgen.state = _fresh_philox_state(_column_keys(seed, [k])[0])
    return rng


def _random_subsets(rng: np.random.Generator, n: int, size: int, rows: int
                    ) -> np.ndarray:
    """``rows`` independent uniform ``size``-subsets of range(n), one per
    row, in no particular order.

    Floyd's algorithm, vectorised over rows: step i adds a uniform t in
    [0, n - size + i], or n - size + i itself when the row already holds
    t.  One ``integers`` call draws every t.
    """
    tops = np.arange(n - size, n)
    draws = rng.integers(0, tops + 1, size=(rows, size))
    picks = np.empty((rows, size), dtype=np.intp)
    for i, top in enumerate(tops):
        t = draws[:, i]
        held = (picks[:, :i] == t[:, None]).any(axis=1)
        picks[:, i] = np.where(held, top, t)
    return picks


# Philox4x64-10 constants (Salmon et al., SC 2011, "Parallel random
# numbers: as easy as 1, 2, 3"), as numpy's Philox uses them
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
# the 32-bit mask and shift as uint64 scalars, which numpy applies without
# converting a Python int on every call
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


def _mulhilo(a: np.ndarray, m: int, hi: np.ndarray, lo: np.ndarray,
             t: np.ndarray, u: np.ndarray) -> None:
    """High and low 64-bit halves of the 128-bit products a * m, into
    ``hi`` and ``lo``, from 32-bit halves; ``t`` and ``u`` are scratch of
    a's shape, and no output aliases ``a``."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    np.bitwise_and(a, _LOW32, out=u)
    np.multiply(u, m_lo, out=t)
    t >>= _SHIFT32
    np.right_shift(a, _SHIFT32, out=hi)
    t += np.multiply(hi, m_lo, out=lo)  # a_hi m_lo + (a_lo m_lo >> 32)
    u *= m_hi
    u += np.bitwise_and(t, _LOW32, out=lo)  # (t mod 2^32) + a_lo m_hi
    u >>= _SHIFT32
    t >>= _SHIFT32
    hi *= m_hi
    hi += t
    hi += u
    np.multiply(a, np.uint64(m), out=lo)


def _philox_blocks(keys: np.ndarray, n_blocks: int) -> np.ndarray:
    """Blocks 0..n_blocks-1 of the Philox4x64-10 stream under every key,
    shape (len(keys), n_blocks, 4), vectorised over (key, block).

    Block b is the cipher of counter b + 1: numpy's Philox increments its
    counter before each block, starting from 0.  The first round reads
    that counter, which every key shares, and three zero words, so its
    products are taken once, on the counter row.  The rounds run in
    place on ten (key, block) buffers.
    """
    k0, k1 = keys[:, :1], keys[:, 1:]
    shape = (len(keys), n_blocks)
    c0, c1, c2, c3, hi0, lo0, hi1, lo1, t, u = (
        np.empty(shape, dtype=np.uint64) for _ in range(10))
    row = [np.empty(n_blocks, dtype=np.uint64) for _ in range(4)]
    _mulhilo(np.arange(1, n_blocks + 1, dtype=np.uint64), _PHILOX_M0, *row)
    c0[:] = k0
    c1[:] = 0
    np.bitwise_xor(row[0], k1, out=c2)
    c3[:] = row[1]
    for _ in range(9):
        k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        _mulhilo(c0, _PHILOX_M0, hi0, lo0, t, u)
        _mulhilo(c2, _PHILOX_M1, hi1, lo1, t, u)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); the
        # old state's buffers take the next round's products
        c0, c1, c2, c3, hi0, lo0, hi1, lo1 = (hi1, lo1, hi0, lo0,
                                              c0, c1, c2, c3)
    return np.stack([c0, c1, c2, c3], axis=-1)


def _philox_words(keys: np.ndarray, words: np.ndarray) -> None:
    """Write words 0..m-1 of the Philox4x64-10 stream under ``keys[i]``,
    counter starting at 0, into row i of the (len(keys), m) uint64 array
    ``words``: ``np.random.Philox(key=keys[i]).random_raw(m)``.

    Rows shorter than ``VECTOR_WORDS`` come from the array cipher above;
    longer rows from numpy's C Philox, re-keyed per row, which is faster
    per word once a row fills many blocks.
    """
    m = words.shape[1]
    if m < VECTOR_WORDS:
        blocks = _philox_blocks(keys, -(-m // 4))
        words[:] = blocks.reshape(len(keys), -1)[:, :m]
        return
    bitgen, _ = _keyed_rng()
    for key, row in zip(keys, words):
        bitgen.state = _fresh_philox_state(key)
        row[:] = bitgen.random_raw(m)


def _open_unit(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """((w >> 12) + 0.5) * 2**-52: 52 random bits placed strictly inside
    (0, 1), so no transform sees 0 or 1.  ``out`` may be ``words``'s
    memory viewed as float64; ``words`` is overwritten.

    The bits become the mantissa of x = 1 + (w >> 12) 2^-52 in [1, 2), and
    x - (1 - 2^-53) is exact (Sterbenz: (1 - 2^-53) / 2 <= x <= 2 (1 -
    2^-53)), so this equals the arithmetic form bit for bit."""
    np.right_shift(words, 12, out=words)
    np.bitwise_or(words, 0x3FF0000000000000, out=words)
    return np.subtract(words.view(np.float64), 1.0 - 2.0 ** -53, out=out)


def _closed_unit(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(w >> 11) * 2**-53 in [0, 1), numpy's ``random()`` of one word;
    aliasing as in ``_open_unit``."""
    np.right_shift(words, 11, out=words)
    return np.multiply(words, 2.0 ** -53, out=out)


def _cms(p: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck: a standard symmetric p-stable value from a
    uniform angle v in (-pi/2, pi/2) and a standard exponential w, on the
    kernels of ``special``.

    sqrt(2 w) sin v at p = 2 (variance-one normalization), tan v at p = 1;
    elsewhere sin(p v) exp(((1 - p) (log cos((1 - p) v) - log w) - log cos
    v) / p), which is sin(p v) / cos(v)^(1/p) (cos((1 - p) v) / w)^((1 -
    p) / p) with one exponential.
    """
    if p == 2.0:
        return np.sqrt(2.0 * w) * special.sin(v)
    if p == 1.0:
        return special.tan(v)
    lw = special.log(special.cos((1.0 - p) * v))
    lw -= special.log(w)
    lw *= 1.0 - p
    lw -= special.log(special.cos(v))
    lw /= p
    return special.sin(p * v) * special.exp(lw)


# log g at the stable integral's split points: the omission levels g = 50
# and g = e^-50, first and last, and levels around g = 1, where the
# integrand turns over, so that few panels need bisection
_STABLE_LEVELS = np.array([math.log(50.0), 2.0, 1.0, 0.0, -1.0, -2.0, -4.0,
                           -8.0, -16.0, -50.0])


def _crossings(f, levels, lo: float, hi: float, outer) -> np.ndarray:
    """For each level c, a point u of [lo, hi] next to where the monotone f
    crosses c, from three rounds of 48 evenly spaced values: over [lo, hi],
    then twice over each level's straddling pair, all levels at once.

    A level beyond f's range sits at an end.  Of each final pair it
    returns the end on the ``outer`` side of the level: with f(u) >= c
    where outer is +1, f(u) <= c where it is -1, and either end where it
    is 0."""
    points = 48
    step = np.linspace(0.0, 1.0, points)
    u = lo + (hi - lo) * step
    fu = f(u)
    rising = fu[-1] > fu[0]
    c = np.clip(levels, min(fu[0], fu[-1]), max(fu[0], fu[-1]))[:, None]
    rows = np.arange(len(c))

    def straddle(u, fu):
        k = np.clip(((fu < c) == rising).sum(axis=1), 1, points - 1)
        u = np.broadcast_to(u, (len(c), points))
        return u[rows, k - 1], u[rows, k]

    a, b = straddle(u, fu)
    for _ in range(2):
        u = a[:, None] + (b - a)[:, None] * step
        a, b = straddle(u, f(u))
    return np.where(outer * (1.0 if rising else -1.0) > 0.0,
                    b, a)


def stable_cdf(p: float, x: float) -> tuple[float, float]:
    """(P(S <= x), error bound) for the standard symmetric p-stable S.

    Closed forms at p in {1, 2}, x = 0 and x = +-inf.  Otherwise P(S > |x|)
    is 1/pi times Nolan's (1997, Comm. Statist. Stochastic Models 13:759)
    integral on (0, pi/2) of exp(-g) (p > 1) or 1 - exp(-g) (p < 1), g
    monotone, taken by the shared Gauss-Kronrod rule from g = 50 to
    e^-50, split where log g crosses 2, 1, 0, -1, -2, -4, -8 and -16:
    beyond, it is within e^-50 of 0, or of 1 (near pi/2, added by length).
    A bound above 1e-8 raises ``QuadratureError``."""
    if not 0.0 < p <= 2.0:
        raise ValueError("stability index must lie in (0, 2]")
    if p == 2.0:
        return special.ndtr(x), 0.0
    if p == 1.0:
        return 0.5 + math.atan(x) / math.pi, 0.0
    if x == 0.0 or math.isinf(x):
        return (0.5 if x == 0.0 else float(x > 0.0)), 0.0
    half, m, logx = math.pi / 2, min(p, 2.0 - p) * math.pi / 2, math.log(abs(x))

    # (log g, theta (half - theta) / half = d theta / du) at u = logit(theta
    # / half), from theta and half - theta each to full precision: narrow
    # features at both ends resolve
    def log_g(u):
        e = np.exp(u)
        d = half / (1.0 + e)
        t = e * d
        s = np.sin(np.where(p * t <= half, p * t, m + p * d))
        return ((p * (logx - np.log(s)) + np.log(np.sin(d))) / (p - 1)
                + np.log(np.sin(m + abs(p - 1.0) * d))), t * d

    def integrand(u):
        lg, jac = log_g(u)
        g = np.exp(np.minimum(lg, 700.0))
        return ((np.exp(-g) if p > 1.0 else -np.expm1(-g))
                * (jac / (half * math.pi)))

    # the angles left out at u = -+690 are below 1e-299; the g = 50 and
    # g = e^-50 points are kept where the omitted integrand is below e^-50
    outer = np.zeros(len(_STABLE_LEVELS))
    outer[0], outer[-1] = 1.0, -1.0
    us = np.sort(_crossings(lambda u: log_g(u)[0], _STABLE_LEVELS, -690.0,
                            690.0, outer))
    # epsabs sits below the e^-50 omission, so far tails keep their
    # relative precision
    part, err = 0.0, math.exp(-50.0)
    if us[-1] > us[0]:
        inner = us[1:-1][(us[1:-1] > us[0]) & (us[1:-1] < us[-1])]
        part, part_err = gauss_kronrod(
            integrand, us[0], us[-1], epsabs=1e-24,
            gate=1e-8 - err, points=np.unique(inner), what="stable-CDF")
        err += part_err
    tail = half / (1.0 + math.exp(us[-1])) / math.pi + float(part)
    return (1.0 - tail if x > 0.0 else tail), err


def _density_sampler_table(density: Density):
    """The grid xs and the normalized running trapezoid of the pdf on it,
    whose inverse maps uniforms to draws.

    Raises ``LawUnavailableError`` when the table's deciles miss the
    density's own by more than ``_DENSITY_TABLE_TOL``: the window or its
    grid cannot hold the law, and draws from it would be wrong.
    """
    lo, hi = density.support
    if math.isinf(lo) or math.isinf(hi):
        # expand a symmetric window until the pdf mass outside is negligible
        bound = 1.0
        while bound < 1e6:
            edge = max(float(density.pdf(bound)), float(density.pdf(-bound)))
            if edge * bound < 1e-14:
                break
            bound *= 2.0
        lo = lo if math.isfinite(lo) else -bound
        hi = hi if math.isfinite(hi) else bound
    xs = np.linspace(lo, hi, _DENSITY_GRID)
    ps = np.asarray(density.pdf(xs), dtype=float)
    # scipy's cumulative_trapezoid, term for term
    cdf = np.concatenate(
        ([0.0], np.cumsum(np.diff(xs) * (ps[1:] + ps[:-1]) / 2.0)))
    cdf /= cdf[-1]
    levels = np.arange(1, 10) / 10.0
    error = max(abs(density.cdf(x) - p) for x, p in
                zip(np.interp(levels, cdf, xs).tolist(), levels.tolist()))
    if not error <= _DENSITY_TABLE_TOL:
        raise LawUnavailableError(
            f"law unavailable: the sampler table of density {density.name!r} "
            f"on [{lo:g}, {hi:g}] misses its deciles by {error:.2e}, past "
            f"{_DENSITY_TABLE_TOL:g}")
    return xs, cdf


@lru_cache(maxsize=16)
def _cached_density_table(density: Density):
    return _density_sampler_table(density)


def _words_per_draw(law: CoordinateLaw) -> int:
    return 2 if law.family == STABLE else 1


def _transform(law: CoordinateLaw, words: np.ndarray, out: np.ndarray
               ) -> None:
    """Map Philox words to draws of the law's standard variable in ``out``
    (``law.scale`` is ignored).

    Draw j reads word j, or words 2j and 2j+1 for a stable law, along the
    last axis.  Both arrays are C-contiguous; ``out`` may be ``words``'s
    memory viewed as float64 (one word per draw); ``words`` is overwritten
    either way.
    """
    if law.family == GAUSSIAN:
        special.ndtri(_open_unit(words, out), out=out)
    elif law.family == RADEMACHER:
        np.right_shift(words, 63, out=words)
        np.multiply(words, 2.0, out=out)
        out -= 1.0
    elif law.family == UNIFORM:
        # numpy's Generator.uniform: lo + (hi - lo) * random(); a factor
        # of 1 and a zero lo (the draws are >= +0) would move no bit
        _closed_unit(words, out)
        if law.hi - law.lo != 1.0:
            out *= law.hi - law.lo
        if law.lo != 0.0:
            out += law.lo
    elif law.family == STABLE:
        # _WORD_CHUNK words at a time keep the kernels' temporaries small
        pairs, flat = words.reshape(-1, 2), out.reshape(-1)
        step = _WORD_CHUNK // 2
        for lo in range(0, len(flat), step):
            pair, dest = pairs[lo:lo + step], flat[lo:lo + step]
            v = _open_unit(pair[:, 0], np.empty(len(dest)))
            v -= 0.5
            v *= math.pi
            w = -special.log(_open_unit(pair[:, 1], dest))
            dest[:] = _cms(law.p, v, w)
    else:
        xs, cdf = _cached_density_table(law.density)
        flat = _closed_unit(words, out).reshape(-1)
        for lo in range(0, len(flat), _WORD_CHUNK):
            part = flat[lo:lo + _WORD_CHUNK]
            part[:] = np.interp(part, cdf, xs)


def _sample_column(law: CoordinateLaw, n: int, rng: np.random.Generator
                   ) -> np.ndarray:
    """n draws of ``law`` from the next words of the Generator's bit
    generator, mapped as ``sample`` maps a column's words."""
    words = rng.bit_generator.random_raw(n * _words_per_draw(law))
    out = np.empty(n) if law.family == STABLE else words.view(np.float64)
    _transform(law, words, out)
    if law.scale != 1.0:
        out *= law.scale
    return out


def _law_shape(law: CoordinateLaw) -> tuple:
    return (law.family, law.p, law.lo, law.hi, law.density)


def _column_plan(model: SequenceModel, K: int
                 ) -> tuple[list[list], np.ndarray]:
    """Runs [lo, hi, law] of 0-based columns lo..hi-1 whose laws share one
    shape (family and parameters), and the scale row of columns 1..K.

    Tail scales are checked once, as a vector; explicit laws checked
    theirs when built.
    """
    width, tail = model.explicit_width, model.tail
    if K > width and tail is None:
        raise LawUnavailableError(f"law unavailable for coordinate {width + 1}")
    laws = model.laws[:K]
    scales = np.empty(K)
    scales[:len(laws)] = [law.scale for law in laws]
    if K > width:
        scales[width:] = tail.scales(np.arange(width + 1, K + 1))
        laws += (tail.unit,)  # one entry for every tail column
    runs: list[list] = []
    for lo, law in enumerate(laws):
        hi = lo + 1 if lo < width else K
        if runs and _law_shape(runs[-1][2]) == _law_shape(law):
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, law])
    return runs, scales


def _draw(plan: tuple[list[list], np.ndarray], n: int, keys: np.ndarray,
          first: int = 0) -> np.ndarray:
    """Columns first+1..first+w of the samples whose column keys are
    ``keys``, shape (w, S, 2), under ``plan = _column_plan(model, K)`` for
    some K >= first + w: entry [k - first - 1, i, j] of the (w, S, n)
    result is value j of column k of sample i.

    Each run of columns with one law shape is enciphered in passes of at
    most ``_WORD_CHUNK`` words.  One word per draw: the words land in the
    output, and one transform maps the whole run there (each transform
    bounds its own scratch).  Two words per draw: each pass fills a
    pass-sized buffer, transformed into the output.  The plan's scale row,
    sliced to the window, multiplies the result once, unless every scale
    in it is 1.
    """
    runs, scales = plan
    w, S = keys.shape[:2]
    end = first + w
    out = np.empty((w, S, n))
    flat, flat_keys = out.reshape(w * S, n), keys.reshape(w * S, 2)
    for lo, hi, law in runs:
        if hi <= first:
            continue
        if lo >= end:
            break
        lo, hi = max(lo, first) - first, min(hi, end) - first
        m = n * _words_per_draw(law)
        step = max(1, _WORD_CHUNK // m)
        run, run_keys = flat[lo * S:hi * S], flat_keys[lo * S:hi * S]
        for a in range(0, len(run), step):
            dest = run[a:a + step]
            if m == n:
                _philox_words(run_keys[a:a + step], dest.view(np.uint64))
            else:
                words = np.empty((len(dest), m), dtype=np.uint64)
                _philox_words(run_keys[a:a + step], words)
                _transform(law, words, dest)
        if m == n:
            _transform(law, run.view(np.uint64), run)
    window = scales[first:end]
    if (window != 1.0).any():
        out *= window[:, None, None]
    return out


def sample(model: SequenceModel, n: int, K: int, seed: int) -> Sample:
    """Draw an n x K sample from the model, reproducible bit-for-bit.

    Value j of column k is a fixed transform of word j (stable: words 2j
    and 2j+1) of the Philox4x64-10 stream keyed by (seed, k), so it
    depends on (seed, k, j) alone, not on n, K or evaluation order
    (``STREAM_VERSION`` 4).  The matrix is column-major: each column is
    written, and later read, contiguously.
    """
    if n < 1 or K < 1:
        raise ValueError("n and K must be >= 1")
    keys = _column_keys(seed, np.arange(1, K + 1))
    return Sample(data=_draw(_column_plan(model, K), n, keys[:, None])[:, 0].T,
                  seed=int(seed))


def sample_chunks(model: SequenceModel, n: int, K: int, seeds: np.ndarray
                  ) -> Iterator[tuple[int, np.ndarray]]:
    """The samples of every 64-bit seed in ``seeds`` (a uint64 array),
    drawn in chunks of at most ``DRAW_CHUNK`` values, and at least one
    seed, at a time.

    Yields (lo, block): ``block[k - 1, i]`` is column k of
    ``sample(model, n, K, seeds[lo + i]).data``, bit for bit.
    """
    if n < 1 or K < 1:
        raise ValueError("n and K must be >= 1")
    plan = _column_plan(model, K)
    per = max(1, DRAW_CHUNK // (n * K))
    ks = np.arange(1, K + 1)[:, None]
    for lo in range(0, len(seeds), per):
        yield lo, _draw(plan, n, _column_keys(seeds[lo:lo + per], ks))


def _support_order_sum(columns: Sequence[np.ndarray], coeffs) -> np.ndarray:
    """c_1 x_1, then + c_j x_j in order, one float64 elementwise ufunc at a
    time: the reference arithmetic of a projection, with no BLAS and no
    fused multiply-add, so an entry does not depend on the array it sits
    in.  ``columns[j]`` holds the values x_j and ``coeffs[j]`` is c_j."""
    total = columns[0] * coeffs[0]
    for column, c in zip(columns[1:], coeffs[1:]):
        total += column * c
    return total


def project_sample(direction: Direction, sample: Sample) -> np.ndarray:
    """t_alpha(X_j) for every row j; errors if the support exceeds the width.

    Entry j is ``apply_direction(direction, sample.data[j])`` bit for bit,
    whatever the layout of the sample and the BLAS build: the reference
    that empirical depth's counts equal.
    """
    if direction.max_index > sample.K:
        raise DirectionRangeError(
            f"direction out of range: support reaches {direction.max_index}, "
            f"sample width is {sample.K}")
    columns = [sample.data[:, k - 1] for k in direction.support]
    return _support_order_sum(columns, direction.coeffs)
