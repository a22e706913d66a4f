"""Coordinate-sequence probability models, points, directions and samplers.

A model is a sequence of independent scalar coordinate laws, one per index
k >= 1, given by an explicit list plus an optional tail rule so that models
with unbounded width stay finitely representable.  Candidate points carry
their coordinate values the same way: an explicit vector plus an optional
power-law tail (the tail of a point defaults to identically zero).

All types are immutable after construction.  Sampling is bit-reproducible
from a master seed and independent of how the work is scheduled: column k
of a sample is drawn from its own counter-based Philox substream keyed by
(seed, k), and is stored contiguously (samples are column-major).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .errors import (
    DirectionRangeError,
    LawUnavailableError,
    MomentUnavailableError,
)

GAUSSIAN = "gaussian"
STABLE = "stable"
RADEMACHER = "rademacher"
UNIFORM = "uniform"
DENSITY = "density"

_FAMILIES = (GAUSSIAN, STABLE, RADEMACHER, UNIFORM, DENSITY)


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
        return self.coef * float(k) ** self.exponent

    def values(self, ks: np.ndarray) -> np.ndarray:
        return self.coef * np.asarray(ks, dtype=float) ** self.exponent

    @property
    def is_zero(self) -> bool:
        return self.coef == 0.0


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Density:
    """A scalar probability density with optional analytic derivative.

    ``pdf`` must accept floats (vectorization is a bonus).  When ``dpdf``
    is absent, derivatives fall back to a centered finite difference with
    step h = max(1e-6, 1e-6*|x|).
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

    def derivative(self, x: float) -> float:
        if self.dpdf is not None:
            return float(self.dpdf(x))
        h = max(1e-6, 1e-6 * abs(x))
        return (float(self.pdf(x + h)) - float(self.pdf(x - h))) / (2.0 * h)

    def normalization_defect(self) -> float:
        """|integral of pdf - 1|, by adaptive quadrature."""
        lo, hi = self.support
        total, _ = integrate.quad(self.pdf, lo, hi, limit=200)
        return abs(total - 1.0)

    def validate(self, tol: float = 1e-8) -> None:
        defect = self.normalization_defect()
        if defect > tol:
            raise ValueError(
                f"density does not integrate to 1 (defect {defect:.3e})")

    def cdf(self, x: float) -> float:
        lo, hi = self.support
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        val, _ = integrate.quad(self.pdf, lo, x, limit=200)
        return min(max(val, 0.0), 1.0)


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

    return Density(pdf=pdf, dpdf=lambda x: 0.0, support=(lo, hi),
                   symmetric=(lo == -hi), name="uniform")


# ---------------------------------------------------------------------------
# Coordinate laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateLaw:
    """The law of one coordinate functional t_k(X).

    The realized variable is scale * base where base is the family's
    standard variable: N(0,1), the standard symmetric p-stable (variance
    one at p = 2, standard Cauchy at p = 1), a +/-1 sign, Uniform(lo, hi),
    or a draw from ``density``.
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
        if self.family in (GAUSSIAN, STABLE, RADEMACHER):
            return True
        if self.family == UNIFORM:
            return self.lo == -self.hi
        sym = self.density.symmetric
        if sym is None:
            probes = np.array([0.3, 0.7, 1.1, 1.9])
            f = np.asarray(self.density.pdf(probes), dtype=float)
            g = np.asarray(self.density.pdf(-probes), dtype=float)
            return bool(np.allclose(f, g, rtol=1e-9, atol=1e-12))
        return bool(sym)

    @property
    def std(self) -> float:
        """Standard deviation of scale * base; raises if it does not exist."""
        return self.std_at(self.scale)

    def std_at(self, scale: float) -> float:
        """Standard deviation of ``scale`` * base, whatever ``self.scale`` is."""
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
            return float(ndtr(z))
        if self.family == RADEMACHER:
            if z <= -1.0:
                return 0.0
            if z <= 1.0:
                return 0.5
            return 1.0
        if self.family == UNIFORM:
            return float(np.clip((z - self.lo) / (self.hi - self.lo), 0.0, 1.0))
        if self.family == STABLE:
            if self.p == 2.0:
                return float(ndtr(z))
            if self.p == 1.0:
                return 0.5 + math.atan(z) / math.pi
            from .analytic import stable_cdf  # lazy: avoids import cycle
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
    val, _ = integrate.quad(lambda x: x ** order * density.pdf(x), lo, hi,
                            limit=200)
    return val


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
    1, so a bad shape fails when the tail is built.  Scales follow a power
    law so that weighted series over the tail stay analytically decidable;
    a scale that is not a positive finite real at some k (a nonpositive
    coefficient, or overflow far out) raises at that k.
    """

    unit: CoordinateLaw
    scale: PowerTail = PowerTail(1.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.unit, CoordinateLaw):
            raise TypeError("a tail's unit must be a CoordinateLaw")
        if self.unit.scale != 1.0:
            raise ValueError("a tail's unit law must have scale 1")

    def law(self, k: int) -> CoordinateLaw:
        return replace(self.unit, scale=self.scale.value(k))


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

    def scaled(self, factor: float) -> "Direction":
        return Direction(self.support, tuple(c * factor for c in self.coeffs))

    def merged_with(self, other: "Direction") -> Optional["Direction"]:
        """Coefficient-wise sum; None when everything cancels."""
        acc: dict[int, float] = dict(zip(self.support, self.coeffs))
        for k, c in zip(other.support, other.coeffs):
            acc[k] = acc.get(k, 0.0) + c
        acc = {k: v for k, v in acc.items() if v != 0.0}
        if not acc:
            return None
        return Direction.from_mapping(acc)

    def to_dict(self) -> dict[str, list]:
        return {"support": list(self.support), "coeffs": list(self.coeffs)}


def apply_direction(direction: Direction, coords) -> float:
    """sum_k alpha_k * coords_k, reading the implicit tail past the prefix.

    ``coords`` may be a Point (power or zero tail) or a plain vector
    (zero tail).
    """
    if isinstance(coords, Point):
        return float(sum(c * coords.value_at(k)
                         for k, c in zip(direction.support, direction.coeffs)))
    vec = np.asarray(coords, dtype=float)
    total = 0.0
    for k, c in zip(direction.support, direction.coeffs):
        if k <= vec.shape[-1]:
            total += c * float(vec[k - 1])
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx);
# the algorithm falls under numpy's stream-compatibility guarantee
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash(value, const: int, mult: int):
    """One SeedSequence hash step on 32-bit words (ints or uint64 arrays);
    returns the hashed value and the next hash constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ (value >> 16), const_next


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _column_keys(seed: int, ks) -> np.ndarray:
    """Philox keys of columns ``ks`` under master ``seed``, shape (len(ks), 2).

    Row i is the key numpy derives from
    ``SeedSequence(entropy=seed, spawn_key=(ks[i],))``: the same pool
    hashing and mixing, run once for the seed words and then vectorized
    over the spawn word of every column.
    """
    seed = int(seed)
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if ks.size and (ks.min() < 0 or ks.max() > _MASK32):
        raise ValueError("column indices must lie in [0, 2**32)")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy.append(ks.astype(np.uint64))

    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, const = _hash(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)

    # generate_state(2, uint64): four 32-bit words, paired little-endian
    const = _INIT_B
    state = []
    for word in pool:
        word, const = _hash(word, const, _MULT_B)
        state.append(word)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32],
                    axis=1)


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
    """Generator for column k alone, the stream ``sample`` uses for it."""
    bitgen, rng = _keyed_rng()
    bitgen.state = _fresh_philox_state(_column_keys(seed, [k])[0])
    return rng


def _derive_seed(master_seed: int, *indices: int) -> int:
    """A 32-bit sample seed derived from a master seed and an index path."""
    ss = np.random.SeedSequence(
        entropy=(int(master_seed), *(int(i) for i in indices)))
    return int(ss.generate_state(1)[0])


def _stable_standard(p: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard symmetric p-stable draws via the CMS transform.

    Specializes to Box-Muller at p = 2 (variance-one normalization) and to
    the Cauchy inverse-CDF at p = 1.  Each draw consumes one uniform angle
    and one exponential, in that order.
    """
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = rng.standard_exponential(n)
    if p == 2.0:
        return np.sqrt(2.0 * w) * np.sin(v)
    if p == 1.0:
        return np.tan(v)
    w = np.maximum(w, 1e-300)
    return (np.sin(p * v) / np.cos(v) ** (1.0 / p)
            * (np.cos((1.0 - p) * v) / w) ** ((1.0 - p) / p))


def _density_sampler_table(density: Density, gridsize: int = 4097):
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
    xs = np.linspace(lo, hi, gridsize)
    ps = np.asarray(density.pdf(xs), dtype=float)
    cdf = integrate.cumulative_trapezoid(ps, xs, initial=0.0)
    cdf /= cdf[-1]
    return xs, cdf


@lru_cache(maxsize=16)
def _cached_density_table(density: Density):
    return _density_sampler_table(density)


def _standard_column(law: CoordinateLaw, n: int, rng: np.random.Generator
                     ) -> np.ndarray:
    """n draws of the law's standard variable (``law.scale`` is ignored)."""
    if law.family == GAUSSIAN:
        return rng.standard_normal(n)
    if law.family == RADEMACHER:
        return 2.0 * rng.integers(0, 2, n) - 1.0
    if law.family == UNIFORM:
        return rng.uniform(law.lo, law.hi, n)
    if law.family == STABLE:
        return _stable_standard(law.p, rng, n)
    xs, cdf = _cached_density_table(law.density)
    return np.interp(rng.random(n), cdf, xs)


def _sample_column(law: CoordinateLaw, n: int, rng: np.random.Generator
                   ) -> np.ndarray:
    return law.scale * _standard_column(law, n, rng)


def sample(model: SequenceModel, n: int, K: int, seed: int) -> Sample:
    """Draw an n x K sample from the model, reproducible bit-for-bit.

    Column k uses the Philox substream keyed by (seed, k), so the result
    does not depend on K or on evaluation order.  All keys are derived in
    one batch and a single bit generator is re-keyed per column.  Tail
    columns share the tail's unit-scale law and multiply its draws by the
    scale at k, so no per-column law is built.  The matrix is allocated
    column-major: each column is written, and later read, contiguously.
    """
    if n < 1 or K < 1:
        raise ValueError("n and K must be >= 1")
    keys = _column_keys(seed, np.arange(1, K + 1))
    bitgen, rng = _keyed_rng()
    data = np.empty((n, K), order="F")
    width, tail = model.explicit_width, model.tail
    for k in range(1, K + 1):
        if k <= width:
            law = model.laws[k - 1]
            scale = law.scale
        elif tail is not None:
            law, scale = tail.unit, tail.scale.value(k)
            _check_scale(scale)
        else:
            raise LawUnavailableError(f"law unavailable for coordinate {k}")
        bitgen.state = _fresh_philox_state(keys[k - 1])
        data[:, k - 1] = scale * _standard_column(law, n, rng)
    return Sample(data=data, seed=int(seed))


def project_sample(direction: Direction, sample: Sample) -> np.ndarray:
    """t_alpha(X_j) for every row j; errors if the support exceeds the width.

    One gather of the support columns and one matrix-vector product; on a
    column-major sample the gather copies contiguous columns.  Empirical
    depth evaluates whole families without this helper, gathering each
    distinct support once, with the same per-direction product.
    """
    if direction.max_index > sample.K:
        raise DirectionRangeError(
            f"direction out of range: support reaches {direction.max_index}, "
            f"sample width is {sample.K}")
    idx = np.asarray(direction.support, dtype=int) - 1
    coeffs = np.asarray(direction.coeffs)
    return sample.data[:, idx] @ coeffs


def sample_to_csv(s: Sample, path) -> None:
    """Write the sample in long form with header j,k,value (1-based indices)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "k", "value"])
        for j in range(s.n):
            for k in range(s.K):
                writer.writerow([j + 1, k + 1, repr(float(s.data[j, k]))])
