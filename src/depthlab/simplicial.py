"""Simplicial depth in R^d, the block-projection depth on sequence space,
and the associated consistency-failure experiment.

Open-hull membership goes through one batched test, on vertex sets held
as coordinate planes (d, d+1, *batch).  A vertex set is degenerate, and
counts as "outside" and in a diagnostic counter, when the determinant
of its (d+1)x(d+1) affine system (vertices as columns over a ones-row)
is at most 1e-12 times the product of the column norms.  That rule is
filtered (Shewchuk 1997): a cap on every set's product, taken once per
batch from its largest coordinate, clears each set whose determinant
exceeds 1e-12 times the cap, and the product itself is computed only for
the few sets left, so the mask is the one the product gives.  For d <= 3
the determinant is expanded from the differences v_i - v_0 of the
vertices as given (at d = 3 the triple product of v_1 - v_0, v_2 - v_0,
v_3 - v_0), and the target is inside iff every barycentric numerator, an
orientation determinant of the vertices translated by the target, has
the strict sign of that determinant (Shewchuk 1997).  No system is
solved, and on lattices where the products are exact, such as the
quarter grid, the verdict is exact, so a target on an edge or a face is
outside.  For d >= 4 the barycentric weights come from a batched linear
solve and must all be strictly positive.

The exact block counts of one sample (``empirical_block_depth``, the one
exact entry point: block k's U-statistic ratio Z_{n,k}/N_{n,d} is
``block_counts[k - 1] / n_subsets``), or of every sample in a seed chunk
of the experiment, go through one batched test: the blocks are copied
once, from the sample or the drawn chunk, into plane-major (d, n, blocks)
order, the (d+1)-subsets are enumerated once for all blocks, and one
gather puts a chunk of subsets for a run of blocks into plane layout,
each block's target (a broadcast view when all blocks share one)
broadcast against its own vertex sets, so every verdict is the one-subset
verdict.  Every hull-test batch, and the subset enumeration feeding it,
holds at most ``HULL_CHUNK`` = 2^14 vertex sets.  A batch of one subset
across many blocks, and every lambda Monte Carlo batch, is also bounded
by the values it holds: at most ``VALUE_CHUNK`` = 24 576 coordinates
(192 KiB of float64; 4 096 triangles or 2 048 tetrahedra), so its fresh
arrays are small enough that the allocator serves batch after batch
from the same pages instead of mapping new ones.  Either way the working
set is a few MiB at most whatever the subset budget or the number of
draws.  The experiment keeps the (seeds, k_max) counts as its per-seed
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import BudgetExceededError, InputError
from .models import (LAMBDA_SEED, RECORD_SEEDS, CoordinateLaw, Point, Sample,
                     SequenceModel, _column_rng, _derive_seed, _sample_column,
                     sample_chunks)

DEFAULT_BUDGET = 10 ** 7
DEFAULT_MC_DRAWS = 10 ** 5  # draws of the lambda(a) Monte Carlo
HULL_CHUNK = 1 << 14    # vertex sets per hull-test batch
VALUE_CHUNK = 3 << 13   # coordinate values per batch of fresh arrays
_PIVOT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Open-simplex membership
# ---------------------------------------------------------------------------

def _degenerate(v: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """Mask of the sets without |det| > 1e-12 * prod_i sqrt(|v_i|^2 + 1),
    the product of their column norms, for planes ``v`` not yet
    translated: a NaN determinant, such as an overflowed inf - inf, is
    degenerate too.

    With P the batch's largest |coordinate|, every set's product is at
    most (d P^2 + 1)^((d+1)/2); twice that, the cap, also bounds the
    product as rounded, so a set with |det| > 1e-12 * cap is not
    degenerate.  The product is taken only over the other sets, gathered:
    among them every NaN or infinite determinant, and the whole batch when
    the cap is NaN or overflows.
    """
    d = len(v)
    # numpy under errstate: Python's float ** raises OverflowError where
    # the cap must become inf
    with np.errstate(over="ignore", invalid="ignore"):
        big = np.maximum(v.max(initial=0.0), -v.min(initial=0.0))
        cap = 2.0 * (d * big * big + 1.0) ** ((d + 1) / 2)
    degenerate = ~(np.abs(dets) > _PIVOT_TOL * cap)
    if degenerate.any():
        left = v[:, :, degenerate]
        # vertex by vertex, so that no temporary holds more than one plane
        hadamard = np.ones(left.shape[2])
        for vertex in left.swapaxes(0, 1):
            hadamard *= np.sqrt(np.einsum("j...,j...->...", vertex, vertex)
                                + 1.0)
        left_dets = np.abs(dets[degenerate])
        degenerate[degenerate] = ~(left_dets > _PIVOT_TOL * hadamard)
    return degenerate


def _hull_planes(v: np.ndarray, x: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(inside, degenerate) masks for batched vertex sets held as
    coordinate planes: by orientation signs for d <= 3, by a barycentric
    solve for d >= 4.

    ``v`` has shape (d, d+1, *batch), v[j][i] coordinate j of vertex i,
    each plane C-contiguous; it is overwritten.  The target ``x`` has
    shape (d, 1, *t) with t broadcasting against batch: x[j] is
    coordinate j of one shared point (t all ones) or of one per set.

    Degeneracy is settled by a batch-wide cap on the product of column
    norms first, and by the product itself only where the cap cannot
    decide (``_degenerate``), before any plane is translated.
    """
    d, dp1, *batch = v.shape
    if d == 1:
        (x0, x1), = v
        t = x[0, 0]
        dets, nums = x1 - x0, (x1 - t, t - x0)
        degenerate = _degenerate(v, dets)
    elif d == 2:
        (x0, x1, x2), (y0, y1, y2) = v
        dets = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        degenerate = _degenerate(v, dets)
        # translate in place: v[j][i] becomes coordinate j of v_i - x
        v -= x
        (ex0, ex1, ex2), (ey0, ey1, ey2) = v
        nums = (ex1 * ey2 - ey1 * ex2, ex2 * ey0 - ey2 * ex0,
                ex0 * ey1 - ey0 * ex1)
    elif d == 3:
        # det[v1 - v0, v2 - v0, v3 - v0], the triple product a . (b x c)
        (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3) = v
        ax, ay, az = x1 - x0, y1 - y0, z1 - z0
        bx, by, bz = x2 - x0, y2 - y0, z2 - z0
        cx, cy, cz = x3 - x0, y3 - y0, z3 - z0
        dets = (ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz)
                + az * (bx * cy - by * cx))
        degenerate = _degenerate(v, dets)
        # translate in place: the planes now hold e_i = v_i - x, and
        # numerator i is the determinant with e_i = 0, from the cross
        # products e_0 x e_1 and e_2 x e_3, each shared by two numerators
        v -= x
        px, py, pz = y0 * z1 - z0 * y1, z0 * x1 - x0 * z1, x0 * y1 - y0 * x1
        qx, qy, qz = y2 * z3 - z2 * y3, z2 * x3 - x2 * z3, x2 * y3 - y2 * x3
        nums = (x1 * qx + y1 * qy + z1 * qz, -(x0 * qx + y0 * qy + z0 * qz),
                x3 * px + y3 * py + z3 * pz, -(x2 * px + y2 * py + z2 * pz))
    else:
        mats = np.empty((*batch, dp1, dp1))
        mats[..., :d, :] = np.moveaxis(v, (0, 1), (-2, -1))
        mats[..., d, :] = 1.0
        dets = np.linalg.det(mats)
        degenerate = _degenerate(v, dets)
        mats[degenerate] = np.eye(dp1)
        rhs = np.ones(x.shape[2:] + (dp1,))
        rhs[..., :d] = np.moveaxis(x[:, 0], 0, -1)
        # a shared target stays one broadcast vector, not a copy per system
        rhs_stack = np.broadcast_to(rhs[..., None], (*batch, dp1, 1))
        weights = np.linalg.solve(mats, rhs_stack)[..., 0]
        inside = np.all(weights > 0.0, axis=-1) & ~degenerate
        return inside, degenerate
    # d <= 3: inside iff every numerator has the strict sign of dets
    positive, negative = nums[0] > 0.0, nums[0] < 0.0
    for num in nums[1:]:
        positive &= num > 0.0
        negative &= num < 0.0
    inside = np.where(dets > 0.0, positive, negative) & ~degenerate
    return inside, degenerate


def _open_hull_mask(x, vertex_sets: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(inside, degenerate) masks for vertex sets of shape (..., d+1, d),
    one vertex per row, copied once into coordinate planes for
    ``_hull_planes``.  The target ``x`` broadcasts against the batch: one
    shared point of shape (d,), or one per vertex set, shape (..., d).
    """
    *batch, _, d = vertex_sets.shape
    x = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    x = x.reshape(d, 1, *(1,) * (len(batch) + 1 - x.ndim), *x.shape[1:])
    return _hull_planes(np.moveaxis(vertex_sets, (-1, -2), (0, 1)).copy(), x)


def _value_sets(d: int) -> int:
    """Vertex sets of dimension d that ``VALUE_CHUNK`` coordinate values
    hold, d (d+1) per set, and at least one."""
    return max(1, VALUE_CHUNK // (d * (d + 1)))


# ---------------------------------------------------------------------------
# Monte Carlo simplicial depth in R^d
# ---------------------------------------------------------------------------

def simplicial_depth_mc(x, law: CoordinateLaw, draws: int, seed: int
                        ) -> tuple[float, float]:
    """Monte Carlo estimate of P(x in open hull of d+1 iid draws), every
    coordinate of every vertex drawn from ``law``.

    Each batch of ``_value_sets(d)`` simplices reads the next m (d+1) d
    draws of one Philox stream, vertex by vertex, so the estimate does
    not depend on the batch size.  Returns the estimate and its binomial
    standard error.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    x = np.asarray(x, dtype=float)
    d = x.size
    rng = _column_rng(seed, 0x51D)
    per_batch = _value_sets(d)
    hits = 0
    done = 0
    while done < draws:
        m = min(per_batch, draws - done)
        pts = _sample_column(law, m * (d + 1) * d, rng).reshape(m, d + 1, d)
        inside, _ = _open_hull_mask(x, pts)
        hits += int(np.count_nonzero(inside))
        done += m
        # freed before the next batch is drawn, which then takes the same
        # memory instead of growing the heap past it
        del pts, inside
    est = hits / draws
    stderr = math.sqrt(max(est * (1.0 - est), 1e-12) / draws)
    return est, stderr


# ---------------------------------------------------------------------------
# U-statistic block counts
# ---------------------------------------------------------------------------

def n_subsets(n: int, d: int) -> int:
    return math.comb(n, d + 1)


def _block_hull_counts(planes: np.ndarray, targets: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Open-hull hit and degenerate counts over all (d+1)-subsets of rows,
    per block.

    ``planes`` holds the blocks as coordinate planes, shape (d, n, B):
    planes[j, r, b] is coordinate j of row r of block b, the one copy of
    the sample or the drawn chunk, made by the caller.  ``targets`` has
    shape (d, B); a broadcast view of one shared target will do.  Subsets
    are enumerated in chunks, and one ``take`` gathers a chunk's vertex
    sets for a run of blocks from ``planes[:, :, lo:hi]`` into one
    buffer, in the kernel's plane layout (d, d+1, subsets, blocks), with
    each block's target a (d, 1, 1, blocks) view.  When the run is all of
    the blocks the gather reads the planes in place; a shorter run, whose
    slice is not contiguous, is copied by numpy first.  A batch holds at
    most ``HULL_CHUNK`` vertex sets (a single subset per batch when B
    alone exceeds it).
    """
    d, n, n_blocks = planes.shape
    counts = np.zeros(n_blocks, dtype=np.int64)
    degens = np.zeros(n_blocks, dtype=np.int64)
    per_chunk = max(1, HULL_CHUNK // n_blocks)
    # runs of value-bounded length, so that the kernel's temporaries for
    # many blocks (10 000 of n = 4) stay small enough for the allocator to
    # reuse; with few blocks per_chunk, not the run, sets the batch, and
    # value-bounded batches there would pay the kernel's fixed cost four
    # times as often
    block_step = max(1, min(_value_sets(d), HULL_CHUNK // per_chunk))
    # every batch is gathered into this one buffer: fresh memory per batch
    # would cost a page fault per 4 KiB once the allocator trims its heap
    buffer = np.empty(d * (d + 1) * per_chunk * min(block_step, n_blocks))
    subsets = combinations(range(n), d + 1)
    while True:
        combos = np.fromiter(chain.from_iterable(islice(subsets, per_chunk)),
                             dtype=np.intp).reshape(-1, d + 1).T
        if not combos.size:
            return counts, degens
        for lo in range(0, n_blocks, block_step):
            hi = min(lo + block_step, n_blocks)
            run = slice(lo, hi)
            shape = (d, d + 1, combos.shape[1], hi - lo)
            v = buffer[:math.prod(shape)].reshape(shape)
            # every index is in range; "raise" would gather into a copy
            np.take(planes[:, :, run], combos, axis=1, out=v, mode="wrap")
            inside, degen = _hull_planes(v, targets[:, None, None, run])
            counts[run] += inside.sum(axis=0)
            degens[run] += degen.sum(axis=0)


# ---------------------------------------------------------------------------
# Empirical block-projection depth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicialRecord:
    """The block counts of one sample and its empirical block depth."""

    n: int
    d: int
    n_subsets: int
    block_counts: tuple[int, ...]
    degenerate_counts: tuple[int, ...]
    depth: float                     # min_k Z_{n,k} / N_{n,d}


def _check_block_shape(n: int, K: int, d: int, k_max: int,
                       budget: float) -> int:
    """N_{n,d} for k_max blocks of dimension d in an n x K sample, after
    checking the shape and the membership-test budget."""
    if d < 1 or k_max < 1:
        raise InputError("block dimension and k_max must be >= 1")
    if n < d + 1:
        raise InputError(f"need at least d+1={d + 1} rows, sample has {n}")
    if K < k_max * d:
        raise InputError(
            f"sample width {K} is insufficient for k_max={k_max} blocks "
            f"of dimension {d}")
    total = n_subsets(n, d)
    if total * k_max > budget:
        raise BudgetExceededError(
            f"{total * k_max} membership tests exceed the budget {budget}")
    return total


def empirical_block_depth(a: Point, s: Sample, d: int, k_max: int,
                          budget: int = DEFAULT_BUDGET) -> SimplicialRecord:
    """min over blocks k <= k_max of the per-block U-statistic ratio."""
    total = _check_block_shape(s.n, s.K, d, k_max, budget)
    # planes[j, r, k - 1] = coordinate j of block k in row r, one copy
    planes = np.ascontiguousarray(
        s.data[:, :k_max * d].reshape(s.n, k_max, d).transpose(2, 0, 1))
    targets = a.values(k_max * d).reshape(k_max, d).T
    counts, degens = _block_hull_counts(planes, targets)
    depth = int(counts.min()) / total
    return SimplicialRecord(n=s.n, d=d, n_subsets=total,
                            block_counts=tuple(counts.tolist()),
                            degenerate_counts=tuple(degens.tolist()),
                            depth=depth)


# ---------------------------------------------------------------------------
# The consistency-failure experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockExperimentResult:
    """The block experiment's summary and its rows: ``seeds``, shape
    (seeds,), uint64, and the hit counts Z_{n,k} ``block_counts`` and
    ``degenerate_counts`` of blocks k = 1..k_max, shape (seeds, k_max),
    int64, each out of ``n_subsets`` = N_{n,d} vertex sets."""

    seeds: np.ndarray
    block_counts: np.ndarray
    degenerate_counts: np.ndarray
    n_subsets: int
    fraction_zero: float
    fraction_zero_stderr: float
    lambda_hat: float
    lambda_stderr: float
    gap: float
    n: int
    d: int
    k_max: int


def require_iid_continuous(model: SequenceModel) -> CoordinateLaw:
    """The one continuous law of every coordinate, or an ``InputError``: a
    tail is iid only when its scale exponent is 0."""
    laws = set(model.laws)
    tail = model.tail
    if tail is not None:
        laws.add(tail.law(model.explicit_width + 1))
    if len(laws) != 1 or (tail is not None and tail.scale.exponent != 0.0):
        raise InputError("the experiment requires iid coordinates")
    law = laws.pop()
    if law.family == "rademacher":
        raise InputError("a continuous marginal is required for lambda(a) > 0")
    return law


def periodic_block_target(a: Point, d: int, k_max: int) -> np.ndarray:
    """The one value (t_1(a), ..., t_d(a)) of blocks 1..k_max of the point,
    or an ``InputError`` when two of them differ: the experiment's true
    depth is the single-block depth lambda of that value only when every
    block tests it."""
    targets = a.values(k_max * d).reshape(k_max, d)
    differs = np.flatnonzero(np.any(targets != targets[0], axis=1))
    if differs.size:
        raise InputError(
            f"the experiment requires a periodic point: block "
            f"{int(differs[0]) + 1} of {k_max} differs from block 1")
    return targets[0]


def block_depth_experiment(model: SequenceModel, a: Point, n: int, d: int,
                     k_max: int, seeds: int, master_seed: int = 0,
                     mc_draws: int = DEFAULT_MC_DRAWS,
                     budget: int = DEFAULT_BUDGET) -> BlockExperimentResult:
    """Empirical block depth per seed versus the Monte Carlo true depth.

    The point must be periodic (``periodic_block_target``): every block
    tests the same projected value, so the true depth equals the
    single-block simplicial depth lambda(a), estimated here by Monte Carlo.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    law = require_iid_continuous(model)
    width = k_max * d
    total = _check_block_shape(n, width, d, k_max, budget)
    target = periodic_block_target(a, d, k_max)
    lam, lam_se = simplicial_depth_mc(
        target, law, mc_draws, seed=_derive_seed(master_seed, LAMBDA_SEED))
    seed_row = _derive_seed(master_seed, RECORD_SEEDS, seeds)
    counts = np.empty((seeds, k_max), dtype=np.int64)
    degens = np.empty((seeds, k_max), dtype=np.int64)
    for lo, block in sample_chunks(model, n, width, seed_row):
        # (width, S, n) -> coordinate planes (d, n, S k_max), one copy:
        # block (seed s, k) is column s k_max + k - 1, seed-major
        S = block.shape[1]
        planes = np.ascontiguousarray(
            block.reshape(k_max, d, S, n).transpose(1, 3, 2, 0))
        hit, degen = _block_hull_counts(
            planes.reshape(d, n, S * k_max),
            np.broadcast_to(target[:, None], (d, S * k_max)))
        counts[lo:lo + S] = hit.reshape(S, k_max)
        degens[lo:lo + S] = degen.reshape(S, k_max)
    least = counts.min(axis=1)
    frac = int(np.count_nonzero(least == 0)) / seeds
    stderr = math.sqrt(frac * (1.0 - frac) / seeds)
    gap = lam if frac else float(np.mean(np.abs(least / total - lam)))
    return BlockExperimentResult(
        seeds=seed_row, block_counts=counts, degenerate_counts=degens,
        n_subsets=total, fraction_zero=frac, fraction_zero_stderr=stderr,
        lambda_hat=lam, lambda_stderr=lam_se, gap=gap, n=n, d=d, k_max=k_max)
