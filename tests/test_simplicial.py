import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from depthlab import (
    Point,
    PowerTail,
    Sample,
    empirical_block_depth,
    gaussian_model,
    block_depth_experiment,
    stable_model,
    sample,
    simplicial_depth_mc,
    u_statistic_depth_mc,
    rademacher_model,
    uniform_model,
    zero_depth_experiment,
)
from depthlab import models, simplicial
from depthlab.errors import BudgetExceededError
from depthlab.models import RECORD_SEEDS, _column_rng, _derive_seed
from depthlab.simplicial import (_PIVOT_TOL, _open_hull_mask,
                                 iid_block_sampler, n_subsets)
from depthlab.models import gaussian_law, stable_law, uniform_law


# -- reference open-hull tests ----------------------------------------------------

def _det(rows):
    """Determinant of a square matrix of Fractions, by cofactors along the
    first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * c * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, c in enumerate(rows[0]))


def _orient(*points):
    """det[p_1 - p_0, ..., p_d - p_0] for d + 1 points of R^d."""
    base = points[0]
    return _det([[c - b for c, b in zip(p, base)] for p in points[1:]])


def _exact_hull(x, verts):
    """(inside, degenerate) for one vertex set, any d, in rational
    arithmetic: the open-hull rule with the degeneracy test squared,
    det^2 <= tol^2 * prod(|v_i|^2 + 1), so no root is taken.  Numerator
    i is the orientation of the set with vertex i replaced by x."""
    x = [Fraction(float(c)) for c in x]
    v = [[Fraction(float(c)) for c in row] for row in verts]
    det = _orient(*v)
    nums = [_orient(*v[:i], x, *v[i + 1:]) for i in range(len(v))]
    bound = Fraction(_PIVOT_TOL) ** 2
    for row in v:
        bound *= sum(c * c for c in row) + 1
    degenerate = det * det <= bound
    return not degenerate and all(num * det > 0 for num in nums), degenerate


def _barycentric_mask(x, vertex_sets):
    """(inside, degenerate) masks by the batched barycentric solve, the
    reference for every d: ``vertex_sets`` (N, d+1, d), ``x`` (d,) or
    (N, d)."""
    n_batch, dp1, d = vertex_sets.shape
    mats = np.empty((n_batch, dp1, dp1))
    mats[:, :d, :] = np.transpose(vertex_sets, (0, 2, 1))
    mats[:, d, :] = 1.0
    hadamard = np.prod(np.linalg.norm(mats, axis=1), axis=1)
    dets = np.linalg.det(mats)
    degenerate = np.abs(dets) <= _PIVOT_TOL * hadamard
    safe = np.where(degenerate[:, None, None], np.eye(dp1)[None], mats)
    rhs = np.ones(np.shape(x)[:-1] + (dp1,))
    rhs[..., :d] = x
    rhs = np.broadcast_to(rhs[..., None], (n_batch, dp1, 1))
    weights = np.linalg.solve(safe, rhs)[..., 0]
    return np.all(weights > 0.0, axis=1) & ~degenerate, degenerate


def _inside(x, vertices) -> bool:
    """The open-hull verdict for one vertex set, through the batched test."""
    inside, _ = _open_hull_mask(np.asarray(x, dtype=float),
                                np.asarray(vertices, dtype=float)[None])
    return bool(inside[0])


def test_point_in_open_simplex_examples():
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert _inside([0.25, 0.25], tri)
    assert not _inside([0.5, 0.0], tri)  # edge is excluded
    assert not _inside([0.1, 0.1], [[0, 0], [1, 1], [2, 2]])


def test_point_in_open_simplex_1d():
    assert _inside([0.5], [[0.0], [1.0]])
    assert not _inside([1.0], [[0.0], [1.0]])
    assert not _inside([1.5], [[0.0], [1.0]])


def test_point_on_edge_is_outside():
    # the barycentric solve leaves a weight of +1.1e-16 on this edge
    assert not _inside([0.5, 0.5], [[0.5, 0.0], [0.25, 0.25], [0.5, 0.75]])


@pytest.mark.parametrize("targets", ["shared", "per-system"])
@pytest.mark.parametrize("d", [1, 2])
def test_hull_mask_exact_on_quarter_lattice(d, targets):
    # every vertex set of the lattice [0, 1]^d (d = 1: of [-2, 3]),
    # half of them reversed, so both orientations and every collinear or
    # repeated configuration occur; on this lattice the signs are exact
    axis = np.arange(-2.0, 3.125, 0.25) if d == 1 else np.arange(5) / 4.0
    grid = np.array(list(itertools.product(axis, repeat=d)))
    combos = np.array(list(itertools.combinations_with_replacement(
        range(len(grid)), d + 1)))
    combos[1::2] = combos[1::2, ::-1]
    verts = grid[combos]
    if targets == "shared":
        x = np.full(d, 0.5)
    else:
        x = grid[_column_rng(41, d).integers(0, len(grid), len(verts))]
    inside, degenerate = _open_hull_mask(x, verts)
    expected = np.array([_exact_hull(xi, v) for xi, v in
                         zip(np.broadcast_to(x, (len(verts), d)), verts)])
    assert inside.tolist() == expected[:, 0].tolist()
    assert degenerate.tolist() == expected[:, 1].tolist()
    assert 0 < inside.sum() and 0 < degenerate.sum()


def test_hull_mask_exact_on_quarter_grid_tetrahedra():
    # random tetrahedra of the lattice [0, 1]^3 in quarters, half of them
    # reversed, against a lattice point, the midpoint of an edge, a point
    # of a face and the centroid: every product is exact there, so each
    # verdict is the rational one, and a target on an edge or a face is
    # outside
    rng = _column_rng(2033, 3)
    verts = rng.integers(0, 5, (500, 4, 3)) / 4.0
    verts[1::2] = verts[1::2, ::-1]
    targets = {"lattice": rng.integers(0, 5, (500, 3)) / 4.0,
               "edge": (verts[:, 0] + verts[:, 1]) / 2.0,
               "face": (verts[:, 0] + verts[:, 1] + 2.0 * verts[:, 2]) / 4.0,
               "centroid": verts.sum(axis=1) / 4.0}
    masks = {}
    for name, x in targets.items():
        inside, degenerate = masks[name] = _open_hull_mask(x, verts)
        expected = np.array([_exact_hull(xi, v) for xi, v in zip(x, verts)])
        assert inside.tolist() == expected[:, 0].tolist()
        assert degenerate.tolist() == expected[:, 1].tolist()
    assert not masks["edge"][0].any() and not masks["face"][0].any()
    inside, degenerate = masks["centroid"]
    assert np.array_equal(inside, ~degenerate)
    assert 0 < masks["lattice"][0].sum() and 0 < degenerate.sum()


@pytest.mark.parametrize("law", ["uniform", "gaussian"])
def test_sign_masks_match_barycentric_on_continuous_triangles(law):
    rng = _column_rng(2026, 0xB0)
    if law == "uniform":
        verts = rng.random((10 ** 5, 3, 2))
        x = np.array([0.5, 0.5])
    else:
        verts = rng.standard_normal((10 ** 5, 3, 2))
        x = rng.standard_normal((10 ** 5, 2))
    inside, degenerate = _open_hull_mask(x, verts)
    ref_inside, ref_degenerate = _barycentric_mask(x, verts)
    assert np.array_equal(inside, ref_inside)
    assert np.array_equal(degenerate, ref_degenerate)
    assert inside.sum() > 5000 and not degenerate.any()


def test_degenerate_masks_match_barycentric_on_quarter_grid():
    # random triangles on a 5 x 5 lattice: collinear and repeated
    # vertices are common, and both tests must flag the same ones
    rng = _column_rng(2027, 0xB0)
    verts = rng.integers(0, 5, (10 ** 5, 3, 2)) / 4.0
    _, degenerate = _open_hull_mask(np.array([0.5, 0.5]), verts)
    _, ref_degenerate = _barycentric_mask(np.array([0.5, 0.5]), verts)
    assert np.array_equal(degenerate, ref_degenerate)
    assert degenerate.sum() > 10 ** 4


# -- the degeneracy gate against the product on every set -------------------

def _eager_hull_planes(v, x):
    """``_hull_planes`` with the product of column norms taken on every
    set, before any cap: the rule the capped gate must reproduce.  The
    determinants and numerators follow the kernel's expansion for each
    d, so that only the gate and the combining of the signs can differ:
    here every numerator's sign is stacked and reduced with
    ``logical_and.reduce``, the reference for the kernel's one-pass
    ``&=``."""
    d, dp1, *batch = v.shape
    hadamard = np.ones(batch)
    for vertex in v.swapaxes(0, 1):
        hadamard *= np.sqrt(np.einsum("j...,j...->...", vertex, vertex) + 1.0)
    if d == 1:
        (x0, x1), = v
        t = x[0, 0]
        dets, nums = x1 - x0, (x1 - t, t - x0)
    elif d == 2:
        (x0, x1, x2), (y0, y1, y2) = v
        dets = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        v -= x
        (ex0, ex1, ex2), (ey0, ey1, ey2) = v
        nums = (ex1 * ey2 - ey1 * ex2, ex2 * ey0 - ey2 * ex0,
                ex0 * ey1 - ey0 * ex1)
    elif d == 3:
        (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3) = v
        ax, ay, az = x1 - x0, y1 - y0, z1 - z0
        bx, by, bz = x2 - x0, y2 - y0, z2 - z0
        cx, cy, cz = x3 - x0, y3 - y0, z3 - z0
        dets = (ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz)
                + az * (bx * cy - by * cx))
        v -= x
        (ex0, ex1, ex2, ex3), (ey0, ey1, ey2, ey3), (ez0, ez1, ez2, ez3) = v
        px, py, pz = (ey0 * ez1 - ez0 * ey1, ez0 * ex1 - ex0 * ez1,
                      ex0 * ey1 - ey0 * ex1)
        qx, qy, qz = (ey2 * ez3 - ez2 * ey3, ez2 * ex3 - ex2 * ez3,
                      ex2 * ey3 - ey2 * ex3)
        nums = (ex1 * qx + ey1 * qy + ez1 * qz,
                -(ex0 * qx + ey0 * qy + ez0 * qz),
                ex3 * px + ey3 * py + ez3 * pz,
                -(ex2 * px + ey2 * py + ez2 * pz))
    else:
        mats = np.empty((*batch, dp1, dp1))
        mats[..., :d, :] = np.moveaxis(v, (0, 1), (-2, -1))
        mats[..., d, :] = 1.0
        dets = np.linalg.det(mats)
        degenerate = ~(np.abs(dets) > _PIVOT_TOL * hadamard)
        mats[degenerate] = np.eye(dp1)
        rhs = np.ones(x.shape[2:] + (dp1,))
        rhs[..., :d] = np.moveaxis(x[:, 0], 0, -1)
        rhs_stack = np.broadcast_to(rhs[..., None], (*batch, dp1, 1))
        weights = np.linalg.solve(mats, rhs_stack)[..., 0]
        inside = np.all(weights > 0.0, axis=-1) & ~degenerate
        return inside, degenerate
    degenerate = ~(np.abs(dets) > _PIVOT_TOL * hadamard)
    positive = np.logical_and.reduce([num > 0.0 for num in nums])
    negative = np.logical_and.reduce([num < 0.0 for num in nums])
    inside = np.where(dets > 0.0, positive, negative) & ~degenerate
    return inside, degenerate


def _gate_masks(verts, x):
    """(inside, degenerate) of ``_hull_planes`` and of the eager rule for
    vertex sets (*batch, d+1, d) and a target (*t, d) broadcasting against
    batch, both asserted to have bool dtype."""
    *batch, _, d = verts.shape
    planes = np.ascontiguousarray(np.moveaxis(verts, (-1, -2), (0, 1)))
    x = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    x = x.reshape(d, 1, *(1,) * (len(batch) + 1 - x.ndim), *x.shape[1:])
    with np.errstate(all="ignore"):
        got = simplicial._hull_planes(planes.copy(), x)
        want = _eager_hull_planes(planes.copy(), x)
    assert all(mask.dtype == bool for mask in got + want)
    return got, want


def _assert_gate_matches(verts, x):
    got, want = _gate_masks(verts, x)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    return want


def _axis_simplices(d, t):
    """The simplices 0, e_1, ..., e_{d-1}, t e_d, one per value of t: their
    determinant is +-t and their product of column norms does not depend
    on t while t is below about 1e-8."""
    verts = np.zeros((len(t), d + 1, d))
    verts[:, 1:d, :d - 1] = np.eye(d)[:d - 1, :d - 1]
    verts[:, d, d - 1] = t
    return verts


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gate_matches_eager_product_on_random_batches(d):
    rng = _column_rng(2028, d)
    _assert_gate_matches(rng.random((5000, d + 1, d)), np.full(d, 0.5))
    _assert_gate_matches(rng.standard_normal((5000, d + 1, d)),
                         rng.standard_normal((5000, d)))
    # a two-axis batch (subsets, blocks), one target per block, as
    # _block_hull_counts passes it
    _assert_gate_matches(rng.random((40, 7, d + 1, d)) * 3.0 - 1.0,
                         rng.random((7, d)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gate_matches_eager_product_on_quarter_grid(d):
    rng = _column_rng(2029, d)
    verts = rng.integers(0, 5, (20000, d + 1, d)) / 4.0
    _, degenerate = _assert_gate_matches(verts, np.full(d, 0.5))
    assert degenerate.sum() > 100


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gate_matches_eager_product_at_the_threshold(d):
    # |det| within a few ulps of 1e-12 times the product, on both sides,
    # among ordinary sets: the cap cannot settle these, the product must
    product = math.sqrt(2.0) ** (d - 1)
    steps = np.arange(-6, 7)
    t = _PIVOT_TOL * product * (1.0 + steps * 2.0 ** -52)
    near = _axis_simplices(d, np.concatenate([t, -t]))
    ordinary = _column_rng(2030, d).random((200, d + 1, d))
    verts = np.concatenate([ordinary, near, ordinary])
    _, degenerate = _assert_gate_matches(verts, np.full(d, 0.25))
    flags = degenerate[200:-200]
    assert flags.any() and not flags.all()


@pytest.mark.parametrize("scale", [1e150, 1e200])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_gate_matches_eager_product_with_a_huge_set(d, scale):
    # one set of huge coordinates among ordinary ones: the batch's cap is
    # huge or overflows, so every set takes the exact rule
    verts = _column_rng(2031, d).random((300, d + 1, d))
    verts[150] *= scale
    inside, degenerate = _assert_gate_matches(verts, np.full(d, 0.5))
    assert degenerate[150] and not inside[150]


@pytest.mark.parametrize("d", [2, 3])
def test_gate_flags_a_nan_determinant(d):
    # two terms of the determinant overflow to inf and -inf, so it is
    # computed as NaN: the set is degenerate, not merely outside
    huge = {2: [[0, 0], [1, 1], [2, 1]],
            3: [[0, 0, 0], [1, 1, 0], [2, 1, 0], [0, 0, 1]]}[d]
    verts = _column_rng(2034, d).random((300, d + 1, d))
    verts[150] = np.array(huge) * 1e200
    inside, degenerate = _assert_gate_matches(verts, np.full(d, 0.5))
    assert degenerate[150] and not inside[150]
    assert degenerate.sum() == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_gate_matches_eager_product_on_nonfinite_sets(d, bad):
    verts = _column_rng(2032, d).random((300, d + 1, d))
    verts[[7, 100, 299], [0, d, 1], [0, d - 1, 0]] = bad
    _assert_gate_matches(verts, np.full(d, 0.5))


def test_block_sampler_draws_scaled_unit_draws():
    # the scale multiply: scale 2 gives exactly twice the unit-scale draws
    # from the same generator state
    unit = iid_block_sampler(uniform_law(0.0, 1.0), 2)
    doubled = iid_block_sampler(uniform_law(0.0, 1.0, 2.0), 2)
    a = unit(np.random.default_rng(12), 50)
    b = doubled(np.random.default_rng(12), 50)
    assert a.shape == b.shape == (50, 2)
    assert np.array_equal(b, 2.0 * a)


def test_simplicial_depth_mc_median():
    est, se = simplicial_depth_mc(
        [0.5], iid_block_sampler(uniform_law(0.0, 1.0), 1), 100_000, seed=1)
    assert est == pytest.approx(0.5, abs=3.0 * se)



def test_simplicial_depth_mc_uniform_pinned():
    # the blocks workload's law and target: the draws skip the uniform
    # transform's factor 1 and +0, and the hull batches take the capped
    # degeneracy gate, without moving a hit
    est = simplicial_depth_mc(
        [0.5, 0.5], iid_block_sampler(uniform_law(0.0, 1.0), 2), 100_000,
        seed=1)
    assert est == (0.24965, 0.0013686667874249013)

def test_simplicial_depth_mc_disc_center():
    def disc(rng, m):
        r = np.sqrt(rng.random(m))
        th = rng.uniform(0.0, 2.0 * math.pi, m)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    est, se = simplicial_depth_mc([0.0, 0.0], disc, 10 ** 6, seed=2)
    assert est == pytest.approx(0.25, abs=3.0 * se)


def test_simplicial_depth_mc_far_point():
    est, _ = simplicial_depth_mc(
        [10.0], iid_block_sampler(uniform_law(0.0, 1.0), 1), 20_000, seed=3)
    assert est == 0.0


# -- exact U-statistic counts ---------------------------------------------------

def test_u_statistic_single_subset():
    s = sample(uniform_model(0.0, 1.0), 3, 2, seed=4)
    rec = empirical_block_depth(Point((0.5, 0.5)), s, d=2, k_max=1)
    assert rec.n_subsets == 1
    assert rec.block_counts[0] in (0, 1)


def test_u_statistic_d1_product_identity():
    m = uniform_model(0.0, 1.0)
    for i in range(100):
        s = sample(m, 14, 1, seed=5000 + i)
        b = float(_column_rng(6000 + i, 0).random())
        rec = empirical_block_depth(Point((b,)), s, d=1, k_max=1)
        col = s.data[:, 0]
        below = int(np.sum(col < b))
        above = int(np.sum(col > b))
        assert rec.block_counts == (below * above,)


def test_u_statistic_permutation_invariance():
    s = sample(uniform_model(0.0, 1.0), 10, 2, seed=6)
    rec = empirical_block_depth(Point((0.4, 0.6)), s, d=2, k_max=1)
    rng = _column_rng(7, 0)
    shuffled = Sample(s.data[rng.permutation(10)], seed=0)
    rec2 = empirical_block_depth(Point((0.4, 0.6)), shuffled, d=2, k_max=1)
    assert rec.block_counts == rec2.block_counts


def test_u_statistic_affine_invariance():
    s = sample(uniform_model(0.0, 1.0), 12, 2, seed=8)
    a = Point((0.5, 0.5))
    rec = empirical_block_depth(a, s, d=2, k_max=1)
    A = np.array([[2.0, 1.0], [-0.5, 3.0]])
    b = np.array([1.0, -2.0])
    mapped = Sample(s.data @ A.T + b, seed=0)
    target = np.array([0.5, 0.5]) @ A.T + b
    rec2 = empirical_block_depth(Point(tuple(target)), mapped, d=2, k_max=1)
    assert rec.block_counts == rec2.block_counts


def test_u_statistic_lln_against_lambda_hat():
    m = uniform_model(0.0, 1.0)
    a = Point((0.5, 0.5))
    lam, lam_se = simplicial_depth_mc(
        [0.5, 0.5], iid_block_sampler(uniform_law(0.0, 1.0), 2),
        10 ** 5, seed=9)
    ratios = []
    for i in range(30):
        s = sample(m, 20, 2, seed=9000 + i)
        ratios.append(empirical_block_depth(a, s, d=2, k_max=1).depth)
    mean_ratio = float(np.mean(ratios))
    se = math.sqrt(np.var(ratios, ddof=1) / len(ratios) + lam_se ** 2)
    assert mean_ratio == pytest.approx(lam, abs=3.0 * se)


def test_budget_guard_and_subset_mc():
    s = sample(uniform_model(0.0, 1.0), 120, 2, seed=10)
    with pytest.raises(BudgetExceededError):
        empirical_block_depth(Point((0.5, 0.5)), s, d=2, k_max=1, budget=1000)
    exact = empirical_block_depth(Point((0.5, 0.5)), s, d=2, k_max=1)
    est, se = u_statistic_depth_mc(Point((0.5, 0.5)), s, d=2, k=1,
                                   subsets=4000, seed=11)
    assert est == pytest.approx(exact.depth, abs=3.0 * se)


@pytest.mark.parametrize("count", [
    lambda a, s, d, k: empirical_block_depth(a, s, d=d, k_max=k),
    lambda a, s, d, k: u_statistic_depth_mc(a, s, d=d, k=k, subsets=10,
                                            seed=2),
], ids=["exact", "mc"])
@pytest.mark.parametrize("n, d, k", [(6, 2, 2),   # block 2 needs 4 columns
                                     (2, 2, 1),   # n < d+1
                                     (6, 0, 1), (6, 2, 0)],
                         ids=["width", "rows", "d-0", "k-0"])
def test_u_statistic_width_errors(count, n, d, k):
    s = sample(uniform_model(0.0, 1.0), n, 2, seed=12 if n == 6 else 13)
    with pytest.raises(ValueError):
        count(Point((0.5, 0.5)), s, d, k)


# -- block-projection depth ---------------------------------------------------

def test_block_depth_k1_reduces_to_u_statistic():
    s = sample(uniform_model(0.0, 1.0), 8, 2, seed=14)
    a = Point((0.3, 0.3))
    rec = empirical_block_depth(a, s, d=2, k_max=1)
    counts, _ = _oracle_counts(a, s, d=2, k_max=1)
    assert rec.block_counts == counts
    assert rec.depth == counts[0] / n_subsets(8, 2)


def test_block_depth_periodic_blocks():
    a = Point.periodic([0.4, 0.7], repeats=3)
    s = sample(uniform_model(0.0, 1.0), 6, 6, seed=15)
    rec = empirical_block_depth(a, s, d=2, k_max=3)
    assert rec.depth == min(rec.block_counts) / rec.n_subsets
    # the subsampled estimate reads block 3, columns 5-6, at (0.4, 0.7)
    est, se = u_statistic_depth_mc(a, s, d=2, k=3, subsets=4000, seed=16)
    assert est == pytest.approx(rec.block_counts[2] / rec.n_subsets,
                                abs=3.0 * se)
    with pytest.raises(ValueError):
        empirical_block_depth(a, s, d=2, k_max=4)


def test_block_counts_iid_across_blocks():
    # for a periodic point the per-block counts are iid over k: compare
    # two blocks' empirical distributions across seeds
    m = uniform_model(0.0, 1.0)
    a = Point.periodic([0.5, 0.5], repeats=2)
    z1, z2 = [], []
    for i in range(80):
        s = sample(m, 6, 4, seed=16000 + i)
        rec = empirical_block_depth(a, s, d=2, k_max=2)
        z1.append(rec.block_counts[0])
        z2.append(rec.block_counts[1])
    stat = stats.ks_2samp(z1, z2)
    assert stat.pvalue > 1e-3


def _oracle_counts(a, s, d, k_max, exact=True):
    """Per-block hit and degenerate counts, one subset at a time: rational
    arithmetic for d <= 3 (unless ``exact`` is false), else the
    barycentric solve."""
    counts, degens = [], []
    for k in range(1, k_max + 1):
        block = s.data[:, (k - 1) * d:k * d]
        target = np.array([a.value_at((k - 1) * d + i)
                           for i in range(1, d + 1)])
        hits = degenerate = 0
        for combo in itertools.combinations(range(s.n), d + 1):
            verts = block[list(combo)]
            if exact and d <= 3:
                inside, degen = _exact_hull(target, verts)
            else:
                inside, degen = (bool(m[0]) for m in
                                 _barycentric_mask(target, verts[None]))
            hits += inside
            degenerate += degen
        counts.append(hits)
        degens.append(degenerate)
    return tuple(counts), tuple(degens)


K_MAX = 3
# a periodic point (one target for every block), a tail point (a target
# per block) and a Rademacher sample (degenerate vertex sets)
ORACLE_CASES = {
    "periodic": (uniform_model(0.0, 1.0),
                 Point.periodic([0.5, 0.4, 0.6], repeats=K_MAX)),
    "inverse-k": (gaussian_model(), Point.inverse_k(0.5)),
    "rademacher": (rademacher_model(), Point.inverse_k(0.5)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", ["d+1", 6, 9])
def test_block_counts_match_subset_oracle(case, d, n):
    n = d + 1 if n == "d+1" else n
    model, a = ORACLE_CASES[case]
    s = sample(model, n, K_MAX * d, seed=100 * d + n)
    counts, degens = _oracle_counts(a, s, d, K_MAX)
    rec = empirical_block_depth(a, s, d=d, k_max=K_MAX)
    assert rec.block_counts == counts
    assert rec.degenerate_counts == degens
    if case == "rademacher" and n == 9:
        assert sum(degens) > 0


@pytest.mark.parametrize("case", ["rademacher", "repeated-rows"])
def test_degenerate_counts_match_barycentric(case):
    # atoms and repeated rows make collinear and coincident vertex sets;
    # the sign test must flag exactly those the barycentric test flags
    # (hits are checked exactly: targets on edges are outside)
    d, k_max = 2, 3
    if case == "rademacher":
        s = sample(rademacher_model(), 8, k_max * d, seed=71)
    else:
        base = sample(uniform_model(0.0, 1.0), 4, k_max * d, seed=72).data
        s = Sample(base[[0, 1, 1, 2, 3, 3, 3, 0]], seed=0)
    a = Point.periodic([0.0, 0.0] if case == "rademacher" else [0.5, 0.5],
                       repeats=k_max)
    counts, degens = _oracle_counts(a, s, d, k_max)
    assert _oracle_counts(a, s, d, k_max, exact=False)[1] == degens
    rec = empirical_block_depth(a, s, d=d, k_max=k_max)
    assert (rec.block_counts, rec.degenerate_counts) == (counts, degens)
    assert min(degens) > 0


@pytest.mark.parametrize("d, n, k_max", [(1, 9, 7), (2, 9, 1), (2, 6, 4),
                                         (3, 7, 2), (4, 7, 2)])
def test_block_counts_independent_of_chunk_size(monkeypatch, d, n, k_max):
    a = Point.inverse_k(0.5)
    cases = [(m, sample(m, n, k_max * d, seed=31 + d))
             for m in (gaussian_model(), rademacher_model())]
    default = [empirical_block_depth(a, s, d, k_max) for _, s in cases]
    mc = u_statistic_depth_mc(a, cases[0][1], d, k=1, subsets=10, seed=5)
    monkeypatch.setattr(simplicial, "HULL_CHUNK", 3)
    for (_, s), rec in zip(cases, default):
        small = empirical_block_depth(a, s, d, k_max)
        assert small.block_counts == rec.block_counts
        assert small.degenerate_counts == rec.degenerate_counts
    assert sum(sum(rec.degenerate_counts) for rec in default) > 0
    assert u_statistic_depth_mc(a, cases[0][1], d, k=1, subsets=10,
                                seed=5) == mc



@pytest.mark.parametrize("d", [1, 2])
def test_block_counts_do_not_depend_on_batch_neighbours(monkeypatch, d):
    # the degeneracy cap is taken per batch; block 3 holds 1e200-scale
    # coordinates (d = 2: its first ones, so that every determinant stays
    # finite), and it shares a batch with every block at HULL_CHUNK 8 and
    # 2^14 but only with blocks 1-4 at 4: no block's counts may move
    n, k_max = 6, 8
    data = sample(uniform_model(0.0, 1.0), n, k_max * d, seed=73).data.copy()
    data[:, 2 * d] *= 1e200
    s = Sample(data, seed=73)
    a = Point.periodic([0.5] * d, repeats=k_max)
    counts, degens = _oracle_counts(a, s, d, k_max)
    assert degens[2] == n_subsets(n, d) and sum(degens) == degens[2]
    assert counts[2] == 0 and sum(counts) > 0
    for chunk in (4, 8, 1 << 14):
        monkeypatch.setattr(simplicial, "HULL_CHUNK", chunk)
        with np.errstate(over="ignore"):
            rec = empirical_block_depth(a, s, d, k_max)
        assert (rec.block_counts, rec.degenerate_counts) == (counts, degens)

LAWS = {"uniform": (uniform_law(0.0, 1.0), uniform_model(0.0, 1.0), 0.5),
        "gaussian": (gaussian_law(), gaussian_model(), 0.2),
        "stable1.5": (stable_law(1.5), stable_model(1.5), 0.3)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("law", list(LAWS))
def test_simplicial_mc_independent_of_chunk_size(monkeypatch, law, d):
    # a call for m draws returns the next m of one stream (the stable law
    # reads two words per draw), so the batch size moves no bit: two
    # batches at the default bound against one simplex per batch
    marginal, _, x = LAWS[law]
    sampler = iid_block_sampler(marginal, d)
    draws = simplicial._value_sets(d) + 5
    default = simplicial_depth_mc([x] * d, sampler, draws, seed=61)
    monkeypatch.setattr(simplicial, "VALUE_CHUNK", 3)
    assert simplicial_depth_mc([x] * d, sampler, draws, seed=61) == default
    assert 0.0 < default[0] < 1.0


def _same_result(x, y) -> bool:
    """Two experiment results equal field by field, arrays in dtype and
    value."""
    for field in dataclasses.fields(x):
        u, v = getattr(x, field.name), getattr(y, field.name)
        if isinstance(u, np.ndarray):
            if u.dtype != v.dtype or not np.array_equal(u, v):
                return False
        elif u != v:
            return False
    return True


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("law", list(LAWS))
def test_block_experiment_independent_of_chunk_size(monkeypatch, law, d):
    _, model, x = LAWS[law]
    a = Point.periodic([x] * d, repeats=2)

    def run():
        return block_depth_experiment(model, a, n=5, d=d, k_max=2, seeds=3,
                                      master_seed=62, mc_draws=1000)

    default = run()
    monkeypatch.setattr(simplicial, "HULL_CHUNK", 3)
    monkeypatch.setattr(simplicial, "VALUE_CHUNK", 3)
    assert _same_result(run(), default)  # lambda_hat and its stderr included
    assert 0.0 < default.lambda_hat < 1.0


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplicial_mc_working_set_is_bounded(d):
    # numpy's buffers are traced: one batch of VALUE_CHUNK values (the
    # sampler's words, their plane copy and the kernel's temporaries), not
    # the run, sets the peak, so doubling the draws moves it by less than
    # one batch's array
    sampler = iid_block_sampler(uniform_law(0.0, 1.0), d)
    simplicial_depth_mc([0.5] * d, sampler, 1000, seed=63)
    peaks = [_traced_peak(lambda: simplicial_depth_mc([0.5] * d, sampler,
                                                      draws, seed=63))
             for draws in (2 * 10 ** 5, 4 * 10 ** 5)]
    batch = 8 * simplicial.VALUE_CHUNK
    assert peaks[0] < 8 * batch  # 1.5 MiB
    assert abs(peaks[1] - peaks[0]) < batch


def test_block_counts_working_set_is_bounded():
    # 67 rows and 200 blocks of dimension 2: about 10^7 hull tests, the
    # default subset budget
    s = sample(uniform_model(0.0, 1.0), 67, 400, seed=64)
    a = Point.periodic([0.5, 0.5], repeats=200)
    assert n_subsets(67, 2) * 200 <= simplicial.DEFAULT_BUDGET
    peak = _traced_peak(lambda: empirical_block_depth(a, s, 2, 200))
    assert peak < 16 * 2 ** 20


def test_block_counts_pinned():
    # 200 blocks of 30 rows at d = 2, the few-block batch shape (81
    # subsets by 200 blocks a batch): the counts the plane layout must
    # not move
    s = sample(uniform_model(0.0, 1.0), 30, 400, seed=5)
    rec = empirical_block_depth(Point.periodic([0.5, 0.5], repeats=200), s,
                                2, 200)
    digest = hashlib.sha256(json.dumps(
        [rec.block_counts, rec.degenerate_counts]).encode()).hexdigest()
    assert digest == (
        "c0fe60c67b1338d5d8bb95cba95cef82e6655376c49465e4078d201e274010b4")
    assert (min(rec.block_counts), max(rec.block_counts)) == (742, 1118)


def test_block_depth_argument_errors():
    s = sample(uniform_model(0.0, 1.0), 2, 4, seed=19)
    with pytest.raises(ValueError):
        empirical_block_depth(Point.zero(), s, d=2, k_max=1)  # n < d + 1
    with pytest.raises(ValueError):
        empirical_block_depth(Point.zero(), s, d=1, k_max=0)
    with pytest.raises(ValueError):
        empirical_block_depth(Point.zero(), s, d=0, k_max=1)


# -- the consistency-failure experiment ----------------------------------------------

def test_block_depth_experiment_small():
    res = block_depth_experiment(uniform_model(0.0, 1.0),
                           Point.periodic([0.5, 0.5], repeats=50),
                           n=4, d=2, k_max=50, seeds=40, master_seed=17,
                           mc_draws=50_000)
    # per-block zero probability is at least 2 * (1/2)^4 = 1/8
    floor = 1.0 - (1.0 - 0.125) ** 50
    assert res.fraction_zero >= floor - 3.0 * res.fraction_zero_stderr
    assert res.lambda_hat == pytest.approx(0.25, abs=3.0 * res.lambda_stderr)
    assert res.gap == res.lambda_hat


def test_block_experiment_point_outside_support():
    res = block_depth_experiment(uniform_model(0.0, 1.0),
                           Point.periodic([5.0, 5.0], repeats=10),
                           n=4, d=2, k_max=10, seeds=10, master_seed=18,
                           mc_draws=20_000)
    assert res.lambda_hat == 0.0
    assert res.fraction_zero == 1.0
    assert res.gap == 0.0


def test_block_experiment_requires_a_periodic_point():
    # block 2 of [0.5, 0.5, 5, 5] x 3 lies outside the support: the true
    # depth is 0, not lambda of block 1
    model = uniform_model(0.0, 1.0)
    a = Point((0.5, 0.5, 5.0, 5.0) * 3)
    with pytest.raises(ValueError, match="block 2 of 6 differs"):
        simplicial.periodic_block_target(a, d=2, k_max=6)
    with pytest.raises(ValueError, match="periodic"):
        block_depth_experiment(model, a, n=4, d=2, k_max=6, seeds=2,
                               master_seed=1, mc_draws=1_000)
    # the first block alone, and a constant tail, are periodic
    assert simplicial.periodic_block_target(a, d=2, k_max=1).tolist() == [
        0.5, 0.5]
    ones = Point((), tail=PowerTail(1.0, 0.0))
    assert simplicial.periodic_block_target(ones, d=3, k_max=4).tolist() == [
        1.0, 1.0, 1.0]


def test_block_experiment_records_degenerate_counts():
    # near 10^6 the pivot tolerance marks close pairs degenerate, so the
    # rows carry nonzero counts
    model = uniform_model(1e6, 1e6 + 2.0)
    a = Point.periodic([1e6 + 1.0], repeats=4)
    res = block_depth_experiment(model, a, n=5, d=1, k_max=4, seeds=3,
                                 master_seed=20, mc_draws=2_000)
    for seed, counts, degens in zip(res.seeds.tolist(),
                                    res.block_counts.tolist(),
                                    res.degenerate_counts.tolist()):
        rec = empirical_block_depth(a, sample(model, 5, 4, seed), d=1,
                                    k_max=4)
        assert tuple(degens) == rec.degenerate_counts
        assert tuple(counts) == rec.block_counts
    assert res.degenerate_counts.sum() > 0


def test_block_experiment_requires_continuous_iid():
    # an atomic marginal, and Gaussian scales k^-1/4 whose law at the first
    # tail index alone would read as iid
    for model in (rademacher_model(),
                  gaussian_model(tail=PowerTail(1.0, -0.25))):
        with pytest.raises(ValueError):
            block_depth_experiment(model, Point.zero(), n=4, d=2, k_max=5,
                                   seeds=2, master_seed=1)


@pytest.mark.parametrize("run", [
    lambda: zero_depth_experiment(gaussian_model(), Point.zero(), n=2, K=3,
                                  seeds=0),
    lambda: block_depth_experiment(uniform_model(0.0, 1.0),
                                   Point.periodic([0.5, 0.5], repeats=2),
                                   n=4, d=2, k_max=2, seeds=0),
    lambda: u_statistic_depth_mc(Point((0.5, 0.5)),
                                 sample(uniform_model(0.0, 1.0), 4, 2, seed=1),
                                 d=2, k=1, subsets=0, seed=2),
    lambda: u_statistic_depth_mc(Point((0.5, 0.5)),
                                 sample(uniform_model(0.0, 1.0), 4, 2, seed=1),
                                 d=2, k=1, subsets=-3, seed=2),
], ids=["zero_depth_seeds", "block_seeds", "ustat_subsets", "ustat_negative"])
def test_counts_below_one_are_rejected(run):
    with pytest.raises(ValueError, match="must be >= 1"):
        run()


def test_experiment_input_checks_raise_input_error():
    # the CLI maps this one class to a configuration error, exit code 2
    from depthlab.errors import InputError
    uniform = uniform_model(0.0, 1.0)
    with pytest.raises(InputError, match="iid"):
        simplicial.require_iid_continuous(
            gaussian_model(tail=PowerTail(1.0, -0.25)))
    with pytest.raises(InputError, match="continuous"):
        simplicial.require_iid_continuous(rademacher_model())
    with pytest.raises(InputError, match="periodic"):
        simplicial.periodic_block_target(Point((0.5, 1.0)), d=1, k_max=2)
    with pytest.raises(InputError, match="d[+]1=3"):
        block_depth_experiment(uniform, Point.zero(), n=2, d=2, k_max=1,
                               seeds=1)
    with pytest.raises(InputError, match="sample width"):
        empirical_block_depth(Point.zero(), sample(uniform, 4, 3, seed=1),
                              d=2, k_max=2)


def test_n_subsets_formula():
    assert n_subsets(4, 2) == 4
    assert n_subsets(60, 2) == math.comb(60, 3)


@pytest.mark.parametrize("chunk", [None, 1, 6 * 6 * 7],
                         ids=["default", "one-seed", "seven-seeds"])
def test_block_experiment_records_match_per_seed_recompute(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(models, "DRAW_CHUNK", chunk)
    model = uniform_model(0.0, 1.0)
    a = Point.periodic([0.5, 0.4], repeats=3)
    res = block_depth_experiment(model, a, n=6, d=2, k_max=3, seeds=12,
                                 master_seed=41, mc_draws=2_000)
    seeds = _derive_seed(41, RECORD_SEEDS, 12)
    assert res.seeds.dtype == np.uint64
    assert res.seeds.tolist() == seeds.tolist()
    assert res.block_counts.dtype == res.degenerate_counts.dtype == np.int64
    assert res.block_counts.shape == res.degenerate_counts.shape == (12, 3)
    depths = res.block_counts.min(axis=1) / res.n_subsets
    for seed, counts, degens, depth in zip(
            res.seeds.tolist(), res.block_counts.tolist(),
            res.degenerate_counts.tolist(), depths.tolist()):
        rec = empirical_block_depth(a, sample(model, 6, 6, seed), d=2,
                                    k_max=3)
        assert tuple(counts) == rec.block_counts
        assert tuple(degens) == rec.degenerate_counts
        assert (depth, res.n_subsets) == (rec.depth, rec.n_subsets)
    assert 0 < np.count_nonzero(depths == 0.0) < 12


def test_block_experiment_records_independent_of_seed_count():
    model = uniform_model(0.0, 1.0)
    a = Point.periodic([0.5, 0.4], repeats=3)

    def run(seeds):
        return block_depth_experiment(model, a, n=6, d=2, k_max=3,
                                      seeds=seeds, master_seed=43,
                                      mc_draws=2_000)

    res20, res40 = run(20), run(40)
    for name in ("seeds", "block_counts", "degenerate_counts"):
        assert np.array_equal(getattr(res20, name), getattr(res40, name)[:20])
    assert (res20.n_subsets, res20.lambda_hat) == (res40.n_subsets,
                                                  res40.lambda_hat)
