"""One adaptive 21-point Gauss-Kronrod rule for every depthlab quadrature.

The rule is QUADPACK's (Piessens et al. 1983), driven on arrays: each pass
evaluates the integrand once, on the 21 nodes of every live panel at once,
so an integrand with several components (one per shift, say) is integrated
for all of them together.  It replaces scipy's ``quad``, whose Python
callback per node costs more than the arithmetic, and keeps scipy's
integration and optimization modules, which take about a third of a
second to import, out of the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError

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
# relative tolerance on the largest component, shared by every caller
_EPSREL = 1e-12


def gauss_kronrod(f, lo: float, hi: float, *, epsabs: float = 1e-12,
                  gate: float = 1e-8, points=(), what: str):
    """(integral of f over [lo, hi], summed error estimate).

    ``f`` maps an array x of nodes, shape (panels, 21), to values of shape
    (panels, 21) + S, and the integral has shape S.  A finite interval is
    tiled as it is, first split at the sorted interior ``points``; an
    infinite end is read through the signed t = 1/(1 + |u|), with x = lo + u
    or hi - u on a half line and x = u on the whole line, split at 0, so
    panels always tile a finite t-interval.

    A panel's error is the largest |Kronrod - Gauss| over S; a panel within
    its width's share of tol = max(epsabs, 1e-12 * max|I|) is settled, the
    others are bisected, and all settle once the errors sum to tol.  Past
    ``MAX_PANELS`` panels, or on a non-finite value, the rule stops; unless
    the summed error is at most gate * max(1, max|I|) and every value is
    finite it raises ``QuadratureError`` with the partial values.
    """
    finite = math.isfinite(lo) and math.isfinite(hi)
    if finite:
        edges = [lo, *points, hi]
    elif math.isfinite(lo) or math.isfinite(hi):
        edges = [0.0, 1.0]
    else:
        edges = [-1.0, 0.0, 1.0]
    left = np.array(edges[:-1], dtype=float)
    width = np.diff(edges)
    span = edges[-1] - edges[0]
    total, total_err, settled = 0.0, 0.0, 0
    while True:
        h = 0.5 * width[:, None]
        t = (left[:, None] + h) + h * _GK21_NODES
        if finite:
            x, scale = t, h
        else:
            # under the panel cap no node comes near t = 0, where 1/t^2
            # would overflow
            u, scale = (1.0 - np.abs(t)) / t, h / (t * t)
            x = (u if math.isinf(lo) and math.isinf(hi)
                 else lo + u if math.isfinite(lo) else hi - u)
        fx = np.asarray(f(x), dtype=float)
        shape = fx.shape[2:]
        # Kronrod and Gauss sums, shape (panels, 2, values)
        sums = _GK21_WEIGHTS @ (fx.reshape(len(left), 21, -1)
                                * scale[..., None])
        kron = sums[:, 0]
        err = np.abs(kron - sums[:, 1]).max(axis=1)
        err_sum = float(err.sum())
        estimate = np.abs(total + kron.sum(axis=0)).max()
        tol = max(epsabs, _EPSREL * float(estimate))
        done = (err <= tol * width / span) | (total_err + err_sum <= tol)
        if done.all():
            total, total_err = total + kron.sum(axis=0), total_err + err_sum
            break
        total = total + kron[done].sum(axis=0)
        total_err += float(err[done].sum())
        settled += int(done.sum())
        live = ~done
        left, width = left[live], width[live]
        if (settled + 2 * left.size > MAX_PANELS
                or not math.isfinite(err_sum)):
            # panels still live when the rule stops count with their
            # estimates
            total = total + kron[live].sum(axis=0)
            total_err += float(err[live].sum())
            break
        width = 0.5 * width
        left = np.concatenate([left, left + width])
        width = np.concatenate([width, width])
    total = total.reshape(shape)
    if not (np.isfinite(total).all() and total_err
            <= gate * max(1.0, float(np.abs(total).max()))):
        raise QuadratureError(
            f"{what} quadrature did not converge (err {total_err:.2e})",
            partial=total)
    return total, total_err
