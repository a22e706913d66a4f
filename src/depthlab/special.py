"""Elementary and special functions whose bits do not depend on the CPU.

numpy chooses the SIMD kernel of ``np.log``, ``np.exp``, ``np.sin`` and
their kin at run time, by CPU, and the kernels disagree in the last bit.
The array functions here are built only from operations that IEEE 754
rounds correctly on every machine (+, -, *, /, sqrt) and exact ones
(``frexp``/``ldexp``, floor, sign, compares, selection), applied in a fixed
order, one numpy ufunc call per operation; numpy never fuses two calls into
a multiply-add.  So an input gives the same bits on every machine.  They
carry the transforms of the sampling stream (``models._transform``).

- ``log``, ``exp``, ``sin``, ``cos``: ports of fdlibm (Sun Microsystems
  1993), in the branch-free forms of FreeBSD's msun and musl, each within
  one ulp.
- ``ndtri``: the inverse normal CDF, Wichura (1988), "The percentage
  points of the normal distribution", *Applied Statistics* 37, AS 241
  (PPND16), over the ``log`` above.
- ``ndtr``: the normal CDF, Cephes' split of ``math.erf``/``math.erfc``.
- ``zeta``: the Hurwitz zeta function, Cephes' Euler-Maclaurin recurrence
  in its order of operations, over the C library's ``pow``.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# log (fdlibm e_log.c, as musl reduces it): x = 2^k (1 + f) with 1 + f in
# [sqrt(2)/2, sqrt(2)), s = f / (2 + f), log(1 + f) = f - f^2/2 + s (f^2/2
# + R(s^2)); domain: positive finite floats
# ---------------------------------------------------------------------------

_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LG1, _LG2 = 6.666666666666735130e-01, 3.999999999940941908e-01
_LG3, _LG4 = 2.857142874366239149e-01, 2.222219843214978396e-01
_LG5, _LG6 = 1.818357216161805012e-01, 1.531383769920937332e-01
_LG7 = 1.479819860511658591e-01
_SQRT_HALF = 7.07106781186547524401e-01


def log(x) -> np.ndarray:
    """Natural logarithm of each entry of ``x`` (positive and finite).

    s (f^2/2 + R) + k ln2_lo - f^2/2 + f + k ln2_hi, left to right, with R =
    t2 + t1 as fdlibm splits the polynomial in z = s^2; the steps run in
    place, in that order."""
    x = np.asarray(x, dtype=float)
    m, e = np.frexp(x.reshape(-1))
    low = m < _SQRT_HALF
    f = low + 1.0
    f *= m
    f -= 1.0  # exact: 2m or m, less 1
    k = (e - low).astype(float)
    s = f + 2.0
    np.divide(f, s, out=s)
    z = s * s
    w = z * z
    t1 = w * _LG6
    t1 += _LG4
    t1 *= w
    t1 += _LG2
    t1 *= w
    t2 = w * _LG7
    for c in (_LG5, _LG3):
        t2 += c
        t2 *= w
    t2 += _LG1
    t2 *= z
    t2 += t1
    hfsq = 0.5 * f
    hfsq *= f
    t2 += hfsq
    t2 *= s
    t2 += np.multiply(k, _LN2_LO, out=t1)
    t2 -= hfsq
    t2 += f
    t2 += np.multiply(k, _LN2_HI, out=k)
    return t2.reshape(x.shape)


# ---------------------------------------------------------------------------
# exp (fdlibm e_exp.c): x = k ln2 + r with |r| <= ln2/2 in two parts, then a
# Remez rational for exp(r), scaled by 2^k; domain: finite floats
# ---------------------------------------------------------------------------

_INV_LN2 = 1.44269504088896338700e+00
_P1, _P2 = 1.66666666666666019037e-01, -2.77777777770155933842e-03
_P3, _P4 = 6.61375632143793436117e-05, -1.65339022054652515390e-06
_P5 = 4.13813679705723846039e-08
# beyond these exp(x) rounds to 0 or overflows; clipping keeps k * ln2_hi
# exact
_EXP_LO, _EXP_HI = -746.0, 710.0


def exp(x) -> np.ndarray:
    """e to the power of each entry of ``x`` (finite)."""
    x = np.clip(np.asarray(x, dtype=float), _EXP_LO, _EXP_HI)
    k = np.floor(x * _INV_LN2 + 0.5)
    hi = x - k * _LN2_HI
    lo = k * _LN2_LO
    r = hi - lo
    t = r * r
    c = r - t * (_P1 + t * (_P2 + t * (_P3 + t * (_P4 + t * _P5))))
    y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(y, k.astype(np.int32))


# ---------------------------------------------------------------------------
# sin and cos (fdlibm e_rem_pio2.c's medium reduction, k_sin.c, k_cos.c):
# |x| = n pi/2 + (y0 + y1), |y0| <= pi/4, from pi/2 in 33 + 33 + 33 + 53
# bits; domain: |x| < 2^19 pi/2
# ---------------------------------------------------------------------------

_INV_PIO2 = 6.36619772367581382433e-01
_PIO2_1, _PIO2_1T = 1.57079632673412561417e+00, 6.07710050650619224932e-11
_PIO2_2, _PIO2_2T = 6.07710050630396597660e-11, 2.02226624879595063154e-21
_PIO2_3, _PIO2_3T = 2.02226624871116645580e-21, 8.47842766036889956997e-32
_S1, _S2 = -1.66666666666666324348e-01, 8.33333333332248946124e-03
_S3, _S4 = -1.98412698298579493134e-04, 2.75573137070700676789e-06
_S5, _S6 = -2.50507602534068634195e-08, 1.58969099521155010221e-10
_C1, _C2 = 4.16666666666666019037e-02, -1.38888888888741095749e-03
_C3, _C4 = 2.48015872894767294178e-05, -2.75573143513906633035e-07
_C5, _C6 = 2.08757232129817482790e-09, -1.13596475577881948265e-11
TRIG_LIMIT = 2.0 ** 19 * (math.pi / 2.0)


# sin |x| = s a + c b and cos |x| = c a - s b, for quadrant n mod 4 and
# (a, b) = _QUADRANT_A/B[n mod 4], from the kernels s and c at the reduced
# argument: products with 0 and +-1 and sums with 0 are exact
_QUADRANT_A, _QUADRANT_B = (np.array([1.0, 0.0, -1.0, 0.0]),
                            np.array([0.0, 1.0, 0.0, -1.0]))


def _quadrant_kernels(x):
    """(s, c, a, b) for each entry of ``x``: the fdlibm kernels at |x|
    reduced by pi/2, and the quadrant's factors."""
    t = np.abs(np.asarray(x, dtype=float))
    if t.size and not t.max() < TRIG_LIMIT:
        raise ValueError("sin and cos take |x| < 2^19 pi/2")
    n = np.floor(t * _INV_PIO2 + 0.5)
    # three rounds of Cody-Waite reduction, each exact in its product and
    # carrying its rounding error into the next
    r = t - n * _PIO2_1
    for part, tail in ((_PIO2_2, _PIO2_2T), (_PIO2_3, _PIO2_3T)):
        w = n * part
        rr = r - w
        w = n * tail - ((r - rr) - w)
        r = rr
    y0 = r - w
    y1 = (r - y0) - w
    z = y0 * y0
    v = z * y0
    w = z * z
    rs = _S2 + z * (_S3 + z * _S4) + z * w * (_S5 + z * _S6)
    s = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * _S1)
    rc = z * (_C1 + z * (_C2 + z * _C3)) + w * w * (_C4 + z * (_C5 + z * _C6))
    hz = 0.5 * z
    w = 1.0 - hz
    c = w + (((1.0 - w) - hz) + (z * rc - y0 * y1))
    quadrant = n.astype(np.intp) & 3
    return s, c, _QUADRANT_A.take(quadrant), _QUADRANT_B.take(quadrant)


def sin(x) -> np.ndarray:
    """Sine of each entry of ``x`` (|x| < ``TRIG_LIMIT``)."""
    s, c, a, b = _quadrant_kernels(x)
    return np.sign(x) * (s * a + c * b)


def cos(x) -> np.ndarray:
    """Cosine of each entry of ``x`` (|x| < ``TRIG_LIMIT``)."""
    s, c, a, b = _quadrant_kernels(x)
    return c * a - s * b


def tan(x) -> np.ndarray:
    """sin(x) / cos(x) for each entry of ``x`` (|x| < ``TRIG_LIMIT``)."""
    s, c, a, b = _quadrant_kernels(x)
    return np.sign(x) * (s * a + c * b) / (c * a - s * b)


# ---------------------------------------------------------------------------
# Inverse normal CDF: AS 241 (PPND16), relative accuracy about 1e-16
# ---------------------------------------------------------------------------

# AS 241's rationals, a row of numerator and a row of denominator
# coefficients each, constant term first: the central one in r = 0.180625 -
# q^2 for |q| = |p - 1/2| <= 0.425, the tail ones in r = sqrt(-log(min(p,
# 1 - p))) less 1.6 (r <= 5) or less 5.  As arrays they hand numpy float64
# scalars, which it applies without converting a Python float each call.
_CENTRAL = np.array([
    (3.3871328727963666080e0, 1.3314166789178437745e+2,
     1.9715909503065514427e+3, 1.3731693765509461125e+4,
     4.5921953931549871457e+4, 6.7265770927008700853e+4,
     3.3430575583588128105e+4, 2.5090809287301226727e+3),
    (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2,
     5.3941960214247511077e+3, 2.1213794301586595867e+4,
     3.9307895800092710610e+4, 2.8729085735721942674e+4,
     5.2264952788528545610e+3)])
_NEAR = np.array([
    (1.42343711074968357734e0, 4.63033784615654529590e0,
     5.76949722146069140550e0, 3.64784832476320460504e0,
     1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
     6.89767334985100004550e-1, 1.48103976427480074590e-1,
     1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9)])
_FAR = np.array([
    (6.65790464350110377720e0, 5.46378491116411436990e0,
     1.78482653991729133580e0, 2.96560571828504891230e-1,
     2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
     1.48753612908506148525e-2, 7.86869131145613259100e-4,
     1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15)])
_SPLIT1, _SPLIT2, _CONST1, _CONST2 = 0.425, 5.0, 0.180625, 1.6
# entries one pass of ``ndtri`` holds in each scratch buffer (128 KiB)
_CHUNK = 1 << 14


def _rational(coefs, r, num, den):
    """The AS 241 rational ``coefs`` at r: each polynomial by Horner's rule
    from the top coefficient, into ``num`` and ``den``; returns num / den
    in ``num``."""
    for coef, out in zip(coefs, (num, den)):
        np.multiply(r, coef[-1], out=out)
        for c in coef[-2:0:-1]:
            out += c
            out *= r
        out += coef[0]
    return np.divide(num, den, out=num)


def _tail(p, q):
    """AS 241 where |q| = |p - 1/2| > 0.425: the rational in sqrt(-log r),
    r = min(p, 1 - p), with q's sign."""
    r = log(np.minimum(p, 1.0 - p))
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    far = np.flatnonzero(r > _SPLIT2)
    x = r[far] - _SPLIT2
    val = _rational(_NEAR, np.subtract(r, _CONST2, out=r), np.empty_like(r),
                    np.empty_like(r))
    if far.size:
        val[far] = _rational(_FAR, x, np.empty_like(x), np.empty_like(x))
    return np.copysign(val, q, out=val)


def ndtri(p, out=None) -> np.ndarray:
    """The standard normal quantile of each entry of ``p`` (in (0, 1)).

    The central rational runs on every entry, ``_CHUNK`` entries at a time;
    the tail rational only on each chunk's gathered entries with
    |p - 1/2| > 0.425, about 15% of uniform draws.  ``out`` may be ``p``
    itself (then C-contiguous float64), and no entry of ``p`` is copied
    but the tail's.
    """
    p = np.ascontiguousarray(p, dtype=float)
    if out is None:
        out = np.empty(p.shape)
    if (out.shape != p.shape or out.dtype != np.float64
            or not out.flags.c_contiguous):
        raise ValueError("ndtri writes a C-contiguous float64 array of p's "
                         "shape")
    src, dst = p.reshape(-1), out.reshape(-1)
    size = min(_CHUNK, src.size)
    q, r, num, den = (np.empty(size) for _ in range(4))
    for lo in range(0, src.size, _CHUNK):
        pc = src[lo:lo + _CHUNK]
        m = len(pc)
        qc, rc = q[:m], r[:m]
        np.subtract(pc, 0.5, out=qc)
        tail = np.flatnonzero(np.abs(qc, out=rc) > _SPLIT1)
        p_tail, q_tail = pc[tail], qc[tail]  # read before dst overwrites p
        # q * (A(r) / B(r)), r = 0.180625 - q^2, as AS 241 groups it
        np.multiply(qc, qc, out=rc)
        np.subtract(_CONST1, rc, out=rc)
        np.multiply(qc, _rational(_CENTRAL, rc, num[:m], den[:m]),
                    out=dst[lo:lo + m])
        if tail.size:
            dst[lo + tail] = _tail(p_tail, q_tail)
    return out


# ---------------------------------------------------------------------------
# Scalar functions for the closed forms
# ---------------------------------------------------------------------------

def ndtr(a: float) -> float:
    """P(Z <= a) for a standard normal Z: 1/2 + erf(a/sqrt 2)/2 for |a| < 1,
    erfc(|a|/sqrt 2)/2 (or 1 less it) beyond, as Cephes' ``ndtr`` splits."""
    x = a * _SQRT_HALF
    z = abs(x)
    if z < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(z)
    return 1.0 - y if x > 0.0 else y


# Cephes zeta.c: (2k)! / B_2k for k = 1..12
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


def zeta(x: float, q: float) -> float:
    """The Hurwitz zeta function sum_{k >= 0} (k + q)^-x, for x > 1, q >= 1.

    Cephes' ``zeta``: the asymptotic form past q = 1e8, else the direct sum
    to at least nine terms and past k + q = 9, closed by the Euler-Maclaurin
    correction in Bernoulli numbers, each step as Cephes orders it.
    """
    if not (x > 1.0 and q >= 1.0):
        raise ValueError("zeta(x, q) needs x > 1 and q >= 1")
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q ** -x
    if s == 0.0:
        return s  # every later term underflows too, as in Cephes
    a, b, i = q, 0.0, 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s
