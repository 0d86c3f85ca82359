"""Reference routes that the tests hold the library to.

No command or suite calls these, so they live with the tests: the series
of 1 and of z, rotation and dilation of a series (the route that
``univalent.from_quotient`` is held to), series division, exp,
composition and compositional reversion, one entry of the Legendre
recurrence, the kernel coefficients one row at a time on the fixed-point
transition series, one column of them exactly from de Branges' closed
form in integers, and the Herglotz coefficients from the Loewner PDE
(the route that ``KoebeChain.herglotz_coeffs`` is held to).
``coeffs_close`` compares two series.
"""

import math
from fractions import Fraction

import numpy as np

from schlicht import _kernels
from schlicht import legendre as lg
from schlicht import loewner as lw
from schlicht import series as ps
from schlicht import univalent as uv
from schlicht import weinstein as ws
from schlicht.errors import BranchPointAtOrigin, ParamOutOfRange, SchlichtError
from schlicht.series import PowerSeries


class DivisionByNonUnit(SchlichtError):
    pass


class InnerNotVanishing(SchlichtError):
    pass


class NotInvertibleAtOrigin(SchlichtError):
    pass


def coeffs_close(a, b, tol=1e-12):
    """Whether two series of one order agree to tol in every coefficient."""
    assert a.order == b.order
    return float(np.max(np.abs(a.coeffs - b.coeffs))) <= tol


def one(order):
    """The series of 1."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    return PowerSeries(c)


def identity(order):
    """The series of z itself."""
    c = np.zeros(order + 1, dtype=complex)
    c[1] = 1.0
    return PowerSeries(c)


def rotation(f, theta):
    """e^{-i theta} f(e^{i theta} z): multiplies a_n by e^{i(n-1) theta}."""
    n = np.arange(f.order + 1)
    phase = np.exp(1j * theta * (n - 1))
    c = f.coeffs * phase
    c[0] = 0.0
    return uv.ClassSFunction(PowerSeries(c))


def dilation(f, r):
    """f(rz)/r: multiplies a_n by r^{n-1}."""
    if not 0 < r < 1:
        raise ParamOutOfRange(f"dilation needs 0 < r < 1, got {r}")
    n = np.arange(f.order + 1)
    c = f.coeffs * r ** (n - 1.0)
    c[0] = 0.0
    return uv.ClassSFunction(PowerSeries(c))


def div(a, b):
    """Quotient d with d * b == a up to the shared order."""
    a._check(b)
    if abs(b[0]) < ps._EPS_UNIT:
        raise DivisionByNonUnit(f"|b0| = {abs(b[0]):.3e} below threshold {ps._EPS_UNIT:.1e}")
    return PowerSeries(_kernels.cauchy_div(a.coeffs, b.coeffs))


def exp(a):
    """exp of a series with a.c0 = 0.

    Uses the first-order recurrence n b_n = sum_{k<n} (n-k) a_{n-k} b_k,
    which is the differential identity (e^a)' = a' e^a in coefficients.
    """
    if abs(a[0]) > ps._EPS_UNIT:
        raise BranchPointAtOrigin("exp needs vanishing constant term")
    n = a.order
    c = a.coeffs
    b = np.zeros(n + 1, dtype=complex)
    b[0] = 1.0
    wa = np.arange(n + 1) * c  # k a_k
    for m in range(1, n + 1):
        b[m] = np.dot(wa[1 : m + 1][::-1], b[:m]) / m
    return PowerSeries(b)


def compose(outer, inner):
    """outer(inner(z)) truncated at the shared order; inner.c0 must be 0."""
    outer._check(inner)
    if abs(inner[0]) > ps._EPS_UNIT:
        raise InnerNotVanishing(f"inner constant term {inner[0]} != 0")
    ic = inner.coeffs
    if ic[0] != 0:
        ic = ic.copy()
        ic[0] = 0.0
    return PowerSeries(_kernels.compose(outer.coeffs, ic))


def revert(a):
    """Compositional inverse b with compose(a, b) == z.

    Triangular solve: with b known below degree n, the degree-n defect of
    compose(a, b) is linear in b_n with factor a_1.
    """
    if abs(a[0]) > ps._EPS_UNIT or abs(a[1]) < ps._EPS_UNIT:
        raise NotInvertibleAtOrigin("need c0 = 0 and c1 != 0")
    n = a.order
    b = np.zeros(n + 1, dtype=complex)
    b[1] = 1.0 / a[1]
    for m in range(2, n + 1):
        c = _kernels.compose(a.coeffs[: m + 1], b[: m + 1])
        b[m] = -c[m] / a[1]
    return PowerSeries(b)


def last_column(n, x, k):
    """S_n^k(x) from the recurrence run to degree n and order k only."""
    for row in lg._seminormalized_rows(n, x, k):
        pass
    return row[..., k]


def lambda_series(t, k, N):
    """Coefficients of z^1..z^{N+1} in e^t w^{k+1}/(1 - w^2), reindexed 0..N.

    The reference for weinstein.lambda_rows, one k at a time on the
    fixed-point transition series.  Real by construction; the imaginary
    residue is checked below 1e-12.  It divides by 1 - w^2, which loses
    about two digits near t = 0.
    """
    if k > N:
        return np.zeros(N + 1)
    order = N + 1
    w = lw.koebe_transition_series(t, order)
    num = math.exp(t) * _power(w, k + 1)
    den = PowerSeries(one(order).coeffs - (w * w).coeffs)
    S = div(num, den)
    return ws._real(S.coeffs[1:])


def lambda_exact(s, n):
    """Column n of the kernel table, L[0..n][n], exactly at the dyadic s = e^{-t}.

    de Branges' closed form, L[k][n] = sum_j (-1)^j (2k+j+1)_j
    (2k+2j+2)_{n-k-j} / (j! (n-k-j)!) s^{k+j}, with both ratios binomials:
    with m = k + j, L[k][n] = sum_{m=k}^n (-1)^{m-k} C(2m, m-k)
    C(n+m+1, n-m) s^m.  s is a Fraction of a float, p/2^e, so every term is
    an integer over 2^{en}; returns Fractions.
    """
    p, e = s.numerator, s.denominator.bit_length() - 1
    if s.denominator != 1 << e:
        raise ValueError("s must be a dyadic rational, a float taken exactly")
    scaled = [math.comb(n + m + 1, n - m) * p**m << e * (n - m) for m in range(n + 1)]
    out = []
    for k in range(n + 1):
        acc = 0
        for m in range(k, n + 1):
            term = math.comb(2 * m, m - k) * scaled[m]
            acc += -term if (m - k) & 1 else term
        out.append(Fraction(acc, 1 << e * n))
    return out


def herglotz_coeffs(chain, t, order):
    """Taylor coefficients p_0..p_order of p = (df/dt)/(z df/dz) at time t.

    The Loewner PDE df/dt = z f' p read as one series division.  Every
    KoebeChain is e^t f_0, so df/dt is the chain series itself.  The
    divisor's coefficients grow like m^2 at rho = 1, and so does the error
    of the quotient.
    """
    m = np.arange(order + 2)
    f = chain.series_at(t, order + 1).coeffs
    return div(PowerSeries(f[1:]), PowerSeries((f * m)[1:])).coeffs


def _power(w, m):
    out = one(w.order)
    base = w
    while m:
        if m & 1:
            out = out * base
        base = base * base
        m >>= 1
    return out
