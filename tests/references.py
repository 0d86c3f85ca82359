"""Reference routes that the tests hold the library to.

No command or suite calls these, so they live with the tests: series exp,
composition and compositional reversion, and the kernel coefficients one
row at a time on the fixed-point transition series.  ``coeffs_close``
compares two series.
"""

import math

import numpy as np

from schlicht import _kernels
from schlicht import loewner as lw
from schlicht import series as ps
from schlicht import weinstein as ws
from schlicht.errors import BranchPointAtOrigin, SchlichtError
from schlicht.series import PowerSeries


class InnerNotVanishing(SchlichtError):
    pass


class NotInvertibleAtOrigin(SchlichtError):
    pass


def coeffs_close(a, b, tol=1e-12):
    """Whether two series of one order agree to tol in every coefficient."""
    assert a.order == b.order
    return float(np.max(np.abs(a.coeffs - b.coeffs))) <= tol


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
    den = PowerSeries(PowerSeries.one(order).coeffs - (w * w).coeffs)
    S = ps.div(num, den)
    return ws._real(S.coeffs[1:])


def _power(w, m):
    out = PowerSeries.one(w.order)
    base = w
    while m:
        if m & 1:
            out = out * base
        base = base * base
        m >>= 1
    return out
