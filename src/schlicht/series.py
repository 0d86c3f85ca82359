"""Truncated complex power series.

A ``PowerSeries`` holds coefficients c0..cN of a polynomial truncation of
an analytic germ at 0.  The truncation order is explicit and binary
operations insist on equal orders (build both operands at the same order);
silent order mixing is the classic bug source in series code, so it is
simply not allowed.

Coefficients are double-precision complex.  One near-singular threshold,
1e-12, guards division, reversion, composition and the anchored constant
terms of exp, log and sqrt.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import _kernels
from .errors import (
    BranchPointAtOrigin,
    DivisionByNonUnit,
    InnerNotVanishing,
    NotInvertibleAtOrigin,
    OrderMismatch,
    RadiusExceeded,
)

_EPS_UNIT = 1e-12  # near-singular threshold for constant and leading terms


class PowerSeries:
    """Immutable truncated power series c0 + c1 z + ... + cN z^N."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        self._c = c

    # -- construction helpers -------------------------------------------
    @classmethod
    def zero(cls, order):
        return cls(np.zeros(order + 1))

    @classmethod
    def one(cls, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = 1.0
        return cls(c)

    @classmethod
    def identity(cls, order):
        """The series of z itself."""
        c = np.zeros(order + 1, dtype=complex)
        c[1] = 1.0
        return cls(c)

    # -- basic accessors -------------------------------------------------
    @property
    def coeffs(self):
        return self._c

    @property
    def order(self):
        return self._c.size - 1

    def __getitem__(self, n):
        return self._c[n]

    def __repr__(self):
        return f"PowerSeries(order={self.order}, coeffs={np.array2string(self._c, precision=6)})"

    def derivative(self):
        if self.order == 0:
            return PowerSeries([0.0])
        n = np.arange(1, self._c.size)
        return PowerSeries(self._c[1:] * n)

    def conjugate(self):
        return PowerSeries(np.conj(self._c))

    # -- arithmetic -------------------------------------------------------
    def _check(self, other):
        if other.order != self.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            self._check(other)
            return PowerSeries(self._c + other._c)
        if isinstance(other, numbers.Number):
            c = self._c.copy()
            c[0] += other
            return PowerSeries(c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(-self._c)

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            self._check(other)
            return PowerSeries(self._c - other._c)
        if isinstance(other, numbers.Number):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            self._check(other)
            return PowerSeries(_kernels.cauchy_mul(self._c, other._c))
        if isinstance(other, numbers.Number):
            return PowerSeries(self._c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PowerSeries):
            return div(self, other)
        if isinstance(other, numbers.Number):
            return PowerSeries(self._c / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Number):
            return div(PowerSeries.one(self.order) * other, self)
        return NotImplemented

    def isclose(self, other, tol=1e-12):
        self._check(other)
        return float(np.max(np.abs(self._c - other._c))) <= tol


# -- module-level operations ---------------------------------------------

def div(a, b):
    """Quotient d with mul(d, b) == a up to the shared order."""
    a._check(b)
    if abs(b[0]) < _EPS_UNIT:
        raise DivisionByNonUnit(f"|b0| = {abs(b[0]):.3e} below threshold {_EPS_UNIT:.1e}")
    return PowerSeries(_kernels.cauchy_div(a.coeffs, b.coeffs))


def exp(a):
    """exp of a series with a.c0 = 0.

    Uses the first-order recurrence n b_n = sum_{k<n} (n-k) a_{n-k} b_k,
    which is the differential identity (e^a)' = a' e^a in coefficients.
    """
    if abs(a[0]) > _EPS_UNIT:
        raise BranchPointAtOrigin("exp needs vanishing constant term")
    n = a.order
    c = a.coeffs
    b = np.zeros(n + 1, dtype=complex)
    b[0] = 1.0
    wa = np.arange(n + 1) * c  # k a_k
    for m in range(1, n + 1):
        b[m] = np.dot(wa[1 : m + 1][::-1], b[:m]) / m
    return PowerSeries(b)


def log(a):
    """Principal log of a series with a.c0 = 1."""
    if abs(a[0] - 1) > _EPS_UNIT:
        raise BranchPointAtOrigin("log is anchored at constant term 1")
    n = a.order
    c = a.coeffs
    b = np.zeros(n + 1, dtype=complex)
    for m in range(1, n + 1):
        acc = m * c[m]
        if m > 1:
            acc -= np.dot(np.arange(1, m) * b[1:m], c[1:m][::-1])
        b[m] = acc / m
    return PowerSeries(b)


def sqrt(a):
    """Principal square root of a series with a.c0 = 1."""
    if abs(a[0] - 1) > _EPS_UNIT:
        raise BranchPointAtOrigin("sqrt is anchored at constant term 1")
    n = a.order
    c = a.coeffs
    b = np.zeros(n + 1, dtype=complex)
    b[0] = 1.0
    for m in range(1, n + 1):
        acc = c[m]
        if m > 1:
            acc -= np.dot(b[1:m], b[1:m][::-1])
        b[m] = acc / 2.0
    return PowerSeries(b)


def compose(outer, inner):
    """outer(inner(z)) truncated at the shared order; inner.c0 must be 0."""
    outer._check(inner)
    if abs(inner[0]) > _EPS_UNIT:
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
    if abs(a[0]) > _EPS_UNIT or abs(a[1]) < _EPS_UNIT:
        raise NotInvertibleAtOrigin("need c0 = 0 and c1 != 0")
    n = a.order
    b = np.zeros(n + 1, dtype=complex)
    b[1] = 1.0 / a[1]
    for m in range(2, n + 1):
        c = _kernels.compose(a.coeffs[: m + 1], b[: m + 1])
        b[m] = -c[m] / a[1]
    return PowerSeries(b)


def evaluate(a, z, r_max=None):
    """Horner evaluation of the truncated polynomial.

    With ``r_max`` set (unit-disk semantics) arguments outside |z| <= r_max
    raise RadiusExceeded.
    """
    if r_max is not None and abs(z) > r_max:
        raise RadiusExceeded(f"|z| = {abs(z):.4f} > r_max = {r_max}")
    return complex(np.polyval(a.coeffs[::-1], z))


def evaluate_many(a, zs):
    """Vectorized Horner evaluation (no radius guard)."""
    return np.polyval(a.coeffs[::-1], np.asarray(zs, dtype=complex))
