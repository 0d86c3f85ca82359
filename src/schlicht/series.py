"""Truncated complex power series.

A ``PowerSeries`` holds coefficients c0..cN of a polynomial truncation of
an analytic germ at 0.  The truncation order is explicit and binary
operations insist on equal orders (build both operands at the same order);
silent order mixing is the classic bug source in series code, so it is
simply not allowed.

Coefficients are double-precision complex and finite: a series that
overflows raises NonFiniteCoefficients, a numeric error, and the recurrences
that can overflow (log, sqrt) run with NumPy's overflow and invalid-value
warnings off, so that error is all a caller sees.  One near-singular
threshold, 1e-12, guards the anchored constant terms of log and sqrt.
Division works on coefficient arrays (``_kernels.cauchy_div``), and
``evaluate`` is the one Horner entry, for a point or an array of points.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import _kernels
from .errors import BranchPointAtOrigin, NonFiniteCoefficients, OrderMismatch

_EPS_UNIT = 1e-12  # near-singular threshold for constant and leading terms


class PowerSeries:
    """Immutable truncated power series c0 + c1 z + ... + cN z^N."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(c.view(float))):
            raise NonFiniteCoefficients("coefficients must be finite")
        c.flags.writeable = False
        self._c = c

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

    # -- arithmetic -------------------------------------------------------
    def _check(self, other):
        if other.order != self.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            self._check(other)
            return PowerSeries(_kernels.cauchy_mul(self._c, other._c))
        if isinstance(other, numbers.Number):
            return PowerSeries(self._c * other)
        return NotImplemented

    __rmul__ = __mul__


# -- module-level operations ---------------------------------------------

def log(a):
    """Principal log of a series with a.c0 = 1."""
    if abs(a[0] - 1) > _EPS_UNIT:
        raise BranchPointAtOrigin("log is anchored at constant term 1")
    n = a.order
    c = a.coeffs
    b = np.zeros(n + 1, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            acc = c[m]
            if m > 1:
                acc -= np.dot(b[1:m], b[1:m][::-1])
            b[m] = acc / 2.0
    return PowerSeries(b)


def evaluate(a, z):
    """Horner evaluation of the truncated polynomial at z, a point or an array.

    There is no radius guard: ClassSFunction.eval keeps the unit-disk one.
    """
    return np.polyval(a.coeffs[::-1], np.asarray(z, dtype=complex))
