"""Coefficient functionals and inequalities for normalized univalent maps.

Covers the classical chain: the exterior area sum, coefficient bounds
(sharp and Littlewood's e*n), integral means, growth/distortion envelopes,
the odd-transform partial sums, logarithmic coefficients, the Milin
functional in both its double-sum and weighted forms, and the
exponentiation inequality bounding |beta_k|^2 sums.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import series as ps
from . import univalent as uv
from .series import PowerSeries


def area_sum(b, N):
    """sum_{n<=N} n |b_n|^2 for an exterior map's b_0, b_1, ... (to_sigma); bounded by 1."""
    if N >= len(b):
        raise ValueError(f"only {len(b) - 1} tail coefficients available")
    return float(np.sum(np.arange(1, N + 1) * np.abs(b[1 : N + 1]) ** 2))


def integral_mean(f, p, r):
    """M_p(r, f) by 2048-point trapezoid quadrature over the circle |z| = r.

    z^k there depends on k mod 2048 only, so the values are one inverse FFT
    of the c_k r^k folded mod 2048.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    c = f.series.coeffs * r ** np.arange(len(f.series.coeffs))
    c = np.pad(c, (0, -len(c) % 2048)).reshape(-1, 2048).sum(axis=0)
    vals = np.fft.ifft(c, norm="forward")
    return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))


def littlewood_radius(n):
    """The radius 1 - 1/n at which the coefficient bound chain is evaluated."""
    return 1.0 - 1.0 / n


def littlewood_factor(n):
    """n (1 + 1/(n-1))^{n-1}, the bound that sits below e*n."""
    return n * (1.0 + 1.0 / (n - 1.0)) ** (n - 1.0)


# Koebe meets each envelope with equality; at order 1024, Horner lands up
# to 4.4e-12 outside one on the bounds suite's polar grid out to r = 0.95
ROUNDOFF = 1e-10

# the rows of `pointwise_bounds_check`'s arrays, in order
ENVELOPES = (
    "growth-lo", "growth-hi", "distortion-lo", "distortion-hi",
    "zf'/f-lo", "zf'/f-hi", "pre-schwarzian",
)


class PointwiseBounds(NamedTuple):
    """Both sides of every envelope at every grid point.

    Row i of each (7, points) array is ENVELOPES[i], column j is grid
    point j.  `checked` is False where the envelope divides by a zero f
    (zf'/f) or f' (pre-Schwarzian); lhs and rhs hold NaN there.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    checked: np.ndarray

    @property
    def failed(self):
        """The checked entries where lhs <= rhs does not hold; NaN fails."""
        return self.checked & ~(self.lhs <= self.rhs)


# NumPy's complex array product and absolute value can round the last bit
# the other way from its complex scalars, and its array power the other way
# from the C library's pow (seen with NumPy 2.4 on x86-64); these three keep
# the scalars' arithmetic, so the envelopes over an array are the envelopes
# point by point


def _modulus(z):
    return np.hypot(z.real, z.imag)


def _product(a, b):
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _cube(x):
    return np.array([v**3 for v in x.tolist()])


def pointwise_bounds_check(f, grid):
    """Growth, distortion, |z f'/f| and the pre-Schwarzian envelope.

    grid: iterable of complex points with |z| < 1.  Every envelope is one
    NumPy comparison over the whole grid; failures are returned, never
    raised, and each bound is moved outward by ROUNDOFF.
    """
    z = np.asarray(list(grid), dtype=complex)
    fp = f.series.derivative()
    # one Horner pass per series over the whole grid
    val, dval, ddval = (ps.evaluate(s, z) for s in (f.series, fp, fp.derivative()))
    r, aval, adval = _modulus(z), _modulus(val), _modulus(dval)
    f_nonzero, fp_nonzero = aval > 0, adval > 0
    # a 1 in place of each zero divisor keeps the skipped entries quiet
    q = _modulus(_product(z, dval) / np.where(f_nonzero, val, 1))
    w = _modulus(_product(z, ddval) / np.where(fp_nonzero, dval, 1) - 2 * r**2 / (1 - r**2))
    lhs = np.stack([
        r / (1 + r) ** 2 - ROUNDOFF, aval,
        (1 - r) / _cube(1 + r) - ROUNDOFF, adval,
        (1 - r) / (1 + r) - ROUNDOFF, q,
        w,
    ])
    rhs = np.stack([
        aval, r / (1 - r) ** 2 + ROUNDOFF,
        adval, (1 + r) / _cube(1 - r) + ROUNDOFF,
        q, (1 + r) / (1 - r) + ROUNDOFF,
        4 * r / (1 - r**2) + ROUNDOFF,
    ])
    checked = np.ones(lhs.shape, dtype=bool)
    checked[4:6] = f_nonzero
    checked[6] = fp_nonzero
    lhs[~checked] = rhs[~checked] = np.nan
    return PointwiseBounds(lhs, rhs, checked)


def robertson_sums(f, n):
    """Partial sums S_1..S_n of |c_{2k-1}|^2 for the odd transform of f."""
    if 2 * n - 1 > f.order:
        raise ValueError(f"need order >= {2 * n - 1}")
    h = uv.odd_sqrt_transform(f)
    odd = h.coeffs[1 : 2 * n : 2]
    return np.cumsum(np.abs(odd) ** 2)


def log_coefficients(f, N=None):
    """gamma_1..gamma_N, an array, from log(f(z)/z) = 2 sum gamma_k z^k."""
    N = f.order - 1 if N is None else N
    F = PowerSeries(f.coeffs[1 : N + 2])  # f(z)/z up to degree N
    return 0.5 * ps.log(F).coeffs[1:]


def pair_log_coefficients(c, rho, theta, N):
    """gamma_1..gamma_N of (z + c z^2)/(1 - w z)^2, w = rho e^{i theta}, in closed form.

    log(f(z)/z) = log(1 + c z) - 2 log(1 - w z), so
    gamma_k = ((-1)^{k+1} c^k + 2 w^k)/(2k), with w^k from
    univalent.polar_powers as from_quotient takes it.  c, rho and theta are
    numbers or sequences of one length, one pair each; a sequence gives one
    row of gamma per pair.
    """
    c, rho, theta = (np.asarray(v)[..., None] for v in (c, rho, theta))
    k = np.arange(1, N + 1)
    return (uv.polar_powers(2, rho, theta, k) - (-c) ** k) / (2 * k)


def milin_double_sum(gamma):
    """M_n = sum_{m<=n} sum_{k<=m} (k |gamma_k|^2 - 1/k) for gamma = gamma_1..gamma_n.

    A stack of gamma rows gives the array of their sums, each the one-row
    value bit for bit.
    """
    k = np.arange(1, gamma.shape[-1] + 1)
    # a sum that overflows reaches its report as a non-finite side, which
    # BoundReport.add rejects
    with np.errstate(over="ignore", invalid="ignore"):
        terms = k * np.abs(gamma) ** 2 - 1.0 / k
        return np.sum(np.cumsum(terms, axis=-1), axis=-1)


def milin_weighted_sum(gamma):
    """sum_k (4/k - k |c_k|^2)(n - k + 1) with c_k = 2 gamma_k, for gamma = gamma_1..gamma_n.

    Equals -4 times milin_double_sum; nonnegative exactly when the Milin
    functional is nonpositive.
    """
    n = len(gamma)
    k = np.arange(1, n + 1)
    c = 2.0 * gamma
    return float(np.sum((4.0 / k - k * np.abs(c) ** 2) * (n - k + 1)))


def _first_log_coefficients(f, n):
    gamma = log_coefficients(f, n)
    if n > len(gamma):
        raise ValueError(f"only {len(gamma)} logarithmic coefficients available")
    return gamma


def milin_functional(f, n):
    """The double sum M_n = sum_{m<=n} sum_{k<=m} (k |gamma_k|^2 - 1/k)."""
    return float(milin_double_sum(_first_log_coefficients(f, n)))


def milin_weighted_form(f, n):
    """milin_weighted_sum of the first n logarithmic coefficients of f."""
    return milin_weighted_sum(_first_log_coefficients(f, n))


def lebedev_milin_check(alpha, n):
    """Both sides of the exponentiated-coefficient inequality.

    beta = exp-transform of sum alpha_k z^k; returns (lhs, rhs) with
    lhs = sum_{k<=n} |beta_k|^2 and
    rhs = (n+1) exp{ (1/(n+1)) sum_{m<=n} sum_{k<=m} (k|alpha_k|^2 - 1/k) }.
    """
    alpha = list(alpha)
    if n > len(alpha):
        raise ValueError("need at least n alpha coefficients")
    lhs, rhs = lebedev_milin_sides(np.array([alpha[:n]], dtype=complex))
    return lhs[0], rhs[0]


def lebedev_milin_sides(alphas):
    """`lebedev_milin_check` for every row of a (trials, n) array at once.

    Returns the lists of lhs and rhs.  beta = exp(sum alpha_k z^k) comes
    from the recurrence m beta_m = sum_{k<m} (m-k) alpha_{m-k} beta_k, one
    vector product per row and degree, so each value is the one-row value
    bit for bit.
    """
    trials, n = alphas.shape
    wa = np.zeros((trials, n + 1), dtype=complex)
    wa[:, 1:] = np.arange(1, n + 1) * alphas  # k alpha_k
    back = np.ascontiguousarray(wa[:, ::-1])  # back[:, n - k] = wa[:, k]
    beta = np.zeros((trials, n + 1), dtype=complex)
    beta[:, 0] = 1.0
    # values that overflow reach the report as non-finite sides, which
    # BoundReport.add rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            beta[:, m] = (back[:, None, n - m : n] @ beta[:, :m, None])[:, 0, 0] / m
        lhs = np.sum(np.abs(beta) ** 2, axis=1).tolist()
    rhs = [
        # (n + 1) e^x overflows to inf from x = 709.78 on, where math.exp raises
        (n + 1) * math.exp(d / (n + 1)) if d / (n + 1) < 709.78 else math.inf
        for d in milin_double_sum(alphas).tolist()
    ]
    return lhs, rhs
