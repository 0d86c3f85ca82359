"""Legendre polynomials and associated functions with exact coefficients.

Construction is Bonnet's three-term recurrence in exact rationals, with
the Rodrigues formula (n-fold symbolic differentiation of (x^2-1)^n) kept
as an independent route; the two must agree exactly.  Evaluation converts
to double at the last step.

Convention: associated functions carry the Condon-Shortley phase, i.e.
P_n^m(x) = (-1)^m (1-x^2)^{m/2} d^m/dx^m P_n(x), and negative orders come
from P_n^{-m} = (-1)^m (n-m)!/(n+m)! P_n^m.  Under this convention the
addition theorem reads

    P_n(cos t1 cos t2 + sin t1 sin t2 cos phi)
      = P_n(cos t1) P_n(cos t2)
        + 2 sum_k (-1)^k P_n^{-k}(cos t1) P_n^k(cos t2) cos(k phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegreeTooLarge, OrderOutOfRange, QuadratureUnderresolved

MAX_DEGREE = 64


@dataclass(frozen=True)
class LegendrePoly:
    degree: int
    coeffs: tuple  # exact Fractions, degree 0..n

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, _float_coeffs(self.degree, 0))


@lru_cache(maxsize=None)
def _recurrence_coeffs(n):
    # Bonnet: (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}
    if n == 0:
        return (Fraction(1),)
    if n == 1:
        return (Fraction(0), Fraction(1))
    pm1 = _recurrence_coeffs(n - 1)
    pm2 = _recurrence_coeffs(n - 2)
    out = [Fraction(0)] * (n + 1)
    for i, c in enumerate(pm1):
        out[i + 1] += Fraction(2 * n - 1, n) * c
    for i, c in enumerate(pm2):
        out[i] -= Fraction(n - 1, n) * c
    return tuple(out)


def _rodrigues_derivative(n, m):
    """Exact coefficients of d^m/dx^m (x^2-1)^n, for 0 <= m <= 2n."""
    # (x^2-1)^n expanded by the binomial theorem
    p = [Fraction(0)] * (2 * n + 1)
    for j in range(n + 1):
        p[2 * j] = Fraction((-1) ** (n - j) * math.comb(n, j))
    for _ in range(m):
        p = [Fraction(i) * p[i] for i in range(1, len(p))]
    return p


def rodrigues_coeffs(n):
    """Exact coefficients via (1/(2^n n!)) d^n/dx^n (x^2-1)^n."""
    scale = Fraction(1, 2**n * math.factorial(n))
    return tuple(c * scale for c in _rodrigues_derivative(n, n))


def explicit_sum_coeffs(n):
    """Exact coefficients from the alternating factorial sum."""
    out = [Fraction(0)] * (n + 1)
    for s in range(n // 2 + 1):
        num = (-1) ** s * math.factorial(2 * n - 2 * s)
        den = 2**n * math.factorial(s) * math.factorial(n - s) * math.factorial(n - 2 * s)
        out[n - 2 * s] = Fraction(num, den)
    return tuple(out)


def legendre_poly(n):
    if not 0 <= n <= MAX_DEGREE:
        raise DegreeTooLarge(f"degree {n} outside 0..{MAX_DEGREE}")
    return LegendrePoly(n, _recurrence_coeffs(n))


def legendre_value(n, x):
    return float(legendre_poly(n)(float(x)))


@lru_cache(maxsize=None)
def _deriv_poly(n, m):
    # d^m/dx^m P_n as exact coefficients
    c = _recurrence_coeffs(n)
    for _ in range(m):
        c = tuple(Fraction(i) * c[i] for i in range(1, len(c)))
        if not c:
            c = (Fraction(0),)
    return c


@lru_cache(maxsize=None)
def _float_coeffs(n, m, dtype=float):
    """Coefficients of d^m/dx^m P_n rounded once to dtype (read-only)."""
    if dtype is float:
        c = np.array([float(q) for q in _deriv_poly(n, m)])
    else:
        c = np.array([dtype(q.numerator) / dtype(q.denominator) for q in _deriv_poly(n, m)])
    c.flags.writeable = False
    return c


def assoc_legendre(n, m, x):
    """Associated function P_n^m(x) for |x| <= 1, any |m| <= n."""
    if abs(m) > n:
        raise OrderOutOfRange(f"|m| = {abs(m)} exceeds degree {n}")
    if n > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {n} outside 0..{MAX_DEGREE}")
    if m < 0:
        scale = (-1) ** (-m) * math.factorial(n + m) / math.factorial(n - m)
        return scale * assoc_legendre(n, -m, x)
    base = np.polynomial.polynomial.polyval(x, _float_coeffs(n, m))
    if m == 0:
        return float(base) if np.isscalar(x) else base
    out = (-1.0) ** m * (1.0 - np.asarray(x, dtype=float) ** 2) ** (m / 2.0) * base
    return float(out) if np.isscalar(x) else out


def assoc_legendre_direct(n, m, x):
    """P_n^m straight from the differentiated Rodrigues form, any |m| <= n.

    P_n^m(x) = (-1)^m (1-x^2)^{m/2} (1/(2^n n!)) d^{n+m}/dx^{n+m} (x^2-1)^n,
    valid for negative m as well (the prefactor then divides); kept as an
    independent route against the factorial reflection identity.
    """
    if abs(m) > n:
        raise OrderOutOfRange(f"|m| = {abs(m)} exceeds degree {n}")
    scale = Fraction(1, 2**n * math.factorial(n))
    c = np.array([float(scale * q) for q in _rodrigues_derivative(n, n + m)])
    base = np.polynomial.polynomial.polyval(x, c)
    xx = np.asarray(x, dtype=float)
    out = (-1.0) ** m * (1.0 - xx**2) ** (m / 2.0) * base
    return float(out) if np.isscalar(x) else out


def generating_partial_sum(x, t, N):
    """sum_{n<=N} P_n(x) t^n; tends to (1 - 2xt + t^2)^{-1/2}."""
    acc = 0.0
    pm1, pm2 = 1.0, 0.0
    tn = 1.0
    for n in range(N + 1):
        if n == 0:
            p = 1.0
        elif n == 1:
            p = x
        else:
            p = ((2 * n - 1) * x * pm1 - (n - 1) * pm2) / n
        if n >= 1:
            pm2, pm1 = pm1, p
        else:
            pm1 = p
        acc += p * tn
        tn *= t
    return acc


def generating_closed_form(x, t):
    return 1.0 / math.sqrt(1.0 - 2.0 * x * t + t * t)


def schlafli_coeff(n, z):
    """P_n(z) from the contour integral of (xi^2-1)^n / (2^n (xi-z)^{n+1}).

    512-point trapezoid on the unit circle |xi - z| = 1; exact for n < 256
    up to roundoff, computed in extended precision to keep the 2^-n
    cancellation harmless.  Raises QuadratureUnderresolved when the result
    strays from the exact-coefficient evaluation by more than 1e-6.
    """
    if n >= 256:
        raise QuadratureUnderresolved(f"512 nodes are too few for degree {n}")
    z = complex(z)
    phi = (2.0 * np.pi * np.arange(512) / 512).astype(np.longdouble)
    ring = np.cos(phi) + 1j * np.sin(phi)
    xi = np.clongdouble(z) + ring
    ring_n = np.cos(n * phi) + 1j * np.sin(n * phi)
    integrand = (xi * xi - 1.0) ** n / (np.longdouble(2.0) ** n * ring_n)
    val = complex(np.mean(integrand))
    if z.imag == 0 and abs(z) <= 1:
        ref = legendre_value(n, z.real)
        if abs(val - ref) > 1e-6:
            raise QuadratureUnderresolved(
                f"contour value {val} vs polynomial {ref} at n={n}, z={z}"
            )
    return val


def ode_residual(n, x):
    """(1-x^2) P_n'' - 2x P_n' + n(n+1) P_n at x, from exact coefficients.

    This is the standard Legendre equation; the operator annihilates P_n.
    Evaluated in extended precision so the cancellation between the three
    terms stays far below the verification tolerances.
    """
    xl = np.longdouble(x)
    p, d1, d2 = (
        np.polynomial.polynomial.polyval(xl, _float_coeffs(n, m, np.longdouble))
        for m in (0, 1, 2)
    )
    return float((1.0 - xl * xl) * d2 - 2.0 * xl * d1 + n * (n + 1) * p)


def addition_theorem_residual(theta1, theta2, phi, n):
    """|LHS - RHS| of the addition theorem at the given angles."""
    c1, c2 = math.cos(theta1), math.cos(theta2)
    s1, s2 = math.sin(theta1), math.sin(theta2)
    lhs = legendre_value(n, c1 * c2 + s1 * s2 * math.cos(phi))
    rhs = legendre_value(n, c1) * legendre_value(n, c2)
    for k in range(1, n + 1):
        rhs += (
            2.0
            * (-1) ** k
            * assoc_legendre(n, -k, c1)
            * assoc_legendre(n, k, c2)
            * math.cos(k * phi)
        )
    return abs(lhs - rhs)


def equal_angle_expansion(N, cos_theta):
    """Cosine-series weights of P_0..P_N at the equal-angle specialization.

    Row n of the returned (N+1, N+1) array holds w[0..n] (zeros beyond) with
    P_n(cos^2 t + sin^2 t cos phi) = w[0] + sum_{k>=1} w[k] cos(k phi),
    where w[0] = P_n(cos t)^2 and w[k] = 2 (n-k)!/(n+k)! P_n^k(cos t)^2.
    Every weight is a square; this is what makes the kernel decomposition
    work.  The square roots S_n^k (semi-normalized, c = cos t, s = sin t)
    follow the three-term recurrence in n, accurate to roundoff at any n:

        sqrt(n^2 - k^2) S_n^k = (2n-1) c S_{n-1}^k - sqrt((n-1)^2 - k^2) S_{n-2}^k

    from S_0^0 = 1, S_1^1 = s and S_n^n = S_{n-1}^{n-1} s sqrt((2n-1)/2n).
    """
    c = float(cos_theta)
    s = math.sqrt(1.0 - c * c)
    S = np.zeros((N + 2, N + 1))  # the last row stays 0 and serves as S_{-1}
    S[0, 0] = 1.0
    for n in range(1, N + 1):
        k = np.arange(n)
        S[n, n] = s if n == 1 else S[n - 1, n - 1] * s * math.sqrt((2 * n - 1) / (2 * n))
        S[n, :n] = (2 * n - 1) * c * S[n - 1, :n] - np.sqrt((n - 1) ** 2 - k**2) * S[n - 2, :n]
        S[n, :n] /= np.sqrt(n * n - k**2)
    return S[: N + 1] ** 2


def coefficient_table(max_degree):
    """Degree-indexed exact coefficient rows (as strings) for the emitters."""
    rows = []
    for n in range(max_degree + 1):
        rows.append([str(q) for q in legendre_poly(n).coeffs])
    return rows
