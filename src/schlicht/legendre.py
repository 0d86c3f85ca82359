"""Legendre polynomials and associated functions.

Coefficients are exact rationals from Bonnet's three-term recurrence, with
the Rodrigues formula (n-fold symbolic differentiation of (x^2-1)^n) and
the explicit alternating sum kept as independent routes; the three must
agree exactly.  Exact rationals serve exact statements only: these
coefficients, their table and the ODE residual.  Every floating-point
value comes from one recurrence in the degree (`_seminormalized_rows`),
accurate to roundoff at every degree up to MAX_DEGREE, where double
evaluation of the monomial coefficients loses every digit by degree 50.

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
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegreeTooLarge, OrderOutOfRange, ParamOutOfRange, QuadratureUnderresolved

MAX_DEGREE = 64


def _seminormalized_rows(N, x, kmax):
    """Yield the rows S_n^0..S_n^kmax at x (any shape) for n = 0..N.

    S_n^0 = P_n and S_n^k = (-1)^k sqrt(2 (n-k)!/(n+k)!) P_n^k for k >= 1,
    the semi-normalized functions whose squares are the equal-angle weights.
    Row n has shape x.shape + (kmax+1,) with zeros at k > n; only the last
    two rows are kept.  With c = x and s = sqrt(1 - x^2),

        sqrt(n^2 - k^2) S_n^k = (2n-1) c S_{n-1}^k - sqrt((n-1)^2 - k^2) S_{n-2}^k

    from S_0^0 = 1, S_1^1 = s and S_n^n = S_{n-1}^{n-1} s sqrt((2n-1)/2n).
    At k = 0 the square roots are exact and this is Bonnet's recurrence, valid
    for any real x; s is taken only when kmax >= 1, which needs |x| <= 1.
    """
    x = np.asarray(x, dtype=float)
    c = x[..., None]
    if kmax >= 1:
        if not np.all(np.abs(x) <= 1.0):
            raise ParamOutOfRange("associated functions need |x| <= 1")
        s = np.sqrt(1.0 - x * x)
    older = np.zeros(x.shape + (kmax + 1,))  # S_{-1}
    row = np.zeros_like(older)
    row[..., 0] = 1.0
    yield row
    for n in range(1, N + 1):
        new = np.zeros_like(row)
        j = min(n, kmax + 1)
        k = np.arange(j)
        new[..., :j] = (2 * n - 1) * c * row[..., :j]
        new[..., :j] -= np.sqrt((n - 1) ** 2 - k**2) * older[..., :j]
        new[..., :j] /= np.sqrt(n * n - k**2)
        if n <= kmax:
            new[..., n] = s if n == 1 else row[..., n - 1] * s * math.sqrt((2 * n - 1) / (2 * n))
        older, row = row, new
        yield row


def seminormalized_table(N, x):
    """S_n^k(x) for 0 <= k <= n <= N from one recurrence; needs |x| <= 1.

    Shape (N+1,) + x.shape + (N+1,), zeros at k > n.  Column k of the
    recurrence does not depend on kmax, so entry [n, ..., k] equals entry k
    of row n of `_seminormalized_rows(n, x, k)` bit for bit, and [n, ..., 0]
    equals P_n(x).
    """
    return np.array(list(_seminormalized_rows(N, x, N)))


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
    """Integer coefficients of d^m/dx^m (x^2-1)^n, for 0 <= m <= 2n."""
    # (x^2-1)^n expanded by the binomial theorem
    p = [0] * (2 * n + 1)
    for j in range(n + 1):
        p[2 * j] = (-1) ** (n - j) * math.comb(n, j)
    for _ in range(m):
        p = [i * p[i] for i in range(1, len(p))]
    return p


def rodrigues_coeffs(n):
    """Exact coefficients via (1/(2^n n!)) d^n/dx^n (x^2-1)^n."""
    scale = 2**n * math.factorial(n)
    return tuple(Fraction(c, scale) for c in _rodrigues_derivative(n, n))


def explicit_sum_coeffs(n):
    """Exact coefficients from the alternating factorial sum."""
    out = [Fraction(0)] * (n + 1)
    for s in range(n // 2 + 1):
        num = (-1) ** s * math.factorial(2 * n - 2 * s)
        den = 2**n * math.factorial(s) * math.factorial(n - s) * math.factorial(n - 2 * s)
        out[n - 2 * s] = Fraction(num, den)
    return tuple(out)


def legendre_poly(n):
    """The exact coefficients of P_n, degree 0..n, as Fractions."""
    if not 0 <= n <= MAX_DEGREE:
        raise DegreeTooLarge(f"degree {n} outside 0..{MAX_DEGREE}")
    return _recurrence_coeffs(n)


def assoc_scale(n, m):
    """The factor with P_n^m = assoc_scale(n, m) S_n^|m|, for 0 < |m| <= n."""
    # P_n^m = (-1)^m sqrt(r/2) S_n^m and P_n^{-m} = S_n^m / sqrt(2r), r = (n+m)!/(n-m)!
    r = math.factorial(n + abs(m)) / math.factorial(n - abs(m))
    return (-1) ** m * math.sqrt(r / 2) if m > 0 else 1 / math.sqrt(2 * r)


def assoc_legendre_direct(n, m, x):
    """P_n^m straight from the differentiated Rodrigues form, any |m| <= n.

    P_n^m(x) = (-1)^m (1-x^2)^{m/2} (1/(2^n n!)) d^{n+m}/dx^{n+m} (x^2-1)^n,
    valid for negative m as well (the prefactor then divides); kept as an
    independent route against the factorial reflection identity.
    """
    if abs(m) > n:
        raise OrderOutOfRange(f"|m| = {abs(m)} exceeds degree {n}")
    scale = 2**n * math.factorial(n)
    # int / int rounds the exact quotient once, as float(Fraction) does
    c = np.array([q / scale for q in _rodrigues_derivative(n, n + m)])
    base = np.polynomial.polynomial.polyval(x, c)
    xx = np.asarray(x, dtype=float)
    out = (-1.0) ** m * (1.0 - xx**2) ** (m / 2.0) * base
    return float(out) if np.isscalar(x) else out


def generating_partial_sum(x, t, N):
    """sum_{n<=N} P_n(x) t^n; tends to (1 - 2xt + t^2)^{-1/2}."""
    acc, tn = 0.0, 1.0
    for row in _seminormalized_rows(N, x, 0):
        acc += row[..., 0] * tn
        tn *= t
    return acc


def generating_closed_form(x, t):
    return 1.0 / math.sqrt(1.0 - 2.0 * x * t + t * t)


def schlafli_coeff(n, z):
    """P_n(z) from the contour integral of (xi^2-1)^n / (2^n (xi-z)^{n+1}).

    512-point trapezoid on the unit circle |xi - z| = 1, in extended
    precision.  Near z = +-1 the integrand reaches about (3/2)^n and cancels
    down to P_n(z), so digits are lost as n grows: at z = 1 the gap to the
    recurrence's P_n is 1.1e-13 at n = 20, 4.4e-10 at n = 40 and 3.1e-8 at
    n = 50 (3e-14 at z = -1 and n = 20; below 1e-16 at z = 0 and 0.5 up to
    n = 64).  z is a number or an array of them, each on its own circle.
    n is a degree or a 1-D array of them; an array gives shape
    n.shape + z.shape, and each row is the value of its one degree bit for
    bit.  The values are returned as computed: the legendre suite holds
    them to the recurrence.  Raises QuadratureUnderresolved for n >= 256.
    """
    degrees = np.asarray(n)
    if np.any(degrees >= 256):
        raise QuadratureUnderresolved(f"512 nodes are too few for degree {degrees.max()}")
    z = np.asarray(z, dtype=complex)
    phi = (2.0 * np.pi * np.arange(512) / 512).astype(np.longdouble)
    ring = np.cos(phi) + 1j * np.sin(phi)
    xi = z.astype(np.clongdouble)[..., None] + ring
    base = xi * xi - 1.0
    # one degree at a time: every degree at once would hold a
    # (degrees, points, 512) extended-precision integrand
    rows = []
    for k in degrees.ravel().tolist():
        ring_k = np.cos(k * phi) + 1j * np.sin(k * phi)
        rows.append(np.mean(base**k / (np.longdouble(2.0) ** k * ring_k), axis=-1))
    val = np.array(rows).reshape(degrees.shape + z.shape).astype(complex)
    return complex(val) if val.ndim == 0 else val


def ode_residual(n, x):
    """(1-x^2) P_n'' - 2x P_n' + n(n+1) P_n at x, in exact arithmetic.

    This is the standard Legendre equation; the operator annihilates P_n.
    Its coefficient of x^j is r_j = (j+2)(j+1) a_{j+2} + (n-j)(n+j+1) a_j
    for P_n = sum a_j x^j.  In integers: 2^n a_j is an integer, and with
    x = p/q exactly, Horner's rule gives q^n sum_j 2^n r_j x^j.
    """
    a = [c.numerator * (2**n // c.denominator) for c in legendre_poly(n)] + [0, 0]
    p, q = Fraction(x).as_integer_ratio()
    acc = 0
    for j in range(n, -1, -1):
        r = (j + 2) * (j + 1) * a[j + 2] + (n - j) * (n + j + 1) * a[j]
        acc = acc * p + r * q ** (n - j)
    return acc / (2**n * q**n)


def addition_theorem_residual(theta1, theta2, phi, n):
    """|LHS - RHS| of the addition theorem, broadcast over the angles.

    n is a degree or a 1-D array of them; an array gives shape n.shape +
    the angles' shape, and each row is the value of its one degree bit for
    bit (the orders k > n add exact zeros).  Every P_n^k(cos t1) and
    P_n^k(cos t2), for all the degrees, comes from one recurrence each.
    """
    degrees = np.asarray(n)
    deg = degrees.ravel()
    N = int(deg.max())
    c1, c2 = np.cos(theta1), np.cos(theta2)
    s1, s2 = np.sin(theta1), np.sin(theta2)
    # the degrees run along a trailing axis, which broadcasts past the angles'
    x = c1 * c2 + s1 * s2 * np.cos(phi)
    lhs = np.moveaxis(np.array([row[..., 0] for row in _seminormalized_rows(N, x, 0)])[deg], 0, -1)
    row1 = np.moveaxis(seminormalized_table(N, c1)[deg], 0, -2)
    row2 = np.moveaxis(seminormalized_table(N, c2)[deg], 0, -2)
    phi = np.asarray(phi)[..., None]
    rhs = row1[..., 0] * row2[..., 0]
    for k in range(1, N + 1):
        # assoc_scale(m, -k) and assoc_scale(m, k) for each degree m; 0 for k > m
        lo, hi = np.array([
            (assoc_scale(m, -k), assoc_scale(m, k)) if k <= m else (0.0, 0.0) for m in deg.tolist()
        ]).T
        rhs = rhs + (
            2.0
            * (-1) ** k
            * (row1[..., k] * lo)
            * (row2[..., k] * hi)
            * np.cos(k * phi)
        )
    out = np.moveaxis(np.abs(lhs - rhs), -1, 0)
    return out.reshape(degrees.shape + out.shape[1:])


def equal_angle_expansion(N, cos_theta):
    """Cosine-series weights of P_0..P_N at the equal-angle specialization.

    Row n of the returned (N+1, N+1) array holds w[0..n] (zeros beyond) with
    P_n(cos^2 t + sin^2 t cos phi) = w[0] + sum_{k>=1} w[k] cos(k phi),
    where w[0] = P_n(cos t)^2 and w[k] = 2 (n-k)!/(n+k)! P_n^k(cos t)^2.
    Every weight is a square, S_n^k(cos t)^2; this is what makes the kernel
    decomposition work.
    """
    return np.array([row**2 for row in _seminormalized_rows(N, float(cos_theta), N)])


def coefficient_table(max_degree):
    """Degree-indexed exact coefficient rows (as strings) for the emitters."""
    rows = []
    for n in range(max_degree + 1):
        rows.append([str(q) for q in legendre_poly(n)])
    return rows
