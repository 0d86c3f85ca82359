"""The nonnegative-kernel decomposition behind the Milin inequality chain.

The central objects are the coefficients L[k][n](t) of z^{n+1} in
e^t w^{k+1} / (1 - w^2), with w the Koebe transition flow.  Three
independent routes compute them, each as the whole real table (rows
k = 0..max_k, columns n = 0..N) in one pass from (t, N, max_k=None); the
last two are oracles for the first, compared by oracle_triangle:

* series route    -- lambda_rows, from closed forms of e^t w/(1 - w^2) and
  w, then repeated multiplication by w.  It feeds every table reader
  (``table --kind lambda``, ``weinstein lambda``, the suite and
  ``verify --suite weinstein --n``): at t = 0 it is exact.
* Fourier route   -- lambda_fourier: with cos(delta) = 1 - e^{-t} + e^{-t}
  cos(phi), the degree-n coefficient family U_n of 1/(1 - 2 x z + z^2)
  satisfies U_n(cos delta) = L[0][n] + 2 sum_k L[k][n] cos(k phi), so a
  cosine transform in phi of the closed form U_n(cos delta) =
  sin((n + 1) delta)/sin(delta) extracts every entry.  The decomposition
  reads its column L[1..n][n] from the same grid, one transform for all of
  its nodes, to within 3.2e-14 of the exact values at n = 300.
* Legendre route  -- lambda_legendre_route: expanding U_n = sum_{i+j=n}
  P_i P_j through the equal-angle addition theorem writes every entry as a
  sum of squares times positive weights, which also certifies
  nonnegativity term by term.

On top of these sit the boundary integrals
A_k(t) = lim_{r->1} (1/2pi) Int Re p |2 C0k - k c_k z^k|^2 dtheta
(nonnegative because Re p > 0 multiplies a squared modulus) and the
end-to-end check that sum_k (4/k - k |c_k(0)|^2)(n-k+1) equals the time
integral of g_n(t) = sum_k L[k][n](t) A_k(t).  Both limits in that identity
are taken exactly:

* r -> 1: the weight is |X|^2 with X a polynomial of degree k, so the mean
  of Re p |X|^2 pairs the Taylor coefficients p_0..p_k of the Herglotz
  function, which the chain gives in closed form, with the autocorrelation
  of X's coefficients; one convolution serves every k (a_k_pairing).
  That finite sum is a polynomial in r, and its value at r = 1 is the limit.
  The circle quadrature _a_k_row stays as its oracle at r < 1.
* t -> infinity: L[k][n] is a polynomial in s = e^{-t} of degree <= n with
  no constant term, and A_k does not depend on t for the closed-form
  chains, so Int_0^inf g dt = Int_0^1 g(-ln s) ds/s integrates a polynomial
  of degree <= n - 1; Gauss-Legendre with n//2 + 2 nodes in s is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from . import functionals as fn
from . import legendre as lg
from . import series as ps
from .errors import (
    ChainUnavailable,
    ImaginaryResidue,
    ParamOutOfRange,
    RadiusExceeded,
)
from .report import BoundReport
from .series import PowerSeries


def _real(vals):
    """Real part of a quantity that is real by construction."""
    resid = float(np.max(np.abs(vals.imag)))
    if resid > 1e-12:
        raise ImaginaryResidue(f"imaginary residue {resid:.2e} in a real quantity")
    return vals.real.copy()


def _table_shape(N, max_k):
    max_k = N if max_k is None else max_k
    if N < 0 or max_k < 0:
        raise ParamOutOfRange(f"N and max_k must be >= 0, got {N} and {max_k}")
    return max_k


def lambda_rows(t, N, max_k=None):
    """L[k][n](t) for k = 0..max_k (rows) and n = 0..N (columns) in one pass.

    Row 0 is e^t w/(1 - w^2); each further row is the previous one times w.
    Both factors come in closed form: with s = e^{-t}, x = 1 - 2s and
    R = sqrt(1 - 2xz + z^2), the Koebe relation z/(1-z)^2 = e^t w/(1-w)^2
    reads ((1+w)/(1-w))^2 = R^2/(1-z)^2, so

        e^t w/(1 - w^2) = z/((1 - z) R),    w = 4 s z/(R + 1 - z)^2.

    1/R = sum_j P_j(x) z^j, so row 0 holds partial sums of Legendre values.
    No step divides by a series that nearly vanishes on |z| = 1 at small t,
    where dividing by 1 - w^2 loses two digits.  Rows beyond N vanish.

    This is the route of every table reader, because at t = 0 (x = -1,
    w = z) each entry is exactly 1.0 or 0.0.  Its error grows with the
    entries as t grows (2e-11 at n = 300, t = 9.7, where they reach 85), and
    a table costs n series products for every column, so the decomposition,
    which needs column n alone at each node, reads it from the cosine
    transform of lambda_fourier's closed form, within 3.2e-14 there.
    """
    if not t >= 0:
        raise ParamOutOfRange(f"t must be >= 0, got {t}")
    max_k = _table_shape(N, max_k)
    order = N + 1
    s = math.exp(-t)
    x = 1.0 - 2.0 * s
    P = np.polynomial.legendre.legvander(x, order)[0]  # P_0(x)..P_order(x)
    R = P.copy()  # (1 - 2xz + z^2) / R
    R[1:] -= 2.0 * x * P[:-1]
    R[2:] += P[:-2]
    one_minus_z = np.zeros(order + 1)
    one_minus_z[:2] = 1.0, -1.0
    D = (R + one_minus_z).astype(complex)  # R + 1 - z
    four_sz = np.zeros(order + 1, dtype=complex)
    four_sz[1] = 4.0 * s
    w = _kernels.cauchy_div(four_sz, _kernels.cauchy_mul(D, D))
    S = np.zeros(order + 1, dtype=complex)  # z/((1 - z) R)
    S[1:] = np.cumsum(P[:order])
    rows = np.zeros((max_k + 1, N + 1), dtype=complex)
    for k in range(min(max_k, N) + 1):
        if k:
            S = _kernels.cauchy_mul(S, w)
        rows[k] = S[1:]
    return _real(rows)


def _u_on_grid(t, m, Q):
    """U_m(cos delta) at phi = 2 pi j/Q, j = 0..Q-1, in closed form.

    U_m(cos delta) = sin((m + 1) delta)/sin(delta), with delta taken from its
    half angles, sin(delta/2) = sqrt(s) |sin(phi/2)| and cos(delta/2) =
    sqrt(1 - s + s cos^2(phi/2)), s = e^{-t}, so no arccos cancels near 1.
    Where delta > pi/2 the complementary angle pi - delta is used with the
    sign (-1)^m, and where the angle is 0, U = +-(m + 1).  t and m
    broadcast; the grid is the last axis.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ParamOutOfRange(f"t must be >= 0, got {t}")
    t, m = t[..., None], np.asarray(m)[..., None]
    half = np.pi * np.arange(Q) / Q  # phi/2, in [0, pi)
    s = np.exp(-t)
    sin_h = np.sqrt(s) * np.sin(half)
    cos_h = np.sqrt(s * np.cos(half) ** 2 - np.expm1(-t))
    far = sin_h > cos_h  # delta > pi/2
    ang = 2.0 * np.arctan2(np.minimum(sin_h, cos_h), np.maximum(sin_h, cos_h))
    with np.errstate(invalid="ignore"):  # 0/0 where the angle is 0
        u = np.where(ang == 0.0, m + 1.0, np.sin((m + 1) * ang) / np.sin(ang))
    return np.where(far & (m % 2 == 1), -u, u)


def lambda_fourier(t, N, max_k=None):
    """The (k, n) table of lambda_rows by a cosine transform in phi.

    U_0..U_N (the 1/(1-2xz+z^2) coefficient family) come in closed form on
    the phi grid; entry (k, n) is the mean of U_n cos(k phi), the real part
    of one FFT, exact on Q >= 2(N + kmax) + 2 points.  Rows beyond N
    vanish, as in lambda_rows, and are not computed.
    """
    max_k = _table_shape(N, max_k)
    kmax = min(max_k, N)
    Q = 1 << (2 * (N + kmax) + 1).bit_length()
    U = _u_on_grid(t, np.arange(N + 1), Q)
    out = np.zeros((max_k + 1, N + 1))
    out[: kmax + 1] = np.fft.rfft(U, axis=1)[:, : kmax + 1].real.T / Q
    return out


def _lambda_column(times, n):
    """L[1..n][n] at each of the times, one row each: lambda_fourier's grid for N = n."""
    Q = 1 << (4 * n + 1).bit_length()
    return np.fft.rfft(_u_on_grid(times, n, Q), axis=1)[:, 1 : n + 1].real / Q


def lambda_legendre_route(t, N, max_k=None):
    """The (k, n) table of lambda_rows assembled from squared Legendre data.

    U_n(cos delta) = sum_{i+j=n} P_i(cos delta) P_j(cos delta) with each
    factor expanded at the equal angle cos theta = sqrt(1 - e^{-t}); row i,
    w[0] + sum_k w[k] cos(k phi), has the e^{ik phi} spectrum w[|k|]/2 (w[0]
    at k = 0), so column n is the sum over i of the convolutions of the
    spectra of rows i and n - i.  Takes N <= 500 (3 s there).  Returns
    (table, min_summand); every summand is a product of squares and positive
    weights, so min_summand >= 0 certifies nonnegativity structurally.
    """
    max_k = _table_shape(N, max_k)
    if N > 500:
        raise ParamOutOfRange(f"the squared-Legendre route takes N in 0..500, got {N}")
    w = lg.equal_angle_expansion(N, math.sqrt(1.0 - math.exp(-t)))  # row i: degree i
    spec = [
        np.concatenate((0.5 * row[i:0:-1], row[:1], 0.5 * row[1 : i + 1])) for i, row in enumerate(w)
    ]
    out = np.zeros((max(max_k, N) + 1, N + 1))
    for n in range(N + 1):
        out[: n + 1, n] = sum(np.convolve(spec[i], spec[n - i]) for i in range(n + 1))[n:]
    # the least summand 0.5 w_i[k] w_j[l] over i + j <= N with w_i[k] != 0:
    # rounding is monotone, so it is the least of each row's factors
    on = np.tri(N + 1, dtype=bool)  # k <= i
    least = np.minimum.accumulate(np.where(on, w, np.inf).min(axis=1))  # rows j <= i
    least_nonzero = np.where(on & (w != 0.0), w, np.inf).min(axis=1)
    has = least_nonzero < np.inf  # a row of zeros has no summand
    min_summand = float((0.5 * least_nonzero[has] * least[::-1][has]).min())
    return out[: max_k + 1], min_summand


def oracle_triangle(t_values, tables):
    """Max pairwise gap of the three routes over k <= n <= N.

    tables holds lambda_rows(t, N) for each t of t_values, which callers
    also read, so each is computed once.  Also returns the least summand of
    the squared-Legendre route.
    """
    worst = 0.0
    min_summand = math.inf
    for t, sv in zip(t_values, tables):
        n_max = sv.shape[1] - 1
        fv = lambda_fourier(t, n_max)
        lv, ms = lambda_legendre_route(t, n_max)
        gaps = np.maximum.reduce([np.abs(sv - fv), np.abs(sv - lv), np.abs(fv - lv)])
        worst = max(worst, float(np.triu(gaps).max()))
        min_summand = min(min_summand, ms)
    return worst, min_summand


# -- the order-of-summation identity ----------------------------------------

def milin_generating_identity(f, N, z_samples):
    """Both sides of the summation-order identity, evaluated at samples.

    Left: sum_n [sum_{k<=n} (4/k - k|c_k(0)|^2)(n-k+1)] z^{n+1};
    right: z/(1-z)^2 times sum_k (4/k - k|c_k(0)|^2) z^k.  Truncated at
    degree N+1 on both sides; sample points must satisfy |z| <= 0.5.
    """
    kk = np.arange(1, N + 1)
    ck = 2.0 * fn.log_coefficients(f, N)[:N]
    weights = 4.0 / kk - kk * np.abs(ck) ** 2
    lhs_coeffs = np.zeros(N + 2, dtype=complex)
    for n in range(1, N + 1):
        k = kk[:n]
        lhs_coeffs[n + 1] = np.sum(weights[:n] * (n - k + 1))
    lhs = PowerSeries(lhs_coeffs)
    kser = PowerSeries(np.arange(N + 2, dtype=complex))
    wser = np.zeros(N + 2, dtype=complex)
    wser[1 : N + 1] = weights
    rhs = kser * PowerSeries(wser)
    rep = BoundReport("generating-identity")
    # identical through degree N+1, so the tail bound is only the roundoff floor
    scale = max(float(np.max(np.abs(lhs_coeffs))), 1.0)
    for z in z_samples:
        if abs(z) > 0.5:
            raise RadiusExceeded("sample points must satisfy |z| <= 0.5")
        dv = abs(ps.evaluate(lhs, z) - ps.evaluate(rhs, z))
        rep.add(f"z={z}", dv, 1e-10 * scale)
    return rep


# -- boundary integrals and the decomposition --------------------------------

def _a_k_row(chain, t, r, Q, kmax):
    """A_k(r) for k = 1..kmax by Q-point circle quadrature at |z1| = r.

    A_k(r) = (1/2pi) Int Re{p(z1,t)} |2 C0k - k c_k(t) z1^k|^2 dtheta with
    C0k = 1 + sum_{l<=k} l c_l(t) z1^l; all k share one set of boundary
    data.  Nonnegative up to quadrature noise since Re p > 0 and the weight
    is a squared modulus.  This is the oracle for a_k_pairing; it needs
    r < 1 and works for numeric chains too.
    """
    if hasattr(chain, "p_on_circle"):
        p, z1 = chain.p_on_circle(t, r, Q)
    else:
        _, z1 = chain.boundary_values(t, r, Q)
        p = chain.p_values(z1, t)
    rep = p.real
    out = np.empty(kmax)
    C2 = np.full(Q, 2.0, dtype=complex)  # 2 * C0k, grown incrementally
    for k, lc in enumerate(chain.log_coeffs(t, kmax), 1):
        C2 += 2.0 * k * lc * z1**k
        X = C2 - k * lc * z1**k
        out[k - 1] = np.mean(rep * np.abs(X) ** 2)
    return out


def a_k_pairing(chain, t, kmax, r=1.0):
    """A_k(r) for k = 1..kmax as finite sums; exact at every r <= 1.

    On |z| = r the mean of p |X|^2 keeps only the terms p_m r^m conj(a_m),
    with a_m the autocorrelation of X's coefficients scaled by r^j.  Let
    z_0 = 2 and z_j = 2 j c_j r^j: X = 2 C0k - k c_k z^k has z_0..z_{k-1},
    z_k/2.  With pr_m = conj(p_m) r^m (pr_0 real) and conv = pr * conj(z),
    one convolution for every k,
    A_k(r) = Re[cumsum(z conv)_k - z_k conv_k/2] - pr_0 |z_k|^2/4.
    Needs a chain with closed-form Herglotz coefficients.
    """
    if not hasattr(chain, "herglotz_coeffs"):
        raise ChainUnavailable(
            f"{type(chain).__name__} has no closed-form Herglotz function; "
            "the exact boundary pairing needs one"
        )
    rm = r ** np.arange(kmax + 1)
    pr = np.conj(chain.herglotz_coeffs(t, kmax)) * rm
    pr[0] = pr[0].real
    z = np.empty(kmax + 1, dtype=complex)
    z[0] = 2.0
    z[1:] = 2.0 * np.arange(1, kmax + 1) * chain.log_coeffs(t, kmax) * rm[1:]
    zc = z * np.convolve(pr, np.conj(z))[: kmax + 1]
    return (np.cumsum(zc) - zc / 2.0 - pr[0] * np.abs(z) ** 2 / 4.0).real[1:]


@dataclass
class DecompositionResult:
    """Both sides of the decomposition identity.

    ``rhs_extrapolated`` is the exact r = 1, t = infinity value (the name is
    kept for report compatibility); ``min_g`` is the least g_n over the
    quadrature nodes.  ``times``, ``weights`` and ``g`` hold the nodes, the
    dt weights (Gauss weight over s) and g_n there.
    """

    n: int
    lhs: float
    rhs_extrapolated: float
    min_g: float
    nodes: int
    times: np.ndarray = field(repr=False, default=None)
    weights: np.ndarray = field(repr=False, default=None)
    g: np.ndarray = field(repr=False, default=None)

    @property
    def residual(self):
        return abs(self.rhs_extrapolated - self.lhs)

    def to_dict(self):
        return {
            "n": self.n,
            "lhs": self.lhs,
            "rhs_extrapolated": self.rhs_extrapolated,
            "min_g": self.min_g,
            "nodes": self.nodes,
        }


def gauss_legendre_s(m):
    """Gauss-Legendre nodes and weights for Int_0^1 ds, s descending."""
    x, w = np.polynomial.legendre.leggauss(m)
    return (1.0 - x) / 2.0, w / 2.0


def milin_decomposition_check(chain, n):
    """Compare sum_k (4/k - k|c_k(0)|^2)(n-k+1) with Int_0^inf g_n(t) dt.

    The left side reads the chain's own f_0 (series_at at t = 0), so the
    two sides cannot describe different functions.
    g_n(t) = sum_{k=1}^n L[k][n](t) A_k(t) with the column L[1..n][n] of
    every node from one cosine transform and A_k at r = 1 from
    a_k_pairing, integrated in s = e^{-t} by Gauss-Legendre on (0, 1) with
    n//2 + 2 nodes, exact for the closed-form chains.
    """
    if n < 1:
        raise ParamOutOfRange(f"n must be >= 1, got {n}")
    nodes = n // 2 + 2
    lhs = fn.milin_weighted_form(chain.series_at(0.0, n + 1), n)
    s, w_s = gauss_legendre_s(nodes)
    times = -np.log(s)  # ascending
    weights = w_s / s  # ds/s = dt
    lam = _lambda_column(times, n)
    g = np.array([row @ a_k_pairing(chain, t, n) for row, t in zip(lam, times)])
    return DecompositionResult(
        n=n,
        lhs=lhs,
        rhs_extrapolated=float(weights @ g),
        min_g=float(g.min()),
        nodes=nodes,
        times=times,
        weights=weights,
        g=g,
    )
