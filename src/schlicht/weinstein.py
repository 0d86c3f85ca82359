"""The nonnegative-kernel decomposition behind the Milin inequality chain.

The central objects are the coefficients L[k][n](t) of z^{n+1} in
e^t w^{k+1} / (1 - w^2), with w the Koebe transition flow.  Three
independent routes compute them, each as the whole real table (rows
k = 0..max_k, columns n = 0..N) in one pass from (t, N, max_k=None); the
last two are oracles for the first, compared by oracle_triangle:

* series route    -- lambda_rows, from closed forms of e^t w/(1 - w^2) and
  w, then repeated multiplication by w;
* Fourier route   -- lambda_fourier: with cos(delta) = 1 - e^{-t} + e^{-t}
  cos(phi), the degree-n coefficient family U_n of 1/(1 - 2 x z + z^2)
  satisfies U_n(cos delta) = L[0][n] + 2 sum_k L[k][n] cos(k phi), so a
  cosine transform in phi of one U_0..U_N recurrence extracts every entry;
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
  function with the autocorrelation of X's coefficients (a_k_pairing).
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

from . import functionals as fn
from . import legendre as lg
from . import series as ps
from .errors import (
    ChainUnavailable,
    ImaginaryResidue,
    ParamOutOfRange,
    QuadratureUnderresolved,
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
    D = PowerSeries(R) + PowerSeries(np.r_[1.0, -1.0, np.zeros(order - 1)])
    w = PowerSeries(np.r_[0.0, 4.0 * s, np.zeros(order - 1)]) / (D * D)
    S = PowerSeries(np.r_[0.0, np.cumsum(P[:order])])
    rows = np.zeros((max_k + 1, N + 1), dtype=complex)
    for k in range(min(max_k, N) + 1):
        if k:
            S = S * w
        rows[k] = S.coeffs[1:]
    return _real(rows)


def cos_delta(t, phi):
    """1 - e^{-t} + e^{-t} cos(phi); stays in [1 - 2e^{-t}, 1] subset [-1, 1]."""
    x = 1.0 - math.exp(-t) * (1.0 - np.cos(phi))
    if np.any(x < -1 - 1e-12) or np.any(x > 1 + 1e-12):
        raise ParamOutOfRange(f"cos(delta) left [-1, 1] at t = {t}; t must be >= 0")
    return x


def lambda_fourier(t, N, max_k=None):
    """The (k, n) table of lambda_rows by a cosine transform in phi.

    U_0..U_N (the 1/(1-2xz+z^2) coefficient family) come from one pass of
    the three-term recurrence U_{m+1} = 2x U_m - U_{m-1} on the phi grid;
    entry (k, n) is the mean of U_n cos(k phi).  Rows beyond N vanish, as
    in lambda_rows, and are not computed.
    """
    max_k = _table_shape(N, max_k)
    kmax = min(max_k, N)
    Q = 1024
    if Q < 2 * (N + kmax) + 2:
        raise QuadratureUnderresolved("quadrature grid too coarse for the harmonic content")
    phi = 2.0 * np.pi * np.arange(Q) / Q
    x = cos_delta(t, phi)
    U = np.zeros((N + 2, Q))  # the last row stays 0 and serves as U_{-1}
    U[0] = 1.0
    for m in range(1, N + 1):
        U[m] = 2.0 * x * U[m - 1] - U[m - 2]
    out = np.zeros((max_k + 1, N + 1))
    for k in range(kmax + 1):
        out[k] = np.mean(U[: N + 1] * np.cos(k * phi), axis=1)
    return out


def lambda_legendre_route(t, N, max_k=None):
    """The (k, n) table of lambda_rows assembled from squared Legendre data.

    U_n(cos delta) = sum_{i+j=n} P_i(cos delta) P_j(cos delta) with each
    factor expanded at the equal angle cos theta = sqrt(1 - e^{-t}); the
    product-to-sum rule turns the two squared-weight cosine series into
    every cos(k phi) coefficient of column n in one pass.  Returns
    (table, min_summand); every summand is a product of squares and positive
    weights, so min_summand >= 0 certifies nonnegativity structurally.
    """
    max_k = _table_shape(N, max_k)
    ct = math.sqrt(1.0 - math.exp(-t))
    expansions = lg.equal_angle_expansion(N, ct)  # row i: degree i
    out = np.zeros((max(max_k, N) + 1, N + 1))
    min_summand = math.inf
    for n in range(N + 1):
        target = np.zeros(n + 2)
        # every (i, ka, lb) with ka <= i, lb <= n - i, in the order of the
        # nested loops, 32 values of i at a time; pairs with a_i[ka] = 0 drop out
        for start in range(0, n + 1, 32):
            block = np.arange(start, min(start + 32, n + 1))
            width = n + 1 - block  # lb takes n - i + 1 values
            counts = (block + 1) * width
            i = np.repeat(block, counts)
            r = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            ka, lb = np.divmod(r, np.repeat(width, counts))
            ai = expansions[i, ka]
            keep = ai != 0.0
            i, ka, lb, ai = i[keep], ka[keep], lb[keep], ai[keep]
            s = 0.5 * ai * expansions[n - i, lb]
            min_summand = min(min_summand, float(s.min(initial=math.inf)))
            # each summand goes to cos((ka + lb) phi) when ka + lb <= n (else to
            # the spare slot n + 1), then to cos(|ka - lb| phi); np.add.at adds
            # in that order, as the scalar loop would
            slots = np.stack([np.minimum(ka + lb, n + 1), np.abs(ka - lb)], axis=-1)
            np.add.at(target, slots.ravel(), np.repeat(s, 2))
        out[: n + 1, n] = target[: n + 1]
        out[1 : n + 1, n] *= 0.5
    return out[: max_k + 1], min_summand


def oracle_triangle(t_values, n_max):
    """Max pairwise gap of the three routes over k <= n <= n_max.

    Also returns the least summand of the squared-Legendre route.
    """
    worst = 0.0
    min_summand = math.inf
    for t in t_values:
        sv = lambda_rows(t, n_max)
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
    for k in range(1, kmax + 1):
        lc = chain.log_coeff(t, k)
        C2 += 2.0 * k * lc * z1**k
        X = C2 - k * lc * z1**k
        out[k - 1] = np.mean(rep * np.abs(X) ** 2)
    return out


def herglotz_coeffs(chain, t, order):
    """Taylor coefficients p_0..p_order of p = (df/dt)/(z df/dz) at time t.

    One series division; needs a chain with closed-form series in z and t.
    """
    if not hasattr(chain, "dt_series_at"):
        raise ChainUnavailable(
            f"{chain.label} chain has no closed-form time derivative; "
            "the exact boundary pairing needs one"
        )
    m = np.arange(order + 2)
    zfz = chain.series_at(t, order + 1).coeffs * m
    dft = chain.dt_series_at(t, order + 1).coeffs
    return ps.div(PowerSeries(dft[1:]), PowerSeries(zfz[1:])).coeffs


def a_k_pairing(chain, t, kmax, r=1.0):
    """A_k(r) for k = 1..kmax as a finite sum; exact at every r <= 1.

    X = 2 C0k - k c_k z^k has coefficients x_0..x_k, so on |z| = r the mean
    of p |X|^2 keeps only the terms p_m r^m conj(a_m) with a_m the
    autocorrelation sum_j conj(y_j) y_{j+m}, y_j = x_j r^j.  Hence
    A_k(r) = Re(p_0) a_0 + sum_{m=1..k} Re(conj(p_m) a_m) r^m.
    """
    p = herglotz_coeffs(chain, t, kmax)
    rm = r ** np.arange(kmax + 1)
    pr = np.conj(p) * rm
    pr[0] = p[0].real
    y = np.zeros(kmax + 1, dtype=complex)
    y[0] = 2.0
    out = np.empty(kmax)
    for k in range(1, kmax + 1):
        y[k] = k * chain.log_coeff(t, k) * rm[k]  # 2 k c_k - k c_k
        a = np.correlate(y[: k + 1], y[: k + 1], "full")[k:]
        out[k - 1] = float(np.dot(pr[: k + 1], a).real)
        y[k] *= 2.0  # 2 k c_k, the coefficient in 2 C0k for the next k
    return out


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


def milin_decomposition_check(f, chain, n):
    """Compare sum_k (4/k - k|c_k(0)|^2)(n-k+1) with Int_0^inf g_n(t) dt.

    g_n(t) = sum_{k=1}^n L[k][n](t) A_k(t) with A_k at r = 1 from
    a_k_pairing, integrated in s = e^{-t} by Gauss-Legendre on (0, 1) with
    n//2 + 2 nodes, exact for the closed-form chains.
    """
    if n < 1:
        raise ParamOutOfRange(f"n must be >= 1, got {n}")
    nodes = n // 2 + 2
    lhs = fn.milin_weighted_form(f, n)
    s, w_s = gauss_legendre_s(nodes)
    times = -np.log(s)  # ascending
    weights = w_s / s  # ds/s = dt
    g = np.array(
        [lambda_rows(t, n)[1:, n] @ a_k_pairing(chain, t, n) for t in times]
    )
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
