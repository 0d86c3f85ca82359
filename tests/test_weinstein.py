import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from references import herglotz_coeffs, lambda_exact, lambda_series
from schlicht import functionals as fn
from schlicht import legendre as lg
from schlicht import loewner as lw
from schlicht.errors import (
    ChainUnavailable,
    ImaginaryResidue,
    NonFiniteCoefficients,
    ParamOutOfRange,
    RadiusExceeded,
)
from schlicht import univalent as uv
from schlicht import weinstein as ws


def test_lambda_low_order_values():
    assert lambda_series(0.7, 0, 6)[0] == 1.0
    for t in (0.0, 0.5, 2.0):
        for k in (1, 4, 8):
            assert abs(lambda_series(t, k, 10)[k] - math.exp(-k * t)) < 1e-10


def test_lambda_alternation_at_t_zero():
    vals = lambda_series(0.0, 0, 11)
    assert np.max(np.abs(vals - np.array([1.0, 0.0] * 6))) < 1e-12


def test_lambda_triangular_zeros():
    vals = lambda_series(1.0, 5, 12)
    assert np.max(np.abs(vals[:5])) < 1e-12


def test_fourier_oracle_values():
    assert abs(ws.lambda_fourier(0.0, 2)[0, 2] - 1.0) < 1e-12
    tab = ws.lambda_fourier(0.5, 3, max_k=5)
    assert tab.shape == (6, 4)
    assert abs(tab[3, 3] - math.exp(-1.5)) < 1e-8
    assert abs(tab[5, 3]) < 1e-10


def test_legendre_route_values():
    tab, ms = ws.lambda_legendre_route(0.5, 3)
    assert tab.shape == (4, 4)
    assert abs(tab[3, 3] - math.exp(-1.5)) < 1e-12
    assert ms >= 0.0
    tab, _ = ws.lambda_legendre_route(0.3, 0)
    assert abs(tab[0, 0] - 1.0) < 1e-14


def test_oracle_triangle_grid():
    times = (0.0, 0.5, 1.0, 2.0)
    worst, min_summand = ws.oracle_triangle(times, [ws.lambda_rows(t, 8) for t in times])
    assert worst < 1e-8
    assert min_summand >= 0.0


def test_lambda_table_invariants():
    for t in (0.0, 1.0):
        tab = ws.lambda_rows(t, 12)
        assert tab.min() >= -1e-12
        assert np.all(np.abs(np.tril(tab, -1)) <= 1e-12)


def test_generating_identity_koebe_vanishes():
    # c_k = 2/k makes every weight 4/k - k|c_k|^2 vanish
    rep = ws.milin_generating_identity(uv.koebe(24), 20, [0.0, 0.3, 0.5])
    assert rep.all_pass
    assert all(c.lhs < 1e-10 for c in rep.cases)


def test_generating_identity_identity_function():
    rep = ws.milin_generating_identity(uv.identity_map(24), 20, [0.3])
    assert rep.all_pass


def test_generating_identity_radius_guard():
    with pytest.raises(RadiusExceeded):
        ws.milin_generating_identity(uv.koebe(24), 10, [0.8])


def test_guards_raise_taxonomy_errors():
    with pytest.raises(ParamOutOfRange, match="0..500"):
        ws.lambda_legendre_route(0.5, 501)
    with pytest.raises(ImaginaryResidue):
        ws._real(np.array([1.0 + 1e-9j]))
    with pytest.raises(ParamOutOfRange):
        ws.milin_decomposition_check(lw.KoebeChain(), n=0)
    for t in (-0.5, math.nan):
        with pytest.raises(ParamOutOfRange):
            ws.lambda_rows(t, 4)
        # the closed form behind the Fourier table and the decomposition's column
        with pytest.raises(ParamOutOfRange, match="t must be >= 0"):
            ws.lambda_fourier(t, 2)
        with pytest.raises(ParamOutOfRange, match="t must be >= 0"):
            ws._lambda_column(np.array([0.5, t]), 2)


def test_lambda_rows_match_lambda_series():
    for t in (0.0, 0.5, 1.0, 2.0, 5.0, 8.0):
        rows = ws.lambda_rows(t, 12)
        for k in range(13):
            ref = lambda_series(t, k, 12)
            assert np.all(np.abs(rows[k] - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
    # rows past N vanish, as lambda_series returns them
    assert np.all(ws.lambda_rows(0.5, 4, 7)[5:] == 0.0)


def test_lambda_rows_at_t_zero_exact():
    # x = -1: row 0 is the partial sums of P_j(-1) = (-1)^j and w = z
    rows = ws.lambda_rows(0.0, 11)
    assert np.all(rows[0] == np.array([1.0, 0.0] * 6))
    assert all(rows[k, k] == 1.0 for k in range(12))


def test_herglotz_coeffs_koebe():
    # p = (1 - z)/(1 + z) = 1 - 2z + 2z^2 - ..., bit for bit
    p = lw.KoebeChain().herglotz_coeffs(0.8, 8)
    want = np.r_[1.0, -2.0 * (-1.0) ** np.arange(8)]
    assert np.array_equal(p, want)


@pytest.mark.parametrize("rho, theta", [(1.0, 0.0), (1.0, 2.5), (0.5, 0.0), (0.9, 0.7), (0.0, 0.0)])
def test_herglotz_coeffs_solve_the_loewner_pde(rho, theta):
    # the closed form against (df/dt)/(z f') by series division; the
    # divisor's coefficients grow like m^2 at rho = 1, and the division's
    # error with them: 7.2e-12 = 1.8e-14 m^2 at m = 20, rho = 1, theta = 2.5
    chain = lw.KoebeChain(rho, theta)
    m = np.arange(21)
    for t in (0.0, 0.7):
        err = np.abs(herglotz_coeffs(chain, t, 20) - chain.herglotz_coeffs(t, 20))
        assert np.all(err <= 1e-13 * np.maximum(m, 1) ** 2)


def test_pairing_matches_quadrature_oracle():
    chains = (lw.KoebeChain(), lw.KoebeChain(rho=0.0), lw.KoebeChain(0.5), lw.KoebeChain(0.9, 0.7))
    for chain in chains:
        for t in (0.5, 1.7):
            for r in (0.9, 0.99, 0.999):
                quad = ws._a_k_row(chain, t, r, 2048, 12)
                pair = ws.a_k_pairing(chain, t, 12, r)
                assert np.max(np.abs(quad - pair)) <= 1e-12


def test_pairing_limits_at_r_one():
    kc, tc = lw.KoebeChain(), lw.KoebeChain(rho=0.0)
    for t in (0.0, 0.5, 1.7, 4.0):
        assert np.max(np.abs(ws.a_k_pairing(kc, t, 12))) <= 1e-12
        assert np.max(np.abs(ws.a_k_pairing(tc, t, 12) - 4.0)) <= 1e-12
        # a dilated Koebe chain: A_k = 4(1 - rho^{2k}), neither 0 nor 4
        for rho, theta in ((0.5, 0.0), (0.9, 0.7)):
            want = 4.0 * (1.0 - rho ** (2 * np.arange(1, 13)))
            got = ws.a_k_pairing(lw.KoebeChain(rho, theta), t, 12)
            assert np.max(np.abs(got - want)) <= 1e-12
    # the closed-form p keeps the limits at kmax = 300
    for rho, theta in ((1.0, 0.0), (0.0, 0.0), (0.5, 0.0), (0.9, 0.7)):
        want = 4.0 * (1.0 - rho ** (2 * np.arange(1, 301)))
        got = ws.a_k_pairing(lw.KoebeChain(rho, theta), 0.5, 300)
        assert np.max(np.abs(got - want)) <= 1e-11


def test_a_k_trivial_chain_is_four():
    tc = lw.KoebeChain(rho=0.0)
    for r in (0.9, 0.99):
        assert np.max(np.abs(ws._a_k_row(tc, 0.7, r, 512, 5) - 4.0)) < 1e-12


def test_a_k_koebe_closed_form():
    # derived in closed form: the weight polynomial factors through (1+z),
    # cancelling the Poisson spike, and the mean collapses to 4(1 - r^{2k})
    kc = lw.KoebeChain()
    k = np.arange(1, 7)
    for r in (0.9, 0.99, 0.999):
        want = 4.0 * (1.0 - r ** (2 * k))
        assert np.max(np.abs(ws._a_k_row(kc, 0.5, r, 2048, 6) - want)) < 1e-10
        assert np.max(np.abs(ws.a_k_pairing(kc, 0.5, 6, r) - want)) < 1e-12


def test_a_k_ladder_monotone_and_limit():
    kc = lw.KoebeChain()
    ladder = np.array([ws._a_k_row(kc, 0.5, r, 2048, 6) for r in (0.9, 0.99, 0.999)])
    assert np.all(np.diff(ladder, axis=0) < 0)
    assert np.max(np.abs(ws.a_k_pairing(kc, 0.5, 6))) < 1e-12


def test_a_k_nonnegative_pointwise():
    kc = lw.KoebeChain()
    z1 = 0.95 * np.exp(2j * np.pi * np.arange(256) / 256)
    p = kc.p_values(z1)
    assert p.real.min() > 0  # integrand = Re p times a square, so >= 0


def test_decomposition_koebe():
    n = 6
    res = ws.milin_decomposition_check(lw.KoebeChain(), n=n)
    assert abs(res.lhs) < 1e-10
    assert abs(res.rhs_extrapolated) <= 1e-10
    assert res.min_g >= -1e-8
    # the r -> 1 limit is what makes the right side vanish: the same time
    # integral with the quadrature at r = 0.99, where A_k = 4(1 - r^{2k}),
    # is above 1
    at_099 = sum(
        w * ws.lambda_rows(t, n)[1:, n] @ ws._a_k_row(lw.KoebeChain(), t, 0.99, 2048, n)
        for t, w in zip(res.times, res.weights)
    )
    assert at_099 > 1.0


def test_decomposition_identity_chain():
    n = 6
    res = ws.milin_decomposition_check(lw.KoebeChain(rho=0.0), n=n)
    kk = np.arange(1, n + 1)
    assert abs(res.lhs - float(np.sum(4.0 / kk * (n - kk + 1)))) < 1e-12
    assert res.residual / res.lhs <= 1e-12
    assert res.min_g >= -1e-8



@pytest.mark.parametrize("rho, theta", [(0.5, 0.0), (0.9, 0.7)])
def test_decomposition_of_a_dilated_koebe_chain(rho, theta):
    # A_k = 4(1 - rho^{2k}) is neither 0 nor 4, so every term of both sides
    # has content; the left side reads c_k(0) = 2 w^k/k from the chain
    chain = lw.KoebeChain(rho, theta)
    for n in (6, 20):
        res = ws.milin_decomposition_check(chain, n=n)
        k = np.arange(1, n + 1)
        want = float(np.sum(4.0 / k * (1.0 - rho ** (2 * k)) * (n - k + 1)))
        assert abs(res.lhs - want) <= 1e-12 * want
        assert res.residual <= 1e-12 * max(abs(res.lhs), 1.0)
        assert res.min_g > 0.0

@pytest.mark.parametrize("n", [6, 20, 40, 100, 300])
def test_decomposition_exact_at_large_n(n):
    # Koebe's g_n is exactly 0, and with the closed-form Herglotz
    # coefficients the right side and min_g stay at roundoff as n grows
    res = ws.milin_decomposition_check(lw.KoebeChain(), n=n)
    assert abs(res.rhs_extrapolated) <= 1e-12
    assert res.min_g >= -1e-12
    res = ws.milin_decomposition_check(lw.KoebeChain(rho=0.0), n=n)
    assert res.residual / res.lhs <= 1e-12
    assert res.nodes == n // 2 + 2


def test_decomposition_node_doubling():
    # the s-integrand is a polynomial the default rule already integrates
    # exactly, so doubling the nodes only moves the roundoff; at n = 20 and
    # 40 that roundoff exceeds 1e-13 (up to 2.9e-11 on terms summing to
    # 542), so the absolute bound is checked where it holds
    n = 6
    for chain in (lw.KoebeChain(), lw.KoebeChain(rho=0.0)):
        res = ws.milin_decomposition_check(chain, n=n)
        s, w = ws.gauss_legendre_s(2 * res.nodes)
        times = -np.log(s)
        lam = ws._lambda_column(times, n)
        g = [row @ ws.a_k_pairing(chain, t, n) for row, t in zip(lam, times)]
        assert abs(res.rhs_extrapolated - (w / s) @ g) <= 1e-13


def test_gauss_legendre_s_integrates_the_first_kernel_row_at_n_1000():
    # Int_0^inf L[1][n] dt = n, the identity chain's weight (n - k + 1)/k at
    # k = 1; on the decomposition's nodes the rule holds it to roundoff,
    # which takes nodes s near 0 accurate to a relative roundoff, as dt =
    # ds/s reads them
    n = 1000
    s, w = ws.gauss_legendre_s(n // 2 + 2)
    lam = ws._lambda_column(-np.log(s), n)
    assert abs((w / s) @ lam[:, 0] - n) <= 1e-12 * n


def test_gauss_legendre_s_integrates_monomials():
    s, w = ws.gauss_legendre_s(6)
    assert np.all(np.diff(s) < 0) and s.min() > 0 and s.max() < 1
    for j in range(12):
        assert abs(w @ s**j - 1.0 / (j + 1)) < 1e-15


def test_decomposition_g_nonnegative_everywhere():
    kc, n = lw.KoebeChain(), 4
    tc = lw.KoebeChain(rho=0.0)
    for t in np.linspace(0.0, 8.0, 41):
        lam = ws.lambda_rows(t, n)[1:, n]
        assert lam @ ws.a_k_pairing(kc, t, n) >= -1e-8
        assert lam @ ws.a_k_pairing(tc, t, n) >= -1e-8


def test_decomposition_numeric_chain_smoke():
    drv = lw.DrivingFunction.constant(-1.0)
    ch = lw.NumericChain(drv, h=2e-3)
    # the exact route needs closed-form Herglotz coefficients, which numeric chains lack
    with pytest.raises(ChainUnavailable):
        ws.milin_decomposition_check(ch, n=2)


def test_routes_return_the_lambda_rows_table():
    for t in (0.0, 0.7):
        sv = ws.lambda_rows(t, 10, max_k=13)
        fv = ws.lambda_fourier(t, 10, max_k=13)
        lv, ms = ws.lambda_legendre_route(t, 10, max_k=13)
        assert sv.shape == fv.shape == lv.shape == (14, 11)
        assert np.max(np.abs(sv - fv)) < 1e-12
        assert np.max(np.abs(sv - lv)) < 1e-12
        assert np.all(lv[11:] == 0.0) and np.all(fv[11:] == 0.0) and ms >= 0.0
    assert ws.lambda_fourier(0.7, 6, max_k=2).shape == (3, 7)
    assert ws.lambda_legendre_route(0.7, 6, max_k=2)[0].shape == (3, 7)


def test_oracle_triangle_accurate_at_n_40():
    # the squared-Legendre route keeps roundoff accuracy at large n
    worst, min_summand = ws.oracle_triangle([0.5], [ws.lambda_rows(0.5, 40)])
    assert worst <= 1e-12
    assert min_summand >= 0.0


def _lambda_legendre_route_loop(t, N):
    """The squared-Legendre route as four nested scalar loops, the bitwise oracle."""
    ct = math.sqrt(1.0 - math.exp(-t))
    expansions = lg.equal_angle_expansion(N, ct).tolist()
    out = np.zeros((N + 1, N + 1))
    min_summand = math.inf
    for n in range(N + 1):
        target = [0.0] * (n + 1)
        for i in range(n + 1):
            ai, aj = expansions[i], expansions[n - i]
            for ka in range(i + 1):
                if ai[ka] == 0.0:
                    continue
                for lb in range(n - i + 1):
                    s = 0.5 * ai[ka] * aj[lb]
                    min_summand = min(min_summand, s)
                    if ka + lb <= n:
                        target[ka + lb] += s
                    target[abs(ka - lb)] += s
        out[: n + 1, n] = target
        out[1 : n + 1, n] *= 0.5
    return out, min_summand


def _gamma(m):
    """gamma_m = m u/(1 - m u): a sum of m rounded nonnegative products
    lies within gamma_m of the exact sum, relative, in any order."""
    u = 2.0**-53
    return m * u / (1.0 - m * u)


def _column_summands(N):
    """The number of products per column n = 0..N, a bound on the terms of
    each entry in either the loop's or the convolution's order."""
    return np.array(
        [sum((2 * i + 1) * (2 * (n - i) + 1) for i in range(n + 1)) for n in range(N + 1)]
    )


def _lambda_legendre_route_exact(t, N):
    """The squared-Legendre route's sums in exact rational arithmetic over
    the same float weights: entry (k, n) = sum over i of the e^{ik phi}
    coefficient of the product of the cosine series of rows i and n - i."""
    ct = math.sqrt(1.0 - math.exp(-t))
    rows = lg.equal_angle_expansion(N, ct).tolist()
    spec = [
        {k: Fraction(row[abs(k)]) / (1 if k == 0 else 2) for k in range(-i, i + 1)}
        for i, row in enumerate(rows)
    ]
    out = [[Fraction(0)] * (N + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        for i in range(n + 1):
            for ka, a in spec[i].items():
                for lb, b in spec[n - i].items():
                    if ka + lb >= 0:
                        out[ka + lb][n] += a * b
    return out


def test_legendre_route_bitwise_against_the_scalar_loop():
    # the least summand is the loop's bit for bit; the entries are sums of
    # nonnegative products in another order, so each lies within 2 gamma_m
    # of the loop's, and for N <= 12 within gamma_m of the exact sum
    for t in (0.0, 0.05, 0.5, 1.0, 2.0, 3.0):
        for N in (0, 1, 12, 30):
            tab, ms = ws.lambda_legendre_route(t, N)
            want, want_ms = _lambda_legendre_route_loop(t, N)
            gam = _gamma(_column_summands(N))
            assert np.all(np.abs(tab - want) <= 2.0 * gam * want), (t, N)
            assert ms == want_ms, (t, N)
            if N <= 12:
                exact = _lambda_legendre_route_exact(t, N)
                for k in range(N + 1):
                    for n in range(N + 1):
                        err = abs(Fraction(tab[k, n]) - exact[k][n])
                        assert err <= Fraction(gam[n]) * exact[k][n], (t, N, k, n)


def test_oracle_triangle_accurate_at_n_200():
    worst, min_summand = ws.oracle_triangle([0.5], [ws.lambda_rows(0.5, 200)])
    assert worst <= 1e-12
    assert min_summand >= 0.0


def test_fourier_route_accurate_at_n_500():
    # Q grows with N, so the Fourier route has no largest N; the closed-form
    # U_n keeps it within 4.9e-14 of the series route, where the three-term
    # recurrence drifted to 1.4e-12
    gap = np.max(np.abs(ws.lambda_fourier(0.5, 500) - ws.lambda_rows(0.5, 500)))
    assert gap <= 2e-13


def test_lambda_exact_is_the_table():
    # at t = 0, w = z: L[k][n] = 1 when n - k is even, else 0
    assert lambda_exact(Fraction(1), 12) == [1 - (12 - k) % 2 for k in range(13)]
    for t in (0.3, 2.0):
        exact = lambda_exact(Fraction(math.exp(-t)), 12)
        assert np.max(np.abs(np.array(exact, dtype=float) - ws.lambda_rows(t, 12)[:, 12])) <= 1e-15


def test_decomposition_column_against_de_branges_closed_form():
    # the column the decomposition reads at n = 300, at its first node
    # (t = 6e-5), the node nearest t = 0.7 and its last node (t = 9.7),
    # against exact rationals at the float s = e^{-t}; lambda_rows errs
    # 2e-11 at the last node
    n = 300
    s, _ = ws.gauss_legendre_s(n // 2 + 2)
    times = -np.log(s)
    picked = times[[0, int(np.argmin(np.abs(times - 0.7))), -1]]
    lam = ws._lambda_column(picked, n)
    for t, col in zip(picked, lam):
        exact = lambda_exact(Fraction(math.exp(-t)), n)[1:]
        bound = 1e-13 * max(1.0, max(abs(float(v)) for v in exact))
        err = max(abs(Fraction(float(v)) - e) for v, e in zip(col, exact))
        assert err <= bound, (t, float(err))


def test_decomposition_column_is_bounded_in_memory_and_equals_one_transform():
    # n = 1000 has 502 nodes on a 4096-point grid: one (502, 4096) transform
    # traces 98 MiB, the blocks of at most 2^18 grid values about 16 MiB
    n = 1000
    s, _ = ws.gauss_legendre_s(n // 2 + 2)
    times = -np.log(s)
    tracemalloc.start()
    try:
        lam = ws._lambda_column(times, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    Q = 1 << (4 * n + 1).bit_length()
    one = np.fft.rfft(ws._u_on_grid(times, n, Q), axis=1)[:, 1 : n + 1].real / Q
    assert np.array_equal(lam.view(np.uint64), one.view(np.uint64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_angle_raises_without_a_warning():
    # m theta overflows: each closed-form power w^m is not finite
    chain = lw.KoebeChain(1.0, 1e308)
    calls = (
        lambda: ws.a_k_pairing(chain, 0.5, 4),
        lambda: chain.herglotz_coeffs(0.5, 4),
        lambda: chain.log_coeffs(0.5, 4),
        lambda: fn.pair_log_coefficients(0, 1.0, 1e308, 4),
        lambda: uv.from_quotient(0, 1.0, 1e308, 4),
    )
    for call in calls:
        with pytest.raises(NonFiniteCoefficients, match="coefficients must be finite"):
            call()
