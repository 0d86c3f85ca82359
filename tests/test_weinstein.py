import math

import numpy as np
import pytest

from references import lambda_series
from schlicht import legendre as lg
from schlicht import loewner as lw
from schlicht.errors import (
    ChainUnavailable,
    ImaginaryResidue,
    ParamOutOfRange,
    QuadratureUnderresolved,
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


def test_cos_delta_range():
    phi = np.linspace(0, 2 * np.pi, 64)
    for t in (0.0, 0.5, 3.0):
        x = ws.cos_delta(t, phi)
        assert x.min() >= 1.0 - 2.0 * math.exp(-t) - 1e-12
        assert x.max() <= 1.0 + 1e-12


def test_legendre_route_values():
    tab, ms = ws.lambda_legendre_route(0.5, 3)
    assert tab.shape == (4, 4)
    assert abs(tab[3, 3] - math.exp(-1.5)) < 1e-12
    assert ms >= 0.0
    tab, _ = ws.lambda_legendre_route(0.3, 0)
    assert abs(tab[0, 0] - 1.0) < 1e-14


def test_oracle_triangle_grid():
    worst, min_summand = ws.oracle_triangle([0.0, 0.5, 1.0, 2.0], 8)
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
    with pytest.raises(QuadratureUnderresolved):
        ws.lambda_fourier(0.5, 600)
    with pytest.raises(ParamOutOfRange):
        ws.cos_delta(-1.0, np.array([np.pi]))
    with pytest.raises(ImaginaryResidue):
        ws._real(np.array([1.0 + 1e-9j]))
    with pytest.raises(ParamOutOfRange):
        ws.milin_decomposition_check(uv.koebe(32), lw.KoebeChain(), n=0)
    for t in (-0.5, math.nan):
        with pytest.raises(ParamOutOfRange):
            ws.lambda_rows(t, 4)


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
    # p = (1 - z)/(1 + z) = 1 - 2z + 2z^2 - ...
    p = ws.herglotz_coeffs(lw.KoebeChain(), 0.8, 8)
    want = np.r_[1.0, -2.0 * (-1.0) ** np.arange(8)]
    assert np.max(np.abs(p - want)) < 1e-13


def test_pairing_matches_quadrature_oracle():
    for chain in (lw.KoebeChain(), lw.TrivialChain()):
        for t in (0.5, 1.7):
            for r in (0.9, 0.99, 0.999):
                quad = ws._a_k_row(chain, t, r, 2048, 12)
                pair = ws.a_k_pairing(chain, t, 12, r)
                assert np.max(np.abs(quad - pair)) <= 1e-12


def test_pairing_limits_at_r_one():
    kc, tc = lw.KoebeChain(), lw.TrivialChain()
    for t in (0.0, 0.5, 1.7, 4.0):
        assert np.max(np.abs(ws.a_k_pairing(kc, t, 12))) <= 1e-12
        assert np.max(np.abs(ws.a_k_pairing(tc, t, 12) - 4.0)) <= 1e-12


def test_a_k_trivial_chain_is_four():
    tc = lw.TrivialChain()
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
    vals, z1 = kc.boundary_values(0.5, 0.95, 256)
    p = kc.p_values(z1)
    assert p.real.min() > 0  # integrand = Re p times a square, so >= 0


def test_decomposition_koebe():
    n = 6
    res = ws.milin_decomposition_check(uv.koebe(32), lw.KoebeChain(), n=n)
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
    res = ws.milin_decomposition_check(uv.identity_map(32), lw.TrivialChain(), n=n)
    kk = np.arange(1, n + 1)
    assert abs(res.lhs - float(np.sum(4.0 / kk * (n - kk + 1)))) < 1e-12
    assert res.residual / res.lhs <= 1e-12
    assert res.min_g >= -1e-8


@pytest.mark.parametrize("n", [6, 20, 40])
def test_decomposition_exact_at_large_n(n):
    order = max(4 * n, 32)
    res = ws.milin_decomposition_check(uv.koebe(order), lw.KoebeChain(), n=n)
    assert abs(res.rhs_extrapolated) <= 1e-10
    res = ws.milin_decomposition_check(uv.identity_map(order), lw.TrivialChain(), n=n)
    assert res.residual / res.lhs <= 1e-12
    assert res.nodes == n // 2 + 2


def test_decomposition_node_doubling():
    # the s-integrand is a polynomial the default rule already integrates
    # exactly, so doubling the nodes only moves the roundoff; at n = 20 and
    # 40 that roundoff exceeds 1e-13 (up to 2.9e-11 on terms summing to
    # 542), so the absolute bound is checked where it holds
    n = 6
    for f, chain in ((uv.koebe(32), lw.KoebeChain()), (uv.identity_map(32), lw.TrivialChain())):
        res = ws.milin_decomposition_check(f, chain, n=n)
        s, w = ws.gauss_legendre_s(2 * res.nodes)
        g = [ws.lambda_rows(t, n)[1:, n] @ ws.a_k_pairing(chain, t, n) for t in -np.log(s)]
        assert abs(res.rhs_extrapolated - (w / s) @ g) <= 1e-13


def test_gauss_legendre_s_integrates_monomials():
    s, w = ws.gauss_legendre_s(6)
    assert np.all(np.diff(s) < 0) and s.min() > 0 and s.max() < 1
    for j in range(12):
        assert abs(w @ s**j - 1.0 / (j + 1)) < 1e-15


def test_decomposition_g_nonnegative_everywhere():
    kc, n = lw.KoebeChain(), 4
    tc = lw.TrivialChain()
    for t in np.linspace(0.0, 8.0, 41):
        lam = ws.lambda_rows(t, n)[1:, n]
        assert lam @ ws.a_k_pairing(kc, t, n) >= -1e-8
        assert lam @ ws.a_k_pairing(tc, t, n) >= -1e-8


def test_decomposition_numeric_chain_smoke():
    # the constant -1 driving regenerates the koebe chain; compare A_k at a
    # moderate radius where the numeric boundary data is well resolved
    drv = lw.DrivingFunction.constant(-1.0)
    ch = lw.NumericChain(drv, h=2e-3)
    got = ws._a_k_row(ch, 0.5, 0.9, 64, 2)
    want = ws._a_k_row(lw.KoebeChain(), 0.5, 0.9, 64, 2)
    assert np.max(np.abs(got - want)) < 5e-3
    # the exact route needs closed-form series in t, which numeric chains lack
    with pytest.raises(ChainUnavailable):
        ws.milin_decomposition_check(uv.koebe(32), ch, n=2)


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
    worst, min_summand = ws.oracle_triangle([0.5], 40)
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


def test_legendre_route_bitwise_against_the_scalar_loop():
    for t in (0.0, 0.05, 0.5, 1.0, 2.0, 3.0):
        for N in (0, 1, 12, 30):
            tab, ms = ws.lambda_legendre_route(t, N)
            want, want_ms = _lambda_legendre_route_loop(t, N)
            assert np.array_equal(tab.view(np.uint64), want.view(np.uint64)), (t, N)
            assert ms == want_ms, (t, N)
