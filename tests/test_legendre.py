import math
from fractions import Fraction

import numpy as np
import pytest

from schlicht import legendre as lg
from schlicht.errors import (
    DegreeTooLarge,
    OrderOutOfRange,
    ParamOutOfRange,
    QuadratureUnderresolved,
)

# cos t = 3/5 makes sin t = 4/5 rational, so P_n^m(3/5) is an exact fraction
X, SX = Fraction(3, 5), Fraction(4, 5)


def _exact_assoc(n, m):
    """P_n^m(3/5) from the exact coefficients, Condon-Shortley phase."""
    d = list(lg.legendre_poly(n).coeffs)
    for _ in range(abs(m)):
        d = [i * q for i, q in enumerate(d)][1:]
    v = (-1) ** abs(m) * SX ** abs(m) * sum(q * X**i for i, q in enumerate(d))
    if m < 0:
        v *= (-1) ** m * Fraction(math.factorial(n + m), math.factorial(n - m))
    return v


def test_first_three_polynomials():
    assert lg.legendre_poly(0).coeffs == (Fraction(1),)
    assert lg.legendre_poly(1).coeffs == (Fraction(0), Fraction(1))
    assert lg.legendre_poly(2).coeffs == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))


def test_value_at_one_is_exactly_one():
    for n in range(21):
        assert lg.legendre_value(n, 1.0) == 1.0


def test_p2_at_half():
    assert lg.legendre_value(2, 0.5) == -0.125


def test_parity_exact():
    for n in range(1, 21):
        coeffs = lg.legendre_poly(n).coeffs
        for j in range(n + 1):
            if (n - j) % 2 == 1:
                assert coeffs[j] == 0


def test_rodrigues_equals_recurrence_equals_sum():
    for n in range(21):
        assert lg.rodrigues_coeffs(n) == lg.legendre_poly(n).coeffs
        assert lg.explicit_sum_coeffs(n) == lg.legendre_poly(n).coeffs


def test_degree_guard():
    with pytest.raises(DegreeTooLarge):
        lg.legendre_poly(65)


def test_assoc_values():
    assert abs(lg.assoc_legendre(2, 1, 0.6) + 1.44) < 1e-14
    assert abs(lg.assoc_legendre(2, -1, 0.6) - 0.24) < 1e-14
    for n in range(6):
        for x in (-0.8, 0.1, 0.9):
            assert lg.assoc_legendre(n, 0, x) == lg.legendre_value(n, x)


def test_assoc_order_guard():
    with pytest.raises(OrderOutOfRange):
        lg.assoc_legendre(2, 3, 0.5)


def test_assoc_domain_guard():
    for m in (1, -1, 3):
        for x in (1.0 + 2**-52, -1.5, math.nan, np.array([0.2, 1.1])):
            with pytest.raises(ParamOutOfRange):
                lg.assoc_legendre(3, m, x)
    assert lg.assoc_legendre(3, 1, 1.0) == 0.0
    assert lg.assoc_legendre(3, 0, 2.0) == lg.legendre_value(3, 2.0) == 17.0


def test_value_outside_unit_interval():
    # Bonnet's recurrence holds for every real x
    assert lg.legendre_value(2, 1.5) == 2.875
    assert lg.legendre_value(4, -2.0) == 55.375
    assert lg.legendre_value(64, 1.0 + 2**-52) >= 1.0


def test_negative_order_identity_against_direct_route():
    xs = np.linspace(-0.98, 0.98, 50)
    for n in range(1, 11):
        for m in range(1, n + 1):
            direct = lg.assoc_legendre_direct(n, -m, xs)
            via = lg.assoc_legendre(n, -m, xs)
            assert np.max(np.abs(direct - via)) < 1e-10


def test_generating_function_values():
    v = lg.generating_partial_sum(0.3, 0.2, 30)
    assert abs(v - 1.0 / math.sqrt(0.92)) < 1e-10
    assert lg.generating_partial_sum(0.5, 0.0, 10) == 1.0
    assert abs(lg.generating_partial_sum(1.0, 0.5, 40) - 2.0) < 1e-10


def test_schlafli_matches_polynomial():
    assert abs(lg.schlafli_coeff(2, 0.5) + 0.125) < 1e-8
    assert abs(lg.schlafli_coeff(0, 0.77) - 1.0) < 1e-12
    for n in (5, 12, 20):
        for z in (-0.9, 0.1, 0.9):
            assert abs(lg.schlafli_coeff(n, z) - lg.legendre_value(n, z)) < 1e-8


def test_schlafli_high_degree_matches_recurrence():
    for n in (35, 50, 64):
        assert abs(lg.schlafli_coeff(n, 0.9) - lg.legendre_value(n, 0.9)) < 1e-8


def test_schlafli_complex_argument():
    z = 0.3 + 0.4j
    coeffs = np.array([float(q) for q in lg.legendre_poly(7).coeffs])
    expect = np.polynomial.polynomial.polyval(z, coeffs)
    assert abs(lg.schlafli_coeff(7, z) - expect) < 1e-8


def test_schlafli_underresolved_guard():
    # the 512-node trapezoid resolves degrees below 256 only
    with pytest.raises(QuadratureUnderresolved):
        lg.schlafli_coeff(256, 0.5)


def test_ode_residual():
    for n, x in ((1, 0.3), (4, 0.7), (10, -0.2), (20, 0.95), (64, 0.9), (7, 1.5)):
        assert lg.ode_residual(n, x) == 0.0


def test_addition_theorem_equal_angles_phi_zero():
    for n in (1, 4, 9):
        assert lg.addition_theorem_residual(0.8, 0.8, 0.0, n) < 1e-10


def test_addition_theorem_general():
    assert lg.addition_theorem_residual(math.pi / 3, math.pi / 3, 1.1, 2) < 1e-10
    assert lg.addition_theorem_residual(0.4, 1.2, 2.5, 7) < 1e-9


def test_addition_theorem_grid():
    t = np.linspace(0.1, math.pi - 0.1, 5)
    phis = 2 * math.pi * np.arange(8) / 8
    worst = max(
        np.max(lg.addition_theorem_residual(t[:, None, None], t[:, None], phis, n))
        for n in range(1, 11)
    )
    assert worst < 1e-9
    # this grid point rounds cos t1 cos t2 + sin t1 sin t2 cos phi to 1 + 2^-52
    assert lg.addition_theorem_residual(t[1], t[1], 0.0, 10) < 1e-13


def test_addition_theorem_high_degree():
    t = np.linspace(0.2, math.pi - 0.2, 3)
    phis = np.array([0.0, 0.7, 2.9])
    for n in (40, 64):
        assert np.max(lg.addition_theorem_residual(t[:, None, None], t[:, None], phis, n)) <= 1e-11


def test_values_exact_to_max_degree():
    for n in range(lg.MAX_DEGREE + 1):
        ref = float(_exact_assoc(n, 0))
        assert abs(lg.legendre_value(n, 0.6) - ref) <= 1e-12 * abs(ref)
        assert lg.legendre_poly(n)(np.array([0.6]))[0] == lg.legendre_value(n, 0.6)


def test_assoc_values_exact_to_max_degree():
    for n in (1, 7, 20, 35, 50, 64):
        for m in sorted({1, 2, n // 3, n // 2, n - 1, n} & set(range(1, n + 1))):
            for sign in (1, -1):
                ref = float(_exact_assoc(n, sign * m))
                assert ref != 0.0
                got = lg.assoc_legendre(n, sign * m, 0.6)
                assert abs(got - ref) <= 1e-12 * abs(ref), (n, sign * m)


def test_orthogonality():
    xs = np.linspace(-1.0, 1.0, 4097)
    w = np.ones_like(xs)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (xs[1] - xs[0]) / 3.0
    vals = [lg.legendre_poly(n)(xs) for n in range(13)]
    for n in range(13):
        for m in range(n, 13):
            ip = float(np.sum(w * vals[n] * vals[m]))
            expect = 2.0 / (2 * n + 1) if n == m else 0.0
            assert abs(ip - expect) < 1e-9


def test_equal_angle_expansion_matches_direct():
    ct = math.sqrt(1 - math.exp(-0.8))
    W = lg.equal_angle_expansion(10, ct)
    assert W.shape == (11, 11)
    assert W.min() >= 0.0
    for n in (2, 6, 10):
        w = W[n]
        assert np.all(w[n + 1 :] == 0.0)
        for k in range(1, n + 1):
            ratio = math.factorial(n - k) / math.factorial(n + k)
            assert abs(w[k] - 2.0 * ratio * lg.assoc_legendre(n, k, ct) ** 2) < 1e-13
        for phi in (0.0, 0.9, 2.2):
            direct = lg.legendre_value(n, ct * ct + (1 - ct * ct) * math.cos(phi))
            via = w[0] + sum(w[k] * math.cos(k * phi) for k in range(1, n + 1))
            assert abs(direct - via) < 1e-12


def test_equal_angle_expansion_exact_at_rational_angle():
    # cos t = 3/5 makes sin t = 4/5 rational, so every weight
    # 2 (n-k)!/(n+k)! (sin^k t P_n^(k)(cos t))^2 is an exact fraction
    x, sx = Fraction(3, 5), Fraction(4, 5)
    W = lg.equal_angle_expansion(40, 0.6)
    worst = 0.0
    for n in range(41):
        d = list(lg.legendre_poly(n).coeffs)
        for k in range(n + 1):
            v = sum(q * x**i for i, q in enumerate(d)) * sx**k
            ref = v * v * (1 if k == 0 else Fraction(2 * math.factorial(n - k), math.factorial(n + k)))
            if ref:
                worst = max(worst, abs(W[n, k] - float(ref)) / float(ref))
            else:
                assert W[n, k] == 0.0
            d = [i * q for i, q in enumerate(d)][1:]  # next derivative
    assert worst < 1e-12


def _table_loop_expansion(N, c):
    """The full (N+2, N+1) table loop the row generator replaced, as a bitwise oracle."""
    s = math.sqrt(1.0 - c * c)
    S = np.zeros((N + 2, N + 1))  # the last row stays 0 and serves as S_{-1}
    S[0, 0] = 1.0
    for n in range(1, N + 1):
        k = np.arange(n)
        S[n, n] = s if n == 1 else S[n - 1, n - 1] * s * math.sqrt((2 * n - 1) / (2 * n))
        S[n, :n] = (2 * n - 1) * c * S[n - 1, :n] - np.sqrt((n - 1) ** 2 - k**2) * S[n - 2, :n]
        S[n, :n] /= np.sqrt(n * n - k**2)
    return S[: N + 1] ** 2


def test_equal_angle_expansion_bitwise_against_table_loop():
    for N in (0, 1, 12, 40, 64):
        for c in (0.0, 0.6, 1.0, -0.7, math.sqrt(1 - math.exp(-0.8))):
            got = lg.equal_angle_expansion(N, c)
            want = _table_loop_expansion(N, c)
            assert got.shape == want.shape == (N + 1, N + 1)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (N, c)
