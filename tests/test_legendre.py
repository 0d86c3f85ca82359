import math
from fractions import Fraction

import numpy as np
import pytest

from references import last_column
from schlicht import legendre as lg
from schlicht.errors import (
    DegreeTooLarge,
    OrderOutOfRange,
    ParamOutOfRange,
    QuadratureUnderresolved,
)

# cos t = 3/5 makes sin t = 4/5 rational, so P_n^m(3/5) is an exact fraction
X, SX = Fraction(3, 5), Fraction(4, 5)


def _p(n, x):
    """P_n(x) as the suites read it: entry [n, ..., 0] of the table; |x| <= 1."""
    return lg.seminormalized_table(n, x)[n, ..., 0]


def _assoc(n, m, x):
    """P_n^m(x) as the suites read it: S_n^|m|(x), times assoc_scale(n, m) for m != 0."""
    s = lg.seminormalized_table(n, x)[n, ..., abs(m)]
    return s * lg.assoc_scale(n, m) if m else s


def _exact_assoc(n, m):
    """P_n^m(3/5) from the exact coefficients, Condon-Shortley phase."""
    d = list(lg.legendre_poly(n))
    for _ in range(abs(m)):
        d = [i * q for i, q in enumerate(d)][1:]
    v = (-1) ** abs(m) * SX ** abs(m) * sum(q * X**i for i, q in enumerate(d))
    if m < 0:
        v *= (-1) ** m * Fraction(math.factorial(n + m), math.factorial(n - m))
    return v


def test_first_three_polynomials():
    assert lg.legendre_poly(0) == (Fraction(1),)
    assert lg.legendre_poly(1) == (Fraction(0), Fraction(1))
    assert lg.legendre_poly(2) == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))


def test_value_at_one_is_exactly_one():
    for n in range(21):
        assert _p(n, 1.0) == 1.0


def test_p2_at_half():
    assert _p(2, 0.5) == -0.125


def test_parity_exact():
    for n in range(1, 21):
        coeffs = lg.legendre_poly(n)
        for j in range(n + 1):
            if (n - j) % 2 == 1:
                assert coeffs[j] == 0


def test_rodrigues_equals_recurrence_equals_sum():
    for n in range(21):
        assert lg.rodrigues_coeffs(n) == lg.legendre_poly(n)
        assert lg.explicit_sum_coeffs(n) == lg.legendre_poly(n)


def test_degree_guard():
    with pytest.raises(DegreeTooLarge):
        lg.legendre_poly(65)


def test_assoc_values():
    # P_2^1(x) = -3x sqrt(1 - x^2) and P_2^{-1} = P_2^1 / -6
    assert abs(_assoc(2, 1, 0.6) + 1.44) < 1e-14
    assert abs(_assoc(2, -1, 0.6) - 0.24) < 1e-14


def test_assoc_order_guard():
    with pytest.raises(OrderOutOfRange):
        lg.assoc_legendre_direct(2, 3, 0.5)


def test_assoc_domain_guard():
    # the associated columns take sqrt(1 - x^2), so the table needs |x| <= 1
    for x in (1.0 + 2**-52, -1.5, math.nan, np.array([0.2, 1.1])):
        with pytest.raises(ParamOutOfRange):
            lg.seminormalized_table(3, x)
    assert lg.seminormalized_table(3, 1.0)[3, 1] == 0.0


def test_value_outside_unit_interval():
    # column 0 alone is Bonnet's recurrence, which holds for every real x
    assert last_column(2, 1.5, 0) == 2.875
    assert last_column(3, 2.0, 0) == 17.0
    assert last_column(4, -2.0, 0) == 55.375
    assert last_column(64, 1.0 + 2**-52, 0) >= 1.0


def test_negative_order_identity_against_direct_route():
    xs = np.linspace(-0.98, 0.98, 50)
    for n in range(1, 11):
        for m in range(1, n + 1):
            direct = lg.assoc_legendre_direct(n, -m, xs)
            via = lg.seminormalized_table(n, xs)[n, :, m] * lg.assoc_scale(n, -m)
            assert np.max(np.abs(direct - via)) < 1e-10


def test_schlafli_accuracy_at_the_ends_of_the_interval():
    # the docstring's figures: near z = +-1 the trapezoid loses digits as n grows
    for z in (1.0, -1.0):
        assert abs(lg.schlafli_coeff(20, z) - _p(20, z)) < 1e-12
    assert abs(lg.schlafli_coeff(40, 1.0) - _p(40, 1.0)) < 1e-9
    assert abs(lg.schlafli_coeff(50, 1.0) - _p(50, 1.0)) < 1e-7


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
            assert abs(lg.schlafli_coeff(n, z) - _p(n, z)) < 1e-8


def test_schlafli_high_degree_matches_recurrence():
    for n in (35, 50, 64):
        assert abs(lg.schlafli_coeff(n, 0.9) - _p(n, 0.9)) < 1e-8


def test_schlafli_complex_argument():
    z = 0.3 + 0.4j
    coeffs = np.array([float(q) for q in lg.legendre_poly(7)])
    expect = np.polynomial.polynomial.polyval(z, coeffs)
    assert abs(lg.schlafli_coeff(7, z) - expect) < 1e-8


def test_schlafli_underresolved_guard():
    # the 512-node trapezoid resolves degrees below 256 only
    with pytest.raises(QuadratureUnderresolved):
        lg.schlafli_coeff(256, 0.5)
    with pytest.raises(QuadratureUnderresolved, match="degree 300"):
        lg.schlafli_coeff(np.array([3, 300]), 0.5)


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
        assert abs(_p(n, 0.6) - ref) <= 1e-12 * abs(ref)


def test_assoc_values_exact_to_max_degree():
    for n in (1, 7, 20, 35, 50, 64):
        for m in sorted({1, 2, n // 3, n // 2, n - 1, n} & set(range(1, n + 1))):
            for sign in (1, -1):
                ref = float(_exact_assoc(n, sign * m))
                assert ref != 0.0
                got = _assoc(n, sign * m, 0.6)
                assert abs(got - ref) <= 1e-12 * abs(ref), (n, sign * m)


def test_orthogonality():
    # 13-node Gauss-Legendre is exact for these products of degree <= 24
    xs, w = np.polynomial.legendre.leggauss(13)
    vals = lg.seminormalized_table(12, xs)[:, :, 0]
    for n in range(13):
        for m in range(n, 13):
            ip = float(np.sum(w * vals[n] * vals[m]))
            expect = 2.0 / (2 * n + 1) if n == m else 0.0
            assert abs(ip - expect) < 1e-14


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
            assert abs(w[k] - 2.0 * ratio * _assoc(n, k, ct) ** 2) < 1e-13
        for phi in (0.0, 0.9, 2.2):
            direct = _p(n, ct * ct + (1 - ct * ct) * math.cos(phi))
            via = w[0] + sum(w[k] * math.cos(k * phi) for k in range(1, n + 1))
            assert abs(direct - via) < 1e-12


def test_equal_angle_expansion_exact_at_rational_angle():
    # cos t = 3/5 makes sin t = 4/5 rational, so every weight
    # 2 (n-k)!/(n+k)! (sin^k t P_n^(k)(cos t))^2 is an exact fraction
    x, sx = Fraction(3, 5), Fraction(4, 5)
    W = lg.equal_angle_expansion(40, 0.6)
    worst = 0.0
    for n in range(41):
        d = list(lg.legendre_poly(n))
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


def test_seminormalized_table_is_the_one_value_routes_bit_for_bit():
    xs = np.array([-1.0, -0.95, -0.3, 0.0, 0.3, 0.6, 0.9, 1.0])
    table = lg.seminormalized_table(20, xs)
    assert table.shape == (21, xs.size, 21)
    for n in range(21):
        assert np.all(table[n, :, n + 1 :] == 0.0)
        for i, x in enumerate(xs):
            assert table[n, i, 0] == last_column(n, x, 0)
        for k in range(n + 1):
            one = last_column(n, xs, k)
            assert np.array_equal(table[n, :, k].view(np.uint64), one.view(np.uint64))


def test_addition_theorem_residual_bitwise_against_per_order_values():
    # the residual as a sum of P_n^k values, one recurrence per order
    def assoc(n, m, x):
        return last_column(n, x, abs(m)) * lg.assoc_scale(n, m)

    def per_order(theta1, theta2, phi, n):
        c1, c2 = np.cos(theta1), np.cos(theta2)
        s1, s2 = np.sin(theta1), np.sin(theta2)
        rhs = last_column(n, c1, 0) * last_column(n, c2, 0)
        for k in range(1, n + 1):
            rhs = rhs + (
                2.0 * (-1) ** k * assoc(n, -k, c1) * assoc(n, k, c2) * np.cos(k * phi)
            )
        return np.abs(last_column(n, c1 * c2 + s1 * s2 * np.cos(phi), 0) - rhs)

    t = np.linspace(0.1, math.pi - 0.1, 5)
    phis = 2 * math.pi * np.arange(8) / 8
    for n in range(0, 21):
        got = lg.addition_theorem_residual(t[:, None, None], t[:, None], phis, n)
        want = per_order(t[:, None, None], t[:, None], phis, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def test_addition_theorem_residual_over_degrees_is_the_one_degree_value():
    t = np.linspace(0.1, math.pi - 0.1, 5)
    phis = 2 * math.pi * np.arange(8) / 8
    for degrees in (np.arange(1, 11), np.array([7, 0, 3, 20, 3]), np.array([5])):
        got = lg.addition_theorem_residual(t[:, None, None], t[:, None], phis, degrees)
        assert got.shape == degrees.shape + (5, 5, 8)
        for n, row in zip(degrees.tolist(), got):
            one = lg.addition_theorem_residual(t[:, None, None], t[:, None], phis, n)
            assert np.array_equal(row.view(np.uint64), one.view(np.uint64)), n
    # scalar angles broadcast too
    got = lg.addition_theorem_residual(0.4, 1.2, 2.5, np.arange(8))
    assert got.shape == (8,)
    assert np.all(got < 1e-9)


def test_schlafli_over_an_array_is_the_scalar_value():
    zs = np.array([-0.95, -0.3, 0.0, 0.5, 0.9, 0.3 + 0.4j, 2.0])
    for n in (0, 1, 7, 20, 40):
        got = lg.schlafli_coeff(n, zs)
        assert got.shape == zs.shape
        assert got.tolist() == [lg.schlafli_coeff(n, z) for z in zs.tolist()]


def test_schlafli_over_degrees_is_each_degree_value():
    # one pass over the degrees gives each one-degree call bit for bit
    zs = np.array([-0.95, -0.3, 0.0, 0.5, 0.9])
    got = lg.schlafli_coeff(np.arange(21), zs)
    assert got.shape == (21, 5)
    assert got.tolist() == [lg.schlafli_coeff(n, zs).tolist() for n in range(21)]
    odd = np.array([0.3 + 0.4j, 2.0, -1.0])
    assert lg.schlafli_coeff(np.array([40, 7]), odd).tolist() == [
        lg.schlafli_coeff(n, odd).tolist() for n in (40, 7)
    ]
    assert lg.schlafli_coeff(np.arange(3), 0.5).tolist() == [
        lg.schlafli_coeff(n, 0.5) for n in range(3)
    ]


def test_schlafli_scalar_degree_values_are_pinned():
    # a scalar degree gives a complex (an array over an array of points),
    # and these values, bit for bit, from before degree arrays were taken
    assert type(lg.schlafli_coeff(2, 0.5)) is complex
    assert lg.schlafli_coeff(2, 0.5) == complex(-0.12500000000000003, 9.215718466126788e-19)
    assert lg.schlafli_coeff(20, 1.0) == complex(0.9999999999998908, 9.360567876370851e-15)
    assert lg.schlafli_coeff(7, 0.3 + 0.4j) == complex(-2.6520740812500008, 1.384099975)
    assert lg.schlafli_coeff(5, np.array([0.5, -1.0])).tolist() == [
        complex(0.08984375, -2.9680034471790684e-18),
        complex(-1, -1.588356182691264e-17),
    ]
