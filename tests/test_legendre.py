import math
from fractions import Fraction

import numpy as np
import pytest

from schlicht import legendre as lg
from schlicht.errors import DegreeTooLarge, OrderOutOfRange, QuadratureUnderresolved


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
    assert lg.ode_residual(1, 0.3) == 0.0
    for n, x in ((4, 0.7), (10, -0.2), (20, 0.95)):
        assert abs(lg.ode_residual(n, x)) < 1e-9


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
        lg.addition_theorem_residual(a, b, p, n)
        for n in range(1, 11)
        for a in t
        for b in t
        for p in phis
    )
    assert worst < 1e-9


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
