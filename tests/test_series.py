import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import (
    DivisionByNonUnit,
    InnerNotVanishing,
    NotInvertibleAtOrigin,
    coeffs_close,
    compose,
    div,
    exp,
    identity,
    one,
    revert,
)
from schlicht import series as ps
from schlicht import univalent as uv
from schlicht.errors import (
    BranchPointAtOrigin,
    NonFiniteCoefficients,
    OrderMismatch,
    RadiusExceeded,
    SchlichtError,
)
from schlicht.series import PowerSeries


def koebe_series(order):
    return PowerSeries(np.arange(order + 1, dtype=complex))


def test_mul_binomial_square():
    a = PowerSeries([1, 1, 0])
    assert coeffs_close(a * a, PowerSeries([1, 2, 1]))


def test_mul_koebe_times_one_minus_z_squared():
    k = koebe_series(8)
    q = PowerSeries([1, -2, 1] + [0] * 6)
    assert coeffs_close(k * q, identity(8))


def test_div_recovers_koebe():
    # long-division oracle: z/(1-z)^2 has coefficient n at degree n
    q = PowerSeries([1, -2, 1] + [0] * 6)
    d = div(identity(8), q)
    assert coeffs_close(d, koebe_series(8))


def test_div_near_zero_unit_raises():
    b = PowerSeries([1e-15, 1.0, 0.0])
    with pytest.raises(DivisionByNonUnit):
        div(one(2), b)


def test_non_finite_coefficients_are_a_numeric_error():
    # an overflowing subject exits 3 through the CLI, not with a traceback
    assert issubclass(NonFiniteCoefficients, SchlichtError)
    for bad in ([0, 1, np.inf], [0, 1, complex(0, np.nan)]):
        with pytest.raises(NonFiniteCoefficients, match="coefficients must be finite"):
            PowerSeries(bad)


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatch):
        PowerSeries([1, 2]) * PowerSeries([1, 2, 3])


def test_exp_of_zero():
    e = exp(PowerSeries(np.zeros(6)))
    assert coeffs_close(e, one(5))


def test_log_of_koebe_over_z():
    # log(1/(1-z)^2) = 2 sum z^k / k
    F = PowerSeries(np.arange(1, 9, dtype=complex))  # 1 + 2z + 3z^2 + ...
    L = ps.log(F)
    expect = PowerSeries([0] + [2.0 / k for k in range(1, 8)])
    assert coeffs_close(L, expect, tol=1e-12)


def test_sqrt_perfect_square():
    s = ps.sqrt(PowerSeries([1, 2, 1]))
    assert coeffs_close(s, PowerSeries([1, 1, 0]))


def test_branch_point_errors():
    with pytest.raises(BranchPointAtOrigin):
        exp(one(3))
    with pytest.raises(BranchPointAtOrigin):
        ps.log(PowerSeries(np.zeros(4)))
    with pytest.raises(BranchPointAtOrigin):
        ps.sqrt(identity(3))


def test_compose_identity():
    a = PowerSeries([0.3, 1.0, -2.5, 0.7j])
    assert coeffs_close(compose(a, identity(3)), a)


def test_compose_koebe_with_z_squared():
    # substituting z^2 into sum n z^n puts n at degree 2n
    k = koebe_series(8)
    z2 = PowerSeries([0, 0, 1] + [0] * 6)
    c = compose(k, z2)
    expect = np.zeros(9, dtype=complex)
    expect[2], expect[4], expect[6], expect[8] = 1, 2, 3, 4
    assert coeffs_close(c, PowerSeries(expect))


def test_compose_log_with_half_z():
    # -log(1 - z/2) = z/2 + z^2/8 + z^3/24 + z^4/64
    log_geom = PowerSeries([0] + [1.0 / k for k in range(1, 5)])  # -log(1-z)
    half = PowerSeries([0, 0.5, 0, 0, 0])
    c = compose(log_geom, half)
    assert coeffs_close(c, PowerSeries([0, 0.5, 0.125, 1.0 / 24, 1.0 / 64]), tol=1e-15)


def test_compose_inner_constant_raises():
    with pytest.raises(InnerNotVanishing):
        compose(one(2), one(2))


def test_revert_identity():
    assert coeffs_close(revert(identity(6)), identity(6))


def test_revert_koebe_signed_catalans():
    b = revert(koebe_series(6))
    assert coeffs_close(b, PowerSeries([0, 1, -2, 5, -14, 42, -132]), tol=1e-9)


def test_revert_z_plus_z_squared():
    b = revert(PowerSeries([0, 1, 1, 0, 0]))
    # back-composition oracle fixes the coefficients
    back = compose(PowerSeries([0, 1, 1, 0, 0]), b)
    assert coeffs_close(back, identity(4), tol=1e-12)
    assert coeffs_close(b, PowerSeries([0, 1, -1, 2, -5]), tol=1e-12)


def test_revert_requires_unit_slope():
    with pytest.raises(NotInvertibleAtOrigin):
        revert(PowerSeries([0, 0, 1]))


def test_eval_koebe_at_half():
    k = koebe_series(64)
    v = ps.evaluate(k, 0.5)
    assert abs(v - 2.0) < 1e-9 * 2.0


def test_eval_constant_and_radius_guard():
    a = PowerSeries([1, 1])
    assert ps.evaluate(a, 0) == 1
    assert ps.evaluate(a, 1j) == 1 + 1j
    with pytest.raises(RadiusExceeded):
        uv.koebe(8).eval(1.5)


coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff, min_size=3, max_size=12), st.lists(coeff, min_size=3, max_size=12), st.lists(coeff, min_size=3, max_size=12))
def test_ring_axioms(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs)) - 1
    a, b, c = (PowerSeries(v[: n + 1]) for v in (xs, ys, zs))
    scale = max(np.max(np.abs(a.coeffs)) * np.max(np.abs(b.coeffs)), 1.0)
    assert coeffs_close(a * b, b * a, tol=1e-12 * scale)
    scale3 = max(scale * np.max(np.abs(c.coeffs)), 1.0)
    assert coeffs_close((a * b) * c, a * (b * c), tol=1e-12 * scale3)
    def plus(p, q):
        return PowerSeries(p.coeffs + q.coeffs)

    assert coeffs_close(a * plus(b, c), plus(a * b, a * c), tol=1e-12 * scale3)


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff, min_size=2, max_size=33))
def test_exp_log_roundtrip(xs):
    n = len(xs) - 1
    c = np.array(xs, dtype=complex)
    c[0] = 0.0
    c[1:] /= np.arange(1, n + 1)  # |a_k| <= 2/k
    a = PowerSeries(c)
    back = ps.log(exp(a))
    assert float(np.max(np.abs(back.coeffs - a.coeffs))) < 1e-10


@settings(max_examples=50, deadline=None)
@given(
    st.lists(coeff, min_size=3, max_size=13),
    st.floats(min_value=0.5, max_value=2.0),
)
def test_revert_roundtrip(xs, slope):
    # slope in [0.5, 2], tail kept subordinate to the slope so the inverse
    # series is well conditioned at these orders
    c = np.array(xs, dtype=complex)
    c[0] = 0.0
    c[1] = slope
    c[2:] *= 0.25 * slope
    a = PowerSeries(c)
    b = revert(a)
    resid = compose(a, b).coeffs - identity(a.order).coeffs
    assert float(np.max(np.abs(resid))) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff, min_size=2, max_size=20))
def test_exp_recurrence_cauchy_schwarz(xs):
    # n^2 |b_n|^2 <= (sum k^2 |a_k|^2)(sum_{k<n} |b_k|^2) for every n
    c = np.array(xs, dtype=complex)
    c[0] = 0.0
    a = PowerSeries(c)
    b = exp(a).coeffs
    n = a.order
    k = np.arange(n + 1)
    for m in range(1, n + 1):
        lhs = m**2 * abs(b[m]) ** 2
        rhs = np.sum(k[1 : m + 1] ** 2 * np.abs(c[1 : m + 1]) ** 2) * np.sum(
            np.abs(b[:m]) ** 2
        )
        assert lhs <= rhs + 1e-9 * max(rhs, 1.0)
