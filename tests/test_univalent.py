import cmath
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import coeffs_close, compose, dilation, div, identity, one, rotation
from schlicht import series as ps
from schlicht import univalent as uv
from schlicht.errors import NonFiniteCoefficients, ParamOutOfRange
from schlicht.series import PowerSeries


def test_koebe_coefficients():
    k = uv.koebe(3)
    assert list(k.coeffs.real) == [0, 1, 2, 3]
    assert np.all(k.coeffs.imag == 0)


def test_koebe_eval_closed_form():
    k = uv.koebe(64)
    assert abs(k.eval(0.5) - 2.0) < 1e-9 * 2.0


def test_normalization_enforced():
    with pytest.raises(ParamOutOfRange):
        uv.ClassSFunction(PowerSeries([0, 2.0, 0]))
    with pytest.raises(ParamOutOfRange):
        uv.ClassSFunction(PowerSeries([0.5, 1.0, 0]))


def test_rotation_by_pi():
    f = uv.from_quotient(0, 1.0, math.pi, 6)
    expect = [(-1) ** (n - 1) * n for n in range(7)]
    expect[0] = 0
    assert np.max(np.abs(f.coeffs - np.array(expect))) < 1e-12


def test_dilation_fixes_identity():
    f = dilation(uv.identity_map(5), 0.37)
    assert coeffs_close(f.series, identity(5), tol=1e-15)


def test_dilation_koebe_closed_form():
    r = 0.5
    f = uv.from_quotient(0, r, 0.0, 6)
    expect = np.array([n * r ** (n - 1) for n in range(7)], dtype=complex)
    expect[0] = 0
    assert np.max(np.abs(f.coeffs - expect)) < 1e-14


def _conjugation(f):
    """conj(f(conj(z))): conjugates every coefficient."""
    return uv.ClassSFunction(PowerSeries(np.conj(f.coeffs)))


def _from_pair(cw, order):
    """The series of (z + c z^2)/(1 - w z)^2 from the pair (c, w)."""
    c, w = cw
    return uv.from_quotient(c, abs(w), cmath.phase(w), order)


def test_conjugation():
    f = uv.from_quotient(0, 1.0, 0.7, 5)
    g = _conjugation(f)
    assert np.max(np.abs(g.coeffs - np.conj(f.coeffs))) == 0
    # random_class_s conjugates the pair (c, w): the same map
    c, w = 0.3 - 0.2j, 0.5 + 0.4j
    pair = _from_pair((c.conjugate(), w.conjugate()), 12)
    series = _conjugation(_from_pair((c, w), 12))
    assert np.max(np.abs(pair.coeffs - series.coeffs)) < 1e-14


def test_disk_automorphism_zero_is_identity():
    assert uv.disk_automorphism(uv.KOEBE_CW, 0) == uv.KOEBE_CW
    f = _from_pair(uv.KOEBE_CW, 8)
    assert coeffs_close(f.series, uv.koebe(8).series, tol=0)


def test_disk_automorphism_pointwise_oracle():
    # evaluate the defining expression directly and compare with the series,
    # on Koebe and on a member (z + c z^2)/(1 - w z)^2 with c != 0, |w| < 1
    a = 0.2 + 0.1j
    for c, w in (uv.KOEBE_CW, (0.3 - 0.2j, 0.5 + 0.4j)):
        f = _from_pair(uv.disk_automorphism((c, w), a), 64)
        kk = lambda z: (z + c * z * z) / (1 - w * z) ** 2
        kp = lambda z: ((1 + 2 * c * z) * (1 - w * z) + 2 * w * (z + c * z * z)) / (1 - w * z) ** 3
        for z0 in (0.25, -0.3j, 0.1 + 0.2j):
            m = (z0 + a) / (1 + np.conj(a) * z0)
            direct = (kk(m) - kk(a)) / ((1 - abs(a) ** 2) * kp(a))
            assert abs(direct - f.eval(z0)) < 1e-10


def test_disk_automorphism_param_guard():
    with pytest.raises(ParamOutOfRange):
        uv.disk_automorphism(uv.KOEBE_CW, 1.2)


def test_to_sigma_koebe():
    # 1/k(1/z) = z(1 - 1/z)^2 = z - 2 + 1/z
    b = uv.to_sigma(uv.koebe(10))
    assert abs(b[0] + 2.0) < 1e-14
    assert abs(b[1] - 1.0) < 1e-14
    assert np.max(np.abs(b[2:9])) < 1e-12


def test_to_sigma_identity():
    b = uv.to_sigma(uv.identity_map(8))
    assert b[0] == 0
    assert np.max(np.abs(b[1:])) == 0


def test_to_sigma_quadratic_coefficients():
    # f = z + c z^3 has a2 = 0, a3 = c: b0 = -a2 = 0, b1 = a2^2 - a3 = -c
    c = 0.3 - 0.2j
    f = uv.ClassSFunction(PowerSeries([0, 1, 0, c, 0, 0, 0, 0, 0]))
    b = uv.to_sigma(f)
    assert abs(b[0]) < 1e-14
    assert abs(b[1] + c) < 1e-14


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_to_sigma_rows_of_a_stack_are_the_one_function_values():
    rng = uv.SeededDraws(4)
    fs = [uv.random_class_s(rng, 40) for _ in range(30)]
    stacked = uv.to_sigma(np.array([f.coeffs for f in fs]))
    assert stacked.shape == (30, 39)  # b_0..b_38 from c_0..c_40
    for f, b in zip(fs, stacked):
        assert np.array_equal(_bits(b), _bits(uv.to_sigma(f)))


def test_to_sigma_of_an_overflowing_row_is_a_numeric_error():
    rows = np.zeros((2, 4), dtype=complex)
    rows[:, 1] = 1.0
    rows[1, 2] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteCoefficients, match="coefficients must be finite"):
            uv.to_sigma(rows)


def _from_sigma(b, order):
    """The class-S series whose inversion has the coefficients b_0, b_1, ..., to the given order."""
    R = np.zeros(order, dtype=complex)
    R[0] = 1.0
    m = min(len(b), order - 1)
    R[1 : 1 + m] = b[:m]
    F = div(one(order - 1), PowerSeries(R))
    c = np.concatenate(([0.0], F.coeffs))
    return uv.ClassSFunction(PowerSeries(c))


def test_sigma_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = uv.random_class_s(rng, 16)
        back = _from_sigma(uv.to_sigma(f), 16)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-9


def test_odd_sqrt_transform_koebe():
    h = uv.odd_sqrt_transform(uv.koebe(9))
    expect = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=complex)
    assert np.max(np.abs(h.coeffs - expect)) < 1e-13


def test_odd_sqrt_transform_identity():
    h = uv.odd_sqrt_transform(uv.identity_map(7))
    assert coeffs_close(h.series, identity(7), tol=1e-14)


def test_odd_sqrt_square_back():
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = uv.random_class_s(rng, 16)
        h = uv.odd_sqrt_transform(f)
        z2 = np.zeros(17, dtype=complex)
        z2[2] = 1.0
        lhs = h.series * h.series
        rhs = compose(f.series, PowerSeries(z2))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10
        # even-degree coefficients vanish identically
        assert np.max(np.abs(h.coeffs[0::2])) < 1e-12


def test_registry():
    assert uv.from_registry("koebe", 5).coeffs[5] == 5
    assert uv.from_registry("identity", 5).coeffs[1] == 1
    rot = uv.from_registry("koebe-rot:3.14159", 5)
    assert abs(abs(rot.coeffs[2]) - 2.0) < 1e-12
    lit = uv.from_registry('coeffs:[[0,0],[1,0],[0.5,0.25]]', 2)
    assert lit.coeffs[2] == 0.5 + 0.25j
    for name in ("unknown", "koebe-rot:abc", "koebe-rot:nan", "koebe-rot:inf", "coeffs:[0,1",
                 "coeffs:[[1]]"):
        with pytest.raises(ParamOutOfRange):
            uv.from_registry(name, 5)


def test_parse_subject_names_a_point_of_the_family_or_coefficients():
    assert uv.parse_subject("koebe") == (1.0, 0.0)
    assert uv.parse_subject("identity") == (0.0, 0.0)
    assert uv.parse_subject("koebe-rot:2.5") == (1.0, 2.5)
    assert uv.parse_subject("coeffs:[0,[1,0],0.5]") == [0j, 1 + 0j, 0.5 + 0j]
    for name in ("koebe-rot:-inf", "coeffs:[0,1,1e400]", "koebe-rot", "const:-1"):
        with pytest.raises(ParamOutOfRange):
            uv.parse_subject(name)


@pytest.mark.parametrize("order", [1, 2, 7, 100, 2000])
def test_family_coefficients_are_the_transforms_bit_for_bit(order):
    # at c = 0 the formula is Koebe's family: the integers n, the series of
    # z, and the reference rotations and dilations of Koebe's map
    assert np.array_equal(uv.koebe(order).coeffs, np.arange(order + 1))
    assert np.array_equal(uv.from_quotient(0, 0.0, 0.0, order).coeffs, identity(order).coeffs)
    for theta in (2.5, 3.14159, 0.7, -1.0, 1e-300, 100.0):
        rot = rotation(uv.koebe(order), theta).coeffs
        assert np.array_equal(uv.from_quotient(0, 1.0, theta, order).coeffs, rot)
    for r in (0.5, 0.8):
        dil = dilation(uv.koebe(order), r).coeffs
        assert np.array_equal(uv.from_quotient(0, r, 0.0, order).coeffs, dil)
    got = uv.from_quotient(0, 0.5, 0.7, order).coeffs
    want = rotation(dilation(uv.koebe(order), 0.5), 0.7).coeffs
    assert np.max(np.abs(got - want)) <= 1e-15
    with pytest.raises(ParamOutOfRange):
        uv.from_quotient(0, 1.0, 0.0, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
)
def test_from_quotient_is_the_series_quotient(c_abs, c_arg, rho, theta):
    # coefficient n of (z + c z^2)/(1 - w z)^2 against the division of the
    # two series, for c != 0; the gap reached 9.6e-14 n over 3,000 seeded draws
    order = 64
    c, w = cmath.rect(c_abs, c_arg), cmath.rect(rho, theta)
    num = np.zeros(order + 1, dtype=complex)
    num[1:3] = 1.0, c
    den = np.zeros(order + 1, dtype=complex)
    den[:3] = 1.0, -2.0 * w, w * w
    want = div(PowerSeries(num), PowerSeries(den)).coeffs
    got = uv.from_quotient(c, rho, theta, order).coeffs
    n = np.arange(order + 1)
    assert np.all(np.abs(got - want) <= 1e-12 * n)


def test_random_class_s_normalized():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = uv.random_class_s(rng, 24)
        assert abs(f.coeffs[0]) < 1e-12
        assert abs(f.coeffs[1] - 1.0) < 1e-10



# the first values of random.Random(1).random(), a sequence Python keeps
# across versions
_RANDOM_1 = (0.13436424411240122, 0.8474337369372327, 0.763774618976614, 0.2550690257394217,
             0.49543508709194095)


def test_seeded_draws_for_seed_1_are_pinned():
    # in a fresh interpreter, so that the draws are the first of the stream
    code = (
        "from schlicht.univalent import SeededDraws\n"
        "d = SeededDraws(1)\n"
        "print(repr((d.integers(1, 17), d.uniform(-2, 2, 2), d.uniform(0.1, 0.95), "
        "d.integers(0, 4))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    r = _RANDOM_1
    expected = (3, [-2 + 4 * r[1], -2 + 4 * r[2]], 0.1 + (0.95 - 0.1) * r[3], 1)
    assert expected[0] == 1 + int(16 * r[0]) and expected[3] == int(4 * r[4])
    assert proc.stdout.strip() == repr(expected)


def test_random_class_s_is_the_series_of_its_pair():
    # the same draws in the same order: the generators stay in step
    for make in (uv.SeededDraws, np.random.default_rng):
        for seed in range(3):
            one, two = make(seed), make(seed)
            for _ in range(100):
                f = uv.random_class_s(one, 96)
                g = uv.from_quotient(*uv.random_pair(two), 96)
                assert np.array_equal(_bits(f.coeffs), _bits(g.coeffs))
            assert one.uniform(0, 1) == two.uniform(0, 1)


def test_seeded_draws_random_scales_to_uniform():
    for low, high in ((-2, 2), (0.1, 0.95), (0, 2 * math.pi), (0.3, 0.95)):
        for size in (1, 2, 17):
            one, two = uv.SeededDraws(size), uv.SeededDraws(size)
            got = (low + (high - low) * one.random(size)).tolist()
            assert got == two.uniform(low, high, size)
            assert one.integers(0, 4) == two.integers(0, 4)


# -- the Taylor-shift route that random_class_s used before the closed form --

def _taylor_shift(coeffs, a):
    # coefficients of p(z + a) via repeated Ruffini-Horner; O(N^2)
    d = np.array(coeffs, dtype=complex).tolist()
    a = complex(a)
    n = len(d)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            d[j] += a * d[j + 1]
    return np.array(d, dtype=complex)


def _automorphism_by_taylor_shift(f, a):
    # the truncated series of f shifted to a, composed with the vanishing
    # part (1-|a|^2) z / (1 + conj(a) z) of the Moebius map, normalized
    n = f.order
    shifted = _taylor_shift(f.coeffs, a)
    m = np.zeros(n + 1, dtype=complex)
    m[1:] = (1.0 - abs(a) ** 2) * (-np.conj(a)) ** np.arange(n)
    c = compose(PowerSeries(shifted), PowerSeries(m)).coeffs.copy()
    c[0] -= shifted[0]
    c = c / ((1.0 - abs(a) ** 2) * shifted[1])
    c[0] = 0.0
    return uv.ClassSFunction(PowerSeries(c))


def _random_class_s_by_taylor_shift(rng, order):
    """random_class_s's draws, composed on truncated series; also the count of Koebe transforms."""
    f = uv.koebe(order)
    shifts = 0
    for _ in range(2):
        kind = rng.integers(0, 4)
        if kind == 0:
            f = rotation(f, float(rng.uniform(0, 2 * math.pi)))
        elif kind == 1:
            f = dilation(f, float(rng.uniform(0.3, 0.95)))
        elif kind == 2:
            f = _conjugation(f)
        else:
            rad = float(rng.uniform(0, 0.3))
            ang = float(rng.uniform(0, 2 * math.pi))
            f = _automorphism_by_taylor_shift(f, rad * complex(math.cos(ang), math.sin(ang)))
            shifts += 1
    return f, shifts


def test_random_class_s_agrees_with_the_taylor_shift_route():
    # the series route carries its own roundoff, which nested shifts
    # amplify: at n < 20 it agrees to 1.2e-13 n after one Koebe transform and
    # to 1.2e-12 n after two (seeds 0-9; at order 96 rather than 128 the
    # truncated second shift is off by up to 1.9e-10 n)
    n = np.arange(1, 20)
    for seed in range(3):
        old, new = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            f, shifts = _random_class_s_by_taylor_shift(old, 128)
            g = uv.random_class_s(new, 128)
            gap = np.max(np.abs(f.coeffs[1:20] - g.coeffs[1:20]) / n)
            assert gap <= (2e-13 if shifts < 2 else 2e-12), (seed, shifts, gap)


def test_random_class_s_is_the_same_draw_at_twice_the_order():
    n = np.arange(1, 97)
    for seed in range(3):
        low, high = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            f, g = uv.random_class_s(low, 96), uv.random_class_s(high, 192)
            assert np.all(np.abs(f.coeffs[1:] - g.coeffs[1:97]) <= 1e-12 * n)


def test_random_class_s_obeys_the_coefficient_bound():
    # |a_n| <= n, up to the roundoff of the equality draws (rotated Koebe,
    # |a_n| = n): 4.3e-12 at n <= 200 over the seed-0 draws; at order 2000
    # the complex power w ** n broke this bound by up to 2.4e-13 on 19 of
    # the 1,000 draws of seeds 0-9
    for order, seeds in ((200, [0]), (2000, range(10))):
        n = np.arange(1, order + 1)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            for _ in range(100):
                f = uv.random_class_s(rng, order)
                assert np.all(np.abs(f.coeffs[1:]) <= n * (1 + 1e-13)), (order, seed)
