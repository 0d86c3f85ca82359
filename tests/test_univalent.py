import math
import subprocess
import sys

import numpy as np
import pytest

from references import coeffs_close, compose
from schlicht import series as ps
from schlicht import univalent as uv
from schlicht.errors import ParamOutOfRange
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
    f = uv.rotation(uv.koebe(6), math.pi)
    expect = [(-1) ** (n - 1) * n for n in range(7)]
    expect[0] = 0
    assert np.max(np.abs(f.coeffs - np.array(expect))) < 1e-12


def test_dilation_fixes_identity():
    f = uv.dilation(uv.identity_map(5), 0.37)
    assert coeffs_close(f.series, PowerSeries.identity(5), tol=1e-15)


def test_dilation_koebe_closed_form():
    r = 0.5
    f = uv.dilation(uv.koebe(6), r)
    expect = np.array([n * r ** (n - 1) for n in range(7)], dtype=complex)
    expect[0] = 0
    assert np.max(np.abs(f.coeffs - expect)) < 1e-14


def _conjugation(f):
    """conj(f(conj(z))): conjugates every coefficient."""
    return uv.ClassSFunction(PowerSeries(np.conj(f.coeffs)))


def test_conjugation():
    f = uv.rotation(uv.koebe(5), 0.7)
    g = _conjugation(f)
    assert np.max(np.abs(g.coeffs - np.conj(f.coeffs))) == 0
    # random_class_s conjugates the pair (c, w): the same map
    c, w = 0.3 - 0.2j, 0.5 + 0.4j
    pair = uv.from_quotient((c.conjugate(), w.conjugate()), 12)
    series = _conjugation(uv.from_quotient((c, w), 12))
    assert np.max(np.abs(pair.coeffs - series.coeffs)) < 1e-14


def test_disk_automorphism_zero_is_identity():
    assert uv.disk_automorphism(uv.KOEBE_CW, 0) == uv.KOEBE_CW
    f = uv.from_quotient(uv.KOEBE_CW, 8)
    assert coeffs_close(f.series, uv.koebe(8).series, tol=0)


def test_disk_automorphism_pointwise_oracle():
    # evaluate the defining expression directly and compare with the series,
    # on Koebe and on a member (z + c z^2)/(1 - w z)^2 with c != 0, |w| < 1
    a = 0.2 + 0.1j
    for c, w in (uv.KOEBE_CW, (0.3 - 0.2j, 0.5 + 0.4j)):
        f = uv.from_quotient(uv.disk_automorphism((c, w), a), 64)
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
    g = uv.to_sigma(uv.koebe(10))
    assert abs(g.b0 + 2.0) < 1e-14
    assert abs(g.tail[0] - 1.0) < 1e-14
    assert max(abs(b) for b in g.tail[1:8]) < 1e-12


def test_to_sigma_identity():
    g = uv.to_sigma(uv.identity_map(8))
    assert g.b0 == 0
    assert max(abs(b) for b in g.tail) == 0


def test_to_sigma_quadratic_coefficients():
    # f = z + c z^3 has a2 = 0, a3 = c: b0 = -a2 = 0, b1 = a2^2 - a3 = -c
    c = 0.3 - 0.2j
    f = uv.ClassSFunction(PowerSeries([0, 1, 0, c, 0, 0, 0, 0, 0]))
    g = uv.to_sigma(f)
    assert abs(g.b0) < 1e-14
    assert abs(g.tail[0] + c) < 1e-14


def _from_sigma(g, order):
    """The class-S series whose inversion is g, to the given order."""
    R = np.zeros(order, dtype=complex)
    R[0] = 1.0
    if order >= 2:
        R[1] = g.b0
    m = min(len(g.tail), order - 2)
    if m > 0:
        R[2 : 2 + m] = g.tail[:m]
    F = ps.div(PowerSeries.one(order - 1), PowerSeries(R))
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
    assert coeffs_close(h.series, PowerSeries.identity(7), tol=1e-14)


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
    for name in ("unknown", "koebe-rot:abc", "koebe-rot:nan", "coeffs:[0,1", "coeffs:[[1]]"):
        with pytest.raises(ParamOutOfRange):
            uv.from_registry(name, 5)


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
            f = uv.rotation(f, float(rng.uniform(0, 2 * math.pi)))
        elif kind == 1:
            f = uv.dilation(f, float(rng.uniform(0.3, 0.95)))
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
    # |a_n| = n): 4.3e-12 at n <= 200 over these draws
    rng = np.random.default_rng(0)
    n = np.arange(1, 201)
    for _ in range(100):
        f = uv.random_class_s(rng, 200)
        assert np.all(np.abs(f.coeffs[1:]) <= n * (1 + 1e-13))
