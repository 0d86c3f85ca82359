import math

import numpy as np
import pytest

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
    assert f.series.isclose(PowerSeries.identity(5), tol=1e-15)


def test_dilation_koebe_closed_form():
    r = 0.5
    f = uv.dilation(uv.koebe(6), r)
    expect = np.array([n * r ** (n - 1) for n in range(7)], dtype=complex)
    expect[0] = 0
    assert np.max(np.abs(f.coeffs - expect)) < 1e-14


def test_conjugation():
    f = uv.rotation(uv.koebe(5), 0.7)
    g = uv.conjugation(f)
    assert np.max(np.abs(g.coeffs - np.conj(f.coeffs))) == 0


def test_disk_automorphism_zero_is_identity():
    k = uv.koebe(8)
    f = uv.disk_automorphism(k, 0)
    assert f.series.isclose(k.series, tol=0)


def test_disk_automorphism_pointwise_oracle():
    # evaluate the defining expression directly and compare with the series
    a = 0.2 + 0.1j
    k = uv.koebe(64)
    f = uv.disk_automorphism(k, a)
    kk = lambda z: z / (1 - z) ** 2
    kp = lambda z: (1 + z) / (1 - z) ** 3
    for z0 in (0.25, -0.3j, 0.1 + 0.2j):
        m = (z0 + a) / (1 + np.conj(a) * z0)
        direct = (kk(m) - kk(a)) / ((1 - abs(a) ** 2) * kp(a))
        assert abs(direct - f.eval(z0)) < 1e-10


def test_disk_automorphism_param_guard():
    with pytest.raises(ParamOutOfRange):
        uv.disk_automorphism(uv.koebe(4), 1.2)


def test_to_sigma_koebe():
    # 1/k(1/z) = z(1 - 1/z)^2 = z - 2 + 1/z
    g = uv.to_sigma(uv.koebe(10))
    assert abs(g.b0 + 2.0) < 1e-14
    assert abs(g.coefficient(1) - 1.0) < 1e-14
    assert max(abs(g.coefficient(n)) for n in range(2, 9)) < 1e-12


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
    assert abs(g.coefficient(1) + c) < 1e-14


def test_sigma_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = uv.random_class_s(rng, 16)
        back = uv.from_sigma(uv.to_sigma(f), 16)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-9


def test_odd_sqrt_transform_koebe():
    h = uv.odd_sqrt_transform(uv.koebe(9))
    expect = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=complex)
    assert np.max(np.abs(h.coeffs - expect)) < 1e-13


def test_odd_sqrt_transform_identity():
    h = uv.odd_sqrt_transform(uv.identity_map(7))
    assert h.series.isclose(PowerSeries.identity(7), tol=1e-14)


def test_odd_sqrt_square_back():
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = uv.random_class_s(rng, 16)
        h = uv.odd_sqrt_transform(f)
        z2 = np.zeros(17, dtype=complex)
        z2[2] = 1.0
        lhs = h.series * h.series
        rhs = ps.compose(f.series, PowerSeries(z2))
        assert np.max(np.abs((lhs - rhs).coeffs)) < 1e-10
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
