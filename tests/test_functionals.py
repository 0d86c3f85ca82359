import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import exp
from schlicht import functionals as fn
from schlicht import suites
from schlicht import series as ps
from schlicht import univalent as uv
from schlicht.report import BoundReport
from schlicht.series import PowerSeries


def test_area_sum_koebe_equality():
    g = uv.to_sigma(uv.koebe(32))
    assert abs(fn.area_sum(g, 30) - 1.0) < 1e-12


def test_area_sum_identity_zero():
    g = uv.to_sigma(uv.identity_map(16))
    assert fn.area_sum(g, 14) == 0.0


def test_area_sum_dilation_bounded():
    g = uv.to_sigma(uv.dilation(uv.koebe(64), 0.9))
    val = fn.area_sum(g, 62)
    assert 0.0 <= val <= 1.0 + 1e-9


def coefficient_report(f, N):
    """|a_n| against the sharp bound n and Littlewood's e*n, for 2 <= n <= N."""
    rep = BoundReport("coefficients")
    a = np.abs(f.coeffs)
    for n in range(2, N + 1):
        rep.add(f"n={n:02d}:sharp", a[n], n)
        rep.add(f"n={n:02d}:littlewood", a[n], math.e * n)
    return rep


def test_coefficient_report_koebe_equality():
    rep = coefficient_report(uv.koebe(16), 16)
    assert rep.all_pass
    sharp = [c for c in rep.cases if c.id.endswith("sharp")]
    assert all(abs(c.lhs - c.rhs) < 1e-12 for c in sharp)


def test_coefficient_report_identity():
    rep = coefficient_report(uv.identity_map(12), 12)
    assert rep.all_pass
    assert all(c.lhs == 0.0 for c in rep.cases)


def test_log_coefficients_identity():
    lc = fn.log_coefficients(uv.identity_map(12))
    assert max(abs(g) for g in lc) == 0.0


def test_coefficient_report_dilation_strict():
    rep = coefficient_report(uv.dilation(uv.koebe(16), 0.5), 16)
    sharp = [c for c in rep.cases if c.id.endswith("sharp")]
    assert all(c.lhs < c.rhs for c in sharp)


def test_integral_mean_identity():
    f = uv.identity_map(8)
    for p in (1.0, 2.0, 3.5):
        assert abs(fn.integral_mean(f, p, 0.7) - 0.7) < 1e-12


def test_integral_mean_koebe_poisson_oracle():
    # exact mean of |k| on |z| = r is r/(1 - r^2) (Poisson kernel mass)
    f = uv.koebe(256)
    for r in (0.3, 0.5):
        got = fn.integral_mean(f, 1.0, r)
        assert abs(got - r / (1 - r * r)) < 1e-8
        assert got <= r / (1 - r)


def test_integral_mean_parseval():
    f = uv.koebe(64)
    r = 0.3
    got = fn.integral_mean(f, 2.0, r)
    expect = math.sqrt(sum(n * n * r ** (2 * n) for n in range(1, 65)))
    assert abs(got - expect) < 1e-8


def _per_point_envelopes(f, grid):
    """The envelopes one point at a time with `series.evaluate`: {(j, envelope): (lhs, rhs)}."""
    fp = f.series.derivative()
    fpp = fp.derivative()
    eps = fn.ROUNDOFF
    out = {}
    for j, z in enumerate(grid):
        r = abs(z)
        val, dval, ddval = (ps.evaluate(s, z) for s in (f.series, fp, fpp))
        out[j, "growth-lo"] = (r / (1 + r) ** 2 - eps, abs(val))
        out[j, "growth-hi"] = (abs(val), r / (1 - r) ** 2 + eps)
        out[j, "distortion-lo"] = ((1 - r) / (1 + r) ** 3 - eps, abs(dval))
        out[j, "distortion-hi"] = (abs(dval), (1 + r) / (1 - r) ** 3 + eps)
        if abs(val) > 0:
            q = abs(z * dval / val)
            out[j, "zf'/f-lo"] = ((1 - r) / (1 + r) - eps, q)
            out[j, "zf'/f-hi"] = (q, (1 + r) / (1 - r) + eps)
        if abs(dval) > 0:
            w = z * ddval / dval - 2 * r**2 / (1 - r**2)
            out[j, "pre-schwarzian"] = (abs(w), 4 * r / (1 - r**2) + eps)
    return out


def _as_cases(res):
    """{(j, envelope): (lhs, rhs)} of the entries an array check checked."""
    rows, cols = np.nonzero(res.checked)
    return {
        (int(j), fn.ENVELOPES[i]): (float(res.lhs[i, j]), float(res.rhs[i, j]))
        for i, j in zip(rows.tolist(), cols.tolist())
    }


def _failures(cases):
    return {key for key, (lhs, rhs) in cases.items() if not lhs <= rhs}


def _polar_grid(nr, nangles):
    rr = np.linspace(0.05, 0.95, nr)
    return [r * np.exp(1j * a) for r in rr for a in 2 * np.pi * np.arange(nangles) / nangles]


def test_pointwise_bounds_sharp_koebe():
    f = uv.koebe(160)
    res = fn.pointwise_bounds_check(f, [0.3, 0.5, 0.7])
    assert res.checked.all() and not res.failed.any()
    # distortion and growth are equalities on the positive axis
    for name in ("growth-hi", "distortion-hi", "zf'/f-hi"):
        i = fn.ENVELOPES.index(name)
        assert np.all(np.abs(res.lhs[i] - res.rhs[i]) < 1e-9 * res.rhs[i])


def test_pointwise_bounds_identity_inside():
    res = fn.pointwise_bounds_check(uv.identity_map(16), [0.2, 0.5j, -0.7])
    assert res.checked.all() and not res.failed.any()


def test_pointwise_bounds_match_per_point_horner():
    # the grid-wide Horner pass gives the same cases as one evaluate per
    # point, bit for bit
    f = uv.koebe(1024)
    grid = _polar_grid(6, 7)
    assert _as_cases(fn.pointwise_bounds_check(f, grid)) == _per_point_envelopes(f, grid)


def test_pointwise_bounds_flag_the_per_point_failures_of_a_non_univalent_map():
    # z + 0.7 z^2 is not univalent (f' vanishes at -1/1.4): on the bounds
    # suite's 32 x 32 polar grid the point-by-point check fails 33 pairs
    c = np.zeros(1025, dtype=complex)
    c[1], c[2] = 1.0, 0.7
    f = uv.ClassSFunction(PowerSeries(c))
    grid = _polar_grid(32, 32)
    want = _failures(_per_point_envelopes(f, grid))
    assert len(want) == 33
    rows, cols = np.nonzero(fn.pointwise_bounds_check(f, grid).failed)
    assert {(j, fn.ENVELOPES[i]) for i, j in zip(rows.tolist(), cols.tolist())} == want


def test_pointwise_bounds_skip_the_envelopes_that_divide_by_zero():
    # f = 0 at z = 0 skips zf'/f there; f' = 1 + 1.4 z = 0 at z = -1/1.4
    # skips the pre-Schwarzian; neither division warns
    c = np.zeros(9, dtype=complex)
    c[1], c[2] = 1.0, 0.7
    f = uv.ClassSFunction(PowerSeries(c))
    grid = [0.0, -1 / 1.4, 0.5j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fn.pointwise_bounds_check(f, grid)
    skipped = {(j, fn.ENVELOPES[i]) for i, j in zip(*np.nonzero(~res.checked))}
    assert skipped == {(0, "zf'/f-lo"), (0, "zf'/f-hi"), (1, "pre-schwarzian")}
    assert np.all(np.isnan(res.lhs[~res.checked])) and not res.failed[~res.checked].any()
    assert _as_cases(res).keys() == _per_point_envelopes(f, grid).keys()


def test_pointwise_bounds_fail_at_nan():
    # a NaN side fails its envelope, as lhs <= rhs is false
    res = fn.pointwise_bounds_check(uv.koebe(16), [0.3, 0.5])
    lhs = res.lhs.copy()
    lhs[1, 0] = np.nan
    assert fn.PointwiseBounds(lhs, res.rhs, res.checked).failed.tolist()[1] == [True, False]


def test_robertson_sums_koebe():
    s = fn.robertson_sums(uv.koebe(64), 30)
    assert np.max(np.abs(s - np.arange(1, 31))) == 0.0


def test_robertson_sums_identity():
    s = fn.robertson_sums(uv.identity_map(32), 10)
    assert np.max(np.abs(s - 1.0)) == 0.0


def test_robertson_sums_dilation_strict():
    s = fn.robertson_sums(uv.dilation(uv.koebe(64), 0.8), 10)
    assert all(s[n - 1] < n for n in range(2, 11))


def test_log_coefficients_koebe():
    lc = fn.log_coefficients(uv.koebe(32))
    expect = np.array([1.0 / k for k in range(1, 32)])
    assert np.max(np.abs(lc - expect)) < 1e-12


def test_log_coefficients_rotation():
    th = 0.8
    lc = fn.log_coefficients(uv.rotation(uv.koebe(24), th))
    expect = np.array([np.exp(1j * k * th) / k for k in range(1, 24)])
    assert np.max(np.abs(lc - expect)) < 1e-12


def test_milin_functional_koebe_zero():
    f = uv.koebe(64)
    for n in (1, 7, 30):
        assert abs(fn.milin_functional(f, n)) < 1e-10


def test_milin_functional_identity():
    assert abs(fn.milin_functional(uv.identity_map(8), 1) + 1.0) < 1e-14


def test_milin_functional_dilation_negative():
    assert fn.milin_functional(uv.dilation(uv.koebe(32), 0.9), 10) < 0


def test_milin_weighted_relation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = uv.random_class_s(rng, 48)
        for n in (3, 12):
            m = fn.milin_functional(f, n)
            w = fn.milin_weighted_form(f, n)
            assert abs(w + 4.0 * m) < 1e-10 * max(1.0, abs(w))


def test_lebedev_milin_zero_alpha():
    lhs, rhs = fn.lebedev_milin_check([0.0], 1)
    assert lhs == 1.0
    assert abs(rhs - 2.0 * math.exp(-0.5)) < 1e-14


def test_lebedev_milin_equality_case():
    # alpha_k = gamma^k / k with |gamma| = 1 gives beta_k = gamma^k
    lhs, rhs = fn.lebedev_milin_check([1.0, 0.5], 2)
    assert abs(lhs - 3.0) < 1e-10
    assert abs(rhs - 3.0) < 1e-10


@settings(max_examples=80, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_lebedev_milin_random(alpha):
    lhs, rhs = fn.lebedev_milin_check(alpha, len(alpha))
    assert lhs <= rhs + 1e-10 * max(rhs, 1.0)


def test_lebedev_milin_needs_enough_terms():
    with pytest.raises(ValueError):
        fn.lebedev_milin_check([1.0], 3)


def _lebedev_milin_by_series_exp(alpha, n):
    # both sides from the reference series exp, one trial at a time
    beta = exp(PowerSeries([0.0] + list(alpha[:n])))
    lhs = float(np.sum(np.abs(beta.coeffs) ** 2))
    k = np.arange(1, n + 1)
    terms = k * np.abs(np.asarray(alpha[:n])) ** 2 - 1.0 / k
    return lhs, (n + 1) * math.exp(float(np.sum(np.cumsum(terms))) / (n + 1))


def _lebedev_milin_trials(seed):
    # the suite's draws, in its order
    rng = uv.SeededDraws(seed)
    for _ in range(1000):
        n = rng.integers(1, 17)
        alpha = np.array(rng.uniform(-2, 2, n)) + 1j * np.array(rng.uniform(-2, 2, n))
        scale = np.abs(alpha)
        yield list(np.where(scale > 2.0, alpha * 2.0 / scale, alpha)), n


def test_lebedev_milin_batched_worst_case_is_the_one_trial_worst_case():
    for seed in range(50):
        worst = max(
            lhs - rhs for lhs, rhs in (fn.lebedev_milin_check(*t) for t in _lebedev_milin_trials(seed))
        )
        rep = suites.suite_lebedev_milin(seed)
        case = next(c for c in rep.cases if c.id == "random-trials-max-violation")
        assert case.lhs == worst, seed


def test_lebedev_milin_check_is_the_series_exp_value():
    for seed in (0, 1):
        for alpha, n in _lebedev_milin_trials(seed):
            assert fn.lebedev_milin_check(alpha, n) == _lebedev_milin_by_series_exp(alpha, n)
