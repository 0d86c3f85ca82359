import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import compose, identity, revert
from schlicht import _kernels
from schlicht import loewner as lw
from schlicht.errors import (
    BranchTrackingFailure,
    ChainUnavailable,
    ParamOutOfRange,
    TrajectoryEscaped,
)
from schlicht.series import PowerSeries


def test_transition_at_zero_time():
    for z in (0.5, -0.2 + 0.3j):
        assert abs(lw.koebe_transition(z, 0.0) - z) < 1e-15


def test_transition_log2_half():
    # u = e^{-t} k(0.5) = 1 at t = ln 2: quadratic root (3 - sqrt 5)/2
    w = lw.koebe_transition(0.5, math.log(2.0))
    assert abs(w - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-14
    assert abs(lw.koebe_map(w) - 1.0) < 1e-13


def test_transition_large_time():
    assert abs(lw.koebe_transition(0.5, 40.0)) < 1e-15


def test_transition_satisfies_defining_relation():
    for z in (0.3, 0.5j, -0.6 + 0.2j):
        for t in (0.1, 1.0, 3.0):
            w = lw.koebe_transition(z, t)
            assert abs(lw.koebe_map(w) - math.exp(-t) * lw.koebe_map(z)) < 1e-10
            assert abs(w) < 1


def test_transition_over_arrays_is_the_per_point_flow():
    z = np.array([0.0, 0.3, -0.6 + 0.2j, 0.5j, 0.999, -0.999j])
    t = np.array([0.0, 1e-12, 0.1, 1.0, 3.0, 40.0])[:, None]
    w = lw.koebe_transition(z, t)
    assert w.shape == (6, 6)
    per_point = np.array([[lw.koebe_transition(zj, ti) for zj in z.tolist()] for ti in t[:, 0].tolist()])
    assert np.array_equal(w.view(np.uint64), per_point.view(np.uint64))
    assert np.array_equal(w.view(np.uint64), lw._flow_map(z, -1.0, t).view(np.uint64))


def test_transition_guards():
    nan = float("nan")
    for z, t in ((1.0, 0.5), (0.6 + 0.8j, 0.5), ([0.5, -1.5j], 0.5), (0.5, -1e-300),
                 (0.5, [1.0, -1.0]), (complex(nan), 0.5), (0.5, nan), ([0.1, nan], 0.5)):
        with pytest.raises(ParamOutOfRange):
            lw.koebe_transition(z, t)


def test_transition_series_identity_at_zero():
    w = lw.koebe_transition_series(0.0, 16)
    assert np.array_equal(w.coeffs, identity(16).coeffs)


def test_transition_series_defining_relation():
    t, N = 0.7, 24
    w = lw.koebe_transition_series(t, N)
    k = PowerSeries(np.arange(N + 1, dtype=complex))
    resid = compose(k, w).coeffs - math.exp(-t) * k.coeffs
    assert np.max(np.abs(resid)) < 1e-10
    assert abs(w[1] - math.exp(-t)) < 1e-15


def test_transition_series_equals_reverted_composition():
    # same object as compose(revert(koebe), e^{-t} koebe), computed stably;
    # the composition route cancels large reverted-series terms, so it only
    # carries ~1e-9 accuracy at this order while the direct solve is exact
    # to roundoff (the defining-relation test above pins that side)
    t, N = 0.4, 16
    k = PowerSeries(np.arange(N + 1, dtype=complex))
    alt = compose(revert(k), PowerSeries(math.exp(-t) * k.coeffs))
    got = lw.koebe_transition_series(t, N)
    assert np.max(np.abs(alt.coeffs - got.coeffs)) < 1e-8


def test_transition_velocity_finite_difference():
    # along the flow dw/dt = (w^2 - w)/(1 + w)
    h = 1e-5
    for z, t in ((0.5, 0.3), (0.3j, 1.0)):
        fd = (lw.koebe_transition(z, t + h) - lw.koebe_transition(z, t - h)) / (2 * h)
        w = lw.koebe_transition(z, t)
        assert abs(fd - (w * w - w) / (1.0 + w)) < 1e-8


def test_driving_function_validation():
    with pytest.raises(ParamOutOfRange):
        lw.DrivingFunction.constant(0.5)
    with pytest.raises(ParamOutOfRange):
        lw.DrivingFunction.sampled([0.0, 0.0], [1.0, -1.0])
    d = lw.DrivingFunction.sampled([0.0, 1.0], [1.0, -1.0])
    begins, values = d.pieces(0.5, 0.5, 3)
    assert begins == [0, 1] and values.tolist() == [1.0, -1.0]


def test_solver_initial_condition():
    drv = lw.DrivingFunction.constant(-1.0)
    ev = lw.loewner_solve(drv, [0.2, 0.4j], 0.0, 1e-2, samples=1)
    assert np.max(np.abs(ev.states[0] - np.array([0.2, 0.4j]))) == 0.0


def test_solver_matches_closed_form():
    drv = lw.DrivingFunction.constant(-1.0)
    pts = [0.3, 0.5, 0.5j]
    ev = lw.loewner_solve(drv, pts, 8.0, 1e-3, samples=1)
    for i, z in enumerate(pts):
        assert abs(ev.states[-1, i] - lw.koebe_transition(z, 8.0)) < 1e-9


def test_solver_hull_limit():
    drv = lw.DrivingFunction.constant(-1.0)
    pts = [0.3, 0.5, 0.5j]
    ev = lw.loewner_solve(drv, pts, 8.0, 1e-3, samples=1)
    for i, z in enumerate(pts):
        gap = abs(math.exp(8.0) * ev.states[-1, i] - lw.koebe_map(z))
        assert gap <= 1e-3 + 2.5 * math.exp(-8.0) * abs(lw.koebe_map(z)) ** 2


def _rk4_ladder_errors():
    """RK4's error at T = 2 from z = 0.5 under kappa = -1, at h = 0.04, 0.02, 0.01."""
    errs = []
    for h in (0.04, 0.02, 0.01):
        n = int(round(2.0 / h))
        traj, _ = _kernels.rk4_loewner(np.array([0.5 + 0j]), np.full(n, -1.0 + 0j), h, n, False)
        errs.append(abs(traj[-1, 0] - lw.koebe_transition(0.5, 2.0)))
    return errs


def test_solver_fourth_order():
    # RK4, the oracle of the exact flow, converges at fourth order: against
    # the closed form, halving h divides its error by about 16
    errs = _rk4_ladder_errors()
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(15.0 <= r <= 17.0 for r in ratios)


def test_rk4_ladder_errors_sit_above_roundoff():
    # the finest error is 1e4 ulps or more of the exact value, so the
    # halving ratios measure truncation and not roundoff
    ulp = np.spacing(abs(lw.koebe_transition(0.5, 2.0)))
    assert min(_rk4_ladder_errors()) >= 1e4 * ulp


def _per_step(drv, t0, h, nsteps):
    """The driving's left-endpoint sample at each step t0 + h*s, one per step."""
    ts = t0 + h * np.arange(nsteps)
    idx = np.clip(
        np.searchsorted(np.asarray(drv.times), ts, side="right") - 1, 0, len(drv.values) - 1
    )
    return np.asarray(drv.values, dtype=complex)[idx]


# a driving of four pieces, the first with kappa = 1
_STEPS = lw.DrivingFunction.sampled([0.0, 0.3, 0.55, 0.8], [1.0, 1j, -1.0, complex(0.6, -0.8)])


def _polar(radii, nangles):
    return np.array([r * np.exp(2j * np.pi * a / nangles) for r in radii for a in range(nangles)])


def test_solver_matches_rk4_at_a_small_step():
    # RK4 at h = 2.5e-4 meets the exact map on every piece; its error grows
    # toward the singularity kappa z = 1 (2.7e-12 at z = 0.8 under kappa = 1)
    grid = _polar(np.linspace(0.1, 0.7, 7), 16)
    ev = lw.loewner_solve(_STEPS, grid, 1.5, 1e-2, samples=30)
    traj, _ = _kernels.rk4_loewner(grid, _per_step(_STEPS, 0.0, 2.5e-4, 6000), 2.5e-4, 200, False)
    assert np.max(np.abs(traj - ev.states)) < 1e-12


def test_solver_rows_at_a_tiny_step_equal_rows_at_a_coarse_step():
    # 2e9 steps of 1e-9 cost as much as 2,000 of 1e-3: the solve maps piece
    # to piece, and the breaks of _STEPS lie on both step grids
    grid = _polar((0.2, 0.5, 0.8), 8)
    fine = lw.loewner_solve(_STEPS, grid, 2.0, 1e-9, samples=8)
    coarse = lw.loewner_solve(_STEPS, grid, 2.0, 1e-3, samples=8)
    assert fine.states.shape == coarse.states.shape == (9, 24)
    assert np.max(np.abs(fine.times - coarse.times)) < 1e-13
    assert np.max(np.abs(fine.states - coarse.states)) < 1e-13


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-0.5, 2.5), min_size=1, max_size=6, unique=True),
    st.lists(st.sampled_from([1.0, -1.0, 1j, complex(1, -0.0)]), min_size=6, max_size=6),
    st.sampled_from([0.0, 0.3001, 1.0]),
    st.sampled_from([1e-2, 3e-3, 1e-3]),
    st.integers(0, 300),
)
def test_pieces_are_the_per_step_samples(times, values, t0, h, nsteps):
    # breaks on and off the step grid, several in one step, before t0 and
    # after the last step, and repeated values
    times = sorted(times)
    drv = lw.DrivingFunction.sampled(times, values[: len(times)])
    begins, vals = drv.pieces(t0, h, nsteps)
    assert begins[0] == 0 and np.all(np.diff(begins) > 0)
    expanded = np.repeat(vals, np.diff([*begins, max(nsteps, begins[-1])]))
    assert np.array_equal(expanded.view(np.uint64), _per_step(drv, t0, h, nsteps).view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 40))
def test_sample_stride_is_the_largest_divisor_below_the_cap(nsteps, samples):
    stride = max(nsteps // samples, 1)
    while nsteps % stride:
        stride -= 1
    assert lw._sample_stride(nsteps, samples) == stride


def test_solver_conserves_the_flow_invariant():
    # on a constant piece the flow keeps e^t x/(1 - x)^2 with x = -kappa f
    kap = complex(0.6, -0.8)
    grid = _polar(np.linspace(0.1, 0.9, 9), 32)
    ev = lw.loewner_solve(lw.DrivingFunction.constant(kap), grid, 6.0, 1e-3, samples=24)
    x = -kap * ev.states
    q = np.exp(ev.times)[:, None] * x / (1.0 - x) ** 2
    assert np.max(np.abs(q - q[0]) / np.abs(q[0])) < 1e-13


def test_solver_guards():
    drv = lw.DrivingFunction.constant(1.0)
    # RK4 at h = 1e-2 overshoots the disk from 0.999999 toward kappa f = 1;
    # the exact flow stays inside
    with pytest.raises(TrajectoryEscaped, match="escaped|singular"):
        _kernels.rk4_loewner(np.array([0.999999 + 0j]), np.full(100, 1.0 + 0j), 1e-2, 100, False)
    ev = lw.loewner_solve(drv, [0.999999], 1.0, 1e-2, samples=100)
    assert np.all(np.abs(ev.states) < 1.0)
    with pytest.raises(ParamOutOfRange):
        lw.loewner_solve(drv, [1.2], 1.0, 1e-2, samples=1)
    with pytest.raises(ParamOutOfRange):
        lw.loewner_solve(drv, [0.3], 1.0, 0.5, samples=1)


def test_solve_refuses_more_stored_states_than_its_budget(monkeypatch):
    # 100 steps at samples = 16 take stride 5: 21 stored times per point
    monkeypatch.setattr(lw, "MAX_STORED_STATES", 42)
    drv = lw.DrivingFunction.constant(-1.0)
    assert lw.loewner_solve(drv, [0.3, 0.5], 1.0, 1e-2, samples=16).states.shape == (21, 2)
    assert lw.loewner_solve(drv, [], 1.0, 1e-2, samples=16).states.shape == (21, 0)
    with pytest.raises(ParamOutOfRange, match="21 stored times x 3 points exceed 42 states"):
        lw.loewner_solve(drv, [0.3, 0.5, 0.1j], 1.0, 1e-2, samples=16)
    # an empty grid still stores its times
    with pytest.raises(ParamOutOfRange, match="101 stored times x 0 points"):
        lw.loewner_solve(drv, [], 1.0, 1e-2, samples=100)


def test_subordination_monotone():
    drv = lw.DrivingFunction.constant(-1.0)
    ev = lw.loewner_solve(drv, [0.2, 0.6, 0.8j], 4.0, 2e-3, samples=20)
    mods = np.abs(ev.states)
    assert np.max(np.diff(mods, axis=0)) <= 1e-12


def test_koebe_chain_p():
    kc = lw.KoebeChain()
    assert abs(kc.p_values(np.array([0.5]))[0] - 1.0 / 3.0) < 1e-14
    assert abs(kc.p_values(np.array([0.0]))[0] - 1.0) < 1e-14


def test_trivial_chain():
    tc = lw.KoebeChain(rho=0.0)
    assert tc.p_values(np.array([0.3j]))[0] == 1.0
    assert np.all(tc.log_coeffs(3) == 0.0)
    ck = lw.chain_log_coeffs(tc, 0.7, 6)
    assert np.max(np.abs(ck)) < 1e-14



@pytest.mark.parametrize("rho, theta", [(1.0, 0.0), (1.0, 2.5), (0.5, 0.0), (0.9, 0.7), (0.0, 0.0)])
def test_koebe_chain_closed_forms_agree(rho, theta):
    # one chain e^t z/(1 - wz)^2 for every w = rho e^{i theta} in the closed disk
    ch = lw.KoebeChain(rho, theta)
    w = rho * complex(math.cos(theta), math.sin(theta))
    z, t = 0.3 - 0.2j, 0.7
    coeffs = ch.series_at(t, 40).coeffs
    assert abs(np.polyval(coeffs[::-1], z) - ch.eval_at(z, t)) <= 1e-12
    assert np.max(np.abs(coeffs[1:] - math.exp(t) * np.arange(1, 41) * w ** np.arange(40))) <= 1e-12
    # p = (df/dt)/(z df/dz) = f/(z f') from the series, against the closed form
    zdf = np.polyval((coeffs * np.arange(41))[::-1], z)
    assert abs(ch.eval_at(z, t) / zdf - ch.p_values(np.array([z]))[0]) <= 1e-12
    # c_k(t) of log(f_t/(e^t z)) from the series, against the closed form
    ck = lw.chain_log_coeffs(ch, t, 8)
    assert np.max(np.abs(ck - ch.log_coeffs(8))) <= 1e-12
    # f_s = f_t o phi(., s, t)
    for s in (0.0, 0.4):
        assert abs(ch.eval_at(ch.transition(z, s, t), t) - ch.eval_at(z, s)) <= 1e-12
    assert lw.lipschitz_bound_check(ch, z, 0.2, t).all_pass


def test_koebe_chain_rejects_a_point_outside_the_closed_disk():
    for rho, theta in ((1.5, 0.0), (-0.1, 0.0), (math.nan, 0.0), (0.5, math.inf)):
        with pytest.raises(ParamOutOfRange):
            lw.KoebeChain(rho, theta)


def test_make_chain_reads_the_registry_names():
    assert (lw.make_chain("koebe").w, lw.make_chain("identity").w) == (1.0, 0.0)
    rot = lw.make_chain("koebe-rot:2.5")
    assert (rot.rho, rot.theta) == (1.0, 2.5)
    with pytest.raises(ChainUnavailable, match="no chain construction"):
        lw.make_chain("coeffs:[0,1]")
    for name in ("const:-1", "koebe-rot:inf"):
        with pytest.raises(ParamOutOfRange):
            lw.make_chain(name)

def test_chain_log_coeffs_koebe():
    kc = lw.KoebeChain()
    ck = lw.chain_log_coeffs(kc, 0.8, 10)
    assert np.max(np.abs(ck - 2.0 / np.arange(1, 11))) < 1e-10


def test_chain_log_coeffs_match_function_route():
    # at t = 0 the chain coefficients are twice the logarithmic coefficients
    from schlicht import functionals as fn
    from schlicht import univalent as uv

    kc = lw.KoebeChain()
    ck = lw.chain_log_coeffs(kc, 0.0, 8)
    gamma = fn.log_coefficients(uv.koebe(16))[:8]
    assert np.max(np.abs(ck - 2.0 * gamma)) < 1e-10


def test_numeric_chain_matches_koebe():
    drv = lw.DrivingFunction.constant(-1.0)
    ch = lw.NumericChain(drv, h=2e-3)
    ck = lw.chain_log_coeffs(ch, 1.0, 3)
    assert np.max(np.abs(ck - 2.0 / np.arange(1, 4))) < 1e-4
    pv, z1 = ch.p_on_circle(1.0, 0.6, 64)
    assert np.max(np.abs(pv - (1 - z1) / (1 + z1))) < 1e-3
    assert pv.real.min() > 0


def test_herglotz_positivity_rotated_driving():
    drv = lw.DrivingFunction.constant(complex(math.cos(0.7), math.sin(0.7)))
    ch = lw.NumericChain(drv, h=2e-3)
    for t in (0.5, 1.5):
        for r in (0.4, 0.7):
            pv, _ = ch.p_on_circle(t, r, 32)
            assert pv.real.min() > 0


def test_lipschitz_bounds_koebe_example():
    kc = lw.KoebeChain()
    rep = lw.lipschitz_bound_check(kc, 0.5, 0.0, 0.1)
    assert rep.all_pass
    chain_case = [c for c in rep.cases if c.id.startswith("chain")][0]
    assert abs(chain_case.lhs - 2.0 * (math.exp(0.1) - 1.0)) < 1e-9
    assert abs(chain_case.rhs - 8 * 0.5 * (math.exp(0.1) - 1.0) / 0.5**4) < 1e-9


def test_lipschitz_degenerate_s_equals_t():
    rep = lw.lipschitz_bound_check(lw.KoebeChain(), 0.4, 0.7, 0.7)
    assert rep.all_pass
    assert all(c.lhs <= 1e-12 for c in rep.cases)


def test_lipschitz_grid():
    kc = lw.KoebeChain()
    for z in (0.1, 0.45j, -0.8, 0.5 + 0.5j):
        for s, t in ((0.0, 0.1), (0.3, 1.0), (1.0, 2.5)):
            assert lw.lipschitz_bound_check(kc, z, s, t).all_pass


def test_chain_normalization_drift_guard():
    class Bad:
        def series_at(self, t, order):
            c = np.zeros(order + 1, dtype=complex)
            c[1] = 2.0 * math.exp(t)
            return PowerSeries(c)

    with pytest.raises(BranchTrackingFailure):
        lw.chain_log_coeffs(Bad(), 0.5, 4)


def test_nan_driving_value_rejected():
    with pytest.raises(ParamOutOfRange):
        lw.DrivingFunction.constant(complex("nan"))
    with pytest.raises(ParamOutOfRange):
        lw.DrivingFunction.sampled([0.0, float("nan")], [1.0, -1.0])


def test_nan_start_is_out_of_range():
    drv = lw.DrivingFunction.constant(-1.0)
    with pytest.raises(ParamOutOfRange):
        lw.loewner_solve(drv, [complex("nan"), 0.5], 0.1, 1e-2, samples=1)
    for h in (0.0, -1e-3, float("nan")):
        with pytest.raises(ParamOutOfRange):
            lw.loewner_solve(drv, [0.5], 0.1, h, samples=1)


class _NanAfter:
    """Driving stub whose pieces turn NaN from a given step on."""

    def __init__(self, step):
        self.step = step

    def pieces(self, t0, h, nsteps):
        return [0, self.step], np.array([-1.0, complex("nan")])


def test_nan_state_is_rejected():
    # a NaN state fails the disk check: the solver raises instead of storing it
    with np.errstate(invalid="ignore"), pytest.raises(TrajectoryEscaped):
        lw.loewner_solve(_NanAfter(5), [0.3, 0.5j], 0.1, 1e-2, samples=1)


def _separate_circle(chain, t, r, Q):
    # one solve per circle, from its own snapped start time to T0, then the
    # quantity the last driving value conserves
    s = chain._snap(t)
    z1 = r * np.exp(2j * np.pi * np.arange(Q) / Q)
    y = z1
    if s < chain.T0:
        ev = lw.loewner_solve(chain.kappa, z1, chain.T0, chain.h, samples=1, t0=s)
        y, s = ev.states[-1], chain.T0
    return np.exp(s) * y / (1.0 + chain.kappa.values[-1] * y) ** 2, z1


# jumps between step edges, so the chain and a separate solve sample the same values
_STEPPED = lw.DrivingFunction.sampled(
    [0.0, 0.3001, 0.7003, 1.1005], [1j, -1.0, complex(math.cos(2), math.sin(2)), 1.0]
)


@pytest.mark.parametrize(
    "drv", [lw.DrivingFunction.constant(complex(math.cos(0.7), math.sin(0.7))), _STEPPED]
)
def test_batched_circles_match_separate_solves_bitwise(drv):
    # each circle, read again or from a fresh time, is its own separate solve
    ch = lw.NumericChain(drv, h=2e-3)
    specs = [
        (0.9, 0.5, 16), (1.5, 0.4, 8), (0.1, 0.3, 8), (0.5, 0.7, 32), (0.1, 0.6, 8),
        (0.9, 0.5, 16), (1.2, 0.5, 16),
    ]
    for t, r, Q in specs:
        vals, z1 = ch._circle(t, r, Q)
        want_vals, want_z1 = _separate_circle(ch, t, r, Q)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(z1, want_z1)


def test_batched_p_on_circle_matches_scalar_calls_bitwise():
    ts, rs = np.meshgrid((0.0, 0.5, 1.5), (0.35, 0.7), indexing="ij")
    for drv in (lw.DrivingFunction.constant(-1.0), _STEPPED):
        p, z = lw.NumericChain(drv, h=2e-3).p_on_circle(ts, rs, 32)
        assert p.shape == z.shape == (3, 2, 32)
        for i in range(3):
            for j in range(2):
                ch = lw.NumericChain(drv, h=2e-3)
                pij, zij = ch.p_on_circle(ts[i, j], rs[i, j], 32)
                assert pij.shape == (32,)
                assert np.array_equal(p[i, j], pij)
                assert np.array_equal(z[i, j], zij)


def test_strided_solve_row_equals_shorter_solve():
    # one T = 10 solve stored every 2 time units carries the T = 8 state exactly
    drv = lw.DrivingFunction.constant(-1.0)
    pts = [0.3, 0.5, 0.5j]
    long = lw.loewner_solve(drv, pts, 10.0, 1e-3, samples=5)
    short = lw.loewner_solve(drv, pts, 8.0, 1e-3, samples=1)
    assert abs(long.times[4] - 8.0) < 1e-12
    assert np.array_equal(long.states[4], short.states[-1])


def test_numeric_log_coeffs_solve_each_circle_once(monkeypatch):
    # the order-4 fit circle of 64 points, and no other
    drv = lw.DrivingFunction.constant(-1.0)
    ch = lw.NumericChain(drv, h=2e-3)
    calls = []
    flow = ch._flow_from
    monkeypatch.setattr(ch, "_flow_from", lambda z0, t0: calls.append(len(z0)) or flow(z0, t0))
    lw.chain_log_coeffs(ch, 1.0, 3)
    assert calls == [64]


def test_numeric_chain_after_last_break_is_closed_form():
    # constant driving -1 regenerates the koebe chain, f_t = e^t k(z), with
    # no horizon: the conserved quantity gives the t -> infinity limit
    ch = lw.NumericChain(lw.DrivingFunction.constant(-1.0), h=2e-3)
    vals, z1 = ch._circle(1.5, 0.7, 64)
    want = math.exp(1.5) * lw.koebe_map(z1)
    assert np.max(np.abs(vals - want) / np.abs(want)) < 1e-12


def test_numeric_chain_before_last_break_matches_a_long_solve():
    # RK4 to the last break, then the exact tail, against e^S w(S) from one
    # solve to S = t + 20, whose own horizon error is ~e^-20
    drv = lw.DrivingFunction.sampled(
        [0.0, 0.3001, 0.7003, 1.1005], [1j, -1.0, complex(math.cos(2), math.sin(2)), 1.0]
    )
    ch = lw.NumericChain(drv, h=2e-3)
    for t in (0.0, 0.5, 1.0):
        vals, z1 = ch._circle(t, 0.6, 16)
        S = t + 20.0
        ev = lw.loewner_solve(drv, z1, S, 2e-3, samples=1, t0=t)
        want = math.exp(S) * ev.states[-1]
        assert np.max(np.abs(vals - want) / np.abs(want)) < 1e-6


def test_the_loewner_suite_does_not_load_numpy_ma():
    # np.unique imports numpy.ma (NumPy 2.4): 15-23 ms in the gate
    code = (
        "import sys; from schlicht import suites; suites.run_suite('loewner'); "
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
