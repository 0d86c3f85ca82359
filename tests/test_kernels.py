"""The NumPy kernels: guards, the RK4 stepper's order of operations, and
the halves of a grid stepped in two processes and put side by side."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fork import _assert_no_child, _count_forks

from schlicht import _fork, _kernels


def _rhs(y, kap):
    return -y * (1.0 + kap * y) / (1.0 - kap * y)


def _drhs(y, kap):
    return (kap * kap * y * y - 2.0 * kap * y - 1.0) / (1.0 - kap * y) ** 2


def _rk4_reference(z0, kappa, h, with_deriv):
    """Textbook RK4, one right-hand-side call per stage, every state stored."""
    y = np.array(z0, dtype=complex)
    v = np.ones_like(y)
    ys, vs = [y], [v]
    for kap in kappa:
        k1 = _rhs(y, kap)
        y2 = y + 0.5 * h * k1
        k2 = _rhs(y2, kap)
        y3 = y + 0.5 * h * k2
        k3 = _rhs(y3, kap)
        y4 = y + h * k3
        k4 = _rhs(y4, kap)
        d1 = _drhs(y, kap) * v
        d2 = _drhs(y2, kap) * (v + 0.5 * h * d1)
        d3 = _drhs(y3, kap) * (v + 0.5 * h * d2)
        d4 = _drhs(y4, kap) * (v + h * d3)
        v = v + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
        vs.append(v)
    return np.array(ys), (np.array(vs) if with_deriv else None)


def test_backend_guards():
    assert _kernels.BACKEND == "numpy"
    with pytest.raises(ValueError, match="escaped|singular"):
        _kernels.rk4_loewner(np.array([0.999999 + 0j]), np.full(50, 1.0 + 0j), 1e-2, 50, False)


def _bits(a):
    # np.array_equal counts -0.0 equal to 0.0; bit patterns do not
    return np.ascontiguousarray(a).view(np.uint64)


def _bitwise_cases():
    rng = np.random.default_rng(11)
    z0 = rng.uniform(0.0, 0.9, 5) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 5))
    yield "random", z0, np.exp(1j * rng.uniform(0.0, 2 * np.pi, 120)), 1
    # exact zeros of either sign, alone and beside nonzero components
    zeros = np.array([
        0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
        complex(0.2, -0.0), complex(-0.3, 0.0), complex(-0.0, 0.4), complex(0.0, -0.5),
    ])
    for kap in (1, -1, 1j, complex(1, -0.0)):
        yield f"zeros-kappa-{kap}", zeros, np.full(40, kap, dtype=complex), 1
    # a wide grid under stepped kappa, stored every 25 steps: a stored row
    # that aliases the state updated in place would read as the last state
    grid = rng.uniform(0.0, 0.9, 512) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 512))
    pieces = np.exp(1j * np.array([0.3, 2.0, -1.1, np.pi]))
    yield "stepped-512", grid, np.repeat(pieces, [30, 45, 60, 65]), 25


def _check_textbook_bitwise(with_deriv, split=False):
    for name, z0, kappa, stride in _bitwise_cases():
        start = z0.copy()
        if split:
            # the halves of the grid stepped apart and put side by side
            mid = z0.shape[0] // 2
            halves = [_kernels.rk4_loewner(part, kappa, 1e-2, stride, with_deriv)
                      for part in (z0[:mid], z0[mid:])]
            traj = np.concatenate([half[0] for half in halves], axis=1)
            dtraj = np.concatenate([half[1] for half in halves], axis=1) if with_deriv else None
        else:
            traj, dtraj = _kernels.rk4_loewner(z0, kappa, 1e-2, stride, with_deriv)
        ref, dref = _rk4_reference(z0, kappa, 1e-2, with_deriv)
        assert np.array_equal(_bits(traj), _bits(ref[::stride])), name
        assert np.array_equal(_bits(z0), _bits(start)), name  # the start is not updated in place
        if with_deriv:
            assert np.array_equal(_bits(dtraj), _bits(dref[::stride])), name
        else:
            assert dtraj is None


@pytest.mark.parametrize("with_deriv", [False, True])
def test_rk4_matches_textbook_stages_bitwise(with_deriv):
    _check_textbook_bitwise(with_deriv)


@pytest.mark.parametrize("with_deriv", [False, True])
def test_rk4_split_matches_textbook_stages_bitwise(with_deriv):
    # RK4 steps each point by itself: every case, split by points into
    # halves (5 points, 8 signed zeros, 512 points stored every 25 steps
    # under stepped kappa), gives the textbook bits
    _check_textbook_bitwise(with_deriv, split=True)


def test_rk4_stride_keeps_every_stored_state():
    z0 = np.array([0.3, 0.5j, -0.2 + 0.4j])
    kappa = np.full(200, -1.0 + 0j)
    every, _ = _kernels.rk4_loewner(z0, kappa, 1e-2, 1, False)
    strided, _ = _kernels.rk4_loewner(z0, kappa, 1e-2, 50, False)
    assert np.array_equal(strided, every[::50])


def test_nan_state_trips_a_guard():
    z0 = np.array([complex("nan"), 0.5 + 0j])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="escaped|singular"):
        _kernels.rk4_loewner(z0, np.full(10, -1.0 + 0j), 1e-2, 10, False)


def test_empty_grid_passes_the_guards():
    z0 = np.zeros(0, dtype=complex)
    traj, _ = _kernels.rk4_loewner(z0, np.full(4, -1.0 + 0j), 1e-2, 2, False)
    assert traj.shape == (3, 0)


def _guarded_reference(z0, kappa, h):
    """The kernel's outcome, every state stored, by the textbook update and
    the guards as they ran on every step before the guard bound: the
    "singular" check first, then "escaped", both failed by NaN."""
    ys = [np.array(z0, dtype=complex)]
    for s, kap in enumerate(kappa):
        y = _rk4_reference(ys[-1], kappa[s:s + 1], h, False)[0][-1]
        if not np.abs(1.0 - kap * y).min(initial=np.inf) >= 1e-6:
            return ValueError, "singular"
        if not np.abs(y).max(initial=0.0) < 1.0:
            return ValueError, "escaped"
        ys.append(y)
    return _bits(np.array(ys)).tobytes(), None


_NONFINITE = [complex("nan"), complex("inf"), complex("-inf"), complex(0.5, float("nan")),
              complex(float("inf"), 0.5), complex(float("nan"), float("inf"))]


def _driving(modulus, angle, roll):
    # NaN or inf in 2 of 20 steps
    if roll < 2:
        return (complex("nan"), complex("inf"))[roll]
    return modulus * np.exp(1j * angle)


@st.composite
def _guard_cases(draw):
    """A few states beside the guards' edges under a driving with |kappa| != 1
    at times: |y| within 1e-4 of 1, kappa y within 1e-5 of 1, NaN and inf
    (in the states, and now and then in kappa)."""
    angle = st.floats(-np.pi, np.pi)
    modulus = st.sampled_from([1.0]) | st.floats(0.25, 4.0)
    kappa = np.array(draw(st.lists(
        st.builds(_driving, modulus, angle, st.integers(0, 19)), min_size=1, max_size=3
    )))
    kap0 = kappa[0] if np.isfinite(kappa[0]) else 1.0
    point = st.one_of(
        st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.0, 0.9), angle),
        st.builds(lambda r, a: r * np.exp(1j * a), st.floats(1 - 1e-4, 1 + 1e-4), angle),
        st.builds(lambda e, a: (1 + e) * np.exp(1j * a) / kap0,
                  st.floats(-1e-5, 1e-5), st.floats(-1e-6, 1e-6)),
        st.sampled_from(_NONFINITE),
    )
    z0 = np.array(draw(st.lists(point, min_size=1, max_size=5)), dtype=complex)
    return z0, kappa, draw(st.sampled_from([1e-15, 1e-9, 1e-6, 1e-3, 1e-2]))


def _diagonal(r, turns=0):
    # r e^{i pi/4} turns times a quarter turn: |Re| = |Im| = r / sqrt(2)
    c = r / np.sqrt(2.0)
    return complex(c, c) * 1j**turns


@settings(max_examples=200, deadline=None)
@given(_guard_cases())
# |y| = 1 + 1e-5 on the diagonal, where max(|Re y|, |Im y|) is |y| / sqrt(2)
@example((np.array([_diagonal(1 + 1e-5), 0.3]), np.array([1.0 + 0j]), 1e-15))
# |1 - kappa y| = 5e-7 with |y| within 1e-5 of 1 on the diagonal
@example((np.array([_diagonal(1 - 5e-7)]), np.array([np.conj(_diagonal(1.0))]), 1e-15))
# |1 - kappa y| = 5e-7 with |kappa| = 2 and |y| = 1/2
@example((np.array([0.5 * (1 - 5e-7) + 0j, 0.1j]), np.array([2.0 + 0j, 2.0 + 0j]), 1e-15))
@example((np.array([_diagonal(0.5), complex("nan")]), np.array([1j]), 1e-3))
@example((np.array([_diagonal(0.5, 3)]), np.array([complex("inf")]), 1e-3))
def test_guard_bound_gives_the_exact_guards_outcome(case):
    z0, kappa, h = case
    with np.errstate(all="ignore"):
        assert _outcome(z0, kappa, h, 1, False) == _guarded_reference(z0, kappa, h)


def _outcome(z0, kappa, h, stride, with_deriv):
    """The kernel's result as bit patterns, or the type and text it raised."""
    try:
        traj, dtraj = _kernels.rk4_loewner(z0, kappa, h, stride, with_deriv)
    except Exception as exc:
        return type(exc), str(exc)
    return _bits(traj).tobytes(), None if dtraj is None else _bits(dtraj).tobytes()


# RK4 steps each point by itself, so the back half of a grid stepped in a
# forked child beside the front half (_fork.beside) gives the whole grid's
# bits.  When beside() gives None, the one-process outcome stands.

def _split_and_one_process(monkeypatch, z0, kappa, h, stride, with_deriv):
    """The kernel's outcome with the halves of the grid stepped beside each
    other (None when beside() gave None), then in one process."""
    forks = _count_forks(monkeypatch)
    mid = z0.shape[0] // 2
    pair = _fork.beside(
        lambda: _kernels.rk4_loewner(z0[mid:], kappa, h, stride, with_deriv),
        lambda: _kernels.rk4_loewner(z0[:mid], kappa, h, stride, with_deriv),
    )
    assert len(forks) == 1
    _assert_no_child()
    split = None
    if pair is not None:
        (back, dback), (front, dfront) = pair
        split = _bits(np.concatenate([front, back], axis=1)).tobytes(), (
            None if dback is None else _bits(np.concatenate([dfront, dback], axis=1)).tobytes()
        )
    return split, _outcome(z0, kappa, h, stride, with_deriv)


def _polar_grid(width, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 0.9, width) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, width))


@pytest.mark.parametrize("with_deriv", [False, True])
def test_split_at_the_threshold_is_bitwise_one_process(monkeypatch, with_deriv):
    # a wide grid of 1,024 points for 1,024 steps under stepped kappa
    width = nsteps = 1024
    pieces = np.exp(1j * np.array([0.3, 2.0, -1.1]))
    kappa = np.repeat(pieces, [nsteps // 3, nsteps // 3, nsteps - 2 * (nsteps // 3)])
    stride = next(d for d in (256, 128, 64, 32, 16, 8, 4, 2, 1) if nsteps % d == 0)
    split, alone = _split_and_one_process(
        monkeypatch, _polar_grid(width), kappa, 1e-3, stride, with_deriv
    )
    assert isinstance(split[0], bytes)
    assert split == alone


# A 64-point grid splits into points 0-31 (this process) and 32-63 (the
# child).  Point 5 escapes at the step where kappa = 1, point 40 at the step
# where kappa = -1j; every other step is benign for the whole grid.
_BENIGN = np.exp(0.75j * np.pi)


def _kappa(front_step=None, back_step=None, nsteps=8):
    kappa = np.full(nsteps, _BENIGN)
    if front_step:
        kappa[front_step - 1] = 1.0
    if back_step:
        kappa[back_step - 1] = -1j
    return kappa


def _planted(front=0.999, back=0.999j):
    z0 = _polar_grid(64, seed=5)
    z0[5], z0[40] = front, back
    return z0


_ESCAPED = (ValueError, "escaped")
_FAILURES = {
    "front-only": (_planted(), _kappa(front_step=5), "ignore", _ESCAPED),
    "back-only": (_planted(), _kappa(back_step=3), "ignore", _ESCAPED),
    "back-first": (_planted(), _kappa(front_step=5, back_step=2), "ignore", _ESCAPED),
    "front-first": (_planted(), _kappa(front_step=2, back_step=5), "ignore", _ESCAPED),
    # the first failure wins, whichever half it is in
    "nan-back-escape-front": (
        _planted(back=complex("nan")), _kappa(front_step=3), "ignore", (ValueError, "singular")
    ),
    "nan-front-escape-back": (
        _planted(front=complex("nan")), _kappa(back_step=3), "ignore", (ValueError, "singular")
    ),
    # invalid = warn, warnings as errors: the child's half meets the NaN
    "warning-in-back": (
        _planted(back=complex("inf")), _kappa(front_step=5), "warn",
        (RuntimeWarning, "invalid value encountered in multiply"),
    ),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_split_failures_raise_what_one_process_raises(monkeypatch, case):
    z0, kappa, invalid, expected = _FAILURES[case]
    with warnings.catch_warnings(), np.errstate(invalid=invalid):
        warnings.simplefilter("error", RuntimeWarning)
        split, alone = _split_and_one_process(monkeypatch, z0, kappa, 1e-2, 1, False)
    # a failed half gives None, so what the one-process run raises stands
    assert split is None
    assert alone == expected


def test_split_warnings_are_the_one_process_warnings(monkeypatch):
    # the tiny point underflows in the child's half: beside() gives None and
    # no warning, so the warnings are the one-process run's; the solve passes
    z0 = _planted(0.5, 1e-300 + 0j)
    with warnings.catch_warnings(record=True) as caught, np.errstate(under="warn"):
        warnings.simplefilter("always")
        split, alone = _split_and_one_process(monkeypatch, z0, _kappa(), 1e-2, 1, False)
    assert split is None
    assert isinstance(alone[0], bytes) and caught
    assert {w.category for w in caught} == {RuntimeWarning}
