"""The NumPy kernels: RK4's guards and its textbook order of operations."""

import numpy as np
import pytest

from schlicht import _kernels
from schlicht.errors import TrajectoryEscaped


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
    with pytest.raises(TrajectoryEscaped, match="escaped|singular"):
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


@pytest.mark.parametrize("with_deriv", [False, True])
def test_rk4_matches_textbook_stages_bitwise(with_deriv):
    for name, z0, kappa, stride in _bitwise_cases():
        start = z0.copy()
        traj, dtraj = _kernels.rk4_loewner(z0, kappa, 1e-2, stride, with_deriv)
        ref, dref = _rk4_reference(z0, kappa, 1e-2, with_deriv)
        assert np.array_equal(_bits(traj), _bits(ref[::stride])), name
        assert np.array_equal(_bits(z0), _bits(start)), name  # the start is not updated in place
        if with_deriv:
            assert np.array_equal(_bits(dtraj), _bits(dref[::stride])), name
        else:
            assert dtraj is None


def test_rk4_stride_keeps_every_stored_state():
    z0 = np.array([0.3, 0.5j, -0.2 + 0.4j])
    kappa = np.full(200, -1.0 + 0j)
    every, _ = _kernels.rk4_loewner(z0, kappa, 1e-2, 1, False)
    strided, _ = _kernels.rk4_loewner(z0, kappa, 1e-2, 50, False)
    assert np.array_equal(strided, every[::50])


def test_nan_state_trips_a_guard():
    z0 = np.array([complex("nan"), 0.5 + 0j])
    with np.errstate(invalid="ignore"), pytest.raises(TrajectoryEscaped, match="escaped|singular"):
        _kernels.rk4_loewner(z0, np.full(10, -1.0 + 0j), 1e-2, 10, False)


def test_empty_grid_passes_the_guards():
    z0 = np.zeros(0, dtype=complex)
    traj, _ = _kernels.rk4_loewner(z0, np.full(4, -1.0 + 0j), 1e-2, 2, False)
    assert traj.shape == (3, 0)


def _guarded_reference(z0, kappa, h):
    """The kernel's outcome, every state stored, by the textbook update and
    the guards after every step: the "singular" check first, then
    "escaped", both failed by NaN."""
    ys = [np.array(z0, dtype=complex)]
    for s, kap in enumerate(kappa):
        y = _rk4_reference(ys[-1], kappa[s:s + 1], h, False)[0][-1]
        if not np.abs(1.0 - kap * y).min(initial=np.inf) >= 1e-6:
            return TrajectoryEscaped, "singular"
        if not np.abs(y).max(initial=0.0) < 1.0:
            return TrajectoryEscaped, "escaped"
        ys.append(y)
    return _bits(np.array(ys)).tobytes(), None


def _diagonal(r, turns=0):
    # r e^{i pi/4} turns times a quarter turn: |Re| = |Im| = r / sqrt(2)
    c = r / np.sqrt(2.0)
    return complex(c, c) * 1j**turns


_GUARD_EDGES = {
    # |y| = 1 + 1e-5 on the diagonal
    "escaped-diagonal": (np.array([_diagonal(1 + 1e-5), 0.3]), np.array([1.0 + 0j]), 1e-15),
    # |1 - kappa y| = 5e-7 with |y| within 1e-5 of 1 on the diagonal
    "singular-diagonal": (
        np.array([_diagonal(1 - 5e-7)]), np.array([np.conj(_diagonal(1.0))]), 1e-15
    ),
    # |1 - kappa y| = 5e-7 with |kappa| = 2 and |y| = 1/2
    "singular-kappa-2": (
        np.array([0.5 * (1 - 5e-7) + 0j, 0.1j]), np.array([2.0 + 0j, 2.0 + 0j]), 1e-15
    ),
    "nan-state": (np.array([_diagonal(0.5), complex("nan")]), np.array([1j]), 1e-3),
    "inf-kappa": (np.array([_diagonal(0.5, 3)]), np.array([complex("inf")]), 1e-3),
}


@pytest.mark.parametrize("case", list(_GUARD_EDGES))
def test_guards_at_their_edges_match_the_textbook_guards(case):
    z0, kappa, h = _GUARD_EDGES[case]
    with np.errstate(all="ignore"):
        assert _outcome(z0, kappa, h, 1, False) == _guarded_reference(z0, kappa, h)


def _outcome(z0, kappa, h, stride, with_deriv):
    """The kernel's result as bit patterns, or the type and text it raised."""
    try:
        traj, dtraj = _kernels.rk4_loewner(z0, kappa, h, stride, with_deriv)
    except Exception as exc:
        return type(exc), str(exc)
    return _bits(traj).tobytes(), None if dtraj is None else _bits(dtraj).tobytes()


def _division_by_dot(a, b):
    """Long division of one row, one np.dot per coefficient."""
    q = np.empty(len(a), dtype=complex)
    q[0] = a[0] / b[0]
    for i in range(1, len(a)):
        q[i] = (a[i] - np.dot(q[:i], b[i:0:-1])) / b[0]
    return q


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("rows, n", [(50, 64), (7, 200), (3, 5), (4, 2), (2, 1)])
def test_cauchy_div_rows_of_a_stack_are_the_one_row_quotients(rows, n):
    rng = np.random.default_rng(rows * 1000 + n)
    a = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    b = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    stacked = _kernels.cauchy_div(a, b)
    for i in range(rows):
        one = _kernels.cauchy_div(a[i], b[i])
        assert np.array_equal(_bits(stacked[i]), _bits(one)), i
        assert np.array_equal(_bits(one), _bits(_division_by_dot(a[i], b[i]))), i


def test_cauchy_div_of_a_stack_divides_every_row():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
    b[:, 0] += 4.0  # well away from a vanishing constant term
    q = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
    a = np.array([_kernels.cauchy_mul(q[i], b[i]) for i in range(6)])
    assert np.max(np.abs(_kernels.cauchy_div(a, b) - q)) < 1e-12
