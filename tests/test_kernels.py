"""The NumPy kernels: guards, the RK4 stepper's order of operations and its
two-process split."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _count_forks(monkeypatch):
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _split_any_grid(monkeypatch):
    monkeypatch.setattr(_kernels, "SPLIT_MIN_WIDTH", 2)
    monkeypatch.setattr(_kernels, "SPLIT_MIN_POINT_STEPS", 0)


def _no_fork(monkeypatch):
    def fork():
        raise AssertionError("the kernel forked")

    monkeypatch.setattr(os, "fork", fork)


def _assert_no_child():
    # waitpid(-1) raises when this process has no child, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _check_textbook_bitwise(with_deriv, forks=None):
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
        if forks is not None:
            assert len(forks) == 1, name
            forks.clear()
            _assert_no_child()


@pytest.mark.parametrize("with_deriv", [False, True])
def test_rk4_matches_textbook_stages_bitwise(with_deriv):
    _check_textbook_bitwise(with_deriv)


@pytest.mark.parametrize("with_deriv", [False, True])
def test_rk4_split_matches_textbook_stages_bitwise(monkeypatch, with_deriv):
    # every case splits: 5 points (odd), 8 signed zeros, 512 points stored
    # every 25 steps under stepped kappa
    forks = _count_forks(monkeypatch)
    _set_cpus(monkeypatch, 2)
    _split_any_grid(monkeypatch)
    _check_textbook_bitwise(with_deriv, forks)


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


def _split_and_one_process(monkeypatch, run, nforks=1):
    """What run() gives split over two CPUs (nforks forks), then in one
    process."""
    forks = _count_forks(monkeypatch)
    _set_cpus(monkeypatch, 2)
    split = run()
    assert len(forks) == nforks
    _assert_no_child()
    _set_cpus(monkeypatch, 1)
    alone = run()
    assert len(forks) == nforks
    return split, alone


def _at_threshold():
    """Width and step count of the smallest solve the real rule splits."""
    width = _kernels.SPLIT_MIN_WIDTH
    return width, -(-_kernels.SPLIT_MIN_POINT_STEPS // width)


def _polar_grid(width, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 0.9, width) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, width))


@pytest.mark.parametrize("with_deriv", [False, True])
def test_split_at_the_threshold_is_bitwise_one_process(monkeypatch, with_deriv):
    width, nsteps = _at_threshold()
    pieces = np.exp(1j * np.array([0.3, 2.0, -1.1]))
    kappa = np.repeat(pieces, [nsteps // 3, nsteps // 3, nsteps - 2 * (nsteps // 3)])
    stride = next(d for d in (256, 128, 64, 32, 16, 8, 4, 2, 1) if nsteps % d == 0)
    z0 = _polar_grid(width)
    split, alone = _split_and_one_process(
        monkeypatch, lambda: _outcome(z0, kappa, 1e-3, stride, with_deriv)
    )
    assert isinstance(split[0], bytes)
    assert split == alone


def test_no_fork_below_the_threshold_one_cpu_or_without_fork(monkeypatch):
    width, nsteps = _at_threshold()
    kappa = np.full(nsteps, np.exp(0.7j))
    _no_fork(monkeypatch)
    _set_cpus(monkeypatch, 2)
    _kernels.rk4_loewner(_polar_grid(width - 1), kappa, 1e-3, nsteps, False)
    _kernels.rk4_loewner(_polar_grid(width), kappa[:-1], 1e-3, nsteps - 1, False)
    assert _fork.can_fork()
    _set_cpus(monkeypatch, 1)
    assert not _fork.can_fork()
    _kernels.rk4_loewner(_polar_grid(width), kappa, 1e-3, nsteps, False)
    _set_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert not _fork.can_fork()
    _kernels.rk4_loewner(_polar_grid(width), kappa, 1e-3, nsteps, False)


def test_split_follows_the_real_affinity(monkeypatch):
    # under `taskset -c 0` this runs the one-CPU path of the real rule
    width, nsteps = _at_threshold()
    forks = _count_forks(monkeypatch)
    _kernels.rk4_loewner(_polar_grid(width), np.full(nsteps, -1.0 + 0j), 1e-3, nsteps, False)
    assert len(forks) == (len(os.sched_getaffinity(0)) >= 2)


def test_no_fork_when_sigchld_is_ignored(monkeypatch):
    # the kernel could not read the child's exit status
    width, nsteps = _at_threshold()
    _no_fork(monkeypatch)
    _set_cpus(monkeypatch, 2)
    assert _fork.can_fork()
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert not _fork.can_fork()
        _kernels.rk4_loewner(_polar_grid(width), np.full(nsteps, -1.0 + 0j), 1e-3, nsteps, False)
    finally:
        signal.signal(signal.SIGCHLD, previous)


def test_no_fork_beside_another_thread(monkeypatch):
    width, nsteps = _at_threshold()
    _no_fork(monkeypatch)
    _set_cpus(monkeypatch, 2)
    assert _fork.can_fork()
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not _fork.can_fork()
        _kernels.rk4_loewner(_polar_grid(width), np.full(nsteps, -1.0 + 0j), 1e-3, nsteps, False)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert _fork.can_fork()


@pytest.mark.parametrize("side", ["child", "here"])
def test_no_split_inside_a_split(monkeypatch, side):
    # a wide solve inside either function of beside() steps in one process
    width, nsteps = _at_threshold()
    z0, kappa = _polar_grid(width), np.full(nsteps, np.exp(0.7j))
    _set_cpus(monkeypatch, 1)
    alone = _outcome(z0, kappa, 1e-3, nsteps, False)
    forks = _count_forks(monkeypatch)
    _set_cpus(monkeypatch, 2)

    def wide():
        # the outcome and the forks this process has made, beside()'s own
        # included; in the child, a child left behind fails beside()
        out = _outcome(z0, kappa, 1e-3, nsteps, False)
        if side == "child":
            _assert_no_child()
        return len(forks), out

    def idle():
        return None

    pair = _fork.beside(wide, idle) if side == "child" else _fork.beside(idle, wide)
    assert pair is not None
    assert pair[side == "here"] == (1, alone)
    assert len(forks) == 1
    _assert_no_child()
    assert _fork.can_fork()


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
    _split_any_grid(monkeypatch)
    with warnings.catch_warnings(), np.errstate(invalid=invalid):
        warnings.simplefilter("error", RuntimeWarning)
        split, alone = _split_and_one_process(
            monkeypatch, lambda: _outcome(z0, kappa, 1e-2, 1, False)
        )
    assert alone == expected
    assert split == alone


def test_split_warnings_are_the_one_process_warnings(monkeypatch):
    # the tiny point underflows in the child's half; the solve passes
    z0 = _planted(0.5, 1e-300 + 0j)
    _split_any_grid(monkeypatch)

    def run():
        with warnings.catch_warnings(record=True) as caught, np.errstate(under="warn"):
            warnings.simplefilter("always")
            out = _outcome(z0, _kappa(), 1e-2, 1, False)
        return out, [(w.category, str(w.message)) for w in caught]

    split, alone = _split_and_one_process(monkeypatch, run)
    assert isinstance(alone[0][0], bytes) and alone[1]
    assert split == alone


def test_crashed_child_reruns_in_one_process(monkeypatch):
    parent, steps = os.getpid(), _kernels._rk4_steps

    def crash_in_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return steps(*args)

    monkeypatch.setattr(_kernels, "_rk4_steps", crash_in_child)
    _split_any_grid(monkeypatch)
    z0 = _planted(0.5, 0.5j)
    split, alone = _split_and_one_process(
        monkeypatch, lambda: _outcome(z0, _kappa(), 1e-2, 2, True)
    )
    assert isinstance(split[0], bytes)
    assert split == alone


def test_failed_fork_steps_in_one_process(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    _split_any_grid(monkeypatch)
    z0 = _planted(0.5, 0.5j)
    _set_cpus(monkeypatch, 1)
    alone = _outcome(z0, _kappa(), 1e-2, 2, True)
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert _outcome(z0, _kappa(), 1e-2, 2, True) == alone
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed


def test_interrupt_in_this_process_kills_and_reaps_the_child(monkeypatch):
    parent, steps = os.getpid(), _kernels._rk4_steps

    def interrupt_in_parent(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a child left to finish would hold the caller this long
        return steps(*args)

    monkeypatch.setattr(_kernels, "_rk4_steps", interrupt_in_parent)
    _split_any_grid(monkeypatch)
    _set_cpus(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _kernels.rk4_loewner(_planted(0.5, 0.5j), _kappa(), 1e-2, 1, False)
    assert time.perf_counter() - start < 30
    _assert_no_child()


_HYGIENE = """
    import atexit, os
    import numpy as np
    from schlicht import _fork, _kernels

    forks, fork = [], os.fork
    def counting_fork():
        forks.append(1)
        return fork()
    os.fork = counting_fork
    os.sched_getaffinity = lambda pid: {0, 1}
    atexit.register(lambda: print("atexit"))
    print("pending", end="|")  # buffered: stdout is a pipe
    width = _kernels.SPLIT_MIN_WIDTH
    nsteps = -(-_kernels.SPLIT_MIN_POINT_STEPS // width)
    _kernels.rk4_loewner(np.full(width, 0.5 + 0j), np.full(nsteps, -1.0 + 0j), 1e-3, nsteps, False)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print(f"forks={len(forks)}, no child", end="|")
"""


def test_fork_leaves_buffers_and_atexit_to_the_parent():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_HYGIENE)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "pending|forks=1, no child|atexit\n"
    assert proc.stderr == ""
