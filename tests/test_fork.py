"""The fork helper: beside() on plain functions, and when can_fork() holds.

The helpers below are shared with tests/test_cli.py, whose trace and suite
splits run through beside()."""

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

from schlicht import _fork


def _count_forks(monkeypatch):
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child():
    # waitpid(-1) raises when this process has no child, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def _beside_on(side, fn):
    """beside() with fn in the child or in this process, and 1 on the other side."""
    return _fork.beside(fn, lambda: 1) if side == "child" else _fork.beside(lambda: 1, fn)


_SIDES = ["child", "here"]


def test_beside_returns_both_values(monkeypatch):
    forks = _count_forks(monkeypatch)
    parent = os.getpid()
    # signed zeros and a large value survive the pipe
    pair = _fork.beside(
        lambda: (os.getpid() != parent, -0.0, "x" * 2**20),
        lambda: (os.getpid() == parent, np.array([0.0, -0.0])),
    )
    (in_child, zero, big), (in_here, zeros) = pair
    assert in_child and in_here
    assert str(zero) == "-0.0" and big == "x" * 2**20
    assert zeros.tobytes() == np.array([0.0, -0.0]).tobytes()
    assert len(forks) == 1
    _assert_no_child()


@pytest.mark.parametrize("side", _SIDES)
def test_a_raise_on_either_side_gives_none(side):
    def raises():
        raise ValueError("planted")

    assert _beside_on(side, raises) is None
    _assert_no_child()


@pytest.mark.parametrize("mode", ["warn", "raise", "call"])
@pytest.mark.parametrize("side", _SIDES)
def test_floating_point_condition_gives_none_unless_ignored(side, mode):
    def divide():
        return float(np.float64(1.0) / np.float64(0.0))

    # every mode but "ignore" raises on both sides, so a callback is not
    # called from the split; either way the caller's error state is left as
    # it was
    calls = []
    with np.errstate(divide=mode, call=lambda err, flag: calls.append(err)):
        assert _beside_on(side, divide) is None
        assert np.geterr()["divide"] == mode
    assert calls == []
    with np.errstate(divide="ignore"):
        pair = _beside_on(side, divide)
        assert pair[side == "here"] == float("inf")
        assert np.geterr()["divide"] == "ignore"
    _assert_no_child()


@pytest.mark.parametrize("caller", ["always", "ignore"])
@pytest.mark.parametrize("side", _SIDES)
def test_a_warning_on_either_side_gives_none(side, caller):
    def warns():
        warnings.warn("planted", UserWarning)
        return 2

    # a warning fails the split even where the caller would ignore it: the
    # caller's one-process run then warns as the caller's filters say
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(caller)
        assert _beside_on(side, warns) is None
    assert caught == []
    _assert_no_child()


@pytest.mark.parametrize("how", ["killed", "exits-nonzero"])
def test_killed_child_gives_none(how):
    def dies():
        if how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3)

    assert _fork.beside(dies, lambda: 1) is None
    _assert_no_child()


def test_failed_fork_gives_none_and_closes_the_pipe(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    ran = []
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert _fork.beside(lambda: ran.append("child"), lambda: ran.append("here")) is None
    assert ran == []
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed


def test_interrupt_in_this_process_kills_and_reaps_the_child():
    def interrupted():
        raise KeyboardInterrupt

    def slow():
        time.sleep(60)  # a child left to finish would hold the caller this long
        return 1

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _fork.beside(slow, interrupted)
    assert time.perf_counter() - start < 30
    _assert_no_child()


_HYGIENE = """
    import atexit, os
    from schlicht import _fork

    forks, fork = [], os.fork
    def counting_fork():
        forks.append(1)
        return fork()
    os.fork = counting_fork
    atexit.register(lambda: print("atexit"))
    print("pending", end="|")  # buffered: stdout is a pipe
    pair = _fork.beside(lambda: "back", lambda: "front")
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print(f"{pair}, forks={len(forks)}, no child", end="|")
"""


def test_fork_leaves_buffers_and_atexit_to_the_parent():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_HYGIENE)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "pending|('back', 'front'), forks=1, no child|atexit\n"
    assert proc.stderr == ""


def test_no_fork_on_one_cpu_or_without_fork(monkeypatch):
    _set_cpus(monkeypatch, 2)
    assert _fork.can_fork()
    _set_cpus(monkeypatch, 1)
    assert not _fork.can_fork()
    _set_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert not _fork.can_fork()
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert not _fork.can_fork()


def test_no_fork_when_sigchld_is_ignored(monkeypatch):
    # beside() could not read the child's exit status
    _set_cpus(monkeypatch, 2)
    assert _fork.can_fork()
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert not _fork.can_fork()
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert _fork.can_fork()


def test_no_fork_beside_another_thread(monkeypatch):
    _set_cpus(monkeypatch, 2)
    assert _fork.can_fork()
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not _fork.can_fork()
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert _fork.can_fork()
