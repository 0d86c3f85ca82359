"""Two calls at once on two CPUs: one in a forked child, one in this process.

``beside(child_fn, here_fn)`` is the one place the package forks.  Its
callers split work whose parts do not depend on each other (the halves of
a wide trace, the shares of ``verify --suite all``) and keep a
one-process path: ``beside`` returns None whenever either side fails in
any way, and the caller then does the whole job in this process, whose
outcome stands.  So results, exceptions and warnings are always the
one-process ones.
"""

import os
import pickle
import signal
import threading
import warnings

import numpy as np


def can_fork():
    """Whether beside() may fork here.

    With os.fork, a second CPU in this process's affinity, no other Python
    thread (a fork beside a running thread can deadlock the child) and
    SIGCHLD not ignored (which would reap the child before its exit status
    is read).
    """
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
        and signal.getsignal(signal.SIGCHLD) is not signal.SIG_IGN
    )


def beside(child_fn, here_fn):
    """Run child_fn in a forked child while this process runs here_fn.

    Returns (child_fn(), here_fn()); the child's value comes back pickled
    through a pipe.  Returns None when either side failed: an exception, a
    warning (both sides raise warnings as errors), a floating-point
    condition the caller does not ignore (both sides raise them, under the
    caller's error state with every non-ignored condition set to raise), a
    child that died or exited nonzero, or a fork that failed.  The child is
    killed unless it finished, and reaped, on every path, a
    KeyboardInterrupt included.
    """
    strict = {key: "ignore" if how == "ignore" else "raise" for key, how in np.geterr().items()}

    def strictly(fn):
        with np.errstate(**strict), warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn()

    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork beside native threads (NumPy's
            # BLAS pool); the child leaves by os._exit
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to be had
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(strictly(child_fn), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            # never flush the parent's buffers or run its atexit handlers
            os._exit(code)
    os.close(write_fd)
    status = None
    try:
        with open(read_fd, "rb") as pipe:
            here = strictly(here_fn)
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    except Exception:
        return None  # the caller's one-process run raises it again
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return (pickle.loads(payload), here) if status == 0 else None
