"""The kernels: series products, division, composition and RK4.

There is one backend, written in NumPy.  Callers reach the kernels through
this module's attributes, so a profiler can wrap them here.

Series products and division work on coefficient arrays.  RK4 is the
textbook method, one NumPy expression per stage over every trajectory of a
solve.  It is the oracle of ``loewner.loewner_solve``, which moves each
constant piece of the driving by its closed-form flow: the suites and tests
call RK4 to measure its fourth order and to hold the exact flow to it.

No command or suite calls ``compose``, nor ``rk4_loewner``'s ``with_deriv``
branch and ``_drhs``.  They stay only because the benchmark harness
(``perfbench/bench_trace.py``) wraps ``compose`` by name and counts
``rk4_loewner`` calls by its five positional arguments; they go once the
harness reads its counts from the library instead.
"""

import numpy as np

BACKEND = "numpy"


def cauchy_mul(a, b):
    # truncated Cauchy product, equal-length inputs
    n = a.shape[0]
    return np.convolve(a, b)[:n]


def cauchy_div(a, b):
    # long division, b[0] != 0 guaranteed by the caller
    n = a.shape[0]
    q = np.empty(n, dtype=complex)
    b0 = b[0]
    q[0] = a[0] / b0
    for i in range(1, n):
        q[i] = (a[i] - np.dot(q[:i], b[i:0:-1])) / b0
    return q


def compose(outer, inner):
    # Horner scheme in series arithmetic; inner[0] == 0 guaranteed
    n = outer.shape[0]
    h = np.zeros(n, dtype=complex)
    h[0] = outer[n - 1]
    for j in range(n - 2, -1, -1):
        h = np.convolve(h, inner)[:n]
        h[0] += outer[j]
    return h


def _rhs(y, kap):
    # the radial Loewner right-hand side: -y (1 + ky)/(1 - ky)
    return -y * (1.0 + kap * y) / (1.0 - kap * y)


def _drhs(y, kap):
    # d/dy of the right-hand side: (k^2 y^2 - 2 k y - 1)/(1 - ky)^2
    return (kap * kap * y * y - 2.0 * kap * y - 1.0) / (1.0 - kap * y) ** 2


def rk4_loewner(z0, kappa, h, store_stride, with_deriv):
    """Classical fixed-step RK4 for the radial Loewner equation.

    z0:     initial states, shape (nz,)
    kappa:  driving value per step (piecewise constant), shape (nsteps,)
    Stores every store_stride-th state (nsteps must be a multiple).
    Returns (traj, dtraj) where traj has shape (nsteps//stride + 1, nz);
    dtraj carries d(state)/d(z0) when with_deriv, else None.
    Status: after every step, raises ValueError("singular") where some
    |1 - kappa y| < 1e-6, then ValueError("escaped") where some |y| >= 1;
    callers translate to the library error types.  A NaN state fails both.
    """
    y = np.array(z0, dtype=complex)
    v = np.ones_like(y)
    ys, vs = [y], [v]
    for s, kap in enumerate(kappa):
        k1 = _rhs(y, kap)
        y2 = y + 0.5 * h * k1
        k2 = _rhs(y2, kap)
        y3 = y + 0.5 * h * k2
        k3 = _rhs(y3, kap)
        y4 = y + h * k3
        k4 = _rhs(y4, kap)
        if with_deriv:
            d1 = _drhs(y, kap) * v
            d2 = _drhs(y2, kap) * (v + 0.5 * h * d1)
            d3 = _drhs(y3, kap) * (v + 0.5 * h * d2)
            d4 = _drhs(y4, kap) * (v + h * d3)
            v = v + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # both comparisons are written so that NaN fails them
        if not np.abs(1.0 - kap * y).min(initial=np.inf) >= 1e-6:
            raise ValueError("singular")
        if not np.abs(y).max(initial=0.0) < 1.0:
            raise ValueError("escaped")
        if (s + 1) % store_stride == 0:
            ys.append(y)
            vs.append(v)
    return np.array(ys), (np.array(vs) if with_deriv else None)
