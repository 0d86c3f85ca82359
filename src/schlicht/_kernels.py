"""The hot kernels: series products, division, composition and RK4.

There is one backend, written in NumPy.  Callers reach the kernels through
this module's attributes, so a profiler can wrap them here.

Series products, division and composition work on coefficient arrays; the
RK4 stepper advances every trajectory of a solve in one array per stage, so
its cost per step is a fixed number of ufunc calls whatever the width.
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


def _drhs(y, kk, k2x, den):
    # d/dy of the right-hand side: (k^2 y^2 - 2 k y - 1)/(1 - ky)^2
    return (kk * y * y - k2x * y - 1.0) / den**2


def rk4_loewner(z0, kappa, h, store_stride, with_deriv):
    """Classical fixed-step RK4 for the radial Loewner equation.

    z0:     initial states, shape (nz,)
    kappa:  driving value per step (piecewise constant), shape (nsteps,)
    Stores every store_stride-th state (nsteps must be a multiple).
    Returns (traj, dtraj) where traj has shape (nsteps//stride + 1, nz);
    dtraj carries d(state)/d(z0) when with_deriv, else None.
    Status: raises ValueError("escaped") / ValueError("singular") on the
    guard conditions; callers translate to the library error types.  A NaN
    state fails the guards too.

    Each stage forms the product ky once and shares 1 - ky between the
    right-hand side -y (1 + ky)/(1 - ky) and its y-derivative.
    """
    nsteps = kappa.shape[0]
    nstored = nsteps // store_stride + 1
    y = np.array(z0, dtype=complex)
    traj = np.empty((nstored, y.shape[0]), dtype=complex)
    traj[0] = y
    v = np.ones_like(y) if with_deriv else None
    dtraj = None
    if with_deriv:
        dtraj = np.empty_like(traj)
        dtraj[0] = v
    half, sixth = 0.5 * h, h / 6.0
    row = 1
    for s in range(nsteps):
        kap = kappa[s]
        ky = kap * y
        den1 = 1.0 - ky
        k1 = -y * (1.0 + ky) / den1
        y2 = y + half * k1
        ky = kap * y2
        den2 = 1.0 - ky
        k2 = -y2 * (1.0 + ky) / den2
        y3 = y + half * k2
        ky = kap * y3
        den3 = 1.0 - ky
        k3 = -y3 * (1.0 + ky) / den3
        y4 = y + h * k3
        ky = kap * y4
        den4 = 1.0 - ky
        k4 = -y4 * (1.0 + ky) / den4
        if with_deriv:
            kk, k2x = kap * kap, 2.0 * kap
            d1 = _drhs(y, kk, k2x, den1) * v
            d2 = _drhs(y2, kk, k2x, den2) * (v + half * d1)
            d3 = _drhs(y3, kk, k2x, den3) * (v + half * d2)
            d4 = _drhs(y4, kk, k2x, den4) * (v + h * d3)
            v = v + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # written so that NaN fails them: a comparison with NaN is False
        if not np.abs(1.0 - kap * y).min(initial=np.inf) >= 1e-6:
            raise ValueError("singular")
        if not np.abs(y).max(initial=0.0) < 1.0:
            raise ValueError("escaped")
        if (s + 1) % store_stride == 0:
            traj[row] = y
            if with_deriv:
                dtraj[row] = v
            row += 1
    return traj, dtraj
