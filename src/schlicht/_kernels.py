"""The hot kernels: series products, division, composition and RK4.

There is one backend, written in NumPy.  Callers reach the kernels through
this module's attributes, so a profiler can wrap them here.

Series products, division and composition work on coefficient arrays; the
RK4 stepper advances every trajectory of a solve in one array per stage, so
its cost per step is a fixed number of ufunc calls whatever the width.  The
stepper writes every stage into buffers allocated once per call, in the
textbook order of operations, so its trajectories are bitwise those of the
plain array expressions.
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

    Every width-nz array of a step lives in a buffer allocated once per
    call: ky, -y, the stage inputs y2..y4, one denominator 1 - ky per stage
    (the derivative reuses them), the slopes k1..k4 (k1 is also the
    accumulator) and a float buffer for |.|.  Every ufunc writes into one of
    them with out=, so a step allocates no array outside the derivative path.

    The result is bit for bit that of the textbook expressions
    k = -y (1 + ky)/(1 - ky), y2 = y + (h/2) k1, ...,
    y + (h/6)(((k1 + 2 k2) + 2 k3) + k4), signed zeros included: each
    buffered call is the same ufunc on the same operands, in the same order
    and with the same Python-float scalars, as one operator of those
    expressions.  The one change is the sign flip -y, done by np.negative on
    float64 views of the stage input and of the -y buffer.  It flips the
    same sign bits as the complex negative, which NumPy does not vectorize
    (about 3x slower at width 4096).  Folding the sign into the denominator,
    y (1 + ky)/(ky - 1), would save a call per stage but flips the sign of
    exact zeros.
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
    ky, negy, y2, y3, y4, den1, den2, den3, den4, k1, k2, k3, k4 = (
        np.empty_like(y) for _ in range(13)
    )
    mag = np.empty(y.shape, dtype=float)
    negy_f, y_f, y2_f, y3_f, y4_f = (a.view(float) for a in (negy, y, y2, y3, y4))
    # local names: at narrow widths a step's cost is its 43 calls
    mul, add, sub, div, neg = np.multiply, np.add, np.subtract, np.divide, np.negative

    def slope(kap, src, src_f, den, k):
        # k = -src (1 + kap src)/(1 - kap src), keeping den = 1 - kap src
        mul(kap, src, out=ky)
        sub(1.0, ky, out=den)
        add(1.0, ky, out=ky)
        neg(src_f, out=negy_f)
        mul(negy, ky, out=k)
        div(k, den, out=k)

    half, sixth = 0.5 * h, h / 6.0
    row = 1
    for s in range(nsteps):
        kap = kappa[s]
        slope(kap, y, y_f, den1, k1)
        mul(half, k1, out=y2)
        add(y, y2, out=y2)
        slope(kap, y2, y2_f, den2, k2)
        mul(half, k2, out=y3)
        add(y, y3, out=y3)
        slope(kap, y3, y3_f, den3, k3)
        mul(h, k3, out=y4)
        add(y, y4, out=y4)
        slope(kap, y4, y4_f, den4, k4)
        if with_deriv:
            kk, k2x = kap * kap, 2.0 * kap
            d1 = _drhs(y, kk, k2x, den1) * v
            d2 = _drhs(y2, kk, k2x, den2) * (v + half * d1)
            d3 = _drhs(y3, kk, k2x, den3) * (v + half * d2)
            d4 = _drhs(y4, kk, k2x, den4) * (v + h * d3)
            v = v + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        mul(2.0, k2, out=k2)
        add(k1, k2, out=k1)
        mul(2.0, k3, out=k3)
        add(k1, k3, out=k1)
        add(k1, k4, out=k1)
        mul(sixth, k1, out=k1)
        add(y, k1, out=y)
        # written so that NaN fails them: a comparison with NaN is False
        mul(kap, y, out=ky)
        sub(1.0, ky, out=den1)
        if not np.abs(den1, out=mag).min(initial=np.inf) >= 1e-6:
            raise ValueError("singular")
        if not np.abs(y, out=mag).max(initial=0.0) < 1.0:
            raise ValueError("escaped")
        if (s + 1) % store_stride == 0:
            traj[row] = y
            if with_deriv:
                dtraj[row] = v
            row += 1
    return traj, dtraj
