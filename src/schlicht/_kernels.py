"""The hot kernels: series products, division, composition and RK4.

There is one backend, written in NumPy.  Callers reach the kernels through
this module's attributes, so a profiler can wrap them here.

Series products, division and composition work on coefficient arrays; the
RK4 stepper advances every trajectory of a solve in one array per stage, so
its cost per step is a fixed number of ufunc calls whatever the width.  The
stepper writes every stage into buffers allocated once per call, in the
textbook order of operations, so its trajectories are bitwise those of the
plain array expressions.  After each step one cheap bound on the states
(2 calls) shows for nearly every step that neither guard, "singular" nor
"escaped", can fail; only the other steps run the exact guards (6 calls).
RK4 is the oracle of ``loewner.loewner_solve``, which moves each constant
piece of the driving by its closed-form flow: the suites and tests call it
to measure its fourth order and to hold the exact flow to it.
"""

import math

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
    """
    z0 = np.asarray(z0, dtype=complex)
    shape = (kappa.shape[0] // store_stride + 1, z0.shape[0])
    traj = np.empty(shape, dtype=complex)
    dtraj = np.empty(shape, dtype=complex) if with_deriv else None
    _rk4_steps(z0, kappa, h, store_stride, traj, dtraj)
    return traj, dtraj


def _rk4_steps(z0, kappa, h, store_stride, traj, dtraj):
    """Step the states z0, writing every store_stride-th one into traj.

    dtraj is None unless the derivative is wanted.

    Every width-nz array of a step lives in a buffer allocated once per
    call: ky, -y, the stage inputs y2..y4, one denominator 1 - ky per stage
    (the derivative reuses them), the slopes k1..k4 (k1 is also the
    accumulator) and two float buffers for |.|.  Every ufunc writes into one
    of them through its positional out argument, so a step allocates no
    array outside the derivative path.

    A step costs 39 ufunc calls: 37 for the update and 2 for the bound
    m = max(|Re y|, |Im y|) on the new states.  Where m < clear =
    (1 - 1e-5)/(sqrt(2) max(1, max|kappa|)), less a hair for rounding,
    |y| <= sqrt(2) m < 1 - 1e-5 and |1 - kappa y| >= 1 - |kappa| |y| > 1e-5,
    so neither guard can fail and both are skipped.  Otherwise the exact
    guards run (6 more calls): "singular" where min |1 - kappa y| < 1e-6,
    then "escaped" where max |y| >= 1.  NaN and inf states always reach
    them, since they fail the <.  The bound reads the states and writes
    none, so trajectories do not depend on it.

    The result is bit for bit that of the textbook expressions
    k = -y (1 + ky)/(1 - ky), y2 = y + (h/2) k1, ...,
    y + (h/6)(((k1 + 2 k2) + 2 k3) + k4), signed zeros included: each
    buffered call is the same ufunc on the same operands, in the same order,
    as one operator of those expressions.  The scalar operands enter as 0-d
    arrays: a view of kappa[s], and the constants 1, 2, h/2, h and h/6 as
    the complex values NumPy converts those Python floats to.  The ufunc
    then skips that conversion, about 0.5 us a call at narrow widths.  The
    one change is the sign flip -y, done by np.negative on float64 views of
    the stage input and of the -y buffer.  It flips the same sign bits as
    the complex negative, which NumPy does not vectorize (about 3x slower at
    width 4096).  Folding the sign into the denominator, y (1 + ky)/(ky - 1),
    would save a call per stage but flips the sign of exact zeros.
    """
    nsteps = kappa.shape[0]
    with_deriv = dtraj is not None
    y = np.array(z0, dtype=complex)
    traj[0] = y
    v = np.ones_like(y) if with_deriv else None
    if with_deriv:
        dtraj[0] = v
    ky, negy, y2, y3, y4, den1, den2, den3, den4, k1, k2, k3, k4 = (
        np.empty_like(y) for _ in range(13)
    )
    negy_f, y_f, y2_f, y3_f, y4_f = (a.view(float) for a in (negy, y, y2, y3, y4))
    mag, parts = np.empty(y.shape, dtype=float), np.empty(y_f.shape, dtype=float)
    # the guard bound; 1 - 1e-12 absorbs the rounding of |kappa| and of clear,
    # and a NaN or infinite kappa makes clear NaN or 0, which no state is below
    kmax = float(np.absolute(kappa).max(initial=1.0))
    clear = (1.0 - 1e-5) * (1.0 - 1e-12) / (math.sqrt(2.0) * kmax)
    # at narrow widths a step's cost is its 39 calls: local names, out passed
    # by position (no keyword parsing), and the guards' reductions as the
    # ufuncs' reduce (the .min/.max methods add a Python wrapper)
    mul, add, sub, div, neg = np.multiply, np.add, np.subtract, np.divide, np.negative
    absolute, minimum, maximum = np.absolute, np.minimum.reduce, np.maximum.reduce
    one, two, half, hstep, sixth = (
        np.array(c, dtype=complex) for c in (1.0, 2.0, 0.5 * h, h, h / 6.0)
    )

    def slope(kap, src, src_f, den, k):
        # k = -src (1 + kap src)/(1 - kap src), keeping den = 1 - kap src
        mul(kap, src, ky)
        sub(one, ky, den)
        add(one, ky, ky)
        neg(src_f, negy_f)
        mul(negy, ky, k)
        div(k, den, k)

    row = 1
    for s in range(nsteps):
        kap = kappa[s, ...]  # a 0-d view, which the ufuncs take as an array
        slope(kap, y, y_f, den1, k1)
        mul(half, k1, y2)
        add(y, y2, y2)
        slope(kap, y2, y2_f, den2, k2)
        mul(half, k2, y3)
        add(y, y3, y3)
        slope(kap, y3, y3_f, den3, k3)
        mul(hstep, k3, y4)
        add(y, y4, y4)
        slope(kap, y4, y4_f, den4, k4)
        if with_deriv:
            # NumPy's scalar product, which differs from the ufunc's in the
            # last bit for some values, is the one the textbook uses here
            kk, k2x = kappa[s] * kappa[s], 2.0 * kappa[s]
            d1 = _drhs(y, kk, k2x, den1) * v
            d2 = _drhs(y2, kk, k2x, den2) * (v + half * d1)
            d3 = _drhs(y3, kk, k2x, den3) * (v + half * d2)
            d4 = _drhs(y4, kk, k2x, den4) * (v + hstep * d3)
            v = v + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        mul(two, k2, k2)
        add(k1, k2, k1)
        mul(two, k3, k3)
        add(k1, k3, k1)
        add(k1, k4, k1)
        mul(sixth, k1, k1)
        add(y, k1, y)
        # the exact guards run only where the bound cannot clear them; all
        # three comparisons are written so that NaN fails them
        if not maximum(absolute(y_f, parts), initial=0.0) < clear:
            mul(kap, y, ky)
            sub(one, ky, den1)
            if not minimum(absolute(den1, mag), initial=np.inf) >= 1e-6:
                raise ValueError("singular")
            if not maximum(absolute(y, mag), initial=0.0) < 1.0:
                raise ValueError("escaped")
        if (s + 1) % store_stride == 0:
            traj[row] = y
            if with_deriv:
                dtraj[row] = v
            row += 1
