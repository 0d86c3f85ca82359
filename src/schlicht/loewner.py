"""Radial Loewner evolution.

Two chain representations share one interface:

* ``KoebeChain``   -- f_t(z) = e^t z/(1-wz)^2 in closed form for |w| <= 1
  (Koebe's chain at w = 1, the identity's e^t z at w = 0), with the
  transition flow W_t(z) solving z/(1-z)^2 = e^t W/(1-W)^2.
* ``NumericChain`` -- driven by a unit-circle-valued control kappa(t),
  piecewise constant on a step grid; trajectories of
  df/dt = -f (1 + kappa f)/(1 - kappa f) come from the closed-form flow
  of each constant piece, which conserves e^t x/(1 - x)^2 with x = -kappa f.

Time-infinity statements are never extrapolated.  Where the time
dependence is polynomial in e^{-t}, as for the kernel coefficients on the
closed-form chains, the t -> infinity integral is taken exactly by a change
of variable (see weinstein); numeric chains take it from a quantity that
the flow conserves after the last break of the driving.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import series as ps
from . import univalent as uv
from .errors import (
    BranchSelectionFailure,
    BranchTrackingFailure,
    ChainUnavailable,
    DerivativeUnderflow,
    ParamOutOfRange,
    TrajectoryEscaped,
)
from .report import BoundReport
from .series import PowerSeries


def koebe_map(z):
    return z / (1.0 - z) ** 2


# -- the closed-form transition flow ---------------------------------------

def koebe_transition(z, t):
    """w_t(z) defined by z/(1-z)^2 = e^t w/(1-w)^2, the root inside the disk.

    Written as w = 2u / (1 + 2u + sqrt(4u + 1)) with u = e^{-t} k(z); this
    form has no cancellation as u -> 0 and picks the branch with w -> 0.
    """
    if abs(z) >= 1:
        raise ParamOutOfRange(f"|z| = {abs(z)} must be < 1")
    if t < 0:
        raise ParamOutOfRange("t must be >= 0")
    u = cmath.exp(-t) * koebe_map(z)
    root = cmath.sqrt(4.0 * u + 1.0)
    w = 2.0 * u / (1.0 + 2.0 * u + root)
    if abs(w) >= 1.0:
        w_alt = (2.0 * u + 1.0 + root) / (2.0 * u) if u != 0 else complex("inf")
        if abs(w_alt) < 1.0:
            w = w_alt
        else:
            raise BranchSelectionFailure(f"no root in the disk at z={z}, t={t}")
    return w


def koebe_transition_series(t, order):
    """The transition flow as a series in z, leading coefficient e^{-t}.

    Solves w = u (1 - w)^2 with u = e^{-t} z/(1-z)^2 by fixed-point
    iteration in series arithmetic (one truncation order gained per pass).
    Equivalent to composing the reverted Koebe series with e^{-t} times the
    Koebe series, but free of the large cancellations that route incurs.
    """
    if t < 0:
        raise ParamOutOfRange("t must be >= 0")
    return _transition_series_cached(float(t), int(order))


@functools.lru_cache(maxsize=1024)
def _transition_series_cached(t, order):
    n = order
    u = math.exp(-t) * np.arange(n + 1, dtype=complex)
    w = u.copy()
    one = np.zeros(n + 1, dtype=complex)
    one[0] = 1.0
    for _ in range(n):
        g = one - 2.0 * w + _kernels.cauchy_mul(w, w)
        w = _kernels.cauchy_mul(u, g)
    return PowerSeries(w)


# -- driving functions ------------------------------------------------------

@dataclass(frozen=True)
class DrivingFunction:
    """Unit-circle-valued piecewise-constant control.

    values[i] holds on [times[i], times[i+1]); the first value also holds
    before times[0] and the last one after times[-1].
    """

    times: tuple
    values: tuple

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ParamOutOfRange("sampled driving needs matching times/values")
        # negated comparisons, so that NaN fails them
        if not all(b > a for a, b in zip(self.times, self.times[1:])):
            raise ParamOutOfRange("sample times must increase strictly")
        for v in self.values:
            if not abs(abs(v) - 1.0) <= 1e-12:
                raise ParamOutOfRange(f"driving value {v} is off the unit circle")

    @classmethod
    def constant(cls, value):
        """One piece from t = 0."""
        return cls.sampled([0.0], [value])

    @classmethod
    def sampled(cls, times, values):
        return cls(tuple(float(t) for t in times), tuple(complex(v) for v in values))

    def pieces(self, t0, h, nsteps):
        """The driving on the step grid t0 + h*s, s = 0..nsteps-1, as pieces.

        Returns the steps where pieces begin (0 first, then increasing and
        below nsteps) and the value of each.  Step s samples the driving at
        its left end, the float t0 + h*s, so values[i] holds from the first
        step s with t0 + h*s >= times[i].  Of values that begin on the same
        step, the last one holds; consecutive pieces may have equal values.
        """
        begins, idx = [0], [0]
        for i, tau in enumerate(self.times[1:], 1):
            s = bisect.bisect_left(range(nsteps), tau, hi=nsteps, key=lambda s: t0 + h * s)
            if s == nsteps:
                break
            if s == begins[-1]:
                idx[-1] = i
            else:
                begins.append(s)
                idx.append(i)
        return begins, np.asarray(self.values, dtype=complex)[idx]


# -- the solver -------------------------------------------------------------

@dataclass
class Evolution:
    """Sampled trajectories of the radial Loewner equation."""

    times: np.ndarray   # (nstored,)
    z_grid: np.ndarray  # (nz,)
    states: np.ndarray  # (nstored, nz)

    @property
    def scaled(self):
        """e^t f_t along the trajectories (tends to the hull map)."""
        return np.exp(self.times)[:, None] * self.states


def _flow_map(w, k, tau):
    """The state w after time tau of the flow under the constant driving k.

    With x = -k w the flow conserves e^t x/(1 - x)^2, so this is
    koebe_transition on x, vectorized and without its branch test: for x in
    the disk, 4u + 1 never lies on (-inf, 0], so the principal square root
    gives the root inside the disk.  tau is a scalar or an array that
    broadcasts against w.
    """
    x = -k * w
    u = np.exp(-tau) * x / (1.0 - x) ** 2
    return -(2.0 * u / (1.0 + 2.0 * u + np.sqrt(4.0 * u + 1.0))) / k


# The most states (stored times x grid points) one solve stores: 2^24
# complex128 states take 256 MiB, and their trace CSV about 2 GB.
MAX_STORED_STATES = 2**24


def _sample_stride(nsteps, samples):
    """The largest divisor of nsteps at most max(nsteps // samples, 1).

    Divisors pair up as d and nsteps // d with d <= isqrt(nsteps), so the
    search takes at most about sqrt(nsteps) trial divisions.
    """
    cap = max(nsteps // samples, 1)
    if nsteps == 0:
        return cap  # every stride divides 0
    root = math.isqrt(nsteps)
    # the least cofactor d >= nsteps / cap gives the greatest stride above root
    for d in range(-(-nsteps // cap), root + 1):
        if nsteps % d == 0:
            return nsteps // d
    for d in range(min(cap, root), 0, -1):
        if nsteps % d == 0:
            return d


def loewner_solve(kappa, z_grid, T, h, samples, t0=0.0):
    """Integrate the radial Loewner equation for each grid point.

    kappa is piecewise constant with its breaks moved onto the step grid of
    h (DrivingFunction.pieces), and each constant piece moves a state by the
    closed-form flow (_flow_map).  The state at each piece's start comes
    from chaining the map from break to break, so the cost does not grow
    with the step count.  The states are stored every stride steps, the
    largest divisor of the step count at most step count // samples.  Every
    stored state is mapped from the start of its piece, so it does not
    depend on the stride.  A solve that would store more than
    MAX_STORED_STATES states raises ParamOutOfRange before it allocates them,
    and a state that is not finite or has left the unit disk raises
    TrajectoryEscaped.
    """
    if not 0 < h <= 1e-2 + 1e-15:
        raise ParamOutOfRange("step size must satisfy 0 < h <= 1e-2")
    if not 0 <= T - t0 <= 20:
        raise ParamOutOfRange("horizon must satisfy 0 <= T - t0 <= 20")
    z0 = np.asarray(z_grid, dtype=complex).ravel()
    if not np.all(np.abs(z0) < 1):  # NaN fails this too
        raise ParamOutOfRange("grid points must satisfy |z| < 1")
    span = T - t0
    # steps up to 2^53 stay exact as floats and as int64
    if not span / h < 2**53:
        raise ParamOutOfRange(f"span {span} takes 2^53 or more steps of h = {h}")
    nsteps = int(round(span / h))
    if abs(nsteps * h - span) > 1e-9:
        raise ParamOutOfRange(f"span {span} is not a multiple of h = {h}")
    stride = _sample_stride(nsteps, samples)
    rows = nsteps // stride + 1
    if rows * max(z0.size, 1) > MAX_STORED_STATES:
        raise ParamOutOfRange(
            f"{rows} stored times x {z0.size} points exceed {MAX_STORED_STATES} "
            f"states (a stride of {stride} of {nsteps} steps)"
        )
    begins, values = kappa.pieces(t0, h, nsteps)
    # equal consecutive values make one piece (a NaN value keeps its own)
    keep = np.concatenate([[True], values[1:] != values[:-1]])
    breaks, kap = np.asarray(begins)[keep], values[keep]
    starts = [z0]
    for k, begin, end in zip(kap, breaks[:-1].tolist(), breaks[1:].tolist()):
        starts.append(_flow_map(starts[-1], k, h * (end - begin)))
    steps = stride * np.arange(rows)
    piece = np.searchsorted(breaks, steps, side="right") - 1
    begin, states = breaks[piece], np.stack(starts)[piece]
    # a row on a break keeps its piece's start state, since the map at
    # tau = 0 is not the identity bit for bit; the others take one call
    off = steps != begin
    states[off] = _flow_map(
        states[off], kap[piece[off]][:, None], (h * (steps[off] - begin[off]))[:, None]
    )
    # a NaN or infinite state carries on to every later row
    if not np.all(np.abs(states) < 1.0):
        raise TrajectoryEscaped("trajectory left the unit disk")
    times = t0 + h * stride * np.arange(states.shape[0])
    return Evolution(times=times, z_grid=z0, states=states)


# -- chain representations --------------------------------------------------

class KoebeChain:
    """f_t(z) = e^t z/(1 - wz)^2, w = rho e^{i theta} with 0 <= rho <= 1.

    The chain e^t f of the starlike f = z/(1 - wz)^2: Koebe's (constant
    driving -1) at w = 1, the identity's at w = 0.  In closed form,
    p = f/(z f') = (1 - wz)/(1 + wz), c_k = 2 w^k/k and f_s = f_t o phi
    with phi(z) = W_{t-s}(wz)/w, W the koebe_transition flow.  The Taylor
    coefficients of p and the c_k come as arrays, w^m from
    univalent.polar_powers as univalent.from_quotient takes it.
    """

    def __init__(self, rho=1.0, theta=0.0):
        if not (0.0 <= rho <= 1.0 and math.isfinite(theta)):
            raise ParamOutOfRange(f"need 0 <= rho <= 1 and a finite theta, got {rho}, {theta}")
        self.rho, self.theta = float(rho), float(theta)
        self.w = self.rho * cmath.exp(1j * self.theta)

    def series_at(self, t, order):
        return PowerSeries(math.exp(t) * uv.from_quotient(0, self.rho, self.theta, order).coeffs)

    def eval_at(self, z, t):
        return math.exp(t) * (z / (1.0 - self.w * z) ** 2)

    def boundary_values(self, t, r, Q):
        z1 = r * np.exp(2j * np.pi * np.arange(Q) / Q)
        return self.eval_at(z1, t), z1

    def p_values(self, z, t=0.0):
        z = np.asarray(z, dtype=complex)
        wz = self.w * z
        # p(0) = 1 by the chain normalization; the origin is removable
        zfz = np.abs(z * (1.0 + wz) / (1.0 - wz) ** 3)
        if np.any((zfz * math.exp(t) < 1e-14) & (z != 0)):
            raise DerivativeUnderflow("z f'(z) vanished")
        return np.where(z == 0, 1.0, (1.0 - wz) / (1.0 + wz))

    def herglotz_coeffs(self, t, order):
        """p_0..p_order of p = (1 - wz)/(1 + wz): p_0 = 1, p_m = 2(-rho)^m e^{im theta}."""
        p = uv.polar_powers(2.0, -self.rho, self.theta, np.arange(order + 1))
        p[0] = 1.0
        return p

    def log_coeffs(self, t, N):
        """c_1..c_N of log(f_t(z)/(e^t z)): c_k = 2 rho^k e^{ik theta}/k."""
        k = np.arange(1, N + 1)
        return uv.polar_powers(2.0, self.rho, self.theta, k) / k

    def transition(self, z, s, t):
        if self.rho == 0.0:
            return math.exp(s - t) * z
        return koebe_transition(self.w * z, t - s) / self.w


class NumericChain:
    """Chain reconstructed from Loewner trajectories under a driving kappa.

    f_t(z) = lim e^s w(s; z, t) as s -> infinity, where w(.; z, t) solves
    the Loewner equation from state z at time t (loewner_solve, exact on
    each constant piece of kappa; h only places the breaks on its step
    grid).  From T0, the last break of kappa rounded up to the step grid,
    the flow conserves e^s w/(1 + kappa w)^2 and w -> 0, so f_t(z) is that
    at s = max(t, T0).
    Boundary data comes from circle grids of trajectories; z-derivatives
    are spectral (differentiate the circle Fourier series), t-derivatives
    are central differences with spacing 0.01.  Series fits use the circle
    of radius 0.4.
    """

    def __init__(self, kappa, h):
        self.kappa = kappa
        self.h = float(h)
        # every step from T0 on samples the last driving value
        self.T0 = math.ceil(kappa.times[-1] / self.h - 1e-9) * self.h
        self._circle_cache = {}

    def _snap(self, t):
        return round(t / self.h) * self.h

    def _flow_from(self, z0, t0):
        """f_t(z0) for an array of start states z0 at times t0.

        t0 is one start time or one per state.  The states of each start
        time before T0 take one solve from that time to T0, so every value
        is the one a solve from its own start would give, bit for bit.
        """
        z0 = np.asarray(z0, dtype=complex).ravel()
        t0 = np.array([self._snap(t) for t in np.broadcast_to(t0, z0.shape)])
        if np.any(t0 < 0):
            raise ChainUnavailable(f"t = {t0.min()} is before the chain starts at t = 0")
        w = z0.copy()
        # not np.unique, which imports numpy.ma in NumPy 2.4
        for begin in sorted(set(t0[t0 < self.T0].tolist())):
            at = t0 == begin
            w[at] = loewner_solve(
                self.kappa, z0[at], self.T0, self.h, samples=1, t0=begin
            ).states[-1]
        return np.exp(np.maximum(t0, self.T0)) * w / (1.0 + self.kappa.values[-1] * w) ** 2

    def _circles(self, specs):
        """Flow values and points on each (t, r, Q) circle of specs.

        Circles not yet cached come from one _flow_from call.
        """
        keys = [(self._snap(t), float(r), int(Q)) for t, r, Q in specs]
        missing = [key for key in dict.fromkeys(keys) if key not in self._circle_cache]
        if missing:
            grids = [r * np.exp(2j * np.pi * np.arange(Q) / Q) for _, r, Q in missing]
            sizes = [Q for _, _, Q in missing]
            flows = self._flow_from(
                np.concatenate(grids), np.repeat([t for t, _, _ in missing], sizes)
            )
            for key, z1, vals in zip(missing, grids, np.split(flows, np.cumsum(sizes)[:-1])):
                self._circle_cache[key] = (vals, z1)
        return [self._circle_cache[key] for key in keys]

    def _circle(self, t, r, Q):
        return self._circles([(t, r, Q)])[0]

    def _fit_circle(self, t, order):
        """The (t, r, Q) circle that series_at fits a series of this order on."""
        if order > 16:
            raise ChainUnavailable(
                f"numeric-chain series fits are only trusted to order 16, got {order}"
            )
        return t, 0.4, max(4 * (order + 1), 64)

    def boundary_values(self, t, r, Q):
        return self._circle(t, r, Q)

    def series_at(self, t, order):
        """Circle-sampled Fourier fit of f_t (least squares on the circle).

        The 1/0.4^k amplification makes high modes meaningless, so
        the fitted order is capped.
        """
        t, r, Q = self._fit_circle(t, order)
        vals, _ = self._circle(t, r, Q)
        modes = np.fft.fft(vals) / Q
        k = np.arange(order + 1)
        return PowerSeries(modes[: order + 1] / r**k)

    def p_on_circle(self, t, r, Q):
        """p on Q equally spaced points of |z| = r at time t, and the points.

        t and r broadcast against each other; both results then carry that
        shape in front of the Q axis.  All the circles the finite-difference
        stencils need come from one _flow_from call.
        """
        t, r = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(r, dtype=float))
        dt = 0.01
        plan = []
        for ti, ri in zip(t.ravel().tolist(), r.ravel().tolist()):
            # shift the stencil, not the scheme, near t = 0
            ti = max(self._snap(ti), dt)
            # oversample until the aliased Fourier tail (modes beyond Qe at
            # radius r) is negligible, else the spectral derivative is
            # polluted exactly where z df/dz is smallest
            Qe = Q
            need = 30.0 / max(1.0 - ri, 1e-3)
            while Qe < need:
                Qe *= 2
            plan.append((ti, ri, Qe))
        circles = self._circles(
            [(ti + shift, ri, Qe) for ti, ri, Qe in plan for shift in (0.0, dt, -dt)]
        )
        p = np.empty((len(plan), Q), dtype=complex)
        z = np.empty((len(plan), Q), dtype=complex)
        for i, (_, _, Qe) in enumerate(plan):
            (f_mid, z1), (f_plus, _), (f_minus, _) = circles[3 * i : 3 * i + 3]
            dft = (f_plus - f_minus) / (2.0 * dt)
            modes = np.fft.fft(f_mid)
            # one-sided spectrum: f is analytic, every bin is a true mode m >= 0
            zdfz = np.fft.ifft(modes * np.arange(Qe))
            if np.any(np.abs(zdfz) < 1e-14):
                raise DerivativeUnderflow("z df/dz vanished on the circle")
            step = Qe // Q
            p[i], z[i] = (dft / zdfz)[::step], z1[::step]
        return p.reshape(t.shape + (Q,)), z.reshape(t.shape + (Q,))

    def log_coeffs(self, t, N):
        return chain_log_coeffs(self, t, max(N + 2, 12), cross_check=False)[:N]


def make_chain(name):
    """The KoebeChain of a registry subject of the family z/(1 - wz)^2."""
    subject = uv.parse_subject(name)
    if not isinstance(subject, tuple):
        raise ChainUnavailable(f"no chain construction for {name!r}")
    return KoebeChain(*subject)


# -- chain functionals -------------------------------------------------------

_QUAD_CIRCLE = (0.5, 256)  # radius and nodes of the log-coefficient quadrature


def chain_log_coeffs(chain, t, N, cross_check=True):
    """c_k(t) of log(f_t(z)/(e^t z)), k = 1..N.

    Series route: log of the chain series with the e^t z factor removed.
    Cross-check route: 256-point circle quadrature of log(f_t(z)/(e^t z))
    z^{-k-1} on |z| = 0.5, with branch continuity enforced along the contour.
    """
    if cross_check and isinstance(chain, NumericChain):
        # the fit circle and the quadrature circle in one _flow_from call
        chain._circles([chain._fit_circle(t, N + 1), (t, *_QUAD_CIRCLE)])
    s = chain.series_at(t, N + 1)
    F = PowerSeries(s.coeffs[1:] * math.exp(-t))
    F0 = F[0]
    if abs(F0 - 1.0) > 1e-6:
        raise BranchTrackingFailure(f"chain normalization drifted: {F0}")
    L = ps.log(PowerSeries(F.coeffs / F0))
    ck = L.coeffs[1 : N + 1].copy()
    if cross_check:
        cq = _log_coeffs_quadrature(chain, t, N, *_QUAD_CIRCLE)
        err = float(np.max(np.abs(ck - cq)))
        if err > 1e-8:
            raise BranchTrackingFailure(
                f"series and quadrature log-coefficients disagree by {err:.2e}"
            )
    return ck


def _log_coeffs_quadrature(chain, t, N, r, Q):
    vals, z1 = chain.boundary_values(t, r, Q)
    W = vals / (math.exp(t) * z1)
    ang = np.angle(W)
    un = np.unwrap(ang)
    closure = un[-1] + _wrap(ang[0] - ang[-1]) - un[0]
    if abs(closure) > 1e-6:
        raise BranchTrackingFailure("log branch winds around the contour")
    L = np.log(np.abs(W)) + 1j * un
    modes = np.fft.fft(L) / Q
    k = np.arange(1, N + 1)
    return modes[1 : N + 1] / r**k


def _wrap(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def lipschitz_bound_check(chain, z, s, t):
    """Time-regularity bounds for the chain and its transition functions.

    Chain bound:      |f(z,t) - f(z,s)|     <= 8|z| (e^t - e^s)/(1-|z|)^4
    Transition bound: |phi(z,t,u)-phi(z,s,u)| <= 2|z| (1-e^{s-t})/(1-|z|)^2
    evaluated at u = t, where available.  Failures land in the report.
    """
    if not 0 <= s <= t:
        raise ParamOutOfRange("need 0 <= s <= t")
    if abs(z) > 0.9:
        raise ParamOutOfRange("|z| <= 0.9 for the bound checks")
    rep = BoundReport("lipschitz")
    az = abs(z)
    fs = chain.eval_at(z, s)
    ft = chain.eval_at(z, t)
    rep.add(
        f"chain(z={z:.3g},s={s:.3g},t={t:.3g})",
        abs(ft - fs),
        8.0 * az * (math.exp(t) - math.exp(s)) / (1.0 - az) ** 4,
    )
    if hasattr(chain, "transition"):
        phi_t = chain.transition(z, t, t)
        phi_s = chain.transition(z, s, t)
        rep.add(
            f"transition(z={z:.3g},s={s:.3g},t={t:.3g})",
            abs(phi_t - phi_s),
            2.0 * az * (1.0 - math.exp(s - t)) / (1.0 - az) ** 2,
        )
    return rep
