"""Constructors and transformations for normalized univalent functions.

Class S members are carried as truncated series normalized by c0 = 0,
c1 = 1.  Truncations of genuinely univalent functions are treated as
"approximately in S": the invariant enforced here is the normalization,
not univalence (which finitely many coefficients cannot certify).
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import series as ps
from .errors import NonFiniteCoefficients, ParamOutOfRange, RadiusExceeded
from .series import PowerSeries

_NORM_TOL = 1e-10
_EVAL_RADIUS = 0.99  # disk-evaluation guard radius


@dataclass(frozen=True)
class ClassSFunction:
    """A truncated series with the class-S normalization f(0)=0, f'(0)=1."""

    series: PowerSeries

    def __post_init__(self):
        c = self.series.coeffs
        if abs(c[0]) > _NORM_TOL or abs(c[1] - 1.0) > _NORM_TOL:
            raise ParamOutOfRange(
                f"not normalized: c0 = {c[0]:.3e}, c1 = {c[1]:.6f}"
            )

    @property
    def order(self):
        return self.series.order

    @property
    def coeffs(self):
        return self.series.coeffs

    def eval(self, z):
        """f(z) by Horner; |z| > _EVAL_RADIUS raises RadiusExceeded."""
        if abs(z) > _EVAL_RADIUS:
            raise RadiusExceeded(f"|z| = {abs(z):.4f} > r_max = {_EVAL_RADIUS}")
        return ps.evaluate(self.series, z)


# -- Koebe's function and its transforms in closed form ---------------------
#
# Koebe's z/(1-z)^2 and every rotation, dilation, conjugation and Koebe
# transform of it is f = (z + c z^2)/(1 - w z)^2 (P. Duren, Univalent
# Functions, 1983, ch. 2): the double pole moves and stays double.  So a
# composition of these transforms is carried as the pair (c, w), and every
# such subject's series comes from one formula with no truncation error at
# any order.

def polar_powers(a, rho, theta, m):
    """a w^m = (a rho^m) e^{i m theta} for w = rho e^{i theta}, in polar form.

    The complex power w ** m drifts from this by 1.2e-10 at m = 2000.  The
    real factor a multiplies rho^m before the angle does, so a factor of 2
    costs no rounding even where rho^m is subnormal.  rho, theta and m
    broadcast.  An angle so large that m theta overflows has no finite
    power and raises NonFiniteCoefficients.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        powers = a * rho**m * np.exp(1j * theta * m)
    if not np.all(np.isfinite(powers.view(float))):
        raise NonFiniteCoefficients("coefficients must be finite")
    return powers


def from_quotient(c, rho, theta, order):
    """(z + c z^2)/(1 - w z)^2, w = rho e^{i theta}, to the given order.

    a_n = n w^{n-1} + c (n-1) w^{n-2}, with w^m from polar_powers.  At c = 0
    the c-term is skipped, so z/(1 - w z)^2 takes no rounding from it.
    """
    if order < 1:
        raise ParamOutOfRange("order must be >= 1")
    m = np.arange(order)
    powers = polar_powers(1.0, rho, theta, m)  # w^0 .. w^{order-1}
    a = np.zeros(order + 1, dtype=complex)
    a[1:] = np.arange(1, order + 1) * powers
    if c != 0:
        a[2:] += c * m[1:] * powers[:-1]
    return ClassSFunction(PowerSeries(a))


def koebe(order):
    """z/(1-z)^2 truncated: coefficient n at degree n."""
    return from_quotient(0, 1.0, 0.0, order)


def identity_map(order):
    return from_quotient(0, 0.0, 0.0, order)


KOEBE_CW = (0j, 1 + 0j)


def disk_automorphism(cw, a):
    """The Koebe transform [f(m(z)) - f(a)] / [(1-|a|^2) f'(a)] as a pair (c, w).

    f = (z + c z^2)/(1 - w z)^2 and m(z) = (z+a)/(1+conj(a) z).  With
    P = z + c z^2, P(m) (1 + conj(a) z)^2 = h0 + h1 z + h2 z^2, and
    (1 - w m)^2 (1 + conj(a) z)^2 = (1 - w a)^2 (1 - w' z)^2; subtracting
    f(a) times the latter leaves a multiple of z + c' z^2.
    """
    if abs(a) >= 1:
        raise ParamOutOfRange(f"need |a| < 1, got |a| = {abs(a)}")
    c, w = cw
    a = complex(a)
    b = a.conjugate()
    h0, h1, h2 = a + c * a * a, 1 + a * b + 2 * a * c, b + c
    w2 = (w - b) / (1 - w * a)
    return (h2 - h0 * w2 * w2) / (h1 + 2 * h0 * w2), w2


# -- inversion to class Sigma and the odd transform ------------------------

def to_sigma(f):
    """The coefficients b_0, b_1, ... of g(z) = 1/f(1/z) = z + b0 + b1/z + ...

    With F(u) = f(u)/u (unit constant term), 1/f(1/z) = z / F(1/z), so the
    reciprocal series R = 1/F carries the coefficients: b_n = R_{n+1}.
    f is a ClassSFunction of order N, or a stack of the coefficient rows
    c_0..c_N of such functions; a stack gives the stack of their b rows
    from one long division, each row bit for bit the one-function value.
    A row that overflows raises NonFiniteCoefficients.
    """
    F = np.asarray(getattr(f, "coeffs", f))[..., 1:]  # f(u)/u, order N-1
    one = np.zeros_like(F)
    one[..., 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        R = _kernels.cauchy_div(one, F)
    if not np.all(np.isfinite(R.view(float))):
        raise NonFiniteCoefficients("coefficients must be finite")
    return R[..., 1:]


def odd_sqrt_transform(f):
    """h(z) = sqrt(f(z^2)), the odd square-root transform.

    h(z) = z sqrt(F(z^2)) with F(u) = f(u)/u, so only odd degrees are
    populated; the output keeps the input order.
    """
    n = f.order
    F = PowerSeries(f.coeffs[1:])  # order n-1
    G = ps.sqrt(F)
    h = np.zeros(n + 1, dtype=complex)
    for j in range(G.order + 1):
        if 2 * j + 1 <= n:
            h[2 * j + 1] = G[j]
    return ClassSFunction(PowerSeries(h))


# -- named-function registry for the CLI -----------------------------------

def parse_subject(name):
    """A registry name as (rho, theta) of z/(1 - w z)^2, or as a coefficient list.

    "koebe" is (1, 0), "identity" (0, 0), "koebe-rot:<theta>" (1, theta) and
    "coeffs:<json>" the list c_0, c_1, ...; an unknown name, a malformed
    payload or a value that is not finite raises ParamOutOfRange.
    """
    if name == "koebe":
        return 1.0, 0.0
    if name == "identity":
        return 0.0, 0.0
    try:
        if name.startswith("koebe-rot:"):
            theta = float(name.split(":", 1)[1])
            if not math.isfinite(theta):
                raise ValueError("the angle must be finite")
            return 1.0, theta
        if name.startswith("coeffs:"):
            data = json.loads(name.split(":", 1)[1])
            coeffs = [complex(x[0], x[1]) if isinstance(x, list) else complex(x) for x in data]
            if not np.all(np.isfinite(coeffs)):
                raise ValueError("coefficients must be finite")
            return coeffs
    except (ValueError, TypeError, IndexError) as exc:
        raise ParamOutOfRange(f"malformed function {name!r}: {exc}") from None
    raise ParamOutOfRange(f"unknown function name {name!r}")


def from_registry(name, order):
    """Build a test subject to the given order from its registry name (parse_subject)."""
    subject = parse_subject(name)
    if isinstance(subject, tuple):
        return from_quotient(0, *subject, order)
    return ClassSFunction(PowerSeries((subject + [0.0] * (order + 1))[: order + 1]))


class SeededDraws:
    """The seeded suites' draws, each from random.Random(seed).random() alone.

    Python keeps that sequence across versions (it makes no such promise
    for randrange, nor NumPy for its Generator streams), so a seed names the
    same draws on every Python and NumPy.  The methods take the arguments of
    NumPy's Generator methods of the same names, so random_pair takes
    either.  `random(size)` gives the next size values as one array, so a
    suite can scale a whole block of draws at once: low + (high - low) * r
    over that array is size calls of `uniform(low, high)` float for float.
    """

    def __init__(self, seed):
        self._random = random.Random(seed).random

    def random(self, size):
        """The next size values of the sequence, as an array."""
        return np.fromiter(iter(self._random, None), float, count=size)

    def integers(self, low, high):
        """An integer in [low, high)."""
        return low + int((high - low) * self._random())

    def uniform(self, low, high):
        """A float in [low, high)."""
        return low + (high - low) * self._random()


def random_pair(rng):
    """A random composition of two elementary transforms of the Koebe map.

    The transforms act on the pair (c, w) of f = (z + c z^2)/(1 - w z)^2,
    so every coefficient is that of a univalent function up to roundoff, at
    any order.  Returns (c, rho, theta) with w = rho e^{i theta}, the
    arguments of from_quotient before the order.
    """
    c, w = KOEBE_CW
    for _ in range(2):
        kind = rng.integers(0, 4)
        if kind == 0:
            # e^{-i theta} f(e^{i theta} z)
            theta = float(rng.uniform(0, 2 * math.pi))
            u = complex(math.cos(theta), math.sin(theta))
            c, w = c * u, w * u
        elif kind == 1:
            # f(rz)/r
            r = float(rng.uniform(0.3, 0.95))
            c, w = c * r, w * r
        elif kind == 2:
            c, w = c.conjugate(), w.conjugate()
        else:
            rad = float(rng.uniform(0, 0.3))
            ang = float(rng.uniform(0, 2 * math.pi))
            c, w = disk_automorphism((c, w), rad * complex(math.cos(ang), math.sin(ang)))
    # every transform keeps |w| <= 1, and a float |w| one ulp above 1
    # would grow to rho^1999 - 1 = 4.4e-13 at order 2000
    return c, min(abs(w), 1.0), cmath.phase(w)


def random_class_s(rng, order):
    """The series of one random_pair draw, to the given order."""
    return from_quotient(*random_pair(rng), order)
