"""Constructors and transformations for normalized univalent functions.

Class S members are carried as truncated series normalized by c0 = 0,
c1 = 1.  Truncations of genuinely univalent functions are treated as
"approximately in S": the invariant enforced here is the normalization,
not univalence (which finitely many coefficients cannot certify).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import series as ps
from .errors import NonFiniteCoefficients, ParamOutOfRange
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
        return ps.evaluate(self.series, z, r_max=_EVAL_RADIUS)


@dataclass(frozen=True)
class SigmaFunction:
    """g(z) = z + b0 + b1/z + ... + bM/z^M, analytic and univalent in |z| > 1."""

    b0: complex
    tail: tuple = field(default_factory=tuple)  # b1, b2, ...


def koebe(order):
    """z/(1-z)^2 truncated: coefficient n at degree n."""
    if order < 1:
        raise ParamOutOfRange("order must be >= 1")
    c = np.arange(order + 1, dtype=complex)
    return ClassSFunction(PowerSeries(c))


def identity_map(order):
    return ClassSFunction(PowerSeries.identity(order))


# -- elementary transformations ------------------------------------------

def rotation(f, theta):
    """e^{-i theta} f(e^{i theta} z): multiplies a_n by e^{i(n-1) theta}."""
    n = np.arange(f.order + 1)
    phase = np.exp(1j * theta * (n - 1))
    c = f.coeffs * phase
    c[0] = 0.0
    return ClassSFunction(PowerSeries(c))


def dilation(f, r):
    """f(rz)/r: multiplies a_n by r^{n-1}."""
    if not 0 < r < 1:
        raise ParamOutOfRange(f"dilation needs 0 < r < 1, got {r}")
    n = np.arange(f.order + 1)
    c = f.coeffs * r ** (n - 1.0)
    c[0] = 0.0
    return ClassSFunction(PowerSeries(c))


# -- Koebe's function and its transforms in closed form ---------------------
#
# Koebe's z/(1-z)^2 and every rotation, dilation, conjugation and Koebe
# transform of it is f = (z + c z^2)/(1 - w z)^2 (P. Duren, Univalent
# Functions, 1983, ch. 2): the double pole moves and stays double.  So a
# composition of these transforms is carried as the pair (c, w), and its
# series comes from the pair with no truncation error at any order.

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
    if a == 0:
        return c, w
    a = complex(a)
    b = a.conjugate()
    h0, h1, h2 = a + c * a * a, 1 + a * b + 2 * a * c, b + c
    w2 = (w - b) / (1 - w * a)
    return (h2 - h0 * w2 * w2) / (h1 + 2 * h0 * w2), w2


def from_quotient(cw, order):
    """(z + c z^2)/(1 - w z)^2 to the given order: a_n = n w^{n-1} + c (n-1) w^{n-2}."""
    c, w = cw
    n = np.arange(order + 1)
    powers = w ** n[:-1]  # w^0 .. w^{order-1}
    a = np.zeros(order + 1, dtype=complex)
    a[1:] = n[1:] * powers
    a[2:] += c * (n[2:] - 1) * powers[:-1]
    return ClassSFunction(PowerSeries(a))


# -- inversion to class Sigma and the odd transform ------------------------

def to_sigma(f):
    """g(z) = 1/f(1/z) = z + b0 + b1/z + ...

    With F(u) = f(u)/u (unit constant term), 1/f(1/z) = z / F(1/z), so the
    reciprocal series R = 1/F carries the coefficients: b_n = R_{n+1}.
    """
    n = f.order
    F = PowerSeries(f.coeffs[1:])  # f(u)/u, order n-1
    R = ps.div(PowerSeries.one(n - 1), F)
    b0 = complex(R[1]) if n >= 2 else 0.0
    tail = tuple(complex(x) for x in R.coeffs[2:])
    return SigmaFunction(b0=b0, tail=tail)


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

def from_registry(name, order):
    """Build a test subject from its registry name.

    Accepted: "koebe", "identity", "koebe-rot:<theta>", "coeffs:<json>".
    A malformed payload raises what an unknown name raises.
    """
    if name == "koebe":
        return koebe(order)
    if name == "identity":
        return identity_map(order)
    try:
        if name.startswith("koebe-rot:"):
            return rotation(koebe(order), float(name.split(":", 1)[1]))
        if name.startswith("coeffs:"):
            data = json.loads(name.split(":", 1)[1])
            coeffs = [complex(x[0], x[1]) if isinstance(x, list) else complex(x) for x in data]
            if len(coeffs) < order + 1:
                coeffs = coeffs + [0.0] * (order + 1 - len(coeffs))
            return ClassSFunction(PowerSeries(coeffs[: order + 1]))
    except (ValueError, TypeError, IndexError, NonFiniteCoefficients) as exc:
        raise ParamOutOfRange(f"malformed function {name!r}: {exc}") from None
    raise ParamOutOfRange(f"unknown function name {name!r}")


class SeededDraws:
    """The seeded suites' draws, each from random.Random(seed).random() alone.

    Python keeps that sequence across versions (it makes no such promise
    for randrange, nor NumPy for its Generator streams), so a seed names the
    same draws on every Python and NumPy.  The methods take the arguments of
    NumPy's Generator methods of the same names, so random_class_s takes
    either.
    """

    def __init__(self, seed):
        self._random = random.Random(seed).random

    def integers(self, low, high):
        """An integer in [low, high)."""
        return low + int((high - low) * self._random())

    def uniform(self, low, high, size=None):
        """A float in [low, high), or a list of size of them."""
        if size is None:
            return low + (high - low) * self._random()
        return [low + (high - low) * self._random() for _ in range(size)]


def random_class_s(rng, order):
    """A random composition of two elementary transforms of the Koebe map.

    Used by the randomized suites.  The transforms act on the pair (c, w)
    of f = (z + c z^2)/(1 - w z)^2 and the series comes from it at the
    end, so every coefficient is that of a univalent function up to
    roundoff, at any order.
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
    return from_quotient((c, w), order)
