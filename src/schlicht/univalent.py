"""Constructors and transformations for normalized univalent functions.

Class S members are carried as truncated series normalized by c0 = 0,
c1 = 1.  Truncations of genuinely univalent functions are treated as
"approximately in S": the invariant enforced here is the normalization,
not univalence (which finitely many coefficients cannot certify).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import series as ps
from .errors import ParamOutOfRange
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

    def coefficient(self, n):
        if n == 0:
            return self.b0
        return self.tail[n - 1] if n - 1 < len(self.tail) else 0.0


def koebe(order):
    """z/(1-z)^2 truncated: coefficient n at degree n."""
    if order < 1:
        raise ParamOutOfRange("order must be >= 1")
    c = np.arange(order + 1, dtype=complex)
    return ClassSFunction(PowerSeries(c))


def identity_map(order):
    return ClassSFunction(PowerSeries.identity(order))


# -- elementary transformations ------------------------------------------

def conjugation(f):
    """conj(f(conj(z))): conjugates every coefficient."""
    return ClassSFunction(f.series.conjugate())


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


def _taylor_shift(coeffs, a):
    # coefficients of p(z + a) via repeated Ruffini-Horner; O(N^2), stable.
    # Python complex values: the same products and sums as NumPy's complex
    # scalars, bit for bit, without the cost of indexing an array
    d = np.array(coeffs, dtype=complex).tolist()
    a = complex(a)
    n = len(d)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            d[j] += a * d[j + 1]
    return np.array(d, dtype=complex)


def disk_automorphism(f, a):
    """[f((z+a)/(1+conj(a)z)) - f(a)] / [(1-|a|^2) f'(a)].

    The Moebius map has constant term a, so the composition runs through
    the Taylor shift of f to the point a followed by composition with the
    vanishing part of the Moebius series.
    """
    if abs(a) >= 1:
        raise ParamOutOfRange(f"need |a| < 1, got |a| = {abs(a)}")
    n = f.order
    if a == 0:
        return f
    shifted = _taylor_shift(f.coeffs, a)
    # (z+a)/(1+conj(a)z) - a = (1-|a|^2) z / (1 + conj(a) z)
    m = np.zeros(n + 1, dtype=complex)
    ac = np.conj(a)
    m[1:] = (1.0 - abs(a) ** 2) * (-ac) ** np.arange(n)
    comp = ps.compose(PowerSeries(shifted), PowerSeries(m))
    fa = shifted[0]
    fpa = shifted[1]
    c = (comp.coeffs - np.concatenate(([fa], np.zeros(n, dtype=complex)))) / (
        (1.0 - abs(a) ** 2) * fpa
    )
    c[0] = 0.0
    return ClassSFunction(PowerSeries(c))


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


def from_sigma(g, order):
    """Reconstruct the class-S series from its inversion (tests the round trip)."""
    R = np.zeros(order, dtype=complex)
    R[0] = 1.0
    if order >= 2:
        R[1] = g.b0
    m = min(len(g.tail), order - 2)
    if m > 0:
        R[2 : 2 + m] = g.tail[:m]
    F = ps.div(PowerSeries.one(order - 1), PowerSeries(R))
    c = np.concatenate(([0.0], F.coeffs))
    return ClassSFunction(PowerSeries(c))


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
    except (ValueError, TypeError, IndexError) as exc:
        raise ParamOutOfRange(f"malformed function {name!r}: {exc}") from None
    raise ParamOutOfRange(f"unknown function name {name!r}")


def random_class_s(rng, order):
    """A random composition of two elementary transforms of the Koebe map.

    Used by the randomized suites; every output is a truncation of a
    genuinely univalent function.  Automorphism centers stay small so the
    truncated Taylor shift keeps the leading coefficients accurate.
    """
    f = koebe(order)
    for _ in range(2):
        kind = rng.integers(0, 4)
        if kind == 0:
            f = rotation(f, float(rng.uniform(0, 2 * math.pi)))
        elif kind == 1:
            f = dilation(f, float(rng.uniform(0.3, 0.95)))
        elif kind == 2:
            f = conjugation(f)
        else:
            rad = float(rng.uniform(0, 0.3))
            ang = float(rng.uniform(0, 2 * math.pi))
            f = disk_automorphism(f, rad * complex(math.cos(ang), math.sin(ang)))
    return f
