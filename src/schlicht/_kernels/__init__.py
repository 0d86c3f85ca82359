"""The hot kernels: series products, division, composition and RK4.

There is one backend, written in NumPy (``_corepy``).  Callers reach the
kernels through this module's attributes, so a profiler can wrap them here.
"""

from ._corepy import BACKEND, cauchy_div, cauchy_mul, compose, rk4_loewner

__all__ = ["BACKEND", "cauchy_div", "cauchy_mul", "compose", "rk4_loewner"]
