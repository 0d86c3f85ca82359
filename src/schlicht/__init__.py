"""Numerical verification toolkit for univalent-function theory.

Modules
    series      truncated complex power-series algebra
    univalent   class-S / class-Sigma constructors and transforms
    functionals coefficient inequalities and integral means
    legendre    exact-rational Legendre machinery and the addition theorem
    loewner     radial Loewner chains, closed-form and numeric
    weinstein   the nonnegative-kernel Milin decomposition
    suites      named verification suites behind the CLI

Importing the package loads no submodule and no NumPy, so `schlicht.cli`
can choose NumPy's BLAS thread count before NumPy loads.  It re-exports
nothing: power series are `schlicht.series.PowerSeries`.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
