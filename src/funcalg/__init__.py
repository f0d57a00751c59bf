"""funcalg: numerical workbench for function-space algebra.

Submodules
----------
numcore    complex polynomials, disc quadrature, boundary Fourier analysis
bergman    weighted Bergman norms, kernel/projection, Toeplitz matrices
bloch      alpha-Bloch seminorms, Mobius transforms, multipliers
hardy      Hardy norms, Szego/Poisson kernels, Hardy-Toeplitz matrices
gelfand    finite-group Gelfand pairs and spherical functions
liefields  exact Lie brackets, flows, order-1 prolongation
colombeau  mollifiers, regularization ladders, asymptotic orders
cli        batch command-line front end (`funcalg ...`)

Each layer loads on first use: ``import funcalg`` imports none of them (nor
numpy), and ``funcalg.bergman`` imports bergman and what it needs (PEP 562).
"""

import importlib

__all__ = ["numcore", "bergman", "bloch", "hardy", "gelfand", "liefields",
           "colombeau"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
