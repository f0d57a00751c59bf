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
"""

from . import bergman, bloch, colombeau, gelfand, hardy, liefields, numcore

__all__ = ["numcore", "bergman", "bloch", "hardy", "gelfand", "liefields",
           "colombeau"]
__version__ = "0.1.0"
