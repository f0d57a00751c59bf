"""Shared numerical substrate: complex polynomials, disc quadrature and
boundary Fourier analysis.

The unit disc carries the normalized area measure dA = (1/pi) dx dy, so the
weighted measure (alpha+1)(1-|z|^2)^alpha dA has total mass one.  Radial
integration uses Gauss-Jacobi nodes for the weight (1-s)^alpha in s = r^2,
exact for every moment |z|^(2k) with k <= 2 n_rad - 1; the angular direction
uses equispaced points (trapezoid rule, spectrally exact for band-limited
integrands).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Raised for invalid grids or mismatched sample vectors."""


# ---------------------------------------------------------------------------
# holomorphic polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoloPoly:
    """Truncated power series sum a_k z^k; ``coeffs[k]`` is the z^k coefficient."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D sequence")
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        """Horner evaluation at z (scalar or array)."""
        z = np.asarray(z, dtype=complex)
        acc = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            acc *= z
            acc += c
        return acc if acc.shape else complex(acc)

    def __add__(self, other: "HoloPoly") -> "HoloPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, dtype=complex)
        a[: len(self.coeffs)] += self.coeffs
        a[: len(other.coeffs)] += other.coeffs
        return HoloPoly(a)

    def __mul__(self, other):
        if isinstance(other, HoloPoly):
            return HoloPoly(np.convolve(self.coeffs, other.coeffs))
        return HoloPoly(self.coeffs * other)

    __rmul__ = __mul__

    def derivative(self) -> "HoloPoly":
        if len(self.coeffs) == 1:
            return HoloPoly([0.0])
        k = np.arange(1, len(self.coeffs))
        return HoloPoly(self.coeffs[1:] * k)


# ---------------------------------------------------------------------------
# disc quadrature for dA_alpha
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscQuadrature:
    """Tensor quadrature for the probability measure (alpha+1)(1-|z|^2)^alpha dA.

    The radial rule (``radii``, ``radial_weights``, summing to one) times the
    mean over the equispaced ``angles``: samples v integrate to
    ``radial_weights @ node_grid(v, q).mean(axis=1)``.  ``nodes`` is flat,
    radius-major, of length n_rad * n_ang.
    """

    alpha: float
    n_rad: int
    n_ang: int
    radii: np.ndarray = field(repr=False)
    radial_weights: np.ndarray = field(repr=False)
    angles: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)


def radial_moment(alpha: float, k: int) -> float:
    """Closed form of the monomial moment: integral of |z|^(2k) against dA_alpha.

    Equals k! * Gamma(alpha+2) / Gamma(k+alpha+2); reduces to 1/(k+1) at alpha=0.
    """
    return math.exp(math.lgamma(k + 1) + math.lgamma(alpha + 2) - math.lgamma(k + alpha + 2))


@functools.lru_cache(maxsize=64)
def gauss_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1-x)^alpha on [-1, 1], by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    (alpha, 0) three-term recurrence; each weight is mu_0 v_0^2, with v_0 the
    first component of the unit eigenvector and mu_0 = 2^(alpha+1)/(alpha+1)
    the total mass.  Cached per (n, alpha); the arrays are read-only.
    """
    k = np.arange(1, n, dtype=float)
    two_k = 2.0 * k + alpha
    diag = np.empty(n)
    diag[0] = -alpha / (alpha + 2.0)          # the k >= 1 formula is 0/0 here at alpha = 0
    diag[1:] = -alpha ** 2 / (two_k * (two_k + 2.0))
    off = np.sqrt(4.0 * k ** 2 * (k + alpha) ** 2
                  / (two_k ** 2 * (two_k + 1.0) * (two_k - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 ** (alpha + 1.0) / (alpha + 1.0) * vecs[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.lru_cache(maxsize=64)
def build_disc_quadrature(alpha: float, n_rad: int, n_ang: int) -> DiscQuadrature:
    """Gauss-Jacobi (radial, in s = r^2) x trapezoid (angular) quadrature for dA_alpha,
    cached per (alpha, n_rad, n_ang) like gauss_jacobi; the arrays are read-only."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if n_rad < 4 or n_ang < 8:
        raise GridError("need n_rad >= 4 and n_ang >= 8")

    # dA_alpha = (alpha+1)(1-s)^alpha ds dtheta/(2 pi); s = (x+1)/2 carries the
    # Jacobi weight (1-x)^alpha dx on [-1, 1] to 2^(alpha+1) (1-s)^alpha ds
    x, w = gauss_jacobi(n_rad, alpha)
    r = np.sqrt(0.5 * (x + 1.0))
    radial_weights = (alpha + 1.0) * w / 2.0 ** (alpha + 1.0)
    angles = 2.0 * np.pi * np.arange(n_ang) / n_ang
    nodes = (r[:, None] * np.exp(1j * angles)[None, :]).ravel()
    for arr in (r, radial_weights, angles, nodes):
        arr.setflags(write=False)
    return DiscQuadrature(alpha=float(alpha), n_rad=n_rad, n_ang=n_ang,
                          radii=r, radial_weights=radial_weights,
                          angles=angles, nodes=nodes)


def inner_product(f, g, q: DiscQuadrature) -> complex:
    """<f, g>: the radial rule over the per-radius angular means of f conj(g)."""
    return complex(q.radial_weights @ np.mean(node_grid(f, q) * np.conj(node_grid(g, q)), axis=1))


def node_grid(f, q: DiscQuadrature) -> np.ndarray:
    """f as (n_rad, n_ang) complex samples, a view where possible; GridError on a count mismatch."""
    f = np.asarray(f, dtype=complex)
    if f.size != q.nodes.size:
        raise GridError("sample vector must match the node count")
    return f.reshape(q.n_rad, q.n_ang)


def circle_mean(v, p: float) -> np.ndarray:
    """mean(|v|^p) over the last axis: M_p^p of each ring of equispaced circle samples.
    The power is taken in place, so a large grid allocates one temporary, not two."""
    a = np.abs(v).astype(float, copy=False)
    return np.mean(np.power(a, p, out=a), axis=-1)


def sample(func, q: DiscQuadrature) -> np.ndarray:
    """Evaluate a callable (or HoloPoly) on the tensor grid, as (n_rad, n_ang)."""
    return np.asarray(func(q.nodes.reshape(q.n_rad, q.n_ang)), dtype=complex)


@dataclass(frozen=True)
class OperatorMatrix:
    """Truncated operator matrix in an orthonormal monomial basis."""

    entries: np.ndarray

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square matrix")
        object.__setattr__(self, "entries", arr)


# ---------------------------------------------------------------------------
# boundary grid and discrete Fourier analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryGrid:
    """Samples on M equispaced boundary points xi_j = exp(2 pi i j / M); M a power of two."""

    samples: np.ndarray

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=complex).ravel()
        m = len(arr)
        if m < 2 or (m & (m - 1)) != 0:
            raise GridError(f"grid size must be a power of two, got {m}")
        object.__setattr__(self, "samples", arr)

    @property
    def size(self) -> int:
        return len(self.samples)


def boundary_points(m: int) -> np.ndarray:
    """The m equispaced points exp(2 pi i j / m) of the unit circle."""
    return np.exp(2j * np.pi * np.arange(m) / m)


def boundary_grid_from(func, m: int) -> BoundaryGrid:
    """Sample a callable on the m-point boundary grid; m is checked first, so a
    bad m is reported as given."""
    if m < 2 or m & (m - 1):
        raise GridError(f"grid size must be a power of two, got {m}")
    return BoundaryGrid(np.asarray(func(boundary_points(m)), dtype=complex))


def boundary_fourier(b: BoundaryGrid) -> np.ndarray:
    """Discrete Fourier coefficients in FFT order: entry k mod M holds f_hat(k)
    for -M/2 < k <= M/2, so ``c[k]`` reads offset k for either sign.

    Matches the normalized boundary integral of f(xi) xi^(-k) exactly for
    trigonometric polynomials of degree < M/2.
    """
    return np.fft.fft(b.samples) / b.size


def boundary_synthesis(coeffs: np.ndarray) -> BoundaryGrid:
    """Inverse of :func:`boundary_fourier` on a grid of len(coeffs) points."""
    return BoundaryGrid(np.fft.ifft(coeffs) * len(coeffs))
