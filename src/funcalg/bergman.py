"""Weighted Bergman norms, kernel/projection, Toeplitz matrices and the
convolution submultiplicativity check.

Operator matrices are written in the orthonormal monomial basis
e_k(z) = z^k / sqrt(m_k) with m_k the monomial moment of dA_alpha
(m_k = 1/(k+1) for the unweighted disc).
"""

from __future__ import annotations

import numpy as np

from .numcore import (
    BoundaryGrid,
    DiscQuadrature,
    GridError,
    HoloPoly,
    OperatorMatrix,
    circle_mean,
    node_grid,
    radial_moment,
)


def bergman_kernel(z: complex, u: complex) -> complex:
    """Reproducing kernel 1 / (1 - z * conj(u))^2 of the unweighted Bergman space."""
    w = 1.0 - z * np.conj(u)
    if abs(w) < 1e-14 or abs(z * np.conj(u)) >= 1.0:
        raise ValueError("kernel pole: |z * conj(u)| must be < 1")
    return 1.0 / w ** 2


def bergman_norm(f, p: float, q: DiscQuadrature) -> float:
    """(integral |f|^p dA_alpha)^(1/p): the radial rule over per-radius circle means."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return float((q.radial_weights @ circle_mean(node_grid(f, q), p)) ** (1.0 / p))


def _angular_spectra(phi, q: DiscQuadrature, n: int) -> np.ndarray:
    """Per-radius angular DFT F[r, m]: the trapezoid mean over angles of phi e^(-i m theta)."""
    if n >= q.n_ang // 2:
        raise GridError("cutoff exceeds the angular resolution of the grid")
    return np.fft.fft(node_grid(phi, q), axis=1) / q.n_ang


def bergman_project(phi, q: DiscQuadrature, n: int) -> HoloPoly:
    """Orthogonal projection of grid samples onto polynomials of degree <= n.

    Coefficient b_k = <phi, z^k> / m_k = sum_r w_r r^k F[r, k] / m_k, the
    monomial-basis expansion of the Bergman projection; fixes holomorphic
    polynomials of degree <= n.
    """
    spec = _angular_spectra(phi, q, n)
    k = np.arange(n + 1)
    moments = np.array([radial_moment(q.alpha, kk) for kk in k])
    return HoloPoly(q.radial_weights @ (q.radii[:, None] ** k * spec[:, k]) / moments)


def toeplitz_matrix(phi, q: DiscQuadrature, n: int) -> OperatorMatrix:
    """Matrix of the Toeplitz operator with symbol phi, cutoff degree n.

    M[j, k] = <phi * e_k, e_j> = sum_r w_r r^(j+k) F[r, j-k] / sqrt(m_j m_k)
    with e_k = z^k / sqrt(m_k).
    """
    spec = _angular_spectra(phi, q, n)
    # sums[d, o] = sum_r w_r r^d F[r, o - n] for total degree d, offset o - n
    powers = q.radii ** np.arange(2 * n + 1)[:, None]
    sums = (powers * q.radial_weights) @ spec[:, np.arange(-n, n + 1) % q.n_ang]
    j, k = np.ogrid[: n + 1, : n + 1]
    norms = np.sqrt([radial_moment(q.alpha, kk) for kk in range(n + 1)])
    return OperatorMatrix(sums[j + k, j - k + n] / (norms[:, None] * norms))


def angular_convolution(f, g) -> np.ndarray:
    """Normalized circular convolution along the last axis; Fourier coefficients multiply."""
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    if f.shape[-1] != g.shape[-1]:
        raise GridError("grids must have equal size")
    return np.fft.ifft(np.fft.fft(f) * np.fft.fft(g)) / f.shape[-1]


def circle_convolution(f: BoundaryGrid, g: BoundaryGrid) -> BoundaryGrid:
    """Normalized circular convolution of boundary grids."""
    return BoundaryGrid(angular_convolution(f.samples, g.samples))


def check_convolution_submultiplicative(f, g, p: float, q: DiscQuadrature) -> dict:
    """Check the Banach-algebra inequality ||f*g||_{A^p} <= ||f|| ||g||.

    f, g are (n_rad, n_ang) sample arrays; the convolution acts per radius in
    the angle variable, where the inequality can fail for radius-dependent data.
    Returns {lhs, rhs, holds: lhs <= rhs * (1 + tolerance), tolerance (relative)}.
    """
    f, g = node_grid(f, q), node_grid(g, q)
    lhs = bergman_norm(angular_convolution(f, g), p, q)
    rhs = bergman_norm(f, p, q) * bergman_norm(g, p, q)
    tol = 1e-9
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs * (1 + tol)), "tolerance": tol}
