"""Hardy space norms, Cauchy-Szego and Poisson kernels with reproducing
checks, classical Hardy-Toeplitz matrices and disc-algebra membership.

Boundary arc measure is normalized to total mass one throughout, consistent
with the discrete Fourier analysis in :mod:`funcalg.numcore`.
"""

from __future__ import annotations

import numpy as np

from .numcore import (
    BoundaryGrid,
    HoloPoly,
    OperatorMatrix,
    boundary_fourier,
    boundary_points,
    circle_mean,
)

RADIUS_LADDER = (0.9, 0.99, 0.999, 0.9999)


def hardy_norm(f: HoloPoly, p: float, radii=RADIUS_LADDER) -> float:
    """sup over the radius ladder of the p-th circle mean of |f| on 512 points."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0) or np.any(radii >= 1):
        raise ValueError("radii must lie in (0, 1)")
    ring = boundary_points(512)
    return float(max(circle_mean(f(r * ring), p) ** (1.0 / p) for r in radii))


def hardy_norm_parseval(f: HoloPoly, r: float) -> float:
    """Exact p=2 circle mean at radius r: sqrt(sum |a_k|^2 r^(2k))."""
    k = np.arange(len(f.coeffs))
    return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2 * r ** (2 * k))))


def _check_boundary(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=complex)
    if np.any(np.abs(np.abs(xi) - 1.0) > 1e-12):
        raise ValueError("xi must lie on the unit circle")
    return xi


def szego_kernel(z: complex, xi):
    """Cauchy-Szego kernel 1 / (1 - z conj(xi)) for |z| < 1, |xi| = 1."""
    if abs(z) >= 1:
        raise ValueError(f"|z| must be < 1, got {abs(z)}")
    xi = _check_boundary(xi)
    out = 1.0 / (1.0 - z * np.conj(xi))
    return out if out.shape else complex(out)


def poisson_kernel(z: complex, xi):
    """Poisson kernel (1 - |z|^2) / |1 - z conj(xi)|^2."""
    if abs(z) >= 1:
        raise ValueError(f"|z| must be < 1, got {abs(z)}")
    xi = _check_boundary(xi)
    out = (1.0 - abs(z) ** 2) / np.abs(1.0 - z * np.conj(xi)) ** 2
    return out if out.shape else float(out)


def _reproduce(kernel, f: HoloPoly, z: complex) -> complex:
    """Mean over the 256-point boundary grid of f(xi) kernel(z, xi)."""
    if abs(z) > 0.9:
        raise ValueError("|z| <= 0.9 required to control quadrature error")
    if f.degree >= 64:
        raise ValueError("polynomial degree too high for the 256-point boundary grid")
    xi = boundary_points(256)
    return complex(np.mean(f(xi) * kernel(z, xi)))


def szego_reproduce(f: HoloPoly, z: complex) -> complex:
    """Discrete Cauchy integral: mean over the grid of f(xi) C(z, xi)."""
    return _reproduce(szego_kernel, f, z)


def poisson_reproduce(f: HoloPoly, z: complex) -> complex:
    """Discrete Poisson integral of a holomorphic polynomial at z."""
    return _reproduce(poisson_kernel, f, z)


def subharmonic_check(f: HoloPoly, z: complex, p: float) -> dict:
    """Report on |f(z)|^p <= Poisson average of |f|^p; ``tolerance`` is relative to rhs."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if abs(z) > 0.9:
        raise ValueError("|z| <= 0.9 required to control quadrature error")
    xi = boundary_points(256)
    lhs = abs(f(z)) ** p
    rhs = float(np.mean(poisson_kernel(z, xi) * np.abs(f(xi)) ** p))
    tol = 1e-8
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs * (1 + tol)), "tolerance": tol}


def hardy_toeplitz(phi_hat: np.ndarray, n: int) -> OperatorMatrix:
    """Toeplitz matrix M[j, k] = phi_hat(j - k) in the monomial basis of H^2,
    from a Fourier array in FFT order (see :func:`numcore.boundary_fourier`)."""
    if len(phi_hat) < 2 * n + 1:
        raise ValueError(f"cutoff {n} needs Fourier coefficients for offsets "
                         f"-{n}..{n}, got an array of length {len(phi_hat)}")
    k = np.arange(n + 1)
    return OperatorMatrix(phi_hat[np.subtract.outer(k, k)])


def conjugate_symbol(phi_hat: np.ndarray) -> np.ndarray:
    """Fourier coefficients of conj(phi): reflect and conjugate."""
    return np.conj(phi_hat[-np.arange(len(phi_hat))])


def symbol_product(a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the pointwise product of two symbols: the full
    product, of length len(a_hat) + len(b_hat) - 1, in FFT order.

    At least one length must be odd; two even lengths would put the top
    offset of the product where the FFT order reads the bottom one.
    """
    la, lb = len(a_hat), len(b_hat)
    if la % 2 == 0 and lb % 2 == 0:
        raise ValueError("at least one Fourier array must have odd length")
    size = la + lb - 1
    out = np.zeros(size, dtype=complex)
    np.add.at(out, (_offsets(la)[:, None] + _offsets(lb)) % size,
              np.multiply.outer(a_hat, b_hat))
    return out


def _offsets(size: int) -> np.ndarray:
    """Offset k held at each index of an FFT-order array, -size/2 < k <= size/2."""
    i = np.arange(size)
    return np.where(i <= size // 2, i, i - size)


def disc_algebra_membership(b: BoundaryGrid, tol: float = 1e-10):
    """True iff all negative Fourier coefficients vanish below tol.

    Returns (member, witness) where witness is the most offending negative
    index (the most negative one among ties), or None for members.
    Raises FloatingPointError if a boundary sample is NaN or infinite.
    """
    if not np.all(np.isfinite(b.samples)):
        raise FloatingPointError("symbol is not finite on the boundary grid")
    first = b.size // 2 + 1             # index of offset -M/2 + 1
    neg = np.abs(boundary_fourier(b)[first:])
    if neg.size == 0 or neg.max() < tol:
        return True, None
    return False, int(np.argmax(neg)) + first - b.size
