"""Hardy space norms, Cauchy-Szego and Poisson kernels with reproducing
checks, classical Hardy-Toeplitz matrices and disc-algebra membership.

Boundary arc measure is normalized to total mass one throughout, consistent
with the discrete Fourier analysis in :mod:`funcalg.numcore`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .numcore import BoundaryGrid, HoloPoly, boundary_fourier

RADIUS_LADDER = (0.9, 0.99, 0.999, 0.9999)


@dataclass(frozen=True)
class HardyToeplitz:
    """Toeplitz matrix M[j, k] = phi_hat(j - k) in the monomial basis of H^2."""

    entries: np.ndarray

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square matrix")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def hardy_norm(f: HoloPoly, p: float, radii=RADIUS_LADDER, m: int = 512) -> float:
    """sup over the radius ladder of the p-th circle mean of |f|."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0) or np.any(radii >= 1):
        raise ValueError("radii must lie in (0, 1)")
    ring = np.exp(2j * np.pi * np.arange(m) / m)
    means = [np.mean(np.abs(f(r * ring)) ** p) ** (1.0 / p) for r in radii]
    return float(max(means))


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


def _boundary_points(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def szego_reproduce(f: HoloPoly, z: complex, m: int = 256) -> complex:
    """Discrete Cauchy integral: mean over the grid of f(xi) C(z, xi)."""
    if abs(z) > 0.9:
        raise ValueError("|z| <= 0.9 required to control quadrature error")
    if f.degree >= m // 4:
        raise ValueError("polynomial degree too high for the boundary grid")
    xi = _boundary_points(m)
    return complex(np.mean(f(xi) * szego_kernel(z, xi)))


def poisson_reproduce(f: HoloPoly, z: complex, m: int = 256) -> complex:
    """Discrete Poisson integral of a holomorphic polynomial at z."""
    if abs(z) > 0.9:
        raise ValueError("|z| <= 0.9 required to control quadrature error")
    if f.degree >= m // 4:
        raise ValueError("polynomial degree too high for the boundary grid")
    xi = _boundary_points(m)
    return complex(np.mean(f(xi) * poisson_kernel(z, xi)))


def subharmonic_check(f: HoloPoly, z: complex, p: float, m: int = 256) -> dict:
    """Report on |f(z)|^p <= Poisson average of |f|^p over the boundary."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if abs(z) > 0.9:
        raise ValueError("|z| <= 0.9 required to control quadrature error")
    xi = _boundary_points(m)
    lhs = abs(f(z)) ** p
    rhs = float(np.mean(poisson_kernel(z, xi) * np.abs(f(xi)) ** p))
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs + 1e-8)}


def hardy_toeplitz(phi_hat: dict[int, complex], n: int) -> HardyToeplitz:
    """Hardy-Toeplitz matrix from a symbol's Fourier coefficient map."""
    missing = [k for k in range(-n, n + 1) if k not in phi_hat]
    if missing:
        raise KeyError(f"missing Fourier coefficients for offsets {missing}")
    col = np.array([phi_hat[k] for k in range(n + 1)], dtype=complex)
    row = np.array([phi_hat[-k] for k in range(n + 1)], dtype=complex)
    return HardyToeplitz(toeplitz(col, row))


def conjugate_symbol(phi_hat: dict[int, complex]) -> dict[int, complex]:
    """Fourier coefficients of conj(phi): reflect and conjugate."""
    return {-k: np.conj(c) for k, c in phi_hat.items()}


def symbol_product(a_hat: dict[int, complex], b_hat: dict[int, complex]) -> dict[int, complex]:
    """Fourier coefficients of the pointwise product of two symbols."""
    out: dict[int, complex] = {}
    for ka, ca in a_hat.items():
        for kb, cb in b_hat.items():
            out[ka + kb] = out.get(ka + kb, 0.0) + ca * cb
    return out


def disc_algebra_membership(b: BoundaryGrid, tol: float = 1e-10):
    """True iff all negative Fourier coefficients vanish below tol.

    Returns (member, witness) where witness is the most offending negative
    index, or None for members.
    """
    coeffs = boundary_fourier(b)
    neg = {k: abs(c) for k, c in coeffs.items() if k < 0}
    if not neg:
        return True, None
    worst = max(neg, key=neg.get)
    if neg[worst] < tol:
        return True, None
    return False, worst
