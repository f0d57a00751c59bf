"""alpha-Bloch seminorms and norms, Mobius transforms of the disc, the
invariant gradient, little-Bloch membership and pointwise multipliers.

Suprema over the open disc are approximated on a radial-angular grid whose
resolution is doubled until the value changes by less than a refinement
tolerance, then polished by a shrinking 5x5 polar stencil: centred on the
best point, it moves to the stencil's best point and halves both steps until
they reach 1e-14.  The report records the point attaining the maximum; the
search certifies nothing.

On a polar grid f' is separable, f'(r_i e^(i theta_j)) = sum_k b_k r_i^k
e^(i k theta_j), so each grid level (and each stencil) is one matrix product
of the radial powers b_k r_i^k by the angular characters e^(i k theta_j).
The weight (1-r^2)^alpha is then applied to the row maxima of |f'| only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import HoloPoly

GRID_START = 64     # radii and angles of the first grid, doubled each refinement
REFINE_TOL = 1e-6
MAX_REFINE = 4


@dataclass(frozen=True)
class BlochReport:
    alpha: float
    seminorm: float
    norm: float
    argmax_z: complex


def _row_maxima(f_prime: HoloPoly, r: np.ndarray, theta: np.ndarray):
    """For each radius r_i, the largest |f'(r_i e^(i theta_j))| over theta and
    the index j attaining it, from one (len(r) x d) @ (d x len(theta)) product."""
    k = np.arange(len(f_prime.coeffs))
    mod = np.abs((f_prime.coeffs * r[:, None] ** k) @ np.exp(1j * np.outer(k, theta)))
    j = np.argmax(mod, axis=1)
    return mod[np.arange(len(r)), j], j


def _best_on(f_prime: HoloPoly, alpha: float, r: np.ndarray, theta: np.ndarray):
    """Largest (1-|z|^2)^alpha |f'(z)| over z = r e^(i theta) on the polar
    product of r and theta: the value, its point, and its r and theta."""
    row_max, cols = _row_maxima(f_prime, r, theta)
    vals = (1.0 - r ** 2) ** alpha * row_max
    i = int(np.argmax(vals))
    t = theta[cols[i]]
    return float(vals[i]), complex(r[i] * np.exp(1j * t)), r[i], t


def bloch_seminorm(f: HoloPoly, alpha: float) -> BlochReport:
    """sup over the disc of (1-|z|^2)^alpha |f'(z)|, by the grid doubling and
    polish described above; nothing is certified."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    fp = f.derivative()
    best = np.inf
    for level in range(MAX_REFINE + 1):
        n = GRID_START * 2 ** level
        # closed radial grid [0, 1) biased toward the boundary is unnecessary for
        # polynomials: (1-r^2)^alpha kills the boundary, so uniform radii suffice
        r = np.linspace(0.0, 1.0, n, endpoint=False)
        new, argmax, r0, t0 = _best_on(fp, alpha, r, 2.0 * np.pi * np.arange(n) / n)
        converged = abs(new - best) < REFINE_TOL
        best = new
        if converged:
            break

    # local polish: a 5x5 polar stencil around the best point, both steps
    # halved each round until they reach rounding level
    offsets = np.arange(-2, 3)
    dr, dt = 1.0 / n, 2.0 * np.pi / n
    while dr > 1e-14 or dt > 1e-14:
        value, z, r0, t0 = _best_on(fp, alpha, np.clip(r0 + dr * offsets, 0.0, 1.0 - 1e-12),
                                    t0 + dt * offsets)
        if value > best:
            best, argmax = value, z
        dr, dt = dr / 2.0, dt / 2.0
    f0 = abs(f(0.0))
    return BlochReport(alpha=float(alpha), seminorm=best, norm=f0 + best,
                       argmax_z=argmax)


def bloch_norm(f: HoloPoly, alpha: float = 1.0) -> float:
    """|f(0)| + Bloch seminorm."""
    return bloch_seminorm(f, alpha).norm


def mobius(a: complex, z):
    """Disc automorphism phi_a(z) = (a - z) / (1 - conj(a) z); swaps 0 and a."""
    if abs(a) >= 1:
        raise ValueError(f"|a| must be < 1, got |a| = {abs(a)}")
    z = np.asarray(z, dtype=complex)
    denom = 1.0 - np.conj(a) * z
    if np.any(np.abs(denom) < 1e-14):
        raise ValueError("pole of the Mobius transform: conj(a) * z = 1")
    out = (a - z) / denom
    return out if out.shape else complex(out)


def invariant_gradient_norm(f: HoloPoly, z: complex) -> float:
    """Mobius-invariant gradient magnitude (1 - |z|^2) |f'(z)|."""
    if abs(z) >= 1:
        raise ValueError(f"|z| must be < 1, got {abs(z)}")
    return float((1.0 - abs(z) ** 2) * abs(f.derivative()(z)))


def little_bloch_test(f: HoloPoly, radii) -> bool:
    """True iff the invariant gradient decays along the given radius ladder.

    Requires the per-radius maxima over 256 angles to be eventually decreasing
    and the value at the largest radius to fall below 1e-3.
    """
    radii = np.asarray(radii, dtype=float)
    if not (np.all(np.diff(radii) > 0) and radii.max() < 1):
        raise ValueError("radii must be strictly increasing with max < 1")
    theta = 2.0 * np.pi * np.arange(256) / 256
    maxima = (1.0 - radii ** 2) * _row_maxima(f.derivative(), radii, theta)[0]
    tail = maxima[len(maxima) // 2:]
    eventually_decreasing = bool(np.all(np.diff(tail) <= 1e-12))
    return bool(maxima[-1] < 1e-3 and eventually_decreasing)


def multiplier_norm_report(phi: HoloPoly, test_set, alpha: float = 1.0) -> float:
    """sup over the test set of ||phi f||_B / ||f||_B for the pointwise
    multiplier M_phi(f) = phi * f."""
    ratios = []
    for f in test_set:
        denom = bloch_norm(f, alpha)
        if denom < 1e-14:
            continue
        ratios.append(bloch_norm(phi * f, alpha) / denom)
    if not ratios:
        raise ValueError("test set contains no nonzero function")
    return float(max(ratios))
