"""alpha-Bloch seminorms and norms, Mobius transforms of the disc, the
invariant gradient, little-Bloch membership and pointwise multipliers.

For a polynomial f the alpha-Bloch seminorm is sup_r (1-r^2)^alpha M(r), with
M(r) = max |f'| on |z| = r.  M is nondecreasing (maximum modulus) and log M is
convex in log r (Hadamard's three circles), so on a cell [r0, r1] M lies below
its chord M(r0) (r/r0)^s, and (1-r^2)^alpha M(r) below that chord's weighted
peak at r^2 = s/(s + 2 alpha), clipped to the cell; a cell at r0 = 0 is bounded
by M(r1).  Cells are cut at their peaks and dropped once their bound is within
RTOL of the best value found, so the report is an enclosure [seminorm, upper],
rigorous up to the rounding of M.  M(r) itself comes from the unit-circle roots
of one polynomial (Boyd, J. Eng. Math. 56, 2006).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import HoloPoly

RTOL = 1e-13    # a cell is dropped once its bound is within RTOL of the best value
LEVELS = 64     # cell levels before the search stops with converged = False


@dataclass(frozen=True)
class BlochReport:
    alpha: float
    seminorm: float       # the value attained at argmax_z
    norm: float
    argmax_z: complex
    upper: float          # no point of the disc exceeds it, up to the rounding of M
    converged: bool       # False when the level budget ran out first


def _circle_max(f_prime: HoloPoly, r):
    """M(r) = max |f'| on |z| = r for each radius of r, and an angle attaining it.

    With f'(r w) = w^lo q(w) and q's coefficients scaled to a largest modulus of
    one, |q|^2 = sum_m c_m w^m on |w| = 1 has its angular critical points at the
    unit-circle roots of sum_m m c_m w^(m+d), the eigenvalues of its companion
    matrix; |q| is taken there, moved onto the circle, and at w = 1."""
    nz = np.flatnonzero(f_prime.coeffs)
    k = np.arange(nz.min(initial=0), nz.max(initial=0) + 1)
    a = f_prime.coeffs[k] * np.asarray(r, dtype=float)[:, None] ** k
    scale = np.max(np.abs(a), axis=1)
    a /= np.where(scale > 0, scale, 1.0)[:, None]
    d, n = len(k) - 1, len(a)
    p = np.array([np.correlate(row, row, "full") for row in a]) * np.arange(-d, d + 1)
    comp = np.eye(2 * d, k=-1) + np.zeros((n, 1, 1), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        comp[:, :1] = (-p[:, -2::-1] / p[:, -1:])[:, None]
    # a zero leading coefficient (q constant, as at r = 0) or a NaN coefficient
    # leaves a non-finite row; its roots are then only candidates, like w = 1
    roots = np.linalg.eigvals(np.where(np.isfinite(comp), comp, 0.0))
    theta = np.angle(np.concatenate([np.ones((n, 1)), roots], axis=1))
    mod = np.abs(np.exp(1j * theta[:, :, None] * np.arange(d + 1)) @ a[:, :, None])[:, :, 0]
    i = np.argmax(mod, axis=1)
    return scale * mod[np.arange(n), i], theta[np.arange(n), i]


def bloch_seminorm(f: HoloPoly, alpha: float) -> BlochReport:
    """sup over the disc of (1-|z|^2)^alpha |f'(z)|, by the radial cell search
    described above: the best value attained, where, and an upper bound."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    fp = f.derivative()
    r = np.array([[0.0], [1.0]])          # cells [r[0], r[1]], with M at both ends in m
    m = _circle_max(fp, r[:, 0])[0][:, None]
    best, argmax, upper = float(m[0, 0]), 0j, 0.0
    for level in range(LEVELS + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.log(m[1] / m[0]) / np.log(r[1] / r[0])
            peak = np.sqrt(np.clip(s / (s + 2.0 * alpha), r[0] ** 2, r[1] ** 2))
            chord = m[0] * (peak / r[0]) ** s * (1.0 - peak ** 2) ** alpha
        bound, peak = np.where(r[0] > 0, chord, m[1]), np.where(r[0] > 0, peak, r[1] / 2.0)
        live = bound > best * (1.0 + RTOL)
        if level == LEVELS or not live.any():
            break
        upper = float(np.max(bound[~live], initial=upper))
        r, m, peak = r[:, live], m[:, live], peak[live]
        mp, tp = _circle_max(fp, peak)
        vals = (1.0 - peak ** 2) ** alpha * mp
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, argmax = float(vals[i]), complex(peak[i] * np.exp(1j * tp[i]))
        r, m = np.hstack([(r[0], peak), (peak, r[1])]), np.hstack([(m[0], mp), (mp, m[1])])
    return BlochReport(alpha=float(alpha), seminorm=best, norm=abs(f(0.0)) + best,
                       argmax_z=argmax, upper=float(np.max(bound, initial=max(upper, best))),
                       converged=not live.any())


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

    Requires the per-radius maxima (1 - r^2) M(r) to be eventually decreasing
    (up to 1e-12 of the largest) and the value at the largest radius below 1e-3.
    """
    radii = np.asarray(radii, dtype=float)
    if not (np.all(np.diff(radii) > 0) and radii.max() < 1):
        raise ValueError("radii must be strictly increasing with max < 1")
    maxima = (1.0 - radii ** 2) * _circle_max(f.derivative(), radii)[0]
    tail = maxima[len(maxima) // 2:]
    eventually_decreasing = bool(np.all(np.diff(tail) <= 1e-12 * np.max(tail)))
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
