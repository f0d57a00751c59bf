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
# d -> the gather index m + j of the lag-m products a_(j+m) conj(a_j); E[k, j] = w^k at
# the 2d + 1 angles w = e^(2 pi i j/(2d+1)); and T, row k the coefficients of (x + i)^k
# (x - i)^(2d-k), so that p @ T is the Cayley image (x - i)^(2d) P((x + i)/(x - i)).
_CAYLEY: dict = {}


@dataclass(frozen=True)
class BlochReport:
    alpha: float
    seminorm: float       # the value attained at argmax_z
    norm: float
    argmax_z: complex
    upper: float          # no point of the disc exceeds it, up to the rounding of M
    converged: bool       # False when the level budget ran out first


def _span(p: HoloPoly):
    """The exponents from p's lowest to its highest nonzero coefficient, and those coefficients."""
    nz = np.flatnonzero(p.coeffs)
    k = np.arange(nz[0], nz[-1] + 1) if nz.size else np.arange(1)
    return k, p.coeffs[k]


def _circle_max(p, r):
    """M(r) = max |p| on |z| = r for each radius of r, and an angle attaining it; p is
    a HoloPoly, or exponent and coefficient rows (k, c) of one length, one per radius.

    With p(r w) = w^lo q(w) and q's coefficients scaled to a largest modulus of one,
    |q|^2 = sum_m c_m w^m on |w| = 1 has its angular critical points at the unit-circle
    roots of P(w) = sum_m m c_m w^(m+d).  Turned by the angle phi, of 2d + 1 equispaced
    ones, where |P| is largest, e^(-i d phi) P(e^(i phi) w) is anti-self-inversive, so
    its Cayley image under w = (x + i)/(x - i) is i times a real polynomial of full
    degree 2d, whose real roots are those points (Marden, Geometry of Polynomials).
    |q| is taken at the eigenvalues of that polynomial's real companion matrix, moved
    onto the circle, and at w = 1 and w = e^(i phi)."""
    k, c = _span(p) if isinstance(p, HoloPoly) else p
    a = c * np.asarray(r, dtype=float)[:, None] ** k
    n, d = len(a), k.shape[-1] - 1
    if d == 0:
        return np.abs(a[:, 0]), np.zeros(n)
    scale = np.max(np.abs(a), axis=1)
    a /= np.where(scale > 0, scale, 1.0)[:, None]
    if d not in _CAYLEY:              # built on first use
        w, lag = np.arange(2 * d + 1), np.add.outer(np.arange(d + 1), np.arange(d + 1))
        _CAYLEY[d] = lag, np.exp(2j * np.pi * np.outer(w, w) / w.size), np.array(
            [np.poly([-1j] * h + [1j] * (2 * d - h))[::-1] for h in w], complex)
    lag, e, t = _CAYLEY[d]
    cm = (np.hstack([a, np.zeros((n, d))])[:, lag] @ a.conj()[:, :, None])[:, :, 0]
    p = np.hstack([cm[:, :0:-1].conj(), cm]) * np.arange(-d, d + 1)
    j = np.argmax(np.abs(p @ e), axis=1)
    real = (p * e[j] * e[j, d:d + 1].conj() @ t).imag
    comp = np.eye(2 * d, k=-1) + np.zeros((n, 1, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        comp[:, 0] = -real[:, -2::-1] / real[:, -1:]
    # a zero leading coefficient (q constant, as at r = 0) or a NaN coefficient
    # leaves a non-finite row; its roots are then only candidates, like w = 1
    x = np.linalg.eigvals(np.where(np.isfinite(comp), comp, 0.0))
    turn = e[j, 1:2]                  # e^(i phi)
    theta = np.angle(np.hstack([np.ones((n, 1)), turn, turn * (x + 1j) * (x.conj() + 1j)]))
    mod = np.abs(np.exp(1j * theta[:, :, None] * np.arange(d + 1)) @ a[:, :, None])[:, :, 0]
    i = np.argmax(mod, axis=1)
    return scale * mod[np.arange(n), i], theta[np.arange(n), i]


def weighted_sups(ps, alpha: float):
    """For each polynomial p of ps, sup over the disc of (1-|z|^2)^alpha |p(z)| by the
    radial cell search described above, all of their cells in one level loop: arrays
    of the values attained, their argmax_z, the upper bounds and converged."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    spans, n = [_span(p) for p in ps], len(ps)
    deg = np.array([len(ks) - 1 for ks, _ in spans], dtype=int)
    k = np.zeros((n, deg.max(initial=0) + 1), dtype=int)     # the spans, left-aligned
    c = np.zeros(k.shape, dtype=complex)
    for s, (ks, cs) in enumerate(spans):
        k[s, :len(ks)], c[s, :len(cs)] = ks, cs

    def circle_max(i, r):             # one _circle_max per span length d among the cells
        m, t = np.empty(len(i)), np.empty(len(i))
        for d in np.unique(deg[i]):
            j = np.flatnonzero(deg[i] == d)
            m[j], t[j] = _circle_max((k[i[j], :d + 1], c[i[j], :d + 1]), r[j])
        return m, t

    i = np.arange(n)                  # cells [r[0], r[1]] of polynomial i, M at both ends in m
    r = np.array([np.zeros(n), np.ones(n)])
    m = circle_max(np.tile(i, 2), r.ravel())[0].reshape(2, n)
    best, argmax, upper = m[0].copy(), np.zeros(n, dtype=complex), np.zeros(n)
    for level in range(LEVELS + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.log(m[1] / m[0]) / np.log(r[1] / r[0])
            peak = np.sqrt(np.clip(s / (s + 2.0 * alpha), r[0] ** 2, r[1] ** 2))
            chord = m[0] * (peak / r[0]) ** s * (1.0 - peak ** 2) ** alpha
        bound, peak = np.where(r[0] > 0, chord, m[1]), np.where(r[0] > 0, peak, r[1] / 2.0)
        live = bound > best[i] * (1.0 + RTOL)
        if level == LEVELS or not live.any():
            break
        np.maximum.at(upper, i[~live], bound[~live])
        i, r, m, peak = i[live], r[:, live], m[:, live], peak[live]
        mp, tp = circle_max(i, peak)
        vals = (1.0 - peak ** 2) ** alpha * mp
        order = np.lexsort((-vals, i))  # by polynomial, its best (first) cell first
        win = order[np.unique(i[order], return_index=True)[1]]
        win = win[vals[win] > best[i[win]]]
        best[i[win]], argmax[i[win]] = vals[win], peak[win] * np.exp(1j * tp[win])
        i = np.concatenate([i, i])
        r, m = np.hstack([(r[0], peak), (peak, r[1])]), np.hstack([(m[0], mp), (mp, m[1])])
    np.maximum.at(upper, i, bound)
    return best, argmax, np.maximum(upper, best), ~np.isin(np.arange(n), i[live])


def bloch_seminorm(f: HoloPoly, alpha: float) -> BlochReport:
    """sup over the disc of (1-|z|^2)^alpha |f'(z)|: weighted_sups on f' alone."""
    value, argmax, upper, converged = (x[0] for x in weighted_sups([f.derivative()], alpha))
    return BlochReport(alpha=float(alpha), seminorm=float(value), norm=abs(f(0.0)) + float(value),
                       argmax_z=complex(argmax), upper=float(upper), converged=bool(converged))


def bloch_norms(fs, alpha: float = 1.0) -> np.ndarray:
    """|f(0)| + Bloch seminorm for each f of fs, from one weighted_sups call."""
    return np.abs([f(0.0) for f in fs]) + weighted_sups([f.derivative() for f in fs], alpha)[0]


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
    test_set = list(test_set)
    denom, num = bloch_norms(test_set + [phi * f for f in test_set], alpha).reshape(2, -1)
    keep = ~(denom < 1e-14)
    if not keep.any():
        raise ValueError("test set contains no nonzero function")
    return float(np.max(num[keep] / denom[keep]))
