"""Moment-corrected mollifiers, epsilon-scaled regularization, derivative
seminorms and asymptotic-order classification.

Everything is one-dimensional: the mollifier is an even bump
exp(-1/(1-t^2)) on (-1, 1) times an even polynomial correction chosen so the
moments 1..q vanish while the total mass stays one.  Regularization defects
are measured per epsilon on a compact grid and classified by the fitted
log-log slope of the ladder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 200-point Gauss-Legendre rule on [-1, 1], built on first use; read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(200)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _bump(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti ** 2))
    return out


@dataclass(frozen=True, eq=False)
class Mollifier:
    """Unit-mass bump with vanishing moments 1..q, supported in [-1, 1].

    The arrays are read-only copies, and two mollifiers are equal when q and
    the arrays are.  The derivative polynomials and quadrature weights are
    built on first use and then kept; they take no part in equality or repr.
    """

    q: int
    correction: np.ndarray = field(repr=False)   # coefficients of c(t^2)
    grid: np.ndarray = field(repr=False)         # dense sample grid
    samples: np.ndarray = field(repr=False)
    _polys: dict = field(default_factory=dict, init=False, repr=False)    # n -> P_n
    _weights: dict = field(default_factory=dict, init=False, repr=False)  # n -> weights

    def __post_init__(self):
        for name in ("correction", "grid", "samples"):
            values = np.array(getattr(self, name), dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def __eq__(self, other):
        if not isinstance(other, Mollifier):
            return NotImplemented
        return self.q == other.q and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("correction", "grid", "samples"))

    def __hash__(self):
        return hash((self.q, self.correction.tobytes()))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        c = np.polynomial.polynomial.polyval(t ** 2, self.correction)
        return _bump(t) * c

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def _chebyshev(self, order: int) -> Chebyshev:
        """P_order of the derivative recurrence, extended from the highest P_n
        built so far.  Concurrent callers can only build the same P_n twice."""
        polys = self._polys
        if order not in polys:
            t = Chebyshev.identity()
            s = 1.0 - t ** 2
            if not polys:
                polys[0] = Polynomial(self.correction)(t ** 2)
            top = max(polys)
            p = polys[top]
            for n in range(top, order):
                p = s ** 2 * p.deriv() + (4 * n * t * s - 2 * t) * p
                polys[n + 1] = p
        return polys[order]

    def derivative_fn(self, order: int):
        """Callable for the order-th derivative, in closed form inside the support.

        With s = 1 - t^2, d^n/dt^n [exp(-1/s) c(t^2)] = P_n(t) exp(-1/s) / s^(2n),
        where P_0 = c(t^2) and P_(n+1) = s^2 P_n' + (4n t s - 2t) P_n.  P_n is
        kept in the Chebyshev basis: its monomial coefficients grow fast
        enough (2e5 at q = 4, n = 4) to cost three digits near |t| = 1.

        Mollifiers are cached per process and read-only, and each one builds
        P_n once per order n, extending the recurrence from the highest order
        it already holds, so a repeated call only evaluates.
        """
        if order < 0:
            raise ValueError(f"derivative order must be nonnegative, got {order}")
        if order == 0:
            return self
        p = self._chebyshev(order)

        def deriv(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            inside = np.abs(x) < 1.0 - 1e-12
            xi = x[inside]
            si = 1.0 - xi ** 2
            # exp(-1/s) / s^(2n) as one exponential, so neither factor under- or overflows
            out[inside] = p(xi) * np.exp(-1.0 / si - 2 * order * np.log(si))
            return out

        return deriv

    def quadrature_weights(self, order: int) -> np.ndarray:
        """phi^(order)(y_i) w_i on the Gauss-Legendre nodes y_i: all 200 of them
        for order 0, the 100 positive ones (the folded rule) for order >= 1.
        Built once per order and kept; read-only."""
        w = self._weights.get(order)
        if w is None:
            nodes, weights = _gauss_legendre()
            if order == 0:
                w = self(nodes) * weights
            else:
                pos = nodes > 0
                w = self.derivative_fn(order)(nodes[pos]) * weights[pos]
            w.setflags(write=False)
            w = self._weights.setdefault(order, w)
        return w


@functools.lru_cache(maxsize=64)
def build_mollifier(q: int, grid_points: int = 4001) -> Mollifier:
    """Solve the even-moment system so moments 2, 4, .., q vanish; mass one.

    Cached per process: a repeated call returns the same read-only mollifier.
    """
    if q < 0 or q % 2 != 0:
        raise ValueError(f"q must be an even nonnegative integer, got {q}")
    n = q // 2 + 1
    nodes, weights = _gauss_legendre()
    base_even_moments = np.array([
        float(np.sum(weights * nodes ** (2 * m) * _bump(nodes)))
        for m in range(2 * n)
    ])
    system = np.array([[base_even_moments[a + j] for j in range(n)] for a in range(n)])
    rhs = np.zeros(n)
    rhs[0] = 1.0
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError("moment system is numerically singular")
    correction = np.linalg.solve(system, rhs)
    grid = np.linspace(-1.0, 1.0, grid_points)
    c = np.polynomial.polynomial.polyval(grid ** 2, correction)
    return Mollifier(q=q, correction=correction, grid=grid, samples=_bump(grid) * c)


def mollifier_moment(m: Mollifier, a: int) -> float:
    """Quadrature moment integral of t^a against the mollifier."""
    nodes, weights = _gauss_legendre()
    return float(np.sum(weights * nodes ** a * m(nodes)))


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

def regularize(f, m: Mollifier, eps: float, k_grid) -> np.ndarray:
    """Samples of f_eps(t) = integral f(t + eps*y) phi(y) dy on the grid."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    k_grid = np.asarray(k_grid, dtype=float)
    nodes, _ = _gauss_legendre()
    pts = k_grid[:, None] + eps * nodes[None, :]
    return np.asarray(f(pts), dtype=float) @ m.quadrature_weights(0)


def regularize_derivative(f, m: Mollifier, eps: float, k_grid, order: int) -> np.ndarray:
    """Exact-route derivative: f * (phi_eps)^(order), valid for continuous f.

    Differentiating under the integral and substituting u = t + eps y gives
    (-1)^order eps^(-order) integral f(t + eps y) phi^(order)(y) dy.  The
    Gauss-Legendre rule is symmetric with no node at 0 and phi^(order) has
    parity (-1)^order, so the rule is folded onto its positive nodes: each
    pair adds w phi^(order)(y) [f(t + eps y) + (-1)^order f(t - eps y)].  For
    odd orders this subtracts the nearly equal f values before the sum
    instead of cancelling O(|f|) terms inside it.
    """
    if order == 0:
        return regularize(f, m, eps, k_grid)
    t = np.asarray(k_grid, dtype=float)[:, None]
    nodes, _ = _gauss_legendre()
    y = nodes[nodes > 0]
    w = m.quadrature_weights(order)
    sign = (-1.0) ** order
    vals = (np.asarray(f(t + eps * y), dtype=float)
            + sign * np.asarray(f(t - eps * y), dtype=float))
    return (vals @ w) * sign / eps ** order


# ---------------------------------------------------------------------------
# seminorms and order estimation
# ---------------------------------------------------------------------------

def default_ladder(j_max: int = 12, j_min: int = 1) -> np.ndarray:
    return 2.0 ** -np.arange(j_min, j_max + 1)


@dataclass(frozen=True)
class EpsilonNet:
    """Geometric epsilon ladder with per-epsilon seminorm values."""

    epsilons: np.ndarray
    values: np.ndarray
    meta: dict

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if np.any(np.diff(eps) >= 0):
            raise ValueError("epsilons must be strictly decreasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("seminorm values must be finite")


@dataclass(frozen=True)
class AsymptoticReport:
    slope: float
    kind: str           # "negligible", "moderate" or "unbounded"
    order: int


def estimate_order(net: EpsilonNet, negligible_order: int | None = None,
                   max_moderate: int = 8, noise_floor: float = 1e-13) -> AsymptoticReport:
    """Least-squares log-log slope of the last 4 usable ladder points.

    Points whose value sits below the double-precision noise floor carry no
    rate information and are skipped.  negligible(m) when the slope certifies
    O(eps^m) for the requested m; moderate(N) when values are O(eps^-N) for
    some N <= max_moderate; unbounded otherwise.
    """
    if len(net.epsilons) < 4:
        raise ValueError("need at least 4 epsilon points")
    eps = np.asarray(net.epsilons, dtype=float)
    vals = np.asarray(net.values, dtype=float)
    usable = vals > noise_floor
    if usable.sum() >= 4:
        eps, vals = eps[usable][-4:], vals[usable][-4:]
    elif usable.sum() == 0:
        # everything already annihilated: certify any requested order
        slope = float(np.inf)
        kind = "negligible" if negligible_order is not None else "moderate"
        return AsymptoticReport(slope=slope, kind=kind,
                                order=negligible_order if negligible_order is not None else 0)
    else:
        eps, vals = eps[:4], vals[:4]
    slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
    if negligible_order is not None and slope >= negligible_order - 1e-9:
        return AsymptoticReport(slope=slope, kind="negligible", order=negligible_order)
    if slope >= -max_moderate - 1e-9:
        return AsymptoticReport(slope=slope, kind="moderate",
                                order=max(0, math.ceil(-slope - 1e-9)))
    return AsymptoticReport(slope=slope, kind="unbounded", order=-1)


# ---------------------------------------------------------------------------
# defect experiments
# ---------------------------------------------------------------------------

def _ladder(defect_at, epsilons, k_grid, **meta) -> EpsilonNet:
    """Per-epsilon sup over K of |defect_at(eps, K)|; by default eps runs over
    2^-1 .. 2^-12 and K holds 801 points of [-1, 1]."""
    epsilons = default_ladder() if epsilons is None else np.asarray(epsilons, float)
    k_grid = np.linspace(-1.0, 1.0, 801) if k_grid is None else np.asarray(k_grid, float)
    vals = np.array([np.max(np.abs(defect_at(e, k_grid))) for e in epsilons])
    return EpsilonNet(epsilons=epsilons, values=vals,
                      meta={"K": (float(k_grid[0]), float(k_grid[-1])), **meta})


def taylor_defect(f, m: Mollifier, epsilons=None, k_grid=None) -> EpsilonNet:
    """Per-epsilon sup over K of |f - f * phi_eps|."""
    return _ladder(lambda e, k: np.asarray(f(k), dtype=float) - regularize(f, m, e, k),
                   epsilons, k_grid, alpha=0, q=m.q, defect="taylor")


def product_defect(f, g, m: Mollifier, epsilons=None, k_grid=None) -> EpsilonNet:
    """Per-epsilon sup of |(f*phi_eps)(g*phi_eps) - (fg)*phi_eps|."""

    def fg(t):
        return np.asarray(f(t), float) * np.asarray(g(t), float)

    return _ladder(lambda e, k: (regularize(f, m, e, k) * regularize(g, m, e, k)
                                 - regularize(fg, m, e, k)),
                   epsilons, k_grid, alpha=0, q=m.q, defect="product")


def seminorm_net(f, m: Mollifier, alpha: int, epsilons=None, k_grid=None) -> EpsilonNet:
    """Per-epsilon sup over K of |d^alpha f_eps|, by the exact derivative route."""
    return _ladder(lambda e, k: regularize_derivative(f, m, e, k, alpha),
                   epsilons, k_grid, alpha=alpha, q=m.q, defect="seminorm")


def l1_embedding_bound(f, m: Mollifier, eps: float, k_grid=None,
                       support=(-2.0, 2.0), n_fine: int = 20001) -> dict:
    """Check sup_K |f * phi_eps| <= c ||f||_L1 with c = sup|phi| / eps.

    Convolution and L1 norm use the same fine u-grid (midpoint rule), so the
    discrete inequality is a triangle inequality and the reported ratio
    measures how sharp the bound is.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    k_grid = np.linspace(-1.0, 1.0, 201) if k_grid is None else np.asarray(k_grid, float)
    du = (support[1] - support[0]) / n_fine
    u = support[0] + du * (np.arange(n_fine) + 0.5)
    fu = np.asarray(f(u), dtype=float)
    l1_norm = float(np.sum(np.abs(fu)) * du)
    # (f * phi_eps)(x) = sum f(u) phi((x - u)/eps) / eps * du over |x - u| < eps:
    # one block of equal-width windows, each shifted back inside the grid at the
    # ends; the extra points lie outside the support, where phi is exactly 0
    lo = np.searchsorted(u, k_grid - eps)
    width = int(np.max(np.searchsorted(u, k_grid + eps, side="right") - lo))
    window = np.minimum(lo, n_fine - width)[:, None] + np.arange(width)
    kernel = m((k_grid[:, None] - u[window]) / eps) / eps
    sup_value = float(np.max(np.abs(np.einsum("ij,ij->i", kernel, fu[window]) * du)))
    c = m.sup / eps
    bound = c * l1_norm
    return {"sup_value": sup_value, "l1_norm": l1_norm, "c": c,
            "holds": bool(sup_value <= bound + 1e-12)}


# ---------------------------------------------------------------------------
# function catalog for the command line and demos
# ---------------------------------------------------------------------------

def catalog(name: str):
    """Named test functions: const, poly:k, abs, heaviside, exp, sin, spike:w."""
    if name == "const":
        return lambda t: np.ones_like(np.asarray(t, dtype=float))
    if name.startswith("poly:"):
        k = int(name.split(":", 1)[1])

        def power(t):
            # repeated products: pow() takes a slow path on negative bases
            t = np.asarray(t, dtype=float)
            base = t if k >= 0 else 1.0 / t
            out = np.ones_like(t)
            for _ in range(abs(k)):
                out = out * base
            return out

        return power
    if name == "abs":
        return lambda t: np.abs(np.asarray(t, dtype=float))
    if name == "heaviside":
        return lambda t: np.heaviside(np.asarray(t, dtype=float), 0.5)
    if name == "exp":
        return lambda t: np.exp(np.asarray(t, dtype=float))
    if name == "sin":
        return lambda t: np.sin(np.asarray(t, dtype=float))
    if name.startswith("spike:"):
        w = float(name.split(":", 1)[1])
        return lambda t: np.where(np.abs(np.asarray(t, dtype=float)) < w / 2,
                                  1.0 / w, 0.0)
    raise KeyError(f"unknown catalog function {name!r}")
