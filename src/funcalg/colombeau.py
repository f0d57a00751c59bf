"""Moment-corrected mollifiers, epsilon-scaled regularization, derivative
seminorms and asymptotic-order classification.

Everything is one-dimensional: the mollifier is an even bump
exp(-1/(1-t^2)) on (-1, 1) times an even polynomial correction chosen so the
moments 1..q vanish while the total mass stays one; every integral against it
uses the 64-node tanh rule.  Defects are measured per epsilon on a compact
grid and classified by the fitted log-log slope of the ladder.  The L1
embedding check convolves on a grid commensurate with its K, so one kernel of
the mollifier serves every point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import Chebyshev, Polynomial


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

@functools.cache
def _tanh_rule() -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid rule on 64 points of u in [-3, 3] after y = tanh(u), where the
    bump decays doubly exponentially; nodes in +-pairs, none at 0.  Read-only."""
    u = np.linspace(-3.0, 3.0, 64)
    nodes, weights = np.tanh(u), (u[1] - u[0]) / np.cosh(u) ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _bump(t2) -> np.ndarray:
    """exp(-1/(1 - t^2)) for |t| < 1 and 0 elsewhere (NaN and +-inf included),
    computed from t2 = t^2 in one new buffer: 1 - t^2 is clipped below at 0,
    and exp(-1/0) = exp(-inf) = 0."""
    s = np.subtract(1.0, t2, out=np.empty(np.shape(t2)))
    np.fmax(s, 0.0, out=s)                  # fmax also maps NaN to 0
    with np.errstate(divide="ignore"):
        np.divide(-1.0, s, out=s)
    return np.exp(s, out=s)


@dataclass(frozen=True, eq=False)
class Mollifier:
    """Unit-mass bump with vanishing moments 1..q, supported in [-1, 1].

    The arrays are read-only copies, and two mollifiers are equal when q and
    the arrays are.  The quadrature weights of each derivative order are kept
    for the process by value (see quadrature_weights).
    """

    q: int
    correction: np.ndarray = field(repr=False)   # coefficients of c(t^2)
    grid: np.ndarray = field(repr=False)         # dense sample grid
    samples: np.ndarray = field(repr=False)

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
        t2 = np.asarray(t, dtype=float) ** 2
        return _bump(t2) * np.polynomial.polynomial.polyval(t2, self.correction)

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def derivative_fn(self, order: int):
        """Callable for the order-th derivative, in closed form inside the support.

        With s = 1 - t^2, d^n/dt^n [exp(-1/s) c(t^2)] = P_n(t) exp(-1/s) / s^(2n),
        where P_0 = c(t^2) and P_(n+1) = s^2 P_n' + (4n t s - 2t) P_n.  P_n is
        kept in the Chebyshev basis: its monomial coefficients grow fast
        enough (2e5 at q = 4, n = 4) to cost three digits near |t| = 1.

        Every call runs the recurrence from P_0; quadrature_weights keeps what
        a ladder needs, so each order is built once per mollifier.
        """
        if order < 0:
            raise ValueError(f"derivative order must be nonnegative, got {order}")
        if order == 0:
            return self
        t = Chebyshev.identity()
        s = 1.0 - t ** 2
        p = Polynomial(self.correction)(t ** 2)
        for n in range(order):
            p = s ** 2 * p.deriv() + (4 * n * t * s - 2 * t) * p

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

    @functools.lru_cache(maxsize=64)
    def quadrature_weights(self, order: int) -> np.ndarray:
        """phi^(order)(y_i) w_i on the tanh nodes y_i: all 64 of them for
        order 0, the 32 positive ones (the folded rule) for order >= 1.

        Kept for the process per (mollifier, order) by functools.lru_cache, up
        to 64 entries, least recently used dropped first; equal mollifiers
        share them, so a ladder rung only evaluates f and takes one product.
        A new order runs the derivative recurrence once.  Read-only.
        """
        nodes, weights = _tanh_rule()
        keep = nodes > 0 if order else slice(None)
        w = self.derivative_fn(order)(nodes[keep]) * weights[keep]
        w.setflags(write=False)
        return w


@functools.lru_cache(maxsize=64)
def build_mollifier(q: int) -> Mollifier:
    """Solve the even-moment system so moments 2, 4, .., q vanish; mass one.

    Cached per process: a repeated call returns the same read-only mollifier.
    """
    if q < 0 or q % 2 != 0:
        raise ValueError(f"q must be an even nonnegative integer, got {q}")
    n = q // 2 + 1
    nodes, weights = _tanh_rule()
    even_moments = [float(np.sum(weights * nodes ** (2 * m) * _bump(nodes ** 2)))
                    for m in range(2 * n)]
    system = np.array([even_moments[a:a + n] for a in range(n)])
    rhs = np.zeros(n)
    rhs[0] = 1.0
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError("moment system is numerically singular")
    correction = np.linalg.solve(system, rhs)
    grid = np.linspace(-1.0, 1.0, 4001)
    grid2 = grid ** 2
    c = np.polynomial.polynomial.polyval(grid2, correction)
    return Mollifier(q=q, correction=correction, grid=grid, samples=_bump(grid2) * c)


def mollifier_moment(m: Mollifier, a: int) -> float:
    """Quadrature moment integral of t^a against the mollifier."""
    nodes, weights = _tanh_rule()
    return float(np.sum(weights * nodes ** a * m(nodes)))


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

def _shifted(f, eps: float, k_grid) -> np.ndarray:
    """f(t + eps*y) for t on the grid (rows) and y over all 64 tanh nodes."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    k_grid = np.asarray(k_grid, dtype=float)
    nodes, _ = _tanh_rule()
    return np.asarray(f(k_grid[:, None] + eps * nodes[None, :]), dtype=float)


def regularize(f, m: Mollifier, eps: float, k_grid) -> np.ndarray:
    """Samples of f_eps(t) = integral f(t + eps*y) phi(y) dy on the grid."""
    return _shifted(f, eps, k_grid) @ m.quadrature_weights(0)


def regularize_derivative(f, m: Mollifier, eps: float, k_grid, order: int) -> np.ndarray:
    """Exact-route derivative: f * (phi_eps)^(order), valid for continuous f.

    Differentiating under the integral and substituting u = t + eps y gives
    (-1)^order eps^(-order) integral f(t + eps y) phi^(order)(y) dy.  The
    tanh rule pairs its nodes +-y with none at 0 and phi^(order) has parity
    (-1)^order, so the rule is folded onto its 32 positive nodes: each
    pair adds w phi^(order)(y) [f(t + eps y) + (-1)^order f(t - eps y)].  For
    odd orders this subtracts the nearly equal f values before the sum
    instead of cancelling O(|f|) terms inside it.
    """
    if order == 0:
        return regularize(f, m, eps, k_grid)
    t = np.asarray(k_grid, dtype=float)[:, None]
    nodes, _ = _tanh_rule()
    y = nodes[nodes > 0]
    w = m.quadrature_weights(order)
    sign = (-1.0) ** order
    vals = (np.asarray(f(t + eps * y), dtype=float)
            + sign * np.asarray(f(t - eps * y), dtype=float))
    return (vals @ w) * sign / eps ** order


# ---------------------------------------------------------------------------
# seminorms and order estimation
# ---------------------------------------------------------------------------

def default_ladder() -> np.ndarray:
    return 2.0 ** -np.arange(1, 13)


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


def estimate_order(net: EpsilonNet, negligible_order: int | None = None) -> AsymptoticReport:
    """Least-squares log-log slope of the last 4 usable ladder points.

    Points whose value sits below the double-precision noise floor 1e-13
    carry no rate information and are skipped.  negligible(m) when the slope
    certifies O(eps^m) for the requested m; moderate(N) when values are
    O(eps^-N) for some N <= 8; unbounded otherwise.
    """
    if len(net.epsilons) < 4:
        raise ValueError("need at least 4 epsilon points")
    eps = np.asarray(net.epsilons, dtype=float)
    vals = np.asarray(net.values, dtype=float)
    usable = vals > 1e-13
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
    if slope >= -8 - 1e-9:
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
    w = m.quadrature_weights(0)

    def defect_at(e, k):
        fs, gs = _shifted(f, e, k), _shifted(g, e, k)
        return (fs @ w) * (gs @ w) - (fs * gs) @ w

    return _ladder(defect_at, epsilons, k_grid, alpha=0, q=m.q, defect="product")


def seminorm_net(f, m: Mollifier, alpha: int, epsilons=None, k_grid=None) -> EpsilonNet:
    """Per-epsilon sup over K of |d^alpha f_eps|, by the exact derivative route."""
    return _ladder(lambda e, k: regularize_derivative(f, m, e, k, alpha),
                   epsilons, k_grid, alpha=alpha, q=m.q, defect="seminorm")


def l1_embedding_bound(f, m: Mollifier, eps: float) -> dict:
    """Check sup_K |f * phi_eps| <= c ||f||_L1, c = sup|phi| / eps, for eps in (0, 1].

    Convolution and L1 norm use one fixed grid, the 20000 midpoints u of
    [-2, 2] (``cells``), so the discrete inequality is a triangle inequality
    and the reported ratio measures how sharp the bound is.  K, the fixed
    ``k_points`` = 201 points -1, -0.99, .., 1, steps by 50 cells, so one
    kernel of offsets x - u serves all of K in one matrix-vector product.
    ``holds`` allows the relative slack ``tolerance``, so the verdict does
    not depend on the scale of f.
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    cells, k_points = 20000, 201
    du = 4.0 / cells
    fu = np.asarray(f(-2.0 + du * (np.arange(cells) + 0.5)), dtype=float)
    l1_norm = float(np.sum(np.abs(fu)) * du)
    # x = -1 + 0.01 k is the edge of cell 5000 + 50 k; phi_eps(x - u) is nonzero on
    # the `half` cells each side with (j + 1/2) du < eps, and eps * 5000 <= 5000
    # keeps every window inside the grid (phi is even, so the kernel's sign is moot)
    half = math.ceil(eps * 5000 - 0.5)
    kernel = m(du * (np.arange(-half, half) + 0.5) / eps) / eps
    starts = 5000 - half + 50 * np.arange(k_points)
    sums = sliding_window_view(fu, 2 * half)[starts] @ kernel
    sup_value = float(np.max(np.abs(sums * du)))
    c = m.sup / eps
    tol = 1e-12
    return {"sup_value": sup_value, "l1_norm": l1_norm, "c": c,
            "holds": bool(sup_value <= c * l1_norm * (1 + tol)), "tolerance": tol,
            "cells": cells, "k_points": k_points}


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
                out *= base
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
