import functools
import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import Chebyshev, Polynomial
from scipy.integrate import quad

from funcalg import colombeau
from funcalg.colombeau import (
    EpsilonNet,
    Mollifier,
    build_mollifier,
    catalog,
    default_ladder,
    estimate_order,
    l1_embedding_bound,
    mollifier_moment,
    product_defect,
    regularize,
    regularize_derivative,
    seminorm_net,
    taylor_defect,
)


@pytest.fixture(scope="module")
def m2():
    return build_mollifier(2)


class TestMollifier:
    @pytest.mark.parametrize("q", [0, 2, 4])
    def test_moments(self, q):
        m = build_mollifier(q)
        assert mollifier_moment(m, 0) == pytest.approx(1.0, abs=1e-10)
        for a in range(1, q + 1):
            assert abs(mollifier_moment(m, a)) < 1e-9

    def test_even_kills_next_odd_moment(self, m2):
        # evenness annihilates moment q + 1 as well
        assert abs(mollifier_moment(m2, 3)) < 1e-12

    def test_mass_against_scipy_oracle(self, m2):
        oracle, _ = quad(lambda t: float(m2(np.array([t]))[0]), -1, 1, limit=200)
        assert oracle == pytest.approx(1.0, abs=1e-8)

    def test_compact_support(self, m2):
        t = np.array([-2.0, -1.0, 1.0, 3.5])
        np.testing.assert_array_equal(m2(t), 0.0)

    def test_bump_matches_masked_reference(self):
        # reference: exp(-1/(1 - t^2)) evaluated on |t| < 1 only, 0 elsewhere
        rng = np.random.default_rng(11)
        t = np.concatenate([rng.uniform(-1.5, 1.5, 2000), np.nextafter(1.0, [0.0, 2.0]),
                            -np.nextafter(1.0, [0.0, 2.0]), [0.0, -0.0, 1.0, -1.0],
                            [np.nan, np.inf, -np.inf, 1e200, 5e-324]])
        want = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        want[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        with np.errstate(over="ignore"):
            got = colombeau._bump(t ** 2)
        assert got.tobytes() == want.tobytes()
        assert colombeau._bump(np.float64(0.25)).shape == ()

    def test_even_symmetry(self, m2):
        t = np.linspace(0, 0.99, 50)
        np.testing.assert_allclose(m2(t), m2(-t), atol=1e-15)

    def test_q0_is_positive(self):
        m0 = build_mollifier(0)
        t = np.linspace(-0.99, 0.99, 101)
        assert np.all(m0(t) > 0)

    def test_rejects_odd_q(self):
        with pytest.raises(ValueError):
            build_mollifier(3)

    def test_derivative_fn_difference_oracle(self, m2):
        d1 = m2.derivative_fn(1)
        t = np.linspace(-0.8, 0.8, 33)
        h = 1e-6
        fd = (m2(t + h) - m2(t - h)) / (2 * h)
        np.testing.assert_allclose(d1(t), fd, atol=1e-4)

    @pytest.mark.parametrize("q", [0, 2, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_derivative_fn_moment_identity(self, q, n):
        # integration by parts against the compactly supported phi:
        # int t^k phi^(n) = (-1)^n k!/(k-n)! int t^(k-n) phi, and 0 for k < n;
        # the right side uses only phi itself, not the derivative recurrence
        m = build_mollifier(q)
        t, w = np.polynomial.legendre.leggauss(400)
        dn, phi = m.derivative_fn(n)(t), m(t)
        scale = np.sum(w * np.abs(dn))
        for k in range(n + 4):
            lhs = np.sum(w * t ** k * dn)
            rhs = 0.0 if k < n else ((-1) ** n * math.factorial(k) / math.factorial(k - n)
                                     * np.sum(w * t ** (k - n) * phi))
            assert abs(lhs - rhs) <= 1e-12 * scale, (k, lhs, rhs)

    def test_derivative_fn_rejects_negative_order(self, m2):
        with pytest.raises(ValueError):
            m2.derivative_fn(-1)


def fresh(m):
    """A mollifier equal to m with nothing built yet."""
    return Mollifier(q=m.q, correction=m.correction, grid=m.grid, samples=m.samples)


def tanh_rule():
    """The 64-node tanh rule, built here from its definition: the trapezoid
    rule on 64 points of u in [-3, 3] after y = tanh(u), dy = du / cosh(u)^2."""
    u = np.linspace(-3.0, 3.0, 64)
    return np.tanh(u), (u[1] - u[0]) / np.cosh(u) ** 2


def reference_weights(m, order):
    """phi^(order)(y) w on the tanh nodes, all of them for order 0 and the
    positive ones otherwise, from a recurrence built here from scratch:
    P_0 = c(t^2), P_(n+1) = s^2 P_n' + (4n t s - 2t) P_n."""
    nodes, weights = tanh_rule()
    if order == 0:
        return m(nodes) * weights
    t = Chebyshev.identity()
    s = 1.0 - t ** 2
    p = Polynomial(m.correction)(t ** 2)
    for n in range(order):
        p = s ** 2 * p.deriv() + (4 * n * t * s - 2 * t) * p
    y = nodes[nodes > 0]
    sy = 1.0 - y ** 2
    return p(y) * np.exp(-1.0 / sy - 2 * order * np.log(sy)) * weights[nodes > 0]


class TestTanhRule:
    def test_shape_and_symmetry(self):
        # the fold in regularize_derivative pairs each positive node with its mirror
        nodes, weights = colombeau._tanh_rule()
        assert nodes.shape == weights.shape == (64,)
        assert np.count_nonzero(nodes > 0) == np.count_nonzero(nodes < 0) == 32
        assert not np.any(nodes == 0.0) and np.all(np.abs(nodes) < 1.0)
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
        np.testing.assert_allclose(nodes[::-1], -nodes, rtol=0, atol=1e-15)

    def test_built_once_read_only_and_as_defined(self):
        nodes, weights = colombeau._tanh_rule()
        assert colombeau._tanh_rule()[0] is nodes
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        want_nodes, want_weights = tanh_rule()
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)


class TestMollifierCache:
    def test_value_semantics(self):
        m2, m4 = build_mollifier(2), build_mollifier(4)
        copy = fresh(m2)
        m2.quadrature_weights(3)                 # the memo takes no part in equality
        assert copy == m2 and hash(copy) == hash(m2) and copy is not m2
        assert m2 != m4 and m2 != "m2"
        assert len({m2, copy, m4}) == 2
        assert repr(m2) == "Mollifier(q=2)"

    @pytest.mark.parametrize("q", [0, 2, 4])
    def test_built_once_and_read_only(self, q):
        m = build_mollifier(q)
        assert build_mollifier(q) is m
        for arr in (m.correction, m.grid, m.samples, m.quadrature_weights(0),
                    m.quadrature_weights(2)):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_constructor_copies(self):
        correction = build_mollifier(2).correction.copy()
        m = Mollifier(q=2, correction=correction, grid=np.zeros(3), samples=np.zeros(3))
        correction[0] = 5.0                      # the caller's array stays writable
        assert m.correction[0] == build_mollifier(2).correction[0]

    @pytest.mark.parametrize("q", [0, 2, 4])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["abs", "exp", "spike:0.25"])
    def test_derivative_matches_scratch_recurrence(self, q, order, name):
        m, f = build_mollifier(q), catalog(name)
        t = np.linspace(-1.0, 1.0, 101)[:, None]
        nodes, _ = tanh_rule()
        y = nodes[nodes > 0]
        w = reference_weights(m, order)
        assert np.array_equal(m.quadrature_weights(order), w)
        for eps in (0.5, 2.0 ** -7):
            sign = (-1.0) ** order
            want = (f(t + eps * y) + sign * f(t - eps * y)) @ w * sign / eps ** order
            assert np.array_equal(regularize_derivative(f, m, eps, t[:, 0], order), want)

    @pytest.mark.parametrize("q", [0, 2, 4])
    def test_regularize_matches_scratch_weights(self, q):
        m, f = build_mollifier(q), catalog("sin")
        nodes, _ = tanh_rule()
        k = np.linspace(-1.0, 1.0, 101)
        want = f(k[:, None] + 0.25 * nodes[None, :]) @ reference_weights(m, 0)
        assert np.array_equal(regularize(f, m, 0.25, k), want)

    @pytest.mark.parametrize("first, second", [(2, 4), (4, 2)])
    def test_weights_never_mix_across_q(self, first, second):
        ms = {q: fresh(build_mollifier(q)) for q in (first, second)}
        for q in (first, second):
            for order in (0, 1, 2, 3):
                assert np.array_equal(ms[q].quadrature_weights(order),
                                      reference_weights(ms[q], order)), (q, order)

    def test_ladder_builds_each_polynomial_once(self, monkeypatch):
        # every step of the recurrence differentiates P_n once
        built = []

        class Spy(Chebyshev):
            def deriv(self, m=1):
                built.append(self.degree())
                return super().deriv(m)

        monkeypatch.setattr(colombeau, "Chebyshev", Spy)
        Mollifier.quadrature_weights.cache_clear()
        m = fresh(build_mollifier(4))
        seminorm_net(catalog("abs"), m, 3)
        assert len(built) == 3 and len(set(built)) == 3
        seminorm_net(catalog("exp"), build_mollifier(4), 3)    # kept by value
        assert len(built) == 3


class TestRegularize:
    def test_reproduces_low_degree(self, m2):
        k_grid = np.linspace(-1, 1, 101)
        for name in ("const", "poly:1", "poly:2"):
            f = catalog(name)
            out = regularize(f, m2, 0.25, k_grid)
            np.testing.assert_allclose(out, f(k_grid), atol=1e-10)

    def test_smooth_function_quadrature_oracle(self, m2):
        # oracle: adaptive quadrature of exp(t + eps*y) phi(y)
        eps, t0 = 0.25, 0.3
        oracle, _ = quad(lambda y: np.exp(t0 + eps * y) * float(m2(np.array([y]))[0]),
                         -1, 1, limit=200)
        out = regularize(catalog("exp"), m2, eps, np.array([t0]))
        assert out[0] == pytest.approx(oracle, abs=1e-8)

    def test_heaviside_midpoint_half(self, m2):
        # at t = 0 the even mollifier averages the jump to 1/2
        out = regularize(catalog("heaviside"), m2, 0.1, np.array([0.0]))
        assert out[0] == pytest.approx(0.5, abs=1e-10)

    def test_rejects_bad_eps(self, m2):
        with pytest.raises(ValueError):
            regularize(catalog("const"), m2, 0.0, np.array([0.0]))

    def test_derivative_route_matches_symbolic(self, m2):
        # d/dt of the regularization of exp is the regularization-derivative
        k_grid = np.linspace(-0.5, 0.5, 41)
        d1 = regularize_derivative(catalog("exp"), m2, 0.25, k_grid, 1)
        # oracle: exact derivative of f_eps for f = exp is f_eps itself
        f_eps = regularize(catalog("exp"), m2, 0.25, k_grid)
        np.testing.assert_allclose(d1, f_eps, atol=1e-9)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_derivative_route_higher_orders(self, m2, order):
        # every derivative of the regularization of exp is f_eps itself; even
        # and odd orders take opposite signs in the folded node pairs
        k_grid = np.linspace(-0.5, 0.5, 41)
        dn = regularize_derivative(catalog("exp"), m2, 0.25, k_grid, order)
        f_eps = regularize(catalog("exp"), m2, 0.25, k_grid)
        np.testing.assert_allclose(dn, f_eps, atol=1e-9)


class TestSeminormNet:
    def test_alpha0_is_sup_of_regularization(self, m2):
        # oracle: the ladder value at alpha = 0 is max |f_eps| on the grid
        k_grid = np.linspace(-1, 1, 101)
        eps = np.array([0.5, 0.25])
        net = seminorm_net(catalog("sin"), m2, 0, epsilons=eps, k_grid=k_grid)
        expected = [np.max(np.abs(regularize(catalog("sin"), m2, e, k_grid))) for e in eps]
        np.testing.assert_array_equal(net.values, expected)

    def test_second_derivative_of_quadratic(self, m2):
        # (t^2 + c)'' = 2 for the constant c that regularization adds
        net = seminorm_net(catalog("poly:2"), m2, 2, epsilons=[0.5, 0.25])
        np.testing.assert_allclose(net.values, 2.0, atol=1e-9)

    def test_rejects_negative_order(self, m2):
        with pytest.raises(ValueError):
            seminorm_net(catalog("abs"), m2, -1)


class TestEstimateOrder:
    def test_exact_power_law(self):
        eps = default_ladder()
        net = EpsilonNet(epsilons=eps, values=eps ** 3, meta={})
        rep = estimate_order(net, negligible_order=3)
        assert rep.slope == pytest.approx(3.0, abs=0.01)
        assert rep.kind == "negligible"

    def test_moderate_growth(self):
        eps = default_ladder()
        net = EpsilonNet(epsilons=eps, values=eps ** -2.0, meta={})
        rep = estimate_order(net)
        assert rep.kind == "moderate"
        assert rep.order == 2

    def test_unbounded(self):
        eps = default_ladder()
        net = EpsilonNet(epsilons=eps, values=eps ** -20.0, meta={})
        assert estimate_order(net).kind == "unbounded"

    def test_all_annihilated_certifies(self):
        eps = default_ladder()
        net = EpsilonNet(epsilons=eps, values=np.full(len(eps), 1e-16), meta={})
        rep = estimate_order(net, negligible_order=7)
        assert rep.kind == "negligible" and rep.order == 7

    def test_rejects_increasing_ladder(self):
        with pytest.raises(ValueError):
            EpsilonNet(epsilons=np.array([0.1, 0.2, 0.4, 0.8]),
                       values=np.ones(4), meta={})


class TestDefectRates:
    @pytest.mark.parametrize("q,expected", [(0, 2), (2, 4)])
    def test_smooth_rate(self, q, expected):
        # even order-q mollifier also kills moment q+1: rate q+2
        m = build_mollifier(q)
        net = taylor_defect(catalog("exp"), m)
        rep = estimate_order(net)
        assert rep.slope == pytest.approx(expected, abs=0.2)

    def test_abs_rate_one(self, m2):
        rep = estimate_order(taylor_defect(catalog("abs"), m2))
        assert rep.slope == pytest.approx(1.0, abs=0.2)

    def test_product_defect_smooth_decays(self, m2):
        net = product_defect(catalog("exp"), catalog("exp"), m2)
        assert estimate_order(net).slope >= m2.q

    def test_product_defect_abs_nonzero(self, m2):
        net = product_defect(catalog("abs"), catalog("abs"), m2)
        assert np.all(net.values > 1e-10)

    def test_product_defect_evaluates_each_factor_once_per_rung(self, m2):
        calls = []

        def counted(name):
            f = catalog(name)
            return lambda t: calls.append(name) or f(t)

        net = product_defect(counted("abs"), counted("sin"), m2)
        assert len(calls) == 2 * len(net.epsilons)
        assert sorted(calls) == ["abs"] * 12 + ["sin"] * 12
        # the same sums as regularizing f, g and fg separately
        f, g = catalog("abs"), catalog("sin")
        k = np.linspace(-1.0, 1.0, 801)
        ref = [np.max(np.abs(regularize(f, m2, e, k) * regularize(g, m2, e, k)
                             - regularize(lambda t: f(t) * g(t), m2, e, k)))
               for e in net.epsilons]
        np.testing.assert_array_equal(net.values, ref)

    def test_heaviside_derivative_growth(self, m2):
        rep = estimate_order(seminorm_net(catalog("heaviside"), m2, alpha=1))
        assert rep.slope == pytest.approx(-1.0, abs=0.2)


# name, integral of |f| over [-2, 2], max |f''| on either side of 0
L1_ORACLE = [("const", 4.0, 0.0), ("poly:2", 16 / 3, 2.0), ("poly:5", 64 / 3, 160.0),
             ("abs", 4.0, 0.0), ("heaviside", 2.0, 0.0),
             ("exp", math.e ** 2 - math.e ** -2, math.e ** 2),
             ("sin", 2 * (1 - math.cos(2.0)), 1.0), ("spike:0.01", 1.0, 0.0)]


class TestL1Embedding:
    @pytest.mark.parametrize("name", ["const", "abs", "spike:0.01"])
    def test_bound_holds(self, name, m2):
        rep = l1_embedding_bound(catalog(name), m2, 2 ** -4)
        assert rep["holds"]
        assert rep["sup_value"] <= rep["c"] * rep["l1_norm"] + 1e-12

    def test_constant_values(self, m2):
        rep = l1_embedding_bound(catalog("const"), m2, 2 ** -4)
        # ||1||_L1 on [-2, 2] is 4 and the regularization of 1 is 1
        assert rep["l1_norm"] == pytest.approx(4.0, abs=1e-10)
        assert rep["sup_value"] == pytest.approx(1.0, abs=1e-13)
        assert (rep["cells"], rep["k_points"], rep["tolerance"]) == (20000, 201, 1e-12)

    @pytest.mark.parametrize("name, exact, f2", L1_ORACLE)
    def test_l1_norm_closed_form(self, name, exact, f2, m2):
        # 0 and +-0.005 are cell edges, so |f| is smooth on every cell and the
        # midpoint rule is off by at most (b - a) du^2 max|f''| / 24
        rep = l1_embedding_bound(catalog(name), m2, 2 ** -4)
        du = 4.0 / rep["cells"]
        assert abs(rep["l1_norm"] - exact) <= 4.0 * du ** 2 * f2 / 24 + 1e-13 * exact

    def test_inflated_sup_fails_at_small_scale(self, m2):
        # the kernel is m2, but its recorded sup is 1000 times too small, so the
        # sup exceeds the bound ~10 times; at 1e-14 scale that excess is far
        # below an absolute slack of 1e-12, which would have let it hold
        understated = Mollifier(m2.q, m2.correction, m2.grid, m2.samples / 1000)
        rep = l1_embedding_bound(lambda t: 1e-14 * catalog("const")(t), understated, 2 ** -4)
        bound = rep["c"] * rep["l1_norm"]
        assert bound < rep["sup_value"] < bound + 1e-12
        assert rep["holds"] is False and rep["tolerance"] == 1e-12
        assert l1_embedding_bound(lambda t: 1e-14 * catalog("const")(t), m2, 2 ** -4)["holds"]


L1_CATALOG = ["const", "poly:2", "poly:3", "abs", "heaviside", "exp", "sin", "spike:0.25"]


class TestL1EmbeddingWindow:
    """The one-kernel sum against the dense kernel m((k - u)/eps)/eps on every
    midpoint u of the 20000-cell grid of [-2, 2], for each k in K."""

    u = -2.0 + 2e-4 * (np.arange(20000) + 0.5)

    def _compare(self, m, eps):
        kernel = m((np.linspace(-1.0, 1.0, 201)[:, None] - self.u[None, :]) / eps) / eps
        for name in L1_CATALOG:
            fu = np.asarray(catalog(name)(self.u), dtype=float)
            dense = float(np.max(np.abs(kernel @ fu * 2e-4)))
            l1_norm = float(np.sum(np.abs(fu)) * 2e-4)
            rep = l1_embedding_bound(catalog(name), m, eps)
            assert rep["sup_value"] == pytest.approx(dense, rel=1e-13, abs=0)
            assert rep["l1_norm"] == l1_norm
            assert rep["c"] == m.sup / eps
            assert rep["holds"] == bool(dense <= rep["c"] * l1_norm * (1 + rep["tolerance"]))

    @pytest.mark.parametrize("q", [0, 2, 4])
    @pytest.mark.parametrize("j", range(1, 7))
    def test_matches_dense_kernel(self, q, j):
        self._compare(build_mollifier(q), 2.0 ** -j)

    def test_eps_one_stays_inside_the_grid(self, m2):
        # the windows at x = -1 and x = 1 reach the first and the last cell
        self._compare(m2, 1.0)

    def test_mollifier_called_on_width_points_only(self, m2):
        calls = []

        class Counting(Mollifier):
            def __call__(self, t):
                calls.append(np.size(t))
                return super().__call__(t)

        counting = Counting(m2.q, m2.correction, m2.grid, m2.samples)
        for j in range(7):
            calls.clear()
            l1_embedding_bound(catalog("sin"), counting, 2.0 ** -j)
            # x = 0 is a cell edge: width counts the midpoints within eps of it
            assert calls == [np.count_nonzero(np.abs(self.u) < 2.0 ** -j)]

    @pytest.mark.parametrize("eps", [0.0, -0.25, float("nan")])
    def test_rejects_nonpositive_eps(self, m2, eps):
        with pytest.raises(ValueError, match="eps"):
            l1_embedding_bound(catalog("const"), m2, eps)

    @pytest.mark.parametrize("eps", [1.0 + 2 ** -52, 2.0, float("inf")])
    def test_rejects_eps_above_one(self, m2, eps):
        with pytest.raises(ValueError, match="eps"):
            l1_embedding_bound(catalog("const"), m2, eps)


# every derivative of these in closed form: f^(n)(t)
DERIVATIVES = {
    "exp": lambda n, t: np.exp(t),
    "sin": lambda n, t: np.sin(t + n * np.pi / 2),
    "poly:2": lambda n, t: math.perm(2, n) * t ** max(2 - n, 0),
    "poly:5": lambda n, t: math.perm(5, n) * t ** max(5 - n, 0),
}
ROUNDING = 64 * 2.0 ** -53      # gamma_64 ~ 64 u, Higham's bound for a 64-term sum


@functools.cache
def moments(q: int) -> np.ndarray:
    """M_j = integral y^j phi(y) dy for j < 26 by adaptive quadrature, so
    independent of the rule the code uses; the odd ones vanish by symmetry."""
    m, out = build_mollifier(q), np.zeros(26)
    for j in range(0, 26, 2):
        out[j] = 2 * quad(lambda y: y ** j * float(m(np.array([y]))[0]), 0, 1,
                          epsabs=1e-15, epsrel=1e-12, limit=200)[0]
    return out


class TestLadderOracle:
    """Every rung of taylor_defect and of seminorm_net at alpha 0..3 against
    the moment series f_eps^(alpha) = sum_j M_j eps^j f^(j + alpha) / j!; the
    Taylor defect f - f_eps sums the tail j >= 1 directly.  A rung matches
    within 1e-6 relative or within the rounding bound
    64 u eps^-alpha max_K sum_i |w_i| |f(t + eps y_i)| (over both folded
    nodes, and with |f(t)| added for the Taylor defect)."""

    @staticmethod
    def exact(name, q, alpha, eps, t, taylor):
        m_j, start = moments(q), int(taylor)
        series = sum(m_j[j] * eps ** j / math.factorial(j) * DERIVATIVES[name](j + alpha, t)
                     for j in range(start, len(m_j)))
        return float(np.max(np.abs(series)))

    @staticmethod
    def rounding_bound(name, m, alpha, eps, t, taylor):
        f, w = catalog(name), np.abs(m.quadrature_weights(alpha))
        nodes = colombeau._tanh_rule()[0]
        t = t[:, None]
        if alpha == 0:
            mass = np.abs(f(t + eps * nodes)) @ w + taylor * np.abs(f(t[:, 0]))
        else:
            y = nodes[nodes > 0]
            mass = (np.abs(f(t + eps * y)) + np.abs(f(t - eps * y))) @ w
        return ROUNDING * eps ** -alpha * float(np.max(mass))

    def test_every_rung_matches_moment_series(self):
        k = np.linspace(-1.0, 1.0, 801)
        misses, relative = [], 0
        for q, name in itertools.product((0, 2, 4), DERIVATIVES):
            m, f = build_mollifier(q), catalog(name)
            nets = [(0, True, taylor_defect(f, m))]
            nets += [(a, False, seminorm_net(f, m, a)) for a in range(4)]
            for alpha, taylor, net in nets:
                for eps, got in zip(net.epsilons, net.values):
                    want = self.exact(name, q, alpha, eps, k, taylor)
                    noise = self.rounding_bound(name, m, alpha, eps, k, taylor)
                    relative += abs(got - want) <= 1e-6 * want
                    if not abs(got - want) <= max(1e-6 * want, noise):
                        misses.append((name, q, alpha, taylor, eps, got, want, noise))
        assert misses == []
        # the relative test carries most rungs: the bound is no blanket pass
        assert relative >= 0.75 * 3 * len(DERIVATIVES) * 5 * 12, relative


class TestCatalog:
    def test_names(self):
        t = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(catalog("abs")(t), [1.0, 0.0, 2.0])
        np.testing.assert_allclose(catalog("heaviside")(t), [0.0, 0.5, 1.0])
        np.testing.assert_allclose(catalog("poly:3")(t), [-1.0, 0.0, 8.0])

    def test_poly_matches_power(self):
        t = np.linspace(-3.0, 3.0, 60)
        for k in range(-3, 7):
            np.testing.assert_allclose(catalog(f"poly:{k}")(t), t ** float(k), rtol=1e-14)
        assert float(catalog("poly:3")(-2.0)) == -8.0

    @pytest.mark.parametrize("k", [-3, 0, 2, 5])
    def test_poly_equals_repeated_products(self, k):
        # in place or not, the products are the same roundings in the same order
        t = np.concatenate([-np.geomspace(3.0, 0.01, 50), np.geomspace(0.01, 3.0, 50)])
        base = t if k >= 0 else 1.0 / t
        ref = np.ones_like(t)
        for _ in range(abs(k)):
            ref = ref * base
        np.testing.assert_array_equal(catalog(f"poly:{k}")(t), ref)
        assert float(catalog(f"poly:{k}")(t[3])) == ref[3]

    def test_spike_mass(self):
        f = catalog("spike:0.5")
        x = np.linspace(-1, 1, 200001)
        mass = np.trapezoid(f(x), x)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("nope")
