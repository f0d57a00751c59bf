import math

import numpy as np
import pytest
from scipy.integrate import quad

from funcalg import colombeau
from funcalg.colombeau import (
    EpsilonNet,
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

    def test_heaviside_derivative_growth(self, m2):
        rep = estimate_order(seminorm_net(catalog("heaviside"), m2, alpha=1))
        assert rep.slope == pytest.approx(-1.0, abs=0.2)


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
        assert rep["sup_value"] == pytest.approx(1.0, abs=1e-3)


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

    def test_spike_mass(self):
        f = catalog("spike:0.5")
        x = np.linspace(-1, 1, 200001)
        mass = np.trapezoid(f(x), x)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("nope")
