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


def reference_weights(m, order):
    """phi^(order)(y) w on the Gauss-Legendre nodes, all of them for order 0 and
    the positive ones otherwise, from a recurrence built here from scratch:
    P_0 = c(t^2), P_(n+1) = s^2 P_n' + (4n t s - 2t) P_n."""
    nodes, weights = np.polynomial.legendre.leggauss(200)
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
        nodes, _ = np.polynomial.legendre.leggauss(200)
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
        nodes, _ = np.polynomial.legendre.leggauss(200)
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
    """The windowed sum against the dense kernel m((k - u)/eps)/eps on every u."""

    def _compare(self, m, eps, k_grid, support, n_fine=20001):
        du = (support[1] - support[0]) / n_fine
        u = support[0] + du * (np.arange(n_fine) + 0.5)
        kernel = m((k_grid[:, None] - u[None, :]) / eps) / eps
        for name in L1_CATALOG:
            fu = np.asarray(catalog(name)(u), dtype=float)
            dense = float(np.max(np.abs(kernel @ fu * du)))
            l1_norm = float(np.sum(np.abs(fu)) * du)
            rep = l1_embedding_bound(catalog(name), m, eps, k_grid=k_grid, support=support)
            assert rep["sup_value"] == pytest.approx(dense, rel=1e-13, abs=0)
            assert rep["l1_norm"] == l1_norm
            assert rep["c"] == m.sup / eps
            assert rep["holds"] == bool(dense <= rep["c"] * l1_norm * (1 + rep["tolerance"]))

    @pytest.mark.parametrize("q", [0, 2, 4])
    @pytest.mark.parametrize("j", range(1, 7))
    def test_matches_dense_kernel(self, q, j):
        self._compare(build_mollifier(q), 2.0 ** -j, np.linspace(-1.0, 1.0, 201), (-2.0, 2.0))

    def test_windows_past_the_grid_ends(self, m2):
        self._compare(m2, 0.5, np.linspace(-1.4, 1.4, 201), (-1.5, 1.5))

    @pytest.mark.parametrize("eps", [0.0, -0.25, float("nan")])
    def test_rejects_nonpositive_eps(self, m2, eps):
        with pytest.raises(ValueError, match="eps"):
            l1_embedding_bound(catalog("const"), m2, eps)


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

    def test_poly_ladders_unchanged(self, m2):
        # values of the out-of-place products, q = 2, default ladder and grid
        recorded = {
            ("poly:2", "taylor"): [
                3.3306690738754696e-16, 3.3306690738754696e-16, 4.440892098500626e-16,
                4.440892098500626e-16, 3.3306690738754696e-16, 3.3306690738754696e-16,
                3.3306690738754696e-16, 3.3306690738754696e-16, 3.3306690738754696e-16,
                3.3306690738754696e-16, 3.3306690738754696e-16, 3.3306690738754696e-16],
            ("poly:2", "seminorm"): [
                7.0047093125857884e-12, 2.823055678113917e-11, 1.137223093472528e-10,
                4.675115850005795e-10, 2.0207169271202474e-09, 8.325368838768554e-09,
                3.3526546872053586e-08, 1.2143289040977834e-07, 1.3413136912276968e-06,
                8.595578037784435e-06, 5.183034954825416e-05, 0.0004098062199773267],
            ("poly:5", "taylor"): [
                0.009375477773035934, 0.000585967360814954, 3.662296005102483e-05,
                2.2889350034249745e-06, 1.4305843787365546e-07, 8.94115237404236e-09,
                5.588223217500854e-10, 3.4926728176287725e-11, 2.1829205110179828e-12,
                1.3655743202889425e-13, 8.770761894538737e-15, 8.881784197001252e-16],
            ("poly:5", "seminorm"): [
                59.99999999997466, 59.99999999992294, 59.999999999717055,
                59.999999998818055, 59.99999999520986, 59.9999999869602,
                59.99999996651678, 59.9999996893921, 59.99999708344785,
                59.99998252437581, 60.000063715691795, 60.000226315285545],
        }
        for (name, kind), values in recorded.items():
            net = (taylor_defect(catalog(name), m2) if kind == "taylor"
                   else seminorm_net(catalog(name), m2, 3))
            np.testing.assert_array_equal(net.values, values)

    def test_spike_mass(self):
        f = catalog("spike:0.5")
        x = np.linspace(-1, 1, 200001)
        mass = np.trapezoid(f(x), x)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("nope")
