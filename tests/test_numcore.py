import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi

from funcalg.numcore import (
    BoundaryGrid,
    GridError,
    HoloPoly,
    boundary_fourier,
    boundary_grid_from,
    boundary_points,
    boundary_synthesis,
    build_disc_quadrature,
    circle_mean,
    gauss_jacobi,
    inner_product,
    node_grid,
    radial_moment,
    sample,
)


def disc_integral(values, q):
    """Integral of grid samples against dA_alpha: radial rule over angular means."""
    return q.radial_weights @ np.mean(node_grid(values, q), axis=1)


class TestHoloPoly:
    def test_linear_monomial(self):
        p = HoloPoly([0, 1])
        assert p(0.5) == 0.5

    def test_constant(self):
        p = HoloPoly([1])
        for z in [0, 0.3 + 0.4j, 1j]:
            assert p(z) == 1

    def test_square_oracle(self):
        # oracle: direct squaring
        z = 0.5j
        assert HoloPoly([0, 0, 1])(z) == pytest.approx(z * z)
        assert HoloPoly([0, 0, 1])(0.5j) == pytest.approx(-0.25)

    def test_value_at_zero_exact(self):
        p = HoloPoly([3.25 + 1j, 2, 7])
        assert p(0.0) == 3.25 + 1j

    def test_ring_ops_match_pointwise(self):
        rng = np.random.default_rng(1)
        f = HoloPoly(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        g = HoloPoly(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        z = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=16))
        np.testing.assert_allclose((f + g)(z), f(z) + g(z), rtol=1e-12)
        np.testing.assert_allclose((f * g)(z), f(z) * g(z), rtol=1e-12)

    @staticmethod
    def reference_horner(coeffs, z):
        """Horner with a fresh array per step, acc * z + c."""
        z = np.asarray(z, dtype=complex)
        acc = np.full(z.shape, coeffs[-1], dtype=complex)
        for c in coeffs[-2::-1]:
            acc = acc * z + c
        return acc

    def test_in_place_horner_matches_reference(self):
        rng = np.random.default_rng(3)
        for deg in range(0, 9):
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            f = HoloPoly(coeffs)
            for shape in [(2,), (17,), (3, 5), (40, 128)]:
                z = 0.9 * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
                assert np.array_equal(f(z), self.reference_horner(coeffs, z))
            for z in [0.0, 0.3 - 0.7j, -0.99, 1j]:
                value = f(z)
                assert type(value) is complex
                ref = complex(self.reference_horner(coeffs, z))
                assert abs(value - ref) <= 1e-15 * abs(ref)


class TestDiscQuadrature:
    def test_probability_mass(self):
        q = build_disc_quadrature(0.0, 16, 32)
        assert np.sum(q.radial_weights) == pytest.approx(1.0, abs=1e-12)

    def test_mass_for_weighted(self):
        # Gauss-Jacobi in s = r^2 carries the weight (1-s)^alpha itself, so the
        # mass is exact up to rounding for integral and fractional alpha alike
        for alpha in [1.0, 2.0, 3.0, 0.5, 3.5]:
            q = build_disc_quadrature(alpha, 32, 32)
            assert np.sum(q.radial_weights) == pytest.approx(1.0, abs=1e-12)

    def test_moment_alpha0(self):
        q = build_disc_quadrature(0.0, 32, 64)
        val = disc_integral(np.abs(q.nodes) ** 2, q)
        # oracle: 2 * int_0^1 r^3 dr = 1/2
        assert val == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("alpha,n_rad,tol", [(0.0, 48, 1e-12),
                                                 (1.0, 48, 1e-12),
                                                 (2.5, 16, 1e-12)])
    def test_moments_match_radial_oracle(self, alpha, n_rad, tol):
        q = build_disc_quadrature(alpha, n_rad, 64)
        c = alpha + 1.0
        for k in range(9):
            # quad's default epsabs (1.5e-8) is too loose for a 1e-12 check
            oracle, _ = quad(lambda r: c * (1 - r * r) ** alpha * 2 * r ** (2 * k + 1),
                             0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
            val = disc_integral(np.abs(q.nodes) ** (2 * k), q)
            assert val == pytest.approx(oracle, abs=tol)
            assert radial_moment(alpha, k) == pytest.approx(oracle, abs=1e-9)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            build_disc_quadrature(-0.5, 16, 32)

    def test_rejects_tiny_grids(self):
        with pytest.raises(GridError):
            build_disc_quadrature(0.0, 2, 32)


class TestGaussJacobi:
    @pytest.mark.parametrize("n", [4, 16, 64, 128])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5, 3.5])
    def test_matches_scipy_oracle(self, n, alpha):
        x, w = gauss_jacobi(n, alpha)
        x_ref, w_ref = roots_jacobi(n, alpha, 0.0)
        assert np.max(np.abs(x - x_ref)) <= 1e-14
        assert np.max(np.abs(w - w_ref)) <= 1e-13 * np.sum(w_ref)

    def test_cached_arrays_are_read_only(self):
        x, w = gauss_jacobi(16, 1.5)
        assert gauss_jacobi(16, 1.5)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_mutating_a_build_leaves_the_next_unchanged(self):
        q = build_disc_quadrature(1.5, 16, 32)
        expected = q.radial_weights.copy()
        for arr in (q.radial_weights, q.radii, q.angles, q.nodes):
            with pytest.raises(ValueError):
                arr[:] = 0.0
        fresh = build_disc_quadrature(1.5, 16, 32)
        assert fresh is q
        np.testing.assert_array_equal(fresh.radial_weights, expected)
        assert np.all(fresh.radii > 0.0)


class TestInnerProduct:
    def setup_method(self):
        self.q = build_disc_quadrature(0.0, 48, 64)

    def test_unit_mass(self):
        ones = np.ones_like(self.q.nodes)
        assert inner_product(ones, ones, self.q) == pytest.approx(1.0, abs=1e-12)

    def test_monomial_norms(self):
        for k in range(9):
            zk = self.q.nodes ** k
            assert inner_product(zk, zk, self.q) == pytest.approx(1 / (k + 1), abs=1e-10)

    def test_angular_orthogonality(self):
        val = inner_product(self.q.nodes, self.q.nodes ** 2, self.q)
        assert abs(val) < 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(len(self.q.nodes)) + 1j * rng.standard_normal(len(self.q.nodes))
        g = rng.standard_normal(len(self.q.nodes)) + 1j * rng.standard_normal(len(self.q.nodes))
        assert inner_product(f, g, self.q) == pytest.approx(
            np.conj(inner_product(g, f, self.q)), abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(GridError):
            inner_product(np.ones(3), np.ones(3), self.q)

    def test_sample_is_tensor_shaped(self):
        vals = sample(HoloPoly([0, 1]), self.q)
        assert vals.shape == (self.q.n_rad, self.q.n_ang)
        np.testing.assert_array_equal(vals.ravel(), self.q.nodes)

    def test_quadrature_exactness_mixed_monomials(self):
        # monomials z^j conj(z)^k integrate to delta_jk / (j+1) at alpha = 0
        for j in range(7):
            for k in range(7):
                val = disc_integral(self.q.nodes ** j * np.conj(self.q.nodes) ** k, self.q)
                expected = 1.0 / (j + 1) if j == k else 0.0
                assert val == pytest.approx(expected, abs=1e-10)


class TestNodeGridAndCircleMean:
    q = build_disc_quadrature(0.0, 8, 16)

    def test_node_grid_is_a_radius_major_view(self):
        grid = node_grid(self.q.nodes, self.q)
        assert grid.shape == (8, 16) and np.shares_memory(grid, self.q.nodes)
        np.testing.assert_allclose(np.abs(grid[:, 3]), self.q.radii, rtol=1e-15)

    def test_node_grid_count_mismatch(self):
        with pytest.raises(GridError, match="node count"):
            node_grid(np.ones(8 * 16 + 1), self.q)

    def test_circle_mean_per_ring(self):
        # oracle: |r e^(i theta)|^p = r^p on every point of ring r
        grid = node_grid(self.q.nodes, self.q)
        for p in (1.0, 2.5):
            np.testing.assert_allclose(circle_mean(grid, p), self.q.radii ** p, rtol=1e-14)

    def test_circle_mean_of_trig_polynomial(self):
        # oracle: Parseval, mean |sum c_k e^(i k theta)|^2 = sum |c_k|^2
        ring = boundary_points(64)
        v = 2.0 + 1j * ring ** 3 - 0.5 * ring ** -5
        assert circle_mean(v, 2.0) == pytest.approx(4.0 + 1.0 + 0.25, rel=1e-14)


class TestBoundaryFourier:
    def test_single_mode(self):
        c = boundary_fourier(boundary_grid_from(lambda x: x, 32))
        assert isinstance(c, np.ndarray) and c.shape == (32,)
        assert c[1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.delete(c, 1))) < 1e-12

    def test_conjugate_mode(self):
        c = boundary_fourier(boundary_grid_from(np.conj, 32))
        assert c[-1] == pytest.approx(1.0, abs=1e-12)

    def test_direct_summation_oracle(self):
        m = 64
        pts = np.exp(2j * np.pi * np.arange(m) / m)
        samples = 2 + 3 * pts ** 2
        c = boundary_fourier(BoundaryGrid(samples))
        # oracle: direct Riemann sum of f(xi) xi^(-k)
        for k in [-3, -1, 0, 1, 2, 5]:
            direct = np.mean(samples * pts ** (-k))
            assert c[k] == pytest.approx(direct, abs=1e-12)
        assert c[0] == pytest.approx(2.0, abs=1e-12)
        assert c[2] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("m", [8, 32])
    def test_every_offset_against_riemann_sum(self, m):
        # oracle: c[k] = mean of f(xi) xi^(-k) for every -m/2 < k <= m/2,
        # read at the negative index k for k < 0
        rng = np.random.default_rng(m)
        samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        pts = boundary_points(m)
        c = boundary_fourier(BoundaryGrid(samples))
        for k in range(-m // 2 + 1, m // 2 + 1):
            assert c[k] == pytest.approx(np.mean(samples * pts ** (-k)), abs=1e-13)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(GridError):
            BoundaryGrid(np.ones(12))

    def test_inversion(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        b = BoundaryGrid(samples)
        back = boundary_synthesis(boundary_fourier(b))
        np.testing.assert_allclose(back.samples, samples, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(8)
        samples = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        b = BoundaryGrid(samples)
        coeffs = boundary_fourier(b)
        lhs = np.sum(np.abs(samples) ** 2) / 128
        rhs = np.sum(np.abs(coeffs) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-10)
