import math

import numpy as np
import pytest

from funcalg import bergman, numcore, suites
from funcalg.numcore import GridError, HoloPoly, build_disc_quadrature, sample


@pytest.fixture(scope="module")
def quad():
    return build_disc_quadrature(0.0, 64, 256)


class TestKernel:
    def test_at_origin(self):
        assert bergman.bergman_kernel(0.0, 0.3 + 0.1j) == pytest.approx(1.0)

    def test_series_oracle(self):
        # oracle: K(z, u) = sum_k (k+1) (z conj(u))^k, 60 terms
        z, u = 0.3j, 0.4
        w = z * np.conj(u)
        series = sum((k + 1) * w ** k for k in range(60))
        assert bergman.bergman_kernel(z, u) == pytest.approx(series, abs=1e-9)

    def test_hermitian_symmetry(self):
        z, u = 0.2 + 0.5j, -0.3 + 0.1j
        assert bergman.bergman_kernel(z, u) == pytest.approx(
            np.conj(bergman.bergman_kernel(u, z)), abs=1e-14)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            bergman.bergman_kernel(1.0, 1.0)

    def test_reproduces_polynomial(self, quad):
        # oracle: f(z) = integral f(u) K(z, u) dA(u)
        f = HoloPoly([1.0, 2.0 - 1j, 0.5])
        z = 0.4 - 0.2j
        u = numcore.node_grid(quad.nodes, quad)
        kernel_vals = 1.0 / (1.0 - z * np.conj(u)) ** 2
        val = quad.radial_weights @ np.mean(f(u) * kernel_vals, axis=1)
        assert val == pytest.approx(f(z), abs=1e-8)


class TestNorm:
    def test_constant(self, quad):
        ones = np.ones_like(quad.nodes)
        assert bergman.bergman_norm(ones, 2.0, quad) == pytest.approx(1.0, abs=1e-12)

    def test_monomial_p2(self, quad):
        # ||z||_{A^2} = 1/sqrt(2) on the unweighted disc
        val = bergman.bergman_norm(quad.nodes, 2.0, quad)
        assert val == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)

    def test_monomial_p4(self, quad):
        # oracle: (integral |z|^4 dA)^{1/4} = (1/3)^{1/4}
        val = bergman.bergman_norm(quad.nodes, 4.0, quad)
        assert val == pytest.approx(3.0 ** -0.25, abs=1e-10)

    def test_homogeneity(self, quad):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(len(quad.nodes)) + 1j * rng.standard_normal(len(quad.nodes))
        c = 2.5 - 1.5j
        assert bergman.bergman_norm(c * f, 2.0, quad) == pytest.approx(
            abs(c) * bergman.bergman_norm(f, 2.0, quad), rel=1e-12)


class TestProjection:
    def test_fixes_polynomial(self, quad):
        p = HoloPoly([1.0, 0.0, 3.0 - 2.0j, 0.25])
        proj = bergman.bergman_project(p(quad.nodes), quad, 8)
        np.testing.assert_allclose(proj.coeffs[:4], p.coeffs, atol=1e-10)
        np.testing.assert_allclose(proj.coeffs[4:], 0, atol=1e-10)

    def test_kills_antiholomorphic(self, quad):
        for k in range(1, 9):
            proj = bergman.bergman_project(np.conj(quad.nodes) ** k, quad, 8)
            assert np.max(np.abs(proj.coeffs)) < 1e-10

    def test_mixed_symbol(self, quad):
        # oracle: P(|z|^2) = P(z conj(z)) keeps only the constant Fourier mode;
        # <|z|^2, 1> / m_0 = 1/2
        proj = bergman.bergman_project(np.abs(quad.nodes) ** 2, quad, 8)
        assert proj.coeffs[0] == pytest.approx(0.5, abs=1e-10)
        assert np.max(np.abs(proj.coeffs[1:])) < 1e-10

    def test_cutoff_guard(self, quad):
        with pytest.raises(Exception):
            bergman.bergman_project(np.ones_like(quad.nodes), quad, quad.n_ang)


class TestToeplitz:
    def test_identity_symbol(self, quad):
        mat = bergman.toeplitz_matrix(np.ones_like(quad.nodes), quad, 6).entries
        np.testing.assert_allclose(mat, np.eye(7), atol=1e-10)

    def test_shift_symbol(self, quad):
        # symbol z in the orthonormal basis: entry (j+1, j) = sqrt(m_{j+1}/m_j)
        # = sqrt((j+1)/(j+2)) at alpha = 0
        mat = bergman.toeplitz_matrix(quad.nodes, quad, 6).entries
        j = np.arange(6)
        expected = np.sqrt((j + 1.0) / (j + 2.0))
        np.testing.assert_allclose(np.diag(mat, -1), expected, atol=1e-10)
        off = mat - np.diag(np.diag(mat, -1), -1)
        assert np.max(np.abs(off)) < 1e-10

    def test_radial_symbol_diagonal(self, quad):
        # |z|^2 is radial: the matrix is diagonal, entry m_{k+1}/m_k = (k+1)/(k+2)
        mat = bergman.toeplitz_matrix(np.abs(quad.nodes) ** 2, quad, 6).entries
        k = np.arange(7)
        np.testing.assert_allclose(np.diag(mat), (k + 1.0) / (k + 2.0), atol=1e-10)
        assert np.max(np.abs(mat - np.diag(np.diag(mat)))) < 1e-10

    def test_adjoint(self, quad):
        rng = np.random.default_rng(5)
        phi = (rng.standard_normal(len(quad.nodes))
               + 1j * rng.standard_normal(len(quad.nodes)))
        a = bergman.toeplitz_matrix(np.conj(phi), quad, 8).entries
        b = bergman.toeplitz_matrix(phi, quad, 8).entries.conj().T
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_operator_matrix_validation(self):
        with pytest.raises(ValueError):
            bergman.OperatorMatrix(np.ones((2, 3)))

    def test_one_matrix_type(self, quad):
        mat = bergman.toeplitz_matrix(np.ones(len(quad.nodes)), quad, 2)
        assert isinstance(mat, numcore.OperatorMatrix)
        assert bergman.OperatorMatrix is numcore.OperatorMatrix


def exact_moment(alpha, k):
    """m_k = k! Gamma(alpha+2) / Gamma(k+alpha+2), computed without quadrature."""
    return math.exp(math.lgamma(k + 1) + math.lgamma(alpha + 2) - math.lgamma(k + alpha + 2))


class TestClosedFormOracle:
    """Symbols z^a conj(z)^b against closed forms that use no quadrature.

    16 Gauss-Jacobi radial nodes integrate the moments s^(k+a) <= s^19 exactly,
    so fractional alpha is held to the same 1e-12 as integral alpha.
    """

    CUTOFF = 16
    MONOMIALS = [(a, b) for a in range(4) for b in range(4)]

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.5])
    def test_toeplitz_monomial_symbols(self, alpha):
        n = self.CUTOFF
        q = build_disc_quadrature(alpha, 16, 64)
        m = [exact_moment(alpha, k) for k in range(n + 4)]
        for a, b in self.MONOMIALS:
            phi = q.nodes ** a * np.conj(q.nodes) ** b
            # M[j, k] = delta(j, k+a-b) m_(k+a) / sqrt(m_j m_k)
            expected = np.zeros((n + 1, n + 1))
            for k in range(n + 1):
                j = k + a - b
                if 0 <= j <= n:
                    expected[j, k] = m[k + a] / math.sqrt(m[j] * m[k])
            mat = bergman.toeplitz_matrix(phi, q, n).entries
            np.testing.assert_allclose(mat, expected, rtol=0, atol=1e-12,
                                       err_msg=f"a={a} b={b}")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.5])
    def test_projection_monomial_symbols(self, alpha):
        n = self.CUTOFF
        q = build_disc_quadrature(alpha, 16, 64)
        for a, b in self.MONOMIALS:
            phi = q.nodes ** a * np.conj(q.nodes) ** b
            # P(z^a conj(z)^b) = (m_a / m_(a-b)) z^(a-b) for a >= b, else 0
            expected = np.zeros(n + 1)
            if a >= b:
                expected[a - b] = exact_moment(alpha, a) / exact_moment(alpha, a - b)
            proj = bergman.bergman_project(phi, q, n).coeffs
            np.testing.assert_allclose(proj, expected, rtol=0, atol=1e-12,
                                       err_msg=f"a={a} b={b}")

    def test_wrong_sample_count(self, quad):
        short = np.ones(len(quad.nodes) - 1)
        with pytest.raises(GridError):
            bergman.toeplitz_matrix(short, quad, 4)
        with pytest.raises(GridError):
            bergman.bergman_project(short, quad, 4)


class TestCircleConvolution:
    def test_direct_oracle(self):
        # oracle: O(M^2) direct normalized convolution sum
        rng = np.random.default_rng(11)
        m = 32
        f = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        direct = np.array([sum(f[j] * g[(i - j) % m] for j in range(m)) / m
                           for i in range(m)])
        from funcalg.numcore import BoundaryGrid
        conv = bergman.circle_convolution(BoundaryGrid(f), BoundaryGrid(g))
        np.testing.assert_allclose(conv.samples, direct, atol=1e-12)

    def test_fourier_multiplies(self):
        from funcalg.numcore import BoundaryGrid, boundary_fourier
        rng = np.random.default_rng(12)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        conv = bergman.circle_convolution(BoundaryGrid(f), BoundaryGrid(g))
        cf = boundary_fourier(BoundaryGrid(f))
        cg = boundary_fourier(BoundaryGrid(g))
        cc = boundary_fourier(conv)
        for k in (-5, 0, 3):
            assert cc[k] == pytest.approx(cf[k] * cg[k], abs=1e-12)


    def test_angular_convolution_per_row(self):
        # oracle: direct normalized convolution sum, one row (radius) at a time
        rng = np.random.default_rng(13)
        m = 16
        f = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        g = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        direct = np.array([[sum(f[r, j] * g[r, (i - j) % m] for j in range(m)) / m
                            for i in range(m)] for r in range(3)])
        np.testing.assert_allclose(bergman.angular_convolution(f, g), direct, atol=1e-12)

    def test_size_mismatch(self):
        from funcalg.numcore import BoundaryGrid
        with pytest.raises(GridError):
            bergman.circle_convolution(BoundaryGrid(np.ones(8)), BoundaryGrid(np.ones(16)))


class TestSubmultiplicativity:
    def test_monomial_pair_fails_honestly(self, quad):
        # f = g = z: lhs = 1/sqrt(3) > 1/2 = rhs, so the general radius-
        # dependent inequality does NOT hold for this pair
        f = sample(lambda z: z, quad)
        rep = bergman.check_convolution_submultiplicative(f, f, 2.0, quad)
        assert rep["lhs"] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)
        assert rep["rhs"] == pytest.approx(0.5, abs=1e-9)
        assert rep["holds"] is False
        assert rep["tolerance"] == 1e-9

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_radial_pair_fails_at_every_scale(self, quad, scale):
        # |z|^16 puts its mass on a thin band of radii: the per-radius inequality
        # fails, and a relative tolerance keeps that answer when both are scaled
        f = sample(lambda z: scale * np.abs(z) ** 16, quad)
        for p in (1.0, 2.0):
            rep = bergman.check_convolution_submultiplicative(f, f, p, quad)
            assert rep["lhs"] > 2.0 * rep["rhs"]
            assert rep["holds"] is False

    @pytest.mark.parametrize("norms,holds", [
        ((1e-12 * (1 + 1e-8), 1e-6, 1e-6), False),    # 1e-20 over, but 1e-8 relative
        ((1e6 * (1 + 1e-10), 1e3, 1e3), True),         # 1e-4 over, but 1e-10 relative
    ])
    def test_tolerance_is_relative(self, quad, monkeypatch, norms, holds):
        # bergman_norm is called for f*g, then f, then g
        values = iter(norms)
        monkeypatch.setattr(bergman, "bergman_norm", lambda f, p, q: next(values))
        ones = np.ones((quad.n_rad, quad.n_ang), dtype=complex)
        rep = bergman.check_convolution_submultiplicative(ones, ones, 2.0, quad)
        assert rep["tolerance"] == 1e-9 and rep["holds"] is holds

    def test_tiled_rings_match_the_circle_check(self, quad):
        # on radius-independent data the radial weights (summing to 1) drop
        # out: the disc check equals the suite's one-ring check on the circle
        rng = np.random.default_rng(7)
        chars = np.exp(1j * np.outer(np.arange(-6, 7), quad.angles))
        for p in (1.0, 2.0, 4.0):
            for _ in range(5):
                f, g = ((rng.standard_normal(13) + 1j * rng.standard_normal(13)) @ chars
                        for _ in range(2))
                rep = bergman.check_convolution_submultiplicative(
                    np.tile(f, (quad.n_rad, 1)), np.tile(g, (quad.n_rad, 1)), p, quad)
                lhs, rhs = suites._circle_norms(f, g, p)
                assert rep["lhs"] == pytest.approx(lhs, rel=1e-14, abs=0)
                assert rep["rhs"] == pytest.approx(rhs, rel=1e-14, abs=0)

    def test_radius_independent_pair_holds(self, quad):
        rng = np.random.default_rng(2)
        theta = quad.angles
        ring_f = np.exp(1j * theta) + 0.5 * np.exp(-2j * theta)
        ring_g = 1.0 + 0.25j * np.exp(3j * theta)
        f = np.tile(ring_f, (quad.n_rad, 1))
        g = np.tile(ring_g, (quad.n_rad, 1))
        for p in (1.0, 2.0, 4.0):
            rep = bergman.check_convolution_submultiplicative(f, g, p, quad)
            assert rep["holds"], rep

    def test_constant_pair_sharp(self, quad):
        ones = np.ones((quad.n_rad, quad.n_ang), dtype=complex)
        rep = bergman.check_convolution_submultiplicative(ones, ones, 2.0, quad)
        assert rep["lhs"] == pytest.approx(1.0, abs=1e-12)
        assert rep["rhs"] == pytest.approx(1.0, abs=1e-12)
        assert rep["holds"]

    def test_rejects_bad_input(self, quad):
        ones = np.ones((quad.n_rad, quad.n_ang), dtype=complex)
        with pytest.raises(ValueError):
            bergman.check_convolution_submultiplicative(ones, ones, 0.0, quad)
        with pytest.raises(GridError):
            bergman.check_convolution_submultiplicative(ones[:, :8], ones, 2.0, quad)
