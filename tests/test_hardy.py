import numpy as np
import pytest

from funcalg import hardy
from funcalg.numcore import (
    BoundaryGrid,
    HoloPoly,
    OperatorMatrix,
    boundary_fourier,
    boundary_grid_from,
)


class TestNorm:
    def test_constant(self):
        assert hardy.hardy_norm(HoloPoly([3.0]), 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_monomial_p2(self):
        # circle mean of |z|^2 at radius r is r^2; sup over the ladder is at 0.9999
        val = hardy.hardy_norm(HoloPoly([0, 1]), 2.0)
        assert val == pytest.approx(0.9999, abs=1e-12)

    def test_parseval_oracle(self):
        f = HoloPoly([1.0, 2.0 - 1j, 0.0, 0.5j])
        r = 0.99
        # oracle: sqrt(sum |a_k|^2 r^(2k))
        k = np.arange(4)
        target = np.sqrt(np.sum(np.abs(f.coeffs) ** 2 * r ** (2 * k)))
        assert hardy.hardy_norm_parseval(f, r) == pytest.approx(target, abs=1e-14)
        grid = hardy.hardy_norm(f, 2.0, radii=[r])
        assert grid == pytest.approx(target, abs=1e-10)

    def test_monotone_in_radius(self):
        f = HoloPoly([1.0, 0.5, -0.25])
        vals = [hardy.hardy_norm_parseval(f, r) for r in hardy.RADIUS_LADDER]
        assert np.all(np.diff(vals) > 0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            hardy.hardy_norm(HoloPoly([1.0]), 2.0, radii=[1.5])


class TestKernels:
    def test_szego_geometric_series(self):
        # oracle: 60-term geometric series of z conj(xi)
        z, xi = 0.3 + 0.2j, np.exp(0.7j)
        series = sum((z * np.conj(xi)) ** k for k in range(60))
        assert hardy.szego_kernel(z, xi) == pytest.approx(series, abs=1e-12)

    def test_poisson_half_at_one(self):
        # oracle: P(0.5, 1) = (1 - 0.25) / 0.25 = 3
        assert hardy.poisson_kernel(0.5, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_poisson_at_origin(self):
        xi = np.exp(2j * np.pi * np.arange(16) / 16)
        np.testing.assert_allclose(hardy.poisson_kernel(0.0, xi), 1.0, atol=1e-14)

    def test_poisson_is_szego_combination(self):
        # P(z, xi) = 2 Re C(z, xi) - 1
        z, xi = 0.4 - 0.1j, np.exp(1.3j)
        assert hardy.poisson_kernel(z, xi) == pytest.approx(
            2 * np.real(hardy.szego_kernel(z, xi)) - 1, abs=1e-13)

    def test_rejects_interior_xi(self):
        with pytest.raises(ValueError):
            hardy.szego_kernel(0.2, 0.5)

    def test_rejects_exterior_z(self):
        with pytest.raises(ValueError):
            hardy.poisson_kernel(1.2, 1.0)


class TestReproduction:
    def test_szego_reproduces(self):
        f = HoloPoly([1.0, -2.0j, 0.5, 0.0, 1.0])
        for z in [0.0, 0.5, 0.3 - 0.6j]:
            assert hardy.szego_reproduce(f, z) == pytest.approx(f(z), abs=1e-10)

    def test_poisson_reproduces(self):
        f = HoloPoly([2.0, 1.0j, -0.5])
        for z in [0.1, -0.4 + 0.3j]:
            assert hardy.poisson_reproduce(f, z) == pytest.approx(f(z), abs=1e-10)

    def test_subharmonic_holds(self):
        f = HoloPoly([1.0, 1.0, 1.0])
        for p in (1.0, 2.0):
            rep = hardy.subharmonic_check(f, 0.3 + 0.2j, p)
            assert rep["holds"]

    def test_subharmonic_large_constant_holds(self):
        # |f|^p is constant: lhs 1e18 and rhs 9.999999999999999e17 differ by
        # rounding only, far above any absolute slack but within the relative one
        f = HoloPoly([1e6 * (0.6 + 0.8j)])
        rep = hardy.subharmonic_check(f, -0.7j, 3.0)
        assert rep["lhs"] == pytest.approx(1e18, rel=1e-15)
        assert rep["rhs"] == pytest.approx(rep["lhs"], rel=1e-14)
        assert rep["holds"] is True and rep["tolerance"] == 1e-8

    def test_subharmonic_tolerance_is_relative(self, monkeypatch):
        # a Poisson average 2e-8 relative below |f(z)|^p fails at any scale
        monkeypatch.setattr(hardy, "poisson_kernel", lambda z, xi: np.full(len(xi), 1 - 2e-8))
        f = HoloPoly([1.0])
        for c in (1e-6, 1.0, 1e6):
            assert hardy.subharmonic_check(c * f, 0.2, 2.0)["holds"] is False

    def test_degree_guard(self):
        f = HoloPoly(np.ones(100))
        with pytest.raises(ValueError):
            hardy.szego_reproduce(f, 0.1)


def fourier_array(coeffs: dict, size: int) -> np.ndarray:
    """FFT-order array of length size holding coeffs[k] at index k mod size."""
    out = np.zeros(size, dtype=complex)
    for k, c in coeffs.items():
        out[k] = c
    return out


def as_dict(c: np.ndarray) -> dict:
    """Offset -> coefficient for -len/2 < k <= len/2, the layout's meaning."""
    n = len(c)
    return {(i if i <= n // 2 else i - n): c[i] for i in range(n)}


def dict_product(a: dict, b: dict) -> dict:
    """The former dict double loop: convolution of two offset maps."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, 0.0) + ca * cb
    return out


class TestToeplitz:
    def test_entries_from_map(self):
        phi_hat = fourier_array({0: 1.0, 1: 2.0, -1: 3.0}, 5)
        mat = hardy.hardy_toeplitz(phi_hat, 2)
        assert isinstance(mat, OperatorMatrix)
        expected = np.array([[1, 3, 0], [2, 1, 3], [0, 2, 1]], dtype=complex)
        np.testing.assert_array_equal(mat.entries, expected)

    def test_missing_offsets(self):
        # cutoff 2 needs offsets -2..2, five entries
        with pytest.raises(ValueError):
            hardy.hardy_toeplitz(np.ones(4, dtype=complex), 2)
        assert hardy.hardy_toeplitz(np.ones(5, dtype=complex), 2).entries.shape == (3, 3)

    def test_even_grid_too_short(self):
        # an 8-point grid holds offsets -3..4, too few for cutoff 4
        phi_hat = boundary_fourier(boundary_grid_from(lambda xi: xi, 8))
        with pytest.raises(ValueError):
            hardy.hardy_toeplitz(phi_hat, 4)

    def test_closed_form_from_sampled_trig_polynomial(self):
        # oracle: M[j, k] = phi_hat(j - k) from the coefficients the symbol was built from
        coeffs = {-3: 0.5j, -1: 2.0, 0: 1.0 - 1j, 2: -0.25, 3: 4.0j}
        b = boundary_grid_from(lambda xi: sum(c * xi ** k for k, c in coeffs.items()), 16)
        n = 6
        mat = hardy.hardy_toeplitz(boundary_fourier(b), n).entries
        expected = np.array([[coeffs.get(j - k, 0.0) for k in range(n + 1)]
                             for j in range(n + 1)])
        np.testing.assert_allclose(mat, expected, atol=1e-14)

    def test_adjoint_exact(self):
        rng = np.random.default_rng(13)
        phi_hat = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        a = hardy.hardy_toeplitz(hardy.conjugate_symbol(phi_hat), 5).entries
        b = hardy.hardy_toeplitz(phi_hat, 5).entries.conj().T
        assert np.max(np.abs(a - b)) == 0.0

    def test_symbol_product_oracle(self):
        # oracle: polynomial multiplication of the symbol series
        a = fourier_array({0: 1.0, 1: 2.0}, 3)
        b = fourier_array({-1: 3.0, 0: 4.0}, 3)
        prod = hardy.symbol_product(a, b)
        np.testing.assert_array_equal(prod, fourier_array({-1: 3.0, 0: 10.0, 1: 8.0}, 5))

    @pytest.mark.parametrize("la, lb", [(7, 5), (8, 5), (5, 16)])
    def test_symbol_product_matches_dict_loop(self, la, lb):
        rng = np.random.default_rng(la * lb)
        a = rng.standard_normal(la) + 1j * rng.standard_normal(la)
        b = rng.standard_normal(lb) + 1j * rng.standard_normal(lb)
        prod = hardy.symbol_product(a, b)
        assert len(prod) == la + lb - 1
        expected = dict_product(as_dict(a), as_dict(b))
        assert set(as_dict(prod)) == set(expected)
        for k, c in as_dict(prod).items():
            assert c == pytest.approx(expected[k], abs=1e-13)

    def test_symbol_product_exact_integers(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-9, 10, 9) + 1j * rng.integers(-9, 10, 9)
        b = rng.integers(-9, 10, 4) + 1j * rng.integers(-9, 10, 4)
        expected = dict_product(as_dict(a), as_dict(b))
        assert as_dict(hardy.symbol_product(a, b)) == expected

    def test_symbol_product_rejects_two_even_lengths(self):
        with pytest.raises(ValueError):
            hardy.symbol_product(np.ones(4), np.ones(8))

    def test_analytic_product_block(self):
        # analytic f of degree 1: T_g T_f = T_{gf} on the leading block
        n = 6
        f_hat = fourier_array({1: 1.0}, 2 * n + 1)
        g_hat = fourier_array({-1: 2.0, 0: 1.0}, 2 * n + 1)
        prod = hardy.symbol_product(g_hat, f_hat)
        tf = hardy.hardy_toeplitz(f_hat, n).entries
        tg = hardy.hardy_toeplitz(g_hat, n).entries
        tgf = hardy.hardy_toeplitz(prod, n).entries
        blk = n
        assert np.max(np.abs((tg @ tf - tgf)[:blk, :blk])) < 1e-14


class TestDiscAlgebra:
    def test_polynomial_is_member(self):
        member, witness = hardy.disc_algebra_membership(
            boundary_grid_from(lambda xi: 1 + xi + xi ** 3, 64))
        assert member and witness is None

    def test_conjugate_witness(self):
        # xi + 0.5 conj(xi)^2 has a negative coefficient at k = -2
        member, witness = hardy.disc_algebra_membership(
            boundary_grid_from(lambda xi: xi + 0.5 * np.conj(xi) ** 2, 64))
        assert not member
        assert witness == -2

    def test_tolerance_respected(self):
        member, _ = hardy.disc_algebra_membership(
            boundary_grid_from(lambda xi: xi + 1e-14 * np.conj(xi), 64))
        assert member

    def test_tie_takes_most_negative_offset(self):
        member, witness = hardy.disc_algebra_membership(
            boundary_grid_from(lambda xi: np.conj(xi) + np.conj(xi) ** 3, 64))
        assert not member and witness == -3
        assert isinstance(witness, int)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_samples_raise(self, bad):
        samples = np.ones(64, dtype=complex)
        samples[5] = bad
        with pytest.raises(FloatingPointError, match="not finite on the boundary grid"):
            hardy.disc_algebra_membership(BoundaryGrid(samples))
